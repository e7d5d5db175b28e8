"""A small expression language for metric entries over t, x1, x2, x3.

Grammar (precedence low to high, ``*`` ``/`` ``+`` ``-`` left-associative):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' exponent)?
    atom    := NUMBER | 'pi' | 'e' | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Exponents are restricted to rational literals: an optionally signed number,
a parenthesized optionally signed ratio of numbers, or a right-associated
chain of such literals.  Number literals are decimal and parsed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .jets import EXACT, Jet, JetDomainError, jet_call, jet_pow

VARIABLES = ("t", "x1", "x2", "x3")
# name -> (sample evaluator, needs a positive argument); jets use jets.jet_call
_FUNCTION_TABLE = {"exp": (np.exp, False), "log": (np.log, True), "sin": (np.sin, False),
                   "cos": (np.cos, False), "sqrt": (np.sqrt, True)}
FUNCTIONS = tuple(_FUNCTION_TABLE)
CONSTANTS = ("pi", "e")


class ParseError(Exception):
    """Syntax error with the byte offset and a description of what was expected."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at offset {offset}: expected {expected}")


class EvalDomainError(Exception):
    """A sample or base point fell outside a function's domain."""


@dataclass(frozen=True)
class Num:
    value: Fraction

@dataclass(frozen=True)
class Const:
    name: str  # "pi" | "e"

@dataclass(frozen=True)
class Var:
    name: str  # "t" | "x1" | "x2" | "x3"

@dataclass(frozen=True)
class Neg:
    arg: "Expr"

@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-" | "*" | "/"
    left: "Expr"
    right: "Expr"

@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction

@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"

Expr = Union[Num, Const, Var, Neg, BinOp, Pow, Call]


# -- tokenizer -----------------------------------------------------------------

_SINGLE = set("+-*/^()")


def _tokenize(text: str):
    """Yield (kind, value, offset) tuples; kind in {num, name, op, end}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            try:
                tokens.append(("num", Fraction(text[i:j]), i))
            except ValueError:  # beyond int()'s digit limit
                raise ParseError(i, "a numeric literal of at most 4300 digits") from None
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in _SINGLE:
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ParseError(i, f"a token (got {c!r})")
    tokens.append(("end", "", n))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(offset, f"'{op}'")
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError(offset, "end of input")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.unary())
                # fold literal ratios so rational constants have one canonical AST
                if (value == "/" and isinstance(node.left, Num)
                        and isinstance(node.right, Num) and node.right.value != 0):
                    node = Num(node.left.value / node.right.value)
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> Fraction:
        sign = Fraction(1)
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = Fraction(-1)
            kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            result = sign * value
        elif kind == "op" and value == "(":
            self.advance()
            result = sign * self.exponent()
            nk, nv, no = self.peek()
            if nk == "op" and nv == "/":
                self.advance()
                divisor = self.exponent()
                if divisor == 0:
                    raise ParseError(no, "a non-zero exponent denominator after '/'")
                result = result / divisor
            self.expect_op(")")
        else:
            raise ParseError(offset, "a rational literal exponent")
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":  # right-associative literal chain
            self.advance()
            e = self.exponent()
            if e.denominator != 1 or abs(e) > 1024:
                raise ParseError(offset, "an integer exponent of at most 1024 in magnitude "
                                 "in a literal power chain")
            if result == 0 and e < 0:
                raise ParseError(offset, "a non-zero base for a negative power")
            result = result ** int(e)
        return result

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(value)
        if kind == "name":
            self.advance()
            if value in CONSTANTS:
                return Const(value)
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(offset, f"a variable, constant or function (got {value!r})")
        if kind == "op" and value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(offset, "a number, name or '('")


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with the byte offset on failure."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError(parser.peek()[2], "an expression nested less deeply") from None


# -- canonical printer -----------------------------------------------------------


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Pow):  # a power base that is a power needs parentheses
        return 4
    return 9


def _fmt_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def to_text(e: Expr) -> str:
    """Canonical rendering; parse(to_text(parse(s))) == parse(s)."""
    if isinstance(e, Num):
        if e.value.denominator == 1:
            return str(e.value.numerator)
        return f"({_fmt_fraction(e.value)})"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        mine = _prec(e)
        left = to_text(e.left)
        right = to_text(e.right)
        if lp < mine:
            left = f"({left})"
        # left-associativity: parenthesize a right operand of equal precedence
        if rp < mine or (rp == mine and isinstance(e.right, BinOp)) or isinstance(e.right, Neg):
            right = f"({right})"
        return f"{left}{e.op}{right}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) < 9:
            base = f"({base})"
        exp = e.exponent
        if exp.denominator == 1 and exp >= 0:
            return f"{base}^{exp.numerator}"
        return f"{base}^({_fmt_fraction(exp)})"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


def free_variables(e: Expr) -> set:
    """Names of the variables the expression actually uses."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return set()


# -- evaluation to grid samples ---------------------------------------------------


def _domain_index(bad: np.ndarray):
    flat = int(np.argmax(bad))
    return tuple(int(i) for i in np.unravel_index(flat, bad.shape))


def eval_grid(e: Expr, env: dict) -> np.ndarray:
    """Pointwise double-precision evaluation; ``env`` binds variable names to
    floats or broadcastable arrays.  Raises EvalDomainError with the offending
    grid index for log/sqrt/fractional powers of non-positive samples."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Const):
        return np.float64(math.pi if e.name == "pi" else math.e)
    if isinstance(e, Var):
        if e.name not in env:
            raise EvalDomainError(f"unbound variable {e.name!r}")
        return np.asarray(env[e.name], dtype=np.float64)
    if isinstance(e, Neg):
        return -eval_grid(e.arg, env)
    if isinstance(e, BinOp):
        left = eval_grid(e.left, env)
        right = eval_grid(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        bad = right == 0.0
        if np.any(bad):
            raise EvalDomainError(f"division by zero at grid index {_domain_index(bad)}")
        return left / right
    if isinstance(e, Pow):
        base = eval_grid(e.base, env)
        if e.exponent.denominator == 1:
            return base ** int(e.exponent)
        bad = base <= 0.0
        if np.any(bad):
            raise EvalDomainError(
                f"fractional power of non-positive sample at grid index {_domain_index(bad)}")
        return base ** float(e.exponent)
    if isinstance(e, Call):
        arg = eval_grid(e.arg, env)
        fn, positive = _FUNCTION_TABLE[e.fn]
        if positive and np.any(arg <= 0.0):
            raise EvalDomainError(f"{e.fn} of non-positive sample at grid index "
                                  f"{_domain_index(arg <= 0.0)}")
        return fn(arg)
    raise TypeError(f"not an Expr: {e!r}")


# -- evaluation to jets ------------------------------------------------------------


def eval_jet(e: Expr, env: dict) -> Jet:
    """Compositional evaluation into jet arithmetic; ``env`` binds variable
    names to generator jets (all compatible).  Jets are expanded at the
    origin: bind ``x1`` to ``Jet.variable(X1, n) + a`` to expand around
    x1 = a.  Constant terms agree with eval_grid at the expansion point."""
    ref = next(iter(env.values()))
    if isinstance(e, Num):
        return Jet.constant(e.value, ref.order, ref.mode)
    if isinstance(e, Const):
        if ref.mode == EXACT:
            raise JetDomainError(f"constant {e.name} is irrational; not representable in exact mode")
        value = math.pi if e.name == "pi" else math.e
        return Jet.constant(value, ref.order, ref.mode)
    if isinstance(e, Var):
        if e.name not in env:
            raise EvalDomainError(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, Neg):
        return -eval_jet(e.arg, env)
    if isinstance(e, BinOp):
        left = eval_jet(e.left, env)
        right = eval_jet(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        return left / right
    if isinstance(e, Pow):
        return jet_pow(eval_jet(e.base, env), e.exponent)
    if isinstance(e, Call):
        return jet_call(e.fn, eval_jet(e.arg, env))
    raise TypeError(f"not an Expr: {e!r}")
