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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Union

import numpy as np

from .jets import EXACT, Jet, JetDomainError, jet_call, jet_pow

VARIABLES = ("t", "x1", "x2", "x3")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")  # samples: _SAMPLES; jets: jets.jet_call
CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(Exception):
    """Syntax error with the byte offset and a description of what was expected."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at offset {offset}: expected {expected}")


class EvalDomainError(Exception):
    """A sample outside the domain table, a non-finite value or an unbound variable."""


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


def _walk(e: Expr, env: dict, arith: dict):
    """The one walk over the seven node types.  ``env`` binds names to values;
    ``arith`` maps "var", "num", "const", "neg", the operators, "^" and the functions
    to the values' arithmetic, and "overflow" to the error a float overflow raises."""
    try:
        if isinstance(e, Num):
            return arith["num"](e.value)
        if isinstance(e, Const):
            return arith["const"](e.name)
        if isinstance(e, Var):
            if e.name not in env:
                raise EvalDomainError(f"unbound variable {e.name!r}")
            return arith["var"](env[e.name])
        if isinstance(e, Neg):
            return arith["neg"](_walk(e.arg, env, arith))
        if isinstance(e, BinOp):
            return arith[e.op](_walk(e.left, env, arith), _walk(e.right, env, arith))
        if isinstance(e, Pow):
            return arith["^"](_walk(e.base, env, arith), e.exponent)
        if isinstance(e, Call):
            return arith[e.fn](_walk(e.arg, env, arith))
    except OverflowError:  # e.g. a literal or an exp beyond the double range
        raise arith["overflow"]("float overflow") from None
    raise TypeError(f"not an Expr: {e!r}")


_NAMES = {**dict.fromkeys(("var", "neg", *FUNCTIONS), set), **dict.fromkeys("+-*/", operator.or_),
          "num": lambda _: set(), "const": lambda _: set(), "^": lambda base, _: base}


def free_variables(e: Expr) -> set:
    """Names of the variables the expression uses: the walk over sets of names."""
    return _walk(e, {name: {name} for name in VARIABLES}, _NAMES)


# -- evaluation ----------------------------------------------------------------------

_RING = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul}


def _in_domain(samples, bad, what: str):
    """``samples``, unless ``bad`` holds at a grid index: EvalDomainError names it."""
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
        raise EvalDomainError(f"{what} at grid index {tuple(int(i) for i in index)}")
    return samples


def _sample_pow(base, r: Fraction):
    if r.denominator != 1:
        return _in_domain(base, base <= 0, "fractional power of a non-positive sample") ** float(r)
    base = _in_domain(base, base == 0, "negative power of a zero sample") if r < 0 else base
    return base ** int(r)


# The one domain table: "/" and a negative integer "^" need non-zero samples;
# a fractional "^", log and sqrt need positive ones.
_SAMPLES = {**_RING, "var": partial(np.asarray, dtype=np.float64), "num": np.float64,
            "const": lambda name: np.float64(CONSTANTS[name]), "^": _sample_pow,
            "/": lambda a, b: a / _in_domain(b, b == 0, "division by a zero sample"),
            "log": lambda a: np.log(_in_domain(a, a <= 0, "log of a non-positive sample")),
            "sqrt": lambda a: np.sqrt(_in_domain(a, a <= 0, "sqrt of a non-positive sample")),
            "exp": np.exp, "sin": np.sin, "cos": np.cos, "overflow": EvalDomainError}


@np.errstate(all="raise", under="ignore")
def eval_grid(e: Expr, env: dict) -> np.ndarray:
    """Pointwise double-precision evaluation; ``env`` binds variable names to floats
    or broadcastable arrays.  A sample outside the domain table, or a value on
    finite samples that is not finite, raises EvalDomainError with its grid index."""
    try:
        return _walk(e, env, _SAMPLES)
    except FloatingPointError:  # an overflow or a nan: find where the value is not finite
        with np.errstate(all="ignore"):
            value = _walk(e, env, _SAMPLES)
        _in_domain(value, ~np.isfinite(value), "non-finite value")
        return value  # only an intermediate value overflowed


def eval_jet(e: Expr, env: dict) -> Jet:
    """Compositional evaluation into jet arithmetic; ``env`` binds variable names
    to generator jets (all compatible), expanded at the origin: bind ``x1`` to
    ``Jet.variable(X1, n) + a`` to expand around x1 = a.  Constant terms agree with
    eval_grid there; jet_pow and jet_call hold the domain rules, and float
    coefficients must be finite."""
    ref = next(iter(env.values()))

    def const(name: str) -> Jet:
        if ref.mode == EXACT:
            raise JetDomainError(f"constant {name} is irrational; not representable in exact mode")
        return Jet.constant(CONSTANTS[name], ref.order, ref.mode)

    arith = {**_RING, **{fn: partial(jet_call, fn) for fn in FUNCTIONS}, "const": const,
             "var": lambda jet: jet, "num": lambda c: Jet.constant(c, ref.order, ref.mode),
             "/": operator.truediv, "^": jet_pow, "overflow": JetDomainError}
    value = _walk(e, env, arith)
    if ref.mode != EXACT and not all(map(math.isfinite, value.coeffs.values())):
        raise JetDomainError("non-finite float coefficient")
    return value
