"""Truncated multivariate power series (jets) in up to six real variables.

A jet stores the Taylor coefficients of a real-analytic germ at the origin, up
to a fixed total degree, as a sparse map from packed monomial keys to scalars.
A key holds a multi-index (e1, ..., e6) as one int of seven 16-bit fields: the
total degree on top, then e1 down to e6.  Adding two keys multiplies the
monomials, sorting keys is graded-lex order, and the fields bound the order at
65535.  Exponent tuples appear only at the boundary: ``Jet(order, coeffs, mode)``
and the builder ``from_pairs`` it shares with the dump loader, the ``coeffs``
view, and ``dumps`` with its reader ``parse_scalar``.  A germ at another point
is expanded in shifted generators, e.g. ``Jet.variable(X1, n) + a`` for x1
around a.  Two scalar modes are supported: exact rationals and binary floats.
An exact jet is stored as integer numerators over one reduced denominator, and
every operation works on that form, building no ``Fraction`` per coefficient.
All operations are pure; jets are treated as immutable values.

Variables are fixed as (x1, x2, x3, y1, y2, y3) with z_k = x_k + i*y_k.
The package's one verdict rule, ``within``, and its maximum ``worst`` live here.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable

NVARS = 6
X1, X2, X3, Y1, Y2, Y3 = range(NVARS)
VAR_NAMES = ("x1", "x2", "x3", "y1", "y2", "y3")
Y_VARS = (Y1, Y2, Y3)

EXACT = "exact"
FLOAT = "float"

ZERO_INDEX = (0,) * NVARS
_TERM_HEAD = " ".join(["%d"] * NVARS) + " : "  # a multi-index, before its coefficient

MAX_ORDER = 0xFFFF  # the largest degree a 16-bit key field holds
_KEY = struct.Struct(">7H")  # a packed key's fields: degree, e1, ..., e6
_KEY_PACK, _FROM_BYTES = _KEY.pack, int.from_bytes  # bound once: _pack runs per term
_DEG = 16 * NVARS  # the shift of the degree field
_SHIFT = tuple(16 * (NVARS - 1 - v) for v in range(NVARS))  # the shift of each exponent
_UNIT = tuple((1 << _DEG) + (1 << s) for s in _SHIFT)  # the key of each variable


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class IncompatibleJetsError(JetError):
    """Operands disagree in order or scalar mode."""


class JetDomainError(JetError):
    """A scalar or constant term lies outside the domain of an operation."""


def _pack(idx, order: int) -> int:
    """The key of an exponent tuple of total degree at most ``order``."""
    try:
        key = _FROM_BYTES(_KEY_PACK(sum(idx), *idx), "big")
    except (struct.error, TypeError):  # not six exponents in 0..MAX_ORDER
        raise JetError(f"bad multi-index {idx}") from None
    if key >> _DEG > order:
        raise JetError(f"multi-index {idx} exceeds order {order}")
    return key


def _unpack(key: int) -> tuple:
    return _KEY.unpack(key.to_bytes(14, "big"))[1:]


def _ratio(value, mode: str) -> tuple:
    """A scalar coerced to the mode as (numerator, denominator); a float x is (x, 1)."""
    if mode != EXACT:
        return float(value), 1
    if isinstance(value, float):
        raise JetDomainError(f"float scalar {value!r} not allowed in exact mode")
    value = value if isinstance(value, (int, Fraction)) else Fraction(value)
    return value.numerator, value.denominator


class Jet:
    """Truncated Taylor expansion at the origin up to total degree ``order``.

    ``num`` maps packed keys to nonzero numerators over the one denominator
    ``den``; an absent index is a zero coefficient.  Exact numerators are ints
    over the lcm of the coefficients' denominators, so gcd(den, *num.values())
    is 1 (den is 1 for the zero jet); float mode stores the coefficients and
    den = 1.  ``Jet(order, coeffs, mode)`` builds this form from exponent
    tuples, each of degree <= order <= MAX_ORDER, and scalars, each coerced
    to the mode (a float refused in exact mode); ``coeffs`` reads them back
    (``Fraction``s in exact mode).  Do not mutate ``num``.  A shift of the
    expansion point is written in the generators.
    """

    def __init__(self, order: int, coeffs: dict, mode: str):
        jet = from_pairs(order, mode, ((idx, _ratio(c, mode)) for idx, c in coeffs.items()))
        self.order, self.mode, self.num, self.den = order, mode, jet.num, jet.den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order: int, mode: str = EXACT) -> "Jet":
        return from_pairs(order, mode, ((ZERO_INDEX, _ratio(value, mode)),), {ZERO_INDEX: 0})

    @staticmethod
    def variable(var: int, order: int, mode: str = EXACT) -> "Jet":
        """The coordinate function itself: the linear monomial."""
        if not 0 <= var < NVARS:
            raise JetError(f"variable index {var} out of range")
        if order < 1:
            raise JetError("variable jet needs order >= 1")
        idx = tuple(1 if k == var else 0 for k in range(NVARS))
        return Jet(order, {idx: 1}, mode)

    def zero_like(self) -> "Jet":
        return _jet(self.order, self.mode, {})

    # -- basic queries -------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The coefficients by exponent tuple, built per call (``Fraction``s in exact mode)."""
        exact, den = self.mode == EXACT, self.den
        return {_unpack(k): Fraction(c, den) if exact else c for k, c in self.num.items()}

    @property
    def constant_term(self):
        c = self.num.get(0, 0.0 if self.mode == FLOAT else 0)
        return c if self.mode == FLOAT else Fraction(c, self.den)

    def max_abs_coeff(self):
        """The largest |coefficient|: 0 for the zero jet, nan if one is nan."""
        if self.mode == EXACT:
            return Fraction(max(map(abs, self.num.values()), default=0), self.den)
        if any(map(math.isnan, self.num.values())):
            return math.nan  # max() keeps or drops a nan by its position
        return max(map(abs, self.num.values()), default=0.0)

    @cached_property
    def _by_degree(self) -> list:
        """The (key, numerator) pairs in graded-lex order, for ``mul_sum``."""
        return sorted(self.num.items())

    def depends_on(self, var: int) -> bool:
        return any(k >> _SHIFT[var] & 0xFFFF for k in self.num)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return ((self.order, self.mode, self.den, self.num)
                == (other.order, other.mode, other.den, other.num))

    def __bool__(self) -> bool:  # pragma: no cover - guard against accidental truthiness
        raise TypeError("ambiguous truth value of a Jet; compare with zero_like()")

    # -- compatibility -------------------------------------------------------

    def check_compatible(self, other: "Jet") -> None:
        if self.mode != other.mode:
            raise IncompatibleJetsError(f"scalar modes differ: {self.mode} vs {other.mode}")
        if self.order != other.order:
            raise IncompatibleJetsError(f"orders differ: {self.order} vs {other.order}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other, sign: int = 1):
        """self + sign * other, both scaled to the lcm of the denominators."""
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.order, self.mode)
        self.check_compatible(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        out = dict(self.num) if sa == 1 else {idx: c * sa for idx, c in self.num.items()}
        terms = other.num if sb == 1 else {idx: c * sb for idx, c in other.num.items()}
        for idx, v in terms.items():
            s = out.get(idx, 0) + v
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return _jet(self.order, self.mode, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, self.mode, {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            p, q = _ratio(other, self.mode)
            if p == 0:
                return self.zero_like()
            return _jet(self.order, self.mode, {k: c * p for k, c in self.num.items()},
                        self.den * q)
        self.check_compatible(other)
        return mul_sum(((1, self, other),), self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        p, q = _ratio(other, self.mode)
        if p == 0:
            raise JetDomainError("division by zero scalar")
        return self * (q / p if self.mode == FLOAT else Fraction(q, p))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> "Jet":
        c = self.constant_term
        if c == 0:
            raise JetDomainError(
                "division by a jet with zero constant term (singular leading coefficient)")
        u = (self / c) - 1  # nilpotent part; u**(order+1) == 0
        acc = Jet.constant(1, 0, self.mode)
        for i in range(1, self.order + 1):  # pass i settles degree i, as in _compose
            acc = mul_sum(((-1, u, _jet(i, self.mode, acc.num, acc.den)),), i) + 1
        return acc / c

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int) or n < 0:
            raise JetDomainError("** supports non-negative integer exponents; use jet_pow")
        result = Jet.constant(1, self.order, self.mode)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- reshaping -----------------------------------------------------------

    def restrict_zero(self, vars: Iterable[int]) -> "Jet":
        """Restriction to the subspace where the given variables vanish."""
        mask = sum(0xFFFF << _SHIFT[v] for v in set(vars))  # their exponents' bits
        out = {k: c for k, c in self.num.items() if not k & mask}
        return _jet(self.order, self.mode, out, self.den)

    def slice_coeff(self, var: int, m: int) -> "Jet":
        """Coefficient of the m-th power of one variable, as a jet in the others."""
        if m > self.order:
            raise JetError("slice degree exceeds order")
        s, cut = _SHIFT[var], m * _UNIT[var]
        out = {k - cut: c for k, c in self.num.items() if k >> s & 0xFFFF == m}
        return _jet(self.order - m, self.mode, out, self.den)

    # -- output ------------------------------------------------------------------

    def dumps(self, heads: dict | None = None) -> str:
        """Debug dump: one "multi-index : coefficient" line in graded-lex order,
        an exact coefficient written as str() of its Fraction.  ``heads`` maps
        keys to their "multi-index : " line heads; jets dumped together may
        share one, so that each key is unpacked and formatted once."""
        den, heads = self.den, {} if heads is None else heads
        for k in self.num.keys() - heads.keys():
            heads[k] = _TERM_HEAD % _unpack(k)
        items = sorted(self.num.items())
        if self.mode == EXACT:
            items = [(k, c // g if (g := math.gcd(c, den)) == den else f"{c // g}/{den // g}")
                     for k, c in items]
        return "\n".join([f"{heads[k]}{c}" for k, c in items])

    def __repr__(self) -> str:
        terms, coeffs = [], self.coeffs
        for idx in map(_unpack, sorted(self.num)[:8]):
            mono = "*".join(f"{VAR_NAMES[k]}^{e}" if e > 1 else VAR_NAMES[k]
                            for k, e in enumerate(idx) if e)
            terms.append(f"{coeffs[idx]}" + (f"*{mono}" if mono else ""))
        if len(coeffs) > 8:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"Jet<{self.mode},o{self.order}>({body})"


# str() of a Fraction, the only exact form dumps hold; Fraction(text) would
# also read exponents, and '1e100000000' has a hundred million digits
_EXACT_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(text: str, mode: str) -> tuple:
    """A coefficient as ``dumps`` writes it, read as from_pairs takes it: (p, q) of
    exact p/q, (x, 1) of a finite float x."""
    if mode != EXACT:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"float scalar {text!r} is not finite")
        return value, 1
    match = _EXACT_SCALAR.fullmatch(text)
    if match is None:
        raise ValueError(f"exact scalar {text!r} is not of the form p or p/q")
    p, q = int(match[1]), int(match[2] or 1)
    if q == 0:
        raise ZeroDivisionError(f"exact scalar {text!r} has a zero denominator")
    return p, q


def from_pairs(order: int, mode: str, pairs, packed: dict | None = None) -> Jet:
    """The jet of (exponent tuple, (numerator, denominator)) ``pairs``, each tuple of
    degree <= order <= MAX_ORDER and each float over 1: every tuple is packed in
    turn, once per ``packed`` (a memo that jets of one order may share), the
    numerators are scaled to the lcm of the denominators, and zeros are dropped."""
    if not 0 <= order <= MAX_ORDER:
        raise JetError(f"jet order {order} is outside 0..{MAX_ORDER}")
    packed = {} if packed is None else packed
    terms = [(packed[idx] if idx in packed else packed.setdefault(idx, _pack(idx, order)), p, q)
             for idx, (p, q) in pairs]
    den = math.lcm(*(q for _, _, q in terms)) if mode == EXACT else 1
    return _jet(order, mode, {key: p * (den // q) for key, p, q in terms if p}, den)


def _jet(order: int, mode: str, num: dict, den: int = 1) -> Jet:
    """The jet num / den, reduced by gcd(den, *num.values()): every result's constructor."""
    if den != 1 and (g := math.gcd(den, *num.values())) != 1:
        num, den = {idx: c // g for idx, c in num.items()}, den // g
    jet = object.__new__(Jet)
    jet.order, jet.mode, jet.num, jet.den = order, mode, num, den
    return jet


def _valuation(j: Jet) -> int:
    """The least degree of a term; order + 1 for a zero jet, known to vanish that far."""
    return min(j.num) >> _DEG if j.num else j.order + 1


def mul_sum(terms, order: int) -> Jet:
    """sum(sign * a * b for sign, a, b in terms), up to total degree ``order``,
    accumulated in one map without truncating the factors first.  ``terms`` is
    not empty; factors share their mode, and each product is known to ``order``:
    min(a.order + val b, b.order + val a) >= order, val the ``_valuation``.  Each
    product's numerators are scaled to D, the lcm of the products' denominators;
    float sums have D = 1 and scale by +-1.0: exact, and cheaper than an int.
    A key's first product is added to zero, which changes no nonzero sum.
    Only pairs that reach the result are visited: a product with an empty
    factor is skipped, and so is a term of ``a`` above ``order`` less the
    least degree in ``b``; the rest run in a's insertion order and b's
    graded-lex order, so every sum and first touch is the plain loop's."""
    if not terms:
        raise JetError("mul_sum needs at least one term")
    mode = terms[0][1].mode
    for sign, a, b in terms:
        if not a.mode == b.mode == mode:
            raise IncompatibleJetsError("factors of a Cauchy sum differ in mode")
        if order > min(a.order, b.order) and order > min(a.order + _valuation(b),
                                                          b.order + _valuation(a)):
            raise JetError(
                f"a product of orders {a.order} and {b.order} is not known to order {order}")
    D = math.lcm(*(a.den * b.den for _, a, b in terms)) if mode == EXACT else 1.0
    out: dict = {}
    get, zero = out.get, 0 if mode == EXACT else 0.0
    for sign, a, b in terms:
        rhs = b._by_degree
        if not (rhs and a.num):
            continue
        scale = -(D // (a.den * b.den)) if sign < 0 else D // (a.den * b.den)
        top = (order + 1 - (rhs[0][0] >> _DEG)) << _DEG  # a's keys from here pair with nothing
        for ka, ca in a.num.items():
            if ka >= top:
                continue
            ca = ca * scale
            cap = (order + 1 - (ka >> _DEG)) << _DEG  # the least key of too high a degree
            for kb, cb in rhs:
                if kb >= cap:
                    break
                key = ka + kb  # no field carries: each sum is at most the degree <= order
                out[key] = get(key, zero) + ca * cb
    if not all(out.values()):  # only a sum that cancelled leaves a zero
        out = {k: v for k, v in out.items() if v}
    return _jet(order, mode, out, int(D))


def partial_sum(terms) -> Jet:
    """sum(sign * d(j)/d(x_var) for sign, j, var in terms), each sign +-1, in
    one map over the lcm of the denominators; the result order drops by one.
    Each coefficient meets its terms in the order that single partials joined
    by +/- would add them, and c * e * sign is exact, so every float sum is
    that chain's."""
    if not terms:
        raise JetError("partial_sum needs at least one term")
    first = terms[0][1]
    for _, j, _ in terms:
        first.check_compatible(j)
    if first.order < 1:
        raise JetDomainError("cannot differentiate an order-0 jet")
    den = math.lcm(*(j.den for _, j, _ in terms))
    out: dict = {}
    get = out.get
    for sign, j, var in terms:
        s, unit, scale = _SHIFT[var], _UNIT[var], sign * (den // j.den)
        for k, c in j.num.items():
            if e := k >> s & 0xFFFF:
                key = k - unit
                out[key] = get(key, 0) + c * (e * scale)
    if not all(out.values()):
        out = {k: v for k, v in out.items() if v}
    return _jet(first.order - 1, first.mode, out, den)


def from_slices(var: int, slices) -> Jet:
    """sum(s * x_var**k for k, s in enumerate(slices)), of the order of
    slices[0]: slice k is free of ``var`` and of order slices[0].order - k, as
    slice_coeff returns it.  The slices' keys are disjoint, so one pass puts
    them in slice order over the lcm of their denominators."""
    if not slices:
        raise JetError("from_slices needs at least one slice")
    order, mode, unit = slices[0].order, slices[0].mode, _UNIT[var]
    den = math.lcm(*(s.den for s in slices))
    out: dict = {}
    for k, s in enumerate(slices):
        if (s.order, s.mode) != (order - k, mode):
            raise IncompatibleJetsError(
                f"slice {k} has order {s.order} in {s.mode} mode, not {order - k} in {mode}")
        if s.depends_on(var):
            raise JetError(f"slice {k} depends on {VAR_NAMES[var]}")
        add, scale = k * unit, den // s.den
        out.update({key + add: c * scale for key, c in s.num.items()})
    return _jet(order, mode, out, den)


# -- elementary functions -----------------------------------------------------


# exact mode's one constant term per function: the value there, 0 or 1, is exact in floats
_EXACT_AT = {"exp": 0, "log": 1, "sin": 0, "cos": 0}


def _integer_nth_root(n: int, d: int) -> int | None:
    """Exact d-th root of a positive integer, or None."""
    x = 1 << -(-n.bit_length() // d)  # upper bound
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    return x if x ** d == n else None


def _exact_pow(c: Fraction, r: Fraction) -> Fraction:
    """c**r as an exact rational, c positive unless r is an integer; raises if irrational."""
    p = _integer_nth_root(c.numerator, r.denominator)
    q = _integer_nth_root(c.denominator, r.denominator)
    if p is None or q is None:
        raise JetDomainError(f"{c}**(1/{r.denominator}) is irrational; "
                             "use float mode or adjust the constant term")
    return Fraction(p, q) ** r.numerator


def _series(fn, c, order: int, mode: str) -> list:
    """Taylor coefficients of fn at c, k = 0..order: the k-th multiplies u**k
    in fn(c + u), and fn is exp, log, sin, cos or a Fraction r for u -> u**r.
    Each recurrence runs on Fractions and floats alike; exact mode needs fn(c)
    rational: c = 0 for exp, sin and cos, c = 1 for log, a rational root for r."""
    exact, power = mode == EXACT, isinstance(fn, Fraction)
    if power and fn.denominator == 1:  # a negative integer, as jet_pow sends no other
        if c == 0:
            raise JetDomainError(f"negative power needs non-zero constant term, got {c}")
    elif (power or fn == "log") and c <= 0:
        what = "rational power" if power else "log"
        raise JetDomainError(f"{what} needs positive constant term, got {c}")
    if power:  # generalized binomial series: (c + u)**r = c**r * sum binom(r,k) (u/c)**k
        r = fn if exact else float(fn)
        out = [_exact_pow(c, fn) if exact else c ** r]
        for k in range(1, order + 1):
            out.append(out[-1] * (r - k + 1) / k / c)
        return out
    point = _EXACT_AT[fn]
    if exact and c != point:
        raise JetDomainError(f"exact {fn} needs constant term {point}")
    num = Fraction if exact else float
    if fn == "log":  # (-1)**(k + 1) / (k * c**k) for k >= 1
        out = [num(math.log(c))]
        one = ck = num(1)
        for k in range(1, order + 1):
            ck *= c
            out.append((-one) ** (k + 1) / (k * ck))
        return out
    # f^(k)(c) / k!: exp repeats exp(c); cos runs through sin's cycle one step ahead
    if fn == "exp":
        cycle = [num(math.exp(c))] * 4
    else:
        s, co = num(math.sin(c)), num(math.cos(c))
        cycle = [s, co, -s, -co]
    return [cycle[(k + (fn == "cos")) % 4] / math.factorial(k) for k in range(order + 1)]


def _compose(a: Jet, fn) -> Jet:
    """fn(a): the Taylor series of fn at the constant term, by Horner on the
    rest.  That rest has no constant term, so degree d of a pass reads only
    degrees below d of the pass before: pass i is summed to degree i alone,
    and each coefficient is the same float sum a full-order pass gives."""
    coeffs = _series(fn, a.constant_term, a.order, a.mode)
    tilde = a - a.constant_term
    res = Jet.constant(coeffs[-1], 0, a.mode)
    for i, ck in enumerate(reversed(coeffs[:-1]), 1):
        res = mul_sum(((1, _jet(i, a.mode, res.num, res.den), tilde),), i) + ck
    return res


def jet_call(name: str, a: Jet) -> Jet:
    """The DSL function ``name`` (exp, log, sin, cos or sqrt) of a jet."""
    return _compose(a, Fraction(1, 2) if name == "sqrt" else name)


def jet_pow(a: Jet, r) -> Jet:
    """a**r for a rational exponent.  Non-negative integer exponents reduce to
    repeated multiplication and allow a vanishing constant term; negative
    integers need a non-zero constant term, as 1/a does, and fractions a
    positive one (with a rational root in exact mode)."""
    r = Fraction(r)
    if r.denominator == 1 and r >= 0:
        return a ** int(r)
    return _compose(a, r)


# -- complex jets and holomorphic extension -----------------------------------


@dataclass(frozen=True)
class ComplexJet:
    """A pair of real jets representing re + i*im."""

    re: Jet
    im: Jet

    def __post_init__(self):
        self.re.check_compatible(self.im)

    def abs2(self) -> Jet:
        """Modulus squared re**2 + im**2 as a real jet, formed once per jet."""
        return self._abs2

    @cached_property
    def _abs2(self) -> Jet:
        return self.re * self.re + self.im * self.im


def holomorphic_extend(f: Jet) -> ComplexJet:
    """Extend a germ in the x-variables to the holomorphic germ of z = x + i*y.

    Every monomial x**alpha is replaced by (x + i*y)**alpha and
    expanded binomially; the real and imaginary coefficient buckets satisfy the
    Cauchy-Riemann relations exactly and restrict to (f, 0) at y = 0.
    """
    if any(map(f.depends_on, Y_VARS)):
        raise JetDomainError("holomorphic_extend needs a jet in the x-variables only")
    re: dict = {}
    im: dict = {}
    comb = math.comb
    # moving one power from x_k to y_k adds d_k to the key
    d1, d2, d3 = ((1 << _SHIFT[y]) - (1 << _SHIFT[x]) for x, y in zip((X1, X2, X3), Y_VARS))
    for k, c in f.num.items():
        a1, a2, a3 = _unpack(k)[:3]
        for b1 in range(a1 + 1):
            f1, k1 = comb(a1, b1), k + b1 * d1
            for b2 in range(a2 + 1):
                f2, k2 = f1 * comb(a2, b2), k1 + b2 * d2
                for b3 in range(a3 + 1):
                    coeff = c * (f2 * comb(a3, b3))
                    key = k2 + b3 * d3
                    r = (b1 + b2 + b3) & 3
                    bucket = re if r % 2 == 0 else im
                    if r >= 2:
                        coeff = -coeff
                    prev = bucket.get(key)
                    bucket[key] = coeff if prev is None else prev + coeff
    return ComplexJet(*(_jet(f.order, f.mode, {k: v for k, v in part.items() if v}, f.den)
                        for part in (re, im)))


def det(m):
    """Determinant of a 2x2 or 3x3 matrix, by Laplace expansion along row 1.

    Entries may be jets, complex jets, sample arrays or scalars; the
    expression order is fixed, so float results are reproducible bit for bit.
    Complex jets are expanded in fused Cauchy sums by ``_complex_det``.
    """
    if isinstance(m[0][0], ComplexJet):
        return _complex_det(m, m[0][0].re.order)
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _complex_det(m, order: int) -> ComplexJet:
    """det of a matrix of complex jets to ``order``, in fused Cauchy sums: each
    row-1 entry times its cofactor splits into signed products of real jets, and
    the real and the imaginary part are one mul_sum each.  The cofactor of an
    entry of least degree v is formed to order - v, all that entry reaches; an
    empty entry pairs with itself instead, a product that mul_sum skips."""
    ref = m[0][0].re
    for row in m:
        for z in row:
            ref.check_compatible(z.re)
    if len(m) == 2:
        pairs = ((1, m[0][0], m[1][1]), (-1, m[0][1], m[1][0]))
    else:
        tops = [order - min(_valuation(z.re), _valuation(z.im)) for z in m[0]]
        pairs = [(-1 if c == 1 else 1, m[0][c], m[0][c] if top < 0 else _complex_det(
                  [[row[k] for k in range(3) if k != c] for row in m[1:]], top))
                 for c, top in enumerate(tops)]
    re = [t for s, x, y in pairs for t in ((s, x.re, y.re), (-s, x.im, y.im))]
    im = [t for s, x, y in pairs for t in ((s, x.re, y.im), (s, x.im, y.re))]
    return ComplexJet(mul_sum(re, order), mul_sum(im, order))


def leading_minors(m) -> list:
    """Leading principal minors of a 2x2 or 3x3 matrix; the last is det(m)."""
    return [m[0][0]] + [det([row[:k] for row in m[:k]]) for k in range(2, len(m) + 1)]


def worst(values):
    """The largest value, or nan if one is nan: max() keeps or drops a nan by position."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)


def within(value, tol) -> bool:
    """Whether a residual passes: ``value <= tol``, exact for exact scalars; a nan
    never passes, and an inf passes no finite ``tol``."""
    return bool(value <= tol)
