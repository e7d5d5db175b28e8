"""Truncated multivariate power series (jets) in up to six real variables.

A jet stores the Taylor coefficients of a real-analytic germ at the origin,
up to a fixed total degree, as a sparse map from exponent tuples to scalars.
A germ at another point is expanded in shifted generators, e.g.
``Jet.variable(X1, n) + a`` for x1 around a.  Two scalar modes are supported:
exact rationals (``Fraction``) and binary floats.  All operations are pure;
jets are treated as immutable values.

Variables are fixed as (x1, x2, x3, y1, y2, y3) with z_k = x_k + i*y_k.
"""

from __future__ import annotations

import math
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

MultiIndex = tuple  # 6 non-negative integer exponents


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class IncompatibleJetsError(JetError):
    """Operands disagree in order or scalar mode."""


class JetDomainError(JetError):
    """A scalar or constant term lies outside the domain of an operation."""


def grlex_key(idx: MultiIndex) -> tuple:
    """Graded-lexicographic sort key: total degree first, then lex."""
    return (sum(idx), idx)


def _coerce(value, mode: str):
    if mode == EXACT:
        if isinstance(value, float):
            raise JetDomainError(f"float scalar {value!r} not allowed in exact mode")
        if isinstance(value, Fraction):
            return value
        return Fraction(value)
    return float(value)


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion at the origin up to total degree ``order``.

    A shift of the expansion point is expressed in the generators, not stored.
    ``coeffs`` maps exponent tuples to nonzero scalars; an absent index is a
    zero coefficient.  Do not mutate ``coeffs`` after construction.
    """

    order: int
    coeffs: dict
    mode: str

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order: int, mode: str = EXACT) -> "Jet":
        v = _coerce(value, mode)
        return Jet(order, {} if v == 0 else {ZERO_INDEX: v}, mode)

    @staticmethod
    def variable(var: int, order: int, mode: str = EXACT) -> "Jet":
        """The coordinate function itself: the linear monomial."""
        if not 0 <= var < NVARS:
            raise JetError(f"variable index {var} out of range")
        if order < 1:
            raise JetError("variable jet needs order >= 1")
        idx = tuple(1 if k == var else 0 for k in range(NVARS))
        return Jet(order, {idx: _coerce(1, mode)}, mode)

    @staticmethod
    def from_terms(terms: dict, order: int, mode: str = EXACT) -> "Jet":
        coeffs = {}
        for idx, val in terms.items():
            idx = tuple(idx)
            if len(idx) != NVARS or any(e < 0 for e in idx):
                raise JetError(f"bad multi-index {idx}")
            if sum(idx) > order:
                raise JetError(f"multi-index {idx} exceeds order {order}")
            v = _coerce(val, mode)
            if v != 0:
                coeffs[idx] = v
        return Jet(order, coeffs, mode)

    def zero_like(self, order: int | None = None) -> "Jet":
        return Jet(self.order if order is None else order, {}, self.mode)

    # -- basic queries -------------------------------------------------------

    @property
    def constant_term(self):
        return self.coeffs.get(ZERO_INDEX, _coerce(0, self.mode))

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_coeff(self):
        if not self.coeffs:
            return _coerce(0, self.mode)
        return max(abs(v) for v in self.coeffs.values())

    @cached_property
    def _by_degree(self) -> tuple:
        """``(d, numerators, terms)`` for ``mul_sum``: exact coefficients as integer
        numerators over their least common denominator d (float: d = 1 and the
        coefficients), in dict order and as sorted (degree, index, numerator)."""
        d, num = 1, self.coeffs
        if self.mode == EXACT:
            d = math.lcm(*(c.denominator for c in num.values()))
            num = {idx: c.numerator * (d // c.denominator) for idx, c in num.items()}
        return d, num, sorted((sum(idx), idx, c) for idx, c in num.items())

    def depends_on(self, var: int) -> bool:
        return any(idx[var] for idx in self.coeffs)

    def __bool__(self) -> bool:  # pragma: no cover - guard against accidental truthiness
        raise TypeError("ambiguous truth value of a Jet; use is_zero()")

    # -- compatibility -------------------------------------------------------

    def _check_compatible(self, other: "Jet") -> None:
        if self.mode != other.mode:
            raise IncompatibleJetsError(f"scalar modes differ: {self.mode} vs {other.mode}")
        if self.order != other.order:
            raise IncompatibleJetsError(f"orders differ: {self.order} vs {other.order}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.order, self.mode)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            s = out.get(idx)
            if s is None:
                out[idx] = v
            else:
                s = s + v
                if s == 0:
                    del out[idx]
                else:
                    out[idx] = s
        return Jet(self.order, out, self.mode)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, {k: -v for k, v in self.coeffs.items()}, self.mode)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            v = _coerce(other, self.mode)
            if v == 0:
                return self.zero_like()
            return Jet(self.order, {k: c * v for k, c in self.coeffs.items()}, self.mode)
        self._check_compatible(other)
        return mul_sum(((1, self, other),), self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        v = _coerce(other, self.mode)
        if v == 0:
            raise JetDomainError("division by zero scalar")
        return self * (1 / v)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> "Jet":
        c = self.constant_term
        if c == 0:
            raise JetDomainError(
                "division by a jet with zero constant term (singular leading coefficient)")
        u = (self / c) - 1  # nilpotent part; u**(order+1) == 0
        acc = Jet.constant(1, self.order, self.mode)
        for _ in range(self.order):
            acc = mul_sum(((-1, u, acc),), self.order) + 1
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

    # -- calculus ------------------------------------------------------------

    def partial(self, var: int) -> "Jet":
        """Formal partial derivative; the result order drops by one."""
        if self.order < 1:
            raise JetDomainError("cannot differentiate an order-0 jet")
        out = {}
        for idx, c in self.coeffs.items():
            e = idx[var]
            if e:
                key = idx[:var] + (e - 1,) + idx[var + 1:]
                out[key] = c * e
        return Jet(self.order - 1, out, self.mode)

    # -- reshaping -----------------------------------------------------------

    def restrict_zero(self, vars: Iterable[int]) -> "Jet":
        """Restriction to the subspace where the given variables vanish."""
        vars = tuple(vars)
        out = {idx: c for idx, c in self.coeffs.items() if all(idx[v] == 0 for v in vars)}
        return Jet(self.order, out, self.mode)

    def slice_coeff(self, var: int, m: int) -> "Jet":
        """Coefficient of the m-th power of one variable, as a jet in the others."""
        if m > self.order:
            raise JetError("slice degree exceeds order")
        out = {}
        for idx, c in self.coeffs.items():
            if idx[var] == m:
                out[idx[:var] + (0,) + idx[var + 1:]] = c
        return Jet(self.order - m, out, self.mode)

    def mul_monomial(self, var: int, m: int) -> "Jet":
        """Multiply by the m-th power of a coordinate; raises the order by m."""
        out = {}
        for idx, c in self.coeffs.items():
            if idx[var] != 0:
                raise JetError("mul_monomial expects a jet free of the target variable")
            out[idx[:var] + (m,) + idx[var + 1:]] = c
        return Jet(self.order + m, out, self.mode)

    # -- output ------------------------------------------------------------------

    def dumps(self) -> str:
        """Debug dump: one "multi-index : coefficient" line in graded-lex order."""
        lines = []
        for idx in sorted(self.coeffs, key=grlex_key):
            lines.append(" ".join(str(e) for e in idx) + " : " + str(self.coeffs[idx]))
        return "\n".join(lines)

    def __repr__(self) -> str:
        terms = []
        for idx in sorted(self.coeffs, key=grlex_key)[:8]:
            mono = "*".join(f"{VAR_NAMES[k]}^{e}" if e > 1 else VAR_NAMES[k]
                            for k, e in enumerate(idx) if e)
            c = self.coeffs[idx]
            terms.append(f"{c}" + (f"*{mono}" if mono else ""))
        if len(self.coeffs) > 8:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"Jet<{self.mode},o{self.order}>({body})"


def mul_sum(terms, order: int) -> Jet:
    """sum(sign * a * b for sign, a, b in terms), up to total degree ``order``,
    accumulated in one map without truncating the factors first.  ``terms`` is
    not empty; factors share their mode and have orders >= ``order``.
    Exact sums add integer numerators over one common denominator D and build one
    ``Fraction`` per output coefficient.  Float sums run the same loop with the
    float D = 1.0: scaling by +-1.0 is exact and cheaper than by an int."""
    if not terms:
        raise JetError("mul_sum needs at least one term")
    mode = terms[0][1].mode
    for sign, a, b in terms:
        if not a.mode == b.mode == mode:
            raise IncompatibleJetsError("factors of a Cauchy sum differ in mode")
        if order > min(a.order, b.order):
            raise JetError(
                f"a product of orders {a.order} and {b.order} is not known to order {order}")
    exact = mode == EXACT
    D = math.lcm(*(a._by_degree[0] * b._by_degree[0] for _, a, b in terms)) if exact else 1.0
    out: dict = {}
    for sign, a, b in terms:
        da, lhs = a._by_degree[:2] if exact else (1, a.coeffs)
        db, _, rhs = b._by_degree
        scale = -(D // (da * db)) if sign < 0 else D // (da * db)
        for ia, ca in lhs.items():
            ca = ca * scale
            room = order - sum(ia)
            for deg, ib, cb in rhs:
                if deg > room:
                    break
                key = (ia[0] + ib[0], ia[1] + ib[1], ia[2] + ib[2],
                       ia[3] + ib[3], ia[4] + ib[4], ia[5] + ib[5])
                prod = ca * cb
                s = out.get(key)
                out[key] = prod if s is None else s + prod
    if exact:
        return Jet(order, {k: Fraction(v, D) for k, v in out.items() if v}, mode)
    return Jet(order, {k: v for k, v in out.items() if v}, mode)


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
    """c**r for a positive rational c, as an exact rational; raises if it is irrational."""
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
    if (power or fn == "log") and c <= 0:
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
    """fn(a): the Taylor series of fn at the constant term, by Horner on the rest."""
    coeffs = _series(fn, a.constant_term, a.order, a.mode)
    tilde = a - a.constant_term
    res = Jet.constant(coeffs[-1], a.order, a.mode)
    for ck in reversed(coeffs[:-1]):
        res = res * tilde + ck
    return res


def jet_call(name: str, a: Jet) -> Jet:
    """The DSL function ``name`` (exp, log, sin, cos or sqrt) of a jet."""
    return _compose(a, Fraction(1, 2) if name == "sqrt" else name)


def jet_pow(a: Jet, r) -> Jet:
    """a**r for a rational exponent.  Non-negative integer exponents reduce to
    repeated multiplication and allow a vanishing constant term; all other
    exponents need a positive constant term (a rational root in exact mode)."""
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
        self.re._check_compatible(self.im)

    def __add__(self, other: "ComplexJet") -> "ComplexJet":
        return ComplexJet(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexJet") -> "ComplexJet":
        return ComplexJet(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexJet") -> "ComplexJet":
        return ComplexJet(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    def abs2(self) -> Jet:
        """Modulus squared re**2 + im**2 as a real jet, formed once per jet."""
        return self._abs2

    @cached_property
    def _abs2(self) -> Jet:
        return self.re * self.re + self.im * self.im

    def restrict_zero(self, vars) -> "ComplexJet":
        return ComplexJet(self.re.restrict_zero(vars), self.im.restrict_zero(vars))


def holomorphic_extend(f: Jet) -> ComplexJet:
    """Extend a germ in the x-variables to the holomorphic germ of z = x + i*y.

    Every monomial x**alpha is replaced by (x + i*y)**alpha and
    expanded binomially; the real and imaginary coefficient buckets satisfy the
    Cauchy-Riemann relations exactly and restrict to (f, 0) at y = 0.
    """
    for idx in f.coeffs:
        if idx[Y1] or idx[Y2] or idx[Y3]:
            raise JetDomainError("holomorphic_extend needs a jet in the x-variables only")
    re: dict = {}
    im: dict = {}
    comb = math.comb
    for idx, c in f.coeffs.items():
        a1, a2, a3 = idx[0], idx[1], idx[2]
        for b1 in range(a1 + 1):
            f1 = comb(a1, b1)
            for b2 in range(a2 + 1):
                f2 = f1 * comb(a2, b2)
                for b3 in range(a3 + 1):
                    coeff = c * (f2 * comb(a3, b3))
                    key = (a1 - b1, a2 - b2, a3 - b3, b1, b2, b3)
                    r = (b1 + b2 + b3) & 3
                    bucket = re if r % 2 == 0 else im
                    if r >= 2:
                        coeff = -coeff
                    prev = bucket.get(key)
                    bucket[key] = coeff if prev is None else prev + coeff
    re = {k: v for k, v in re.items() if v != 0}
    im = {k: v for k, v in im.items() if v != 0}
    return ComplexJet(Jet(f.order, re, f.mode), Jet(f.order, im, f.mode))


def det(m):
    """Determinant of a 2x2 or 3x3 matrix, by Laplace expansion along row 1.

    Entries may be jets, complex jets, sample arrays or scalars; the
    expression order is fixed, so float results are reproducible bit for bit.
    """
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def leading_minors(m) -> list:
    """Leading principal minors of a 2x2 or 3x3 matrix; the last is det(m)."""
    return [m[0][0]] + [det([row[:k] for row in m[:k]]) for k in range(2, len(m) + 1)]
