"""Reference arithmetic on exponent tuples, and a closed form of Phi, for the tests'
oracles.

A coefficient map is a dict from exponent tuples (e1, ..., e6) to scalars,
as ``Jet.coeffs`` returns it.  Every reference here loops over those tuples,
so an oracle built on it is independent of the packed keys a jet stores.
The one exception is ``full_order_complex_det``, a bit-for-bit reference
built on ``mul_sum``, which the tests hold to the tuple loop separately.
``diag3_closed_form_phi`` samples a family and never builds a harmonic basis.
"""

import itertools
import math
from dataclasses import dataclass

from slagcy.jets import ComplexJet, Jet, mul_sum


def _nonzero(coeffs):
    return {k: v for k, v in coeffs.items() if v != 0}


def ref_add(x, y, sign=1):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sign * v
    return _nonzero(out)


def max_abs(values):
    """The largest |value|: 0.0 for none, nan if one is nan (max() keeps or
    drops a nan by its position)."""
    values = list(values)
    if any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values), default=0.0)


def ref_mul(x, y, order):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            k = tuple(p + q for p, q in zip(i, j))
            if sum(k) <= order:
                out[k] = out.get(k, 0) + a * b
    return _nonzero(out)


def ref_partial(x, var):
    """The partial derivative in x_var of a coefficient map."""
    return {k[:var] + (k[var] - 1,) + k[var + 1:]: v * k[var] for k, v in x.items() if k[var]}


def partial_of(jet, var):
    """``jet`` differentiated in x_var on its exponent tuples: a jet of one order less."""
    return Jet(jet.order - 1, ref_partial(jet.coeffs, var), jet.mode)


def ref_holomorphic(x):
    """(re, im) of x with every x_k**a replaced by (x_k + i y_k)**a, binomially."""
    out = {}
    for idx, c in x.items():
        for bs in itertools.product(*(range(a + 1) for a in idx[:3])):
            coeff = c * math.prod(math.comb(a, b) for a, b in zip(idx, bs))
            key = tuple(a - b for a, b in zip(idx, bs)) + bs
            negative, imaginary = divmod(sum(bs) % 4, 2)  # i**n for n = 0, 1, 2, 3
            re_im = out.setdefault(key, [0, 0])
            re_im[imaginary] += -coeff if negative else coeff
    return (_nonzero({k: v[0] for k, v in out.items()}),
            _nonzero({k: v[1] for k, v in out.items()}))


def assert_cauchy_riemann(z):
    """The parts of a complex jet satisfy the Cauchy-Riemann equations in
    each z_k = x_k + i y_k, coefficient for coefficient."""
    for xk in range(3):
        yk = xk + 3
        assert partial_of(z.re, xk) == partial_of(z.im, yk)
        assert partial_of(z.re, yk) == -partial_of(z.im, xk)


@dataclass
class RefComplex:
    """re + i*im as two coefficient maps truncated at total degree ``order``:
    the complex ring that the determinant oracles multiply and add in."""

    re: dict
    im: dict
    order: int

    @classmethod
    def of(cls, z):
        """The coefficient maps of a ``ComplexJet``."""
        return cls(z.re.coeffs, z.im.coeffs, z.re.order)

    @classmethod
    def matrix(cls, m):
        """A matrix of ``ComplexJet``s as coefficient maps."""
        return [[cls.of(z) for z in row] for row in m]

    def __add__(self, other, sign=1):
        return RefComplex(ref_add(self.re, other.re, sign), ref_add(self.im, other.im, sign),
                          self.order)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return RefComplex({}, {}, self.order) - self

    def __mul__(self, other):
        o = self.order
        return RefComplex(ref_add(ref_mul(self.re, other.re, o), ref_mul(self.im, other.im, o), -1),
                          ref_add(ref_mul(self.re, other.im, o), ref_mul(self.im, other.re, o)),
                          o)


def full_order_complex_det(m):
    """det of a 2x2 or 3x3 matrix of complex jets with every cofactor formed to
    the entries' full order: each row-1 entry times its cofactor, split into
    signed products of real jets, the real and the imaginary part one mul_sum
    each.  Truncating a cofactor to the degrees its entry can reach must give
    this determinant bit for bit."""
    order = m[0][0].re.order
    if len(m) == 2:
        pairs = ((1, m[0][0], m[1][1]), (-1, m[0][1], m[1][0]))
    else:
        pairs = [(-1 if c == 1 else 1, m[0][c],
                  full_order_complex_det([[row[k] for k in range(3) if k != c] for row in m[1:]]))
                 for c in range(3)]
    re = [t for s, x, y in pairs for t in ((s, x.re, y.re), (-s, x.im, y.im))]
    im = [t for s, x, y in pairs for t in ((s, x.re, y.im), (s, x.im, y.re))]
    return ComplexJet(mul_sum(re, order), mul_sum(im, order))


def diag3_closed_form_phi(fam, t: float, n: int) -> float:
    """Phi(t) of a diagonal 3D family of unit determinant depending on (t, x1) only, in
    closed form: int g^22 int g^33 / int g^22 g^33 with g^kk = 1/g_kk, each integral the
    mean over n points per axis.  Its Gram matrix is diagonal, with 1/int g11 first, and
    int g11 = int g^22 g^33 at unit determinant."""
    import numpy as np
    from slagcy.families import family_axes
    m = fam.sample_matrix(t, family_axes(fam, n))
    inv22, inv33 = 1.0 / m[1][1], 1.0 / m[2][2]
    return float(np.mean(inv22) * np.mean(inv33) / np.mean(inv22 * inv33))
