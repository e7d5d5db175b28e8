"""Harmonic 1-form bases on metric tori and the obstruction curve Phi(t).

For a family of flat-coordinate tori, the harmonic basis dual to the
coordinate cycles has closed-form coefficients in two classes: diagonal 3D
metrics depending on x1 only (theta_1 = g11/int(g11) dx1, theta_2 = dx2,
theta_3 = dx3) and general admissible 2D metrics with det = C(x2).  The
obstruction function is the determinant of the L2 Gram matrix of that basis;
it is identically 1 for the 2D class and genuinely t-dependent in 3D.

From the basis through the Gram integrands and harmonicity checks, every
sample keeps the broadcast shape `MetricFamily.sample_matrix` gives it: an
x1-only entry is (n, 1, 1) in 3D and (n, 1) in 2D, a constant is 0-d and a
vanishing basis component is the scalar 0.0, so work follows the variables
a family depends on, not n^dim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import FamilyCheckReport, MetricFamily, check_slag_family, family_axes
from .gridops import periodic_quad, spectral_diff
from .jets import det

__all__ = [
    "HarmonicBasis", "PhiCurve", "harmonic_basis_diag3",
    "harmonic_basis_2d", "gram_L2", "phi_admissibility", "phi_curve", "phi_2d", "phi_csv",
]


_CHECK_TOL = 1e-10        # admissibility tolerance of a Phi run
_CLOSED_FORM_TOL = 1e-10  # largest gap between the quadrature and closed-form 3D Phi
# harmonicity tolerances of the diagonal 3D and the 2D basis builders
_DIAG3_TOL, _TWO_D_TOL = 1e-10, 1e-8


class HodgeError(Exception):
    """Precondition or verification failure while building a basis."""


@dataclass(frozen=True)
class HarmonicBasis:
    """1-forms theta_i = sum_k theta[i][k] dx_{k+1} sampled on a periodic grid,
    normalized against the coordinate cycles: int_{cycle_i} theta_j = delta_ij.
    Entries of the dim x dim lists are broadcast samples (module docstring)."""

    dim: int
    theta: list                # theta[i][k], broadcastable entries
    metric: list               # metric[k][l]: the samples that produced it
    inverse: list              # inverse[k][l]: pointwise g^{kl}
    sqrt_det: np.ndarray       # pointwise sqrt(det g), broadcastable
    scale: float               # 2D volume-normalization factor applied to C
    residuals: dict            # periods, closure, co-closure


@dataclass(frozen=True)
class PhiCurve:
    """Sampled obstruction values Phi(t) = det(Gram(t))."""

    t: np.ndarray
    phi: np.ndarray
    integrals: np.ndarray | None = None  # columns documented per builder

    def spread(self) -> float:
        return float(np.max(self.phi) - np.min(self.phi))

    def classification(self, tol: float = 1e-10) -> str:
        return "non-constant" if self.spread() > 100.0 * tol else "constant"


def phi_csv(t, phi, integrals=None) -> str:
    """`t,phi,g11_int,g22_int,g33_int` rows at full double precision; the
    integral columns read nan when ``integrals`` is None."""
    lines = ["t,phi,g11_int,g22_int,g33_int"]
    for k in range(len(t)):
        cols = [t[k], phi[k]]
        cols.extend(integrals[k] if integrals is not None else [np.nan] * 3)
        lines.append(",".join(format(float(c), ".17g") for c in cols))
    return "\n".join(lines) + "\n"


# -- shared helpers --------------------------------------------------------------


def _pointwise_inverse(metric) -> tuple:
    """Inverse (a nested dim x dim list) and determinant of metric samples,
    scalars or arrays of broadcast-compatible shapes, by cofactors over
    `jets.det`; each entry keeps the broadcast shape of its cofactor."""
    dim = len(metric)

    def cofactor(r, c):
        rest = [[metric[i][j] for j in range(dim) if j != c] for i in range(dim) if i != r]
        minor = rest[0][0] if dim == 2 else det(rest)
        return minor if (r + c) % 2 == 0 else -minor

    det_m = det(metric)
    if not np.all(det_m > 0):
        raise HodgeError("singular metric sample (non-positive determinant)")
    return [[cofactor(c, r) / det_m for c in range(dim)] for r in range(dim)], det_m


def gram_L2(basis: HarmonicBasis) -> np.ndarray:
    """Gram matrix <theta_i, theta_j> = int g^{kl} theta_ik theta_jl sqrt(det g)
    over the torus, by periodic quadrature on the basis grid."""
    dim, inv, theta, sqrt_det = basis.dim, basis.inverse, basis.theta, basis.sqrt_det
    entries = np.empty((dim, dim), dtype=np.float64)
    for i in range(dim):
        for j in range(i, dim):
            integrand = sum(inv[k][l] * theta[i][k] * theta[j][l]
                            for k in range(dim) for l in range(dim))
            entries[i, j] = entries[j, i] = float(periodic_quad(integrand * sqrt_det))
    return entries


def _verify_periods(theta, tol: float) -> float:
    """Max deviation of the cycle-period matrix from the identity.

    The period of theta_i over cycle j, averaged over the representative
    circles, is the torus mean of theta[i][j]; closure makes the
    representative irrelevant up to quadrature error.
    """
    worst = max(abs(float(periodic_quad(comp)) - (1.0 if i == j else 0.0))
                for i, row in enumerate(theta) for j, comp in enumerate(row))
    if worst > tol:
        raise HodgeError(f"cycle normalization off by {worst:.3e} (tol {tol:.1e})")
    return worst


def _closure_residual(theta) -> float:
    dim = len(theta)
    return max(float(np.max(np.abs(spectral_diff(row[b], a) - spectral_diff(row[a], b))))
               for row in theta for a in range(dim) for b in range(a + 1, dim))


def _coclosure_residual(theta, inv, sqrt_det) -> float:
    weighted = [[sqrt_det * a for a in row] for row in inv]  # shared by every theta_i
    worst = 0.0
    for row in theta:
        div = sum(spectral_diff(sum(w * c for w, c in zip(w_k, row)), k)
                  for k, w_k in enumerate(weighted))
        worst = max(worst, float(np.max(np.abs(div / sqrt_det))))
    return worst


def _verified_basis(theta, metric, inv, det_g, tol: float, scale: float) -> HarmonicBasis:
    """The basis of ``theta`` after its periods, closure and co-closure checks;
    ``inv`` and ``det_g`` are the pointwise inverse and determinant of ``metric``."""
    sqrt_det = np.sqrt(det_g)
    period_err = _verify_periods(theta, tol)
    closure = _closure_residual(theta)
    coclosure = _coclosure_residual(theta, inv, sqrt_det)
    if max(closure, coclosure) > tol:
        raise HodgeError(
            f"harmonicity residual above tolerance: d={closure:.3e}, delta={coclosure:.3e}")
    return HarmonicBasis(dim=len(theta), theta=theta, metric=metric, inverse=inv,
                         sqrt_det=sqrt_det, scale=scale,
                         residuals={"periods": period_err, "closure": closure,
                                    "coclosure": coclosure})


# -- diagonal 3D basis --------------------------------------------------------------


def harmonic_basis_diag3(fam: MetricFamily, t: float, n: int = 256) -> HarmonicBasis:
    """Cycle-normalized harmonic basis for diagonal metrics depending on
    (t, x1) with unit determinant: theta_1 = g11/int(g11) dx1, theta_2 = dx2,
    theta_3 = dx3.  The family must be diagonal (off-diagonal samples within
    the 1e-10 tolerance count as exact zeros), x1-only and unit-determinant.
    Verified (periods, closure, co-closure) before returning."""
    if fam.dim != 3:
        raise HodgeError("diagonal basis needs a 3-dimensional family")
    m = fam.sample_matrix(t, family_axes(fam, n))
    for i in range(3):
        for j in range(3):
            if i != j and float(np.max(np.abs(m[i][j]))) > _DIAG3_TOL:
                raise HodgeError(f"family entry ({i + 1},{j + 1}) is not zero")
        if any(size > 1 for size in np.shape(m[i][i])[1:]):
            raise HodgeError(f"diagonal entry ({i + 1},{i + 1}) depends on x2 or x3")
    g11, g22, g33 = m[0][0], m[1][1], m[2][2]
    if float(np.max(np.abs(g11 * g22 * g33 - 1.0))) > _DIAG3_TOL:
        raise HodgeError("family determinant is not identically 1 on samples")
    if any(np.any(g <= 0) for g in (g11, g22, g33)):
        raise HodgeError("non-positive diagonal sample")
    theta = [[g11 / periodic_quad(g11), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    metric = [[g11, 0.0, 0.0], [0.0, g22, 0.0], [0.0, 0.0, g33]]
    return _verified_basis(theta, metric, *_pointwise_inverse(metric), _DIAG3_TOL, 1.0)


def phi_admissibility(fam: MetricFamily, n: int, nt: int, tol: float) -> FamilyCheckReport:
    """Admissibility check of a Phi run: at most 128 points per axis, 2..9 t-samples.
    A family with a non-periodic axis is no torus and is refused before sampling."""
    if not all(fam.periodic):
        raise HodgeError(f"Phi needs a torus: family {fam.name!r} has periodic = "
                         + " ".join(str(int(p)) for p in fam.periodic))
    return check_slag_family(fam, n=min(n, 128), nt=max(2, min(nt, 9)), tol=tol)


def _phi_samples(fam: MetricFamily, t_samples: Sequence, n: int, check: bool,
                 basis_at, row) -> PhiCurve:
    """The Phi loop shared by both classes: admissibility check, then per t
    the basis ``basis_at(t)``, its Gram matrix, det, and ``row(basis, phi, t)``
    for the three integral columns."""
    if check:
        phi_admissibility(fam, n, len(t_samples), _CHECK_TOL).raise_if_failed()
    ts = np.asarray(list(t_samples), dtype=np.float64)
    phis = np.empty_like(ts)
    integrals = np.empty((len(ts), 3), dtype=np.float64)
    for k, t in enumerate(ts):
        basis = basis_at(float(t))
        phis[k] = float(det(gram_L2(basis)))
        integrals[k] = row(basis, phis[k], t)
    return PhiCurve(t=ts, phi=phis, integrals=integrals)


def phi_curve(fam: MetricFamily, t_samples: Sequence, n: int = 256, *,
              check: bool = True) -> PhiCurve:
    """Phi(t) = det Gram(t) for a diagonal x1-only family.

    Also evaluates the closed-form ratio
    int(g^22) int(g^33) / int(g^22 g^33) and insists the quadrature Gram
    agrees; the curve rows carry (int g11, int g^22, int g^33).
    """
    def row(basis, phi, t):
        g11, g22, g33 = basis.metric[0][0], basis.metric[1][1], basis.metric[2][2]
        i11 = float(periodic_quad(g11))
        i22 = float(periodic_quad(1.0 / g22))
        i33 = float(periodic_quad(1.0 / g33))
        cross = float(periodic_quad(1.0 / (g22 * g33)))
        closed = i22 * i33 / cross
        if abs(phi - closed) > _CLOSED_FORM_TOL:
            raise HodgeError(
                f"quadrature Gram disagrees with the closed form at t={t}: "
                f"{phi!r} vs {closed!r}")
        return i11, i22, i33

    return _phi_samples(fam, t_samples, n, check,
                        lambda t: harmonic_basis_diag3(fam, t, n), row)


# -- general 2D basis ----------------------------------------------------------------


def harmonic_basis_2d(fam: MetricFamily, t: float, n: int = 128) -> HarmonicBasis:
    """Cycle-normalized harmonic basis for an admissible 2D family with
    det = C(x2):

        theta_1 = [g11 K dx1 + (g12 K - sqrt(C) L) dx2] / (K M),
        theta_2 = sqrt(C)/K dx2,

    with K = int sqrt(C) dx2, L = int g12 dx2, M = int g11 dx1.  The volume
    normalization K = 1 is realized by rescaling C; the applied factor is
    recorded as ``scale`` (the basis and Phi are scale-invariant).  Checks
    and harmonicity are held to 1e-8."""
    if fam.dim != 2:
        raise HodgeError("2D basis needs a 2-dimensional family")
    g = fam.sample_matrix(t, family_axes(fam, n))
    inv, det_g = _pointwise_inverse(g)
    det_g = np.atleast_2d(det_g)  # constant families give 0-d samples
    if float(np.max(np.ptp(det_g, axis=0))) > _TWO_D_TOL:
        raise HodgeError("determinant depends on x1 (not an admissible 2D family)")
    sqrt_c = np.sqrt(det_g.mean(axis=0, keepdims=True))  # sqrt(C(x2)), shape (1, n) or (1, 1)

    m_per_col = periodic_quad(g[0][0], axis=0)
    l_per_row = periodic_quad(g[0][1], axis=1)
    if float(np.ptp(m_per_col)) > _TWO_D_TOL or float(np.ptp(l_per_row)) > _TWO_D_TOL:
        raise HodgeError("int g11 dx1 or int g12 dx2 is not constant "
                         "(the dual of d/dx1 is not closed)")
    big_m = float(np.mean(m_per_col))
    big_l = float(np.mean(l_per_row))
    big_k = float(periodic_quad(sqrt_c))

    theta = [[g[0][0] / big_m, (g[0][1] * big_k - sqrt_c * big_l) / (big_k * big_m)],
             [0.0, sqrt_c / big_k]]
    return _verified_basis(theta, g, inv, det_g, _TWO_D_TOL, 1.0 / big_k)


def phi_2d(fam: MetricFamily, t_samples: Sequence, n: int = 128, *,
           check: bool = True) -> PhiCurve:
    """Phi(t) for an admissible 2D family; the 2D algebra predicts Phi == 1.

    Curve rows carry (int g11 dx1, int g12 dx2, int sqrt(C) dx2) in the
    g11_int/g22_int/g33_int columns.
    """
    def row(basis, phi, t):
        g = basis.metric
        return periodic_quad(g[0][0]), periodic_quad(g[0][1]), 1.0 / basis.scale

    return _phi_samples(fam, t_samples, n, check,
                        lambda t: harmonic_basis_2d(fam, t, n), row)
