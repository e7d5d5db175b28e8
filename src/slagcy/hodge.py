"""Harmonic 1-form bases on metric tori and the obstruction curve Phi(t).

For a family of flat-coordinate tori, one closed form gives a basis dual to the
coordinate cycles in either dim: theta_j = sqrt(C_j)/K_j dx_j for j >= 2 and
theta_1 = [g11 dx1 + sum_j (g1j K_j - sqrt(C_j) L_j)/K_j dx_j]/M, with C_j the mean of
det g over every axis but x_j, K_j = int sqrt(C_j), M = int g11 and L_j = int g1j.  Its
periods are delta_ij by construction; one certification, of its periods, closure and
co-closure, decides whether it is the harmonic basis, whatever family produced it.  It
certifies for 2D metrics with det = C(x2) whose dual of d/dx1 is closed (int g11 dx1 and
int g12 dx2 constant), for diagonal 3D metrics depending on (t, x1) with an x-free
determinant (theta_1 = g11/int(g11) dx1, theta_2 = dx2, theta_3 = dx3) and for constant
metrics; any other family is refused by its harmonicity residual unless its closed form
is harmonic too.  The obstruction function is the determinant of the L2 Gram matrix of
that basis: identically 1 in 2D, genuinely t-dependent in 3D.

Each form theta_i carries its flux J_i = sqrt(det g) g^{-1} theta_i, formed once:
co-closure is div J_i = 0 (its residual a transform-free bound when that settles the
check, else by FFT) and <theta_i, theta_j> is the torus mean of theta_i . J_j.
Every sample keeps the broadcast shape `MetricFamily.sample_matrix` gives it (an
x1-only entry is (n, 1, 1) in 3D and (n, 1) in 2D, a constant is 0-d); where the basis
samples, an exactly-zero constant off the diagonal becomes the scalar 0.0, and
structural zeros (basis, metric, cofactor or flux) stay that 0.0, which products skip,
so work follows the variables a family depends on, not n^dim.  A builder takes t as a
float or as a batch of shape (T,) + (1,) * dim, so spatial axes count from the end
(-dim..-1).  The Phi loop builds its bases in the chunks of `families.t_batches`,
the schedule the admissibility check runs in too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import (CHECK_TOL, FamilyCheckReport, FamilyError, MetricFamily,
                       check_slag_family, family_axes, positive_samples, t_batches)
from .gridops import curl_residual, grid_diff, grid_diff_bound, periodic_quad
from .jets import det, within, worst

_TWO_D_TOL = 1e-8  # the 2D basis's certification: its co-closure residual grows with the metric


class HodgeError(FamilyError):
    """Precondition or verification failure while building a basis or a Phi curve."""


@dataclass(frozen=True)
class HarmonicBasis:
    """1-forms theta_i = sum_k theta[i][k] dx_{k+1} sampled on a periodic grid,
    normalized against the coordinate cycles: int_{cycle_i} theta_j = delta_ij.
    Entries of the dim x dim lists are broadcast samples (module docstring)."""

    dim: int
    theta: list                # theta[i][k], broadcastable entries
    metric: list               # metric[k][l]: the samples that produced it
    flux: list                 # flux[i][k]: (sqrt(det g) g^{-1} theta_i)_k
    scale: float               # 1/K_dim per t: the volume normalization of C in 2D
    residuals: dict            # periods, closure, co-closure (a bound if that passed)


@dataclass(frozen=True)
class PhiCurve:
    """Sampled obstruction values Phi(t) = det(Gram(t))."""

    t: np.ndarray
    phi: np.ndarray
    integrals: np.ndarray | None = None  # columns documented per builder

    def spread(self) -> float:
        return float(np.max(self.phi) - np.min(self.phi))

    def classification(self, tol: float = CHECK_TOL) -> str:
        return "constant" if within(self.spread(), 100.0 * tol) else "non-constant"


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


def _zero(x) -> bool:
    """Whether ``x`` is a structural zero: a float 0.0, never an array (a type check)."""
    return isinstance(x, float) and x == 0.0


def _pointwise_adjugate(metric) -> list:
    """Adjugate det(g) g^{-1} (a nested dim x dim list) of metric samples, scalars or
    arrays of broadcast-compatible shapes, by cofactors over `jets.det`, each of its own
    broadcast shape; one whose minor has a row or a column of `_zero`s is 0.0."""
    dim = len(metric)

    def cofactor(r, c):
        rest = [[metric[i][j] for j in range(dim) if j != c] for i in range(dim) if i != r]
        if dim == 3 and any(all(map(_zero, line)) for line in rest + list(zip(*rest))):
            return 0.0  # (a 2D minor is one entry, a scalar zero already)
        minor = rest[0][0] if dim == 2 else det(rest)
        return minor if (r + c) % 2 == 0 else -minor

    return [[cofactor(c, r) for c in range(dim)] for r in range(dim)]


def _contract(row, vec):
    """sum_k row[k] vec[k] over the pairs with no `_zero` factor; 0.0 if no pair is left."""
    terms = [a * v for a, v in zip(row, vec) if not (_zero(a) or _zero(v))]
    return sum(terms[1:], terms[0]) if terms else 0.0


def gram_L2(basis: HarmonicBasis) -> np.ndarray:
    """Gram matrix <theta_i, theta_j> = int theta_i . J_j over the torus (J_j the
    flux of theta_j), by periodic quadrature; a batch of T values of t adds a last axis."""
    dim, theta, flux = basis.dim, basis.theta, basis.flux
    quads = {(i, j): periodic_quad(_contract(flux[j], theta[i]), axis=tuple(range(-dim, 0)))
             for i in range(dim) for j in range(i, dim)}
    gram = np.empty((dim, dim) + max(map(np.shape, quads.values()), key=len))  # batch or ()
    for (i, j), q in quads.items():  # a structural zero integrates to the float 0.0
        gram[i, j] = gram[j, i] = q
    return gram


def _verified_basis(theta, metric, adj, det_g, tol: float, scale: float) -> HarmonicBasis:
    """The basis of ``theta`` and its fluxes after the periods, closure and co-closure
    checks, the one judge of a basis; ``adj`` and ``det_g`` are the pointwise adjugate and
    determinant of ``metric``."""
    dim = len(theta)
    # the period of theta_i over cycle j, averaged over its circles: the mean of theta[i][j]
    devs = (periodic_quad(comp, axis=tuple(range(-dim, 0))) - float(i == j)
            for i, row in enumerate(theta) for j, comp in enumerate(row))
    period_err = worst(abs(d) if isinstance(d, float) else float(np.abs(d).max()) for d in devs)
    if not within(period_err, tol):
        raise HodgeError(f"cycle normalization off by {period_err:.3e} (tol {tol:.1e})")
    sqrt_det = np.sqrt(det_g)
    flux = [[j if _zero(j) else j / sqrt_det for j in (_contract(row, th) for row in adj)]
            for th in theta]
    closure = worst(curl_residual(row, (True,) * dim) for row in theta)
    # max |delta theta_i| = max |sum_k d_k J_ik| / sqrt(det g), axes counted from the end, is at
    # most sum_k grid_diff_bound(J_ik) / min sqrt(det g); the transforms run if a check fails
    coclosure = worst(sum(grid_diff_bound(j, k - dim) for k, j in enumerate(row))
                      / float(np.min(sqrt_det)) for row in flux)
    if not within(worst((closure, coclosure)), tol):
        coclosure = worst(float(np.max(np.abs(sum(grid_diff(j, k - dim, True) for k, j
                                                  in enumerate(row)) / sqrt_det))) for row in flux)
    if not within(worst((closure, coclosure)), tol):
        raise HodgeError(
            f"harmonicity residual above tolerance: d={closure:.3e}, delta={coclosure:.3e}")
    return HarmonicBasis(dim=dim, theta=theta, metric=metric, flux=flux, scale=scale,
                         residuals={"periods": period_err, "closure": closure,
                                    "coclosure": coclosure})


# -- the closed-form basis and the Phi loop --------------------------------------------


def _closed_form_basis(fam: MetricFamily, t, n: int, tol: float) -> HarmonicBasis:
    """The closed form of the module docstring on n points per axis, certified to ``tol``
    by `_verified_basis`; a sample that is not positive definite (the leading minors of
    the admissibility check) is refused first.  M and L_j are means along x1 (x_j), then
    over the other axes; the scale is 1/K_dim."""
    m, minors = positive_samples(fam, t, family_axes(fam, n))
    dim, axes = fam.dim, tuple(range(-fam.dim, 0))
    g = [[0.0 if i != j and np.ndim(e) == 0 and e == 0.0 else e for j, e in enumerate(row)]
         for i, row in enumerate(m)]
    det_g = np.reshape(minors[-1], (1,) * (dim - np.ndim(minors[-1])) + np.shape(minors[-1]))
    big_m = periodic_quad(periodic_quad(g[0][0], axis=-dim, keepdims=True), axis=axes[1:],
                          keepdims=True)
    theta = [[g[0][0] / big_m] + [0.0] * (dim - 1)]
    for j in range(1, dim):
        rest = tuple(a for a in axes if a != j - dim)
        sqrt_c = np.sqrt(periodic_quad(det_g, axis=rest, keepdims=True))
        big_k = periodic_quad(sqrt_c, axis=axes, keepdims=True)
        if not _zero(g[0][j]):
            big_l = periodic_quad(periodic_quad(g[0][j], axis=j - dim, keepdims=True),
                                  axis=rest, keepdims=True)
            theta[0][j] = (g[0][j] * big_k - sqrt_c * big_l) / (big_k * big_m)
        theta.append([0.0] * j + [sqrt_c / big_k] + [0.0] * (dim - 1 - j))
    return _verified_basis(theta, g, _pointwise_adjugate(g), det_g, tol,
                           1.0 / big_k[(...,) + (0,) * dim])


def harmonic_basis_diag3(fam: MetricFamily, t, n: int = 256) -> HarmonicBasis:
    """The closed-form basis of a 3-dimensional family, certified to CHECK_TOL."""
    if fam.dim != 3:
        raise HodgeError("3D basis needs a 3-dimensional family")
    return _closed_form_basis(fam, t, n, CHECK_TOL)


def harmonic_basis_2d(fam: MetricFamily, t, n: int = 128) -> HarmonicBasis:
    """The closed-form basis of a 2-dimensional family, certified to 1e-8."""
    if fam.dim != 2:
        raise HodgeError("2D basis needs a 2-dimensional family")
    return _closed_form_basis(fam, t, n, _TWO_D_TOL)


def _require_torus(fam: MetricFamily) -> None:
    if not all(fam.periodic):
        raise HodgeError(f"Phi needs a torus: family {fam.name!r} has periodic = "
                         + " ".join(str(int(p)) for p in fam.periodic))


def phi_admissibility(fam: MetricFamily, n: int, nt: int, tol: float) -> FamilyCheckReport:
    """Admissibility check of a Phi run: at most 128 points per axis, 2..9 t-samples.
    A family with a non-periodic axis is no torus and is refused before sampling."""
    _require_torus(fam)
    return check_slag_family(fam, n=min(n, 128), nt=max(2, min(nt, 9)), tol=tol)


def _phi_samples(fam: MetricFamily, t_samples: Sequence, n: int, check: bool,
                 basis_at, row) -> PhiCurve:
    """The Phi loop of both kinds: the torus test (and with ``check`` the admissibility
    check), then per chunk of t values (`families.t_batches`) the basis ``basis_at(t)``,
    its Gram matrix, det, and the three integral columns ``row(basis)``; a Phi that
    is not finite is refused, naming its first t."""
    _require_torus(fam)
    if check:
        phi_admissibility(fam, n, len(t_samples), CHECK_TOL).raise_if_failed()
    ts = np.asarray(list(t_samples), dtype=np.float64)
    phis = np.empty_like(ts)
    integrals = np.empty((len(ts), 3), dtype=np.float64)

    def at(t):  # the failure of a float t names it; t_batches re-runs a failing chunk t by t
        try:
            return basis_at(t)
        except HodgeError as exc:
            if isinstance(t, float):
                raise HodgeError(f"{exc} at t={t}") from exc
            raise

    for k, basis in t_batches(fam, ts, n, at):
        phis[k] = det(gram_L2(basis))
        for c, col in enumerate(row(basis)):
            integrals[k, c] = col
    if not np.all(np.isfinite(phis)):
        first = int(np.argmin(np.isfinite(phis)))
        raise HodgeError(f"Phi is not finite at t={ts[first]}: {phis[first]}")
    return PhiCurve(t=ts, phi=phis, integrals=integrals)


def phi_curve(fam: MetricFamily, t_samples: Sequence, n: int = 256, *,
              check: bool = True) -> PhiCurve:
    """Phi(t) = det Gram(t) for a 3D family whose basis certifies (the diagonal x1-only
    class); the curve rows carry (int g11, int 1/g22, int 1/g33), g^22 and g^33 there."""
    def row(basis):
        g = basis.metric
        return [periodic_quad(e, axis=(-3, -2, -1)) for e in (g[0][0], 1.0 / g[1][1],
                                                               1.0 / g[2][2])]

    return _phi_samples(fam, t_samples, n, check,
                        lambda t: harmonic_basis_diag3(fam, t, n), row)


def phi_2d(fam: MetricFamily, t_samples: Sequence, n: int = 128, *,
           check: bool = True) -> PhiCurve:
    """Phi(t) for a 2D family whose basis certifies; the 2D algebra predicts Phi == 1.

    Curve rows carry (int g11 dx1, int g12 dx2, int sqrt(C) dx2) in the
    g11_int/g22_int/g33_int columns.
    """
    def row(basis):
        g = basis.metric
        return [periodic_quad(e, axis=(-2, -1)) for e in g[0]] + [1.0 / basis.scale]

    return _phi_samples(fam, t_samples, n, check,
                        lambda t: harmonic_basis_2d(fam, t, n), row)
