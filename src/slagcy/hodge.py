"""Harmonic 1-form bases on metric tori and the obstruction curve Phi(t).

For a family of flat-coordinate tori, the harmonic basis dual to the
coordinate cycles has closed-form coefficients in two classes: diagonal 3D
metrics depending on x1 only (theta_1 = g11/int(g11) dx1, theta_2 = dx2,
theta_3 = dx3) and general admissible 2D metrics with det = C(x2).  The
obstruction function is the determinant of the L2 Gram matrix of that basis;
it is identically 1 for the 2D class and genuinely t-dependent in 3D.

Each form theta_i carries its flux J_i = sqrt(det g) g^{-1} theta_i, formed once:
co-closure is div J_i = 0 (its residual a transform-free bound when that settles the
check, else by FFT) and <theta_i, theta_j> is the torus mean of theta_i . J_j.
Every sample keeps the broadcast shape `MetricFamily.sample_matrix` gives it (an
x1-only entry is (n, 1, 1) in 3D and (n, 1) in 2D, a constant is 0-d), structural
zeros (basis, metric, cofactor or flux) stay the scalar 0.0 that products skip, so
work follows the variables a family depends on, not n^dim.  A builder takes t as a
float or as a batch of shape (T,) + (1,) * dim, so spatial axes count from the end
(-dim..-1).  The Phi loop builds its bases in the chunks of `families.t_batches`,
the schedule the admissibility check runs in too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import (CHECK_TOL, FamilyCheckReport, MetricFamily, check_slag_family,
                       family_axes, t_batches)
from .gridops import curl_residual, grid_diff, grid_diff_bound, periodic_quad
from .jets import det, within, worst

_TWO_D_TOL = 1e-8  # the 2D builder's guards: its co-closure residual grows with the metric


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
    flux: list                 # flux[i][k]: (sqrt(det g) g^{-1} theta_i)_k
    scale: float               # 2D volume-normalization factor applied to C, per t
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


def _pointwise_adjugate(metric) -> tuple:
    """Adjugate det(g) g^{-1} (a nested dim x dim list) and determinant of metric samples,
    scalars or arrays of broadcast-compatible shapes, by cofactors over `jets.det`, each of
    its own broadcast shape; one whose minor has a row or a column of `_zero`s is 0.0."""
    dim = len(metric)

    def cofactor(r, c):
        rest = [[metric[i][j] for j in range(dim) if j != c] for i in range(dim) if i != r]
        if dim == 3 and any(all(map(_zero, line)) for line in rest + list(zip(*rest))):
            return 0.0  # (a 2D minor is one entry, a scalar zero already)
        minor = rest[0][0] if dim == 2 else det(rest)
        return minor if (r + c) % 2 == 0 else -minor

    det_m = det(metric)
    if not np.all(det_m > 0):
        raise HodgeError("singular metric sample (nan determinant)" if np.any(np.isnan(det_m))
                         else "singular metric sample (non-positive determinant)")
    return [[cofactor(c, r) for c in range(dim)] for r in range(dim)], det_m


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
    checks; ``adj`` and ``det_g`` are the pointwise adjugate and determinant of ``metric``."""
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


# -- diagonal 3D basis --------------------------------------------------------------


def harmonic_basis_diag3(fam: MetricFamily, t, n: int = 256) -> HarmonicBasis:
    """Cycle-normalized harmonic basis for diagonal metrics depending on
    (t, x1) with unit determinant: theta_1 = g11/int(g11) dx1, theta_2 = dx2,
    theta_3 = dx3.  The family must be diagonal (off-diagonal samples within
    CHECK_TOL count as exact zeros), x1-only and unit-determinant to CHECK_TOL.
    Verified (periods, closure, co-closure) before returning."""
    if fam.dim != 3:
        raise HodgeError("diagonal basis needs a 3-dimensional family")
    m = fam.sample_matrix(t, family_axes(fam, n))
    for i in range(3):
        for j in range(3):
            if i != j and not within(float(np.max(np.abs(m[i][j]))), CHECK_TOL):
                raise HodgeError(f"family entry ({i + 1},{j + 1}) is not zero")
        if any(size > 1 for size in np.shape(m[i][i])[-2:]):
            raise HodgeError(f"diagonal entry ({i + 1},{i + 1}) depends on x2 or x3")
    g11, g22, g33 = m[0][0], m[1][1], m[2][2]
    if not within(float(np.max(np.abs(g11 * g22 * g33 - 1.0))), CHECK_TOL):
        raise HodgeError("family determinant is not identically 1 on samples")
    if any(np.any(g <= 0) for g in (g11, g22, g33)):
        raise HodgeError("non-positive diagonal sample")
    theta = [[g11 / periodic_quad(g11, axis=(-3, -2, -1), keepdims=True), 0.0, 0.0],
             [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    metric = [[g11, 0.0, 0.0], [0.0, g22, 0.0], [0.0, 0.0, g33]]
    return _verified_basis(theta, metric, *_pointwise_adjugate(metric), CHECK_TOL, 1.0)


def phi_admissibility(fam: MetricFamily, n: int, nt: int, tol: float) -> FamilyCheckReport:
    """Admissibility check of a Phi run: at most 128 points per axis, 2..9 t-samples.
    A family with a non-periodic axis is no torus and is refused before sampling."""
    if not all(fam.periodic):
        raise HodgeError(f"Phi needs a torus: family {fam.name!r} has periodic = "
                         + " ".join(str(int(p)) for p in fam.periodic))
    return check_slag_family(fam, n=min(n, 128), nt=max(2, min(nt, 9)), tol=tol)


def _phi_samples(fam: MetricFamily, t_samples: Sequence, n: int, check: bool,
                 basis_at, row) -> PhiCurve:
    """The Phi loop shared by both classes: admissibility check, then per chunk of
    t values (`families.t_batches`) the basis ``basis_at(t)``, its Gram matrix, det,
    and the three integral columns ``row(basis, phi, t)`` of the chunk's phi and t."""
    if check:
        phi_admissibility(fam, n, len(t_samples), CHECK_TOL).raise_if_failed()
    ts = np.asarray(list(t_samples), dtype=np.float64)
    phis = np.empty_like(ts)
    integrals = np.empty((len(ts), 3), dtype=np.float64)

    def at(t):  # a HodgeError names the first t to fail alone, a failing chunk re-run t by t
        try:
            return basis_at(t)
        except HodgeError:
            for one in np.ravel(t):
                try:
                    basis_at(float(one))
                except HodgeError as alone:
                    raise HodgeError(f"{alone} at t={float(one)}") from alone
            raise

    for k, basis in t_batches(fam, ts, n, at):
        phis[k] = det(gram_L2(basis))
        for c, col in enumerate(row(basis, phis[k], ts[k])):
            integrals[k, c] = col
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
        i11, i22, i33, cross = (periodic_quad(g, axis=(-3, -2, -1)) for g in
                                (g11, 1.0 / g22, 1.0 / g33, 1.0 / (g22 * g33)))
        closed = np.broadcast_to(i22 * i33 / cross, phi.shape)
        gap = np.abs(phi - closed)  # a nan gap is the first one argmax finds
        if not within(float(np.max(gap)), CHECK_TOL):
            k = int(np.argmax(gap))
            raise HodgeError(
                f"quadrature Gram disagrees with the closed form at t={t[k]}: "
                f"{phi[k]:.3e} vs {closed[k]:.3e}")
        return i11, i22, i33

    return _phi_samples(fam, t_samples, n, check,
                        lambda t: harmonic_basis_diag3(fam, t, n), row)


# -- general 2D basis ----------------------------------------------------------------


def harmonic_basis_2d(fam: MetricFamily, t, n: int = 128) -> HarmonicBasis:
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
    adj, det_g = _pointwise_adjugate(g)
    det_g = np.atleast_2d(det_g)  # constant families give 0-d samples
    if not within(float(np.max(np.ptp(det_g, axis=-2))), _TWO_D_TOL):
        raise HodgeError("determinant depends on x1 (not an admissible 2D family)")
    sqrt_c = np.sqrt(det_g.mean(axis=-2, keepdims=True))  # sqrt(C(x2)), shape (..., 1, n|1)

    m_per_col = periodic_quad(g[0][0], axis=-2, keepdims=True)
    l_per_row = periodic_quad(g[0][1], axis=-1, keepdims=True)
    if not all(within(float(np.max(np.ptp(q, axis=(-2, -1)))), _TWO_D_TOL)
               for q in (m_per_col, l_per_row) if np.ndim(q)):
        raise HodgeError("int g11 dx1 or int g12 dx2 is not constant "
                         "(the dual of d/dx1 is not closed)")
    big_m = periodic_quad(m_per_col, axis=-1, keepdims=True)
    big_l = periodic_quad(l_per_row, axis=-2, keepdims=True)
    big_k = periodic_quad(sqrt_c, axis=(-2, -1), keepdims=True)

    theta = [[g[0][0] / big_m, (g[0][1] * big_k - sqrt_c * big_l) / (big_k * big_m)],
             [0.0, sqrt_c / big_k]]
    return _verified_basis(theta, g, adj, det_g, _TWO_D_TOL, 1.0 / big_k[..., 0, 0])


def phi_2d(fam: MetricFamily, t_samples: Sequence, n: int = 128, *,
           check: bool = True) -> PhiCurve:
    """Phi(t) for an admissible 2D family; the 2D algebra predicts Phi == 1.

    Curve rows carry (int g11 dx1, int g12 dx2, int sqrt(C) dx2) in the
    g11_int/g22_int/g33_int columns.
    """
    def row(basis, phi, t):
        g = basis.metric
        return [periodic_quad(e, axis=(-2, -1)) for e in g[0]] + [1.0 / basis.scale]

    return _phi_samples(fam, t_samples, n, check,
                        lambda t: harmonic_basis_2d(fam, t, n), row)
