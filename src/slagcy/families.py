"""One-parameter metric families on the torus and their admissibility test.

A family A_t feeds the structure solver with every horizontal slice
{y1 = t, y2 = y3 = 0} special Lagrangian exactly when det(A_t) does not
depend on t and the 1-form dual to d/dx1 is harmonic for A_t at every t;
harmonicity splits into the closure of the form (curl of the first row) and
the closure of its Hodge dual (x1-independence of sqrt(det A_t)).  The test
evaluates these three residuals on sampled grids.

Constructors cover a block-diagonal class diag(e^u, Q_t) with
det(Q_t) = e^{-u} q(x2, x3), two collapsing degenerations of it obtained by
normalizing integral constraints numerically, and the cone-asymptotic
cylinder family built from a curve (x1 + i t)^(1/3).  Entries are either DSL
expressions (jet-expandable) or plain grid evaluators (when a numeric
normalization constant is baked in).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import dsl
from .dsl import Expr, eval_grid, eval_jet, free_variables, parse
from .gridops import grid_diff, periodic_axis, periodic_quad
from .jets import FLOAT, X1, X2, X3, Y1, Jet, JetError, det, leading_minors


class FamilyError(Exception):
    """Malformed family or sampling failure."""


class InadmissibleFamilyError(FamilyError):
    """The family fails the slice-by-slice special Lagrangian conditions."""


def _as_expr(obj) -> Expr:
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float)):
        from fractions import Fraction
        return dsl.Num(Fraction(obj))
    return obj


@dataclass(frozen=True)
class ExprEntry:
    """Metric entry given by a DSL expression over (t, x1, x2, x3)."""

    expr: Expr

    def sample(self, t: float, axes: dict) -> np.ndarray:
        env = dict(axes)
        env["t"] = t
        return np.asarray(eval_grid(self.expr, env), dtype=np.float64)


@dataclass(frozen=True)
class GridEntry:
    """Metric entry given by a plain evaluator (t, axes) -> samples.

    Used when the entry involves a numerically computed normalization and is
    therefore not expressible in the DSL; such entries sample onto grids but
    cannot be jet-expanded.
    """

    fn: Callable

    def sample(self, t: float, axes: dict) -> np.ndarray:
        try:  # the normalizers overflow here; as Python floats, their ** raises
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return np.asarray(self.fn(t, axes), dtype=np.float64)
        except (FloatingPointError, OverflowError) as exc:
            raise FamilyError(f"entry not finite at t={t}: {exc.args[-1]}") from exc


def _entry(obj):
    if isinstance(obj, (ExprEntry, GridEntry)):
        return obj
    return ExprEntry(_as_expr(obj))


@dataclass(frozen=True)
class MetricFamily:
    """A t-parametrized dim x dim symmetric metric with sampled entries."""

    dim: int
    entries: tuple
    t_range: tuple
    periodic: tuple
    name: str = ""

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise FamilyError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise FamilyError("entries must form a dim x dim array")
        if any(self.entries[i][j] != self.entries[j][i] for i in range(self.dim) for j in range(i)):
            raise FamilyError("entries must form a symmetric array")
        if len(self.periodic) != self.dim:
            raise FamilyError("one periodicity flag per x-variable is required")
        lo, hi = self.t_range
        if not lo <= hi:
            raise FamilyError(f"empty t_range {self.t_range}")

    def sample_matrix(self, t: float, axes: dict) -> list:
        """Sample each entry on or above the diagonal once; mirror the rest."""
        upper = {(i, j): self.entries[i][j].sample(t, axes)
                 for i in range(self.dim) for j in range(i, self.dim)}
        return [[upper[min(i, j), max(i, j)] for j in range(self.dim)] for i in range(self.dim)]


def family_from_entries(entries, *, dim: int = 3, t_range=(0.0, 1.0),
                        periodic=None, name: str = "") -> MetricFamily:
    """Build a symmetric family from an upper-triangular dict like
    {"g11": "...", "g12": "...", ...}; missing off-diagonals are zero."""
    if periodic is None:
        periodic = (True,) * dim
    grid = [[None] * dim for _ in range(dim)]
    known = dict(entries)
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            key = f"g{i}{j}"
            value = known.pop(key, None)
            if value is None and i == j:
                raise FamilyError(f"missing diagonal entry {key}")
            ent = _entry(value if value is not None else 0)
            grid[i - 1][j - 1] = ent
            grid[j - 1][i - 1] = ent
    if known:
        raise FamilyError(f"unknown entries {sorted(known)}")
    return MetricFamily(dim, tuple(tuple(r) for r in grid), tuple(t_range),
                        tuple(periodic), name)


def family_axes(fam: MetricFamily, n: int) -> dict:
    """Sparse broadcastable sample axes {"x1": ..., ...} for the family's grid."""
    axes = {}
    for k in range(fam.dim):
        x = periodic_axis(n, fam.periodic[k])
        shape = [1] * fam.dim
        shape[k] = n
        axes[f"x{k + 1}"] = x.reshape(shape)
    return axes


@dataclass(frozen=True)
class FamilyCheckReport:
    """Maximum sampled residual of each slice condition."""

    det_t_independence: float
    det_x1_independence: float
    closure_residual: float
    tolerance: float
    n: int
    nt: int

    @property
    def verdict(self) -> str:
        return "pass" if self.passed() else "fail"

    @property
    def worst(self) -> float:
        """The largest of the three residuals."""
        return max(self.det_t_independence, self.det_x1_independence,
                   self.closure_residual)

    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def raise_if_failed(self) -> None:
        """Raise InadmissibleFamilyError, naming every residual, unless passed()."""
        if not self.passed():
            raise InadmissibleFamilyError(
                f"family fails the slice conditions: {self.as_dict()}")

    def as_dict(self) -> dict:
        return {
            "det_t_independence": self.det_t_independence,
            "det_x1_independence": self.det_x1_independence,
            "closure_residual": self.closure_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "n": self.n,
            "nt": self.nt,
        }


def check_slag_family(fam: MetricFamily, n: int = 64, nt: int = 9,
                      tol: float = 1e-10) -> FamilyCheckReport:
    """Evaluate the three slice conditions at nt values of t on n points per
    axis.  Each entry is sampled and differentiated at its own broadcast
    shape, so an x1-only family costs O(n) per t, not O(n^dim).

    A passing family feeds :func:`family_to_policy` with every horizontal
    slice special Lagrangian.
    """
    if nt < 2:
        raise FamilyError("need at least 2 t-samples for the t-derivative")
    axes = family_axes(fam, n)
    lo, hi = fam.t_range
    ts = np.linspace(lo, hi, nt)

    dets = []
    closure_max = 0.0
    sqrt_det_x1_max = 0.0
    for t in ts:
        m = fam.sample_matrix(float(t), axes)
        minors = leading_minors(m)  # positive definiteness, and det(m) last
        for k, minor in enumerate(minors, start=1):
            if not np.all(minor > 0):
                raise FamilyError(
                    f"non-positive-definite sample at t={float(t)}: leading minor {k} "
                    f"reaches {float(np.min(minor))}")
        dets.append(minors[-1])
        d_sqrt = grid_diff(np.sqrt(minors[-1]), 0, fam.periodic[0], n)
        sqrt_det_x1_max = max(sqrt_det_x1_max, float(np.max(np.abs(d_sqrt))))
        for i in range(fam.dim):
            for j in range(i + 1, fam.dim):
                r = (grid_diff(m[0][j], i, fam.periodic[i], n)
                     - grid_diff(m[0][i], j, fam.periodic[j], n))
                closure_max = max(closure_max, float(np.max(np.abs(r))))
    det_t = np.gradient(np.stack(np.broadcast_arrays(*dets)), ts, axis=0)
    det_t_max = float(np.max(np.abs(det_t)))
    return FamilyCheckReport(det_t_independence=det_t_max,
                             det_x1_independence=sqrt_det_x1_max,
                             closure_residual=closure_max,
                             tolerance=tol, n=n, nt=nt)


# -- constructors for the block-diagonal class -------------------------------------


# grid points per axis, tolerance and t-samples of the checks the block
# constructor and family_to_policy run
_CHECK_N, _CHECK_TOL = 64, 1e-10
_BLOCK_CHECK_NT, _POLICY_CHECK_NT = 5, 9


def make_block_family(u, Q, q, *, t_range=(0.0, 1.0), name: str = "block") -> MetricFamily:
    """diag(e^u, Q_t) with the block-determinant law det(Q_t) = e^{-u} q.

    ``u`` depends on (t, x1), ``q`` on (x2, x3); the law is validated on a
    sample grid and violations are rejected.
    """
    u = _as_expr(u)
    q = _as_expr(q)
    qm = [[_as_expr(Q[i][j]) for j in range(2)] for i in range(2)]
    if qm[1][0] != qm[0][1]:
        raise FamilyError("Q must be symmetric: Q[1][0] differs from Q[0][1]")
    if free_variables(u) - {"t", "x1"}:
        raise FamilyError("u may depend on t and x1 only")
    if free_variables(q) - {"x2", "x3"}:
        raise FamilyError("q may depend on x2 and x3 only")
    entries = (
        (ExprEntry(dsl.Call("exp", u)), _entry(0), _entry(0)),
        (_entry(0), ExprEntry(qm[0][0]), ExprEntry(qm[0][1])),
        (_entry(0), ExprEntry(qm[0][1]), ExprEntry(qm[1][1])),
    )
    fam = MetricFamily(3, entries, tuple(t_range), (True, True, True), name)
    axes = family_axes(fam, _CHECK_N)
    q_samples = eval_grid(q, axes)
    worst = 0.0
    for t in np.linspace(t_range[0], t_range[1], _BLOCK_CHECK_NT):
        m = fam.sample_matrix(float(t), axes)
        det_q = det([row[1:] for row in m[1:]])
        worst = max(worst, float(np.max(np.abs(det_q - q_samples / m[0][0]))))
    if worst > _CHECK_TOL:
        raise FamilyError(
            f"block-determinant law violated: max |det(Q) - e^(-u) q| = {worst:.3e}")
    return fam


_NORM_GRID = 256


def _collapse_norm(w: Expr, t: float) -> float:
    """Integral of e^{w(t,s)/2} over one period in x1."""
    s = periodic_axis(_NORM_GRID)
    vals = np.exp(0.5 * eval_grid(w, {"t": t, "x1": s}))
    return float(periodic_quad(vals))


def make_collapsing_22(w_raw, t1: float, *, t_range=None,
                       name: str = "collapse22") -> MetricFamily:
    """Family whose 2-cycle {x1 = 1/2} collapses to a circle as t -> t1.

    The raw profile is renormalized to u_t = w_raw - 2 log int_0^1 e^{w_raw/2},
    which pins int_0^1 e^{u_t/2} = 1 for every t; the metric is
    diag(e^u, 1, e^{-u}).
    """
    w = _as_expr(w_raw)
    if free_variables(w) - {"t", "x1"}:
        raise FamilyError("the collapse profile may depend on t and x1 only")
    if t_range is None:
        t_range = (0.0, 0.9 * t1)
    if not t_range[1] < t1:
        raise FamilyError(f"t_range must stay strictly below the collapse time {t1}")
    collapse_norm = lru_cache(maxsize=1)(partial(_collapse_norm, w))

    def a11(t, axes):
        norm = collapse_norm(t)
        return np.exp(eval_grid(w, {"t": t, "x1": axes["x1"]})) / norm ** 2

    def a33(t, axes):
        norm = collapse_norm(t)
        return np.exp(-eval_grid(w, {"t": t, "x1": axes["x1"]})) * norm ** 2

    zero = _entry(0)
    entries = (
        (GridEntry(a11), zero, zero),
        (zero, _entry(1), zero),
        (zero, zero, GridEntry(a33)),
    )
    return MetricFamily(3, entries, tuple(t_range), (True, True, True), name)


def make_collapsing_21(w_raw, v_raw, t1: float, *, t_range=None,
                       name: str = "collapse21") -> MetricFamily:
    """Family also collapsing the 2-cycle {x2 = 1/2}: diag(e^u, e^v, e^{-(u+v)})
    with int_0^1 e^{v_t(x1,s)/2} ds = 1 enforced by a per-x1 shift of v."""
    w = _as_expr(w_raw)
    v = _as_expr(v_raw)
    if free_variables(w) - {"t", "x1"}:
        raise FamilyError("the x1-profile may depend on t and x1 only")
    if free_variables(v) - {"t", "x1", "x2"}:
        raise FamilyError("the x2-profile may depend on t, x1 and x2 only")
    if t_range is None:
        t_range = (0.0, 0.9 * t1)
    if not t_range[1] < t1:
        raise FamilyError(f"t_range must stay strictly below the collapse time {t1}")

    def _v_norm(t: float, x1: np.ndarray) -> np.ndarray:
        """Per-x1 normalizer int_0^1 e^{v(t,x1,s)/2} ds, broadcast like x1."""
        flat = np.atleast_1d(np.asarray(x1, dtype=np.float64)).ravel()
        s = periodic_axis(_NORM_GRID)
        vals = np.exp(0.5 * eval_grid(v, {"t": t, "x1": flat[:, None], "x2": s[None, :]}))
        vals = np.broadcast_to(np.asarray(vals), (flat.size, s.size))
        norms = np.asarray(periodic_quad(vals, axis=1))
        return norms.reshape(np.shape(x1) if np.ndim(x1) else ())
    collapse_norm = lru_cache(maxsize=1)(partial(_collapse_norm, w))

    def a11(t, axes):
        norm = collapse_norm(t)
        return np.exp(eval_grid(w, {"t": t, "x1": axes["x1"]})) / norm ** 2

    def a22(t, axes):
        vn = _v_norm(t, axes["x1"])
        vv = eval_grid(v, {"t": t, "x1": axes["x1"], "x2": axes["x2"]})
        return np.exp(vv) / vn ** 2

    def a33(t, axes):
        norm = collapse_norm(t)
        vn = _v_norm(t, axes["x1"])
        vv = eval_grid(v, {"t": t, "x1": axes["x1"], "x2": axes["x2"]})
        wv = eval_grid(w, {"t": t, "x1": axes["x1"]})
        return np.exp(-(wv + vv)) * norm ** 2 * vn ** 2

    zero = _entry(0)
    entries = (
        (GridEntry(a11), zero, zero),
        (zero, GridEntry(a22), zero),
        (zero, zero, GridEntry(a33)),
    )
    return MetricFamily(3, entries, tuple(t_range), (True, True, True), name)


def make_cone_family(f, *, t_range=(0.1, 1.0), name: str = "cone") -> MetricFamily:
    """Cylinder family asymptotic to a cone: diag(|c'|^2, |c|^2 f, |c|^2 f)
    for the curve c(x1) = (x1 + i t)^(1/3), principal branch, x1 > 0.

    ``f`` is the conformal factor of the cross-section metric, a positive
    function of (x2, x3).  Not periodic in x1; grids avoid the branch point.
    """
    f = _as_expr(f)
    if free_variables(f) - {"x2", "x3"}:
        raise FamilyError("the conformal factor may depend on x2 and x3 only")

    def _modulus_sq(t, x1):
        x1 = np.asarray(x1, dtype=np.float64)
        if not np.all(x1 > 0):
            raise FamilyError("cone family sampled at x1 <= 0 (branch point)")
        return x1 ** 2 + float(t) ** 2

    def a11(t, axes):
        # |c'|^2 = (1/9) |x1 + i t|^(-4/3)
        return _modulus_sq(t, axes["x1"]) ** (-2.0 / 3.0) / 9.0

    def across(t, axes):
        fv = eval_grid(f, {"x2": axes.get("x2", 0.0), "x3": axes.get("x3", 0.0)})
        if not np.all(fv > 0):
            raise FamilyError("conformal factor must be positive on samples")
        return _modulus_sq(t, axes["x1"]) ** (1.0 / 3.0) * fv

    zero = _entry(0)
    entries = (
        (GridEntry(a11), zero, zero),
        (zero, GridEntry(across), zero),
        (zero, zero, GridEntry(across)),
    )
    return MetricFamily(3, entries, tuple(t_range), (False, True, True), name)


# -- bridge into the structure solver ------------------------------------------------


def metric_jets(fam: MetricFamily, t, order: int, mode: str = FLOAT) -> list:
    """Jet-expand the 3x3 metric A_t at the origin, ``t`` a number or a jet
    (such as base_t + y1): each upper entry once, mirrored.  The package's one
    DSL-to-jet expansion; a jet error names its entry."""
    if fam.dim != 3:
        raise FamilyError("only 3-dimensional families feed the structure solver")
    if not all(isinstance(e, ExprEntry) for row in fam.entries for e in row):
        raise FamilyError(
            "family entries are not jet-expandable (numerically normalized or grid-only)")
    env = {f"x{k + 1}": Jet.variable(var, order, mode) for k, var in enumerate((X1, X2, X3))}
    env["t"] = t if isinstance(t, Jet) else Jet.constant(t, order, mode)
    g = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            try:
                g[i][j] = g[j][i] = eval_jet(fam.entries[i][j].expr, env)
            except JetError as exc:
                raise FamilyError(f"g{i + 1}{j + 1}: {exc}") from exc
    return g


def family_to_policy(fam: MetricFamily, base_t: float, order: int,
                     mode: str = FLOAT, *, check: bool = True):
    """(g, policy): the metric jets at t = base_t, and the step-1 policy
    A_{base_t + y1}, the metric the solved structure's slices {y1 = const}
    carry as the family's tori.  The admissibility check runs before any
    expansion."""
    if check:
        check_slag_family(fam, n=_CHECK_N, nt=_POLICY_CHECK_NT, tol=_CHECK_TOL).raise_if_failed()
    return (metric_jets(fam, base_t, order, mode),
            metric_jets(fam, Jet.variable(Y1, order, mode) + base_t, order, mode))
