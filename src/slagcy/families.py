"""One-parameter metric families on the torus and their admissibility test.

A family A_t feeds the structure solver with every horizontal slice
{y1 = t, y2 = y3 = 0} special Lagrangian exactly when det(A_t) does not
depend on t and the 1-form dual to d/dx1 is harmonic for A_t at every t;
harmonicity splits into the closure of the form (curl of the first row) and
the closure of its Hodge dual (x1-independence of sqrt(det A_t)).  The test
evaluates these three residuals on sampled grids, in the chunks of t_batches.

Constructors, each built by family_from_entries, cover a block-diagonal
class diag(e^u, Q_t) with det(Q_t) = e^{-u} q(x2, x3), two collapsing
degenerations of it obtained by normalizing integral constraints
numerically, and the cone-asymptotic cylinder family built from a curve
(x1 + i t)^(1/3).  Entries are DSL expressions (jet-expandable), except in
the collapsing pair, whose numeric normalizers make them grid evaluators.
Only the functions that sample import numpy and gridops; jet expansion loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from . import dsl
from .dsl import EvalDomainError, Expr, eval_jet, free_variables, parse
from .jets import FLOAT, X1, X2, X3, Y1, Jet, JetError, det, leading_minors, within, worst

# the guard tolerance of the admissibility checks (the block law, family_to_policy,
# the Phi loop, check_slag_family's default) and of hodge's 3D basis certification
CHECK_TOL = 1e-10


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

    def sample(self, t: float, axes: dict):
        import numpy as np
        from .gridops import eval_grid
        return np.asarray(eval_grid(self.expr, {**axes, "t": t}), dtype=np.float64)


@dataclass(frozen=True)
class GridEntry:
    """Metric entry given by a plain evaluator (t, axes) -> samples.

    Used when the entry involves a numerically computed normalization and is
    therefore not expressible in the DSL; such entries sample onto grids but
    cannot be jet-expanded.
    """

    fn: Callable

    def sample(self, t, axes: dict):
        import numpy as np
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

    def sample_matrix(self, t, axes: dict) -> list:
        """Sample each entry on or above the diagonal once; mirror the rest."""
        upper = {(i, j): self.entries[i][j].sample(t, axes)
                 for i in range(self.dim) for j in range(i, self.dim)}
        return [[upper[min(i, j), max(i, j)] for j in range(self.dim)] for i in range(self.dim)]

    @cached_property
    def varying_axes(self) -> int:
        """How many x-axes the samples vary along: one sampling on a 2-point grid at t_min."""
        import numpy as np
        try:
            m = self.sample_matrix(float(self.t_range[0]), family_axes(self, 2))
        except (FamilyError, EvalDomainError):  # a point the run's grid may lack: count all
            return self.dim
        return sum(size > 1 for size in np.broadcast(*(g for row in m for g in row)).shape)


def family_from_entries(entries, *, dim: int = 3, t_range=(0.0, 1.0),
                        periodic=None, name: str = "") -> MetricFamily:
    """Build a symmetric family from an upper-triangular dict like
    {"g11": "...", "g12": "...", ...}; missing off-diagonals are zero."""
    if dim not in (2, 3):  # before dim sizes anything
        raise FamilyError(f"dim must be 2 or 3, got {dim}")
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
    from .gridops import periodic_axis
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
        """The largest of the three residuals, nan if one is nan."""
        return worst((self.det_t_independence, self.det_x1_independence,
                      self.closure_residual))

    def passed(self) -> bool:
        return within(self.worst, self.tolerance)

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


def t_batches(fam: MetricFamily, ts, n: int, run):
    """Yield (k, run(t)) for chunks k of ts in order, a batch axis t of shape (T,) + (1,) * dim
    within max(n^2, n^a) points per sample, a = fam.varying_axes; a chunk of one t goes as a
    float, a failing batch re-runs t by t (the first t to fail raises its own error)."""
    step = n ** max(0, 2 - fam.varying_axes)
    for lo in range(0, len(ts), step):
        k = slice(lo, lo + step)
        try:
            out = run(ts[k].reshape((-1,) + (1,) * fam.dim) if len(ts[k]) > 1 else float(ts[lo]))
        except (FamilyError, EvalDomainError):
            for one in ts[k] if len(ts[k]) > 1 else ():
                run(float(one))
            raise
        yield k, out


def _positive_samples(fam: MetricFamily, t, axes: dict) -> tuple:
    """(m, leading minors of m) for the samples m of ``fam`` at ``t``, all positive."""
    m = fam.sample_matrix(t, axes)
    minors = leading_minors(m)  # positive definiteness, and det(m) last; numpy values
    for k, minor in enumerate(minors, start=1):
        if not (minor > 0).all():
            raise FamilyError(f"non-positive-definite sample at t={t}: leading minor {k} "
                              f"reaches {float(minor.min())}")
    return m, minors


def check_slag_family(fam: MetricFamily, n: int = 64, nt: int = 9,
                      tol: float = CHECK_TOL) -> FamilyCheckReport:
    """Evaluate the three slice conditions at nt values of t, in the chunks of
    :func:`t_batches`, on n points per axis.  Each entry is sampled and differentiated
    at its own broadcast shape, so an x1-only family costs O(n) per t, not O(n^dim).

    A passing family feeds :func:`family_to_policy` with every horizontal
    slice special Lagrangian.
    """
    import numpy as np
    from .gridops import curl_residual, grid_diff
    if nt < 2:
        raise FamilyError("need at least 2 t-samples for the t-derivative")
    lo, hi = fam.t_range
    if lo == hi:
        raise FamilyError(f"t_range {fam.t_range} is one point; the t-derivative "
                          "needs t_min < t_max")
    axes = family_axes(fam, n)
    ts = np.linspace(lo, hi, nt)

    dets, sqrt_det_x1, closure = [], [], []  # one det(m) per t, a t-free one repeated
    for k, (m, minors) in t_batches(fam, ts, n, lambda t: _positive_samples(fam, t, axes)):
        dets.extend(minors[-1] if np.ndim(minors[-1]) > fam.dim else [minors[-1]] * len(ts[k]))
        d_sqrt = grid_diff(np.sqrt(minors[-1]), -fam.dim, fam.periodic[0])
        sqrt_det_x1.append(float(np.max(np.abs(d_sqrt))))
        closure.append(curl_residual(m[0], fam.periodic))
    det_t = np.gradient(np.stack(np.broadcast_arrays(*dets)), ts, axis=0)
    return FamilyCheckReport(det_t_independence=float(np.max(np.abs(det_t))),
                             det_x1_independence=worst(sqrt_det_x1),
                             closure_residual=worst(closure), tolerance=tol, n=n, nt=nt)


# -- constructors ------------------------------------------------------------------


# grid points per axis and t-samples of the checks the block constructor and
# family_to_policy run
_CHECK_N, _BLOCK_CHECK_NT, _POLICY_CHECK_NT = 64, 5, 9


def make_block_family(u, Q, q, *, t_range=(0.0, 1.0), name: str = "block") -> MetricFamily:
    """diag(e^u, Q_t) with the block-determinant law det(Q_t) = e^{-u} q.

    ``u`` depends on (t, x1), ``q`` on (x2, x3); the law is validated on a
    sample grid and violations are rejected.
    """
    import numpy as np
    from .gridops import eval_grid
    u = _as_expr(u)
    q = _as_expr(q)
    qm = [[_as_expr(Q[i][j]) for j in range(2)] for i in range(2)]
    if qm[1][0] != qm[0][1]:
        raise FamilyError("Q must be symmetric: Q[1][0] differs from Q[0][1]")
    if free_variables(u) - {"t", "x1"}:
        raise FamilyError("u may depend on t and x1 only")
    if free_variables(q) - {"x2", "x3"}:
        raise FamilyError("q may depend on x2 and x3 only")
    fam = family_from_entries({"g11": dsl.Call("exp", u), "g22": qm[0][0], "g23": qm[0][1],
                               "g33": qm[1][1]}, t_range=t_range, name=name)
    axes = family_axes(fam, _CHECK_N)
    q_samples = eval_grid(q, axes)
    ts = np.linspace(t_range[0], t_range[1], _BLOCK_CHECK_NT)
    law = worst(float(np.max(np.abs(det([row[1:] for row in m[1:]]) - q_samples / m[0][0])))
                for _, m in t_batches(fam, ts, _CHECK_N, lambda t: fam.sample_matrix(t, axes)))
    if not within(law, CHECK_TOL):
        raise FamilyError(
            f"block-determinant law violated: max |det(Q) - e^(-u) q| = {law:.3e}")
    return fam


_NORM_GRID = 256


def _normalizer(f: Expr, t, env: dict, over: str):
    """int_0^1 e^{f/2} d(over) on a _NORM_GRID-point periodic axis, shaped like
    the broadcast of f's other variables as ``env`` and ``t`` bind them."""
    import numpy as np
    from .gridops import eval_grid, periodic_axis, periodic_quad
    env = {name: np.asarray(x)[..., None] for name, x in {**env, "t": t}.items()}
    env[over] = periodic_axis(_NORM_GRID)
    return periodic_quad(np.exp(0.5 * eval_grid(f, env)), axis=-1)


def _last_call(norm):
    """``norm(t, axes)`` kept for its last t values and axes object (the memo holds both)."""
    import numpy as np
    last = [None, None, None]

    def memo(t, axes):
        if last[1] is not axes or not np.array_equal(last[0], t):
            last[:] = t, axes, norm(t, axes)
        return last[2]
    return memo


def make_collapsing_22(w_raw, t1: float, *, t_range=None,
                       name: str = "collapse22") -> MetricFamily:
    """Family whose 2-cycle {x1 = 1/2} collapses to a circle as t -> t1.

    The raw profile is renormalized to u_t = w_raw - 2 log int_0^1 e^{w_raw/2},
    which pins int_0^1 e^{u_t/2} = 1 for every t; the metric is
    diag(e^u, 1, e^{-u}), the x2-profile-free case of make_collapsing_21.
    """
    return make_collapsing_21(w_raw, 0, t1, t_range=t_range, name=name)


def make_collapsing_21(w_raw, v_raw, t1: float, *, t_range=None,
                       name: str = "collapse21") -> MetricFamily:
    """Family also collapsing the 2-cycle {x2 = 1/2}: diag(e^u, e^v, e^{-(u+v)})
    with int_0^1 e^{v_t(x1,s)/2} ds = 1 enforced by a per-x1 shift of v."""
    import numpy as np
    from .gridops import eval_grid
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
    w_norm = _last_call(lambda t, axes: _normalizer(w, t, {}, "x1"))
    v_norm = _last_call(partial(_normalizer, v, over="x2"))

    def at(e, t, axes):
        return eval_grid(e, {**axes, "t": t})

    def a11(t, axes):
        return np.exp(at(w, t, axes)) / w_norm(t, axes) ** 2

    def a22(t, axes):
        return np.exp(at(v, t, axes)) / v_norm(t, axes) ** 2

    def a33(t, axes):
        return (np.exp(-(at(w, t, axes) + at(v, t, axes))) * w_norm(t, axes) ** 2
                * v_norm(t, axes) ** 2)

    return family_from_entries({"g11": GridEntry(a11), "g22": GridEntry(a22),
                                "g33": GridEntry(a33)}, t_range=t_range, name=name)


def make_cone_family(f, *, t_range=(0.1, 1.0), name: str = "cone") -> MetricFamily:
    """Cylinder family asymptotic to a cone: diag(|c'|^2, |c|^2 f, |c|^2 f)
    for the curve c(x1) = (x1 + i t)^(1/3).

    ``f`` is the conformal factor of the cross-section metric, a function of
    (x2, x3) that check_slag_family needs positive.  The modulus
    |c|^6 = x1^2 + t^2 is the same on every branch, so the entries are DSL
    expressions; their one singular point is x1 = t = 0.  Not periodic in x1.
    """
    f = _as_expr(f)
    if free_variables(f) - {"x2", "x3"}:
        raise FamilyError("the conformal factor may depend on x2 and x3 only")
    across = dsl.BinOp("*", parse("(x1^2 + t^2)^(1/3)"), f)
    return family_from_entries({"g11": "(x1^2 + t^2)^(-2/3) / 9", "g22": across, "g33": across},
                               t_range=t_range, periodic=(False, True, True), name=name)


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
        check_slag_family(fam, n=_CHECK_N, nt=_POLICY_CHECK_NT, tol=CHECK_TOL).raise_if_failed()
    return (metric_jets(fam, base_t, order, mode),
            metric_jets(fam, Jet.variable(Y1, order, mode) + base_t, order, mode))
