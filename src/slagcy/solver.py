"""Order-by-order construction of a Calabi-Yau structure around a metric germ.

Given a real-analytic metric g on a neighborhood of the origin of R^3, a
Calabi-Yau structure (Omega, omega) on a complexified neighborhood restricting
to (Vol_g, 0) on y = 0 is built as truncated power series.  The holomorphic
volume coefficient is forced: gamma = holomorphic extension of sqrt(det g).
The hermitian metric h = A + iB is found from the determinant constraint

    (D)   det(h) = |gamma|^2

together with the closedness of the associated Kaehler 2-form

    omega = -sum_{i<j} B_ij (dx_i^dx_j + dy_i^dy_j) + sum_{i,j} A_ij dx_j^dy_i,

whose twenty components split into first-order evolution systems in y1, y2
and y3.  Sweep p = 1, 2, 3 extends the data known on {y_p = ... = y3 = 0}
into y_p, one power at a time, by integrating the system of two index rules

    d b_ij/d y_p = d a_pj/d x_i - d a_pi/d x_j      (i < j),
    d a_rk/d y_p = d a_pk/d y_r + d b_rp/d x_k      (r < p, k = 1, 2, 3),

where a_kr for r < p <= k is held as the same entry as a_rk, so the two must
agree on entry to the sweep.  The diagonal entry a_pp is solved algebraically
from (D) -- the determinant is linear in it with an invertible leading
coefficient -- and the entries left free are supplied by an extension policy.
A sweep holds each entry once, as its slices in the evolution variable, reads
B_ji = -B_ij by sign, and extends the row-0 cofactors of h incrementally, so
each new slice of det(h) is a Cauchy sum of slice products; each cofactor slice
is formed only to the degree that sum reads, which changes no coefficient (see
``_extend_cofactors``).  A full residual verifier reports how well every
constraint holds; nothing is assumed that is not re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product, zip_longest

from .jets import (
    EXACT,
    FLOAT,
    MAX_ORDER,
    NVARS,
    X1,
    X2,
    X3,
    Y1,
    Y2,
    Y3,
    Y_VARS,
    ComplexJet,
    Jet,
    JetError,
    det,
    from_pairs,
    from_slices,
    holomorphic_extend,
    jet_pow,
    leading_minors,
    mul_sum,
    parse_scalar,
    partial_sum,
    within,
    worst,
)


class SolverError(Exception):
    """Base class for construction failures."""


class DegenerateMetricError(SolverError):
    """The leading coefficient multiplying the determinant-solved entry vanishes."""


class PolicyError(SolverError):
    """An extension policy is malformed or inconsistent with its initial data."""


ENTRY_KEYS = ("a11", "a12", "a13", "a21", "a22", "a23", "a31", "a32", "a33",
              "b12", "b13", "b23")

# x_k and y_k by their index k, and the index pairs i < j of B
_X = (None, X1, X2, X3)
_Y = (None, Y1, Y2, Y3)
_PAIRS = ((1, 2), (1, 3), (2, 3))

# The entries a step-1 policy assigns: the ones sweep 1 leaves free
_STEP1_POLICY_KEYS = ("a22", "a33", "a12", "a13", "a23")

_POLICY_TOL = 1e-9

# A policy chooses the entries the construction leaves free.  A step-1 policy
# is the 3x3 matrix of metric jets, in x and y1, that the slices {y1 = t,
# y2 = y3 = 0} must carry (a family's A at base_t + y1); sweep 1 takes the
# entries named in _STEP1_POLICY_KEYS from it, which must restrict to the data
# they extend, and ignores the rest.  None, and every later sweep, use the
# constant rule: the entry keeps its previous values, with no dependence on
# the new evolution variable.
CONSTANT_POLICY = None


@dataclass(frozen=True)
class HermitianJet:
    """The matrices A (real part) and B (imaginary part) of h = A + iB.

    ``entries`` holds nine a_ij jets and the three independent b_ij (i < j);
    B is antisymmetric by construction.  A is symmetric for solved structures
    (an emergent property that check_structure verifies, not an input
    assumption).
    """

    entries: dict

    def __post_init__(self):
        missing = [k for k in ENTRY_KEYS if k not in self.entries]
        if missing:
            raise SolverError(f"missing entries: {missing}")
        ref = self.entries["a11"]
        for k in ENTRY_KEYS:
            ref.check_compatible(self.entries[k])

    @property
    def order(self) -> int:
        return self.entries["a11"].order

    @property
    def mode(self) -> str:
        return self.entries["a11"].mode

    def A(self, i: int, j: int) -> Jet:
        return self.entries[f"a{i}{j}"]

    def B(self, i: int, j: int) -> Jet:
        if i == j:
            return self.entries["a11"].zero_like()
        key = f"b{min(i, j)}{max(i, j)}"
        b = self.entries[key]
        return b if i < j else -b


@dataclass(frozen=True)
class CYStructureJet:
    """A solved structure: h = A + iB, the volume coefficient gamma, and the
    inputs that produced it."""

    h: HermitianJet
    gamma: ComplexJet
    g: tuple  # 3x3 input metric jets
    policy: list | None  # step-1 policy matrix, None for the constant policy
    order: int

    @property
    def mode(self) -> str:
        return self.h.mode


@dataclass(frozen=True)
class ResidualReport:
    """Maximum absolute residual coefficient per constraint.

    Exact mode reports exact rationals (zero means identically zero);
    derivative-consuming constraints are evaluated at order - 1.
    """

    res_D: object
    res_domega: object
    res_C41: object
    res_C42: object
    res_initial_A: object
    res_initial_B: object
    res_symmetry: object
    res_slice_im_omega: object
    res_slice_omega: object
    details: dict = field(default_factory=dict)
    effective_orders: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The ``res_*`` fields by name, in their order of declaration."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.startswith("res_")}

    def max_residual(self):
        return worst(self.as_dict().values())


# -- hermitian matrix helpers ----------------------------------------------------


def _hmatrix(h: HermitianJet):
    """h = A + iB as a 3x3 array of complex jets."""
    return [[ComplexJet(h.A(i, j), h.B(i, j)) for j in (1, 2, 3)] for i in (1, 2, 3)]


def _product_terms(x, y, m: int, sign: int = 1):
    """Signed slice products summing to the real and the imaginary part of
    slice m of sign * x * y, for series given as (unit, slices) parts, each unit
    1, 1j or -1j: the units of a product give its part and its sign."""
    re, im = [], []
    for u, xs in x:
        for v, ys in y:
            w = sign * u * v  # 1, -1, 1j or -1j
            part, s = (re, w.real) if w.imag == 0 else (im, w.imag)
            part += [(int(s), xs[k], ys[m - k]) for k in range(m + 1)]
    return re, im


def _extend_cofactors(h, cof, m: int, order: int) -> None:
    """Append slice m, of order ``max(order - m - cut, 0)``, to each (unit w,
    slices) part of ``cof[c]``, the cofactor of h[0][c]; reads only rows 1 and 2
    of h.  The constraint at slice m' reads it with slice m' - m of h[0][c] to
    degree order - m', so cut = 1 when m = 0 or when each part of h[0][c] whose
    unit times w is real has slice 0 without constant term (as B always does).
    ``mul_sum`` forms each kept degree by the same sum, so outputs are unchanged,
    and it refuses a product that a cut leaves unknown to the degree read."""
    for c, parts in enumerate(cof):
        c1, c2 = (col for col in range(3) if col != c)
        sign = -1 if c == 1 else 1
        re1, im1 = _product_terms(h[1][c1], h[2][c2], m, sign)
        re2, im2 = _product_terms(h[1][c2], h[2][c1], m, -sign)
        for (w, slices), terms in zip(parts, (re1 + re2, im1 + im2)):
            cut = m == 0 or all(xs[0].constant_term == 0 for u, xs in h[0][c]
                                if (u * w).imag == 0)
            slices.append(mul_sum(terms, max(order - m - cut, 0)))


# -- gamma ------------------------------------------------------------------------


def _validate_metric(g, order: int | None = None):
    if len(g) != 3 or any(len(row) != 3 for row in g):
        raise SolverError("metric must be a 3x3 array of jets")
    ref = g[0][0]
    for row in g:
        for entry in row:
            ref.check_compatible(entry)
            if any(map(entry.depends_on, Y_VARS)):
                raise SolverError("metric jets must not depend on the y-variables")
    for i in range(3):
        for j in range(i + 1, 3):
            if g[i][j] != g[j][i]:
                raise SolverError(f"metric is not symmetric at entry ({i + 1},{j + 1})")
    if order is not None and ref.order != order:
        raise SolverError(f"metric jets have order {ref.order}, expected {order}")
    # positive definiteness of the constant-term matrix (Sylvester)
    c = [[float(g[i][j].constant_term) for j in range(3)] for i in range(3)]
    m1, m2, m3 = leading_minors(c)
    if not (m1 > 0 and m2 > 0 and m3 > 0):
        raise DegenerateMetricError(
            f"metric constant term is not positive-definite (leading minors {m1}, {m2}, {m3})")


def build_gamma(g) -> ComplexJet:
    """Holomorphic extension of sqrt(det g): the unique coefficient of the
    holomorphic volume form restricting to the volume density on y = 0."""
    _validate_metric(g)
    return _gamma(g)


def _gamma(g) -> ComplexJet:
    """build_gamma of a metric _validate_metric has passed."""
    d = det(g)
    if not float(d.constant_term) > 0:
        raise DegenerateMetricError(
            f"det(g) has non-positive constant term {d.constant_term}")
    return holomorphic_extend(jet_pow(d, Fraction(1, 2)))


# -- the three evolution sweeps ----------------------------------------------------


def _apply_policy(step: int, entries: dict, policy) -> None:
    if step != 1 or policy is None:
        return
    for key in _STEP1_POLICY_KEYS:
        jet = policy[int(key[1]) - 1][int(key[2]) - 1]
        entries["a11"].check_compatible(jet)
        if jet.depends_on(Y2) or jet.depends_on(Y3):
            raise PolicyError(f"step 1 policy entry {key} may not depend on y2, y3")
        residual = (jet.restrict_zero((Y1,)) - entries[key]).max_abs_coeff()
        if not within(residual, 0 if jet.mode == EXACT else _POLICY_TOL):
            raise PolicyError(
                f"step 1 policy entry {key} does not restrict to the data it extends")
        entries[key] = jet
        if key[1] != key[2]:
            entries[f"a{key[2]}{key[1]}"] = jet


def _evolution(p: int) -> dict:
    """Sweep p's system from the two index rules: target -> ((sign, source,
    variable), ...) for d(target)/dy_p = sum sign * d(source)/d(variable)."""
    system = {f"b{i}{j}": ((1, f"a{p}{j}", _X[i]), (-1, f"a{p}{i}", _X[j])) for i, j in _PAIRS}
    system.update({f"a{r}{k}": ((1, f"a{p}{k}", _Y[r]), (1, f"b{r}{p}", _X[k]))
                   for r in range(1, p) for k in (1, 2, 3)})
    return system


def ck_step(step: int, state: HermitianJet, gamma: ComplexJet,
            policy=CONSTANT_POLICY) -> HermitianJet:
    """One evolution sweep: extend the partial solution into y1, y2 or y3.

    The state must already solve the previous sweeps (for step 1: carry the
    initial data A(x,0) = g, B(x,0) = 0).  Evolved unknowns gain one power of
    the evolution variable per round from their first-order equations; the
    sweep's diagonal entry comes from the determinant constraint, which is
    linear in it.  Every entry is held once, as its list of slices in the
    evolution variable (slice k a jet of order ``order - k``), and reassembled at
    the end.  A mirror a_kr (r < step <= k) shares a_rk's list, so the two must
    be equal on entry; h = A + iB reads A with unit 1 and B with unit +-1j.
    """
    if step not in (1, 2, 3):
        raise SolverError(f"step must be 1, 2 or 3, got {step}")
    cur = dict(state.entries)
    _apply_policy(step, cur, policy)
    order = state.order
    ev = _Y[step]
    perm = (step,) + tuple(i for i in (1, 2, 3) if i != step)
    d_key = f"a{step}{step}"
    gamma_sq = gamma.abs2().restrict_zero(Y_VARS[step:])
    system = _evolution(step)

    sl = {key: [cur[key].slice_coeff(ev, k) for k in range(order + 1)] for key in ENTRY_KEYS}
    for r, k in product(range(1, step), range(step, 4)):
        if cur[f"a{k}{r}"] != cur[f"a{r}{k}"]:
            raise SolverError(f"a{k}{r} and a{r}{k} differ on entry to sweep {step}")
        sl[f"a{k}{r}"] = sl[f"a{r}{k}"]
    # h = A + iB conjugated by the permutation; the slice lists are updated in place
    h = [[[(1, sl[f"a{i}{j}"])] + ([(1j if i < j else -1j, sl[f"b{min(i, j)}{max(i, j)}"])]
                                    if i != j else []) for j in perm] for i in perm]
    cof = [[(1, [])] + ([(1j, [])] if c else []) for c in range(3)]  # h[0][0]'s is real
    _extend_cofactors(h, cof, 0, order)
    cof0 = cof[0][0][1][0]
    if cof0.constant_term == 0:
        i, j = perm[1:]
        raise DegenerateMetricError(
            f"the ({i},{j})x({i},{j}) minor multiplying {d_key} vanishes at the base point")
    cof0_inv = cof0.reciprocal()

    for m in range(1, order + 1):
        for key, terms in system.items():  # slice m reads only slices m - 1
            sl[key][m] = sl[key][m] + partial_sum([(sign, sl[src][m - 1], var)
                                                   for sign, src, var in terms]) / m
        _extend_cofactors(h, cof, m, order)
        # determinant constraint at this order, linear in the diagonal entry
        det_terms = [t for c in range(3) for t in _product_terms(h[0][c], cof[c], m)[0]]
        numer = gamma_sq.slice_coeff(ev, m) - mul_sum(det_terms, order - m)
        sl[d_key][m] = sl[d_key][m] + mul_sum(((1, numer, cof0_inv),), order - m)

    del h, cof  # so that each entry's slices are released once it is reassembled
    return HermitianJet({key: from_slices(ev, sl.pop(key)) for key in ENTRY_KEYS})


def solve_calabi_yau(g, order: int, policy=CONSTANT_POLICY) -> CYStructureJet:
    """Run the full construction: gamma, then the three sweeps.

    ``g`` is a 3x3 array of symmetric, y-free jets of the requested order with
    positive-definite constant term.  Deterministic for fixed inputs.
    """
    if order < 2:
        raise SolverError(f"order must be >= 2, got {order}")
    _validate_metric(g, order)
    gamma = _gamma(g)
    zero = g[0][0].zero_like()
    entries = {f"a{i}{j}": g[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
    entries.update({"b12": zero, "b13": zero, "b23": zero})
    state = HermitianJet(entries)
    for step in (1, 2, 3):
        state = ck_step(step, state, gamma, policy)
    return CYStructureJet(h=state, gamma=gamma, g=tuple(tuple(row) for row in g),
                          policy=policy, order=order)


# -- residual verification -----------------------------------------------------------


def check_structure(s: CYStructureJet) -> ResidualReport:
    """Evaluate every constraint on the stored structure and report the
    maximum absolute coefficient of each residual jet."""
    e = s.h.entries
    gamma = s.gamma
    det_h = det(_hmatrix(s.h))
    gsq = gamma.abs2()
    details: dict = {}
    details["D"] = (det_h.re - gsq).max_abs_coeff()
    details["D_imag"] = det_h.im.max_abs_coeff()

    a = {(i, j): e[f"a{i}{j}"] for i in (1, 2, 3) for j in (1, 2, 3)}
    b = {(i, j): e[f"b{i}{j}"] for i, j in _PAIRS}

    closure = {}
    for p, label in ((1, "C1"), (2, "C2.1"), (3, "C3.1")):
        closure[label] = worst(
            partial_sum(((1, b[i, j], _Y[p]), (-1, a[p, j], _X[i]), (1, a[p, i], _X[j])))
            .max_abs_coeff() for i, j in _PAIRS)
    for r, p in _PAIRS:
        closure[f"C{p}.{r + 1}"] = worst(
            partial_sum(((1, a[r, k], _Y[p]), (-1, a[p, k], _Y[r]), (-1, b[r, p], _X[k])))
            .max_abs_coeff() for k in (1, 2, 3))
    for label, v1, v2, v3 in (("C4.1", X1, X2, X3), ("C4.2", Y1, Y2, Y3)):
        closure[label] = partial_sum(
            ((1, b[2, 3], v1), (-1, b[1, 3], v2), (1, b[1, 2], v3))).max_abs_coeff()
    details.update(closure)

    res_initial_A = worst((a[i, j].restrict_zero(Y_VARS) - s.g[i - 1][j - 1]).max_abs_coeff()
                       for i in (1, 2, 3) for j in (1, 2, 3))
    res_initial_B = worst(bij.restrict_zero(Y_VARS).max_abs_coeff() for bij in b.values())
    res_symmetry = worst((a[i, j] - a[j, i]).max_abs_coeff() for i, j in _PAIRS)
    res_slice_im = gamma.im.restrict_zero(Y_VARS).max_abs_coeff()

    report = ResidualReport(
        res_D=worst((details["D"], details["D_imag"])),
        res_domega=worst(closure.values()),
        res_C41=closure["C4.1"],
        res_C42=closure["C4.2"],
        res_initial_A=res_initial_A,
        res_initial_B=res_initial_B,
        res_symmetry=res_symmetry,
        res_slice_im_omega=res_slice_im,
        res_slice_omega=res_initial_B,
        details=details,
        effective_orders={"D": s.order, "closure": s.order - 1, "initial": s.order,
                          "symmetry": s.order, "slices": s.order},
    )
    return report


def horizontal_slice_residuals(s: CYStructureJet) -> dict:
    """Residuals of the conditions making every slice {y1 = t, y2 = y3 = 0}
    special Lagrangian: B and Im(gamma) restricted to that slice family."""
    e = s.h.entries
    b_max = worst(e[k].restrict_zero((Y2, Y3)).max_abs_coeff() for k in ("b12", "b13", "b23"))
    im_max = s.gamma.im.restrict_zero((Y2, Y3)).max_abs_coeff()
    return {"B_slice": b_max, "im_gamma_slice": im_max}


# -- structure dump / load -------------------------------------------------------------

_DUMP_HEADER = "slagcy-structure v1"
_G_UPPER = tuple((i, j) for i in (1, 2, 3) for j in range(i, 4))
# The dump format, which dump_structure writes and load_structure reads: the
# three header keys, then the twenty sections, in writer order, each with the
# reader of its value off a structure.  The header's base_point is the origin.
_DUMP_TABLE = (
    ("mode", lambda s: s.mode),
    ("order", lambda s: s.order),
    ("base_point", lambda s: " ".join([str(s.gamma.re.zero_like().constant_term)] * NVARS)),
    *((f"{k[0].upper()} {k[1]} {k[2]}", lambda s, k=k: s.h.entries[k]) for k in ENTRY_KEYS),
    *((f"g {i} {j}", lambda s, i=i, j=j: s.g[i - 1][j - 1]) for i, j in _G_UPPER),
    *((f"gamma {part}", lambda s, part=part: getattr(s.gamma, part)) for part in ("re", "im")),
)
_DUMP_KEYS, _DUMP_SECTIONS = _DUMP_TABLE[:3], _DUMP_TABLE[3:]


def dump_structure(s: CYStructureJet) -> str:
    """Stable text dump in the layout of ``_DUMP_TABLE``: the header lines,
    then per section its "multi-index : coefficient" lines in graded-lex order."""
    lines = [_DUMP_HEADER] + [f"{key} = {value(s)}" for key, value in _DUMP_KEYS]
    heads: dict = {}  # the sections share their keys' line heads
    for tag, jet in _DUMP_SECTIONS:
        lines.append(f"[{tag}]")
        dump = jet(s).dumps(heads)
        if dump:
            lines.append(dump)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def load_structure(text: str) -> CYStructureJet:
    """Parse a dump back into a structure (policy is not recorded).  The dump
    must hold exactly the header lines and sections of ``_DUMP_TABLE``, in its
    order for the header and each once, and each multi-index at most once per
    section.  This reader owns the layout and every diagnostic; ``parse_scalar``
    reads each coefficient, ``from_pairs`` builds each section from them, and
    each distinct multi-index or coefficient text is parsed once per dump."""
    lines = text.splitlines()
    if not lines or lines[0] != _DUMP_HEADER:
        raise SolverError("not a structure dump (bad header)")
    pos = next((n for n, ln in enumerate(lines) if ln.startswith("[")), len(lines))
    meta = {}
    for entry, ln in zip_longest(_DUMP_KEYS, lines[1:pos]):
        key = entry and entry[0]
        if ln is None:
            raise SolverError(f"structure dump missing {key!r}")
        name, eq, value = ln.partition("=")
        if not eq or name.strip() != key:
            raise SolverError(f"bad structure dump header line {ln!r}: expected "
                              + (f"{key} = ..." if key else "a section"))
        meta[key] = value.strip()
    try:
        mode = meta["mode"]
        order = int(meta["order"])
        base_point = tuple(parse_scalar(v, mode) for v in meta["base_point"].split())
    except (ValueError, ZeroDivisionError) as exc:
        raise SolverError(f"bad structure dump header: {exc}") from exc
    if mode not in (EXACT, FLOAT):
        raise SolverError(f"unknown mode {mode!r}")
    if not 2 <= order <= MAX_ORDER:
        bound = ">= 2" if order < 2 else f"<= {MAX_ORDER}"
        raise SolverError(f"bad structure dump header: order must be {bound}, got {order}")
    if len(base_point) != NVARS or any(p for p, _ in base_point):
        raise SolverError("bad structure dump header: base_point must be the origin")

    tags = [tag for tag, _ in _DUMP_SECTIONS]
    sections: dict = {}
    # multi-index text -> exponent tuple -> key, and coefficient text -> (p, q), each formed once
    keys, packed, values = {}, {}, {}
    for ln in lines[pos:]:
        if ln.startswith("["):
            tag = ln.strip("[]")
            if tag not in tags:
                raise SolverError(f"unknown structure dump section [{tag}]")
            if tag in sections:
                raise SolverError(f"structure dump section [{tag}] appears twice")
            terms = sections[tag] = {}
        elif ln.strip():
            idx_text, _, val_text = ln.partition(":")
            try:
                idx = keys.get(idx_text) or keys.setdefault(
                    idx_text, tuple(map(int, idx_text.split())))
                value = values.get(val_text) or values.setdefault(
                    val_text, parse_scalar(val_text.strip(), mode))
            except (ValueError, ZeroDivisionError) as exc:
                raise SolverError(f"bad coefficient line {ln!r}: {exc}") from exc
            if len(idx) != NVARS:
                raise SolverError(f"bad multi-index line {ln!r}")
            if idx in terms:
                raise SolverError(f"multi-index {idx} appears twice in section [{tag}]")
            terms[idx] = value
    missing = [f"[{t}]" for t in tags if t not in sections]
    if missing:
        raise SolverError(f"structure dump lacks {', '.join(missing)}")

    jets = []
    for tag in tags:  # each index new to the dump packs in file order: the first bad one raises
        try:
            jets.append(from_pairs(order, mode, sections[tag].items(), packed))
        except JetError as exc:
            raise SolverError(f"bad structure dump section [{tag}]: {exc}") from exc
    upper = dict(zip(_G_UPPER, jets[len(ENTRY_KEYS):]))
    g = tuple(tuple(upper[min(i, j), max(i, j)] for j in (1, 2, 3)) for i in (1, 2, 3))
    return CYStructureJet(h=HermitianJet(dict(zip(ENTRY_KEYS, jets))),
                          gamma=ComplexJet(*jets[-2:]), g=g, policy=None, order=order)
