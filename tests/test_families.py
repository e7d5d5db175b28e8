import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from slagcy import families
from slagcy.dsl import eval_grid, parse
from slagcy.families import (
    ExprEntry,
    FamilyCheckReport,
    FamilyError,
    GridEntry,
    InadmissibleFamilyError,
    MetricFamily,
    check_slag_family,
    family_axes,
    family_from_entries,
    family_to_policy,
    make_block_family,
    make_collapsing_21,
    make_collapsing_22,
    make_cone_family,
)
from slagcy.gridops import grid_diff, periodic_axis, periodic_quad
from slagcy.jets import EXACT, X1, Y1, Y2, Y3, Jet, det
from slagcy.solver import (
    PolicyError,
    check_structure,
    dump_structure,
    horizontal_slice_residuals,
    solve_calabi_yau,
)

RATIONAL = {"g11": "(1 + t*x1^2)^2", "g22": "1/(1 + t*x1^2)", "g33": "1/(1 + t*x1^2)"}
BESSEL = {"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
          "g33": "exp(t*sin(2*pi*x1))"}


def bessel_family():
    return family_from_entries(BESSEL, name="bessel")


class TestCheckFamily:
    def test_identity_family_passes(self):
        fam = family_from_entries({"g11": "1", "g22": "1", "g33": "1"})
        report = check_slag_family(fam, n=16, nt=3, tol=1e-12)
        assert report.passed()
        assert report.det_t_independence == 0
        assert report.closure_residual == 0

    def test_bessel_family_passes(self):
        report = check_slag_family(bessel_family(), n=64, nt=5, tol=1e-12)
        assert report.passed(), report.as_dict()

    def test_det_drift_fails(self):
        fam = family_from_entries({"g11": "exp(t)", "g22": "1", "g33": "1"})
        report = check_slag_family(fam, n=16, nt=5, tol=1e-10)
        assert not report.passed()
        assert report.det_t_independence > 0.5
        assert report.verdict == "fail"

    def test_x1_dependent_det_fails(self):
        fam = family_from_entries({"g11": "1 + sin(2*pi*x1)/2", "g22": "1", "g33": "1"})
        report = check_slag_family(fam, n=32, nt=3, tol=1e-10)
        assert not report.passed()
        assert report.det_x1_independence > 0.1

    def test_closure_violation_fails(self):
        fam = family_from_entries({"g11": "1 + sin(2*pi*x2)/2", "g22": "1", "g33": "1"})
        report = check_slag_family(fam, n=32, nt=3, tol=1e-10)
        assert not report.passed()
        assert report.closure_residual > 0.1

    def test_non_positive_definite_raises(self):
        fam = family_from_entries({"g11": "-1", "g22": "1", "g33": "1"})
        with pytest.raises(FamilyError, match="positive-definite"):
            check_slag_family(fam, n=8, nt=2)

    def test_det_condition_symbolic_equivalence(self):
        # for diagonal (t, x1)-families the verdict matches the symbolic
        # statement "det depends on (x2, x3) alone"
        sympy = pytest.importorskip("sympy")
        cases = [
            ({"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
              "g33": "exp(t*sin(2*pi*x1))"}, True),
            ({"g11": "exp(t)", "g22": "1", "g33": "1"}, False),
        ]
        for entries, expected in cases:
            fam = family_from_entries(entries)
            verdict = check_slag_family(fam, n=32, nt=5, tol=1e-10).passed()
            assert verdict == expected
            det = sympy.sympify(f"({entries['g11']})*({entries['g22']})*({entries['g33']})")
            sym_ok = all(sympy.simplify(sympy.diff(det, v)) == 0 for v in ("t", "x1"))
            assert sym_ok == expected


def full_grid_check(fam, n, nt, tol):
    """Reference admissibility check: every entry is sampled, and every
    determinant broadcast to the full n^dim grid before it is differentiated."""
    axes = family_axes(fam, n)
    full = np.broadcast_shapes(*(a.shape for a in axes.values()))
    ts = np.linspace(fam.t_range[0], fam.t_range[1], nt)
    dets, closure, det_x1 = [], 0.0, 0.0
    for t in ts:
        m = [[e.sample(float(t), axes) for e in row] for row in fam.entries]
        dets.append(np.broadcast_to(det(m), full))
        det_x1 = max(det_x1, float(np.max(np.abs(
            grid_diff(np.sqrt(dets[-1]), 0, fam.periodic[0], n)))))
        for i in range(fam.dim):
            for j in range(i + 1, fam.dim):
                r = (grid_diff(m[0][j], i, fam.periodic[i], n)
                     - grid_diff(m[0][i], j, fam.periodic[j], n))
                closure = max(closure, float(np.max(np.abs(r))))
    det_t = float(np.max(np.abs(np.gradient(np.stack(dets), ts, axis=0))))
    return FamilyCheckReport(det_t, det_x1, closure, tol, n, nt)


ORACLE_FAMILIES = {
    "bessel": bessel_family,
    "drift": lambda: family_from_entries({"g11": "exp(t)", "g22": "1", "g33": "1"}),
    "g12_x3": lambda: family_from_entries(
        {"g11": "2 + sin(2*pi*x3)/2", "g12": "cos(2*pi*x3)/4 + t*sin(2*pi*x1)/8",
         "g22": "1 + t*cos(2*pi*x2)/4", "g23": "sin(2*pi*x3)/8", "g33": "1"}),
    "cone": lambda: make_cone_family("1"),
    "collapse22": lambda: make_collapsing_22("(t/(1-t))*cos(pi*x1)^2", t1=1.0,
                                             t_range=(0.0, 0.7)),
}


class TestNaturalShapeCheck:
    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_matches_full_grid_oracle(self, name):
        fam = ORACLE_FAMILIES[name]()
        got = check_slag_family(fam, n=24, nt=5, tol=1e-10)
        want = full_grid_check(fam, 24, 5, 1e-10)
        for key, value in want.as_dict().items():
            if isinstance(value, float):
                assert abs(got.as_dict()[key] - value) <= 1e-15, key
            else:
                assert got.as_dict()[key] == value, key

    def test_x1_only_check_memory_is_bounded_by_the_x1_grid(self):
        fam = bessel_family()
        tracemalloc.start()
        try:
            report = check_slag_family(fam, n=128, nt=9, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed(), report.as_dict()
        assert peak < 8 * 2 ** 20, peak


class TestSampling:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_symmetric_entry_sampled_once(self, dim, monkeypatch):
        calls = []
        sample = ExprEntry.sample

        def counted(self, t, axes):
            calls.append(self)
            return sample(self, t, axes)

        monkeypatch.setattr(ExprEntry, "sample", counted)
        entries = {"g11": "2", "g12": "x1/4", "g22": "2"}
        if dim == 3:
            entries.update({"g13": "x2/4", "g23": "x3/4", "g33": "2"})
        fam = family_from_entries(entries, dim=dim)
        m = fam.sample_matrix(0.5, family_axes(fam, 8))
        assert len(calls) == dim * (dim + 1) // 2
        for i in range(dim):
            for j in range(i):
                assert m[i][j] is m[j][i]

    def test_asymmetric_entries_rejected(self):
        one, zero, half = (ExprEntry(parse(text)) for text in ("1", "0", "1/2"))
        with pytest.raises(FamilyError, match="symmetric"):
            MetricFamily(2, ((one, half), (zero, one)), (0.0, 1.0), (True, True))

    def test_collapse_normalizer_once_per_t(self, monkeypatch):
        quads = []
        quad = families.periodic_quad

        def counted(*args, **kwargs):
            quads.append(args)
            return quad(*args, **kwargs)

        w = "(t/(1-t))*cos(pi*x1)^2"
        fam22 = make_collapsing_22(w, t1=1.0, t_range=(0.0, 0.7))
        fam21 = make_collapsing_21(w, "(t/(1-t))*cos(pi*x2)^2*(1+sin(2*pi*x1)/4)",
                                   t1=1.0, t_range=(0.0, 0.7))
        axes = family_axes(fam22, 16)
        monkeypatch.setattr(families, "periodic_quad", counted)
        m22 = fam22.sample_matrix(0.3, axes)
        assert len(quads) == 1
        fam21.sample_matrix(0.3, axes)
        assert len(quads) == 4  # one w-normalizer; the v-normalizer in a22 and a33
        fam21.sample_matrix(0.3, axes)
        assert len(quads) == 6
        monkeypatch.setattr(families, "periodic_quad", quad)
        assert fam21.entries[0][0].sample(0.3, {"x1": axes["x1"]}).shape == axes["x1"].shape
        wv = eval_grid(parse(w), {"t": 0.3, "x1": axes["x1"]})
        norm = families._collapse_norm(parse(w), 0.3)
        assert np.array_equal(m22[0][0], np.exp(wv) / norm ** 2)
        assert np.array_equal(m22[2][2], np.exp(-wv) * norm ** 2)


class TestBlockFamily:
    def test_flat_block(self):
        fam = make_block_family("0", [["1", "0"], ["0", "1"]], "1")
        assert check_slag_family(fam, n=16, nt=3, tol=1e-10).passed()

    def test_collapse_shaped_block(self):
        u = "t*sin(2*pi*x1)"
        fam = make_block_family(u, [["1", "0"], ["0", f"exp(-({u}))"]], "1")
        assert check_slag_family(fam, n=32, nt=5, tol=1e-10).passed()

    def test_determinant_law_violation_rejected(self):
        with pytest.raises(FamilyError, match="block-determinant"):
            make_block_family("0", [["2", "0"], ["0", "1"]], "1")

    def test_asymmetric_block_rejected(self):
        with pytest.raises(FamilyError, match="symmetric"):
            make_block_family("0", [["1", "1/2"], ["0", "1"]], "3/4")
        fam = make_block_family("0", [["1", "1/2"], ["1/2", "1"]], "3/4")
        assert fam.entries[1][2] == fam.entries[2][1]


class TestCollapse22:
    def test_zero_profile_is_flat(self):
        fam = make_collapsing_22("0", t1=1.0)
        axes = family_axes(fam, 16)
        m = fam.sample_matrix(0.5, axes)
        assert np.allclose(np.asarray(m[0][0]), 1.0)
        assert np.allclose(np.asarray(m[2][2]), 1.0)

    def test_normalization_integral_is_one(self):
        w = "(t/(1-t))*cos(pi*x1)^2"
        fam = make_collapsing_22(w, t1=1.0, t_range=(0.0, 0.8))
        x = periodic_axis(256)
        for t in np.linspace(0.0, 0.8, 5):
            a11 = fam.entries[0][0].sample(float(t), {"x1": x})
            assert abs(periodic_quad(np.sqrt(a11)) - 1.0) < 1e-12

    def test_normalization_idempotent(self):
        w = "(t/(1-t))*cos(pi*x1)^2"
        fam1 = make_collapsing_22(w, t1=1.0, t_range=(0.0, 0.8))
        x = periodic_axis(64)
        # feeding the normalized profile u = log a11 back in leaves it unchanged
        for t in (0.2, 0.6):
            a11 = fam1.entries[0][0].sample(t, {"x1": x})
            norm = periodic_quad(np.exp(0.5 * np.log(a11)))
            assert abs(norm - 1.0) < 1e-12

    def test_passes_family_check(self):
        fam = make_collapsing_22("(t/(1-t))*cos(pi*x1)^2", t1=1.0, t_range=(0.0, 0.7))
        assert check_slag_family(fam, n=64, nt=5, tol=1e-9).passed()

    def test_t_range_must_stay_below_collapse(self):
        with pytest.raises(FamilyError, match="strictly below"):
            make_collapsing_22("0", t1=0.5, t_range=(0.0, 0.5))


class TestCollapse21:
    def test_zero_v_reduces_to_collapse22(self):
        w = "(t/(1-t))*cos(pi*x1)^2"
        fam21 = make_collapsing_21(w, "0", t1=1.0, t_range=(0.0, 0.7))
        fam22 = make_collapsing_22(w, t1=1.0, t_range=(0.0, 0.7))
        axes = family_axes(fam21, 16)
        for t in (0.1, 0.5):
            m21 = fam21.sample_matrix(t, axes)
            m22 = fam22.sample_matrix(t, axes)
            for i in range(3):
                a, b = np.broadcast_arrays(np.asarray(m21[i][i]), np.asarray(m22[i][i]))
                assert np.allclose(a, b, atol=1e-14)

    def test_per_x1_normalization(self):
        v = "(t/(1-t))*cos(pi*x2)^2*(1+sin(2*pi*x1)/4)"
        fam = make_collapsing_21("0", v, t1=1.0, t_range=(0.0, 0.7))
        x1 = periodic_axis(8)[:, None]
        x2 = periodic_axis(256)[None, :]
        for t in (0.3, 0.6):
            a22 = fam.entries[1][1].sample(t, {"x1": x1, "x2": x2})
            norms = periodic_quad(np.sqrt(a22), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_unit_determinant_and_check(self):
        v = "(t/(1-t))*cos(pi*x2)^2"
        fam = make_collapsing_21("(t/(1-t))*cos(pi*x1)^2", v, t1=1.0, t_range=(0.0, 0.6))
        axes = family_axes(fam, 32)
        m = fam.sample_matrix(0.4, axes)
        det = np.asarray(m[0][0]) * np.asarray(m[1][1]) * np.asarray(m[2][2])
        assert np.max(np.abs(det - 1.0)) < 1e-12
        assert check_slag_family(fam, n=32, nt=4, tol=1e-9).passed()


class TestConeFamily:
    def test_curve_identity(self):
        # |c'|^2 |c|^4 = 1/9 pointwise, since c' c^2 = 1/3
        fam = make_cone_family("1")
        t, x1 = 0.5, 1.0
        a11 = float(fam.entries[0][0].sample(t, {"x1": np.array([x1])})[0])
        a22 = float(fam.entries[1][1].sample(t, {"x1": np.array([x1]), "x2": 0.0, "x3": 0.0})[0])
        assert abs(a11 * a22 ** 2 - 1.0 / 9.0) < 1e-12

    def test_det_is_f_squared_over_nine(self):
        fam = make_cone_family("1")
        x1 = ((np.arange(64) + 0.5) / 64)[:, None]
        x2 = (np.arange(64) / 64)[None, :]
        axes = {"x1": x1, "x2": x2, "x3": 0.0}
        for t in (0.1, 1.0):
            m = fam.sample_matrix(t, axes)
            det = np.asarray(m[0][0]) * np.asarray(m[1][1]) * np.asarray(m[2][2])
            assert np.max(np.abs(det - 1.0 / 9.0)) < 1e-12

    def test_modulus_at_one(self):
        fam = make_cone_family("1")
        a22 = float(fam.entries[1][1].sample(1.0, {"x1": np.array([1.0]), "x2": 0.0,
                                                 "x3": 0.0})[0])
        assert abs(a22 - 2.0 ** (1.0 / 3.0)) < 1e-12

    def test_nonpositive_x1_rejected(self):
        fam = make_cone_family("1")
        with pytest.raises(FamilyError, match="branch point"):
            fam.entries[0][0].sample(0.5, {"x1": np.array([0.0, 0.5])})

    def test_nonpositive_conformal_factor_rejected(self):
        fam = make_cone_family("-1")
        with pytest.raises(FamilyError, match="positive"):
            fam.entries[1][1].sample(0.5, {"x1": np.array([0.5]), "x2": 0.0, "x3": 0.0})

    def test_passes_family_check_on_interior_grid(self):
        fam = make_cone_family("1")
        report = check_slag_family(fam, n=32, nt=4, tol=1e-9)
        assert report.passed(), report.as_dict()


class TestFamilyToPolicy:
    def test_flat_family(self):
        fam = family_from_entries({"g11": "1", "g22": "1", "g33": "1"})
        g, policy = family_to_policy(fam, 0.0, order=4)
        for i in range(3):
            assert float(g[i][i].constant_term) == 1.0
        for row in policy:
            for jet in row:
                assert not jet.depends_on(Y2)

    def test_inadmissible_family_refused(self):
        fam = family_from_entries({"g11": "exp(t)", "g22": "1", "g33": "1"})
        with pytest.raises(InadmissibleFamilyError):
            family_to_policy(fam, 0.0, order=3)

    def test_grid_only_entries_refused(self):
        fam = make_collapsing_22("(t/(1-t))*cos(pi*x1)^2", t1=1.0, t_range=(0.0, 0.5))
        with pytest.raises(FamilyError, match="jet-expandable"):
            family_to_policy(fam, 0.2, order=3, check=False)

    def test_solved_slices_are_special_lagrangian(self):
        g, policy = family_to_policy(bessel_family(), 0.25, order=4)
        st = solve_calabi_yau(g, 4, policy)
        report = check_structure(st)
        assert float(report.max_residual()) < 1e-12
        res = horizontal_slice_residuals(st)
        assert res["B_slice"] == 0.0
        assert float(res["im_gamma_slice"]) < 1e-13

    def test_exact_rational_family_slices_exactly(self):
        entries = RATIONAL
        fam = family_from_entries(entries, t_range=(0.0, 0.5),
                                  periodic=(False, True, True))
        g, policy = family_to_policy(fam, Fraction(1, 4), order=4, mode=EXACT)
        st = solve_calabi_yau(g, 4, policy)
        for name, value in check_structure(st).as_dict().items():
            assert value == 0, name
        res = horizontal_slice_residuals(st)
        assert res["B_slice"] == 0
        assert res["im_gamma_slice"] == 0
        # the solved a11 agrees with the family's own a11 on the slice family
        x1 = g[0][0]  # not used; keep the comparison explicit below
        from slagcy.dsl import eval_jet
        from slagcy.jets import Jet, X1, X2, X3
        env = {
            "x1": Jet.variable(X1, 4, EXACT),
            "x2": Jet.variable(X2, 4, EXACT),
            "x3": Jet.variable(X3, 4, EXACT),
            "t": Jet.variable(Y1, 4, EXACT) + Fraction(1, 4),
        }
        fam_a11 = eval_jet(parse(entries["g11"]), env)
        assert st.h.A(1, 1).restrict_zero((Y2, Y3)) == fam_a11

    def test_policy_is_read_only_at_the_free_step1_entries(self):
        # a11 and the lower triangle of the policy matrix are never read, so
        # garbage there leaves the exact dump byte-identical
        fam = family_from_entries(RATIONAL, t_range=(0.0, 0.5), periodic=(False, True, True))
        g, policy = family_to_policy(fam, Fraction(1, 4), order=4, mode=EXACT)
        junk = Jet.variable(Y1, 4, EXACT) * Jet.variable(X1, 4, EXACT)
        spoiled = [[jet + junk if i > j or i == j == 0 else jet for j, jet in enumerate(row)]
                   for i, row in enumerate(policy)]
        dump = dump_structure(solve_calabi_yau(g, 4, policy))
        assert dump_structure(solve_calabi_yau(g, 4, spoiled)) == dump
        assert dump_structure(solve_calabi_yau(g, 4)) != dump  # the policy is read
        bad = [list(row) for row in policy]
        bad[1][1] = bad[1][1] + Jet.variable(X1, 4, EXACT)
        with pytest.raises(PolicyError, match="restrict"):
            solve_calabi_yau(g, 4, bad)

    def test_two_dim_family_rejected(self):
        fam = family_from_entries({"g11": "1", "g22": "1"}, dim=2)
        with pytest.raises(FamilyError, match="3-dimensional"):
            family_to_policy(fam, 0.0, order=3)
