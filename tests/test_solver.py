import configparser
import contextlib
import functools
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slagcy import jets, solver
from slagcy.dsl import eval_jet, parse
from slagcy.jets import (
    EXACT,
    FLOAT,
    X1,
    X2,
    X3,
    Y1,
    Y2,
    Y3,
    Y_VARS,
    ComplexJet,
    Jet,
    det,
    holomorphic_extend,
)
from slagcy.solver import (
    CONSTANT_POLICY,
    ENTRY_KEYS,
    CYStructureJet,
    DegenerateMetricError,
    HermitianJet,
    PolicyError,
    SolverError,
    build_gamma,
    check_structure,
    ck_step,
    dump_structure,
    horizontal_slice_residuals,
    load_structure,
    solve_calabi_yau,
    _apply_policy,
    _hmatrix,
)

from oracles import RefComplex, full_order_complex_det, max_abs, partial_of, ref_add


def jets_env(order, mode=EXACT):
    return {
        "x1": Jet.variable(X1, order, mode),
        "x2": Jet.variable(X2, order, mode),
        "x3": Jet.variable(X3, order, mode),
        "t": Jet.constant(0, order, mode),
    }


def metric_from_exprs(entries, order, mode=EXACT):
    env = jets_env(order, mode)
    g = [[None] * 3 for _ in range(3)]
    for i in range(1, 4):
        for j in range(i, 4):
            text = entries.get(f"g{i}{j}", "1" if i == j else "0")
            g[i - 1][j - 1] = g[j - 1][i - 1] = eval_jet(parse(text), env)
    return g


def identity_metric(order, mode=EXACT):
    return metric_from_exprs({}, order, mode)


def policy_matrix(g, **entries):
    """A step-1 policy: the metric jets g, with the named entries (a22=...) replaced."""
    m = [list(row) for row in g]
    for key, jet in entries.items():
        m[int(key[1]) - 1][int(key[2]) - 1] = jet
    return m


def assert_all_zero(report):
    for name, value in report.as_dict().items():
        assert value == 0, f"{name} = {value}"


class TestBuildGamma:
    def test_identity(self):
        gamma = build_gamma(identity_metric(4))
        assert gamma.re == Jet.constant(1, 4)
        assert gamma.im.coeffs == {}

    def test_unit_determinant_exponentials(self):
        g = metric_from_exprs({"g11": "exp(x2)", "g33": "exp(-x2)"}, 4)
        gamma = build_gamma(g)
        assert gamma.re == Jet.constant(1, 4)
        assert gamma.im.coeffs == {}

    def test_conformal_scaling_binomial(self):
        g = metric_from_exprs({"g11": "1+x1", "g22": "1+x1", "g33": "1+x1"}, 2)
        gamma = build_gamma(g)
        restricted = gamma.re.restrict_zero((Y1, Y2, Y3))
        # (1+x1)^(3/2) = 1 + (3/2) x1 + (3/8) x1^2 + ...
        assert restricted == Jet(2, {(0,) * 6: 1, (1, 0, 0, 0, 0, 0): Fraction(3, 2),
                                     (2, 0, 0, 0, 0, 0): Fraction(3, 8)}, EXACT)
        assert gamma.im.restrict_zero((Y1, Y2, Y3)).coeffs == {}

    def test_uniqueness_against_reconstruction(self):
        # rebuilding the extension from the y=0 restriction reproduces it
        g = metric_from_exprs({"g11": "1 + x2^2", "g22": "1 + x1*x3/4"}, 4)
        gamma = build_gamma(g)
        rebuilt = holomorphic_extend(gamma.re.restrict_zero((Y1, Y2, Y3)))
        assert rebuilt.re == gamma.re
        assert rebuilt.im == gamma.im

    def test_rejects_asymmetric_and_degenerate(self):
        g = identity_metric(3)
        g[0][1] = Jet.variable(X1, 3)
        with pytest.raises(SolverError, match="symmetric"):
            build_gamma(g)
        zero = Jet.constant(0, 3)
        g2 = [[zero] * 3 for _ in range(3)]
        with pytest.raises(DegenerateMetricError):
            build_gamma(g2)


class TestFlatStructure:
    def test_flat_solution(self):
        order = 6
        st = solve_calabi_yau(identity_metric(order), order)
        assert st.h.A(1, 1) == Jet.constant(1, order)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                expect = Jet.constant(1 if i == j else 0, order)
                assert st.h.A(i, j) == expect
                assert st.h.B(i, j).coeffs == {}
        assert st.gamma.re == Jet.constant(1, order)
        assert st.gamma.im.coeffs == {}
        assert_all_zero(check_structure(st))


class TestCkStep:
    def test_step1_flat_is_trivial(self):
        order = 4
        g = identity_metric(order)
        gamma = build_gamma(g)
        zero = g[0][0].zero_like()
        entries = {f"a{i}{j}": g[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
        entries.update({"b12": zero, "b13": zero, "b23": zero})
        out = ck_step(1, HermitianJet(entries), gamma)
        assert out.entries["a11"] == Jet.constant(1, order)
        for key in ("b12", "b13", "b23"):
            assert out.entries[key].coeffs == {}

    def test_step1_unit_det_exponentials(self):
        # right sides of the y1-evolution vanish: B stays 0, a11 stays 1
        order = 5
        g = metric_from_exprs({"g22": "exp(x1)", "g33": "exp(-x1)"}, order)
        gamma = build_gamma(g)
        zero = g[0][0].zero_like()
        entries = {f"a{i}{j}": g[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
        entries.update({"b12": zero, "b13": zero, "b23": zero})
        out = ck_step(1, HermitianJet(entries), gamma)
        assert out.entries["a11"] == Jet.constant(1, order)
        for key in ("b12", "b13", "b23"):
            assert out.entries[key].coeffs == {}

    def test_invalid_step_number(self):
        order = 3
        g = identity_metric(order)
        entries = {f"a{i}{j}": g[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
        zero = g[0][0].zero_like()
        entries.update({"b12": zero, "b13": zero, "b23": zero})
        with pytest.raises(SolverError):
            ck_step(4, HermitianJet(entries), build_gamma(g))


POLY_METRICS = [
    {"g11": "1 + x2^2"},
    {"g11": "1 + x2^2/4", "g12": "x2*x3/8", "g22": "1 + x3^2/4", "g23": "x1*x2/8",
     "g33": "1 + x1^2/2"},
    {"g11": "1/(1 - x2*x3/4)", "g13": "x1*x3/8", "g22": "1 + x1^2/4"},
]

TRIG_METRICS = [
    {"g11": "1 + sin(2*pi*x1)/10", "g22": "1 + cos(2*pi*x2)/10",
     "g33": "1 + sin(2*pi*x3)/10"},
    {"g11": "1 + cos(2*pi*x2)/10", "g12": "sin(2*pi*x1)/20",
     "g22": "1 + sin(2*pi*x3)/10", "g23": "cos(2*pi*x3)/20",
     "g33": "1 + sin(2*pi*x1)/10"},
    {"g11": "1 + sin(2*pi*(x1+x2))/10", "g22": "1 + cos(2*pi*(x2+x3))/10",
     "g33": "1 + cos(2*pi*x3)/10"},
]


class TestFullSolve:
    @pytest.mark.parametrize("entries", POLY_METRICS)
    def test_exact_polynomial_residuals_vanish(self, entries):
        order = 4
        st = solve_calabi_yau(metric_from_exprs(entries, order), order)
        assert_all_zero(check_structure(st))

    @pytest.mark.parametrize("entries", TRIG_METRICS[:1])
    def test_float_trig_residuals_small(self, entries):
        order = 4
        st = solve_calabi_yau(metric_from_exprs(entries, order, FLOAT), order)
        report = check_structure(st)
        assert float(report.max_residual()) < 1e-12

    def test_determinant_constant_term_positive(self):
        order = 4
        for entries in POLY_METRICS:
            st = solve_calabi_yau(metric_from_exprs(entries, order), order)
            a = [[st.h.A(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
            det_ct = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                      - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                      + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])).constant_term
            assert det_ct > 0

    def test_policy_independence_of_the_slice(self):
        order = 4
        g = metric_from_exprs(POLY_METRICS[0], order)
        st_const = solve_calabi_yau(g, order)
        # a different admissible extension of the free entries: add y1-dependence
        y1 = Jet.variable(Y1, order)
        x1 = Jet.variable(X1, order)
        policy = policy_matrix(
            g,
            a22=g[1][1] + y1 * x1 / 2,
            a33=g[2][2] + y1 * y1 / 4,
            a12=g[0][1] + y1 * x1 * x1 / 8,
            a13=g[0][2],
            a23=g[1][2] + y1 / 8,
        )
        st_alt = solve_calabi_yau(g, order, policy)
        assert_all_zero(check_structure(st_alt))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = st_const.h.A(i, j).restrict_zero((Y1, Y2, Y3))
                rhs = st_alt.h.A(i, j).restrict_zero((Y1, Y2, Y3))
                assert lhs == rhs == g[i - 1][j - 1]
                assert st_alt.h.B(i, j).restrict_zero((Y1, Y2, Y3)).coeffs == {}

    def test_minimum_order_two(self):
        st = solve_calabi_yau(metric_from_exprs(POLY_METRICS[0], 2), 2)
        assert_all_zero(check_structure(st))

    def test_policy_must_restrict_to_initial_data(self):
        order = 3
        g = identity_metric(order)
        bad = policy_matrix(g, a22=g[1][1] + Jet.variable(X1, order))
        with pytest.raises(PolicyError, match="restrict"):
            solve_calabi_yau(g, order, bad)

    def test_policy_variable_restrictions(self):
        order = 3
        g = identity_metric(order)
        bad = policy_matrix(g, a22=g[1][1] + Jet.variable(Y2, order))
        with pytest.raises(PolicyError, match="may not depend"):
            solve_calabi_yau(g, order, bad)

    def test_degenerate_metric_rejected(self):
        order = 3
        g = identity_metric(order)
        g[1][1] = Jet.constant(-1, order)  # not positive definite
        with pytest.raises(DegenerateMetricError):
            solve_calabi_yau(g, order)

    def test_order_minimum(self):
        with pytest.raises(SolverError):
            solve_calabi_yau(identity_metric(1), 1)


class TestLowOrderOracle:
    """Independent derivations of the first nontrivial coefficient of a11."""

    def solved_slice(self, order=4):
        st = solve_calabi_yau(metric_from_exprs({"g11": "1 + x2^2"}, order), order)
        return st.h.A(1, 1).slice_coeff(Y1, 2).restrict_zero((Y2, Y3)), st

    def test_frozen_hand_value(self):
        # By hand: b = -int d(a)/dx2 dy1, a = 1 + x2^2 + b^2 gives
        # b = -2 x2 y1 - (8/3) x2 y1^3 + ..., a11 = 1 + x2^2 + 4 x2^2 y1^2 + ...
        sl, st = self.solved_slice()
        assert sl == Jet(2, {(0, 2, 0, 0, 0, 0): 4}, EXACT)
        assert st.h.entries["b12"].restrict_zero((Y2, Y3)) == Jet(
            4, {(0, 1, 0, 1, 0, 0): -2, (0, 1, 0, 3, 0, 0): Fraction(-8, 3)}, EXACT)

    def test_sympy_picard_iteration(self):
        sympy = pytest.importorskip("sympy")
        x2, y1 = sympy.symbols("x2 y1")
        # On {y2=y3=0} the system for g = diag(1+x2^2, 1, 1) with the constant
        # extension reduces to: da/dy1 determined by a = |gamma|^2 + b12^2 and
        # db12/dy1 = -d(a)/dx2.  Solve by Picard iteration on the integral form.
        a = 1 + x2 ** 2
        b = sympy.Integer(0)
        for _ in range(6):
            a = sympy.expand(1 + x2 ** 2 + b ** 2)
            a = a + sympy.O(y1 ** 5)
            a = a.removeO()
            b = sympy.integrate(-sympy.diff(a, x2), y1)
        coeff = sympy.expand(a).coeff(y1, 2)
        assert coeff == 4 * x2 ** 2
        sl, _ = self.solved_slice()
        assert sl == Jet(2, {(0, 2, 0, 0, 0, 0): 4}, EXACT)


class TestCheckStructure:
    def test_detects_corruption(self):
        order = 4
        st = solve_calabi_yau(metric_from_exprs(POLY_METRICS[0], order), order)
        corrupted_entries = dict(st.h.entries)
        bump = Jet(order, {(1, 0, 0, 1, 0, 0): Fraction(1, 100)}, EXACT)
        corrupted_entries["a12"] = corrupted_entries["a12"] + bump
        corrupted = CYStructureJet(h=HermitianJet(corrupted_entries), gamma=st.gamma,
                                   g=st.g, policy=st.policy, order=order)
        report = check_structure(corrupted)
        assert report.res_symmetry != 0
        assert report.res_domega != 0

    def test_nan_coefficient_fails_a_residual_with_nan(self):
        # max() keeps or drops a nan by its position; every maximum must carry it
        order = 6
        st = solve_calabi_yau(metric_from_exprs(TRIG_METRICS[0], order, FLOAT), order)
        entries = dict(st.h.entries)
        coeffs = dict(entries["a11"].coeffs)
        coeffs[(0, 0, 0, 2, 0, 0)] = math.nan
        entries["a11"] = Jet(order, coeffs, FLOAT)
        report = check_structure(CYStructureJet(h=HermitianJet(entries), gamma=st.gamma,
                                                g=st.g, policy=st.policy, order=order))
        assert any(math.isnan(v) for v in report.as_dict().values())
        assert math.isnan(report.max_residual())

    def test_residual_fields_in_declaration_order(self):
        report = check_structure(solve_calabi_yau(identity_metric(3), 3))
        assert list(report.as_dict()) == [
            "res_D", "res_domega", "res_C41", "res_C42", "res_initial_A", "res_initial_B",
            "res_symmetry", "res_slice_im_omega", "res_slice_omega"]

    def test_effective_orders_recorded(self):
        st = solve_calabi_yau(identity_metric(4), 4)
        report = check_structure(st)
        assert report.effective_orders["closure"] == 3
        assert report.effective_orders["D"] == 4


class TestDumpLoad:
    def test_roundtrip_exact(self):
        order = 4
        st = solve_calabi_yau(metric_from_exprs(POLY_METRICS[0], order), order)
        text = dump_structure(st)
        back = load_structure(text)
        assert back.order == st.order
        for key, jet in st.h.entries.items():
            assert back.h.entries[key] == jet
        assert back.gamma.re == st.gamma.re
        assert back.gamma.im == st.gamma.im
        assert_all_zero(check_structure(back))
        assert dump_structure(back) == text

    def test_roundtrip_float(self):
        order = 3
        st = solve_calabi_yau(metric_from_exprs(TRIG_METRICS[0], order, FLOAT), order)
        back = load_structure(dump_structure(st))
        for key, jet in st.h.entries.items():
            assert back.h.entries[key] == jet  # repr round-trips doubles exactly

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_roundtrip_generated(self, mode, data):
        order = data.draw(st.integers(2, 4))
        g = data.draw(exact_metrics(order))
        if mode == FLOAT:
            for i, j in itertools.combinations_with_replacement(range(3), 2):
                g[i][j] = g[j][i] = float_copy(g[i][j], data.draw)
        s = solve_calabi_yau(g, order)
        text = dump_structure(s)
        back = load_structure(text)
        assert (back.order, back.mode) == (s.order, s.mode)
        assert back.h.entries.keys() == s.h.entries.keys()
        for key, jet in s.h.entries.items():
            assert back.h.entries[key] == jet, key
        assert back.g == s.g
        assert (back.gamma.re, back.gamma.im) == (s.gamma.re, s.gamma.im)
        assert dump_structure(back) == text

    def test_bad_header(self):
        with pytest.raises(SolverError, match="header"):
            load_structure("not a dump\n")

    @pytest.mark.parametrize("header,line", [
        ("order = two", ""),
        ("base_point = 0 0 zero 0 0 0", ""),
        ("base_point = 0 0 0", ""),
        ("base_point = 1 0 0 0 0 0", ""),  # jets are expanded at the origin
        ("base_point = 0 0 0 0 0 -1/2", ""),
        ("", "0 0 0 0 0 0 : one"),
        ("", "0 0 x 0 0 0 : 1"),
        ("", "-1 0 0 0 0 0 : 1"),
        ("", "3 0 0 0 0 0 : 1"),  # above the order
        ("order = 0", ""),
        ("order = -1", ""),
        ("base_point = 0 0 0 0 0 0\njunk", ""),
        ("mode = exact\ncolour = red", ""),
        ("order = 2\norder = 9", ""),
    ])
    def test_malformed_dump_raises_solver_error(self, header, line):
        # each case spoils one header field, adds one line after a header field
        # (the error names it) or adds one line to a complete dump
        text = small_dump(EXACT)
        if header:
            key = header.partition(" = ")[0]
            text = re.sub(rf"(?m)^{key} = .*$", header, text, count=1)
        text = text.replace("[A 1 1]\n", f"[A 1 1]\n{line}\n", 1)
        with pytest.raises(SolverError) as err:
            load_structure(text)
        for added in header.split("\n")[1:]:
            assert repr(added) in str(err.value)

    @pytest.mark.parametrize("scalar", ["nan", "inf", "-inf", "-NaN", "Infinity"])
    @pytest.mark.parametrize("line", [0, 1, 2])
    def test_non_finite_float_names_its_line(self, scalar, line):
        text = small_dump(FLOAT)
        old = re.findall(r"(?m)^[0-9 ]+ : .*$", text)[line]
        new = old.partition(" : ")[0] + " : " + scalar
        with pytest.raises(SolverError, match=re.escape(f"bad coefficient line {new!r}")):
            load_structure(text.replace(old + "\n", new + "\n", 1))

    # a dump cut short or with an extra section: test_cli.MALFORMED
    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("[B 1 2]", "[B 2 1]"), r"unknown .*\[B 2 1\]"),
        (lambda t: t + "[A 2 2]\n", r"\[A 2 2\] appears twice"),
        (lambda t: t.replace("[A 1 1]\n", "[A 1 1]\n0 0 0 0 0 0 : 2\n", 1),
         r"multi-index \(0, 0, 0, 0, 0, 0\) appears twice in section \[A 1 1\]"),
    ], ids=["misnamed", "repeated", "repeated multi-index"])
    def test_misnamed_or_repeated_sections_raise(self, edit, message):
        text = small_dump(EXACT)
        load_structure(text)
        with pytest.raises(SolverError, match=message):
            load_structure(edit(text))


def sections_by_oracle(text):
    """Each section of a dump as the public constructor builds it from the
    section's lines, in file order: Jet(order, {exponent tuple: scalar}, mode)."""
    mode = re.search(r"(?m)^mode = (.*)$", text)[1]
    order = int(re.search(r"(?m)^order = (.*)$", text)[1])
    out = {}
    for block in text.split("\n[")[1:]:
        tag, *lines = block.rstrip("\n").split("\n")
        out[tag.rstrip("]")] = Jet(order, {
            tuple(map(int, idx.split())): Fraction(c) if mode == EXACT else float(c)
            for idx, _, c in (ln.partition(" : ") for ln in lines)}, mode)
    return out


def jet_terms(jet):
    """A jet's terms in dict order, floats by float.hex."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in jet.coeffs.items()]


class TestLoaderParsesEachIndexOnce:
    @pytest.mark.parametrize("mode,order,metrics", [(FLOAT, 8, TRIG_METRICS),
                                                    (EXACT, 6, POLY_METRICS)])
    def test_one_pack_per_distinct_multi_index(self, mode, order, metrics, monkeypatch):
        text = dump_structure(solve_calabi_yau(metric_from_exprs(metrics[1], order, mode), order))
        heads = [ln.partition(":")[0] for ln in text.splitlines() if " : " in ln]
        packed = []
        pack = jets._pack  # from_pairs packs each new index of the dump through it
        monkeypatch.setattr(jets, "_pack",
                            lambda idx, order: packed.append(idx) or pack(idx, order))
        load_structure(text)
        assert len(packed) == len(set(heads)) < len(heads) / 2
        assert sorted(packed) == sorted({tuple(map(int, h.split())) for h in heads})

    @pytest.mark.parametrize("mode,order,metrics", [(FLOAT, 8, TRIG_METRICS),
                                                    (EXACT, 6, POLY_METRICS)])
    def test_one_parse_per_distinct_coefficient_text(self, mode, order, metrics, monkeypatch):
        text = dump_structure(solve_calabi_yau(metric_from_exprs(metrics[1], order, mode), order))
        values = [ln.partition(":")[2] for ln in text.splitlines() if " : " in ln]
        parsed = []
        parse = solver.parse_scalar
        monkeypatch.setattr(solver, "parse_scalar",
                            lambda text, mode: parsed.append(text) or parse(text, mode))
        back = load_structure(text)
        assert dump_structure(back) == text
        # the base point's coordinates, then each distinct value text once
        base_point = re.search(r"(?m)^base_point = (.*)$", text)[1].split()
        assert parsed[:len(base_point)] == base_point
        assert sorted(parsed[len(base_point):]) == sorted({v.strip() for v in values})
        assert len(set(values)) < len(values)

    @pytest.mark.parametrize("mode,order", [(FLOAT, 8), (EXACT, 6)])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_generated_dumps_round_trip_in_file_order(self, mode, order, data):
        g = data.draw(exact_metrics(order))
        if mode == FLOAT:
            for i, j in itertools.combinations_with_replacement(range(3), 2):
                g[i][j] = g[j][i] = float_copy(g[i][j], data.draw)
        s = solve_calabi_yau(g, order)
        text = dump_structure(s)
        back = load_structure(text)
        assert dump_structure(back) == text
        expect = sections_by_oracle(text)
        loaded = [*(back.h.entries[k] for k in ENTRY_KEYS),
                  *(back.g[i - 1][j - 1] for i, j in solver._G_UPPER), back.gamma.re, back.gamma.im]
        assert [tag for tag, _ in solver._DUMP_SECTIONS] == list(expect)
        for jet, (tag, oracle) in zip(loaded, expect.items()):
            assert jet == oracle, tag
            assert jet_terms(jet) == jet_terms(oracle), tag
        assert [back.h.entries[k] for k in ENTRY_KEYS] == [s.h.entries[k] for k in ENTRY_KEYS]
        assert (back.gamma, back.g) == (s.gamma, s.g)

    # two defects each: every line-level error is reported before an index that
    # does not pack, and of those indices the one of the first section in table order
    @pytest.mark.parametrize("edits,message", [
        ((("A 1 1", "3 0 0 0 0 0 : 1"), ("gamma im", "0 0 x 0 0 0 : 1")),
         "bad coefficient line '0 0 x 0 0 0 : 1': invalid literal for int() with base 10: 'x'"),
        ((("A 1 1", "3 0 0 0 0 0 : 1"), ("gamma im", "0 0 0 0 0 : 1")),
         "bad multi-index line '0 0 0 0 0 : 1'"),
        ((("A 1 1", "3 0 0 0 0 0 : 1"), ("A 1 1", "3 0 0 0  0 0 : 2")),
         "multi-index (3, 0, 0, 0, 0, 0) appears twice in section [A 1 1]"),
        ((("A 1 1", "3 0 0 0 0 0 : 1"), ("g 3 3", "0 0 0 0 0 0 : 1/0")),
         "bad coefficient line '0 0 0 0 0 0 : 1/0': exact scalar '1/0' has a zero denominator"),
        ((("B 1 2", "3 0 0 0 0 0 : 1"), ("A 2 2", "-1 0 0 0 0 0 : 0")),
         "bad structure dump section [A 2 2]: bad multi-index (-1, 0, 0, 0, 0, 0)"),
        ((("A 1 1", "65535 1 0 0 0 0 : 1"), ("B 1 2", "3 0 0 0 0 0 : 1")),
         "bad structure dump section [A 1 1]: bad multi-index (65535, 1, 0, 0, 0, 0)"),
    ])
    def test_two_defects_report_the_first_as_before(self, edits, message):
        text = small_dump(EXACT)
        for tag, line in edits:
            text = text.replace(f"[{tag}]\n", f"[{tag}]\n{line}\n", 1)
        with pytest.raises(SolverError) as err:
            load_structure(text)
        assert str(err.value) == message


@functools.cache
def small_dump(mode):
    metric = POLY_METRICS[1] if mode == EXACT else TRIG_METRICS[1]
    return dump_structure(solve_calabi_yau(metric_from_exprs(metric, 2, mode), 2))


@st.composite
def mutated_dumps(draw, mode):
    """A small valid dump with 1-4 spans of up to 8 characters each replaced by
    up to 6 characters, drawn from the dump alphabet or from all of Unicode."""
    text = small_dump(mode)
    chars = st.one_of(st.sampled_from("0123456789 -+/.:=[]\neE"), st.characters())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(chars, max_size=6)) + text[j:]
    return text


class TestLoadErrorsGenerated:
    """``load_structure`` raises SolverError and nothing else on malformed text."""

    @settings(max_examples=100)
    @given(text=st.text())
    def test_arbitrary_text(self, text):
        for candidate in (text, "slagcy-structure v1\n" + text):
            with contextlib.suppress(SolverError):
                load_structure(candidate)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_mutated_dumps(self, mode, data):
        with contextlib.suppress(SolverError):
            load_structure(data.draw(mutated_dumps(mode)))

    @settings(max_examples=50, deadline=None)
    @given(scalar=st.one_of(
        st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10 ** 9, 10 ** 9)),
        st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 10 ** 6)),
        st.builds("+{}".format, st.integers(0, 10 ** 6))),
        in_base_point=st.booleans())
    @example(scalar="1e100000000", in_base_point=False)
    @example(scalar="1e100000000", in_base_point=True)
    def test_exact_scalar_not_p_over_q(self, scalar, in_base_point):
        # only the p or p/q form that dump_structure writes is read back; an
        # exponent must be refused before it is expanded to all its digits
        text = small_dump(EXACT)
        if in_base_point:
            text = text.replace("base_point = 0", f"base_point = {scalar}", 1)
        else:
            text = re.sub(r"(?m)^(\[A 1 1\]\n[0-9 ]+: ).*$", lambda mt: mt.group(1) + scalar,
                          text, count=1)
        assert scalar in text
        start = time.perf_counter()
        with pytest.raises(SolverError, match="p or p/q"):
            load_structure(text)
        assert time.perf_counter() - start < 0.5


class TestHorizontalSlices:
    def test_flat_structure_slices_vanish(self):
        st = solve_calabi_yau(identity_metric(4), 4)
        res = horizontal_slice_residuals(st)
        assert res["B_slice"] == 0
        assert res["im_gamma_slice"] == 0


# -- the sweep against a full-determinant oracle -------------------------------------


def truncated(jet, order):
    """``jet`` without its terms above total degree ``order``."""
    return Jet(order, {i: c for i, c in jet.coeffs.items() if sum(i) <= order}, jet.mode)


# The oracle's own statement of the closure equations each sweep integrates:
# target -> ((sign, source, derivative-variable), ...), one first-order equation
# d(target)/d(y_step) = sum sign * d(source)/d(var); typed out, not generated.
EVOLUTION = {
    1: {
        "b12": ((1, "a12", X1), (-1, "a11", X2)),
        "b13": ((1, "a13", X1), (-1, "a11", X3)),
        "b23": ((1, "a13", X2), (-1, "a12", X3)),
    },
    2: {
        "b12": ((1, "a22", X1), (-1, "a21", X2)),
        "b13": ((1, "a23", X1), (-1, "a21", X3)),
        "b23": ((1, "a23", X2), (-1, "a22", X3)),
        "a11": ((1, "a21", Y1), (1, "b12", X1)),
        "a12": ((1, "a22", Y1), (1, "b12", X2)),
        "a13": ((1, "a23", Y1), (1, "b12", X3)),
    },
    3: {
        "b12": ((1, "a32", X1), (-1, "a31", X2)),
        "b13": ((1, "a33", X1), (-1, "a31", X3)),
        "b23": ((1, "a33", X2), (-1, "a32", X3)),
        "a11": ((1, "a31", Y1), (1, "b13", X1)),
        "a12": ((1, "a32", Y1), (1, "b13", X2)),
        "a13": ((1, "a33", Y1), (1, "b13", X3)),
        "a21": ((1, "a31", Y2), (1, "b23", X1)),
        "a22": ((1, "a32", Y2), (1, "b23", X2)),
        "a23": ((1, "a33", Y2), (1, "b23", X3)),
    },
}
# entries kept symmetric by mirroring an evolved partner: (mirror, evolved)
MIRRORS = {1: (), 2: (("a21", "a12"), ("a31", "a13")), 3: (("a31", "a13"), ("a32", "a23"))}


def times_power(jet, var, m):
    """jet * var**m, of order jet.order + m, shifting the exponent tuples."""
    return Jet(jet.order + m, {idx[:var] + (idx[var] + m,) + idx[var + 1:]: c
                               for idx, c in jet.coeffs.items()}, jet.mode)


def full_determinant_sweep(step, state, gamma, policy=CONSTANT_POLICY):
    """Reference sweep: read the degree-m slice of det(h) off the full 3x3
    determinant of the state capped at degree m in the evolution variable, and
    recompute the leading coefficient's reciprocal at every order."""
    def capped(jet, var, degree):
        return Jet(jet.order, {i: c for i, c in jet.coeffs.items() if i[var] <= degree},
                   jet.mode)

    cur = dict(state.entries)
    _apply_policy(step, cur, policy)
    order = state.order
    ev = {1: Y1, 2: Y2, 3: Y3}[step]
    d_key = {1: "a11", 2: "a22", 3: "a33"}[step]
    rows = {1: (2, 3), 2: (1, 3), 3: (1, 2)}[step]
    gamma_sq = gamma.abs2().restrict_zero({1: (Y2, Y3), 2: (Y3,), 3: ()}[step])
    h0 = _hmatrix(HermitianJet({k: cur[k].slice_coeff(ev, 0) for k in ENTRY_KEYS}))
    cof0 = det([[h0[i - 1][j - 1] for j in rows] for i in rows]).re
    for m in range(1, order + 1):
        new_slices = {}
        for key, terms in EVOLUTION[step].items():
            rhs = None
            for sign, src, var in terms:
                d = partial_of(cur[src].slice_coeff(ev, m - 1), var)
                if sign < 0:
                    d = -d
                rhs = d if rhs is None else rhs + d
            new_slices[key] = rhs / m
        for key, sl in new_slices.items():
            cur[key] = cur[key] + times_power(sl, ev, m)
        for dst, src in MIRRORS[step]:
            cur[dst] = cur[dst] + times_power(new_slices[src], ev, m)
        det_rest = det(_hmatrix(HermitianJet({k: capped(cur[k], ev, m)
                                              for k in ENTRY_KEYS}))).re
        numer = gamma_sq.slice_coeff(ev, m) - det_rest.slice_coeff(ev, m)
        d_slice = numer / truncated(cof0, order - m)
        cur[d_key] = cur[d_key] + times_power(d_slice, ev, m)
    return HermitianJet(cur)


def initial_state(g):
    zero = g[0][0].zero_like()
    entries = {f"a{i}{j}": g[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
    entries.update({"b12": zero, "b13": zero, "b23": zero})
    return HermitianJet(entries)


# constant terms: positive definite, with a rational square root of the determinant
_PD_CONSTANTS = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((4, 0, 0), (0, 1, 0), (0, 0, Fraction(9, 4))),
    ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
    ((1, 0, Fraction(1, 2)), (0, Fraction(4, 3), 0), (Fraction(1, 2), 0, 1)),
]
_SMALL = st.integers(-4, 4).map(lambda n: Fraction(n, 8))


@functools.cache
def monomial_keys(order, need=None, allowed=(X1, X2, X3)):
    """Strategy over the exponent tuples of total degree 1..order in the allowed
    variables, with a positive exponent in ``need`` if given.  Cached, so each
    strategy is built once (hypothesis hashes the sampled list)."""
    out = []
    for exps in itertools.product(range(order + 1), repeat=len(allowed)):
        idx = [0] * 6
        for var, e in zip(allowed, exps):
            idx[var] = e
        if 1 <= sum(idx) <= order and (need is None or idx[need]):
            out.append(tuple(idx))
    return st.sampled_from(out)


@st.composite
def exact_metrics(draw, order):
    const = draw(st.sampled_from(_PD_CONSTANTS))
    g = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            terms = draw(st.dictionaries(monomial_keys(order), _SMALL, max_size=4))
            terms[(0,) * 6] = const[i][j]
            g[i][j] = g[j][i] = Jet(order, terms, EXACT)
    return g


def float_copy(jet, draw):
    """``jet`` in float mode, every non-constant coefficient nudged by a random
    relative amount, so the coefficients are not short binary fractions."""
    nudge = st.floats(-0.1, 0.1, allow_nan=False)
    return Jet(jet.order, {idx: float(c) * (1 + (draw(nudge) if any(idx) else 0))
                           for idx, c in jet.coeffs.items()}, FLOAT)


def _perturbed(draw, jet, ev, allowed):
    """``jet`` plus random monomials carrying the evolution variable ev."""
    terms = draw(st.dictionaries(monomial_keys(jet.order, ev, allowed), _SMALL,
                                 min_size=1, max_size=4))
    return jet + Jet(jet.order, terms, EXACT)


class TestSliceSweep:
    """The slice-wise sweep against the full-determinant reference sweep."""

    @settings(max_examples=12)
    @given(data=st.data())
    def test_exact_sweeps_equal_the_reference(self, data):
        order = data.draw(st.integers(2, 4))
        g = data.draw(exact_metrics(order))
        gamma = build_gamma(g)
        state = initial_state(g)
        for step in (1, 2, 3):
            # a step-1 policy carries powers of y1 up to the order, above the
            # degree m each round solves for
            policy = CONSTANT_POLICY
            if step == 1 and data.draw(st.booleans()):
                keys = solver._STEP1_POLICY_KEYS
                chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
                policy = policy_matrix(g, **{
                    k: _perturbed(data.draw, state.entries[k], Y1, (X1, X2, X3, Y1))
                    for k in chosen})
            expect = full_determinant_sweep(step, state, gamma, policy)
            state = ck_step(step, state, gamma, policy)
            for key in ENTRY_KEYS:
                assert state.entries[key] == expect.entries[key], (step, key)
        assert_all_zero(check_structure(CYStructureJet(
            h=state, gamma=gamma, g=tuple(tuple(r) for r in g), policy=None, order=order)))

    @pytest.mark.parametrize("entries", TRIG_METRICS)
    def test_float_sweeps_agree_with_the_reference(self, entries):
        order = 5
        g = metric_from_exprs(entries, order, FLOAT)
        gamma = build_gamma(g)
        state = expect = initial_state(g)
        for step in (1, 2, 3):
            expect = full_determinant_sweep(step, expect, gamma)
            state = ck_step(step, state, gamma)
        scale = max(jet.max_abs_coeff() for jet in expect.entries.values())
        for key in ENTRY_KEYS:
            diff = (state.entries[key] - expect.entries[key]).max_abs_coeff()
            assert diff <= 1e-14 * scale, (key, diff, scale)

    @pytest.mark.parametrize("order", [4, 8])
    def test_one_reciprocal_per_sweep_and_no_full_determinant(self, order, monkeypatch):
        g = metric_from_exprs(TRIG_METRICS[0], order, FLOAT)
        calls = {"reciprocal": 0, "det": 0}
        reciprocal, full_det = Jet.reciprocal, solver.det
        orders = []  # of the jets whose reciprocal is taken

        def counted_reciprocal(jet):
            calls["reciprocal"] += 1
            orders.append(jet.order)
            return reciprocal(jet)

        def counted_det(m):
            calls["det"] += 1
            return full_det(m)

        monkeypatch.setattr(Jet, "reciprocal", counted_reciprocal)
        monkeypatch.setattr(solver, "det", counted_det)
        gamma = build_gamma(g)
        in_gamma = calls["reciprocal"]
        calls.update(reciprocal=0, det=0)
        orders.clear()
        state = initial_state(g)
        for step in (1, 2, 3):
            state = ck_step(step, state, gamma)
        assert calls == {"reciprocal": 3, "det": 0}
        assert orders == [order - 1] * 3  # the pivot's slice 0 is read below degree N
        calls["reciprocal"] = 0
        solve_calabi_yau(g, order)
        assert calls["reciprocal"] == 3 + in_gamma

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_derived_system_is_the_typed_out_table(self, p):
        assert solver._evolution(p) == EVOLUTION[p]

    def test_gamma_modulus_is_formed_once_per_solve_and_check(self, monkeypatch):
        order = 4
        g = metric_from_exprs({"g11": "1 + x2^2", "g12": "x2*x3/4", "g22": "1 + x3^2/4",
                               "g23": "x1*x2/8", "g33": "1 + x1^2/2"}, order)
        gamma = build_gamma(g)
        # gamma's parts restricted to {y_p = ... = y3 = 0}, p = 1, 2, 3: none is zero
        parts = {name: [part.restrict_zero(Y_VARS[p:]) for p in (1, 2, 3)]
                 for name, part in (("re", gamma.re), ("im", gamma.im))}
        assert all(part.coeffs for name in parts for part in parts[name])
        squares = {"re": 0, "im": 0}
        mul = Jet.__mul__

        def counted_mul(a, b):
            for name, restrictions in parts.items():
                if a is b and a in restrictions:
                    squares[name] += 1
            return mul(a, b)

        monkeypatch.setattr(Jet, "__mul__", counted_mul)
        assert_all_zero(check_structure(solve_calabi_yau(g, order)))
        assert squares == {"re": 1, "im": 1}

    @pytest.mark.parametrize("entries", TRIG_METRICS)
    def test_restricted_modulus_equals_modulus_of_the_restriction(self, entries):
        # the same coefficients in the same dict order, so float sweeps are bitwise unchanged
        gamma = build_gamma(metric_from_exprs(entries, 6, FLOAT))
        for p in (1, 2, 3):
            restricted = gamma.abs2().restrict_zero(Y_VARS[p:])
            parts = (part.restrict_zero(Y_VARS[p:]) for part in (gamma.re, gamma.im))
            assert list(restricted.coeffs.items()) == list(
                ComplexJet(*parts).abs2().coeffs.items())

    def test_degenerate_cofactor_names_its_minor(self):
        order = 2
        g = identity_metric(order)
        state = dict(initial_state(g).entries)
        zero = g[0][0].zero_like()
        for step, (i, j) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
            entries = dict(state, **{f"a{i}{i}": zero, f"a{j}{j}": zero})
            minor = re.escape(f"({i},{j})x({i},{j}) minor multiplying a{step}{step}")
            with pytest.raises(DegenerateMetricError, match=minor):
                ck_step(step, HermitianJet(entries), build_gamma(g))

    def test_sweeps_neither_negate_nor_zero_fill(self, monkeypatch):
        # B_ji = -B_ij is read by sign and the real diagonal has no imaginary part,
        # so no slice list is negated or filled with zeros
        g = metric_from_exprs(TRIG_METRICS[1], 8, FLOAT)
        gamma, state = build_gamma(g), initial_state(g)
        calls = {"__neg__": 0, "zero_like": 0}
        for name in calls:
            def counted(jet, name=name, original=getattr(Jet, name)):
                calls[name] += 1
                return original(jet)
            monkeypatch.setattr(Jet, name, counted)
        for step in (1, 2, 3):
            state = ck_step(step, state, gamma)
        assert calls == {"__neg__": 0, "zero_like": 0}
        # the counters see the verifier's B_ii = 0 and B_ji = -B_ij
        check_structure(CYStructureJet(h=state, gamma=gamma, g=tuple(map(tuple, g)),
                                       policy=None, order=8))
        assert calls["__neg__"] > 0 and calls["zero_like"] > 0

    @pytest.mark.parametrize("step, mirror, source", [
        (2, "a21", "a12"), (2, "a31", "a13"), (3, "a31", "a13"), (3, "a32", "a23")])
    def test_a_mirror_that_differs_from_its_source_is_refused(self, step, mirror, source):
        # a mirror shares its source's slice list, so an asymmetric pair would be
        # overwritten; the sweep refuses it and names the pair
        order = 3
        g = identity_metric(order)
        entries = dict(initial_state(g).entries)
        entries[source] = entries[source] + Jet.variable(X3, order) / 8
        with pytest.raises(SolverError, match=f"{mirror} and {source} differ on entry "
                                              f"to sweep {step}"):
            ck_step(step, HermitianJet(entries), build_gamma(g))

    def test_an_asymmetric_pair_evolved_on_its_own_is_accepted(self):
        # a12 and a21 each have their own equation in sweep 3: neither mirrors the other
        order = 3
        g = identity_metric(order)
        entries = dict(initial_state(g).entries)
        entries["a12"] = entries["a12"] + Jet.variable(X3, order) / 8
        out = ck_step(3, HermitianJet(entries), build_gamma(g))
        assert out.entries["a12"] != out.entries["a21"]


# -- the degree each cofactor slice is formed to --------------------------------------


def record_cofactor_targets(monkeypatch, deeper=False):
    """Patch the sweep so that each ``_extend_cofactors`` call appends (m,
    targets): the target order of each ``mul_sum`` call it makes, in part order
    (c = 0, then re and im of c = 1 and of c = 2).  ``deeper`` forms the c = 0
    part of each slice m >= 1 one degree below the target it asks for."""
    rounds, inside = [], []
    extend, mul = solver._extend_cofactors, solver.mul_sum

    def recorded_extend(h, cof, m, order):
        rounds.append((m, []))
        inside.append(m)
        try:
            extend(h, cof, m, order)
        finally:
            inside.pop()

    def recorded_mul(terms, order):
        if inside:
            m, targets = rounds[-1]
            if deeper and m >= 1 and not targets:
                order -= 1
            targets.append(order)
        return mul(terms, order)

    monkeypatch.setattr(solver, "_extend_cofactors", recorded_extend)
    monkeypatch.setattr(solver, "mul_sum", recorded_mul)
    return rounds


def expected_targets(state, step, m):
    """The rule, read off the state entering sweep ``step``: slice m of a
    cofactor part is formed to order N - m - cut, never below 0, where cut = 1
    at m = 0, for each B part, and for the A part of a column whose row-0 entry
    a_{step,k} has no constant term."""
    order = state.order
    perm = (step,) + tuple(i for i in (1, 2, 3) if i != step)
    out = []
    for c, k in enumerate(perm):
        cut_re = m == 0 or state.entries[f"a{step}{k}"].constant_term == 0
        out += [max(order - m - cut, 0) for cut in ((cut_re, True) if c else (cut_re,))]
    return out


def with_constants(g, const):
    """The metric g with its constant terms replaced by the matrix ``const``."""
    return [[g[i][j] + (const[i][j] - g[i][j].constant_term) for j in range(3)]
            for i in range(3)]


def step1_policy(g, order):
    y1 = Jet.variable(Y1, order)
    return policy_matrix(g, a22=g[1][1] + y1 * Jet.variable(X1, order) / 8 + y1 * y1 / 4,
                         a13=g[0][2] + Jet.variable(X2, order) * y1 / 8)


CUT_ORDER = 6
CUT_METRICS = {
    # g13 = 1/2: the real part of column 3 (sweep 1) and of column 1 (sweep 3) keep a degree
    "constant_g13": with_constants(metric_from_exprs(POLY_METRICS[1], CUT_ORDER), _PD_CONSTANTS[3]),
    # off-diagonals vanishing at 0: every off-diagonal part is cut
    "poly": metric_from_exprs(POLY_METRICS[1], CUT_ORDER),
}


class TestCofactorDegrees:
    """Each cofactor slice is formed only to the degree the determinant constraint reads."""

    @pytest.mark.parametrize("name", CUT_METRICS)
    @pytest.mark.parametrize("with_policy", [False, True])
    def test_targets_follow_the_rule_and_sweeps_equal_the_reference(self, name, with_policy,
                                                                    monkeypatch):
        g, order = CUT_METRICS[name], CUT_ORDER
        gamma, state = build_gamma(g), initial_state(g)
        rounds = record_cofactor_targets(monkeypatch)
        kept = set()  # (step, c) of the off-diagonal real parts formed to N - m, 0 < m < N
        for step in (1, 2, 3):
            policy = step1_policy(g, order) if with_policy and step == 1 else CONSTANT_POLICY
            rounds.clear()
            expect = full_determinant_sweep(step, state, gamma, policy)
            out = ck_step(step, state, gamma, policy)
            assert rounds == [(m, expected_targets(state, step, m)) for m in range(order + 1)]
            kept |= {(step, c) for m, targets in rounds[1:-1]
                     for c, i in ((1, 1), (2, 3)) if targets[i] == order - m}
            for key in ENTRY_KEYS:
                assert out.entries[key] == expect.entries[key], (step, key)
            state = out
        assert kept == ({(1, 2), (3, 1)} if name == "constant_g13" else set())
        assert_all_zero(check_structure(CYStructureJet(
            h=state, gamma=gamma, g=tuple(map(tuple, g)), policy=None, order=order)))

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_a_cut_one_degree_deeper_is_refused(self, step, monkeypatch):
        # the pivot column's slice m >= 1 is read to degree N - m against a
        # slice 0 with a constant term, so cutting it further leaves a product
        # unknown to the degree the constraint reads
        g = CUT_METRICS["poly"]
        gamma, state = build_gamma(g), initial_state(g)
        for p in range(1, step):
            state = ck_step(p, state, gamma)
        record_cofactor_targets(monkeypatch, deeper=True)
        with pytest.raises(jets.JetError, match="is not known to order"):
            ck_step(step, state, gamma)


# -- the verifier's fused determinant ------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# constant term with every 2x2 minor nonzero, so that a change to any one entry
# moves det(h) at degree 1; det = 4 has a rational square root
DENSE_METRIC = {"g11": "2 + x2^2", "g12": "1 + x3/4", "g13": "1", "g22": "2 + x1*x3/4",
                "g23": "1 + x1/8", "g33": "2"}


def laplace_det(m):
    """det(m) of complex jets by the row-1 Laplace expression on exponent
    tuples: full-order products joined by full-order sums."""
    m = RefComplex.matrix(m)
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def scenario_structure(name):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / name)
    order, mode = parser.getint("scenario", "order"), parser["scenario"]["mode"]
    entries = {k: v.strip('"') for k, v in parser["metric"].items()}
    return solve_calabi_yau(metric_from_exprs(entries, order, mode), order)


def assert_fused_det_near_laplace(h, rel):
    m = _hmatrix(h)
    got, expect = RefComplex.of(det(m)), laplace_det(m)
    scale = max_abs([*expect.re.values(), *expect.im.values()])
    for part in ("re", "im"):
        diff = max_abs(ref_add(getattr(got, part), getattr(expect, part), -1).values())
        assert diff <= rel * scale, (part, diff, scale)


class TestFusedDeterminant:
    """check_structure's det(h), fused Cauchy sums, against the Laplace
    expression on exponent tuples."""

    @pytest.mark.parametrize("name", ["poly_embed.ini", "flat_embed.ini"])
    def test_exact_scenarios_equal_the_laplace_expression(self, name):
        m = _hmatrix(scenario_structure(name).h)
        assert RefComplex.of(det(m)) == laplace_det(m)

    @settings(max_examples=10)
    @given(data=st.data())
    def test_exact_generated_structures_equal_the_laplace_expression(self, data):
        order = data.draw(st.integers(2, 4))
        m = _hmatrix(solve_calabi_yau(data.draw(exact_metrics(order)), order).h)
        assert RefComplex.of(det(m)) == laplace_det(m)

    @pytest.mark.parametrize("entries", TRIG_METRICS + [DENSE_METRIC])
    def test_float_structures_agree_within_roundoff(self, entries):
        order = 6
        assert_fused_det_near_laplace(
            solve_calabi_yau(metric_from_exprs(entries, order, FLOAT), order).h, 1e-13)

    @settings(max_examples=10)
    @given(data=st.data())
    def test_float_generated_structures_agree_within_roundoff(self, data):
        order = data.draw(st.integers(2, 4))
        exact = data.draw(exact_metrics(order))
        g = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = float_copy(exact[i][j], data.draw)
        assert_fused_det_near_laplace(solve_calabi_yau(g, order).h, 1e-13)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("key, mirror", [("b12", None), ("b23", None), ("a12", "a21"),
                                             ("a23", "a32"), ("a31", "a13")])
    def test_a_perturbed_entry_fails_the_determinant(self, mode, key, mirror):
        # a b coefficient keeps h hermitian and moves det(h) by its square; an
        # a entry without its mirror makes h non-hermitian and moves it linearly
        order = 4
        cy = solve_calabi_yau(metric_from_exprs(DENSE_METRIC, order, mode), order)
        report = check_structure(cy)
        assert report.res_D == 0 if mode == EXACT else report.res_D < 1e-12
        entries = dict(cy.h.entries)
        entries[key] = entries[key] + Jet(order, {(1, 0, 0, 0, 0, 0): Fraction(1, 64)}, mode)
        report = check_structure(CYStructureJet(h=HermitianJet(entries), gamma=cy.gamma,
                                                g=cy.g, policy=cy.policy, order=order))
        assert report.res_D > (0 if mode == EXACT else 1e-6)
        if mirror is not None:
            assert report.res_symmetry > 0


def emptied(z):
    return ComplexJet(z.re.zero_like(), z.im.zero_like())


def with_term(jet, idx, value):
    """``jet`` with the coefficient at ``idx`` replaced."""
    return Jet(jet.order, {**jet.coeffs, idx: value}, jet.mode)


class TestTruncatedCofactors:
    """det of complex jets forms each cofactor only to the degrees its row-1 entry
    can reach, and must equal the full-order cofactor expression bit for bit."""

    @staticmethod
    def assert_same_bits(m):
        got, expect = det(m), full_order_complex_det(m)
        for part in ("re", "im"):
            a, b = getattr(got, part), getattr(expect, part)
            assert (a.order, a.mode, jet_terms(a)) == (b.order, b.mode, jet_terms(b)), part

    @pytest.mark.parametrize("mode,entries", [
        (EXACT, DENSE_METRIC), (FLOAT, DENSE_METRIC),  # constant off-diagonals
        (EXACT, POLY_METRICS[1]), (FLOAT, POLY_METRICS[1]),  # off-diagonals vanishing at 0
        (FLOAT, TRIG_METRICS[1]),  # off-diagonals vanishing to first order, or not at all
        (FLOAT, TRIG_METRICS[0]),  # a diagonal metric
    ])
    def test_solved_structures(self, mode, entries):
        order = 5
        m = _hmatrix(solve_calabi_yau(metric_from_exprs(entries, order, mode), order).h)
        self.assert_same_bits(m)
        for cols in ((1,), (2,), (1, 2), (0, 1, 2)):  # empty row-1 entries get no cofactor
            self.assert_same_bits([[emptied(z) if c in cols else z for c, z in enumerate(m[0])],
                                   *m[1:]])

    @pytest.mark.parametrize("where", [(0, 1), (1, 1), (2, 0)])
    def test_a_nan_coefficient(self, where):
        order = 5
        m = _hmatrix(solve_calabi_yau(metric_from_exprs(TRIG_METRICS[1], order, FLOAT), order).h)
        r, c = where
        z = m[r][c]
        for idx in ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, order)):  # low and top degree
            m[r][c] = ComplexJet(with_term(z.re, idx, math.nan), z.im)
            self.assert_same_bits(m)

    @settings(max_examples=10)
    @given(data=st.data())
    def test_generated_float_structures(self, data):
        order = data.draw(st.integers(2, 5))
        exact = data.draw(exact_metrics(order))
        g = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = float_copy(exact[i][j], data.draw)
        self.assert_same_bits(_hmatrix(solve_calabi_yau(g, order).h))

    def test_cofactor_orders(self, monkeypatch):
        # a11 has a constant term, a12 + i b12 and a13 + i b13 vanish to second order:
        # both parts of the cofactors of the last two are formed to order 5 - 2
        order = 5
        m = _hmatrix(solve_calabi_yau(metric_from_exprs(POLY_METRICS[1], order), order).h)
        assert [min(map(sum, [*z.re.coeffs, *z.im.coeffs])) for z in m[0]] == [0, 2, 2]
        orders = []
        fused = jets.mul_sum
        monkeypatch.setattr(jets, "mul_sum", lambda terms, o: orders.append(o) or fused(terms, o))
        det(m)
        assert orders == [5, 5, 3, 3, 3, 3, 5, 5]
