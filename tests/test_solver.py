import contextlib
import functools
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slagcy import solver
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
        assert gamma.im.is_zero()

    def test_unit_determinant_exponentials(self):
        g = metric_from_exprs({"g11": "exp(x2)", "g33": "exp(-x2)"}, 4)
        gamma = build_gamma(g)
        assert gamma.re == Jet.constant(1, 4)
        assert gamma.im.is_zero()

    def test_conformal_scaling_binomial(self):
        g = metric_from_exprs({"g11": "1+x1", "g22": "1+x1", "g33": "1+x1"}, 2)
        gamma = build_gamma(g)
        restricted = gamma.re.restrict_zero((Y1, Y2, Y3))
        # (1+x1)^(3/2) = 1 + (3/2) x1 + (3/8) x1^2 + ...
        assert restricted == Jet.from_terms(
            {(0,) * 6: 1, (1, 0, 0, 0, 0, 0): Fraction(3, 2),
             (2, 0, 0, 0, 0, 0): Fraction(3, 8)}, 2)
        assert gamma.im.restrict_zero((Y1, Y2, Y3)).is_zero()

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
                assert st.h.B(i, j).is_zero()
        assert st.gamma.re == Jet.constant(1, order)
        assert st.gamma.im.is_zero()
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
            assert out.entries[key].is_zero()

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
            assert out.entries[key].is_zero()

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
                assert st_alt.h.B(i, j).restrict_zero((Y1, Y2, Y3)).is_zero()

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
        assert sl == Jet.from_terms({(0, 2, 0, 0, 0, 0): 4}, 2)
        assert st.h.entries["b12"].restrict_zero((Y2, Y3)) == Jet.from_terms(
            {(0, 1, 0, 1, 0, 0): -2, (0, 1, 0, 3, 0, 0): Fraction(-8, 3)}, 4)

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
        assert sl == Jet.from_terms({(0, 2, 0, 0, 0, 0): 4}, 2)


class TestCheckStructure:
    def test_detects_corruption(self):
        order = 4
        st = solve_calabi_yau(metric_from_exprs(POLY_METRICS[0], order), order)
        corrupted_entries = dict(st.h.entries)
        bump = Jet.from_terms({(1, 0, 0, 1, 0, 0): Fraction(1, 100)}, order)
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
                d = cur[src].slice_coeff(ev, m - 1).partial(var)
                if sign < 0:
                    d = -d
                rhs = d if rhs is None else rhs + d
            new_slices[key] = rhs / m
        for key, sl in new_slices.items():
            cur[key] = cur[key] + sl.mul_monomial(ev, m)
        for dst, src in MIRRORS[step]:
            cur[dst] = cur[dst] + new_slices[src].mul_monomial(ev, m)
        det_rest = det(_hmatrix(HermitianJet({k: capped(cur[k], ev, m)
                                              for k in ENTRY_KEYS}))).re
        numer = gamma_sq.slice_coeff(ev, m) - det_rest.slice_coeff(ev, m)
        d_slice = numer / truncated(cof0, order - m)
        cur[d_key] = cur[d_key] + d_slice.mul_monomial(ev, m)
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
            g[i][j] = g[j][i] = Jet.from_terms(terms, order)
    return g


def float_copy(jet, draw):
    """``jet`` in float mode, every non-constant coefficient nudged by a random
    relative amount, so the coefficients are not short binary fractions."""
    nudge = st.floats(-0.1, 0.1, allow_nan=False)
    return Jet.from_terms({idx: float(c) * (1 + (draw(nudge) if any(idx) else 0))
                           for idx, c in jet.coeffs.items()}, jet.order, FLOAT)


def _perturbed(draw, jet, ev, allowed):
    """``jet`` plus random monomials carrying the evolution variable ev."""
    terms = draw(st.dictionaries(monomial_keys(jet.order, ev, allowed), _SMALL,
                                 min_size=1, max_size=4))
    return jet + Jet.from_terms(terms, jet.order)


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

        def counted_reciprocal(jet):
            calls["reciprocal"] += 1
            return reciprocal(jet)

        def counted_det(m):
            calls["det"] += 1
            return full_det(m)

        monkeypatch.setattr(Jet, "reciprocal", counted_reciprocal)
        monkeypatch.setattr(solver, "det", counted_det)
        gamma = build_gamma(g)
        in_gamma = calls["reciprocal"]
        calls.update(reciprocal=0, det=0)
        state = initial_state(g)
        for step in (1, 2, 3):
            state = ck_step(step, state, gamma)
        assert calls == {"reciprocal": 3, "det": 0}
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
        assert not any(part.is_zero() for name in parts for part in parts[name])
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
            assert list(restricted.coeffs.items()) == list(
                gamma.restrict_zero(Y_VARS[p:]).abs2().coeffs.items())

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
