"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slagcy.cli import main
from slagcy.dsl import eval_jet, parse
from slagcy.families import (
    check_slag_family,
    family_from_entries,
    family_to_policy,
    make_cone_family,
)
from slagcy.hodge import phi_2d, phi_curve
from slagcy.jets import (
    EXACT,
    FLOAT,
    NVARS,
    X1,
    X2,
    X3,
    Y1,
    Y2,
    Y3,
    Jet,
    holomorphic_extend,
)
from slagcy.solver import check_structure, horizontal_slice_residuals, solve_calabi_yau

from oracles import assert_cauchy_riemann

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

ORDER = 6

BESSEL = {"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
          "g33": "exp(t*sin(2*pi*x1))"}

EXACT_METRICS = [
    {"g11": "1 + x2^2"},
    {"g11": "1 + x2^2/4", "g12": "x2*x3/8", "g22": "1 + x3^2/4", "g23": "x1*x2/8",
     "g33": "1 + x1^2/2"},
    {"g11": "1/(1 - x2*x3/4)", "g13": "x1*x3/8", "g22": "1 + x1^2/4"},
]

FLOAT_METRICS = [
    {"g11": "1 + sin(2*pi*x1)/10", "g22": "1 + cos(2*pi*x2)/10",
     "g33": "1 + sin(2*pi*x3)/10"},
    {"g11": "1 + cos(2*pi*x2)/10", "g12": "sin(2*pi*x1)/20",
     "g22": "1 + sin(2*pi*x3)/10", "g23": "cos(2*pi*x3)/20",
     "g33": "1 + sin(2*pi*x1)/10"},
    {"g11": "1 + sin(2*pi*(x1+x2))/10", "g22": "1 + cos(2*pi*(x2+x3))/10",
     "g33": "1 + cos(2*pi*x3)/10"},
]

TWO_D_FAMILIES = [
    {"g11": "exp(t*cos(2*pi*x1))", "g22": "exp(-t*cos(2*pi*x1))"},
    {"g11": "exp(t*cos(2*pi*x1))", "g12": "1/4", "g22": "17/16*exp(-t*cos(2*pi*x1))"},
    {"g11": "exp(t*sin(2*pi*x1))", "g22": "(1 + cos(2*pi*x2)/4)*exp(-t*sin(2*pi*x1))"},
]


def report_line(criterion, passed):
    state = "PASS" if passed else "FAIL"
    print(f"\nacceptance criterion {criterion}: {state}")


def metric_from_exprs(entries, order, mode=EXACT):
    env = {
        "x1": Jet.variable(X1, order, mode),
        "x2": Jet.variable(X2, order, mode),
        "x3": Jet.variable(X3, order, mode),
        "t": Jet.constant(0, order, mode),
    }
    g = [[None] * 3 for _ in range(3)]
    for i in range(1, 4):
        for j in range(i, 4):
            text = entries.get(f"g{i}{j}", "1" if i == j else "0")
            g[i - 1][j - 1] = g[j - 1][i - 1] = eval_jet(parse(text), env)
    return g


def bessel_i0(t, terms=80):
    return math.fsum((t / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


def test_criterion_1_flat_reproduction():
    passed = False
    try:
        t0 = time.perf_counter()
        g = metric_from_exprs({}, ORDER)
        st = solve_calabi_yau(g, ORDER)
        rep = check_structure(st)
        elapsed = time.perf_counter() - t0
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert st.h.A(i, j) == Jet.constant(1 if i == j else 0, ORDER)
                assert st.h.B(i, j).coeffs == {}
        assert st.gamma.re == Jet.constant(1, ORDER)
        assert st.gamma.im.coeffs == {}
        for name, value in rep.as_dict().items():
            assert value == 0, name
        assert elapsed < 1.0, f"flat solve took {elapsed:.2f}s"
        passed = True
    finally:
        report_line("1 (flat reproduction, order 6, exact)", passed)


def test_criterion_2_ck_residual_suite():
    passed = False
    try:
        t0 = time.perf_counter()
        for entries in EXACT_METRICS:
            st = solve_calabi_yau(metric_from_exprs(entries, ORDER, EXACT), ORDER)
            rep = check_structure(st)
            for name, value in rep.as_dict().items():
                assert value == 0, f"{entries}: {name} = {value}"
        for entries in FLOAT_METRICS:
            st = solve_calabi_yau(metric_from_exprs(entries, ORDER, FLOAT), ORDER)
            rep = check_structure(st)
            worst = float(rep.max_residual())
            assert worst < 1e-12, f"{entries}: max residual {worst}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"residual suite took {elapsed:.1f}s"
        passed = True
    finally:
        report_line("2 (residuals for 6 non-flat metrics, order 6)", passed)


def test_criterion_3_low_order_oracle():
    passed = False
    try:
        st = solve_calabi_yau(metric_from_exprs({"g11": "1 + x2^2"}, 4, EXACT), 4)
        slice_y1sq = st.h.A(1, 1).slice_coeff(Y1, 2).restrict_zero((Y2, Y3))
        # independent Picard iteration of the reduced system
        # db/dy1 = -d(a)/dx2, a = (1 + x2^2) + b^2 (sympy, integral form)
        sympy = pytest.importorskip("sympy")
        x2s, y1s = sympy.symbols("x2 y1")
        a, b = 1 + x2s ** 2, sympy.Integer(0)
        for _ in range(5):
            a = sympy.expand(1 + x2s ** 2 + b ** 2) + sympy.O(y1s ** 4)
            a = a.removeO()
            b = sympy.integrate(-sympy.diff(a, x2s), y1s)
        oracle_coeff = sympy.expand(a).coeff(y1s, 2)
        oracle_jet = Jet(2, {(0, int(m), 0, 0, 0, 0): Fraction(int(c))
                             for m, c in sympy.Poly(oracle_coeff, x2s).all_terms()
                             for (m,), c in [((m[0],), c)] if c != 0}, EXACT)
        assert slice_y1sq == oracle_jet
        assert slice_y1sq == Jet(2, {(0, 2, 0, 0, 0, 0): 4}, EXACT)
        passed = True
    finally:
        report_line("3 (low-order coefficient vs independent derivation)", passed)


def test_criterion_4_one_parameter_family_predicate():
    passed = False
    try:
        bessel = family_from_entries(BESSEL)
        rep = check_slag_family(bessel, n=256, nt=9, tol=1e-12)
        assert rep.passed(), rep.as_dict()
        drift = family_from_entries({"g11": "exp(t)", "g22": "1", "g33": "1"})
        rep_drift = check_slag_family(drift, n=64, nt=9, tol=1e-12)
        assert not rep_drift.passed()
        assert rep_drift.det_t_independence > 1e-2

        g, policy = family_to_policy(bessel, 0.25, order=4)
        st = solve_calabi_yau(g, 4, policy)
        res = horizontal_slice_residuals(st)
        assert res["B_slice"] == 0.0  # bitwise: the evolution sources vanish
        assert float(res["im_gamma_slice"]) < 1e-12

        # exact-rational admissible family: the slice conditions hold bitwise
        rational = family_from_entries(
            {"g11": "(1 + t*x1^2)^2", "g22": "1/(1 + t*x1^2)",
             "g33": "1/(1 + t*x1^2)"},
            t_range=(0.0, 0.5), periodic=(False, True, True))
        g2, policy2 = family_to_policy(rational, Fraction(1, 4), order=4, mode=EXACT)
        st2 = solve_calabi_yau(g2, 4, policy2)
        res2 = horizontal_slice_residuals(st2)
        assert res2["B_slice"] == 0
        assert res2["im_gamma_slice"] == 0
        for name, value in check_structure(st2).as_dict().items():
            assert value == 0, name
        passed = True
    finally:
        report_line("4 (admissibility predicate and special Lagrangian slices)", passed)


def test_criterion_5_cone_family_determinant():
    passed = False
    try:
        fam = make_cone_family("1")
        x1 = ((np.arange(64) + 0.5) / 64)[:, None]
        x2 = (np.arange(64) / 64)[None, :]
        axes = {"x1": x1, "x2": x2, "x3": 0.0}
        for t in (0.1, 1.0):
            m = fam.sample_matrix(t, axes)
            det = np.asarray(m[0][0]) * np.asarray(m[1][1]) * np.asarray(m[2][2])
            worst = float(np.max(np.abs(det - 1.0 / 9.0)))
            assert worst < 1e-12, f"t={t}: |det - f^2/9| = {worst}"
        passed = True
    finally:
        report_line("5 (cone family determinant identity det = f^2/9)", passed)


def test_criterion_6_two_dimensional_constancy():
    passed = False
    try:
        t0 = time.perf_counter()
        ts = np.linspace(0.0, 1.0, 21)
        for entries in TWO_D_FAMILIES:
            fam = family_from_entries(entries, dim=2)
            curve = phi_2d(fam, ts, n=128)
            worst = float(np.max(np.abs(curve.phi - 1.0)))
            assert worst < 1e-8, f"{entries}: max |phi - 1| = {worst}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"2D constancy suite took {elapsed:.1f}s"
        passed = True
    finally:
        report_line("6 (2D obstruction constant for 3 admissible families)", passed)


def test_criterion_7_three_dimensional_non_constancy():
    passed = False
    try:
        fam = family_from_entries(BESSEL)
        ts = np.linspace(0.0, 1.0, 21)
        curve = phi_curve(fam, ts, n=256)
        oracle = bessel_i0(1.0) ** 2 / bessel_i0(2.0)
        assert abs(curve.phi[-1] - oracle) < 1e-6
        assert curve.phi[-1] < 1.0 - 1e-3
        assert curve.spread() > 0.29
        passed = True
    finally:
        report_line("7 (3D obstruction non-constant, Bessel closed form)", passed)


def test_criterion_8_invariance_suites():
    passed = False
    try:
        # Cauchy-Riemann exactness of the holomorphic extension
        rng = random.Random(101)
        for _ in range(25):
            terms = {}
            for _ in range(6):
                idx = [0] * NVARS
                for _ in range(rng.randint(0, 4)):
                    idx[rng.choice((X1, X2, X3))] += 1
                terms[tuple(idx)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            f = Jet(4, terms, EXACT)
            ext = holomorphic_extend(f)
            assert_cauchy_riemann(ext)
            assert ext.re.restrict_zero((Y1, Y2, Y3)) == f
            assert ext.im.restrict_zero((Y1, Y2, Y3)).coeffs == {}

        # quadrature spectral convergence: doubling n leaves phi fixed
        fam = family_from_entries(BESSEL)
        ts = [0.35, 0.8]
        phi_n = phi_curve(fam, ts, n=128).phi
        phi_2n = phi_curve(fam, ts, n=256).phi
        assert float(np.max(np.abs(phi_n - phi_2n))) < 1e-12

        # jet ring axioms on 1000 random triples, coefficient-exact
        rng = random.Random(202)
        def rand_jet():
            terms = {}
            for _ in range(4):
                idx = [0] * NVARS
                for _ in range(rng.randint(0, 3)):
                    idx[rng.choice((X1, X2, Y1))] += 1
                terms[tuple(idx)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return Jet(3, terms, EXACT)
        for _ in range(1000):
            a, b, c = rand_jet(), rand_jet(), rand_jet()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
        passed = True
    finally:
        report_line("8 (invariance suites: CR, quadrature, ring)", passed)


def test_criterion_9_cli_contract(tmp_path):
    passed = False
    try:
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["embed", "--scenario", str(SCENARIOS / "flat_embed.ini"),
                         "--deterministic", "--out-json", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == (GOLDEN / "flat_embed.json").read_bytes()

        code = main(["family-check", "--scenario", str(SCENARIOS / "det_drift_check.ini"),
                     "--out-json", str(tmp_path / "drift.json")])
        assert code == 1

        bad = tmp_path / "bad.ini"
        bad.write_text('[scenario]\nkind = embed\nmode = exact\n\n'
                       '[metric]\ng11 = "sin("\ng22 = "1"\ng33 = "1"\n')
        code = main(["embed", "--scenario", str(bad)])
        assert code == 2
        passed = True
    finally:
        report_line("9 (CLI exit codes and byte-stable golden report)", passed)
