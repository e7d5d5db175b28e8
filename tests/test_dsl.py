import contextlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slagcy.dsl import (
    FUNCTIONS,
    BinOp,
    Call,
    EvalDomainError,
    Num,
    ParseError,
    Pow,
    Var,
    eval_grid,
    eval_jet,
    free_variables,
    parse,
)
from slagcy.gridops import periodic_axis, periodic_quad
from slagcy.jets import EXACT, FLOAT, X1, X2, X3, Jet, JetDomainError


def bessel_i0(t, terms=60):
    return math.fsum((t / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


# a sample point of (t, x1, x2, x3) away from the domain boundaries of the corpus
SAMPLE = {"t": 0.7, "x1": 0.3, "x2": 1.9, "x3": 0.45}


def assert_evaluates_like_python(text):
    """eval_grid(parse(text)) at SAMPLE against Python's evaluation of the same
    text, with ``^`` read as ``**`` and every number a numpy double; the two
    differ only in rounding, e.g. where the parser folds a literal ratio."""
    got = eval_grid(parse(text), SAMPLE)
    names = {"_n": np.float64, "pi": math.pi, "e": math.e, "exp": np.exp, "log": np.log,
             "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
    names.update((name, np.asarray(v)) for name, v in SAMPLE.items())
    code = re.sub(r"(?<![\w.])([0-9]+\.?[0-9]*|\.[0-9]+)", r"_n('\1')", text).replace("^", "**")
    with np.errstate(all="ignore"):
        want = eval(code, {"__builtins__": {}}, names)
    assert np.isclose(got, want, rtol=1e-9, atol=1e-9), (text, code, got, want)


class TestParse:
    def test_precedence(self):
        assert eval_grid(parse("1+2*3"), {}) == 7
        assert eval_grid(parse("2*3^2"), {}) == 18
        assert eval_grid(parse("-2^2"), {}) == -4  # ^ binds tighter than unary minus
        assert eval_grid(parse("6-2-3"), {}) == 1  # left associative
        assert eval_grid(parse("12/3/2"), {}) == 2

    def test_literal_ratio_folds(self):
        assert parse("1/2") == Num(Fraction(1, 2))
        assert parse("17/16") == Num(Fraction(17, 16))
        assert isinstance(parse("1/x1"), BinOp)

    def test_rational_exponents(self):
        assert parse("x1^2") == Pow(Var("x1"), Fraction(2))
        assert parse("x1^(1/3)") == Pow(Var("x1"), Fraction(1, 3))
        assert parse("x1^(-2/3)") == Pow(Var("x1"), Fraction(-2, 3))
        assert parse("x1^-2") == Pow(Var("x1"), Fraction(-2))
        assert parse("x1^0.5") == Pow(Var("x1"), Fraction(1, 2))
        assert parse("2^3^2") == Pow(Num(Fraction(2)), Fraction(9))

    def test_functions_and_constants(self):
        e = parse("exp(t*sin(2*pi*x1))")
        assert isinstance(e, Call) and e.fn == "exp"
        assert eval_grid(e, {"t": 1.0, "x1": 0.0}) == pytest.approx(1.0)

    def test_parse_error_offsets(self):
        with pytest.raises(ParseError) as err:
            parse("sin(")
        assert err.value.offset == 4
        with pytest.raises(ParseError) as err:
            parse("1+")
        assert err.value.offset == 2
        with pytest.raises(ParseError) as err:
            parse("x1^x2")
        assert err.value.offset == 3
        with pytest.raises(ParseError) as err:
            parse("1 ? 2")
        assert err.value.offset == 2
        with pytest.raises(ParseError) as err:
            parse("foo(1)")
        assert err.value.offset == 0

    def test_unknown_token_after_expression(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("1 2")

    CORPUS = [
        "1+2*3", "x1*x2 - x3/2", "-x1^2", "-(x1+1)^2", "2-(3-4)", "x1/(x2*x3)",
        "exp(-2*t*sin(2*pi*x1))", "17/16*exp(-t*cos(2*pi*x1))",
        "sqrt(1 + cos(2*pi*x2)/4)", "x1^(1/3) + x2^(-2/3)", "1/(1 - x2*x3/4)",
        "(1 + t*x1^2)^2", "pi*e", "-1/4", "t - -x1",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_evaluates_like_python(self, text):
        assert_evaluates_like_python(text)

    def test_free_variables(self):
        assert free_variables(parse("exp(t*sin(2*pi*x1)) + x3")) == {"t", "x1", "x3"}
        assert free_variables(parse("1 + pi")) == set()


@st.composite
def mutated(draw, text, alphabet):
    """``text`` with 1-4 spans of up to 8 characters each replaced by up to 6
    characters, drawn from ``alphabet`` or from all of Unicode."""
    chars = st.one_of(st.sampled_from(alphabet), st.characters())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(chars, max_size=6)) + text[j:]
    return text


EXPONENTS = st.one_of(st.integers(0, 4).map(str),
                      st.sampled_from(["(-1)", "(-2)", "(1/2)", "(2/3)", "(-1/3)", "2^2", "(1/2)^3"]))


def expr_text(atoms=st.sampled_from(["x1", "x2", "x3", "t", "pi", "e", "0", "1", "7",
                                     "0.25", "(1/3)", "2/3"])):
    """Expression text over the whole grammar: every operator, function and
    exponent form, with and without parentheses around each part."""
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            inner.map(lambda a: f"-{a}"),
            inner.map(lambda a: f"({a})"),
            st.tuples(inner, EXPONENTS).map(lambda p: f"{p[0]}^{p[1]}"),
            st.tuples(inner, EXPONENTS).map(lambda p: f"({p[0]})^{p[1]}"),
            st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda p: f"{p[0]}({p[1]})"))
    return st.recursive(atoms, extend, max_leaves=20)


class TestParseGenerated:
    """``parse`` reads every expression as Python reads the same text."""

    @settings(max_examples=400)
    @given(text=expr_text())
    @example(text="2^2^3^2")  # 2^(2^9), not 2^((2^3)^2)
    @example(text="x2^3^2^2")
    @example(text="(x1^2)^3")
    @example(text="(x1^(2/3))^3")
    @example(text="((1/3)^2)^(1/2)")
    def test_evaluates_like_python(self, text):
        try:
            assert_evaluates_like_python(text)
        except (ParseError, EvalDomainError):
            assume(False)  # a fractional exponent in a power chain, a sample off the domain


class TestParseErrorsGenerated:
    """``parse`` raises ParseError and nothing else on malformed text."""

    @settings(max_examples=150)
    @given(text=st.text())
    def test_arbitrary_text(self, text):
        with contextlib.suppress(ParseError):
            parse(text)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_mutated_expressions(self, data):
        text = data.draw(st.sampled_from(TestParse.CORPUS))
        with contextlib.suppress(ParseError):
            parse(data.draw(mutated(text, "0123456789.+-*/^() xtpie")))

    @pytest.mark.parametrize("text", [
        "\u00b2", "x1^(1/0)", "x1^(0)^-1", "x1^0^-1", "(" * 3000 + "1", "-" * 3000 + "1",
        "1" * 5000, "2^2^2^2^2^2",
    ], ids=["superscript digit", "zero exponent denominator", "zero to a negative power",
            "zero chain to a negative power", "deep parentheses", "deep negation",
            "5000-digit literal", "huge literal power chain"])
    def test_former_escapes_raise_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestEvalGrid:
    def test_identity_on_grid(self):
        x = periodic_axis(4)
        vals = eval_grid(parse("x1"), {"x1": x})
        assert np.allclose(vals, [0, 0.25, 0.5, 0.75])

    def test_sine_integrates_to_zero(self):
        x = periodic_axis(16)
        q = periodic_quad(eval_grid(parse("sin(2*pi*x1)"), {"x1": x}))
        assert abs(q) < 1e-15

    def test_bessel_quadrature(self):
        x = periodic_axis(64)
        q = periodic_quad(eval_grid(parse("exp(-t*sin(2*pi*x1))"), {"x1": x, "t": 1.0}))
        assert abs(q - bessel_i0(1.0)) < 1e-12

    def test_domain_error_reports_index(self):
        x = np.array([0.5, 1.5, -0.5])
        with pytest.raises(EvalDomainError, match=r"\(2,\)"):
            eval_grid(parse("log(x1)"), {"x1": x})
        with pytest.raises(EvalDomainError, match="grid index"):
            eval_grid(parse("x1^(1/2)"), {"x1": x})

    @pytest.mark.parametrize("text,message", [
        ("1 + x1^-2", r"negative power of a zero sample at grid index \(1,\)"),
        ("1 + 1/x1^2", r"division by a zero sample at grid index \(1,\)"),
        ("sqrt(x1)", r"sqrt of a non-positive sample at grid index \(1,\)"),
        ("exp(800*x1)", r"non-finite value at grid index \(2,\)"),
        ("(2 + x1)^2000", r"non-finite value at grid index \(0,\)"),
        ("x1^(1/2) - x1^(1/2)", r"fractional power of a non-positive sample"),
        ("1" + "0" * 400 + " + x1", "float overflow"),
    ])
    def test_one_domain_table(self, text, message):
        # a zero sample fails a negative power as it fails a division, and a
        # value that overflows fails with its index, not with a RuntimeWarning
        with pytest.raises(EvalDomainError, match=message):
            eval_grid(parse(text), {"x1": np.array([0.5, 0.0, 1.0])})

    def test_unbound_variable(self):
        with pytest.raises(EvalDomainError, match="unbound"):
            eval_grid(parse("x2"), {"x1": 0.0})


class TestEvalJet:
    def gens(self, order=3, mode=EXACT):
        return {
            "x1": Jet.variable(X1, order, mode),
            "x2": Jet.variable(X2, order, mode),
            "x3": Jet.variable(X3, order, mode),
            "t": Jet.constant(0, order, mode),
        }

    def test_square_at_origin(self):
        jet = eval_jet(parse("x1^2"), self.gens(order=2))
        assert jet == Jet.from_terms({(2, 0, 0, 0, 0, 0): 1}, 2)

    def test_exp_taylor(self):
        jet = eval_jet(parse("exp(x2)"), self.gens())
        expect = Jet.from_terms({(0, k, 0, 0, 0, 0): Fraction(1, math.factorial(k))
                                 for k in range(4)}, 3)
        assert jet == expect

    def test_pi_rejected_in_exact_mode(self):
        with pytest.raises(JetDomainError, match="exact"):
            eval_jet(parse("pi*x1"), self.gens())

    def test_grid_consistency_random(self):
        rng = random.Random(31)
        pool = ["x1", "x2", "x3", "sin(x1)", "cos(x2)", "exp(x3/2)", "1/2", "x1*x2",
                "sqrt(1+x1^2)", "(1+x2)^(3/2)", "x3^2"]
        base = {"x1": 0.3, "x2": -0.2, "x3": 0.7}
        # generators shifted to the point, so jets expand around it
        gens = {
            "x1": Jet.variable(X1, 3, FLOAT) + 0.3,
            "x2": Jet.variable(X2, 3, FLOAT) - 0.2,
            "x3": Jet.variable(X3, 3, FLOAT) + 0.7,
            "t": Jet.constant(0, 3, FLOAT),
        }
        for _ in range(30):
            text = "(" + ") + (".join(rng.sample(pool, 3)) + ")"
            ast = parse(text)
            jet = eval_jet(ast, gens)
            grid_value = float(eval_grid(ast, base))
            assert jet.constant_term == pytest.approx(grid_value, abs=1e-14)

    def test_differentiation_consistency_polynomial(self):
        # jets and the symbolic derivative (sympy) agree exactly on the polynomial fragment
        sympy = pytest.importorskip("sympy")
        corpus = ["x1^2*x2 + x3", "(1+x1)^3 - x2*x3", "x1*x2*x3", "x2^4/4"]
        for text in corpus:
            jet = eval_jet(parse(text), self.gens(order=4))
            expr = sympy.sympify(text.replace("^", "**"))
            for name, v in (("x1", X1), ("x2", X2), ("x3", X3)):
                sym = str(sympy.expand(sympy.diff(expr, name))).replace("**", "^")
                assert jet.partial(v) == eval_jet(parse(sym), self.gens(order=3))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("base,n,rel", [("x1-2", 1, 1e-15), ("x1-2", 3, 1e-15),
                                            ("x2/3 - x1 - 5/4", 3, 1e-14)])
    def test_negative_power_of_a_negative_constant_term(self, mode, base, n, rel):
        # the binomial series against the reciprocal: equal in exact mode, and
        # apart by roundoff (relative ``rel``) in float mode
        power = eval_jet(parse(f"({base})^-{n}"), self.gens(order=5, mode=mode))
        quotient = eval_jet(parse(f"1/({base})^{n}"), self.gens(order=5, mode=mode))
        if mode == EXACT:
            assert power == quotient
        else:
            assert power.coeffs.keys() == quotient.coeffs.keys()
            for idx, c in quotient.coeffs.items():
                assert abs(power.coeffs[idx] - c) <= rel * abs(c), idx

    def test_negative_power_of_a_positive_constant_term_is_unchanged(self):
        jet = eval_jet(parse("(5 + x1)^(-2)"), self.gens(order=3, mode=FLOAT))
        assert {idx[0]: c.hex() for idx, c in jet.coeffs.items()} == {
            0: "0x1.47ae147ae147bp-5", 1: "-0x1.0624dd2f1a9fcp-6",
            2: "0x1.3a92a30553262p-8", 3: "-0x1.4f8b588e368f1p-10"}

    def test_negative_power_needs_a_non_zero_constant_term(self):
        with pytest.raises(JetDomainError, match="non-zero constant term"):
            eval_jet(parse("x1^-2"), self.gens())

    @pytest.mark.parametrize("text", ["exp(1000 + x1)", "(2+x1)^2000", "(1/2 + x1)^-2000",
                                      "1" + "0" * 400 + " + x1"])
    def test_float_coefficients_must_be_finite(self, text):
        with pytest.raises(JetDomainError, match="float overflow|non-finite"):
            eval_jet(parse(text), self.gens(mode=FLOAT))

    def test_integer_power_at_zero_base_allowed(self):
        jet = eval_jet(parse("x1^3"), self.gens(order=4))
        assert jet.coeffs == {(3, 0, 0, 0, 0, 0): 1}
        with pytest.raises(JetDomainError):
            eval_jet(parse("x1^(1/2)"), self.gens(order=4))
