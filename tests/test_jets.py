import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slagcy import jets
from slagcy.dsl import eval_jet, parse
from slagcy.jets import (
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
    IncompatibleJetsError,
    Jet,
    JetDomainError,
    JetError,
    det,
    from_slices,
    holomorphic_extend,
    jet_call,
    jet_pow,
    leading_minors,
    mul_sum,
    partial_sum,
    within,
    worst,
)
from slagcy.jets import _pack, _series, _unpack

from oracles import (
    RefComplex,
    assert_cauchy_riemann,
    partial_of,
    ref_add,
    ref_holomorphic,
    ref_mul,
    ref_partial,
)


def grlex_key(idx):
    """Graded-lexicographic sort key of an exponent tuple: total degree, then lex."""
    return (sum(idx), idx)


def var(k, order=4, mode=EXACT):
    return Jet.variable(k, order, mode)


def const(v, order=4, mode=EXACT):
    return Jet.constant(v, order, mode)


def truncated(jet, order):
    """``jet`` without its terms above total degree ``order``."""
    return Jet(order, {i: c for i, c in jet.coeffs.items() if sum(i) <= order}, jet.mode)


def random_jet(rng, order=3, vars=(X1, X2, Y1), nterms=5, mode=EXACT):
    terms = {}
    for _ in range(nterms):
        idx = [0] * NVARS
        deg = rng.randint(0, order)
        for _ in range(deg):
            idx[rng.choice(vars)] += 1
        if mode == EXACT:
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            coeff = rng.uniform(-2, 2)
        terms[tuple(idx)] = coeff
    return Jet(order, terms, mode)


class TestArithmetic:
    def test_product_of_conjugates(self):
        x1 = var(X1, order=2)
        prod = (1 + x1) * (1 - x1)
        assert prod == Jet(2, {(0,) * 6: 1, (2, 0, 0, 0, 0, 0): -1}, EXACT)

    def test_self_division_is_one(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_jet(rng)
            a = a - a.constant_term + 1  # unit constant term
            q = a / a
            assert q == const(1, a.order)

    def test_geometric_series(self):
        x2 = var(X2, order=3)
        q = const(1, 3) / (1 - x2)
        expected = Jet(3, {(0, k, 0, 0, 0, 0): 1 for k in range(4)}, EXACT)
        assert q == expected
        # multiply back: (1 - x2) * q == 1 up to truncation
        assert (1 - x2) * q == const(1, 3)

    def test_ring_axioms_random(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b, c = (random_jet(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_mul_truncation_depends_only_on_low_degrees(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_jet(rng, order=3)
            b = random_jet(rng, order=3)
            prod = a * b
            # pad with arbitrary degree-4 terms at a higher order; the
            # truncation back to 3 must be unchanged
            pad = {(4, 0, 0, 0, 0, 0): Fraction(3), (0, 2, 0, 2, 0, 0): Fraction(-7, 2)}
            a4 = Jet(4, {**a.coeffs, **pad}, EXACT)
            b4 = Jet(4, dict(b.coeffs), EXACT)
            assert truncated(a4 * b4, 3) == prod

    def test_division_by_zero_constant_term(self):
        with pytest.raises(JetDomainError, match="singular leading coefficient"):
            const(1) / var(X1)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_reciprocal_negates_no_jet(self, mode, monkeypatch):
        a = const(2, mode=mode) + var(X1, mode=mode) - var(X2, mode=mode) * var(Y1, mode=mode)
        negations = []
        neg = Jet.__neg__
        monkeypatch.setattr(Jet, "__neg__", lambda self: negations.append(1) or neg(self))
        assert a * a.reciprocal() == const(1, mode=mode)
        assert negations == []

    def test_incompatible_operands(self):
        with pytest.raises(IncompatibleJetsError):
            var(X1, order=3) + var(X1, order=4)
        with pytest.raises(IncompatibleJetsError):
            var(X1, mode=EXACT) * var(X1, order=4, mode=FLOAT)

    def test_float_coefficients_rejected_in_exact_mode(self):
        with pytest.raises(JetDomainError):
            Jet.constant(0.5, 3, EXACT)
        with pytest.raises(JetDomainError, match="float scalar 0.5"):
            Jet(3, {(1, 0, 0, 0, 0, 0): 0.5}, EXACT)

    def test_the_constructor_coerces_each_scalar_to_the_mode(self):
        floats = Jet(2, {(0,) * 6: 1, (1, 0, 0, 0, 0, 0): Fraction(1, 4)}, FLOAT)
        assert [type(c) for c in floats.coeffs.values()] == [float, float]
        assert floats == Jet.constant(1, 2, FLOAT) + var(X1, order=2, mode=FLOAT) / 4

    def test_integer_power(self):
        x = var(X1, order=5)
        assert (1 + x) ** 3 == 1 + 3 * x + 3 * x * x + x * x * x
        assert x ** 0 == const(1, 5)


# -- generated jets and Cauchy sums ----------------------------------------------

_DENOMINATORS = (1, 2, 3, 4, 7, 8, 9, 16, 27, 125)
_SCALARS = {
    EXACT: st.sampled_from(sorted(
        {Fraction(n, d) for n in range(-40, 41) for d in _DENOMINATORS},
        key=lambda v: (abs(v.numerator) + v.denominator, v))),
    FLOAT: st.floats(-4, 4, allow_nan=False, allow_infinity=False),
}


@functools.cache
def gen_jets(order, mode=EXACT, nvars=NVARS, size=6):
    """Jets with up to ``size`` terms in the first ``nvars`` variables (all six
    by default; 3 gives x-only jets); may be zero.  Cached, so each strategy is
    built once (hypothesis hashes the sampled lists)."""
    monomials = [()]
    for _ in range(nvars):  # only the exponent tuples of degree <= order
        monomials = [m + (e,) for m in monomials for e in range(order + 1 - sum(m))]
    monomials = sorted((m + (0,) * (NVARS - nvars) for m in monomials), key=grlex_key)
    terms = st.dictionaries(st.sampled_from(monomials), _SCALARS[mode], max_size=size)
    return terms.map(lambda t: Jet(order, t, mode))


@st.composite
def cauchy_sums(draw, mode, max_order=4, size=6):
    """(terms, order): 1-12 signed products whose factors reach up to ``order``
    degrees above the target, as a sweep's slices do, and are often empty."""
    order = draw(st.integers(0, max_order))

    def factor():
        top = order + draw(st.integers(0, max(order, 2)))
        if draw(st.integers(0, 3)) == 0:
            return Jet(top, {}, mode)
        return draw(gen_jets(top, mode, size=size))

    terms = [(draw(st.sampled_from((1, -1))), factor(), factor())
             for _ in range(draw(st.integers(1, 12)))]
    return terms, order


def reference_mul_sum(terms, order):
    """Oracle: the Cauchy loop on exponent tuples, one scalar multiply and add
    per pair of terms (a normalised ``Fraction`` each in exact mode), the
    outer loop in insertion order and the inner one in graded-lex order, as
    dict items."""
    out = {}
    for sign, a, b in terms:
        rhs = sorted((sum(idx), idx, c) for idx, c in b.coeffs.items())
        for ia, ca in a.coeffs.items():
            if sign < 0:
                ca = -ca
            room = order - sum(ia)
            for db, ib, cb in rhs:
                if db > room:
                    break
                key = (ia[0] + ib[0], ia[1] + ib[1], ia[2] + ib[2],
                       ia[3] + ib[3], ia[4] + ib[4], ia[5] + ib[5])
                prod = ca * cb
                s = out.get(key)
                out[key] = prod if s is None else s + prod
    return [(k, v) for k, v in out.items() if v != 0]


class TestMulSum:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_reference_loop(self, mode, data):
        terms, order = data.draw(cauchy_sums(mode))
        got = mul_sum(terms, order)
        assert (got.order, got.mode) == (order, mode)
        # same keys in the same dict order, values equal exactly; repr tells
        # Fractions apart from floats and gives every bit of a float
        expect = reference_mul_sum(terms, order)
        assert [(k, repr(v)) for k, v in got.coeffs.items()] == \
            [(k, repr(v)) for k, v in expect]

    @settings(max_examples=40)
    @given(data=st.data())
    def test_dense_float_sums_match_the_tuple_loop_bit_for_bit(self, data):
        # up to 30 terms a factor, so most keys collect several products
        terms, order = data.draw(cauchy_sums(FLOAT, max_order=6, size=30))
        got = mul_sum(terms, order)
        assert [(k, v.hex()) for k, v in got.coeffs.items()] == \
            [(k, v.hex()) for k, v in reference_mul_sum(terms, order)]

    def test_empty_sum_raises(self):
        with pytest.raises(JetError, match="at least one term"):
            mul_sum((), 2)

    @pytest.mark.parametrize("a,b,known", [
        (var(X1, order=3), 1 + var(X2, order=2), 3),   # min(3 + 0, 2 + 1)
        (var(X1, order=2) ** 2, var(X2, order=2), 3),  # min(2 + 1, 2 + 2)
        (const(0, order=2), var(X1, order=5), 3),      # a zero jet of order 2 has val 3
        (const(0, order=2), const(0, order=3), 6),     # min(2 + 4, 3 + 3)
    ])
    def test_valuation_bound_examples(self, a, b, known):
        mul_sum(((1, a, b),), known)
        mul_sum(((1, b, a),), known)
        with pytest.raises(JetError, match=f"not known to order {known + 1}"):
            mul_sum(((1, a, b),), known + 1)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_a_product_is_known_to_the_valuation_bound(self, mode, data):
        # up to min(a.order + val b, b.order + val a), val the least degree of a
        # term (order + 1 for a zero jet), the product of truncated factors is the
        # product of the full ones bit for bit; one degree more raises
        full = 8
        a_full, b_full = (data.draw(gen_jets(full, mode, size=8)) for _ in range(2))
        a, b = (truncated(j, data.draw(st.integers(0, 5))) for j in (a_full, b_full))

        def val(j):
            return min(map(sum, j.coeffs), default=j.order + 1)

        known = min(a.order + val(b), b.order + val(a))
        top = min(known, full)
        assert bits(mul_sum(((1, a, b),), top)) == \
            bits(truncated(mul_sum(((1, a_full, b_full),), full), top))
        with pytest.raises(JetError, match="not known to order"):
            mul_sum(((1, a, b),), known + 1)

    def test_mixed_modes_raise(self):
        exact, floating = var(X1, order=2), var(X1, order=2, mode=FLOAT)
        with pytest.raises(IncompatibleJetsError, match="mode"):
            mul_sum(((1, exact, floating),), 2)
        with pytest.raises(IncompatibleJetsError, match="mode"):
            mul_sum(((1, floating, floating), (1, exact, exact)), 2)


# -- the truncated loops against the full-order loops they replace, bit for bit ------


def bits(jet):
    """A jet's order and its terms in dict order, each float by float.hex."""
    return jet.order, [(k, v.hex() if isinstance(v, float) else v) for k, v in jet.coeffs.items()]


def plain_product(sign, a, b, order):
    """sign * a * b to ``order`` by the tuple loop, as a jet."""
    return Jet(order, dict(reference_mul_sum(((sign, a, b),), order)), a.mode)


def full_order_reciprocal(x):
    """1/x by Horner passes that each run to the full order: acc = 1 - u * acc."""
    c = x.constant_term
    u = x / c - 1
    acc = Jet.constant(1, x.order, x.mode)
    for _ in range(x.order):
        acc = plain_product(-1, u, acc, x.order) + 1
    return acc / c


def full_order_compose(a, fn):
    """fn(a) by Horner passes that each run to the full order: res = res * tilde + c_k."""
    coeffs = _series(fn, a.constant_term, a.order, a.mode)
    tilde = a - a.constant_term
    res = Jet.constant(coeffs[-1], a.order, a.mode)
    for ck in reversed(coeffs[:-1]):
        res = plain_product(1, res, tilde, a.order) + ck
    return res


def raised_slice_sum(var, slices):
    """The jet with the given slices in ``var``: a sum from zero of each slice
    times var**k, the slices shifted on exponent tuples."""
    order, mode = slices[0].order, slices[0].mode
    total = Jet(order, {}, mode)
    for k, s in enumerate(slices):
        total = total + Jet(order, {_shift(idx, var, k): c for idx, c in s.coeffs.items()}, mode)
    return total


_POSITIVE = st.floats(0.25, 4)
# fn, the constant terms exact mode allows it (None: any non-zero one), and
# the float constant terms it allows
COMPOSED = [
    ("exp", (0,), _SCALARS[FLOAT]), ("sin", (0,), _SCALARS[FLOAT]),
    ("cos", (0,), _SCALARS[FLOAT]), ("log", (1,), _POSITIVE),
    ("sqrt", (1, 4, Fraction(9, 4)), _POSITIVE),
    (Fraction(-1), None, st.tuples(_POSITIVE, st.sampled_from((1, -1))).map(math.prod)),
    (Fraction(-3), None, st.tuples(_POSITIVE, st.sampled_from((1, -1))).map(math.prod)),
    (Fraction(1, 3), (1, 8, Fraction(1, 27)), _POSITIVE),
    (Fraction(-3, 2), (1, Fraction(1, 4), 9), _POSITIVE),
]


@st.composite
def slice_lists(draw, mode):
    """(var, slices): slices 0, 1, ... of one jet in var, up to at most the
    order; slice k is of order ``order - k`` and free of var."""
    order, v = draw(st.integers(0, 5)), draw(st.integers(0, NVARS - 1))
    return v, [draw(gen_jets(order - k, mode, size=8)).restrict_zero((v,))
               for k in range(draw(st.integers(1, order + 1)))]


class TestTruncatedLoops:
    """The reciprocal and composition passes summed to their own degree, and
    the one-pass reassembly of slices, give the bits and the dict order of the
    full-order loops."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_reciprocal_matches_the_full_order_loop(self, mode, data):
        a = data.draw(gen_jets(data.draw(st.integers(0, 7)), mode, size=15))
        c = data.draw(_SCALARS[mode].filter(lambda v: abs(v) >= 0.25))
        a = a - a.constant_term + c
        assert bits(a.reciprocal()) == bits(full_order_reciprocal(a))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("fn, exact_at, float_at", COMPOSED,
                             ids=[str(f[0]) for f in COMPOSED])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_composition_matches_the_full_order_loop(self, mode, fn, exact_at, float_at, data):
        a = data.draw(gen_jets(data.draw(st.integers(0, 6)), mode, size=12))
        if mode == FLOAT:
            c = data.draw(float_at)
        elif exact_at is None:
            c = data.draw(_SCALARS[EXACT].filter(lambda v: v != 0))
        else:
            c = data.draw(st.sampled_from(exact_at))
        a = a - a.constant_term + c
        got = jet_call(fn, a) if isinstance(fn, str) else jet_pow(a, fn)
        expect = full_order_compose(a, Fraction(1, 2) if fn == "sqrt" else fn)
        assert bits(got) == bits(expect)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=60)
    @given(case=st.data())
    def test_from_slices_matches_the_sum_of_raised_slices(self, mode, case):
        # exact slices carry different denominators: the one pass scales them
        # to their lcm and reduces, as the running sum does
        v, slices = case.draw(slice_lists(mode))
        got, expect = from_slices(v, slices), raised_slice_sum(v, slices)
        assert got == expect
        assert bits(got) == bits(expect)

    def test_from_slices_refuses_what_is_not_a_slice_list(self):
        x = var(X1, order=3)
        with pytest.raises(JetError, match="at least one slice"):
            from_slices(Y1, [])
        with pytest.raises(IncompatibleJetsError, match="slice 1 has order 3"):
            from_slices(Y1, [x, x])
        with pytest.raises(IncompatibleJetsError, match="float mode, not 2 in exact"):
            from_slices(Y1, [x, var(X1, order=2, mode=FLOAT)])
        with pytest.raises(JetError, match="slice 0 depends on y1"):
            from_slices(Y1, [var(Y1, order=3)])


@st.composite
def same_order_jets(draw, n):
    order = draw(st.integers(0, 4))
    return [draw(gen_jets(order)) for _ in range(n)]


class TestRingAxiomsGenerated:
    """Exact-mode ring laws on generated jets in all six variables."""

    @given(jets=same_order_jets(3))
    def test_commutative_associative_distributive(self, jets):
        a, b, c = jets
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(jets=same_order_jets(1), unit=_SCALARS[EXACT].filter(lambda v: v != 0))
    def test_reciprocal_of_a_unit(self, jets, unit):
        a = jets[0] - jets[0].constant_term + unit
        assert a * a.reciprocal() == const(1, a.order)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_one_sum_equals_the_single_products(self, data):
        terms, order = data.draw(cauchy_sums(EXACT))
        acc = Jet.constant(0, order)
        for sign, a, b in terms:
            p = truncated(a, order) * truncated(b, order)
            acc = acc + p if sign > 0 else acc - p
        assert mul_sum(terms, order) == acc


# -- the stored form: integer numerators over one reduced denominator ---------------

ZERO = (0,) * NVARS


def _unit(k):
    return tuple(int(j == k) for j in range(NVARS))


def _shift(idx, var, by):
    return idx[:var] + (idx[var] + by,) + idx[var + 1:]


def ref_reciprocal(x, order):
    """1/x = (1/c) * sum_n u**n with x = c * (1 - u), on Fraction dicts."""
    c = x[ZERO]
    u = {k: -v / c for k, v in x.items() if k != ZERO}
    acc = term = {ZERO: Fraction(1)}
    for _ in range(order):
        term = ref_mul(term, u, order)
        acc = ref_add(acc, term)
    return {k: v / c for k, v in acc.items()}


# op -> (the jet operation, its reference on Fraction dicts), both given
# (a, b, s, var, m): two jets, a non-zero scalar, a variable and a degree;
# each returns its result(s) with the expected order
NUMERATOR_OPS = {
    "add": (lambda a, b, s, var, m: a + b,
            lambda a, b, s, var, m: (ref_add(a.coeffs, b.coeffs), a.order)),
    "sub": (lambda a, b, s, var, m: a - b,
            lambda a, b, s, var, m: (ref_add(a.coeffs, b.coeffs, -1), a.order)),
    "neg": (lambda a, b, s, var, m: -a,
            lambda a, b, s, var, m: ({k: -v for k, v in a.coeffs.items()}, a.order)),
    "mul": (lambda a, b, s, var, m: a * b,
            lambda a, b, s, var, m: (ref_mul(a.coeffs, b.coeffs, a.order), a.order)),
    "scalar mul": (lambda a, b, s, var, m: a * s,
                   lambda a, b, s, var, m: ({k: v * s for k, v in a.coeffs.items()}, a.order)),
    "scalar div": (lambda a, b, s, var, m: a / s,
                   lambda a, b, s, var, m: ({k: v / s for k, v in a.coeffs.items()}, a.order)),
    "reciprocal": (lambda a, b, s, var, m: (a - a.constant_term + s).reciprocal(),
                   lambda a, b, s, var, m: (ref_reciprocal(
                       {**{k: v for k, v in a.coeffs.items() if k != ZERO}, ZERO: s}, a.order),
                       a.order)),
    "partial": (lambda a, b, s, var, m: one_partial(a, var),
                lambda a, b, s, var, m: (ref_partial(a.coeffs, var), a.order - 1)),
    "slice_coeff": (lambda a, b, s, var, m: a.slice_coeff(var, m),
                    lambda a, b, s, var, m: ({_shift(k, var, -m): v for k, v in a.coeffs.items()
                                              if k[var] == m}, a.order - m)),
    "restrict_zero": (lambda a, b, s, var, m: a.restrict_zero((var, (var + m) % NVARS)),
                      lambda a, b, s, var, m: ({k: v for k, v in a.coeffs.items()
                                                if not k[var] and not k[(var + m) % NVARS]},
                                               a.order)),
    "from_slices": (lambda a, b, s, var, m: from_slices(var, [a.slice_coeff(var, k)
                                                              for k in range(m + 1)]),
                    lambda a, b, s, var, m: ({k: v for j in range(m + 1)
                                              for k, v in a.coeffs.items() if k[var] == j},
                                             a.order)),
    "holomorphic_extend": (
        lambda a, b, s, var, m: holomorphic_extend(a.restrict_zero(Y_VARS)),
        lambda a, b, s, var, m: (ref_holomorphic({k: v for k, v in a.coeffs.items()
                                                  if not any(k[3:])}), a.order)),
}


@st.composite
def numerator_cases(draw):
    order = draw(st.integers(1, 4))
    a, b = draw(gen_jets(order)), draw(gen_jets(order))
    s = draw(_SCALARS[EXACT].filter(lambda v: v != 0))
    return a, b, s, draw(st.integers(0, NVARS - 1)), draw(st.integers(0, order))


def assert_numerator_form(jet, expect, order):
    """``jet`` has the coefficients ``expect`` and the reduced numerator form."""
    coeffs = jet.coeffs
    assert (jet.order, jet.mode, coeffs) == (order, EXACT, expect)
    assert all(type(c) is int and c != 0 for c in jet.num.values())
    assert jet.den == math.lcm(*(c.denominator for c in coeffs.values()))
    assert math.gcd(jet.den, *jet.num.values()) == 1
    if not coeffs:
        assert jet.den == 1


class TestNumeratorForm:
    """Every exact result is stored as integer numerators over the least common
    denominator and equals the same operation done on Fraction coefficients."""

    @pytest.mark.parametrize("op", sorted(NUMERATOR_OPS))
    @settings(max_examples=60)
    @given(case=numerator_cases())
    def test_result_is_reduced_and_matches_fractions(self, op, case):
        run, ref = NUMERATOR_OPS[op]
        got, (expect, order) = run(*case), ref(*case)
        if op == "holomorphic_extend":
            assert_numerator_form(got.re, expect[0], order)
            assert_numerator_form(got.im, expect[1], order)
        else:
            assert_numerator_form(got, expect, order)

    def test_equal_values_built_by_different_paths_are_equal(self):
        half = Jet.constant(Fraction(1, 2), 3)
        x = var(X1, order=3)
        assert Jet(3, {ZERO: Fraction(2, 4)}, EXACT) == half
        assert Jet(3, {ZERO: "3/6"}, EXACT) == half
        assert Jet(3, {ZERO: Fraction(1, 2)}, EXACT) == half
        assert const(1, 3) / 2 == half == 1 - half == half * (x + 1) / (x + 1)
        assert x / 2 + x / 2 == x == Jet(3, {_unit(X1): Fraction(4, 4)}, EXACT)
        assert (x / 3 + half) - x / 3 == half
        assert one_partial(x / 6, X1) * 6 == const(1, 2)
        assert ((x + 2) * (x + 2) / 4).den == 4
        assert (x / 2 - x / 2).den == 1 and (x / 2 - x / 2) == x.zero_like()


class TestElementary:
    def test_sqrt_binomial(self):
        a = 1 + var(X1, order=2)
        s = jet_call("sqrt", a)
        assert s == Jet(2, {(0,) * 6: 1, (1, 0, 0, 0, 0, 0): Fraction(1, 2),
                            (2, 0, 0, 0, 0, 0): Fraction(-1, 8)}, EXACT)
        assert s * s == a

    def test_exp_of_zero_jet(self):
        assert jet_call("exp", const(0)) == const(1)

    def test_sin_matches_taylor(self):
        x2 = var(X2, order=3)
        assert jet_call("sin", x2) == x2 - x2 * x2 * x2 / 6

    def test_float_mode_matches_scalar_functions(self):
        # constant-term-only jets reproduce the scalar functions
        for c, fn, ref in ((0.3, "exp", math.exp), (1.7, "log", math.log),
                           (0.9, "sin", math.sin), (0.9, "cos", math.cos)):
            jet = jet_call(fn, Jet.constant(c, 3, FLOAT))
            assert jet.constant_term == pytest.approx(ref(c), abs=1e-15)

    def test_exp_log_inverse(self):
        rng = random.Random(3)
        a = random_jet(rng, order=4, vars=(X1, X2)) * Fraction(1, 10)
        a = a - a.constant_term  # zero constant term for exact exp
        assert jet_call("log", jet_call("exp", a)) == a

    def test_pow_rational_consistency(self):
        a = 1 + var(X2, order=4)
        p = jet_pow(a, Fraction(3, 2))
        assert p * p == a ** 3

    def test_exact_root_extraction(self):
        a = 4 + var(X1, order=2) * 4
        s = jet_call("sqrt", a)
        assert s.constant_term == 2
        assert s * s == a
        with pytest.raises(JetDomainError, match="irrational"):
            jet_call("sqrt", 2 + var(X1, order=2))

    def test_domain_errors(self):
        with pytest.raises(JetDomainError):
            jet_call("log", var(X1))  # constant term 0
        with pytest.raises(JetDomainError):
            jet_call("sqrt", const(-1) + var(X1))
        with pytest.raises(JetDomainError):
            jet_call("exp", const(1))  # e is irrational; exact mode


# the series of jet_call and jet_pow against mpmath: function, its mpmath form,
# and whether it needs a positive constant term
SERIES = [("exp", mpmath.exp, False), ("log", mpmath.log, True), ("sin", mpmath.sin, False),
          ("cos", mpmath.cos, False), ("sqrt", mpmath.sqrt, True)]
SERIES += [(r, lambda x, r=r: x ** (mpmath.mpf(r.numerator) / r.denominator), True)
           for r in (Fraction(-1), Fraction(1, 3), Fraction(-3, 2), Fraction(5, 2))]


def series_of(fn, c, order, mode):
    """Coefficients of u**k, k = 0..order, in fn(c + u), read off the jet in x1."""
    a = Jet.constant(c, order, mode) + Jet.variable(X1, order, mode)
    jet = jet_call(fn, a) if isinstance(fn, str) else jet_pow(a, fn)
    return [jet.coeffs.get((k, 0, 0, 0, 0, 0), 0) for k in range(order + 1)]


def dyadic(q):
    return q.denominator & (q.denominator - 1) == 0


class TestSeries:
    @pytest.mark.parametrize("fn, ref, positive", SERIES, ids=[str(f[0]) for f in SERIES])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_float_series_matches_mpmath(self, fn, ref, positive, data):
        # constant terms on a 1/1000 grid: no point but 0 lies near a zero of
        # sin or cos, so every nonzero coefficient is far above mpmath's error
        lo = 50 if positive else -5000
        c = data.draw(st.integers(lo, 10000 if positive else 5000)) / 1000
        order = data.draw(st.integers(1, 10))
        with mpmath.workdps(40):
            want = mpmath.taylor(ref, mpmath.mpf(c), order)
            for k, got in enumerate(series_of(fn, c, order, FLOAT)):
                assert abs(got - want[k]) <= 1e-14 * abs(want[k]), (k, got, want[k])

    @pytest.mark.parametrize("fn, c", [
        ("exp", 0), ("sin", 0), ("cos", 0), ("log", 1), ("sqrt", 4), ("sqrt", Fraction(9, 4)),
        (Fraction(-1), 3), (Fraction(-1), Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 8)),
        (Fraction(1, 3), 27), (Fraction(-3, 2), 4), (Fraction(-3, 2), Fraction(9, 4)),
        (Fraction(5, 2), 4), (Fraction(5, 2), Fraction(1, 4))])
    def test_exact_series_is_the_float_series(self, fn, c):
        # one recurrence for both modes: bit for bit where the float one rounds
        # once per coefficient (exp, log, sin, cos) or nowhere (every power
        # coefficient dyadic), else to 4 ulps
        exact = series_of(fn, Fraction(c), 10, EXACT)
        floats = series_of(fn, float(c), 10, FLOAT)
        if fn in ("exp", "log", "sin", "cos") or all(dyadic(q) for q in exact):
            assert [float(q) for q in exact] == floats
        for q, f in zip(exact, floats):
            assert f == pytest.approx(float(q), rel=4 * 2.0 ** -52, abs=0)

    @pytest.mark.parametrize("call, message", [
        (lambda: jet_call("exp", const(1) + var(X1)), "exact exp needs constant term 0"),
        (lambda: jet_call("sin", const(Fraction(1, 2))), "exact sin needs constant term 0"),
        (lambda: jet_call("cos", const(-1) + var(X2)), "exact cos needs constant term 0"),
        (lambda: jet_call("log", const(2) + var(X1)), "exact log needs constant term 1"),
        (lambda: jet_call("log", var(X1)), "log needs positive constant term, got 0"),
        (lambda: jet_call("log", const(-1.5, mode=FLOAT)),
         "log needs positive constant term, got -1.5"),
        (lambda: jet_call("sqrt", const(-1) + var(X1)),
         "rational power needs positive constant term, got -1"),
        (lambda: jet_pow(var(X1, mode=FLOAT), Fraction(-1, 3)),
         "rational power needs positive constant term, got 0.0"),
        (lambda: jet_call("sqrt", const(2) + var(X1)),
         "2**(1/2) is irrational; use float mode or adjust the constant term"),
        (lambda: jet_pow(const(Fraction(9, 4)), Fraction(2, 3)),
         "9/4**(1/3) is irrational; use float mode or adjust the constant term"),
        (lambda: eval_jet(parse("1 + pi*x1"), {"x1": var(X1)}),
         "constant pi is irrational; not representable in exact mode"),
        (lambda: eval_jet(parse("e"), {"x1": var(X1)}),
         "constant e is irrational; not representable in exact mode"),
    ])
    def test_domain_errors(self, call, message):
        with pytest.raises(JetDomainError) as err:
            call()
        assert type(err.value) is JetDomainError and str(err.value) == message


def one_partial(jet, var):
    """A first partial as the package forms it: a partial_sum of one term."""
    return partial_sum(((1, jet, var),))


class TestPartial:
    def test_product_monomial(self):
        x1, x2 = var(X1), var(X2)
        assert one_partial(x1 * x2, X1) == var(X2, order=3)

    def test_partial_of_absent_variable_is_zero(self):
        a = var(X1) * var(X2)
        assert one_partial(a, Y1).coeffs == {}

    def test_leibniz_rule(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_jet(rng)
            b = random_jet(rng)
            for v in (X1, X2, Y1):
                lhs = one_partial(a * b, v)
                rhs = (one_partial(a, v) * truncated(b, a.order - 1)
                       + truncated(a, a.order - 1) * one_partial(b, v))
                assert lhs == rhs

    def test_order_zero_rejected(self):
        with pytest.raises(JetDomainError):
            one_partial(Jet.constant(2, 0), X1)


def chained_partials(terms):
    """Oracle for partial_sum: one partial per term on exponent tuples,
    joined by +/- in term order."""
    acc = {}
    for sign, jet, v in terms:
        acc = ref_add(acc, ref_partial(jet.coeffs, v), sign)
    return Jet(terms[0][1].order - 1, acc, terms[0][1].mode)


@st.composite
def partial_sums(draw, mode):
    """1-6 signed partials of 1-3 jets of one order, a jet often repeated
    with both signs, so that some sums cancel exactly; jets in two variables
    put several terms on most keys."""
    order, nvars = draw(st.integers(1, 5)), draw(st.sampled_from((2, NVARS)))
    pool = [draw(gen_jets(order, mode, nvars, size=20)) for _ in range(draw(st.integers(1, 3)))]
    return [(draw(st.sampled_from((1, -1))), draw(st.sampled_from(pool)),
             draw(st.integers(0, nvars - 1))) for _ in range(draw(st.integers(1, 6)))]


class TestPartialSum:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @settings(max_examples=80)
    @given(data=st.data())
    def test_matches_the_chained_partials(self, mode, data):
        terms = data.draw(partial_sums(mode))
        got, expect = partial_sum(terms), chained_partials(terms)
        assert got == expect
        if mode == FLOAT:  # every coefficient, bit for bit
            assert {k: v.hex() for k, v in got.coeffs.items()} == \
                {k: v.hex() for k, v in expect.coeffs.items()}

    def test_exact_terms_over_different_denominators(self):
        a = Jet(3, {(2, 0, 0, 1, 0, 0): Fraction(1, 3)}, EXACT)
        b = Jet(3, {(1, 0, 0, 2, 0, 0): Fraction(1, 2), (0, 1, 0, 0, 0, 0): 5}, EXACT)
        got = partial_sum(((1, a, X1), (-1, b, Y1)))
        assert got == partial_of(a, X1) - partial_of(b, Y1)
        assert got.coeffs == {(1, 0, 0, 1, 0, 0): Fraction(2, 3) - 1}

    def test_refuses_what_partial_and_sums_refuse(self):
        with pytest.raises(JetError, match="at least one term"):
            partial_sum(())
        with pytest.raises(JetDomainError):
            partial_sum(((1, const(2, 0), X1),))
        with pytest.raises(IncompatibleJetsError):
            partial_sum(((1, var(X1, order=3), X1), (1, var(X1, order=4), X1)))
        with pytest.raises(IncompatibleJetsError):
            partial_sum(((1, var(X1), X1), (1, var(X1, mode=FLOAT), X1)))


def extend_by_substitution(f):
    """Independent oracle: substitute z_k = x_k + i y_k by complex powers on
    exponent tuples."""
    z = [RefComplex({_unit(k): 1}, {_unit(k + 3): 1}, f.order) for k in range(3)]
    acc = RefComplex({}, {}, f.order)
    for idx, c in f.coeffs.items():
        term = RefComplex({ZERO: c}, {}, f.order)
        for k in range(3):
            for _ in range(idx[k]):
                term = term * z[k]
        acc = acc + term
    return acc


class TestHolomorphicExtend:
    def test_square_monomial(self):
        f = var(X1, order=2) * var(X1, order=2)
        e = holomorphic_extend(f)
        assert e.re == Jet(2, {(2, 0, 0, 0, 0, 0): 1, (0, 0, 0, 2, 0, 0): -1}, EXACT)
        assert e.im == Jet(2, {(1, 0, 0, 1, 0, 0): 2}, EXACT)

    def test_constant(self):
        e = holomorphic_extend(const(Fraction(5, 3)))
        assert e.re == const(Fraction(5, 3))
        assert e.im.coeffs == {}

    def test_cross_monomial(self):
        f = var(X2, order=2) * var(X3, order=2)
        e = holomorphic_extend(f)
        assert e.re == Jet(2, {(0, 1, 1, 0, 0, 0): 1, (0, 0, 0, 0, 1, 1): -1}, EXACT)
        assert e.im == Jet(2, {(0, 1, 0, 0, 0, 1): 1, (0, 0, 1, 0, 1, 0): 1}, EXACT)

    def test_restriction_to_real_slice(self):
        rng = random.Random(17)
        for _ in range(20):
            f = random_jet(rng, order=4, vars=(X1, X2, X3))
            e = holomorphic_extend(f)
            assert e.re.restrict_zero((Y1, Y2, Y3)) == f
            assert e.im.restrict_zero((Y1, Y2, Y3)).coeffs == {}

    def test_cauchy_riemann_exact(self):
        rng = random.Random(19)
        for _ in range(20):
            f = random_jet(rng, order=4, vars=(X1, X2, X3))
            assert_cauchy_riemann(holomorphic_extend(f))

    def test_matches_substitution_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            f = random_jet(rng, order=4, vars=(X1, X2, X3))
            e = holomorphic_extend(f)
            o = extend_by_substitution(f)
            assert e.re.coeffs == o.re
            assert e.im.coeffs == o.im

    @settings(max_examples=40)
    @given(data=st.data())
    def test_cauchy_riemann_generated(self, data):
        f = data.draw(gen_jets(data.draw(st.integers(1, 5)), EXACT, nvars=3))
        e = holomorphic_extend(f)
        assert_cauchy_riemann(e)
        assert e.re.restrict_zero(Y_VARS) == f
        assert e.im.restrict_zero(Y_VARS) == f.zero_like()

    def test_rejects_y_dependence(self):
        with pytest.raises(JetDomainError):
            holomorphic_extend(var(Y1))


def det_permutation_oracle(m):
    """Leibniz formula: signed products over all permutations."""
    n = len(m)
    total = None
    for perm in itertools.permutations(range(n)):
        term = m[0][perm[0]]
        for r in range(1, n):
            term = term * m[r][perm[r]]
        odd = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2
        if total is None:
            total = -term if odd else term
        else:
            total = total - term if odd else total + term
    return total


def random_det_matrix(rng, size, kind):
    if kind == "ndarray":  # a (size, size, 4) stack of integer samples: exact arithmetic
        return np.array([[[rng.randint(-9, 9) for _ in range(4)] for _ in range(size)]
                         for _ in range(size)])
    if kind == "complex":
        return [[ComplexJet(random_jet(rng, order=3, nterms=3), random_jet(rng, order=3, nterms=3))
                 for _ in range(size)] for _ in range(size)]
    return [[random_jet(rng, order=3, nterms=3) for _ in range(size)] for _ in range(size)]


class TestDet3:
    def test_identity(self):
        one, zero = const(1), const(0)
        m = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert det(m) == one

    def test_diagonal(self):
        one, zero = const(1), const(0)
        m = [[1 + var(X1), zero, zero], [zero, one, zero], [zero, zero, one]]
        assert det(m) == 1 + var(X1)

    @staticmethod
    def check_against_oracle(size, kind):
        rng = random.Random(29)
        for _ in range(10):
            m = random_det_matrix(rng, size, kind)
            if kind == "complex":
                got, expect = RefComplex.of(det(m)), det_permutation_oracle(RefComplex.matrix(m))
            else:
                got, expect = det(m), det_permutation_oracle(m)
            if kind == "ndarray":
                assert np.array_equal(got, expect)
            else:
                assert got == expect

    def test_random_against_permutation_oracle(self):
        self.check_against_oracle(3, "jet")

    @pytest.mark.parametrize("size,kind", [(2, "jet"), (2, "complex"), (3, "complex"),
                                           (2, "ndarray"), (3, "ndarray")])
    def test_other_inputs_against_permutation_oracle(self, size, kind):
        self.check_against_oracle(size, kind)

    @pytest.mark.parametrize("size,calls", [(2, 2), (3, 8)])
    def test_complex_det_is_fused_sums_without_additions(self, size, calls, monkeypatch):
        # each part of each cofactor, then of the determinant, is one mul_sum
        m = random_det_matrix(random.Random(31), size, "complex")
        expect = det_permutation_oracle(RefComplex.matrix(m))
        counts = {"mul_sum": 0, "add": 0}
        fused, add = jets.mul_sum, Jet.__add__

        def counted_mul_sum(terms, order):
            counts["mul_sum"] += 1
            return fused(terms, order)

        def counted_add(self, other, sign=1):
            counts["add"] += 1
            return add(self, other, sign)

        monkeypatch.setattr(jets, "mul_sum", counted_mul_sum)
        monkeypatch.setattr(Jet, "__add__", counted_add)
        got = det(m)
        assert counts == {"mul_sum": calls, "add": 0}
        assert RefComplex.of(got) == expect

    def test_complex_det_refuses_mixed_orders(self):
        m = random_det_matrix(random.Random(37), 3, "complex")
        m[2][1] = ComplexJet(var(X1), var(X2))  # order 4 among order-3 entries
        with pytest.raises(IncompatibleJetsError, match="orders differ"):
            det(m)

    def test_leading_minors(self):
        m = [[Fraction(4), Fraction(1), Fraction(1, 2)],
             [Fraction(1), Fraction(3), Fraction(1, 4)],
             [Fraction(1, 2), Fraction(1, 4), Fraction(2)]]
        assert leading_minors(m) == [4, 11, det_permutation_oracle(m)]
        assert leading_minors([row[:2] for row in m[:2]]) == [4, 11]


class TestDumpAndSlices:
    def test_dump_graded_lex(self):
        a = 1 + var(X2, order=2) + var(X1, order=2) * var(X2, order=2)
        assert a.dumps().splitlines() == [
            "0 0 0 0 0 0 : 1",
            "0 1 0 0 0 0 : 1",
            "1 1 0 0 0 0 : 1",
        ]

    def test_dumps_share_one_head_table(self):
        # the jets of one structure dump share a table of "multi-index : " heads
        a = 1 + var(X2, order=2) / 3
        b = var(X2, order=2) * var(Y1, order=2) - var(X2, order=2)
        heads = {}
        assert [a.dumps(heads), b.dumps(heads)] == [a.dumps(), b.dumps()]
        assert sorted(map(_unpack, heads)) == sorted({*a.coeffs, *b.coeffs})
        assert heads[_pack((0, 1, 0, 1, 0, 0), 2)] == "0 1 0 1 0 0 : "

    def test_grlex_ordering(self):
        # sorting packed keys is sorting by total degree, then lex from x1
        idx = [(0, 0, 0, 0, 0, 2), (2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
               (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1)]
        assert [_unpack(k) for k in sorted(_pack(i, MAX_ORDER) for i in idx)] == [
            (0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 2), (0, 0, 0, 1, 0, 1), (2, 0, 0, 0, 0, 0)]

    def test_slice_and_attach_roundtrip(self):
        a = var(X1, order=4) + var(Y1, order=4) * var(Y1, order=4) * var(X2, order=4)
        sl = a.slice_coeff(Y1, 2)
        assert sl == var(X2, order=2)
        back = from_slices(Y1, [const(0, order=4), const(0, order=3), sl])
        assert back == var(X2, order=4) * var(Y1, order=4) * var(Y1, order=4)

    def test_restrict_zero(self):
        a = var(X1, order=3) + var(X1, order=3) * var(Y2, order=3)
        assert a.restrict_zero((Y2,)) == var(X1, order=3)



# -- the packed key: one int per multi-index ------------------------------------------

# exponent tuples whose total degree fits the degree field
_INDICES = st.tuples(*[st.integers(0, MAX_ORDER // NVARS)] * NVARS) | st.tuples(
    *[st.integers(0, 3)] * NVARS)


class TestPackedKeys:
    @given(idx=_INDICES)
    def test_pack_unpack_round_trip(self, idx):
        key = _pack(idx, MAX_ORDER)
        assert _unpack(key) == idx
        assert key >> 16 * NVARS == sum(idx)  # the degree field

    @given(idx=st.lists(_INDICES, max_size=20, unique=True))
    def test_sorted_keys_are_graded_lex(self, idx):
        keys = sorted(_pack(i, MAX_ORDER) for i in idx)
        assert [_unpack(k) for k in keys] == sorted(idx, key=grlex_key)

    @given(a=_INDICES, b=_INDICES)
    def test_adding_keys_multiplies_monomials(self, a, b):
        if sum(a) + sum(b) <= MAX_ORDER:
            product = tuple(x + y for x, y in zip(a, b))
            assert _pack(a, MAX_ORDER) + _pack(b, MAX_ORDER) == _pack(product, MAX_ORDER)

    @pytest.mark.parametrize("op", ["partial", "slice_coeff", "from_slices", "restrict_zero"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_key_operations_match_tuple_references(self, op, data):
        # NUMERATOR_OPS' references on tuple-keyed dicts, here on float
        # jets: the same bits in the same dict order
        order = data.draw(st.integers(1, 5))
        a = data.draw(gen_jets(order, FLOAT, size=20))
        var, m = data.draw(st.integers(0, NVARS - 1)), data.draw(st.integers(0, order))
        run, ref = NUMERATOR_OPS[op]
        got, (expect, expect_order) = run(a, a, 1, var, m), ref(a, a, 1, var, m)
        assert got.order == expect_order
        assert [(k, v.hex()) for k, v in got.coeffs.items()] == \
            [(k, v.hex()) for k, v in expect.items()]
        assert a.depends_on(var) == any(k[var] for k in a.coeffs)

    @pytest.mark.parametrize("idx,message", [
        ((-1, 0, 0, 0, 0, 1), "bad multi-index"),
        ((0, 0, 0, 0, 0), "bad multi-index"),
        ((MAX_ORDER + 1, 0, 0, 0, 0, 0), "bad multi-index"),
        ((1, 0, 0, 0, 0, 3), "exceeds order 3"),
    ])
    def test_every_index_is_checked_zero_or_not(self, idx, message):
        for value in (1, 0):
            with pytest.raises(JetError, match=message):
                Jet(3, {idx: value}, EXACT)

    @pytest.mark.parametrize("build", [
        lambda order: Jet.constant(1, order),
        lambda order: Jet.variable(X1, order, FLOAT),
        lambda order: Jet(order, {}, EXACT),
        lambda order: Jet(order, {}, FLOAT),
    ])
    def test_order_must_fit_the_degree_field(self, build):
        assert build(MAX_ORDER).order == MAX_ORDER
        for order in (MAX_ORDER + 1, 70000, -1):
            with pytest.raises(JetError, match="order"):
                build(order)

    def test_no_field_carries_at_the_largest_order(self):
        top = (MAX_ORDER - 1, 0, 0, 0, 0, 0)
        a = Jet(MAX_ORDER, {top: 2.0, (0, 0, 0, 0, 0, 1): 1.0}, FLOAT)
        prod = a * Jet.variable(X1, MAX_ORDER, FLOAT)
        assert prod.coeffs == {(MAX_ORDER, 0, 0, 0, 0, 0): 2.0, (1, 0, 0, 0, 0, 1): 1.0}

    def test_from_slices_restores_what_slice_coeff_lowered(self):
        # the solver's use of from_slices: put back the power of the evolution
        # variable that slice_coeff took out, at the order it had, so the
        # degree field never passes MAX_ORDER and no key carries
        a = Jet(MAX_ORDER, {(0, 0, 0, MAX_ORDER, 0, 0): 1.0, (MAX_ORDER - 5, 0, 0, 5, 0, 0): 3.0,
                            (1, 2, 0, 5, 0, 0): -1.0}, FLOAT)
        for m in (5, MAX_ORDER):
            sl = a.slice_coeff(Y1, m)
            assert sl.order == MAX_ORDER - m
            zeros = [Jet(MAX_ORDER - k, {}, FLOAT) for k in range(m)]
            back = from_slices(Y1, zeros + [sl])
            assert back.order == MAX_ORDER
            assert back.coeffs == {k: v for k, v in a.coeffs.items() if k[Y1] == m}
            # one power more would need an order past MAX_ORDER: a slice list
            # has no place for it
            with pytest.raises(IncompatibleJetsError, match=f"slice {m + 1} has order"):
                from_slices(Y1, zeros + [Jet(MAX_ORDER - m, {}, FLOAT), sl])


class TestVerdictRule:
    @pytest.mark.parametrize("value, tol, passed", [
        (0.0, 0.0, True), (1e-13, 1e-12, True), (1e-12, 1e-12, True), (2e-12, 1e-12, False),
        (math.nan, 1e-12, False), (math.nan, math.inf, False), (math.inf, 1e300, False),
        (np.float64(math.nan), 1.0, False), (Fraction(0), 0, True),
        (Fraction(1, 3), Fraction(1, 3), True), (Fraction(1, 10 ** 400), 0, False),
        (Fraction(10 ** 400), Fraction(10 ** 400 + 1), True),
    ])
    def test_within(self, value, tol, passed):
        # exact scalars compare exactly: 10^400 overflows a float and 10^-400
        # rounds to 0.0 in one
        assert within(value, tol) is passed

    @pytest.mark.parametrize("values", [[math.nan, 0.0, 1.0], [0.0, math.nan, 1.0],
                                        [1.0, 0.0, math.nan], [np.float64(math.nan), 2.0]])
    def test_worst_is_nan_wherever_a_nan_sits(self, values):
        assert math.isnan(worst(values))
        assert math.isnan(worst(iter(values)))

    def test_worst_is_max_otherwise(self):
        assert worst([0.0, 3.0, 1.0]) == 3.0
        assert worst(Fraction(k, 7) for k in (2, 5, 1)) == Fraction(5, 7)
