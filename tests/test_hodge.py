import gc
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slagcy import hodge
from slagcy.dsl import EvalDomainError
from slagcy.families import (
    CHECK_TOL,
    FamilyError,
    GridEntry,
    MetricFamily,
    check_slag_family,
    family_axes,
    family_from_entries,
    make_block_family,
    make_collapsing_22,
)
from slagcy.gridops import (curl_residual, grid_diff, grid_diff_bound, periodic_axis,
                            periodic_quad)
from slagcy.hodge import (
    HodgeError,
    PhiCurve,
    gram_L2,
    harmonic_basis_2d,
    harmonic_basis_diag3,
    phi_2d,
    phi_csv,
    phi_curve,
)
from slagcy.jets import det, leading_minors
from oracles import diag3_closed_form_phi
from test_families import ORACLE_FAMILIES, recorded_sampling

BESSEL = {"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
          "g33": "exp(t*sin(2*pi*x1))"}

TWO_D_FAMILIES = [
    {"g11": "exp(t*cos(2*pi*x1))", "g22": "exp(-t*cos(2*pi*x1))"},
    {"g11": "exp(t*cos(2*pi*x1))", "g12": "1/4", "g22": "17/16*exp(-t*cos(2*pi*x1))"},
    {"g11": "exp(t*sin(2*pi*x1))", "g22": "(1 + cos(2*pi*x2)/4)*exp(-t*sin(2*pi*x1))"},
]


# the refusals of a closed form that keeps its periods: closure fails, or only co-closure
NOT_CLOSED = r"^harmonicity residual above tolerance: d=[1-9]"
NOT_CO_CLOSED = r"^harmonicity residual above tolerance: d=0\.000e\+00, delta=[1-9]"


def bessel_i0(t, terms=80):
    return math.fsum((t / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


def bessel_family():
    return family_from_entries(BESSEL, name="bessel")


def flat_family(dim=3):
    entries = {f"g{i}{i}": "1" for i in range(1, dim + 1)}
    return family_from_entries(entries, dim=dim)


class TestPeriodicQuad:
    def test_constant(self):
        assert periodic_quad(np.ones(8)) == 1.0

    def test_sine_vanishes(self):
        for n in (2, 3, 8, 17):
            x = periodic_axis(n)
            assert abs(periodic_quad(np.sin(2 * np.pi * x))) < 1e-14

    def test_bessel_value(self):
        x = periodic_axis(64)
        q = periodic_quad(np.exp(np.sin(2 * np.pi * x)))
        assert abs(q - bessel_i0(1.0)) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            periodic_quad(np.ones(1))
        with pytest.raises(ValueError):
            periodic_axis(1)

    def test_spectral_diff_accuracy(self):
        x = periodic_axis(64)
        d = grid_diff(np.sin(2 * np.pi * x), 0, True)
        assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10


class TestSpectralDiff:
    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_band_limited_derivative(self, n, axis):
        # sum of the modes below n/2 along ``axis``, scaled by a profile in the
        # other two axes, plus a term constant along ``axis``
        rng = np.random.default_rng(10 * n + axis)
        shape = [1, 1, 1]
        shape[axis] = n
        x = periodic_axis(n).reshape(shape)
        f = np.zeros(shape)
        df = np.zeros(shape)
        for k in range((n - 1) // 2 + 1):
            a, phase = rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
            f = f + a * np.sin(2 * np.pi * k * x + phase)
            df = df + a * 2 * np.pi * k * np.cos(2 * np.pi * k * x + phase)
        other = [n, n, n]
        other[axis] = 1
        profile, offset = rng.uniform(0.5, 1.5, other), rng.standard_normal(other)
        d = grid_diff(f * profile + offset, axis, True)
        assert d.shape == (n, n, n)
        assert np.max(np.abs(d - df * profile)) < 1e-12

    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_constant_axis_gives_exact_zeros(self, n, axis):
        shape = [6, 7, 8]
        shape[axis] = 1
        base = np.random.default_rng(axis).standard_normal(shape)
        full = [6, 7, 8]
        full[axis] = n
        for arr in (base, np.broadcast_to(base, full), np.broadcast_to(base, full).copy()):
            d = grid_diff(arr, axis, True)
            assert d.shape == arr.shape
            assert np.all(d == 0.0)
        assert np.all(grid_diff(base[0], 3, True) == 0.0)  # an axis the samples lack

    @pytest.mark.parametrize("shape", [(5, 16, 1, 1), (3, 16, 15), (4, 1, 16)])
    def test_batch_lanes_match_unbatched(self, shape):
        # spatial axes counted from the end: each lane of a leading batch axis
        # differentiates and integrates bit for bit as it does alone
        arr = np.exp(np.random.default_rng(len(shape)).standard_normal(shape))
        dim = len(shape) - 1
        for axis in range(-dim, 0):
            batched = grid_diff(arr, axis, True)
            assert all(np.array_equal(batched[k], grid_diff(arr[k], axis, True))
                       for k in range(shape[0]))
        means = periodic_quad(arr, axis=tuple(range(-dim, 0)))
        assert means.shape == shape[:1]
        assert [periodic_quad(lane) for lane in arr] == list(means)

    def test_even_n_drops_the_nyquist_mode(self):
        n = 16
        x = periodic_axis(n)
        nyquist = np.cos(np.pi * n * x)  # (-1)^j on the grid
        d = grid_diff(np.sin(2 * np.pi * x) + nyquist, 0, True)
        assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12
        assert np.max(np.abs(grid_diff(nyquist, 0, True))) < 1e-12


class TestGridDiffBound:
    def test_norm_is_the_impulse_response_sum(self):
        # the matrix is circulant, so its infinity norm is the abs sum of one column,
        # and a unit impulse has spread 1
        for n in range(2, 301):
            impulse = np.eye(n)[0]
            assert grid_diff_bound(impulse, 0) == pytest.approx(
                float(np.sum(np.abs(grid_diff(impulse, 0, True)))), rel=1e-12, abs=0), n

    @settings(max_examples=200)
    @given(data=st.data())
    def test_bounds_the_derivative(self, data):
        samples = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                                    max_side=24),
                                       elements=st.floats(-1e3, 1e3)))
        axis = data.draw(st.integers(-samples.ndim, -1))
        measured = np.max(np.abs(grid_diff(samples, axis, True)))
        # up to the transform's roundoff, which scales with the samples, not their spread
        norm = grid_diff_bound(np.eye(samples.shape[axis])[0], 0)
        assert measured <= grid_diff_bound(samples, axis) + 1e-13 * norm * np.max(np.abs(samples))

    def test_constant_size_one_and_absent_axes_give_zero(self):
        varying = np.exp(np.random.default_rng(5).standard_normal((6, 1, 9)))
        constant = np.broadcast_to(varying, (6, 16, 9))
        assert [grid_diff_bound(constant, axis) for axis in (1, -2)] == [0.0, 0.0]
        assert [grid_diff_bound(varying, axis) for axis in (1, -2, 3, -4)] == [0.0] * 4
        assert grid_diff_bound(2.5, 0) == 0.0 and grid_diff_bound(0.0, -1) == 0.0
        assert grid_diff_bound(varying, 0) > 0.0

    def test_nan_gives_nan(self):
        samples = np.ones((4, 8))
        samples[2, 3] = np.nan
        assert math.isnan(grid_diff_bound(samples, -1)) and math.isnan(grid_diff_bound(samples, 0))


def adjugate_and_det(m) -> tuple:
    """The adjugate and the determinant `hodge._verified_basis` takes with ``m``."""
    return hodge._pointwise_adjugate(m), det(m)


def spd_stack(rng, dim, shape):
    """(dim, dim, *shape) symmetric positive-definite samples."""
    b = rng.standard_normal(shape + (dim, dim))
    m = b @ np.swapaxes(b, -1, -2) + dim * np.eye(dim)
    return np.moveaxis(m, (-2, -1), (0, 1))


def dense(m):
    """(dim, dim, *grid) stack of a dim x dim matrix of broadcastable entries."""
    full = np.array(np.broadcast_arrays(*[e for row in m for e in row]))
    return full.reshape((len(m), len(m)) + full.shape[1:])


def linalg_inverse(m):
    """np.linalg oracle for a dim x dim matrix of broadcastable entries."""
    full = np.moveaxis(dense(m), (0, 1), (-2, -1))
    return np.moveaxis(np.linalg.inv(full), (-2, -1), (0, 1)), np.linalg.det(full)


def linalg_gram(basis):
    """The inverse-weighted Gram matrix int g^{kl} theta_ik theta_jl sqrt(det g),
    with g^{kl} and det g from np.linalg."""
    inv, det_g = linalg_inverse(basis.metric)
    theta = dense(basis.theta)
    dim = basis.dim
    return np.array([[np.mean(sum(inv[k, l] * theta[i, k] * theta[j, l]
                                  for k in range(dim) for l in range(dim)) * np.sqrt(det_g))
                      for j in range(dim)] for i in range(dim)])


def sparse_spd(rng, dim, n):
    """Diagonally dominant symmetric entries of shapes (n, 1), (1, n) and (1, 1)."""
    shapes = [(n, 1), (1, n), (1, 1)]
    m = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = dim + rng.uniform(0.0, 1.0, shapes[i % 3])
        for j in range(i + 1, dim):
            m[i][j] = m[j][i] = rng.uniform(-0.5, 0.5, shapes[(i + j) % 3])
    return m


class TestPointwiseInverse:
    """`hodge._pointwise_adjugate`: adj(g) = det(g) g^{-1}, and det(g) from the leading
    minors that the basis takes from the positivity rule."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("shape", [(17,), (9, 9), "sparse"])
    def test_matches_linalg(self, dim, shape):
        rng = np.random.default_rng(5 + dim)
        m = sparse_spd(rng, dim, 9) if shape == "sparse" else spd_stack(rng, dim, shape)
        adj, det_m = hodge._pointwise_adjugate(m), leading_minors(m)[-1]
        ref_inv, ref_det = linalg_inverse(m)
        ref_adj = ref_inv * ref_det
        adj = dense(adj)
        assert adj.shape == ref_adj.shape
        assert np.max(np.abs(adj - ref_adj)) <= 1e-13 * np.max(np.abs(ref_adj))
        assert np.max(np.abs(det_m - ref_det) / np.abs(ref_det)) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_positive_determinant_raises(self, dim):
        # the basis takes the admissibility check's leading-minor rule: det 0, det -1, and
        # -I in 2D, whose det is 1
        build = harmonic_basis_2d if dim == 2 else harmonic_basis_diag3
        ones = {f"g{i}{j}": "1" for i in range(1, dim + 1) for j in range(i, dim + 1)}
        unit = {f"g{k}{k}": "1" for k in range(1, dim + 1)}
        for entries, minor, value in ((ones, 2, 0.0), ({**unit, "g11": "-1"}, 1, -1.0),
                                      ({**unit, "g11": "-1", "g22": "-1"}, 1, -1.0)):
            fam = family_from_entries(entries, dim=dim)
            with pytest.raises(FamilyError, match=rf"^non-positive-definite sample at t=0\.5: "
                                                  rf"leading minor {minor} reaches {value}$"):
                build(fam, 0.5, n=8)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nan_determinant_says_nan(self, dim):
        # a nan sample fails the positivity rule, and the message says nan
        build = harmonic_basis_2d if dim == 2 else harmonic_basis_diag3
        nan_g11 = GridEntry(lambda t, axes: np.where(axes["x1"] == 0.5, np.nan, 1.0))
        fam = family_from_entries({**{f"g{k}{k}": "1" for k in range(2, dim + 1)},
                                   "g11": nan_g11}, dim=dim)
        with pytest.raises(FamilyError, match=r"leading minor 1 reaches nan$"):
            build(fam, 0.5, n=8)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gram_det_matches_linalg(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(10):
            matrix = spd_stack(rng, dim, ())
            got = float(det(matrix))  # the Phi of _phi_samples
            assert abs(got - np.linalg.det(matrix)) <= 1e-13 * abs(np.linalg.det(matrix))

    def test_block_family_zero_cofactors_are_scalars(self):
        # diag(e^u, Q_t) with its zero off-diagonals as the builders place them, the
        # scalar 0.0: the cofactors coupling x1 to (x2, x3) stay 0.0, the rest match
        # the adjugate of the sampled matrix bit for bit
        fam = make_block_family("t*sin(2*pi*x1)", [["1", "1/4"],
                                                   ["1/4", "exp(-t*sin(2*pi*x1)) + 1/16"]], "1")
        sampled = fam.sample_matrix(0.7, family_axes(fam, 16))
        m = [[0.0 if (i == 0) != (j == 0) else e for j, e in enumerate(row)]
             for i, row in enumerate(sampled)]
        adj = hodge._pointwise_adjugate(m)
        want = hodge._pointwise_adjugate(sampled)
        for i in range(3):
            for j in range(3):
                if (i == 0) != (j == 0):
                    assert type(adj[i][j]) is float and adj[i][j] == 0.0
                    assert not np.any(want[i][j])
                else:
                    assert np.shape(adj[i][j]) == np.shape(want[i][j]) != ()
                    assert np.array_equal(adj[i][j], want[i][j])

    def test_inverse_formed_once_per_chunk(self, monkeypatch):
        # one adjugate per basis, shared by its fluxes, the co-closure check and Gram;
        # an x1-only curve is one basis, every t in one chunk, and an (n, n) one a basis per t
        calls = []
        original = hodge._pointwise_adjugate
        monkeypatch.setattr(hodge, "_pointwise_adjugate", lambda m: calls.append(1) or original(m))
        phi_2d(family_from_entries(TWO_D_FAMILIES[1], dim=2), np.linspace(0, 1, 4), n=32,
               check=False)
        phi_curve(bessel_family(), np.linspace(0, 1, 3), n=32, check=False)
        assert len(calls) == 2
        phi_2d(family_from_entries(TWO_D_FAMILIES[2], dim=2), np.linspace(0, 1, 4), n=32,
               check=False)
        assert len(calls) == 6


class TestDiag3Basis:
    def test_flat_basis_is_coordinate_basis(self):
        basis = harmonic_basis_diag3(flat_family(), 0.0, n=32)
        assert np.allclose(basis.theta[0][0], 1.0)
        assert np.allclose(basis.theta[1][1], 1.0)
        assert np.allclose(basis.theta[2][2], 1.0)
        assert basis.residuals["periods"] < 1e-14

    def test_bessel_theta1_profile(self):
        n = 256
        basis = harmonic_basis_diag3(bessel_family(), 1.0, n=n)
        x = periodic_axis(n)
        expect = np.exp(-2 * np.sin(2 * np.pi * x)) / bessel_i0(2.0)
        assert np.max(np.abs(basis.theta[0][0][:, 0, 0] - expect)) < 1e-12

    def test_bessel_basis_keeps_natural_shapes(self):
        n = 64
        basis = harmonic_basis_diag3(bessel_family(), 1.0, n=n)
        assert basis.theta[0][0].shape == (n, 1, 1)
        for i in range(3):
            assert basis.metric[i][i].shape == (n, 1, 1)
            for j in range(3):
                if i != j:  # structural zeros stay the scalar 0.0, fluxes included
                    for entries in (basis.theta, basis.metric, basis.flux):
                        assert type(entries[i][j]) is float and entries[i][j] == 0.0
                else:
                    assert np.shape(basis.flux[i][j]) == (n, 1, 1)

    def test_period_normalization(self):
        basis = harmonic_basis_diag3(bessel_family(), 0.7, n=256)
        assert basis.residuals["periods"] < 1e-12

    # the certification, not a class guard, refuses a family: each of these closed forms
    # keeps its periods but is not harmonic

    def test_rejects_nondiagonal(self):
        # g12 depends on x1: theta_1 = dx1 + g12 dx2 is not closed
        fam = family_from_entries({"g11": "1", "g12": "sin(2*pi*x1)/4", "g22": "1", "g33": "1"})
        with pytest.raises(HodgeError, match=NOT_CLOSED):
            harmonic_basis_diag3(fam, 0.0, n=16)

    def test_rejects_non_unit_determinant(self):
        # det = g11 depends on x1: the flux sqrt(g11)/M dx1 of theta_1 is not divergence-free
        # (a constant determinant certifies: TestGeneralization)
        fam = family_from_entries({"g11": "2 + sin(2*pi*x1)", "g22": "1", "g33": "1"})
        with pytest.raises(HodgeError, match=NOT_CO_CLOSED):
            harmonic_basis_diag3(fam, 0.0, n=16)

    def test_rejects_x2_dependence(self):
        # theta_1 = g11/M dx1 with g11 depending on x2 is not closed
        fam = family_from_entries({"g11": "exp(sin(2*pi*x2))", "g22": "1",
                                   "g33": "exp(-sin(2*pi*x2))"})
        with pytest.raises(HodgeError, match=NOT_CLOSED):
            harmonic_basis_diag3(fam, 0.0, n=16)

    def test_rejects_x3_dependence(self):
        # theta_3 = dx3 has the flux dx3/g33, and g33 depends on x3; an x3-only entry
        # samples at shape (1, 1, n), as many points as an x1-only one
        fam = family_from_entries({"g11": "1", "g22": "exp(sin(2*pi*x3))",
                                   "g33": "exp(-sin(2*pi*x3))"})
        with pytest.raises(HodgeError, match=NOT_CO_CLOSED):
            harmonic_basis_diag3(fam, 0.0, n=16)


class TestGram:
    def test_flat_gram_is_identity(self):
        basis = harmonic_basis_diag3(flat_family(), 0.0, n=32)
        gram = gram_L2(basis)
        assert np.allclose(gram, np.eye(3), atol=1e-14)

    def test_bessel_closed_forms(self):
        basis = harmonic_basis_diag3(bessel_family(), 1.0, n=256)
        gram = gram_L2(basis)
        expect = np.diag([1.0 / bessel_i0(2.0), bessel_i0(1.0), bessel_i0(1.0)])
        assert np.max(np.abs(gram - expect)) < 1e-12

    def test_symmetry_and_positivity_random(self):
        rng = random.Random(41)
        for _ in range(5):
            a, b = rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0)
            fam = family_from_entries({
                "g11": f"exp(-{a}*2*t*sin(2*pi*x1) - {b}*2*t*cos(2*pi*x1))",
                "g22": f"exp({a}*t*sin(2*pi*x1) + {b}*t*cos(2*pi*x1))",
                "g33": f"exp({a}*t*sin(2*pi*x1) + {b}*t*cos(2*pi*x1))"})
            gram = gram_L2(harmonic_basis_diag3(fam, 0.8, n=128))
            assert np.allclose(gram, gram.T)
            assert np.all(np.linalg.eigvalsh(gram) > 0)


def generated_2d_families(seed, count):
    """Admissible 2D families g11 = e^w, g12 = b, g22 = (C(x2) + b^2) e^-w with
    w = c*t*cos(2*pi*k*x1) and C = 1 + a*cos(2*pi*x2), so det = C(x2)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c, a = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
        k, b = rng.randint(1, 3), rng.randint(1, 8) / 16
        w = f"{c}*t*cos(2*pi*{k}*x1)"
        out.append(family_from_entries({"g11": f"exp({w})", "g12": f"{b}",
                                        "g22": f"(1 + {a}*cos(2*pi*x2) + {b}^2)*exp(-{w})"},
                                       dim=2))
    return out


class TestFlux:
    @pytest.mark.parametrize("fam", generated_2d_families(2201, 4) + [
        family_from_entries(entries, dim=2) for entries in TWO_D_FAMILIES])
    def test_2d_gram_matches_inverse_oracle(self, fam):
        for t in (0.3, 1.0):
            basis = harmonic_basis_2d(fam, t, n=64)
            gram, ref = gram_L2(basis), linalg_gram(basis)
            assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_bessel_gram_matches_inverse_oracle(self):
        for t in (0.0, 0.4, 1.0):
            basis = harmonic_basis_diag3(bessel_family(), t, n=128)
            gram, ref = gram_L2(basis), linalg_gram(basis)
            assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_x1_only_2d_flux_keeps_natural_shapes(self):
        n = 64
        basis = harmonic_basis_2d(family_from_entries(TWO_D_FAMILIES[0], dim=2), 0.7, n=n)
        # an absent g12 samples as an exact 0-d zero, which the basis makes the scalar 0.0:
        # theta_1 has no dx2 part and theta_2 no dx1 part, so J_12 and J_21 have no pair
        assert type(basis.metric[0][1]) is float and basis.metric[0][1] == 0.0
        assert [[np.shape(j_k) for j_k in row] for row in basis.flux] == [[(n, 1), ()],
                                                                          [(), (n, 1)]]
        for i, k in ((0, 1), (1, 0)):
            assert type(basis.flux[i][k]) is float and basis.flux[i][k] == 0.0

    def test_flux_is_sqrt_det_inverse_times_theta(self):
        basis = harmonic_basis_2d(generated_2d_families(2202, 1)[0], 0.8, n=32)
        inv, det_g = linalg_inverse(basis.metric)
        want = np.einsum("kl...,il...->ik...", inv, dense(basis.theta)) * np.sqrt(det_g)
        got = dense(basis.flux)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("build", [
        lambda: harmonic_basis_2d(family_from_entries(TWO_D_FAMILIES[1], dim=2), 0.5, n=32),
        lambda: harmonic_basis_diag3(bessel_family(), 0.7, n=64)], ids=["2d", "diag3"])
    def test_tampered_theta_fails_coclosure(self, build):
        # theta_1 + d(eps*sin(2*pi*x1)) is still closed and keeps its periods,
        # but is not co-closed
        basis, tol = build(), 1e-8
        n = np.shape(basis.theta[0][0])[0]
        bump = 2 * np.pi * 1e-3 * np.cos(2 * np.pi * periodic_axis(n))
        theta = [list(row) for row in basis.theta]
        theta[0][0] = theta[0][0] + bump.reshape((n,) + (1,) * (basis.dim - 1))
        with pytest.raises(HodgeError, match="delta=") as err:
            hodge._verified_basis(theta, basis.metric, *adjugate_and_det(basis.metric), tol,
                                  basis.scale)
        found = dict(part.split("=") for part in str(err.value).split(": ")[1].split(", "))
        assert float(found["d"]) <= tol < float(found["delta"])
        # the message reads the transforms' residual, not the (larger) bound
        assert float(found["delta"]) == pytest.approx(transformed_coclosure(theta, basis.metric),
                                                      rel=1e-3)


# a 2D family of the phi_2d benchmark workload: g11 = e^w, constant g12, det = C(x2)
WORKLOAD_2D = {"g11": "exp(1.2*t*cos(2*pi*2*x1))", "g12": "3/16",
               "g22": "(1 + 0.3*cos(2*pi*x2) + (3/16)^2)*exp(-1.2*t*cos(2*pi*2*x1))"}
# g11 dx1 + g12 dx2 = dx1 + dx2/4 + d(sin(2 pi x1) sin(2 pi x2) / (20 pi)) is closed and
# det = 1, so the basis is harmonic, but its fluxes vary along their axes
CLOSED_2D = {"g11": "1 + cos(2*pi*x1)*sin(2*pi*x2)/10",
             "g12": "1/4 + sin(2*pi*x1)*cos(2*pi*x2)/10",
             "g22": "(1 + (1/4 + sin(2*pi*x1)*cos(2*pi*x2)/10)^2)"
                    "/(1 + cos(2*pi*x1)*sin(2*pi*x2)/10)"}


def transformed_coclosure(theta, metric) -> float:
    """max_i max |sum_k d_k J_ik| / sqrt(det g) by transforms, J_i from np.linalg."""
    inv, det_g = linalg_inverse(metric)
    flux = np.einsum("kl...,il...->ik...", inv, dense(theta)) * np.sqrt(det_g)
    dim = len(theta)
    return max(float(np.max(np.abs(sum(grid_diff(flux[i, k], k - dim, True)
                                       for k in range(dim)) / np.sqrt(det_g))))
               for i in range(dim))


def count_coclosure_transforms(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(hodge, "grid_diff", lambda *a: calls.append(a) or grid_diff(*a))
    return calls


class TestCoclosureBound:
    def test_healthy_bases_run_no_transform(self, monkeypatch):
        calls = count_coclosure_transforms(monkeypatch)
        two_d = family_from_entries(WORKLOAD_2D, dim=2)
        bases = [harmonic_basis_2d(two_d, 0.7, n=128),
                 harmonic_basis_diag3(bessel_family(), 0.7, n=256)]
        assert np.allclose(phi_2d(two_d, np.linspace(0, 1, 9), n=128).phi, 1.0, atol=1e-12)
        phi_curve(bessel_family(), np.linspace(0, 1, 9), n=256)
        assert calls == []
        assert bases[0].residuals["coclosure"] <= 1e-8
        assert bases[1].residuals["coclosure"] <= CHECK_TOL

    def test_a_bound_above_tol_falls_back_to_the_transforms(self, monkeypatch):
        basis = harmonic_basis_2d(family_from_entries(CLOSED_2D, dim=2), 0.5, n=64)
        sqrt_det = np.sqrt(det(basis.metric))
        bound = max(sum(grid_diff_bound(j, k - 2) for k, j in enumerate(row))
                    for row in basis.flux) / np.min(sqrt_det)
        calls = count_coclosure_transforms(monkeypatch)
        again = hodge._verified_basis(basis.theta, basis.metric, *adjugate_and_det(basis.metric),
                                      1e-8, basis.scale)
        assert len(calls) == 4 and bound > 1.0
        assert again.residuals["coclosure"] == basis.residuals["coclosure"] <= 1e-8
        assert again.residuals["coclosure"] == pytest.approx(
            transformed_coclosure(basis.theta, basis.metric), abs=1e-12)

    def test_a_failing_closure_reports_the_transformed_coclosure(self, monkeypatch):
        # the bound settles co-closure on this basis, but a failing check's message
        # reads the transforms' residual, the expression the bound stands in for
        basis = harmonic_basis_2d(family_from_entries(WORKLOAD_2D, dim=2), 0.7, n=128)
        sqrt_det = np.sqrt(det(basis.metric))
        delta = max(float(np.max(np.abs(sum(grid_diff(j, k - 2, True) for k, j in enumerate(row))
                                        / sqrt_det))) for row in basis.flux)
        monkeypatch.setattr(hodge, "curl_residual", lambda row, periodic: 1.0)
        calls = count_coclosure_transforms(monkeypatch)
        with pytest.raises(HodgeError) as err:
            hodge._verified_basis(basis.theta, basis.metric, *adjugate_and_det(basis.metric),
                                  1e-8, basis.scale)
        assert str(err.value) == ("harmonicity residual above tolerance: "
                                  f"d=1.000e+00, delta={delta:.3e}")
        assert len(calls) == 4


class TestPhiCurve3D:
    def test_flat_phi_is_one(self):
        curve = phi_curve(flat_family(), np.linspace(0, 1, 5), n=64)
        assert np.allclose(curve.phi, 1.0, atol=1e-14)
        assert curve.classification(1e-10) == "constant"

    def test_bessel_matches_series_oracle(self):
        ts = np.linspace(0.0, 1.0, 11)
        curve = phi_curve(bessel_family(), ts, n=256)
        expect = np.array([bessel_i0(t) ** 2 / bessel_i0(2 * t) for t in ts])
        assert np.max(np.abs(curve.phi - expect)) < 1e-12
        assert curve.classification(1e-10) == "non-constant"

    def test_phi_at_zero_is_one(self):
        curve = phi_curve(bessel_family(), [0.0], n=64)
        assert curve.phi[0] == pytest.approx(1.0, abs=1e-14)

    def test_cauchy_schwarz_upper_bound(self):
        # with g22 = g33 the closed form is a strict Cauchy-Schwarz ratio
        ts = np.linspace(0.1, 1.0, 10)
        curve = phi_curve(bessel_family(), ts, n=256)
        assert np.all(curve.phi < 1.0)
        assert np.all(curve.phi <= 1.0 - 1e-4)

    def test_quadrature_doubling_stability(self):
        ts = [0.3, 0.9]
        phi_n = phi_curve(bessel_family(), ts, n=128).phi
        phi_2n = phi_curve(bessel_family(), ts, n=256).phi
        assert np.max(np.abs(phi_n - phi_2n)) < 1e-12

    def test_csv_format(self):
        curve = phi_curve(bessel_family(), [0.0, 1.0], n=64)
        text = phi_csv(curve.t, curve.phi, curve.integrals)
        lines = text.strip().splitlines()
        assert lines[0] == "t,phi,g11_int,g22_int,g33_int"
        assert len(lines) == 3
        row = [float(v) for v in lines[2].split(",")]
        assert row[0] == 1.0
        assert row[2] == pytest.approx(bessel_i0(2.0), abs=1e-12)  # int g11
        assert row[3] == pytest.approx(bessel_i0(1.0), abs=1e-12)  # int g^22

    def test_empty_curve_csv_has_header_only(self):
        curve = PhiCurve(t=np.array([]), phi=np.array([]))
        assert phi_csv(curve.t, curve.phi, curve.integrals) == "t,phi,g11_int,g22_int,g33_int\n"

    def test_inadmissible_family_refused(self):
        fam = family_from_entries({"g11": "exp(t)", "g22": "1", "g33": "1"})
        with pytest.raises(Exception, match="slice conditions"):
            phi_curve(fam, [0.0, 1.0], n=32)

    @pytest.mark.parametrize("run,periodic", [(phi_curve, (False, True, True)),
                                              (phi_2d, (True, False))])
    def test_non_periodic_axis_refused_before_sampling(self, run, periodic, monkeypatch):
        fam = family_from_entries({f"g{k}{k}": "1" for k in range(1, len(periodic) + 1)},
                                  dim=len(periodic), periodic=periodic)
        monkeypatch.setattr(MetricFamily, "sample_matrix", lambda *args: pytest.fail("sampled"))
        for check in (True, False):  # the torus test is not part of the admissibility check
            with pytest.raises(HodgeError, match="Phi needs a torus"):
                run(fam, [0.0, 1.0], n=16, check=check)

    @pytest.mark.parametrize("name", ["bessel", "phi_3d-style", "collapse22"])
    def test_matches_the_diagonal_closed_form(self, name):
        # the quadrature Gram of the certified basis against int g^22 int g^33 / int g^22 g^33
        _, build, n = BATCHED_CURVES[name]
        fam = build()
        ts = np.linspace(*fam.t_range, 5)
        curve = phi_curve(fam, ts, n=n)
        want = [diag3_closed_form_phi(fam, float(t), n) for t in ts]
        assert np.max(np.abs(curve.phi - want)) <= 1e-10

    def test_a_phi_that_is_not_finite_names_its_first_t(self, monkeypatch):
        # the 5 t of a Bessel curve go as one batch, the last axis of its Gram matrix
        gram = hodge.gram_L2
        monkeypatch.setattr(hodge, "gram_L2",
                            lambda basis: gram(basis) * np.array([1.0] + [np.nan] * 4))
        with pytest.raises(HodgeError, match=r"^Phi is not finite at t=0\.25: nan$"):
            phi_curve(bessel_family(), np.linspace(0, 1, 5), n=32, check=False)


class TestGeneralization:
    """The certification, not a class guard, decides: a family outside the diagonal 3D
    and the det = C(x2) 2D class whose closed form is harmonic gets its true Phi."""

    def test_constant_non_diagonal_3d_metric_gives_sqrt_det(self):
        entries = {"g11": "2", "g12": "1/2", "g13": "1/4", "g22": "3/2", "g23": "1/5",
                   "g33": "1"}
        fam = family_from_entries(entries)
        curve = phi_curve(fam, np.linspace(0, 1, 3), n=16)
        g = np.array([[2, 0.5, 0.25], [0.5, 1.5, 0.2], [0.25, 0.2, 1.0]])
        assert np.max(np.abs(curve.phi - np.sqrt(np.linalg.det(g)))) <= 1e-14

    def test_scaled_bessel_family_scales_phi_by_the_power_three_halves(self):
        # 4 g has the det 64 det g: every Gram entry doubles, exactly in binary arithmetic
        ts = np.linspace(0, 1, 5)
        scaled = family_from_entries({k: f"4*{v}" for k, v in BESSEL.items()})
        assert np.array_equal(phi_curve(scaled, ts, n=64).phi,
                              4 ** 1.5 * phi_curve(bessel_family(), ts, n=64).phi)

    def test_scaled_2d_family_keeps_phi_one(self):
        fam = family_from_entries({k: f"3*({v})" for k, v in TWO_D_FAMILIES[1].items()}, dim=2)
        curve = phi_2d(fam, np.linspace(0, 1, 5), n=64)
        assert np.max(np.abs(curve.phi - 1.0)) <= 1e-12


def phi_3d_style_family():
    """A family as the phi_3d benchmark generates them: diag(e^-2u, e^u, e^u)."""
    u = "0.731*t*sin(2*pi*3*x1)"
    return family_from_entries({"g11": f"exp(-2*{u})", "g22": f"exp({u})", "g33": f"exp({u})"})


BATCHED_CURVES = {
    "bessel": (phi_curve, bessel_family, 256),
    "phi_3d-style": (phi_curve, phi_3d_style_family, 256),
    "collapse22": (phi_curve, lambda: make_collapsing_22(
        "(t/(1-t))*cos(pi*x1)^2", t1=1.0, t_range=(0.0, 0.7)), 128),
    "x1-only 2D": (phi_2d, lambda: family_from_entries(TWO_D_FAMILIES[0], dim=2), 128),
    # scenarios/twod_offdiag_phi.ini: x1-only as well, so batched
    "twod_offdiag_phi": (phi_2d, lambda: family_from_entries(TWO_D_FAMILIES[1], dim=2), 128),
    # as the phi_2d benchmark generates them: g22 depends on x1 and x2, one t per chunk
    "phi_2d-style": (phi_2d, lambda: generated_2d_families(2203, 1)[0], 128),
}


def per_t_phi_curve(fam, ts, n):
    """Reference of phi_curve(check=False) one float t at a time: the torus test, then
    each t's basis, its Gram determinant and the integral columns, and the first t
    whose Phi is not finite."""
    if not all(fam.periodic):
        raise HodgeError(f"Phi needs a torus: family {fam.name!r} has periodic = "
                         + " ".join(str(int(p)) for p in fam.periodic))
    phis, integrals = [], []
    for t in map(float, ts):
        try:
            basis = harmonic_basis_diag3(fam, t, n)
        except HodgeError as exc:
            raise HodgeError(f"{exc} at t={t}") from exc
        phis.append(float(det(gram_L2(basis))))
        integrals.append([periodic_quad(g, axis=(-3, -2, -1)) for g in
                          (basis.metric[0][0], 1.0 / basis.metric[1][1],
                           1.0 / basis.metric[2][2])])
    for t, phi in zip(ts, phis):
        if not math.isfinite(phi):
            raise HodgeError(f"Phi is not finite at t={t}: {phi}")
    return PhiCurve(t=np.asarray(ts), phi=np.array(phis), integrals=np.array(integrals))


def outcome(run) -> tuple:
    """The bytes of the Phi values and integral columns ``run()`` returns, or its error."""
    try:
        curve = run()
    except (FamilyError, HodgeError, EvalDomainError) as exc:
        return type(exc).__name__, str(exc)
    return curve.phi.tobytes(), curve.integrals.tobytes()


class TestBatchedCurve:
    """The Phi loop samples chunks of t along a leading batch axis."""

    @pytest.mark.parametrize("name", BATCHED_CURVES)
    def test_batch_equals_one_t_at_a_time(self, name):
        run, build, n = BATCHED_CURVES[name]
        fam = build()
        ts = np.linspace(fam.t_range[0], fam.t_range[1], 21)
        curve = run(fam, ts, n=n, check=False)
        alone = [run(fam, [t], n=n, check=False) for t in ts]
        assert np.array_equal(curve.phi, np.concatenate([c.phi for c in alone]))
        assert np.array_equal(curve.integrals, np.concatenate([c.integrals for c in alone]))

    @pytest.mark.parametrize("name", BATCHED_CURVES)
    def test_samples_stay_within_the_chunk_bound(self, name, monkeypatch):
        run, build, n = BATCHED_CURVES[name]
        fam = build()
        one_t = max(np.size(e) for row in fam.sample_matrix(fam.t_range[0], family_axes(fam, n))
                    for e in row)
        sizes = []
        original = MetricFamily.sample_matrix

        def recorded(self, t, axes):
            m = original(self, t, axes)
            sizes.append(max(np.size(e) for row in m for e in row))
            return m

        monkeypatch.setattr(MetricFamily, "sample_matrix", recorded)
        run(fam, np.linspace(fam.t_range[0], fam.t_range[1], 21), n=n, check=False)
        assert max(sizes) <= max(n * n, one_t)
        if name == "bessel":
            assert len(sizes) <= 2

    def test_phi_3d_style_curve_builds_one_basis(self, monkeypatch):
        # a sampling on a 2-point grid sizes the chunk, then all 21 t go as one batch
        bases, sampled = [], recorded_sampling(monkeypatch)
        original = hodge.harmonic_basis_diag3
        monkeypatch.setattr(hodge, "harmonic_basis_diag3",
                            lambda fam, t, n: bases.append(np.shape(t)) or original(fam, t, n))
        phi_curve(phi_3d_style_family(), np.linspace(0, 1, 21), n=256, check=False)
        assert bases == [(21, 1, 1, 1)]
        assert [np.shape(t) for t in sampled] == [(), (21, 1, 1, 1)]

    def test_check_and_curve_share_one_probe(self, monkeypatch):
        # the 2-point sampling that sizes the chunks is cached on the family
        grids = []
        original = MetricFamily.sample_matrix
        monkeypatch.setattr(MetricFamily, "sample_matrix", lambda self, t, axes:
                            grids.append(np.size(axes["x1"])) or original(self, t, axes))
        phi_2d(family_from_entries(TWO_D_FAMILIES[2], dim=2), np.linspace(0, 1, 3), n=32)
        assert grids == [2] + [32] * (3 + 3)  # the probe, then the check's 3 t and the curve's

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_oracle_family_equals_the_per_t_loop_bit_for_bit(self, name):
        # the values, or the error of the first t to fail; their family-check reports are
        # held to the per-t loop by test_families.py::TestBatchedCheck
        fam = ORACLE_FAMILIES[name]()
        ts = np.linspace(*fam.t_range, 21)
        assert (outcome(lambda: phi_curve(fam, ts, n=32, check=False))
                == outcome(lambda: per_t_phi_curve(fam, ts, 32)))

    def test_no_t_values_give_an_empty_curve(self):
        curve = phi_curve(bessel_family(), [], n=32)
        assert curve.phi.shape == (0,) and curve.integrals.shape == (0, 3)

    def test_sampling_failure_names_one_t(self):
        # the 2-point probe passes; t = 0.5 overflows inside the batch
        fam = make_collapsing_22("(1 + 2000*t)*x1", t1=2.0, t_range=(0.0, 1.0))
        with pytest.raises(FamilyError, match=r"not finite at t=0\.5: "):
            phi_curve(fam, np.linspace(0.0, 1.0, 5), n=32, check=False)

    def test_batch_domain_error_names_the_grid_point_of_one_t(self):
        # t = 0.5 leaves sqrt's domain inside the batch: the error is
        # the one t = 0.5 raises alone, its index a grid point without a batch axis
        fam = family_from_entries({**BESSEL, "g22": "exp(t*sin(2*pi*x1)) + 0*sqrt(0.5 - t)"})
        with pytest.raises(EvalDomainError) as alone:
            phi_curve(fam, [0.5], n=32, check=False)
        with pytest.raises(EvalDomainError) as batched:
            phi_curve(fam, np.linspace(0.0, 1.0, 5), n=32, check=False)
        assert str(batched.value) == str(alone.value)
        assert str(alone.value).endswith("at grid index ()")

    @pytest.mark.parametrize("ts,first", [(np.linspace(0, 1, 21), 0.05), ([0.5], 0.5),
                                          ([0.0, 0.0, 0.3, 0.6], 0.3)])
    def test_basis_failure_names_the_first_t_to_fail_alone(self, ts, first):
        # t = 0 certifies alone; for t > 0 det = 1 + t sin(2 pi x1)/2 depends on x1, so
        # theta_1 fails co-closure at every later t, alone or in the chunk
        drift = family_from_entries({**BESSEL, "g11": "(1 + t*sin(2*pi*x1)/2)*" + BESSEL["g11"]})
        with pytest.raises(HodgeError) as err:
            phi_curve(drift, ts, n=256, check=False)
        assert re.fullmatch(r"harmonicity residual above tolerance: d=0\.000e\+00, "
                            rf"delta=\S+ at t={first}", str(err.value)), str(err.value)

    def test_2d_basis_failure_names_its_t(self):
        # det = C(x1, x2) depends on x1 for t > 0: theta_1 fails co-closure
        fam = family_from_entries({"g11": "1 + t*cos(2*pi*x1)/2", "g22": "1"}, dim=2)
        with pytest.raises(HodgeError, match=r"^harmonicity residual .* at t=0\.25$"):
            phi_2d(fam, np.linspace(0, 1, 5), n=32, check=False)

    def test_traced_names_are_reached_through_the_module(self, monkeypatch):
        # the benchmark's traced replay times hodge.basis and hodge.gram by
        # patching these three module attributes
        calls = []
        for name in ("harmonic_basis_diag3", "harmonic_basis_2d", "gram_L2"):
            original = getattr(hodge, name)
            monkeypatch.setattr(hodge, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        phi_curve(bessel_family(), np.linspace(0, 1, 3), n=32, check=False)
        assert sorted(set(calls)) == ["gram_L2", "harmonic_basis_diag3"]
        calls.clear()
        phi_2d(family_from_entries(TWO_D_FAMILIES[2], dim=2), np.linspace(0, 1, 3), n=32,
               check=False)
        assert sorted(set(calls)) == ["gram_L2", "harmonic_basis_2d"]


class TestNoReferenceCycles:
    def test_runs_leave_nothing_for_the_cyclic_collector(self):
        # a cycle would keep a run's sample arrays alive until gc runs
        runs = (lambda: check_slag_family(bessel_family(), n=128, nt=9, tol=1e-10),
                lambda: phi_curve(bessel_family(), np.linspace(0, 1, 21), n=256),
                lambda: phi_2d(generated_2d_families(2203, 1)[0], np.linspace(0, 1, 21), n=128))
        gc.collect()
        gc.disable()
        try:
            for run in runs:
                run()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestPhi2D:
    def test_flat_2d(self):
        curve = phi_2d(flat_family(dim=2), np.linspace(0, 1, 3), n=32)
        assert np.allclose(curve.phi, 1.0, atol=1e-14)

    def test_diagonal_family_theta1(self):
        fam = family_from_entries(TWO_D_FAMILIES[0], dim=2)
        n = 128
        basis = harmonic_basis_2d(fam, 1.0, n=n)
        x = periodic_axis(n)
        g11 = np.exp(np.cos(2 * np.pi * x))
        expect = g11 / periodic_quad(g11)
        assert np.max(np.abs(basis.theta[0][0][:, 0] - expect)) < 1e-12
        assert np.max(np.abs(basis.theta[0][1])) < 1e-14

    def test_offdiagonal_family_has_dx2_correction(self):
        # constant g12 against non-constant C engages the dx2 term of theta_1
        fam = family_from_entries(
            {"g11": "exp(t*cos(2*pi*x1))", "g12": "1/4",
             "g22": "(17/16 + cos(2*pi*x2)/4)*exp(-t*cos(2*pi*x1))"}, dim=2)
        basis = harmonic_basis_2d(fam, 0.8, n=128)
        assert np.max(np.abs(basis.theta[0][1])) > 1e-3
        assert basis.residuals["closure"] < 1e-10
        assert basis.residuals["coclosure"] < 1e-8
        gram = gram_L2(basis)
        assert float(det(gram)) == pytest.approx(1.0, abs=1e-9)

    def test_nonconstant_c_records_scale(self):
        fam = family_from_entries(TWO_D_FAMILIES[2], dim=2)
        basis = harmonic_basis_2d(fam, 0.5, n=128)
        assert abs(basis.scale - 1.0) > 1e-4  # K != 1 here
        gram = gram_L2(basis)
        assert float(det(gram)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("entries", TWO_D_FAMILIES)
    def test_phi_identically_one(self, entries):
        fam = family_from_entries(entries, dim=2)
        curve = phi_2d(fam, np.linspace(0, 1, 21), n=128)
        assert np.max(np.abs(curve.phi - 1.0)) < 1e-8

    def test_constant_g12_keeps_natural_shapes(self):
        # g11, g22 depend on x1 only and g12 and det are constant, so theta_1's
        # dx2 term and theta_2 stay (1, 1) and nothing is sampled at (n, n)
        n = 64
        basis = harmonic_basis_2d(family_from_entries(TWO_D_FAMILIES[1], dim=2), 0.7, n=n)
        assert np.ndim(basis.metric[0][1]) == 0
        assert basis.theta[0][0].shape == (n, 1)
        assert basis.theta[0][1].shape == (1, 1)
        assert basis.theta[1][1].shape == (1, 1)
        assert np.ndim(basis.theta[1][0]) == 0 and basis.theta[1][0] == 0.0

    def test_gram_entries_match_remark_formulas(self):
        # |theta1|^2 = (1 + L^2)/M, <theta1,theta2> = -L, |theta2|^2 = M  (K = 1)
        fam = family_from_entries(TWO_D_FAMILIES[1], dim=2)
        t = 0.6
        basis = harmonic_basis_2d(fam, t, n=256)
        gram = gram_L2(basis)
        big_m = periodic_quad(np.exp(t * np.cos(2 * np.pi * periodic_axis(256))))
        big_l = 0.25
        assert gram[0, 0] == pytest.approx((1 + big_l ** 2) / big_m, abs=1e-10)
        assert gram[0, 1] == pytest.approx(-big_l, abs=1e-10)
        assert gram[1, 1] == pytest.approx(big_m, abs=1e-10)

    def test_closure_needs_no_transform(self, monkeypatch):
        # each theta component is constant along the axis it is differentiated
        # on, and theta[1, 0] == 0, so closure is checked without an FFT
        basis = harmonic_basis_2d(family_from_entries(TWO_D_FAMILIES[1], dim=2), 0.7, n=64)
        calls = []
        for name in ("fft", "rfft"):
            original = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
        assert [curl_residual(row, (True, True)) for row in basis.theta] == [0.0, 0.0]
        assert calls == []

    def test_tampered_theta_fails_closure(self):
        # theta_1 with a dx1 coefficient depending on x2 keeps its periods but
        # is not closed: the check still transforms it and raises
        n, tol = 32, 1e-8
        basis = harmonic_basis_2d(family_from_entries(TWO_D_FAMILIES[1], dim=2), 0.5, n=n)
        theta = [list(row) for row in basis.theta]
        theta[0][0] = theta[0][0] * (1 + 0.1 * np.sin(2 * np.pi * periodic_axis(n)))[None, :]
        assert curl_residual(theta[0], (True, True)) > 0.1
        with pytest.raises(HodgeError, match="harmonicity residual"):
            hodge._verified_basis(theta, basis.metric, *adjugate_and_det(basis.metric), tol,
                                  basis.scale)

    def test_x1_dependent_determinant_rejected(self):
        # the certification refuses it: the flux sqrt(g11)/M dx1 of theta_1 varies along x1
        fam = family_from_entries({"g11": "1 + sin(2*pi*x1)/2", "g22": "1"}, dim=2)
        with pytest.raises(HodgeError, match=NOT_CO_CLOSED):
            harmonic_basis_2d(fam, 0.0, n=64)
