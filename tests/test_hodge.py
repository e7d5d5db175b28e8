import io
import math
import random

import numpy as np
import pytest

from slagcy import hodge
from slagcy.families import MetricFamily, family_from_entries
from slagcy.gridops import periodic_axis, periodic_quad, spectral_diff
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
from slagcy.jets import det

BESSEL = {"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
          "g33": "exp(t*sin(2*pi*x1))"}

TWO_D_FAMILIES = [
    {"g11": "exp(t*cos(2*pi*x1))", "g22": "exp(-t*cos(2*pi*x1))"},
    {"g11": "exp(t*cos(2*pi*x1))", "g12": "1/4", "g22": "17/16*exp(-t*cos(2*pi*x1))"},
    {"g11": "exp(t*sin(2*pi*x1))", "g22": "(1 + cos(2*pi*x2)/4)*exp(-t*sin(2*pi*x1))"},
]


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
        d = spectral_diff(np.sin(2 * np.pi * x), 0)
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
        d = spectral_diff(f * profile + offset, axis)
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
            d = spectral_diff(arr, axis)
            assert d.shape == arr.shape
            assert np.all(d == 0.0)
        assert np.all(spectral_diff(base[0], 3) == 0.0)  # an axis the samples lack

    def test_even_n_drops_the_nyquist_mode(self):
        n = 16
        x = periodic_axis(n)
        nyquist = np.cos(np.pi * n * x)  # (-1)^j on the grid
        d = spectral_diff(np.sin(2 * np.pi * x) + nyquist, 0)
        assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12
        assert np.max(np.abs(spectral_diff(nyquist, 0))) < 1e-12


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
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("shape", [(17,), (9, 9), "sparse"])
    def test_matches_linalg(self, dim, shape):
        rng = np.random.default_rng(5 + dim)
        m = sparse_spd(rng, dim, 9) if shape == "sparse" else spd_stack(rng, dim, shape)
        inv, det_m = hodge._pointwise_inverse(m)
        ref_inv, ref_det = linalg_inverse(m)
        inv = dense(inv)
        assert inv.shape == ref_inv.shape
        assert np.max(np.abs(inv - ref_inv)) <= 1e-13 * np.max(np.abs(ref_inv))
        assert np.max(np.abs(det_m - ref_det) / np.abs(ref_det)) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_positive_determinant_raises(self, dim):
        m = spd_stack(np.random.default_rng(3), dim, (8,))
        for bad in (np.ones((dim, dim)), np.diag([-1.0] + [1.0] * (dim - 1))):
            m[:, :, 5] = bad  # one sample with det 0, then det -1
            with pytest.raises(HodgeError, match="non-positive determinant"):
                hodge._pointwise_inverse(m)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gram_det_matches_linalg(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(10):
            matrix = spd_stack(rng, dim, ())
            got = float(det(matrix))  # the Phi of _phi_samples
            assert abs(got - np.linalg.det(matrix)) <= 1e-13 * abs(np.linalg.det(matrix))

    def test_inverse_formed_once_per_t(self, monkeypatch):
        calls = []
        original = hodge._pointwise_inverse
        monkeypatch.setattr(hodge, "_pointwise_inverse", lambda m: calls.append(1) or original(m))
        fam = family_from_entries(TWO_D_FAMILIES[1], dim=2)
        phi_2d(fam, np.linspace(0, 1, 4), n=32, check=False)
        phi_curve(bessel_family(), np.linspace(0, 1, 3), n=32, check=False)
        assert len(calls) == 7


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
        assert basis.sqrt_det.shape == (n, 1, 1)
        for i in range(3):
            assert basis.metric[i][i].shape == (n, 1, 1)
            for j in range(3):
                if i != j:
                    assert np.ndim(basis.theta[i][j]) == 0 and basis.theta[i][j] == 0.0
                    assert np.ndim(basis.metric[i][j]) == 0 and basis.metric[i][j] == 0.0
                assert np.shape(basis.inverse[i][j]) in ((), (n, 1, 1))

    def test_period_normalization(self):
        basis = harmonic_basis_diag3(bessel_family(), 0.7, n=256)
        assert basis.residuals["periods"] < 1e-12

    def test_rejects_nondiagonal(self):
        fam = family_from_entries({"g11": "1", "g12": "1/2", "g22": "1", "g33": "1"})
        with pytest.raises(HodgeError, match="not zero"):
            harmonic_basis_diag3(fam, 0.0, n=16)

    def test_rejects_non_unit_determinant(self):
        fam = family_from_entries({"g11": "2", "g22": "1", "g33": "1"})
        with pytest.raises(HodgeError, match="determinant"):
            harmonic_basis_diag3(fam, 0.0, n=16)

    def test_rejects_x2_dependence(self):
        fam = family_from_entries({"g11": "exp(sin(2*pi*x2))", "g22": "1",
                                   "g33": "exp(-sin(2*pi*x2))"})
        with pytest.raises(HodgeError, match="x2 or x3"):
            harmonic_basis_diag3(fam, 0.0, n=16)

    def test_rejects_x3_dependence(self):
        # an x3-only entry samples at shape (1, 1, n): as many points as an
        # x1-only one, so only its shape tells the two apart
        fam = family_from_entries({"g11": "1", "g22": "exp(sin(2*pi*x3))",
                                   "g33": "exp(-sin(2*pi*x3))"})
        with pytest.raises(HodgeError, match="x2 or x3"):
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
        with pytest.raises(HodgeError, match="Phi needs a torus"):
            run(fam, [0.0, 1.0], n=16)


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
        assert basis.sqrt_det.shape == (n, 1)

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
        assert hodge._closure_residual(basis.theta) == 0.0
        assert calls == []

    def test_tampered_theta_fails_closure(self):
        # theta_1 with a dx1 coefficient depending on x2 keeps its periods but
        # is not closed: the check still transforms it and raises
        n, tol = 32, 1e-8
        basis = harmonic_basis_2d(family_from_entries(TWO_D_FAMILIES[1], dim=2), 0.5, n=n)
        theta = [list(row) for row in basis.theta]
        theta[0][0] = theta[0][0] * (1 + 0.1 * np.sin(2 * np.pi * periodic_axis(n)))[None, :]
        assert hodge._closure_residual(theta) > 0.1
        with pytest.raises(HodgeError, match="harmonicity residual"):
            hodge._verified_basis(theta, basis.metric, *hodge._pointwise_inverse(basis.metric),
                                  tol, basis.scale)

    def test_x1_dependent_determinant_rejected(self):
        fam = family_from_entries({"g11": "1 + sin(2*pi*x1)/2", "g22": "1"}, dim=2)
        with pytest.raises(HodgeError, match="x1"):
            harmonic_basis_2d(fam, 0.0, n=64)
