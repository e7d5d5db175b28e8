"""A nan planted in a residual fails the guard that reads it.

Each case below plants one nan where a guard of ``families``, ``gridops`` or
``hodge`` takes its maximum or compares it with a tolerance.  A nan is never
below a tolerance, and Python's ``max`` keeps or drops a nan by its position,
so each guard must reach its verdict through the one rule (``jets.within``
over ``jets.worst`` or ``np.max``).
"""

import math

import numpy as np
import pytest

from slagcy import gridops, hodge
from slagcy.families import FamilyCheckReport, GridEntry, check_slag_family, family_from_entries
from slagcy.gridops import curl_residual, grid_diff
from slagcy.families import FamilyError
from slagcy.hodge import HodgeError, PhiCurve, harmonic_basis_2d, harmonic_basis_diag3, phi_curve
from slagcy.jets import det

NAN = float("nan")
BESSEL = {"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
          "g33": "exp(t*sin(2*pi*x1))"}
TWO_D = {"g11": "exp(t*cos(2*pi*x1))", "g12": "1/4", "g22": "17/16*exp(-t*cos(2*pi*x1))"}
FLAT_2D = [[1.0, 0.0], [0.0, 1.0]]
FLAT_2D_ADJ_DET = (hodge._pointwise_adjugate(FLAT_2D), det(FLAT_2D))


def nan_at_half(fill: float) -> GridEntry:
    """A grid entry equal to ``fill`` except for a nan at x1 = 1/2 (on an even grid)."""
    return GridEntry(lambda t, axes: np.where(axes["x1"] == 0.5, NAN, fill))


def with_nan(values):
    """A float copy of ``values`` (at least 2-D) whose second entry is nan."""
    out = np.array(np.atleast_2d(values), dtype=np.float64)
    out.flat[1] = NAN
    return out


def report_with_nan(position: int):
    fields = [0.0, 0.0, 0.0]
    fields[position] = NAN
    report = FamilyCheckReport(*fields, 1e-10, 8, 2)
    assert not report.passed()
    assert report.verdict == "fail" and math.isnan(report.worst)


def check_loop_sqrt_det(monkeypatch):
    # the x1-derivative of sqrt(det) reads nan in the second chunk of t_batches only:
    # at n = 16 a chunk holds 16 of the 20 t
    calls = []

    def planted(samples, axis, periodic):
        out = grid_diff(samples, axis, periodic)
        # curl_residual reads the patched grid_diff too: its calls (g11 along x2 and
        # x3, the 0-d off-diagonal entries along x1) pass through
        if axis != -3 or not np.ndim(samples):
            return out
        calls.append(axis)
        return out * NAN if len(calls) == 2 else out

    monkeypatch.setattr(gridops, "grid_diff", planted)
    report = check_slag_family(family_from_entries(BESSEL), n=16, nt=20)
    assert len(calls) == 2 and math.isnan(report.det_x1_independence) and not report.passed()


def check_loop_closure(monkeypatch):
    values = iter([0.0, NAN])  # the closure residual of the first 16 t, then of the last 4
    monkeypatch.setattr(gridops, "curl_residual", lambda row, periodic: next(values))
    report = check_slag_family(family_from_entries(BESSEL), n=16, nt=20)
    assert math.isnan(report.closure_residual) and not report.passed()


def curl_later_pair(monkeypatch):
    # only the pair (x2, x3) of a 3D form sees the nan
    row = [0.0, 0.0, np.array([[0.0], [NAN], [0.0], [0.0]])]
    assert math.isnan(curl_residual(row, (True,) * 3))


def periods(monkeypatch):
    theta = [[1.0, 0.0], [0.0, with_nan(np.ones((1, 4)))]]
    with pytest.raises(HodgeError, match=r"^cycle normalization off by nan \(tol 1\.0e-08\)$"):
        hodge._verified_basis(theta, FLAT_2D, *FLAT_2D_ADJ_DET, 1e-8, 1.0)


def closure(monkeypatch):
    monkeypatch.setattr(hodge, "curl_residual", lambda row, periodic: NAN)
    with pytest.raises(HodgeError, match="d=nan, delta=0.000e"):
        hodge._verified_basis(FLAT_2D, FLAT_2D, *FLAT_2D_ADJ_DET, 1e-8, 1.0)


def coclosure(monkeypatch):
    adj, det_g = FLAT_2D_ADJ_DET
    with pytest.raises(HodgeError, match="d=0.000e.*, delta=nan"):
        hodge._verified_basis(FLAT_2D, FLAT_2D, adj, with_nan(np.full((1, 4), det_g)), 1e-8, 1.0)


# the basis builders read a sample's sign through the leading minors of the positivity
# rule: a nan off the diagonal reaches minor 2 first, one in g33 (2D: g22) only the det


def diag3_off_diagonal(monkeypatch):
    fam = family_from_entries({"g11": "1", "g12": nan_at_half(0.0), "g22": "1", "g33": "1"})
    with pytest.raises(FamilyError, match=r"at t=0\.5: leading minor 2 reaches nan$"):
        harmonic_basis_diag3(fam, 0.5, n=8)


def diag3_determinant(monkeypatch):
    fam = family_from_entries({"g11": "1", "g22": "1", "g33": nan_at_half(1.0)})
    with pytest.raises(FamilyError, match=r"at t=0\.5: leading minor 3 reaches nan$"):
        harmonic_basis_diag3(fam, 0.5, n=8)


def two_d_determinant(monkeypatch):
    fam = family_from_entries({**TWO_D, "g22": nan_at_half(1.0)}, dim=2)
    with pytest.raises(FamilyError, match=r"at t=0\.5: leading minor 2 reaches nan$"):
        harmonic_basis_2d(fam, 0.5, n=8)


def two_d_integral(monkeypatch):
    # past the positivity rule: int g12 dx2 (the first mean of L, along x2) reads nan,
    # and theta_1's dx2 period with it
    quad = hodge.periodic_quad
    monkeypatch.setattr(hodge, "periodic_quad", lambda samples, axis=None, keepdims=False:
                        NAN if axis == -1 else quad(samples, axis, keepdims))
    with pytest.raises(HodgeError, match=r"^cycle normalization off by nan \(tol 1\.0e-08\)$"):
        harmonic_basis_2d(family_from_entries(TWO_D, dim=2), 0.5, n=8)


def non_finite_phi(monkeypatch):
    gram = hodge.gram_L2
    monkeypatch.setattr(hodge, "gram_L2", lambda basis: gram(basis) * NAN)
    with pytest.raises(HodgeError, match=r"^Phi is not finite at t=0\.0: nan$"):
        phi_curve(family_from_entries({"g11": "1", "g22": "1", "g33": "1"}), [0.0, 1.0],
                  n=8, check=False)


def classification(monkeypatch):
    assert PhiCurve(t=np.array([0.0, 1.0]), phi=np.array([1.0, NAN])).classification() \
        == "non-constant"


CASES = {
    "report det_t_independence": lambda mp: report_with_nan(0),
    "report det_x1_independence": lambda mp: report_with_nan(1),
    "report closure_residual": lambda mp: report_with_nan(2),
    "check loop sqrt det": check_loop_sqrt_det,
    "check loop closure": check_loop_closure,
    "curl later pair": curl_later_pair,
    "periods": periods,
    "closure": closure,
    "co-closure": coclosure,
    "diag3 off-diagonal": diag3_off_diagonal,
    "diag3 determinant": diag3_determinant,
    "2D determinant": two_d_determinant,
    "2D integrals": two_d_integral,
    "non-finite Phi": non_finite_phi,
    "classification": classification,
}


@pytest.mark.parametrize("case", CASES)
def test_a_planted_nan_fails_its_guard(case, monkeypatch):
    CASES[case](monkeypatch)
