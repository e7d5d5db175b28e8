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
from slagcy.hodge import HodgeError, PhiCurve, harmonic_basis_2d, harmonic_basis_diag3, phi_curve

NAN = float("nan")
BESSEL = {"g11": "exp(-2*t*sin(2*pi*x1))", "g22": "exp(t*sin(2*pi*x1))",
          "g33": "exp(t*sin(2*pi*x1))"}
TWO_D = {"g11": "exp(t*cos(2*pi*x1))", "g12": "1/4", "g22": "17/16*exp(-t*cos(2*pi*x1))"}
FLAT_2D = [[1.0, 0.0], [0.0, 1.0]]


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
        hodge._verified_basis(theta, FLAT_2D, *hodge._pointwise_adjugate(FLAT_2D), 1e-8, 1.0)


def closure(monkeypatch):
    monkeypatch.setattr(hodge, "curl_residual", lambda row, periodic: NAN)
    with pytest.raises(HodgeError, match="d=nan, delta=0.000e"):
        hodge._verified_basis(FLAT_2D, FLAT_2D, *hodge._pointwise_adjugate(FLAT_2D), 1e-8, 1.0)


def coclosure(monkeypatch):
    adj, det_g = hodge._pointwise_adjugate(FLAT_2D)
    with pytest.raises(HodgeError, match="d=0.000e.*, delta=nan"):
        hodge._verified_basis(FLAT_2D, FLAT_2D, adj, with_nan(np.full((1, 4), det_g)), 1e-8, 1.0)


def diag3_off_diagonal(monkeypatch):
    fam = family_from_entries({"g11": "1", "g12": nan_at_half(0.0), "g22": "1", "g33": "1"})
    with pytest.raises(HodgeError, match=r"entry \(1,2\) is not zero"):
        harmonic_basis_diag3(fam, 0.5, n=8)


def diag3_determinant(monkeypatch):
    fam = family_from_entries({"g11": nan_at_half(1.0), "g22": "1", "g33": "1"})
    with pytest.raises(HodgeError, match="determinant is not identically 1"):
        harmonic_basis_diag3(fam, 0.5, n=8)


def two_d_determinant(monkeypatch):
    # a nan sample fails the adjugate's positivity test first, so the nan is planted
    # in the determinant the adjugate returns
    adjugate = hodge._pointwise_adjugate
    monkeypatch.setattr(hodge, "_pointwise_adjugate",
                        lambda m: (adjugate(m)[0], with_nan(adjugate(m)[1])))
    with pytest.raises(HodgeError, match="determinant depends on x1"):
        harmonic_basis_2d(family_from_entries(TWO_D, dim=2), 0.5, n=8)


def two_d_integral(monkeypatch):
    # g12 is nan at one point; the adjugate is taken of the diagonal, which has none
    adjugate = hodge._pointwise_adjugate
    monkeypatch.setattr(hodge, "_pointwise_adjugate",
                        lambda m: adjugate([[m[0][0], 0.0], [0.0, m[1][1]]]))
    fam = family_from_entries({"g11": "1", "g12": nan_at_half(0.0), "g22": "1"}, dim=2)
    with pytest.raises(HodgeError, match="int g11 dx1 or int g12 dx2 is not constant"):
        harmonic_basis_2d(fam, 0.5, n=8)


def closed_form_gap(monkeypatch):
    gram = hodge.gram_L2
    monkeypatch.setattr(hodge, "gram_L2", lambda basis: gram(basis) * NAN)
    with pytest.raises(HodgeError, match=r"disagrees with the closed form at t=0\.0: .*nan") as exc:
        phi_curve(family_from_entries({"g11": "1", "g22": "1", "g33": "1"}), [0.0, 1.0],
                  n=8, check=False)
    assert "np.float64(" not in str(exc.value)


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
    "closed-form gap": closed_form_gap,
    "classification": classification,
}


@pytest.mark.parametrize("case", CASES)
def test_a_planted_nan_fails_its_guard(case, monkeypatch):
    CASES[case](monkeypatch)
