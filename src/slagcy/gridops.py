"""Uniform-grid sampling, periodic quadrature and differentiation helpers, and
``eval_grid``, the DSL's one walk bound to numpy samples."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial, reduce

import numpy as np

from .dsl import _RING, CONSTANTS, EvalDomainError, Expr, _walk


def periodic_axis(n: int, periodic: bool = True) -> np.ndarray:
    """n uniform samples of [0, 1): left endpoints for periodic axes,
    midpoints for non-periodic ones (keeps 0 out of the sample set)."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if periodic:
        return np.arange(n) / n
    return (np.arange(n) + 0.5) / n


def periodic_quad(samples, axis=None, keepdims: bool = False) -> np.ndarray | float:
    """Trapezoid rule over the unit period on a uniform periodic grid.

    With no endpoint duplication this is the plain mean, which is spectrally
    accurate for smooth periodic integrands.  ``axis=None`` integrates over
    every axis; ``keepdims`` keeps the integrated axes at size 1.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr)
    if arr.ndim == 1 and arr.shape[0] < 2:
        raise ValueError("grid needs at least 2 samples")
    if axis is None:
        axis = tuple(range(arr.ndim))
    # size-1 axes of broadcast sample arrays integrate as constants
    out = arr.mean(axis=axis, keepdims=keepdims)
    return float(out) if np.ndim(out) == 0 else out


def grid_diff(samples, axis: int, periodic: bool) -> np.ndarray:
    """Derivative along ``axis`` (negative axes count from the end) of samples on
    n points of :func:`periodic_axis`: real FFT (``rfft``/``irfft``; for even n
    the Nyquist mode is dropped, as usual for odd-order spectral derivatives) if
    ``periodic``, else second-order finite differences at spacing 1/n.  Samples
    constant along the axis (an absent or size-1 axis, or a materialized
    broadcast copy) differentiate to exact zeros without a transform."""
    arr = np.asarray(samples, dtype=np.float64)
    if not -arr.ndim <= axis < arr.ndim or np.all(arr == arr.take([0], axis=axis)):
        return np.zeros_like(arr)
    n, axis = arr.shape[axis], axis % arr.ndim
    if not periodic:
        return np.gradient(arr, 1.0 / n, axis=axis)
    # wavenumbers 0..n//2 along ``axis``, trailing size-1 axes for broadcasting
    k = np.arange(n // 2 + 1, dtype=np.float64).reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
    if n % 2 == 0:
        k[-1] = 0.0
    spectrum = np.fft.rfft(arr, axis=axis) * ((2j * np.pi) * k)
    return np.fft.irfft(spectrum, n=n, axis=axis)


@cache
def _diff_norm(n: int) -> float:
    """Infinity norm of grid_diff's periodic matrix on n points: twice pi sum_{0<j<n/2} of
    cot(pi j/n) for even n, of 1/sin(pi j/n) for odd n (the rows' symmetric halves)."""
    angles = np.arange(1, (n + 1) // 2) * (np.pi / n)
    return 2.0 * np.pi * float(np.sum(1.0 / (np.tan(angles) if n % 2 == 0 else np.sin(angles))))


def grid_diff_bound(samples, axis: int) -> float:
    """A bound on max |grid_diff(samples, axis, True)| with no transform: that matrix
    annihilates constants, so its infinity norm times max |samples - samples.take([0],
    axis)|.  0.0 along an absent, size-1 or constant axis; nan for a nan sample."""
    arr = np.asarray(samples, dtype=np.float64)
    if not -arr.ndim <= axis < arr.ndim:
        return 0.0
    return _diff_norm(arr.shape[axis]) * float(np.max(np.abs(arr - arr.take([0], axis=axis))))


def curl_residual(row, periodic) -> float:
    """max |d_a row[b] - d_b row[a]| over the axis pairs a < b of a 1-form's
    components ``row``: component k goes with axis k - len(row), counted from
    the end, periodic as ``periodic[k]`` says.  Zero for a closed form, nan if any is."""
    dim = len(row)  # np.maximum keeps a nan, and reducing with it builds no array
    return float(reduce(np.maximum, (np.max(np.abs(grid_diff(row[b], a - dim, periodic[a])
                                                   - grid_diff(row[a], b - dim, periodic[b])))
                                     for a in range(dim) for b in range(a + 1, dim))))


def _in_domain(samples, bad, what: str):
    """``samples``, unless ``bad`` holds at a grid index: EvalDomainError names it."""
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
        raise EvalDomainError(f"{what} at grid index {tuple(int(i) for i in index)}")
    return samples


def _sample_pow(base, r: Fraction):
    if r.denominator != 1:
        return _in_domain(base, base <= 0, "fractional power of a non-positive sample") ** float(r)
    base = _in_domain(base, base == 0, "negative power of a zero sample") if r < 0 else base
    return base ** int(r)


# The one domain table: "/" and a negative integer "^" need non-zero samples;
# a fractional "^", log and sqrt need positive ones.
_SAMPLES = {**_RING, "var": partial(np.asarray, dtype=np.float64), "num": np.float64,
            "const": lambda name: np.float64(CONSTANTS[name]), "^": _sample_pow,
            "/": lambda a, b: a / _in_domain(b, b == 0, "division by a zero sample"),
            "log": lambda a: np.log(_in_domain(a, a <= 0, "log of a non-positive sample")),
            "sqrt": lambda a: np.sqrt(_in_domain(a, a <= 0, "sqrt of a non-positive sample")),
            "exp": np.exp, "sin": np.sin, "cos": np.cos, "overflow": EvalDomainError}


@np.errstate(all="raise", under="ignore")
def eval_grid(e: Expr, env: dict) -> np.ndarray:
    """Pointwise double-precision evaluation; ``env`` binds variable names to floats
    or broadcastable arrays.  A sample outside the domain table, or a value on
    finite samples that is not finite, raises EvalDomainError with its grid index."""
    try:
        return _walk(e, env, _SAMPLES)
    except FloatingPointError:  # an overflow or a nan: find where the value is not finite
        with np.errstate(all="ignore"):
            value = _walk(e, env, _SAMPLES)
        _in_domain(value, ~np.isfinite(value), "non-finite value")
        return value  # only an intermediate value overflowed
