"""Thermal-occupation numerics and the adaptive quadrature engine."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbdrag import (
    QuadratureConvergenceError,
    QuadratureSpec,
    bose_occupation,
    integrate_1d,
    integrate_omega_x,
    lorentz_gamma,
    omega_cutoff,
)
from bbdrag.kernels import BETA_MAX, inv_sinh_sq

SPEC = QuadratureSpec()


# --------------------------------------------------------------- occupation


def test_bose_reference_values():
    assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)
    # deep Wien tail, pinned with 50-digit arithmetic
    with mpmath.workdps(50):
        expected = float(1.0 / mpmath.expm1(mpmath.mpf(50)))
    assert bose_occupation(50.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert bose_occupation(5.0, 0.1) == bose_occupation(50.0, 1.0)  # scale invariance


def test_bose_zero_temperature_is_zero():
    assert bose_occupation(1.0, 0.0) == 0.0
    assert np.all(bose_occupation(np.array([0.5, 2.0]), 0.0) == 0.0)


def test_bose_rayleigh_jeans_limit():
    # n -> T/w - 1/2 for w << T, without catastrophic cancellation
    n = bose_occupation(1e-9, 1.0)
    assert n == pytest.approx(1e9 - 0.5, rel=1e-12)


def test_bose_no_overflow_deep_in_tail():
    assert bose_occupation(1e6, 1.0) == 0.0  # underflows cleanly, no warning


def test_bose_validation():
    with pytest.raises(ValueError, match="omega > 0"):
        bose_occupation(0.0, 1.0)
    with pytest.raises(ValueError, match="temperature"):
        bose_occupation(1.0, -1.0)


@given(
    w=st.floats(min_value=1e-6, max_value=100.0),
    t=st.floats(min_value=1e-3, max_value=100.0),
)
def test_bose_positive_and_monotonic_in_temperature(w, t):
    n = bose_occupation(w, t)
    hotter = bose_occupation(w, 2.0 * t)
    assert n >= 0.0
    assert hotter >= n
    if w / t < 700.0:  # representable tail: strictly positive, strictly ordered
        assert n > 0.0
        assert hotter > n


def test_coth_and_sinh_helpers():
    y = 0.7
    assert inv_sinh_sq(y) == pytest.approx(1.0 / math.sinh(y) ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        inv_sinh_sq(0.0)


# ------------------------------------------------------------------ doppler


def test_lorentz_gamma_values():
    assert lorentz_gamma(0.0) == 1.0
    assert lorentz_gamma(0.6) == pytest.approx(1.25, rel=1e-15)
    assert lorentz_gamma(0.8) == pytest.approx(5.0 / 3.0, rel=1e-15)
    for bad in (-0.1, 1.0, float("nan"), BETA_MAX * 1.0000001):
        with pytest.raises(ValueError):
            lorentz_gamma(bad)


def test_omega_cutoff():
    assert omega_cutoff(2.0, 3.0, 0.0, 40.0) == 120.0
    blue = math.sqrt(1.8 / 0.2)  # = 3 at beta = 0.8
    assert omega_cutoff(2.0, 3.0, 0.8, 40.0) == pytest.approx(40.0 * 2.0 * blue, rel=1e-15)
    assert omega_cutoff(0.0, 1.0, 0.9, 40.0) == 40.0
    with pytest.raises(ValueError, match="undefined"):
        omega_cutoff(0.0, 0.0, 0.5, 40.0)
    with pytest.raises(ValueError):
        omega_cutoff(-1.0, 1.0, 0.5, 40.0)


# ----------------------------------------------------------- quadrature, 1D


def test_polynomial_is_exact():
    r = integrate_1d(lambda x: x**4, 0.0, 1.0, SPEC)
    assert r.value == pytest.approx(0.2, rel=1e-15)
    assert r.error <= 1e-14


def test_thermal_moment_closed_form():
    """integral_0^inf w^5 n(w, 1) dw = Gamma(6) zeta(6) = 8 pi^6 / 63."""
    r = integrate_1d(lambda w: w**5 * bose_occupation(w, 1.0), 1e-300, 50.0, SPEC)
    expected = 8.0 * math.pi**6 / 63.0
    assert r.value == pytest.approx(expected, rel=1e-10)
    assert abs(r.value - expected) <= max(5.0 * r.error, 1e-11 * expected)


def test_error_estimate_brackets_truth():
    # integral of cos(7x) over [-1, 1]
    truth = 2.0 * math.sin(7.0) / 7.0
    r = integrate_1d(lambda x: np.cos(7.0 * x), -1.0, 1.0, SPEC)
    assert abs(r.value - truth) <= max(10.0 * r.error, 1e-14)


def test_seeds_split_kinks():
    # |x - 0.3| has a kink; the seeded run must converge to the closed form
    f = lambda x: np.abs(x - 0.3)
    truth = (0.3**2 + 0.7**2) / 2.0
    seeded = integrate_1d(f, 0.0, 1.0, SPEC, seeds=(0.3,))
    assert seeded.value == pytest.approx(truth, rel=1e-12)
    plain = integrate_1d(f, 0.0, 1.0, SPEC)
    assert plain.value == pytest.approx(truth, rel=1e-9)
    assert seeded.panels <= plain.panels


def test_seeds_outside_interval_ignored():
    r = integrate_1d(lambda x: x, 0.0, 1.0, SPEC, seeds=(-5.0, 0.5, 7.0))
    assert r.value == pytest.approx(0.5, rel=1e-14)


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=2)
    with pytest.raises(QuadratureConvergenceError, match="subdivision"):
        integrate_1d(lambda x: np.sin(50.0 * x) ** 2 + np.sqrt(np.abs(x - 0.37)), 0.0, 1.0, spec)


def test_cancelling_integral_converges_with_roundoff_limited_error():
    """A net-zero integral over a large gross mass must still converge.

    Two equal Gaussian bumps of opposite sign cancel analytically while
    their gross mass is ~354, whose double-precision roundoff exceeds the
    requested abs_tol: subdivision can never reduce that part, so it must
    not block acceptance -- it belongs in the reported error instead,
    which then honestly brackets the (zero) value.
    """
    big = 1e3

    def f(x):
        return big * (np.exp(-((x - 0.3) ** 2) / 0.01) - np.exp(-((x - 0.7) ** 2) / 0.01))

    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-14)
    r = integrate_1d(f, 0.0, 1.0, spec)
    gross = big * 2.0 * math.sqrt(math.pi * 0.01)
    assert abs(r.value) <= 10.0 * r.error
    assert r.error >= 1e-16 * gross
    assert r.error <= 1e-11
    assert r.panels < 50


def test_nonfinite_integrand_reported():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            integrate_1d(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, SPEC)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0, SPEC)
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 0.0, math.inf, SPEC)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1e-14)
    with pytest.raises(ValueError):
        QuadratureSpec(u_max=5.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=-1)
    with pytest.raises(ValueError):
        QuadratureSpec(inner_nodes=4)
    QuadratureSpec(max_subdivisions=0)  # zero refinement rounds is legal


# ----------------------------------------------------------- quadrature, 2D


def test_separable_product_closed_form():
    """w^3 n(w,1) * x^2 factorizes: (pi^4/15) * (2/3)."""

    def kernel(om, x):
        return om**3 * bose_occupation(om, 1.0) * x**2

    r = integrate_omega_x(kernel, 1.0, 0.0, 0.0, SPEC)
    expected = (math.pi**4 / 15.0) * (2.0 / 3.0)
    assert r.value == pytest.approx(expected, rel=1e-9)
    assert r.omega_max == 40.0  # omega_cutoff at u_max = 40, T = 1


def test_inner_angular_weight_closed_form():
    """x (1 + b x)^-3 inner weight at b = 0.5 gives -16/9 * pi^4/15."""

    def kernel(om, x):
        return om**3 * bose_occupation(om, 1.0) * x * (1.0 + 0.5 * x) ** -3.0

    r = integrate_omega_x(kernel, 1.0, 0.0, 0.5, SPEC)
    expected = (math.pi**4 / 15.0) * (-16.0 / 9.0)
    assert r.value == pytest.approx(expected, rel=1e-9)


def test_inner_edges_fn_handles_discontinuous_band():
    """A band-limited kernel integrates exactly when edges are supplied."""
    lo, hi = 0.4, 0.9

    def kernel(om, x):
        return np.where((x >= lo) & (x <= hi), om * np.exp(-om), 0.0)

    def edges(om):
        flat = np.broadcast_to(np.array([-1.0, lo, hi, 1.0]), (om.size, 4))
        return np.ascontiguousarray(flat)

    r = integrate_omega_x(kernel, 0.0, 1.0, 0.0, SPEC, inner_edges_fn=edges)
    # integral of om*exp(-om) over [0, 40] ~= 1; x-width = 0.5
    assert r.value == pytest.approx(0.5, rel=1e-10)
