"""Thermal-occupation numerics and the adaptive quadrature engine."""

from __future__ import annotations

import math
import sys

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
)
from bbdrag.kernels import BETA_MAX, _TAIL_LENGTHS

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


# (y, 1/expm1(y), 1/sinh(y/2)^2), the second and third rounded to the
# nearest double from 60-digit mpmath:
#   with mpmath.workdps(60):
#       float(1 / mpmath.expm1(y)), float(1 / mpmath.sinh(y / 2) ** 2)
# None where 1/sinh^2 overflows a double.  Beside a log-spaced sweep the
# table holds y = 699.9, 700, 700.1 (a former branch switch) and the tail
# from 709 on, where the occupation is subnormal.
OCCUPATION_REFERENCE = (
    (1e-300, 9.999999999999999e+299, None),
    (1e-200, 1e+200, None),
    (1e-150, 1e+150, 4e+300),
    (1e-100, 1e+100, 4e+200),
    (1e-50, 1e+50, 4e+100),
    (1e-20, 1e+20, 4.0000000000000006e+40),
    (1e-08, 99999999.5, 4e+16),
    (1e-05, 99999.50000083333, 39999999999.66666),
    (0.001, 999.5000833333319, 3999999.6666666833),
    (0.01, 99.50083333194445, 39999.666668333324),
    (0.1, 9.50833194477505, 399.66683326721886),
    (0.5, 1.5414940825367982, 15.670792356131056),
    (1.0, 0.5819767068693265, 3.682694376831169),
    (2.0, 0.15651764274966565, 0.7240616609663104),
    (3.0, 0.05239569649125595, 0.22056402200823905),
    (5.0, 0.006783654906304231, 0.027318691520768226),
    (10.0, 4.5401991009687765e-05, 0.00018161620940190164),
    (20.0, 2.061153626686912e-09, 8.244614523741066e-09),
    (30.0, 9.357622968841051e-14, 3.74304918753677e-13),
    (50.0, 1.9287498479639178e-22, 7.714999391855671e-22),
    (100.0, 3.720075976020836e-44, 1.4880303904083344e-43),
    (200.0, 1.3838965267367376e-87, 5.53558610694695e-87),
    (300.0, 5.148200222412013e-131, 2.0592800889648054e-130),
    (400.0, 1.9151695967140057e-174, 7.660678386856023e-174),
    (500.0, 7.124576406741286e-218, 2.8498305626965142e-217),
    (600.0, 2.6503965530043108e-261, 1.0601586212017243e-260),
    (650.0, 5.111951948651156e-283, 2.0447807794604624e-282),
    (699.9, 1.0896627777796162e-304, 4.358651111118465e-304),
    (700.0, 9.85967654375977e-305, 3.943870617503908e-304),
    (700.1, 8.921404266525102e-305, 3.568561706610041e-304),
    (705.0, 6.643397797997952e-307, 2.6573591191991808e-306),
    (708.0, 3.307553003638408e-308, 1.3230212014553631e-307),
    (709.0, 1.216780750623423e-308, 4.867123002493693e-308),
    (709.5, 7.38014831401258e-309, 2.9520593256050323e-308),
    (709.7, 6.04235438695844e-309, 2.4169417547833775e-308),
    (709.8, 5.467348342354227e-309, 2.1869393369416917e-308),
    (710.0, 4.47628622567513e-309, 1.790514490270052e-308),
    (711.0, 1.64673367522479e-309, 6.586934700899165e-309),
    (715.0, 3.016097934134e-311, 1.2064391736534e-310),
    (720.0, 2.0322308024e-313, 8.12892320967e-313),
    (725.0, 1.36930634e-315, 5.477225376e-315),
    (730.0, 9.226315e-318, 3.6905256e-317),
    (735.0, 6.217e-320, 2.48663e-319),
    (740.0, 4.2e-322, 1.675e-321),
    (742.0, 5.4e-323, 2.27e-322),
    (744.0, 1e-323, 3e-323),
    (745.0, 5e-324, 1e-323),
)
SUBNORMAL_ULP = 5e-324


def assert_rounded(got: float, ref: float, ulps: float, what) -> None:
    """5e-16 relative where ref is a normal double, else `ulps` subnormal ulps."""
    if ref >= sys.float_info.min:
        assert abs(got - ref) <= 5e-16 * ref, what
    else:
        assert abs(got - ref) <= ulps * SUBNORMAL_ULP, what


def test_bose_occupation_matches_mpmath_over_the_double_range():
    y = np.array([row[0] for row in OCCUPATION_REFERENCE])
    n = bose_occupation(y, 1.0)
    for (yi, ref, _), got in zip(OCCUPATION_REFERENCE, n):
        assert_rounded(got, ref, 1.0, yi)
        assert_rounded(bose_occupation(yi, 1.0), ref, 1.0, yi)


def test_inverse_sinh_squared_from_the_occupation_matches_mpmath():
    """1/sinh^2(y/2) = 4 n (n + 1), the low-speed friction kernel.

    4 n is exact, so in the subnormal tail it carries four times the
    rounding of n.
    """
    for yi, _, ref in OCCUPATION_REFERENCE:
        if ref is not None:
            n = bose_occupation(yi, 1.0)
            assert_rounded(4.0 * n * (n + 1.0), ref, 4.0, yi)


# ------------------------------------------------------------------ doppler


def test_lorentz_gamma_values():
    assert lorentz_gamma(0.0) == 1.0
    assert lorentz_gamma(0.6) == pytest.approx(1.25, rel=1e-15)
    assert lorentz_gamma(0.8) == pytest.approx(5.0 / 3.0, rel=1e-15)
    for bad in (-0.1, 1.0, float("nan"), BETA_MAX * 1.0000001):
        with pytest.raises(ValueError):
            lorentz_gamma(bad)


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
        with pytest.raises(QuadratureConvergenceError, match="non-finite"):
            integrate_1d(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, SPEC)


def test_the_truncation_bound_rides_in_the_first_panel_batch():
    """Given the decay length of the tail beyond b, f(b) comes from the same
    call as the first panels: an integral that converges there calls its
    integrand once, and _TAIL_LENGTHS * decay * |f(b)| joins its error,
    with value, panels and node count unchanged."""
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(-x)

    seeds, decay = (2.0, 4.0, 8.0, 16.0), 2.5
    bounded = integrate_1d(f, 0.0, 40.0, SPEC, seeds=seeds, decay=decay)
    assert len(calls) == 1
    bare = integrate_1d(f, 0.0, 40.0, SPEC, seeds=seeds)
    assert (bounded.value, bounded.neval, bounded.panels) == (bare.value, bare.neval, bare.panels)
    assert bounded.error - bare.error == pytest.approx(
        _TAIL_LENGTHS * decay * math.exp(-40.0), rel=1e-12)


def test_nonfinite_integrand_at_the_cutoff_reported():
    """Finite panel sums do not hide a non-finite f(b) in the truncation bound."""
    with pytest.raises(QuadratureConvergenceError, match="non-finite"):
        integrate_1d(lambda x: np.where(x < 1.0, x, np.nan), 0.0, 1.0, SPEC, decay=0.1)


def test_an_integrand_of_the_wrong_shape_rejected():
    with pytest.raises(ValueError, match="^integrand returned shape"):
        integrate_1d(lambda x: np.zeros(3), 0.0, 1.0, SPEC)


def test_panels_collapsed_to_machine_width_reported():
    """A non-integrable peak between two floats keeps its panel's defect
    above target until the panel cannot be halved."""
    with pytest.raises(QuadratureConvergenceError, match="^panels have collapsed to machine"):
        integrate_1d(lambda x: 1.0 / ((x - 0.5) - 1e-30) ** 2, 0.0, 1.0, SPEC)


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
    QuadratureSpec(max_subdivisions=0)  # zero refinement rounds is legal


# ------------------------------------------------------- quadrature, vector


PEAK = 1e-3  # half-width of the peaked component


def _smooth_and_peaked(x):
    """cos(3x) and a Lorentzian peak of half-width PEAK at 0.3, stacked: shape (2, *x.shape)."""
    return np.stack([np.cos(3.0 * x), 1.0 / ((x - 0.3) ** 2 + PEAK**2)])


def test_vector_integrand_components_meet_their_own_tolerances():
    """Each component of a vector integral equals its scalar integral within
    their combined error, meets its own tolerance and its closed form."""
    r = integrate_1d(_smooth_and_peaked, 0.0, 1.0, SPEC)
    assert r.value.shape == r.error.shape == (2,)
    truth = (math.sin(3.0) / 3.0, (math.atan(0.7 / PEAK) + math.atan(0.3 / PEAK)) / PEAK)
    for k, f in enumerate((lambda x: np.cos(3.0 * x), lambda x: 1.0 / ((x - 0.3) ** 2 + PEAK**2))):
        alone = integrate_1d(f, 0.0, 1.0, SPEC)
        assert abs(r.value[k] - alone.value) <= r.error[k] + alone.error, k
        assert r.error[k] <= 1.01 * max(SPEC.rel_tol * abs(r.value[k]), SPEC.abs_tol), k
        assert abs(r.value[k] - truth[k]) <= max(10.0 * r.error[k], 1e-14), k
        # the shared panels are those the hardest component needs
        assert r.panels >= alone.panels, k


def test_vector_budget_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=2)
    with pytest.raises(QuadratureConvergenceError, match="subdivision") as caught:
        integrate_1d(_smooth_and_peaked, 0.0, 1.0, spec)
    assert np.shape(caught.value.value) == np.shape(caught.value.error) == (2,)


def test_scalar_integrand_returns_floats():
    """A k-less integrand is the one-component case and reports floats, as before."""
    r = integrate_1d(lambda x: np.cos(3.0 * x), 0.0, 1.0, SPEC)
    assert type(r.value) is float and type(r.error) is float
    q = integrate_omega_x(lambda om, x: om**3 * bose_occupation(om, 1.0) * x**2, 1.0, SPEC)
    assert type(q.value) is float and type(q.error) is float


def test_vector_kernel_2d_closed_forms():
    """Two inner weights x^2 and x^4 against w^3 n(w, 1) in one 2D pass,
    each with its own error, truncation bound included."""

    def kernel(om, x):
        radial = om**3 * bose_occupation(om, 1.0)
        return np.stack(np.broadcast_arrays(radial * x**2, radial * x**4))

    r = integrate_omega_x(kernel, 1.0, SPEC)
    expected = (math.pi**4 / 15.0) * np.array([2.0 / 3.0, 2.0 / 5.0])
    assert r.value == pytest.approx(expected, rel=1e-9)
    assert np.all(np.abs(r.value - expected) <= np.maximum(10.0 * r.error, 1e-12))


# ----------------------------------------------------------- quadrature, 2D


def test_separable_product_closed_form():
    """w^3 n(w,1) * x^2 factorizes: (pi^4/15) * (2/3)."""

    def kernel(om, x):
        return om**3 * bose_occupation(om, 1.0) * x**2

    r = integrate_omega_x(kernel, 1.0, SPEC)
    expected = (math.pi**4 / 15.0) * (2.0 / 3.0)
    assert r.value == pytest.approx(expected, rel=1e-9)
    assert r.omega_max == 40.0  # u_max = 40 decay lengths


def test_inner_angular_weight_closed_form():
    """x (1 + b x)^-3 inner weight at b = 0.5 gives -16/9 * pi^4/15."""

    def kernel(om, x):
        return om**3 * bose_occupation(om, 1.0) * x * (1.0 + 0.5 * x) ** -3.0

    r = integrate_omega_x(kernel, math.sqrt(3.0), SPEC)
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

    r = integrate_omega_x(kernel, 1.0, SPEC, inner_edges_fn=edges)
    # integral of om*exp(-om) over [0, 40] ~= 1; x-width = 0.5
    assert r.value == pytest.approx(0.5, rel=1e-10)
