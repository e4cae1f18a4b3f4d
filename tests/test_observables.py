"""Physical observables: closed forms, signs, scalings, error bars."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from bbdrag import (
    BETA_MAX,
    BathSpec,
    Ohmic,
    ParticleState,
    QuadratureSpec,
    TopHat,
    drag_combination,
    evaluate_bundle,
    force_lab,
    force_rest_frame,
    force_rest_frame_alt,
    force_rest_frame_nr,
    heating_rate,
    intensity,
    lorentz_gamma,
    spontaneous_term_cancellation,
    verify_all,
)
from bbdrag.consistency import _doppler_terms, _net_intensity

from conftest import REFERENCE_MODELS, rel_diff

SPEC = QuadratureSpec()
EMITTED_UNIT = 32.0 * math.pi**5 / 63.0  # emitted power, unit-slope Ohmic, T1 = 1
NR_COEFF = 64.0 * math.pi**5 / 63.0


# -------------------------------------------------------------- state guards


def test_state_validation():
    with pytest.raises(ValueError, match="beta"):
        ParticleState(beta=-0.1, mass=1.0, temperature=1.0)
    with pytest.raises(ValueError, match="beta"):
        ParticleState(beta=1.0, mass=1.0, temperature=1.0)
    with pytest.raises(ValueError, match="mass"):
        ParticleState(beta=0.5, mass=0.0, temperature=1.0)
    with pytest.raises(ValueError, match="temperature"):
        ParticleState(beta=0.5, mass=1.0, temperature=-2.0)
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(temperature=math.nan)


# -------------------------------------------------------------- one pass


@pytest.mark.parametrize("t1, bundle_integrals, verify_integrals", [(0.5, 5, 5), (0.0, 4, 4)])
def test_bundle_and_verify_evaluate_each_rest_frame_integral_once(
    monkeypatch, t1, bundle_integrals, verify_integrals
):
    """The bundle evaluates P(T1), I2, A, K and the drag once each (P(T1) is
    an exact 0 without an integral at T1 = 0); verify_all takes every 1D
    value from one bundle and adds none.  Each bundle member is the
    standalone observable, value and error."""
    import bbdrag.observables as observables

    calls = []
    original = observables.integrate_1d

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(observables, "integrate_1d", counting)
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        for beta in (0.1, 0.5, 0.9):
            state = ParticleState(beta, 1.0, t1)
            tag = (type(model).__name__, beta, t1)
            calls.clear()
            bundle = evaluate_bundle(state, bath, model, SPEC)
            assert len(calls) == bundle_integrals, tag
            calls.clear()
            verify_all(state, bath, model, SPEC)
            assert len(calls) == verify_integrals, tag
            standalone = (force_lab(state, bath, model, SPEC),
                          heating_rate(state, bath, model, SPEC),
                          *intensity(state, bath, model, SPEC),
                          force_rest_frame(state, bath, model, SPEC))
            members = (bundle.force_lab, bundle.heating_rate, bundle.intensity,
                       bundle.intensity_emitted, bundle.intensity_absorbed,
                       bundle.force_rest_frame)
            assert [(q.value, q.error) for q in members] == [
                (q.value, q.error) for q in standalone], tag


# -------------------------------------------------------------- closed forms


def test_emitted_power_scales_as_sixth_power_of_temperature():
    model = Ohmic(1.0, None)
    bath = BathSpec(0.0)
    for t1 in (0.5, 1.0, 2.0):
        state = ParticleState(beta=0.0, mass=1.0, temperature=t1)
        _, emitted, absorbed = intensity(state, bath, model, SPEC)
        assert absorbed.value == 0.0
        assert emitted.value == pytest.approx(EMITTED_UNIT * t1**6, rel=1e-8)


def test_emitted_power_linear_in_oscillator_strength():
    state = ParticleState(beta=0.0, mass=1.0, temperature=1.0)
    bath = BathSpec(0.0)
    _, one, _ = intensity(state, bath, Ohmic(1.0, None), SPEC)
    _, three, _ = intensity(state, bath, Ohmic(3.0, None), SPEC)
    assert three.value == pytest.approx(3.0 * one.value, rel=1e-10)


def test_nonrelativistic_drag_closed_form_scaling():
    for beta, t2 in ((0.1, 1.0), (0.02, 0.7), (0.05, 3.0)):
        got = force_rest_frame_nr(beta, BathSpec(t2), Ohmic(1.0, None), SPEC)
        assert got.value == pytest.approx(-NR_COEFF * beta * t2**6, rel=1e-8)


# ------------------------------------------------------------ signs and zeros


def test_everything_vanishes_in_empty_cold_universe():
    state = ParticleState(beta=0.7, mass=1.0, temperature=0.0)
    bath = BathSpec(0.0)
    for model in REFERENCE_MODELS:
        b = evaluate_bundle(state, bath, model, SPEC)
        for name in (
            "force_lab",
            "heating_rate",
            "intensity",
            "intensity_emitted",
            "intensity_absorbed",
            "force_rest_frame",
        ):
            q = getattr(b, name)
            assert q.value == 0.0 and q.error == 0.0, name


def test_null_coupling_gives_exact_zeros():
    model = TopHat(amplitude=0.0, omega1=0.5, omega2=1.5)
    state = ParticleState(beta=0.5, mass=1.0, temperature=2.0)
    bundle = evaluate_bundle(state, BathSpec(1.0), model, SPEC)
    assert bundle.force_lab.value == 0.0
    assert bundle.heating_rate.value == 0.0
    assert bundle.intensity.value == 0.0
    # Exact zeros are +0.0, so JSON output reads 0.0 rather than -0.0.
    assert math.copysign(1.0, bundle.intensity_emitted.value) == 1.0
    assert math.copysign(1.0, bundle.intensity.value) == 1.0


def test_cold_moving_particle_signs():
    """T1 = 0, T2 > 0: the particle absorbs heat; the rest force drags.

    The sign of the lab-frame force is a spectral property, not a
    universal one: the band-limited model absorbs mostly red-shifted
    (trailing) photons and is pushed forward, while the Ohmic model
    (response growing with frequency) absorbs mostly blue-shifted
    (head-on) photons and is pushed back.  The rest-frame force always
    opposes the motion.
    """
    bath = BathSpec(1.0)
    force_signs = {}
    for model in REFERENCE_MODELS:
        state = ParticleState(beta=0.5, mass=1.0, temperature=0.0)
        f = force_lab(state, bath, model, SPEC)
        q = heating_rate(state, bath, model, SPEC)
        net, emitted, absorbed = intensity(state, bath, model, SPEC)
        fp = force_rest_frame(state, bath, model, SPEC)
        tag = type(model).__name__
        force_signs[tag] = f.value
        assert q.value > 0.0, f"{tag}: heating"
        assert emitted.value == 0.0, f"{tag}: emission at T1=0"
        assert absorbed.value > 0.0, f"{tag}: absorption"
        assert net.value < 0.0, f"{tag}: net intensity"
        assert fp.value < 0.0, f"{tag}: rest-frame force"
    assert force_signs["TopHat"] > 0.0  # low band: forward push
    assert force_signs["Ohmic"] < 0.0  # rising response: backward push


def test_particle_at_rest_in_equilibrium_is_inert():
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        state = ParticleState(beta=0.0, mass=1.0, temperature=1.0)
        bundle = evaluate_bundle(state, bath, model, SPEC)
        for name in ("force_lab", "heating_rate", "intensity", "force_rest_frame"):
            q = getattr(bundle, name)
            assert abs(q.value) <= max(10.0 * q.error, 1e-12), (name, q.value)


def test_hot_particle_at_rest_cools_by_radiating():
    state = ParticleState(beta=0.0, mass=1.0, temperature=2.0)
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        q = heating_rate(state, bath, model, SPEC)
        net, emitted, absorbed = intensity(state, bath, model, SPEC)
        f = force_lab(state, bath, model, SPEC)
        assert q.value < 0.0
        assert net.value > 0.0
        assert emitted.value > absorbed.value > 0.0
        assert abs(f.value) <= max(10.0 * f.error, 1e-12)  # isotropy: no force at rest
        assert abs(net.value + q.value) <= 10.0 * math.hypot(net.error, q.error)


def test_drag_and_rest_force_oppose_motion():
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        for beta in (0.1, 0.5, 0.9):
            state = ParticleState(beta=beta, mass=1.0, temperature=0.7)
            assert drag_combination(state, bath, model, SPEC).value < 0.0
            assert force_rest_frame(state, bath, model, SPEC).value < 0.0


# ------------------------------------------------------- band-limited model


def test_tophat_band_outside_thermal_reach_is_negligible():
    """A band far above every thermal scale couples exponentially weakly."""
    model = TopHat(amplitude=1.0, omega1=200.0, omega2=201.0)
    state = ParticleState(beta=0.3, mass=1.0, temperature=1.0)
    reference = TopHat(amplitude=1.0, omega1=0.5, omega2=1.5)
    strong = heating_rate(state, BathSpec(1.0), reference, SPEC).value
    weak = heating_rate(state, BathSpec(1.0), model, SPEC).value
    assert abs(weak) < 1e-60 * abs(strong)


def test_boost_detunes_band_from_bath_flux_peak():
    """A band tuned to the bath flux peak absorbs maximally at rest.

    The absorption flux w^4 n(w, 1) peaks near w = 3.9, inside [4, 5].
    Boosting Doppler-shifts every direction's image of the band off that
    peak and dilutes the co-moving flux, so absorbed power falls with
    speed even though the red-shifted trailing photons stay in reach.
    """
    model = TopHat(amplitude=1.0, omega1=4.0, omega2=5.0)
    bath = BathSpec(1.0)
    absorbed = []
    for beta in (0.0, 0.5, 0.9):
        state = ParticleState(beta=beta, mass=1.0, temperature=0.0)
        absorbed.append(intensity(state, bath, model, SPEC)[2].value)
    assert absorbed[0] > absorbed[1] > absorbed[2] > 0.0


# ----------------------------------------------------------- numerics quality


def test_error_bars_cover_refined_values():
    tight = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    bath = BathSpec(1.3)
    state = ParticleState(beta=0.6, mass=1.0, temperature=0.8)
    for model in REFERENCE_MODELS:
        coarse = evaluate_bundle(state, bath, model, SPEC)
        fine = evaluate_bundle(state, bath, model, tight)
        for name in ("force_lab", "heating_rate", "intensity", "force_rest_frame"):
            c, f = getattr(coarse, name), getattr(fine, name)
            assert abs(c.value - f.value) <= max(10.0 * c.error, 1e-13), (
                type(model).__name__,
                name,
            )


def test_cutoff_insensitivity():
    wide = QuadratureSpec(u_max=60.0)
    bath = BathSpec(1.0)
    state = ParticleState(beta=0.5, mass=1.0, temperature=2.0)
    for model in REFERENCE_MODELS:
        a = heating_rate(state, bath, model, SPEC).value
        b = heating_rate(state, bath, model, wide).value
        assert rel_diff(a, b) <= 1e-9, type(model).__name__


def test_2d_error_covers_the_truncation_at_the_cutoff():
    """Doubling u_max moves the 2D net intensity by less than its own error.

    Without the tail bound the move was 4.8x the error for this point,
    where the error estimate is small and the slow Ohmic tail is cut.
    """
    state = ParticleState(beta=1e-3, mass=1.0, temperature=0.15)
    bath, model = BathSpec(0.3), Ohmic(slope=1.0, omega_c=5.0)
    cut = _net_intensity(state, bath, model, SPEC)
    wide = _net_intensity(state, bath, model, QuadratureSpec(u_max=80.0))
    assert abs(cut.value - wide.value) <= cut.error


def test_low_speed_rest_force_error_covers_the_truncation_at_the_cutoff():
    """Doubling u_max moves force_rest_frame_nr by less than its own error.

    Without the tail bound the move was 131x the error for the Ohmic
    model without a cutoff and 12x for Ohmic(1, 5) at T2 = 0.3.
    """
    cases = ((Ohmic(slope=1.0, omega_c=None), 1.0), (Ohmic(slope=1.0, omega_c=5.0), 0.3))
    for model, t2 in cases:
        cut = force_rest_frame_nr(1e-3, BathSpec(t2), model, SPEC)
        wide = force_rest_frame_nr(1e-3, BathSpec(t2), model, QuadratureSpec(u_max=80.0))
        assert abs(cut.value - wide.value) <= cut.error, (model, t2)


def test_diagnostics_present():
    state = ParticleState(beta=0.4, mass=1.0, temperature=1.0)
    q = force_lab(state, BathSpec(1.0), REFERENCE_MODELS[0], SPEC)
    for key in ("neval", "nodes", "panels", "omega_max", "omega_beta_max"):
        assert key in q.diagnostics
    assert q.diagnostics["neval"] == 0 and q.diagnostics["nodes"] > 0
    q2 = _doppler_terms(state, BathSpec(1.0), REFERENCE_MODELS[0], SPEC)[1]  # the 2D lab force
    for key in ("neval", "panels", "omega_max", "omega_beta_max"):
        assert key in q2.diagnostics
    g = lorentz_gamma(0.4)
    assert q2.diagnostics["omega_beta_max"] == pytest.approx(
        g * 1.4 * q2.diagnostics["omega_max"], rel=1e-12
    )


def test_2d_cutoffs_are_u_max_decay_lengths_of_each_callers_thermal_scale():
    """omega_max = u_max * max(T2, D T1) on the lab-frame route, the
    spontaneous force term included, since it shares the lab force's pass,
    and u_max * D T2 for the direct rest force, D = sqrt((1+b)/(1-b)): the
    least suppressed occupation decays over that length at every x."""
    t1, t2, u = 2.0, 3.0, SPEC.u_max
    model, bath = TopHat(1.0, 0.5, 1.5), BathSpec(t2)

    def cutoffs(beta):
        state = ParticleState(beta, 1.0, t1)
        spont = spontaneous_term_cancellation(state, bath, model, SPEC)
        return (_doppler_terms(state, bath, model, SPEC)[1].diagnostics.get("omega_max"),
                spont.force_term.diagnostics.get("omega_max"),
                _net_intensity(state, bath, model, SPEC).diagnostics["omega_max"],
                force_rest_frame_alt(state, bath, model, SPEC).diagnostics.get("omega_max"))

    d = math.sqrt((1.0 + 0.8) / (1.0 - 0.8))
    expected = (u * max(t2, t1 * d), u * max(t2, t1 * d), u * max(t2, t1 * d), u * (t2 * d))
    assert cutoffs(0.8) == expected
    assert expected == pytest.approx((240.0, 240.0, 240.0, 360.0), rel=1e-15)
    # at rest the forces short-circuit and carry no cutoff
    assert cutoffs(0.0) == (None, None, u * max(t2, t1), None)
    assert u * max(t2, t1) == 120.0


def test_rest_force_linear_in_beta_at_small_beta():
    bath = BathSpec(1.0)
    model = Ohmic(1.0, 5.0)
    f1 = force_rest_frame(ParticleState(1e-4, 1.0, 0.0), bath, model, SPEC).value
    f2 = force_rest_frame(ParticleState(2e-4, 1.0, 0.0), bath, model, SPEC).value
    assert f2 / f1 == pytest.approx(2.0, rel=1e-5)


def test_dual_rest_force_forms_agree_for_drude():
    bath = BathSpec(1.0)
    model = REFERENCE_MODELS[1]
    for beta in (0.2, 0.8):
        state = ParticleState(beta=beta, mass=1.0, temperature=0.0)
        a = force_rest_frame(state, bath, model, SPEC)
        b = force_rest_frame_alt(state, bath, model, SPEC)
        assert rel_diff(a.value, b.value) <= 1e-7


@settings(max_examples=15, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=0.9),
    t1=st.floats(min_value=0.0, max_value=3.0),
    t2=st.floats(min_value=0.0, max_value=3.0),
)
def test_energy_balance_property(beta, t1, t2):
    """I + Qdot + beta*F_x = 0 at randomly drawn state points (TopHat)."""
    model = REFERENCE_MODELS[2]
    state = ParticleState(beta=beta, mass=1.0, temperature=t1)
    bath = BathSpec(t2)
    f = force_lab(state, bath, model, SPEC)
    q = heating_rate(state, bath, model, SPEC)
    net, _, _ = intensity(state, bath, model, SPEC)
    residual = abs(net.value + q.value + beta * f.value)
    budget = math.sqrt(net.error**2 + q.error**2 + (beta * f.error) ** 2)
    assert residual <= max(10.0 * budget, 1e-12)


def test_subnormal_temperatures_round_to_zero_photons():
    """Temperatures at the bottom of the float range contribute exactly 0.

    At T ~ 5e-324 the truncation frequency collapses below the smallest
    node-mappable integration domain and every omega^4-weighted sample
    underflows, so 0.0 is the correctly rounded observable -- the
    quadrature must return it rather than fail on an unrepresentable
    node, and a subnormal temperature on either side must act exactly
    like a zero one against a normal partner.
    """
    model = REFERENCE_MODELS[2]
    tiny = 5e-324
    state = ParticleState(beta=0.4, mass=1.0, temperature=0.0)
    bath = BathSpec(tiny)
    assert force_lab(state, bath, model, SPEC).value == 0.0
    assert heating_rate(state, bath, model, SPEC).value == 0.0
    net, emitted, absorbed = intensity(state, bath, model, SPEC)
    assert net.value == emitted.value == absorbed.value == 0.0
    assert force_rest_frame(state, bath, model, SPEC).value == 0.0
    assert force_rest_frame_nr(0.05, bath, model, SPEC).value == 0.0

    # Near BETA_MAX the 1D cutoff u_max * T2 * D stays node-mappable at
    # T2 = 1e-320 while the lowest thermal scale T2 / D rounds to 0.
    fast = ParticleState(beta=BETA_MAX, mass=1.0, temperature=0.0)
    assert heating_rate(fast, BathSpec(1e-320), model, SPEC).value == 0.0
    assert drag_combination(fast, BathSpec(1e-320), model, SPEC).value == 0.0

    warm = BathSpec(2.0)
    cold = ParticleState(beta=0.4, mass=1.0, temperature=tiny)
    zero = ParticleState(beta=0.4, mass=1.0, temperature=0.0)
    f_cold = force_lab(cold, warm, model, SPEC)
    f_zero = force_lab(zero, warm, model, SPEC)
    assert f_cold.value == pytest.approx(f_zero.value, rel=1e-12)
