"""Identity checks between independently computed observables."""

from __future__ import annotations

import json
import math

import pytest

from bbdrag import (
    BathSpec,
    ParticleState,
    QuadratureSpec,
    drag_combination,
    energy_balance_residual,
    frame_force_residual,
    heating_rate,
    force_lab,
    inner_closed_forms,
    lorentz_gamma,
    spontaneous_term_cancellation,
    verify_all,
)

from conftest import REFERENCE_MODELS

SPEC = QuadratureSpec()

CHECK_NAMES = (
    "energy-balance",
    "frame-force-relation",
    "spontaneous-term-cancellation",
    "spontaneous-term-reduction",
    "rest-force-dual-form",
    "drag-composition",
    "intensity-split",
    "drag-sign",
    "rest-force-sign",
)


def test_full_suite_passes_at_generic_point():
    state = ParticleState(beta=0.6, mass=1.0, temperature=1.7)
    report = verify_all(state, BathSpec(0.9), REFERENCE_MODELS[0], SPEC)
    assert report.passed
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    for c in report.checks:
        assert c.residual <= c.tolerance, c.name


def test_full_suite_passes_at_extreme_corner():
    state = ParticleState(beta=0.9, mass=1.0, temperature=10.0)
    for model in REFERENCE_MODELS:
        report = verify_all(state, BathSpec(0.1), model, SPEC)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_degenerate_point_passes_with_exact_zeros():
    state = ParticleState(beta=0.0, mass=1.0, temperature=0.0)
    report = verify_all(state, BathSpec(0.0), REFERENCE_MODELS[2], SPEC)
    assert report.passed
    for c in report.checks:
        assert c.residual == 0.0


def test_report_serialization_is_deterministic():
    state = ParticleState(beta=0.4, mass=1.0, temperature=1.0)
    a = verify_all(state, BathSpec(1.2), REFERENCE_MODELS[2], SPEC).to_json()
    b = verify_all(state, BathSpec(1.2), REFERENCE_MODELS[2], SPEC).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["passed"] is True
    assert len(parsed["checks"]) == len(CHECK_NAMES)


def test_drag_composition_cancels_particle_temperature():
    """F_x - g^2 b Qdot carries large T1 terms that must cancel into drag."""
    bath = BathSpec(1.0)
    g = lorentz_gamma(0.5)
    for model in REFERENCE_MODELS:
        cold = ParticleState(beta=0.5, mass=1.0, temperature=0.0)
        hot = ParticleState(beta=0.5, mass=1.0, temperature=10.0)
        drag = drag_combination(cold, bath, model, SPEC)
        for state in (cold, hot):
            f = force_lab(state, bath, model, SPEC)
            q = heating_rate(state, bath, model, SPEC)
            composed = f.value - g * g * 0.5 * q.value
            budget = math.hypot(f.error, g * g * 0.5 * q.error) + drag.error
            assert abs(composed - drag.value) <= max(10.0 * budget, 1e-12), (
                type(model).__name__,
                state.temperature,
            )
        # the T1 = 10 point is a genuine cancellation: both pieces dwarf drag
        f_hot = force_lab(hot, bath, model, SPEC).value
        assert abs(f_hot) > 5.0 * abs(drag.value), type(model).__name__


def test_spontaneous_terms_shortcircuit_cleanly():
    bath = BathSpec(1.0)
    cold = spontaneous_term_cancellation(
        ParticleState(beta=0.5, mass=1.0, temperature=0.0), bath, REFERENCE_MODELS[0], SPEC
    )
    assert cold.force_term.value == 0.0 and cold.drift_term.value == 0.0
    assert cold.cancellation.passed and cold.reduction.passed
    at_rest = spontaneous_term_cancellation(
        ParticleState(beta=0.0, mass=1.0, temperature=2.0), bath, REFERENCE_MODELS[0], SPEC
    )
    assert at_rest.force_term.value == 0.0
    assert at_rest.residual == 0.0


def test_spontaneous_terms_nontrivial_point():
    state = ParticleState(beta=0.7, mass=1.0, temperature=5.0)
    terms = spontaneous_term_cancellation(state, BathSpec(1.0), REFERENCE_MODELS[3], SPEC)
    assert terms.force_term.value != 0.0
    rel = abs(terms.force_term.value - terms.drift_term.value) / abs(terms.force_term.value)
    assert rel <= 1e-7
    assert abs(terms.force_term.value - terms.reduced_force) <= 1e-7 * abs(
        terms.force_term.value
    )


def test_identity_residuals_and_bath_independence_of_inner_forms():
    for beta in (0.0, 0.5, 0.95):
        g = lorentz_gamma(beta)
        qa, qb = inner_closed_forms(beta, SPEC)
        assert qa == pytest.approx(-2.0 * beta * g**4, abs=1e-13, rel=1e-10)
        assert qb == pytest.approx(2.0 * g**2, rel=1e-10)


def test_energy_and_frame_checks_expose_their_pieces():
    state = ParticleState(beta=0.3, mass=1.0, temperature=0.5)
    bath = BathSpec(2.0)
    ce = energy_balance_residual(state, bath, REFERENCE_MODELS[1], SPEC)
    cf = frame_force_residual(state, bath, REFERENCE_MODELS[1], SPEC)
    for c in (ce, cf):
        assert c.passed
        assert c.residual == abs(c.lhs - c.rhs)
        assert c.tolerance >= 10.0 * c.combined_error


def test_intensity_split_catches_a_wrong_emitted_power(monkeypatch):
    """The split compares net intensity with the 1D rest-frame power P(T1) - I2.

    Scaling the 2D emitted power, and the net with it, by 1 + 1e-6 keeps
    net = emitted - absorbed exact, yet must fail against P(T1).
    """
    import bbdrag.consistency as consistency
    from bbdrag.observables import Quantity

    original = consistency.intensity

    def skewed(*args, **kwargs):
        net, emitted, absorbed = original(*args, **kwargs)
        bumped = Quantity(emitted.value * (1.0 + 1e-6), emitted.error)
        return Quantity(bumped.value - absorbed.value, net.error), bumped, absorbed

    state = ParticleState(beta=0.6, mass=1.0, temperature=3.0)
    bath = BathSpec(1.0)
    honest = verify_all(state, bath, REFERENCE_MODELS[0], SPEC)
    assert next(c for c in honest.checks if c.name == "intensity-split").passed
    monkeypatch.setattr(consistency, "intensity", skewed)
    report = verify_all(state, bath, REFERENCE_MODELS[0], SPEC)
    split = next(c for c in report.checks if c.name == "intensity-split")
    assert not split.passed
    assert split.residual > 100.0 * split.tolerance


def test_emitted_power_matches_the_reduced_force():
    """P(T1) is the 1D integral behind the reduction: reduced_force = -beta * P."""
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        terms = spontaneous_term_cancellation(
            ParticleState(beta=0.7, mass=1.0, temperature=2.0), bath, model, SPEC
        )
        assert terms.emitted_power.value > 0.0
        assert terms.reduced_force == pytest.approx(-0.7 * terms.emitted_power.value, rel=1e-14)
    cold = spontaneous_term_cancellation(
        ParticleState(beta=0.7, mass=1.0, temperature=0.0), bath, REFERENCE_MODELS[0], SPEC
    )
    assert cold.emitted_power.value == 0.0 and cold.emitted_power.error == 0.0
