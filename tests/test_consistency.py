"""Identity checks between independently computed observables."""

from __future__ import annotations

import json
import math

import pytest

from bbdrag import (
    BathSpec,
    Ohmic,
    ParticleState,
    QuadratureSpec,
    drag_combination,
    heating_rate,
    force_lab,
    inner_closed_forms,
    intensity,
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


def _reduction(state, bath, model):
    """verify_all's spontaneous-term-reduction check at one point."""
    report = verify_all(state, bath, model, SPEC)
    return next(c for c in report.checks if c.name == "spontaneous-term-reduction")


def test_spontaneous_terms_shortcircuit_cleanly():
    bath = BathSpec(1.0)
    cold_state = ParticleState(beta=0.5, mass=1.0, temperature=0.0)
    cold = spontaneous_term_cancellation(cold_state, bath, REFERENCE_MODELS[0], SPEC)
    assert cold.force_term.value == 0.0 and cold.drift_term.value == 0.0
    assert cold.cancellation.passed and _reduction(cold_state, bath, REFERENCE_MODELS[0]).passed
    at_rest = spontaneous_term_cancellation(
        ParticleState(beta=0.0, mass=1.0, temperature=2.0), bath, REFERENCE_MODELS[0], SPEC
    )
    assert at_rest.force_term.value == 0.0
    assert at_rest.cancellation.residual == 0.0


def test_spontaneous_terms_nontrivial_point():
    state = ParticleState(beta=0.7, mass=1.0, temperature=5.0)
    terms = spontaneous_term_cancellation(state, BathSpec(1.0), REFERENCE_MODELS[3], SPEC)
    assert terms.force_term.value != 0.0
    rel = abs(terms.force_term.value - terms.drift_term.value) / abs(terms.force_term.value)
    assert rel <= 1e-7
    reduced_force = -0.7 * intensity(state, BathSpec(1.0), REFERENCE_MODELS[3], SPEC)[1].value
    assert abs(terms.force_term.value - reduced_force) <= 1e-7 * abs(terms.force_term.value)


def test_identity_residuals_and_bath_independence_of_inner_forms():
    for beta in (0.0, 0.5, 0.95):
        g = lorentz_gamma(beta)
        qa, qb = inner_closed_forms(beta, SPEC)
        assert qa == pytest.approx(-2.0 * beta * g**4, abs=1e-13, rel=1e-10)
        assert qb == pytest.approx(2.0 * g**2, rel=1e-10)


def test_energy_and_frame_checks_expose_their_pieces():
    state = ParticleState(beta=0.3, mass=1.0, temperature=0.5)
    report = verify_all(state, BathSpec(2.0), REFERENCE_MODELS[1], SPEC)
    checks = {c.name: c for c in report.checks}
    for c in (checks["energy-balance"], checks["frame-force-relation"]):
        assert c.passed
        assert c.residual == abs(c.lhs - c.rhs)
        assert c.tolerance >= 10.0 * c.combined_error
    # verify reads exactly the values the standalone observables print.
    _, emitted, absorbed = intensity(state, BathSpec(2.0), REFERENCE_MODELS[1], SPEC)
    assert (checks["rest-force-dual-form"].rhs, checks["intensity-split"].rhs) == (
        drag_combination(state, BathSpec(2.0), REFERENCE_MODELS[1], SPEC).value,
        emitted.value - absorbed.value)


@pytest.mark.parametrize("term, reading", [
    (0, ("energy-balance", "intensity-split")),
    (1, ("drag-composition",)),
    (2, ("spontaneous-term-cancellation", "spontaneous-term-reduction")),
    (3, ("spontaneous-term-cancellation",)),
], ids=("net", "lab", "force-term", "drift-term"))
def test_a_skewed_2d_term_fails_the_checks_that_read_it(monkeypatch, term, reading):
    """verify_all takes four 2D terms from one Doppler pass, _doppler_terms.

    Scaling one of them (net I, F_x, the force term, the drift term) by
    1 + 1e-6 must fail every check that reads it and no other, so a
    swapped prefactor or weight between the terms shows.
    """
    import bbdrag.consistency as consistency
    from bbdrag.observables import Quantity

    original = consistency._doppler_terms

    def skewed(*args, **kwargs):
        terms = list(original(*args, **kwargs))
        terms[term] = Quantity(terms[term].value * (1.0 + 1e-6), terms[term].error)
        return tuple(terms)

    state = ParticleState(beta=0.6, mass=1.0, temperature=3.0)
    bath = BathSpec(1.0)
    honest = verify_all(state, bath, REFERENCE_MODELS[0], SPEC)
    assert honest.passed
    monkeypatch.setattr(consistency, "_doppler_terms", skewed)
    report = verify_all(state, bath, REFERENCE_MODELS[0], SPEC)
    for check in report.checks:
        if check.name in reading:
            assert not check.passed, check.name
            assert check.residual > 100.0 * check.tolerance, check.name
        else:
            assert check.passed, check.name


def _rss(*errors):
    return math.sqrt(sum(e * e for e in errors))


@pytest.mark.parametrize("model, beta, t1, t2", [
    (Ohmic(1.0, None), 0.3, 0.5, 1.0),
    (REFERENCE_MODELS[0], 0.6, 3.0, 1.0),
    (REFERENCE_MODELS[2], 0.9, 2.0, 0.5),
], ids=("ohmic-no-cutoff", "lorentz", "tophat"))
def test_every_check_counts_the_error_of_every_term_it_reads(model, beta, t1, t2):
    """Each residual check's combined error is the RSS of all its terms' errors.

    Recomputed from the Quantities verify_all reads, each scaled by the
    magnitude of its coefficient in the identity; the reduction's holds
    beta times P(T1)'s error beside the 2D force term's.
    """
    from bbdrag.consistency import _doppler_terms, force_rest_frame_alt
    from bbdrag.observables import evaluate_bundle

    state, bath = ParticleState(beta, 1.0, t1), BathSpec(t2)
    bundle = evaluate_bundle(state, bath, model, SPEC)
    f, q, drag = bundle.force_lab, bundle.heating_rate, bundle.force_rest_frame
    emitted, absorbed = bundle.intensity_emitted, bundle.intensity_absorbed
    net, f_2d, force_term, drift_term = _doppler_terms(state, bath, model, SPEC)
    fp = force_rest_frame_alt(state, bath, model, SPEC)
    g2b = lorentz_gamma(beta) ** 2 * beta
    expected = {
        "energy-balance": _rss(net.error, q.error, beta * f.error),
        "frame-force-relation": _rss(fp.error, f.error, g2b * q.error),
        "spontaneous-term-cancellation": _rss(force_term.error, drift_term.error),
        "spontaneous-term-reduction": _rss(force_term.error, beta * emitted.error),
        "rest-force-dual-form": _rss(fp.error, drag.error),
        "drag-composition": _rss(drag.error, f_2d.error, g2b * q.error),
        "intensity-split": _rss(net.error, emitted.error, absorbed.error),
    }
    checks = {c.name: c for c in verify_all(state, bath, model, SPEC).checks}
    for name, rss in expected.items():
        assert checks[name].combined_error == pytest.approx(rss, rel=1e-14), name
        assert checks[name].tolerance == max(10.0 * checks[name].combined_error, 1e-12), name


# The cutoff-free Ohmic grid: every value meets its exact closed form
# within its own error here, and the reduction failed at two points
# (beta 0.3 and 0.5, T1 0.5, T2 1) while its RSS left out P(T1)'s error.
OHMIC_GRID = [(b, t1, t2) for b in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
              for t1 in (0.5, 1.0, 2.0) for t2 in (0.5, 1.0)]


def test_verify_passes_for_the_cutoff_free_ohmic_model():
    assert _failed_checks(Ohmic(1.0, None), OHMIC_GRID) == []


@pytest.mark.parametrize("beta", (0.3, 0.5))
def test_a_skewed_emitted_power_fails_the_reduction(monkeypatch, beta):
    """A 1e-9 relative skew of the bundle's P(T1) fails the reduction.

    The reduction's tolerance holds beta times P(T1)'s error (cutoff-free
    Ohmic, T1 0.5, T2 1: about 1.7e-11 of P = 2.4); the skew still moves
    its rhs by more than ten times that tolerance.
    """
    import dataclasses

    import bbdrag.observables as observables

    original = observables.evaluate_bundle

    def skewed(*args, **kwargs):
        bundle = original(*args, **kwargs)
        emitted = bundle.intensity_emitted
        return dataclasses.replace(bundle, intensity_emitted=dataclasses.replace(
            emitted, value=emitted.value * (1.0 + 1e-9)))

    state, bath, model = ParticleState(beta, 1.0, 0.5), BathSpec(1.0), Ohmic(1.0, None)
    assert _reduction(state, bath, model).passed
    monkeypatch.setattr(observables, "evaluate_bundle", skewed)
    check = _reduction(state, bath, model)
    assert not check.passed
    assert check.residual > 10.0 * check.tolerance


def test_emitted_power_matches_the_reduced_force():
    """P(T1) is the 1D integral behind verify_all's reduction: its rhs is -beta * P."""
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        state = ParticleState(beta=0.7, mass=1.0, temperature=2.0)
        emitted = intensity(state, bath, model, SPEC)[1]
        assert emitted.value > 0.0
        assert _reduction(state, bath, model).rhs == pytest.approx(-0.7 * emitted.value,
                                                                   rel=1e-14)
    cold = intensity(ParticleState(beta=0.7, mass=1.0, temperature=0.0), bath,
                     REFERENCE_MODELS[0], SPEC)[1]
    assert cold.value == 0.0 and cold.error == 0.0


def test_verify_passes_at_the_smallest_subnormal_particle_temperature():
    """Below the integration-domain floor P(T1) is an exact 0, as every observable is."""
    state = ParticleState(beta=0.5, mass=1.0, temperature=5e-324)
    bath = BathSpec(1.0)
    for model in REFERENCE_MODELS:
        assert intensity(state, bath, model, SPEC)[1].value == 0.0
        assert verify_all(state, bath, model, SPEC).passed


# (T1, T2) pairs of the verification grids: particle colder, hotter and
# much hotter than the bath, cold, in equilibrium, and the point where
# outer panel seeds on an x-rule once broke the 2D route.
TEMPERATURE_PAIRS = ((0.5, 1.0), (2.0, 1.0), (1.0, 0.3), (0.0, 1.0), (1.0, 1.0),
                     (2.76, 1.38), (0.5, 0.3), (3.0, 3.0), (0.3, 3.0))


def _failed_checks(model, grid):
    failed = []
    for beta, t1, t2 in grid:
        report = verify_all(ParticleState(beta, 1.0, t1), BathSpec(t2), model, SPEC)
        failed += [(beta, t1, t2, c.name) for c in report.checks if not c.passed]
    return failed


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: type(m).__name__)
def test_verify_passes_from_beta_0_95_to_0_995(model):
    """The 2D route's rapidity variable carries it up to beta = 0.995.

    An inner rule evenly spread in x failed 164 of this grid's 288 calls
    over the four models, from beta = 0.97 up.
    """
    betas = (0.95, 0.96, 0.97, 0.975, 0.98, 0.985, 0.99, 0.995)
    assert _failed_checks(model, [(b, t1, t2) for b in betas
                                  for t1, t2 in TEMPERATURE_PAIRS]) == []


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: type(m).__name__)
def test_verify_passes_far_above_the_spectrum(model):
    """The 2D route's outer seed ladder samples a spectrum far below T.

    With panel seeds only at band-edge images, 45 of this grid's 60
    calls over the four models failed: the first panel missed a''.
    """
    pairs = ((0.0, 1e6), (0.0, 1e8), (1e6, 1.0), (1e6, 1e6), (0.5, 1e6))
    assert _failed_checks(model, [(b, t1, t2) for b in (0.1, 0.5, 0.9)
                                  for t1, t2 in pairs]) == []


@pytest.mark.parametrize("beta", (0.0, 0.3, 0.9))
@pytest.mark.parametrize("t1, t2", ((2.0, 1.0), (0.0, 1.0)))
def test_no_quadrature_node_where_a_band_limited_alpha_is_zero(monkeypatch, beta, t1, t2):
    """Every route samples a'' only inside its support or its Doppler image.

    Per call and module (observables: the 1D route, consistency: the 2D
    one), no a'' sample is an exact zero: with the band below every
    cutoff, no truncation bound is sampled there either.  With nodes over
    the whole cutoff range and three inner segments per w, 41-87 % of
    TopHat's samples were, and with the cutoff samples up to 5 %.
    """
    import numpy as np

    import bbdrag.consistency as consistency
    import bbdrag.observables as observables
    from bbdrag import TopHat

    samples = {}
    for module in (observables, consistency):

        def counted(model, omega, _original=module.alpha_im, _name=module.__name__):
            out = _original(model, omega)
            seen = samples.setdefault(_name, [0, 0])
            seen[0] += np.size(out)
            seen[1] += int(np.count_nonzero(np.asarray(out) == 0.0))
            return out

        monkeypatch.setattr(module, "alpha_im", counted)

    state, bath, model = ParticleState(beta, 1.0, t1), BathSpec(t2), TopHat(1.0, 0.5, 1.5)
    calls = {"evaluate_bundle": (observables.evaluate_bundle, {"bbdrag.observables"}),
             "verify_all": (verify_all, {"bbdrag.observables", "bbdrag.consistency"}),
             "_net_intensity": (consistency._net_intensity, {"bbdrag.consistency"})}
    for name, (call, routes) in calls.items():
        samples.clear()
        observables._bath_terms.cache_clear()  # a memo hit would sample nothing
        call(state, bath, model, SPEC)
        assert set(samples) == routes, name
        for route, (total, zeros) in samples.items():
            assert zeros == 0, (name, route, zeros, total)
