"""Coupled slowdown/thermalization dynamics and the equilibrium solver."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from bbdrag import (
    BETA_MAX,
    BathSpec,
    BracketError,
    DynamicsError,
    EvolveConfig,
    LorentzOscillator,
    MaterialThermo,
    MonitorViolation,
    Ohmic,
    ParticleState,
    QuadratureSpec,
    TopHat,
    derivatives,
    equilibrium_temperature,
    evolve,
    force_rest_frame,
    heating_rate,
    intensity,
    lorentz_gamma,
    verify_all,
)
from bbdrag import dynamics
from bbdrag.consistency import _doppler_integral
from bbdrag.dynamics import _net_intensity
from bbdrag.observables import Quantity

from conftest import REFERENCE_MODELS

SPEC = QuadratureSpec()
BAND = TopHat(amplitude=1.0, omega1=0.5, omega2=1.5)
BATH = BathSpec(1.0)
THERMO = MaterialThermo(specific_heat=0.01)


def quiet_evolve(*args, **kwargs):
    """evolve() with the large-heat-capacity advisory silenced."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*rest-mass feedback.*")
        return evolve(*args, **kwargs)


# ---------------------------------------------------------------- derivatives


def test_derivatives_vanish_in_equilibrium():
    t_eq = equilibrium_temperature(0.0, BATH, BAND, SPEC)
    assert t_eq == 1.0
    state = ParticleState(beta=0.0, mass=10.0, temperature=1.0)
    db, dm, dt1 = derivatives(state, BATH, BAND, THERMO, SPEC)
    assert abs(db) < 1e-12 and abs(dm) < 1e-10 and abs(dt1) < 1e-8


def test_derivatives_signs_for_hot_fast_particle():
    state = ParticleState(beta=0.5, mass=10.0, temperature=2.0)
    db, dm, dt1 = derivatives(state, BATH, BAND, THERMO, SPEC)
    assert db < 0.0  # drag decelerates
    assert dm < 0.0  # net radiator loses rest mass
    assert dt1 < 0.0  # hotter than T1*: cools


def test_derivatives_match_observables():
    state = ParticleState(beta=0.4, mass=7.0, temperature=1.2)
    g = lorentz_gamma(0.4)
    db, dm, dt1 = derivatives(state, BATH, BAND, THERMO, SPEC)
    fp = force_rest_frame(state, BATH, BAND, SPEC).value
    qd = heating_rate(state, BATH, BAND, SPEC).value
    assert db == pytest.approx((1.0 - 0.4**2) ** 1.5 * fp / state.mass, rel=1e-10)
    assert dm == pytest.approx(g * qd, rel=1e-10)
    # dT1/dt = gamma*Qdot*(1 - C_s*T1) / (C_s*m)
    expected = g * qd * (1.0 - 0.01 * 1.2) / (0.01 * 7.0)
    assert dt1 == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "model", [BAND, LorentzOscillator(1.0, 2.0, 0.5)], ids=lambda m: type(m).__name__
)
@pytest.mark.parametrize("t1, t2", [(2.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
def test_monitor_intensity_matches_observable(model, t1, t2):
    """The monitor's single-quadrature I agrees with intensity()'s I1 - I2."""
    state = ParticleState(beta=0.5, mass=1.0, temperature=t1)
    bath = BathSpec(t2)
    mon = _net_intensity(state, bath, model, SPEC)
    net, _, _ = intensity(state, bath, model, SPEC)
    assert net.value != 0.0
    assert abs(mon.value - net.value) <= 10.0 * math.hypot(mon.error, net.error)


# ---------------------------------------------------------------- equilibrium


def test_equilibrium_is_bath_temperature_at_rest():
    for model in (BAND, Ohmic(1.0, 5.0)):
        assert equilibrium_temperature(0.0, BATH, model, SPEC) == 1.0


@pytest.mark.parametrize("beta", (1e-300, 1e-17, 2e-16, 1e-9))
def test_equilibrium_is_bath_temperature_where_the_doppler_bracket_meets_the_tolerance(beta):
    """Where D - 1 <= rel_tol, T1* is T2 itself.

    Below beta ~ 2e-16 the bracket [T2/D, T2*D] rounds to one point, and
    the solve raised "not bracketed" for every model from beta = 1.1e-16
    down.
    """
    for model, t2 in itertools.product(REFERENCE_MODELS, (0.3, 1.0, 3.0)):
        assert equilibrium_temperature(beta, BathSpec(t2), model, SPEC) == t2


def test_equilibrium_meets_the_exact_cutoff_free_ohmic_form():
    """For Ohmic(s) without a cutoff, T1* = T2 gamma^(2/3) (1 + 2b^2 + b^4/5)^(1/6).

    P(T1) = c T1^6 and Qdot(0) = c T2^6 gamma^2 (1 + 2b^2 + b^4/5) with the
    same c, so Qdot(0) = P(T1)/gamma^2 has this root for every slope s.
    The engine meets it within the solve's rel_tol from beta = 0.01 to
    BETA_MAX and over six decades of T2.
    """
    for s, t2, beta in itertools.product(
            (1.0, 2.0), (1e-3, 1.0, 1e3),
            (0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, BETA_MAX)):
        g = lorentz_gamma(beta)
        exact = t2 * g ** (2.0 / 3.0) * (1.0 + 2.0 * beta**2 + beta**4 / 5.0) ** (1.0 / 6.0)
        got = equilibrium_temperature(beta, BathSpec(t2), Ohmic(s, None), SPEC)
        assert got == pytest.approx(exact, rel=1e-8), (s, t2, beta)


def test_equilibrium_zeroes_the_heating_rate():
    """The production Qdot, A - P(T1)/gamma^2, vanishes at the root brentq found."""
    for model, beta in itertools.product(REFERENCE_MODELS, (0.01, 0.3, 0.7, 0.9)):
        t_eq = equilibrium_temperature(beta, BATH, model, SPEC, rel_tol=1e-10)
        state = ParticleState(beta=beta, mass=1.0, temperature=t_eq)
        q = heating_rate(state, BATH, model, SPEC)
        scale = abs(heating_rate(
            ParticleState(beta, 1.0, 0.0), BATH, model, SPEC
        ).value)
        assert abs(q.value) <= max(1e-8 * scale, 10.0 * q.error)


def test_equilibrium_zeroes_the_2d_doppler_heating_rate():
    """The root also zeroes Qdot taken as the 2D lab-frame Doppler integral.

    heating_rate is the 1D split that brentq zeroes, so the independent
    check is the 2D quadrature (2 gamma/pi) Int dw w^4 Int dx u^3 a''(w_b)
    [n(w, T2) - n(w_b, T1)] of the same rate.
    """
    for model, beta in itertools.product(REFERENCE_MODELS, (0.01, 0.3, 0.7, 0.9)):
        t_eq = equilibrium_temperature(beta, BATH, model, SPEC, rel_tol=1e-10)
        pref = 2.0 * lorentz_gamma(beta) / math.pi
        (q,) = _doppler_integral(lambda x, u: (u**3,), (pref,), beta, t_eq, BATH.temperature,
                                 model, SPEC)
        scale = abs(heating_rate(ParticleState(beta, 1.0, 0.0), BATH, model, SPEC).value)
        assert abs(q.value) <= max(1e-8 * scale, 10.0 * q.error), (model, beta)


def test_equilibrium_solve_evaluates_one_heating_integral(monkeypatch):
    """A cold solve evaluates Qdot once, at T1 = 0; the rest is 1D P(T1)."""
    calls = []

    def counted(state, *args):
        calls.append(state.temperature)
        return heating_rate(state, *args)

    monkeypatch.setattr(dynamics, "heating_rate", counted)
    dynamics._equilibrium_cached.cache_clear()
    equilibrium_temperature(0.5, BATH, BAND, SPEC)
    assert calls == [0.0]


def test_equilibrium_matches_reference_root_at_high_speed():
    # The root of perfbench/reference.py's 1D forms of Qdot (scipy quad,
    # extended-precision bracket), found by brentq at rtol 1e-12.  Brentq
    # over the 2D Qdot missed it by 2.3e-7 relative.
    lorentz = LorentzOscillator(1.0, 2.0, 0.5)
    t_eq = equilibrium_temperature(0.99, BATH, lorentz, SPEC, rel_tol=1e-10)
    assert t_eq == pytest.approx(0.9216890201034477, rel=1e-9)


def test_equilibrium_depends_on_the_spectrum():
    """T1* is a property of the model, not kinematics alone."""
    t_band = equilibrium_temperature(0.5, BATH, BAND, SPEC)
    t_ohmic = equilibrium_temperature(0.5, BATH, Ohmic(1.0, 5.0), SPEC)
    assert abs(t_band - t_ohmic) > 1e-3
    # a narrow absorber below the bath peak runs cold at this speed
    assert t_band < 1.0


def test_equilibrium_cold_bath_rejected():
    with pytest.raises(ValueError, match="bath"):
        equilibrium_temperature(0.5, BathSpec(0.0), BAND, SPEC)


@pytest.mark.parametrize("beta", (0.0, 0.3))
def test_equilibrium_rejects_a_bad_tolerance(beta):
    for rel_tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            equilibrium_temperature(beta, BATH, BAND, SPEC, rel_tol=rel_tol)


def test_equilibrium_bracket_failure_is_reported():
    null = TopHat(amplitude=0.0, omega1=0.5, omega2=1.5)
    with pytest.raises(BracketError, match="not bracketed"):
        equilibrium_temperature(0.5, BATH, null, SPEC)


# ---------------------------------------------------------------- validation


def test_material_thermo_validation():
    with pytest.raises(ValueError):
        MaterialThermo(specific_heat=0.0)
    with pytest.raises(ValueError):
        MaterialThermo(specific_heat=-1.0)
    with pytest.raises(ValueError):
        MaterialThermo(specific_heat=math.nan)


def test_evolve_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(t_end=0.0)
    with pytest.raises(ValueError):
        EvolveConfig(t_end=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        EvolveConfig(t_end=1.0, mode="sideways")
    with pytest.raises(ValueError):
        EvolveConfig(t_end=1.0, output_stride=0)
    with pytest.raises(ValueError):
        EvolveConfig(t_end=1.0, beta_stop=1.5)


def test_evolve_config_rejects_bad_steps_and_tolerances():
    with pytest.raises(ValueError, match="^initial_step must be positive"):
        EvolveConfig(t_end=1.0, initial_step=0.0)
    with pytest.raises(ValueError, match="^abs_tol must be positive"):
        EvolveConfig(t_end=1.0, abs_tol=-1e-10)
    with pytest.raises(ValueError, match="^max_step must be positive"):
        EvolveConfig(t_end=1.0, max_step=0.0)


def test_quasi_static_mode_needs_a_warm_bath():
    state = ParticleState(beta=0.5, mass=100.0, temperature=1.0)
    cfg = EvolveConfig(t_end=1.0, mode="quasi-static-T1")
    with pytest.raises(ValueError, match="^quasi-static-T1 mode needs T2 > 0"):
        quiet_evolve(state, BathSpec(0.0), BAND, THERMO, cfg, SPEC)


def _planted_mass_rate(monkeypatch, rate):
    """Replace dm/dt by rate(m) in the equations of motion."""
    eom = dynamics._equations_of_motion

    def planted(state, *args):
        dbeta, _, dtemp = eom(state, *args)
        return dbeta, rate(state.mass), dtemp

    monkeypatch.setattr(dynamics, "_equations_of_motion", planted)


def test_a_mass_driven_through_zero_stops_the_run(monkeypatch):
    _planted_mass_rate(monkeypatch, lambda m: -1e6)
    state = ParticleState(beta=0.5, mass=100.0, temperature=1.0)
    with pytest.raises(DynamicsError, match="^mass became non-positive"):
        quiet_evolve(state, BATH, BAND, THERMO, EvolveConfig(t_end=1.0, monitor=False), SPEC)


def test_step_size_underflow_stops_the_run(monkeypatch):
    """dm/dt = m^2 blows up at t = 1/m0 = 0.01, where the step falls below
    the spacing of the floats near t."""
    _planted_mass_rate(monkeypatch, lambda m: m * m)
    state = ParticleState(beta=0.5, mass=100.0, temperature=1.0)
    cfg = EvolveConfig(t_end=1.0, rel_tol=1e-6, monitor=False)
    with pytest.raises(DynamicsError, match="^step-size underflow at t = 0.01: "):
        quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)


def test_ode_tolerance_must_dominate_quadrature_noise():
    cfg = EvolveConfig(t_end=1.0, abs_tol=1e-14)
    with pytest.raises(ValueError, match="abs_tol"):
        cfg.validate_against(QuadratureSpec())  # quad abs_tol 1e-14 needs >= 1e-13
    EvolveConfig(t_end=1.0, abs_tol=1e-13).validate_against(QuadratureSpec())


def test_large_heat_capacity_product_warns():
    state = ParticleState(beta=0.0, mass=5.0, temperature=2.0)
    cfg = EvolveConfig(t_end=0.1)
    with pytest.warns(UserWarning, match="rest-mass feedback"):
        evolve(state, BATH, BAND, MaterialThermo(0.01), cfg, SPEC)


# ------------------------------------------------------------------- evolve


def test_null_coupling_keeps_state_frozen():
    null = TopHat(amplitude=0.0, omega1=0.5, omega2=1.5)
    state = ParticleState(beta=0.5, mass=10.0, temperature=2.0)
    thermo = MaterialThermo(1e-8)
    traj = evolve(state, BATH, null, thermo, EvolveConfig(t_end=5.0), SPEC)
    assert traj.termination == "t_end"
    for p in traj.points:
        assert p.beta == 0.5 and p.mass == 10.0 and p.temperature == 2.0
        assert p.force_lab == 0.0 and p.heating_rate == 0.0 and p.intensity == 0.0
    assert traj.radiated_energy == 0.0
    assert traj.bookkeeping_residual <= 1e-15


def test_stationary_hot_particle_relaxes_to_bath():
    state = ParticleState(beta=0.0, mass=5.0, temperature=2.0)
    # the mass deficit is ~1% of the mass, so pinning it to 1e-7 of itself
    # needs the state resolved to ~1e-9
    cfg = EvolveConfig(t_end=40.0, rel_tol=1e-11, abs_tol=1e-13)
    traj = quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)

    temps = np.array([p.temperature for p in traj.points])
    betas = np.array([p.beta for p in traj.points])
    masses = np.array([p.mass for p in traj.points])
    assert np.all(betas == 0.0)
    assert np.all(np.diff(temps) < 0.0)  # monotone cooling
    assert temps[-1] == pytest.approx(1.0, abs=1e-5)
    assert np.all(np.diff(masses) < 0.0)  # net radiator loses mass
    # radiated energy balances the mass deficit (beta = 0: gamma = 1)
    assert traj.radiated_energy == pytest.approx(masses[0] - masses[-1], rel=1e-7)
    assert traj.bookkeeping_residual <= 1e-6 * traj.radiated_energy


def test_cold_particle_spins_up_to_bath_temperature():
    state = ParticleState(beta=0.0, mass=5.0, temperature=0.2)
    cfg = EvolveConfig(t_end=40.0)
    traj = quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)
    temps = np.array([p.temperature for p in traj.points])
    assert np.all(np.diff(temps) > 0.0)
    assert temps[-1] == pytest.approx(1.0, abs=1e-4)
    masses = np.array([p.mass for p in traj.points])
    assert masses[-1] > masses[0]  # absorbed heat adds rest mass


def test_fixed_velocity_mode_relaxes_temperature_at_constant_speed():
    state = ParticleState(beta=0.5, mass=10.0, temperature=2.0)
    cfg = EvolveConfig(t_end=40.0, mode="fixed-velocity")
    traj = quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)
    t_eq = equilibrium_temperature(0.5, BATH, BAND, SPEC)
    assert all(p.beta == 0.5 for p in traj.points)
    # the constrained particle still radiates internal energy away
    masses = np.array([p.mass for p in traj.points])
    assert masses[-1] < masses[0]
    assert traj.points[-1].temperature == pytest.approx(t_eq, abs=1e-5)
    assert math.isnan(traj.bookkeeping_residual)  # no closed energy ledger


def test_quasi_static_mode_pins_temperature_to_equilibrium():
    state = ParticleState(beta=0.5, mass=50.0, temperature=2.0)
    cfg = EvolveConfig(t_end=10.0, mode="quasi-static-T1")
    traj = quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)
    for p in traj.points[:: max(1, len(traj.points) // 6)]:
        t_eq = equilibrium_temperature(p.beta, BATH, BAND, SPEC)
        assert p.temperature == pytest.approx(t_eq, rel=1e-7)
    betas = np.array([p.beta for p in traj.points])
    assert np.all(np.diff(betas) < 0.0)


def test_quasi_static_mode_solves_the_equilibrium_once_per_state(monkeypatch):
    """Each state RK45 evaluates costs one T1* solve and one drag, no more.

    The solver re-evaluates its last state (the accepted point and, at the
    start, y0); those evaluations must reuse the state's record.
    """
    solves, drags = [], []

    def counted_solve(beta, *args):
        solves.append(beta)
        return equilibrium_temperature(beta, *args)

    def counted_drag(state, *args, _drag=dynamics.drag_combination):
        drags.append(state.beta)
        return _drag(state, *args)

    monkeypatch.setattr(dynamics, "equilibrium_temperature", counted_solve)
    monkeypatch.setattr(dynamics, "drag_combination", counted_drag)
    cfg = EvolveConfig(t_end=1.0, mode="quasi-static-T1")
    traj = quiet_evolve(HOT_START, BATH, BAND, THERMO, cfg, SPEC)
    assert len(traj.points) >= 3
    assert solves == drags
    assert len(set(solves)) == len(solves)


def test_beta_stop_terminates_early():
    state = ParticleState(beta=0.5, mass=10.0, temperature=2.0)
    cfg = EvolveConfig(t_end=1e6, mode="quasi-static-T1", beta_stop=0.45)
    traj = quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)
    assert traj.termination == "beta_stop"
    assert traj.points[-1].beta <= 0.45
    assert traj.points[-1].t < 1e6


def test_trajectory_keeps_every_accepted_step_regardless_of_stride():
    """Striding is an output-layer concern; the trajectory is always dense."""
    state = ParticleState(beta=0.0, mass=5.0, temperature=1.5)
    dense = quiet_evolve(state, BATH, BAND, THERMO, EvolveConfig(t_end=5.0), SPEC)
    strided = quiet_evolve(
        state, BATH, BAND, THERMO, EvolveConfig(t_end=5.0, output_stride=7), SPEC
    )
    assert [p.t for p in strided.points] == [p.t for p in dense.points]
    assert dense.points[0].t == 0.0
    times = np.array([p.t for p in dense.points])
    assert np.all(np.diff(times) > 0.0)


def test_first_point_reports_initial_observables():
    state = ParticleState(beta=0.4, mass=7.0, temperature=1.2)
    traj = quiet_evolve(state, BATH, BAND, THERMO, EvolveConfig(t_end=0.5), SPEC)
    p0 = traj.points[0]
    q = heating_rate(state, BATH, BAND, SPEC)
    assert p0.t == 0.0 and p0.beta == 0.4
    assert p0.heating_rate == pytest.approx(q.value, rel=1e-9)
    assert p0.balance_residual <= 1e-10


def test_monitor_keeps_balance_residual_small_along_trajectory():
    state = ParticleState(beta=0.3, mass=10.0, temperature=1.5)
    traj = quiet_evolve(state, BATH, BAND, THERMO, EvolveConfig(t_end=10.0), SPEC)
    scale = max(abs(p.intensity) for p in traj.points)
    assert max(p.balance_residual for p in traj.points) <= 1e-8 * max(scale, 1.0)


# -------------------------------------------------------- energy bookkeeping

# The criterion-10 setup: a hot TopHat particle at beta = 0.5, m = 100.
HOT_START = ParticleState(beta=0.5, mass=100.0, temperature=2.0)


def bookkeeping_rel(traj):
    return traj.bookkeeping_residual / traj.radiated_energy


def test_quasi_static_bookkeeping_at_default_tolerances():
    cfg = EvolveConfig(t_end=600.0, mode="quasi-static-T1")
    traj = quiet_evolve(HOT_START, BATH, BAND, THERMO, cfg, SPEC)
    assert traj.radiated_energy > 0.0
    assert bookkeeping_rel(traj) <= 1e-6


def _scaled_intensity(monkeypatch, rel=1e-4):
    net = dynamics._net_intensity

    def scaled(*args):
        q = net(*args)
        return Quantity(q.value * (1.0 + rel), q.error)

    monkeypatch.setattr(dynamics, "_net_intensity", scaled)


def _scaled_mass_rate(monkeypatch):
    eom = dynamics._equations_of_motion

    def scaled(*args):
        dbeta, dmass, dtemp = eom(*args)
        return dbeta, dmass * (1.0 + 1e-4), dtemp

    monkeypatch.setattr(dynamics, "_equations_of_motion", scaled)


@pytest.mark.parametrize("plant", [_scaled_intensity, _scaled_mass_rate])
def test_bookkeeping_sees_a_planted_1e_4_fault(monkeypatch, plant):
    """A 1e-4 error in the 2D intensity or in dm/dt shows in the residual.

    The radiated energy is integrated from the drag and heating rates
    through the energy-balance identity, not from the equations of
    motion, and corrected by the 2D intensity, so neither fault cancels.
    """
    cfg = EvolveConfig(t_end=3.0, monitor=False)
    clean = quiet_evolve(HOT_START, BATH, BAND, THERMO, cfg, SPEC)
    assert bookkeeping_rel(clean) <= 1e-9
    plant(monkeypatch)
    faulty = quiet_evolve(HOT_START, BATH, BAND, THERMO, cfg, SPEC)
    assert bookkeeping_rel(faulty) >= 1e-5


# ------------------------------------------------------------------ monitor

LORENTZ = LorentzOscillator(1.0, 2.0, 0.5)


def test_monitor_raises_on_a_planted_1e_9_fault(monkeypatch):
    """A 1e-9 relative error in the 2D intensity stops the run at t = 0."""
    _scaled_intensity(monkeypatch, rel=1e-9)
    with pytest.raises(MonitorViolation, match="at t = 0: "):
        quiet_evolve(HOT_START, BATH, BAND, THERMO, EvolveConfig(t_end=0.5), SPEC)


@pytest.mark.parametrize("model, beta, t1, passes", [
    pytest.param(LORENTZ, 0.96, 0.5, True, id="0.96-True"),
    pytest.param(Ohmic(1.0, 5.0), 1.0 - 1e-6, 0.5, False, id="0.999999-False"),
    pytest.param(LORENTZ, 0.999, 0.0, True, id="lorentz-0.999-T1=0-True"),
    pytest.param(LORENTZ, 1.0 - 1e-6, 0.0, False, id="lorentz-0.999999-T1=0-False"),
])
def test_monitor_stops_where_verify_fails(model, beta, t1, passes):
    """evolve raises at t = 0 iff verify_all's energy-balance check fails there.

    At beta = 1 - 1e-6 the 2D route misses (ROADMAP F2): Ohmic (1, 5)
    has an energy-balance residual about 100 times its tolerance, and
    Lorentz at T1 = 0 about 60 times.  The monitor's tolerance is verify's
    because both read F_x from force_lab: with F_x composed as F' +
    gamma^2 beta Qdot its error, 1e4 times force_lab's, let the cold
    Lorentz run pass.
    """
    state = ParticleState(beta=beta, mass=100.0, temperature=t1)
    check = verify_all(state, BATH, model, SPEC).checks[0]
    assert check.name == "energy-balance" and check.passed is passes
    cfg = EvolveConfig(t_end=1.0)
    if passes:
        assert quiet_evolve(state, BATH, model, THERMO, cfg, SPEC).termination == "t_end"
    else:
        with pytest.raises(MonitorViolation, match="at t = 0: "):
            quiet_evolve(state, BATH, model, THERMO, cfg, SPEC)


@pytest.mark.parametrize("beta", [0.99, 0.995])
def test_evolve_completes_at_beta_0_99_and_0_995(beta):
    """The monitor's 2D intensity holds at high beta; an inner rule evenly
    spread in x stopped this run at t = 0 from beta = 0.98."""
    state = ParticleState(beta=beta, mass=100.0, temperature=0.5)
    traj = quiet_evolve(state, BATH, LORENTZ, THERMO, EvolveConfig(t_end=1.0), SPEC)
    assert traj.termination == "t_end"


# -------------------------------------------------------------- convergence


def test_solution_converges_under_tolerance_tightening():
    """Loose and tight runs agree after Hermite interpolation, rel 1e-6."""
    state = ParticleState(beta=0.5, mass=20.0, temperature=2.0)
    loose_cfg = EvolveConfig(t_end=8.0, rel_tol=1e-8, abs_tol=1e-10)
    tight_cfg = EvolveConfig(t_end=8.0, rel_tol=1e-8 / 32.0, abs_tol=1e-12)
    loose = quiet_evolve(state, BATH, BAND, THERMO, loose_cfg, SPEC)
    tight = quiet_evolve(state, BATH, BAND, THERMO, tight_cfg, SPEC)

    g = np.array([lorentz_gamma(p.beta) for p in tight.points])
    t = np.array([p.t for p in tight.points])
    beta = np.array([p.beta for p in tight.points])
    # dbeta/dt from the recorded rest-frame force: (1-b^2)^{3/2} F' / m
    fp = np.array(
        [p.force_lab - g[i] ** 2 * p.beta * p.heating_rate for i, p in enumerate(tight.points)]
    )
    mass = np.array([p.mass for p in tight.points])
    dbeta = (1.0 - beta**2) ** 1.5 * fp / mass
    spline = CubicHermiteSpline(t, beta, dbeta)

    worst = max(
        abs(spline(p.t) - p.beta) / p.beta for p in loose.points if 0.0 < p.t <= 8.0
    )
    assert worst <= 1e-6, f"loose/tight trajectories disagree rel {worst:.3e}"


def test_error_scales_with_step_size_at_fixed_order():
    """Halving max_step cuts the endpoint defect at high order.

    The heavy particle keeps the thermal rate slow enough that the forced
    steps stay inside the explicit stability envelope.  A low-order
    regression in the stepper would collapse the ratio towards 2-4.
    """
    state = ParticleState(beta=0.0, mass=50.0, temperature=1.8)
    base = dict(t_end=4.0, rel_tol=1e-3, abs_tol=1e-12)
    ref_cfg = EvolveConfig(t_end=4.0, rel_tol=1e-12, abs_tol=1e-13)
    ref = quiet_evolve(state, BATH, BAND, THERMO, ref_cfg, SPEC)
    truth = ref.points[-1].temperature

    def defect(h):
        cfg = EvolveConfig(max_step=h, initial_step=h, **base)
        traj = quiet_evolve(state, BATH, BAND, THERMO, cfg, SPEC)
        assert traj.points[-1].t == 4.0
        return abs(traj.points[-1].temperature - truth)

    e_coarse, e_fine = defect(0.2), defect(0.1)
    ratio = e_coarse / e_fine
    assert 16.0 <= ratio <= 256.0, f"defect ratio {ratio:.1f} not in the 2^4..2^8 band"
