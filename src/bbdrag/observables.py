"""Radiative observables of a moving polarizable particle.

A point particle with proper temperature T1 moves with speed beta
through an isotropic photon bath of temperature T2.  All quantities are
internal units (hbar = c = k_B = 1); x is the arrival-direction cosine
of a lab photon and w_b = gamma*w*(1 + beta*x) its rest-frame
(Doppler) frequency.  With a'' the dissipative polarizability and
n(w, T) the Bose occupation, the implemented forms are

  force_lab      F_x  = -(2 gamma/pi) Int dw w^4 Int dx
                          x (1+bx)^2 a''(w_b) [n(w,T2) - n(w_b,T1)]
  heating_rate   Qdot = +(2 gamma/pi) Int dw w^4 Int dx
                          (1+bx)^3 a''(w_b) [n(w,T2) - n(w_b,T1)]
  intensity      I1   = +(2 gamma/pi) Int dw w^4 Int dx
                          (1+bx)^2 a''(w_b) n(w_b,T1)      (emission)
                 I2   = same kernel with n(w,T2)           (absorption)
                 I    = I1 - I2, positive = net emission
  drag           -(2 gamma^3/pi) Int dw w^4 Int dx
                          (x+b)(1+bx)^2 a''(w_b) n(w,T2)
  rest force     F'_x = +(2/pi) Int dw w^4 Int dx
                          x a''(w) n(gamma*w*(1+bx), T2)

The factor x in F_x is required: without it F_x(beta=0) would not
vanish (the integrand must be odd in x at rest) and the exact relations
I + Qdot + beta*F_x = 0 and F'_x = F_x - gamma^2*beta*Qdot would fail.
The drag integral is the T2-only form of F_x - gamma^2*beta*Qdot: the
T1-dependent (spontaneous-emission) parts of F_x and gamma^2*beta*Qdot
cancel identically, so the drag needs no particle temperature at all,
and it equals F'_x (change of variables w' = gamma*w*(1+beta*x)).
Identities above hold exactly for the integrals; numerically they hold
to combined quadrature error, which is what the consistency module
checks.

Every a''(w_b) integral -- here, in the consistency checks and in the
trajectory monitor -- is one _doppler_integral call with its own weight.

Every observable returns a Quantity carrying the value, a conservative
error estimate, and quadrature diagnostics, including the largest
Doppler argument the model can be sampled at ("omega_beta_max").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    BETA_MAX,
    QuadResult,
    QuadratureSpec,
    _OMEGA_DOMAIN_FLOOR,
    bose_occupation,
    inv_sinh_sq,
    integrate_1d,
    integrate_omega_x,
    lorentz_gamma,
    omega_cutoff,
)
from .polarizability import PolarizabilityModel, alpha_im, breakpoints

_PREF = 2.0 / math.pi

DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class ParticleState:
    """Instantaneous particle state: speed beta, rest mass, proper temperature."""

    beta: float
    mass: float
    temperature: float

    def __post_init__(self):
        b = self.beta
        if not (isinstance(b, (int, float)) and math.isfinite(b) and 0.0 <= b <= BETA_MAX):
            raise ValueError(f"beta must lie in [0, {BETA_MAX!r}], got {b!r}")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be finite and positive, got {self.mass!r}")
        t = self.temperature
        if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
            raise ValueError(f"temperature must be finite and >= 0, got {t!r}")


@dataclass(frozen=True)
class BathSpec:
    """Photon bath: isotropic blackbody radiation at temperature T2 (lab frame)."""

    temperature: float

    def __post_init__(self):
        t = self.temperature
        if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
            raise ValueError(f"bath temperature must be finite and >= 0, got {t!r}")


@dataclass(frozen=True)
class Quantity:
    """Observable value with error estimate and quadrature diagnostics."""

    value: float
    error: float
    diagnostics: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ObservableBundle:
    """All observables of one (state, bath, model) point, each a Quantity.

    intensity = intensity_emitted - intensity_absorbed holds exactly by
    construction; the cross-relations between the members hold to
    combined quadrature error.
    """

    force_lab: Quantity
    heating_rate: Quantity
    intensity: Quantity
    intensity_emitted: Quantity
    intensity_absorbed: Quantity
    force_rest_frame: Quantity


def _zero(reason: str) -> Quantity:
    return Quantity(0.0, 0.0, {"short_circuit": reason, "neval": 0, "panels": 0})


def _diag(q: QuadResult, gamma: float, beta: float) -> dict:
    return {
        "neval": q.neval,
        "panels": q.panels,
        "omega_max": q.omega_max,
        "omega_beta_max": gamma * (1.0 + beta) * q.omega_max,
    }


def _doppler_geometry(model: PolarizabilityModel, beta: float, gamma: float):
    """Inner-edge function and outer seeds for kernels sampling a''(w_b).

    A jump of a'' at w_e shows up along the line x*(w) = (w_e/(gamma*w)
    - 1)/beta; the inner rule must split there, and the outer integrand
    has kinks where that line enters or leaves the x range, i.e. at
    w_e/(gamma*(1 +/- beta)) and w_e/gamma.
    """
    breaks = breakpoints(model)
    if not breaks:
        return None, ()
    if beta == 0.0:
        # w_b = w exactly; the jumps live in the outer variable only.
        return None, tuple(breaks)

    def edges_fn(omega):
        cols = [np.full(omega.shape, -1.0)]
        # omega -> 0 sends the raw edge to inf before the clip catches it
        with np.errstate(over="ignore", divide="ignore"):
            for w_e in breaks:
                cols.append(np.clip((w_e / (gamma * omega) - 1.0) / beta, -1.0, 1.0))
        cols.append(np.full(omega.shape, 1.0))
        edges = np.stack(cols, axis=-1)
        edges.sort(axis=-1)
        return edges

    seeds = []
    for w_e in breaks:
        seeds.extend(
            (w_e / (gamma * (1.0 + beta)), w_e / gamma, w_e / (gamma * (1.0 - beta)))
        )
    return edges_fn, tuple(seeds)


def _negated(value: float) -> float:
    """-value, but +0.0 for an exact zero, as in a null model's emitted power."""
    return 0.0 - value


def _doppler_integral(
    weight, beta: float, t1: float, t2: float, model: PolarizabilityModel, spec: QuadratureSpec
) -> QuadResult:
    """Int dw w^4 Int dx weight(x, 1+bx) a''(w_b) [n(w,T2) - n(w_b,T1)].

    The one lab-frame Doppler integral behind every observable that
    samples a''(w_b); callers differ only in the angular weight and the
    prefactor.  Passing t1 = 0 keeps the bath term alone and t2 = 0 the
    particle term alone (negated: callers take _negated of the value),
    since n(., 0) is exactly 0; the temperatures also set the cutoff.
    """
    g = lorentz_gamma(beta)
    edges_fn, seeds = _doppler_geometry(model, beta, g)

    def kern(om, x):
        u = 1.0 + beta * x
        wb = g * om * u
        # A zero-temperature term is skipped, not subtracted as an array of
        # zeros: bitwise the same result, one full-size array pass fewer.
        if t1 == 0.0:
            occ = bose_occupation(om, t2)
        elif t2 == 0.0:
            occ = 0.0 - bose_occupation(wb, t1)
        else:
            occ = bose_occupation(om, t2) - bose_occupation(wb, t1)
        return weight(x, u) * om**4 * alpha_im(model, wb) * occ

    return integrate_omega_x(kern, t1, t2, beta, spec, inner_edges_fn=edges_fn, outer_seeds=seeds)


def _emitted_power(t1: float, model: PolarizabilityModel, spec: QuadratureSpec) -> Quantity:
    """P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw, the rest-frame emitted power.

    In exact arithmetic T1 enters the observables only through P: the
    emitted intensity I1 is P(T1) at any beta and Qdot(T1) = Qdot(0) - P(T1)/gamma^2.
    """
    cut = omega_cutoff(0.0, t1, 0.0, spec.u_max) if t1 > 0.0 else 0.0
    if cut < _OMEGA_DOMAIN_FLOOR:
        return _zero("no emission: T1 is 0 or its domain underflows")

    def integrand(om):
        return om**4 * alpha_im(model, om) * bose_occupation(om, t1)

    q = integrate_1d(integrand, 0.0, cut, spec, seeds=breakpoints(model))
    return Quantity((4.0 / math.pi) * q.value, (4.0 / math.pi) * q.error)


def force_lab(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Velocity-projected radiative force on the particle, lab frame.

    Negative values oppose the motion (+x direction).  Exactly zero at
    beta = 0, where the integrand is odd in x.
    """
    b, t1, t2 = state.beta, state.temperature, bath.temperature
    if b == 0.0:
        return _zero("integrand odd in x at beta = 0")
    if t1 == 0.0 and t2 == 0.0:
        return _zero("no photons at T1 = T2 = 0")
    q = _doppler_integral(lambda x, u: x * u * u, b, t1, t2, model, spec)
    g = lorentz_gamma(b)
    pref = -_PREF * g
    return Quantity(pref * q.value, abs(pref) * q.error, _diag(q, g, b))


def heating_rate(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Net power absorbed by the particle's internal degrees of freedom (lab frame).

    Positive when the bath heats the particle; zero at full equilibrium
    (beta = 0, T1 = T2).
    """
    t1, t2 = state.temperature, bath.temperature
    if t1 == 0.0 and t2 == 0.0:
        return _zero("no photons at T1 = T2 = 0")
    b = state.beta
    q = _doppler_integral(lambda x, u: u**3, b, t1, t2, model, spec)
    g = lorentz_gamma(b)
    pref = _PREF * g
    return Quantity(pref * q.value, pref * q.error, _diag(q, g, b))


def intensity(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[Quantity, Quantity, Quantity]:
    """Net, emitted, and absorbed radiated power: (I, I1, I2) with I = I1 - I2.

    I1 collects the particle-temperature (spontaneous) term, I2 the
    bath term; both share the kernel (1+bx)^2 w^4 a''(w_b) and differ
    only in which occupation weights it.  Positive I means the particle
    loses energy to radiation.
    """
    b, t1, t2 = state.beta, state.temperature, bath.temperature
    g = lorentz_gamma(b)
    pref = _PREF * g

    if t1 == 0.0:
        emitted = _zero("no spontaneous emission at T1 = 0")
    else:
        q1 = _doppler_integral(lambda x, u: u * u, b, t1, 0.0, model, spec)
        emitted = Quantity(pref * _negated(q1.value), pref * q1.error, _diag(q1, g, b))

    if t2 == 0.0:
        absorbed = _zero("no bath photons at T2 = 0")
    else:
        q2 = _doppler_integral(lambda x, u: u * u, b, 0.0, t2, model, spec)
        absorbed = Quantity(pref * q2.value, pref * q2.error, _diag(q2, g, b))

    net = Quantity(
        emitted.value - absorbed.value,
        emitted.error + absorbed.error,
        {"emitted": emitted.diagnostics, "absorbed": absorbed.diagnostics},
    )
    return net, emitted, absorbed


def drag_combination(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """The deceleration-driving force combination F_x - gamma^2 * beta * Qdot.

    Evaluated in its bath-only form: the particle-temperature parts of
    F_x and gamma^2*beta*Qdot cancel identically, leaving an integral
    weighted by n(w, T2) alone, so the result is independent of T1 by
    construction.  Strictly negative for beta > 0, T2 > 0 and a nonzero
    passive model; equals the rest-frame force.
    """
    b, t2 = state.beta, bath.temperature
    if b == 0.0:
        return _zero("integrand odd in x at beta = 0")
    if t2 == 0.0:
        return _zero("no bath photons at T2 = 0")
    q = _doppler_integral(lambda x, u: (x + b) * u * u, b, 0.0, t2, model, spec)
    g = lorentz_gamma(b)
    pref = -_PREF * g**3
    return Quantity(pref * q.value, abs(pref) * q.error, _diag(q, g, b))


def force_rest_frame(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Friction force in the particle's instantaneous rest frame.

    Direct form: the polarizability is sampled at the rest-frame
    frequency w while the bath occupation carries the Doppler factor,
    n(gamma*w*(1+beta*x), T2).  The thermal coth of this expression is
    used zero-point subtracted (coth - 1 = 2n); the discarded constant
    is even in x and integrates against x to zero, so the subtraction
    is exact.  T1 never enters.  F'_x <= 0, with equality only for
    beta = 0, T2 = 0, or a null model.
    """
    b, t2 = state.beta, bath.temperature
    if b == 0.0:
        return _zero("integrand odd in x at beta = 0")
    if t2 == 0.0:
        return _zero("no bath photons at T2 = 0")
    g = lorentz_gamma(b)

    def kern(om, x):
        u = 1.0 + b * x
        return x * om**4 * alpha_im(model, om) * bose_occupation(g * om * u, t2)

    # The occupation argument is red-shifted down to w/sqrt((1+b)/(1-b))
    # at x = -1, so the cutoff needs the same blue-shift factor a moving
    # particle temperature would get: pass t2 through the first slot.
    q = integrate_omega_x(kern, t2, 0.0, b, spec, outer_seeds=breakpoints(model))
    return Quantity(_PREF * q.value, _PREF * q.error, _diag(q, g, b))


def force_rest_frame_alt(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Rest-frame friction force, transformed form.

    The change of variables w' = gamma*w*(1+beta*x) maps the direct
    rest-frame integral onto the bath-only drag combination, so this is
    the same integral drag_combination evaluates: the polarizability
    sampled at the Doppler frequency against n(w, T2) with the (x+b)
    angular weight.  Kept as its own entry point because agreement with
    force_rest_frame cross-validates two genuinely different integrands.
    """
    return drag_combination(state, bath, model, spec)


def force_rest_frame_nr(
    beta: float,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Leading low-speed friction force, linear in the speed.

    -(beta/(3 pi T2)) Int dw w^5 a''(w) / sinh^2(w/(2 T2)): the first
    order of force_rest_frame in beta.  Restricted to beta in (0, 0.1]
    where the linear form is meaningful.
    """
    if not (isinstance(beta, (int, float)) and 0.0 < beta <= 0.1):
        raise ValueError(f"low-speed form needs beta in (0, 0.1], got {beta!r}")
    t2 = bath.temperature
    if t2 <= 0.0:
        raise ValueError("low-speed form needs a bath temperature T2 > 0")

    def integrand(om):
        return om**5 * alpha_im(model, om) * inv_sinh_sq(om / (2.0 * t2))

    cut = omega_cutoff(0.0, t2, 0.0, spec.u_max)
    if cut < _OMEGA_DOMAIN_FLOOR:
        return _zero("integration domain underflows at this bath temperature")
    seeds = tuple(w for w in breakpoints(model) if w < cut)
    q = integrate_1d(integrand, 0.0, cut, spec, seeds=seeds)
    pref = -beta / (3.0 * math.pi * t2)
    return Quantity(
        pref * q.value,
        abs(pref) * q.error,
        {"neval": q.neval, "panels": q.panels, "omega_max": cut},
    )


def evaluate_bundle(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ObservableBundle:
    """Evaluate every observable at one parameter point."""
    net, emitted, absorbed = intensity(state, bath, model, spec)
    return ObservableBundle(
        force_lab=force_lab(state, bath, model, spec),
        heating_rate=heating_rate(state, bath, model, spec),
        intensity=net,
        intensity_emitted=emitted,
        intensity_absorbed=absorbed,
        force_rest_frame=force_rest_frame(state, bath, model, spec),
    )
