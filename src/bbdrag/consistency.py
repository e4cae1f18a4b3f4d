"""Cross-checks between independently evaluated observables.

The observables satisfy exact relations that the implementation must
reproduce to quadrature accuracy:

* energy balance:      I + Qdot + beta * F_x = 0
* frame force:         F'_x = F_x - gamma^2 * beta * Qdot
* spontaneous terms:   the particle-temperature parts of F_x and of
                       gamma^2*beta*Qdot are equal, which is why the
                       drag combination carries no T1 dependence
* dual rest force:     the direct (2D) and transformed (1D) rest-force
                       integrals agree (change of variables
                       w' = gamma*w*(1+bx))
* intensity split:     net intensity = P(T1) - I2, where the emitted
                       power I1 equals the rest-frame emission
                       P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw at any beta
* closed inner forms:  Int x(1+bx)^-3 dx = -2*beta*gamma^4 and
                       Int (1+bx)^-2 dx = 2*gamma^2 over [-1, 1]

Every production observable (force_lab, heating_rate, intensity,
drag_combination, force_rest_frame) is a 1D integral over the
rest-frame frequency (observables).  The verification route lives here:
2D quadratures of the lab-frame forms that define the observables.
Their inner variable is the rapidity shift s in [-1, 1], u = 1 + bx =
e^(eta s)/gamma (_rapidity_map); each cuts off at u_max decay lengths
of its slowest-decaying occupation, puts its nodes only where a'' can be
nonzero (w or w_b in polarizability.support) and seeds its outer panels
with the support's ends, their Doppler images and the 1D route's ladder
from its lowest thermal scale.  verify_all takes the
net intensity, the lab force and the two spontaneous terms
(SpontaneousTerms) from one vector Doppler pass (_doppler_terms), the
direct rest force from a second, and every 1D value from one
evaluate_bundle, so each relation checks one route against the other;
the force term meets -beta*P(T1) from the bundle.  The trajectory
monitor takes the net intensity alone (_net_intensity).  Every residual
check (_check) compares a Quantity with a signed sum of Quantities and
passes iff residual <= max(10 * RSS, ABS_FLOOR), the RSS taken over the
error of every term on both sides times |its coefficient|, never a bare
epsilon.  ABS_FLOOR = 1e-12 internal units absorbs exact-zero cases.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import observables
from .kernels import (QuadResult, QuadratureSpec, _OMEGA_DOMAIN_FLOOR, _check_beta,
                      bose_occupation, integrate_1d, integrate_omega_x, lorentz_gamma)
from .observables import (_PREF, DEFAULT_QUADRATURE, BathSpec, ParticleState, Quantity,
                          _seed_ladder, _zero)
# perfbench's tracer patches these by name.
from .observables import (drag_combination, force_lab, force_rest_frame,  # noqa: F401
                          heating_rate, intensity)
from .polarizability import PolarizabilityModel, alpha_im, support

ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class IdentityCheck:
    """One verified relation: lhs vs rhs with residual and tolerance."""

    name: str
    lhs: float
    rhs: float
    residual: float
    combined_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Deterministic aggregate of identity checks; passed iff all pass."""

    checks: tuple[IdentityCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _check(name: str, lhs: Quantity, *rhs: tuple[float, Quantity]) -> IdentityCheck:
    """lhs against sum(c * term) over rhs; the RSS takes lhs's and every |c| * term's error."""
    value = sum(c * t.value for c, t in rhs)
    residual = abs(lhs.value - value)
    combined = math.sqrt(sum(e * e for e in (lhs.error, *(abs(c) * t.error for c, t in rhs))))
    tol = max(10.0 * combined, ABS_FLOOR)
    return IdentityCheck(name, lhs.value, value, residual, combined, tol, residual <= tol)


def _sign_check(name: str, quantity: Quantity) -> IdentityCheck:
    """Pass iff the value is non-positive to within its error budget."""
    excess = max(0.0, quantity.value)
    tol = max(10.0 * quantity.error, ABS_FLOOR)
    return IdentityCheck(name, quantity.value, 0.0, excess, quantity.error, tol, excess <= tol)


def _energy_balance(b: float, net: Quantity, f: Quantity, q: Quantity) -> IdentityCheck:
    """The net intensity against -(Qdot + beta * F_x), for verify_all and the trajectory monitor."""
    return _check("energy-balance", net, (-1.0, q), (-b, f))


def _diag(q: QuadResult, gamma: float, beta: float) -> dict:
    return {"neval": q.neval, "panels": q.panels, "omega_max": q.omega_max,
            "omega_beta_max": gamma * (1.0 + beta) * q.omega_max}


def _rapidity_map(beta: float):
    """at(s) -> (x, u = 1 + beta x, dx/ds) for the 2D route's inner variable s in [-1, 1].

    u = e^(eta s)/cosh eta with eta = artanh beta, so w_b = gamma w u
    spreads its e-folds evenly over s; x = (expm1(eta s) - 2 sinh^2(eta/2))
    / sinh eta is exact to rounding, and 1 + beta x is never formed.
    """
    eta = math.atanh(beta)
    if eta == 0.0:
        return lambda s: (s, 1.0, 1.0)
    sh, g, lift = math.sinh(eta), math.cosh(eta), 2.0 * math.sinh(0.5 * eta) ** 2

    def at(s):
        e = np.exp(eta * s)
        return (np.expm1(eta * s) - lift) / sh, e / g, (eta / sh) * e

    return at


def _support_edges(model: PolarizabilityModel, beta: float):
    """Inner-edge function of the one segment where w_b = w e^(eta s) lies in the support.

    s from ln(lo/w)/eta to ln(hi/w)/eta, clipped to [-1, 1]; a''(w_b) is 0
    outside it.  None for the support (0, inf), and at beta = 0, where
    w_b = w and the outer range alone keeps the nodes inside the support.
    """
    lo, hi = support(model)
    if (lo, hi) == (0.0, math.inf) or beta == 0.0:
        return None
    eta = math.atanh(beta)
    return lambda omega: np.clip(np.log(np.array([lo, hi]) / omega[:, None]) / eta, -1.0, 1.0)


def _doppler_integral(weight, prefs: tuple, beta: float, t1: float, t2: float,
                      model: PolarizabilityModel, spec: QuadratureSpec, spontaneous=()):
    """prefs[k] * Int dw w^4 Int dx weight(x, 1+bx)[k] a''(w_b) [n(w,T2) - n(w_b,T1)].

    The one lab-frame Doppler integral behind every 2D term, x from
    _rapidity_map; callers differ only in the angular weights and the
    signed prefactors.  weight returns one weight per prefactor, and the
    tuple of Quantities comes back from one vector pass that evaluates
    a'' and each occupation once per node; the terms indexed in
    `spontaneous` keep -n(w_b,T1) alone.  Passing t1 = 0 keeps the bath
    term alone and t2 = 0 the (negative) particle term alone, since
    n(., 0) is exactly 0.  The cutoff is u_max * max(T2, D T1),
    D = sqrt((1+b)/(1-b)), since n(w_b, T1) decays over D T1 in w.  Each
    end w_e of the support (lo, hi) puts outer kinks at w_e/(gamma*(1 +/- beta))
    and w_e/gamma; w runs from lo/(gamma*(1+beta)) to hi/(gamma*(1-beta)),
    where a''(w_b) can be nonzero, and s over the one segment where w_b
    lies in the support (_support_edges).  The seed ladder starts at the
    lowest scale min(T2, T1/D) of the terms that do not underflow and runs
    to the cutoff; integrate_1d drops the seeds past the last kink.  An
    exact zero comes back as +0.0.
    """
    g = lorentz_gamma(beta)
    at = _rapidity_map(beta)

    def kern(om, s):
        # Full-size arrays are dropped once used: k terms keep k rows alive.
        x, u, jac = at(s)
        weights = weight(x, u)
        wb = g * om * u
        del x, u
        om4, a = om**4, alpha_im(model, wb)
        # A zero-temperature term is skipped, not subtracted as an array of
        # zeros: bitwise the same result, one full-size array pass fewer.
        n1 = None if t1 == 0.0 else bose_occupation(wb, t1)
        del wb
        if t1 == 0.0:
            net = bose_occupation(om, t2)
        elif t2 == 0.0:
            net = 0.0 - n1
        else:
            net = bose_occupation(om, t2) - n1
        particle = 0.0 - n1 if spontaneous else None
        del n1
        out = np.empty((len(prefs), *np.broadcast_shapes(*map(np.shape, weights), a.shape)))
        for k, (w, row) in enumerate(zip(weights, out)):
            np.multiply(w * jac, om4, out=row)
            row *= a
            row *= particle if k in spontaneous else net
        return out

    blue = math.sqrt((1.0 + beta) / (1.0 - beta))
    decay = max(t2, t1 * blue)
    lowest = min((t for t, d in ((t2, t2), (t1 / blue, t1 * blue))
                  if spec.u_max * d >= _OMEGA_DOMAIN_FLOOR), default=math.inf)
    kinks = [w_e / (g * f) for w_e in support(model) for f in (1.0 + beta, 1.0, 1.0 - beta)]
    q = integrate_omega_x(kern, decay, spec, (kinks[0], kinks[-1]), _support_edges(model, beta),
                          outer_seeds=(*kinks, *_seed_ladder(lowest, spec.u_max * decay, model)))
    value, error = np.broadcast_to(q.value, len(prefs)), np.broadcast_to(q.error, len(prefs))
    return tuple(Quantity(p * float(v) + 0.0, abs(p) * float(e), _diag(q, g, beta))
                 for p, v, e in zip(prefs, value, error))


def _net_intensity(
    state: ParticleState, bath: BathSpec, model: PolarizabilityModel, spec: QuadratureSpec
) -> Quantity:
    """Net radiated power I = I1 - I2 by one lab-frame Doppler quadrature (the monitor's)."""
    # The shared integral is absorbed minus emitted, so I is its negation.
    (net,) = _doppler_integral(lambda x, u: (u * u,), (-_PREF * lorentz_gamma(state.beta),),
                               state.beta, state.temperature, bath.temperature, model, spec)
    return net


def _doppler_terms(
    state: ParticleState, bath: BathSpec, model: PolarizabilityModel, spec: QuadratureSpec
) -> tuple[Quantity, Quantity, Quantity, Quantity]:
    """(net I, F_x, force term, drift term) from one vector lab-frame Doppler pass.

    The counterparts of intensity and force_lab, and the T1-dependent
    parts of F_x and gamma^2*beta*Qdot (SpontaneousTerms), each meeting
    its own tolerance (_doppler_integral).  The forces are exact zeros at
    beta = 0, where they are odd in x, and the spontaneous terms at T1 = 0.
    """
    b, t1 = state.beta, state.temperature
    g = lorentz_gamma(b)
    # The shared integral is absorbed minus emitted, so I and F_x carry
    # negated prefactors; the spontaneous terms keep -n(w_b, T1) alone.
    prefs = (-_PREF * g, -_PREF * g, -_PREF * g, _PREF * g**3 * b)[
        :1 if b == 0.0 else 2 if t1 == 0.0 else 4]

    def weights(x, u):
        u2 = u * u
        xu2 = x * u2
        return (u2, xu2, xu2, u2 * u)[:len(prefs)]

    terms = _doppler_integral(weights, prefs, b, t1, bath.temperature, model, spec,
                              spontaneous=range(2, len(prefs)))
    odd = _zero("integrand odd in x at beta = 0")
    spont = _zero("odd/zero at beta = 0" if b == 0.0 else "no spontaneous term at T1 = 0")
    return (*terms, *(odd, spont, spont)[len(terms) - 1:])  # the terms left out are exact zeros


def force_rest_frame_alt(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Rest-frame friction force, direct form, by 2D quadrature.

    F'_x = (2/pi) Int dw w^4 Int dx x a''(w) n(gamma*w*(1+beta*x), T2):
    the polarizability is sampled at the rest-frame frequency w while
    the bath occupation carries the Doppler factor.  The thermal coth of
    this expression is used zero-point subtracted (coth - 1 = 2n); the
    discarded constant is even in x and integrates against x to zero,
    so the subtraction is exact; x comes from _rapidity_map.  The
    counterpart of force_rest_frame, the 1D integral over gamma*w*(1+beta*x).
    """
    b, t2 = state.beta, bath.temperature
    if b == 0.0:
        return _zero("integrand odd in x at beta = 0")
    g = lorentz_gamma(b)
    at = _rapidity_map(b)

    def kern(om, s):
        x, u, jac = at(s)
        return x * jac * om**4 * alpha_im(model, om) * bose_occupation(g * om * u, t2)

    # The occupation argument spans [w/D, D w], D = sqrt((1+b)/(1-b)): the
    # tail decays over D T2 and the lowest thermal scale is T2/D; w spans the support.
    blue = math.sqrt((1.0 + b) / (1.0 - b))
    q = integrate_omega_x(kern, t2 * blue, spec, support(model),
                          outer_seeds=_seed_ladder(t2 / blue, spec.u_max * t2 * blue, model))
    return Quantity(_PREF * q.value, _PREF * q.error, _diag(q, g, b))


@dataclass(frozen=True)
class SpontaneousTerms:
    """The two particle-temperature contributions that cancel in the drag.

    force_term and drift_term are the T1-dependent parts of the lab force
    and of gamma^2*beta*Qdot, by direct 2D quadrature; their equality
    removes every trace of T1 from the drag combination.  verify_all also
    checks force_term against -beta*P(T1) ("spontaneous-term-reduction").
    """

    force_term: Quantity
    drift_term: Quantity
    cancellation: IdentityCheck


def _cancellation(force_term: Quantity, drift_term: Quantity) -> IdentityCheck:
    return _check("spontaneous-term-cancellation", force_term, (1.0, drift_term))


def spontaneous_term_cancellation(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> SpontaneousTerms:
    """Evaluate both spontaneous-emission terms and their cancellation.

    Both terms are genuine 2D quadratures from _doppler_terms, not the
    1D reduction, which would make the comparison circular.
    """
    _, _, force_term, drift_term = _doppler_terms(state, bath, model, spec)
    return SpontaneousTerms(force_term, drift_term, _cancellation(force_term, drift_term))


def inner_closed_forms(
    beta: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    """Quadratures of Int x(1+bx)^-3 dx and Int (1+bx)^-2 dx over [-1, 1].

    Closed forms: -2*beta*gamma^4 and 2*gamma^2.  These are the inner
    integrals that collapse the spontaneous terms onto one 1D integral.
    """
    _check_beta(beta)
    qa = integrate_1d(lambda x: x * (1.0 + beta * x) ** -3.0, -1.0, 1.0, spec)
    qb = integrate_1d(lambda x: (1.0 + beta * x) ** -2.0, -1.0, 1.0, spec)
    return qa.value, qb.value


def verify_all(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ConsistencyReport:
    """Run the full identity suite at one parameter point.

    Each 1D production value meets a 2D Doppler quadrature in at least
    one check: energy balance (Qdot, F_x against the net I), the
    frame-force relation (F_x, Qdot against the direct rest force),
    spontaneous-term cancellation and its 1D reduction (P(T1)), the
    dual-form rest force (the drag against the direct rest force), the
    drag composition (drag, Qdot against the lab force), the intensity
    split (P(T1) - I2 against the net I), and the sign constraints on
    the drag and the direct rest force.
    """
    b, g = state.beta, lorentz_gamma(state.beta)
    g2b = g * g * b
    # Read through its module, where perfbench's tracer wraps it.
    bundle = observables.evaluate_bundle(state, bath, model, spec)
    f, q, drag = bundle.force_lab, bundle.heating_rate, bundle.force_rest_frame
    emitted, absorbed = bundle.intensity_emitted, bundle.intensity_absorbed
    net, f_2d, force_term, drift_term = _doppler_terms(state, bath, model, spec)
    fp = force_rest_frame_alt(state, bath, model, spec)

    checks = (
        _energy_balance(b, net, f, q),
        _check("frame-force-relation", fp, (1.0, f), (-g2b, q)),
        _cancellation(force_term, drift_term),
        _check("spontaneous-term-reduction", force_term, (-b, emitted)),
        _check("rest-force-dual-form", fp, (1.0, drag)),
        _check("drag-composition", drag, (1.0, f_2d), (-g2b, q)),
        _check("intensity-split", net, (1.0, emitted), (-1.0, absorbed)),
        _sign_check("drag-sign", drag),
        _sign_check("rest-force-sign", fp),
    )
    return ConsistencyReport(checks, all(c.passed for c in checks))
