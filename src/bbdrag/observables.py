"""Radiative observables of a moving polarizable particle.

A point particle with proper temperature T1 moves with speed beta
through an isotropic photon bath of temperature T2.  All quantities are
internal units (hbar = c = k_B = 1); x is the arrival-direction cosine
of a lab photon and w_b = gamma*w*(1 + beta*x) its rest-frame
(Doppler) frequency.  With a'' the dissipative polarizability and
n(w, T) the Bose occupation, the observables are defined by the lab-frame forms

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

Every observable is evaluated by substituting the rest-frame frequency
w' = gamma*w*(1+bx).  The angular integral of each bath term then has a
closed form in c = w'/(gamma*T2), and T1 enters only through the
rest-frame emission P(T1) = (4/pi) Int w^4 a''(w) n(w,T1) dw.  With
u = 1 + bx and W[J] = Int dw' w'^4 a''(w') J(c):

  heating_rate   Qdot = (2/(pi gamma^4)) W[J0] - P(T1)/gamma^2
  force_lab      F_x  = -(2/(pi gamma^4)) W[K] - beta P(T1)
  intensity      I1   = P(T1),  I2 = (2/(pi gamma^4)) W[M1]
  drag           -(2/(pi gamma^2)) W[J1] = force_rest_frame

  J0(c) = Int dx u^-2 n(c/u) = ln[(1 - e^{-c/(1-b)}) / (1 - e^{-c/(1+b)})] / (b c)
  M1(c) = Int dx u^-3 n(c/u),   K(c) = Int dx x u^-3 n(c/u),
  J1(c) = Int dx (x+b) u^-3 n(c/u) = K + b M1,

K and J1 in closed form through ln(1 - e^{-y}) and Li2(e^{-y}), and
M1 = J0 - b K (_bath_kernel).  Each bath term is one adaptive 1D
integral over w' with no integrate_omega_x call.  The 2D lab-frame
Doppler quadrature (_doppler_integral, inner variable from
_rapidity_map) is the verification route only: verify_all takes the
net intensity, the lab force and both spontaneous terms from one vector
pass of it, and the trajectory monitor the net intensity alone.

Each route has one helper that returns the finished Quantity:
_doppler_integral (2D) and _integrate_thermal (1D: the bath terms,
P(T1) and the low-speed friction force_rest_frame_nr).  Each applies
the signed prefactor, returns an exact +0.0 where the integral
underflows, adds the truncation bound at the cutoff to the error,
builds the diagnostics and seeds its panels with _seed_ladder.
evaluate_bundle evaluates P(T1) and I2 once and composes every member
from them (_force_lab, _heating_rate, _intensity), bitwise equal to the
standalone observables.

Every observable returns a Quantity carrying the value, a conservative
error estimate, and quadrature diagnostics, including the largest
Doppler argument the model can be sampled at ("omega_beta_max").
"neval" counts integrate_omega_x kernel evaluations (0 on the 1D
route, which reports its node count as "nodes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import (
    BETA_MAX,
    QuadResult,
    QuadratureSpec,
    _OMEGA_DOMAIN_FLOOR,
    _gl_nodes,
    _occupation,
    _tail_bound,
    bose_occupation,
    integrate_1d,
    integrate_omega_x,
    lorentz_gamma,
)
from .polarizability import PolarizabilityModel, alpha_im, breakpoints, feature_frequency

_PREF = 2.0 / math.pi

DEFAULT_QUADRATURE = QuadratureSpec()

# Speeds below this take the angular integrals of the bath kernels by a
# fixed Gauss-Legendre rule in x, from it up in closed form.  Against
# mpmath over c in [1e-5, 60], the rule with _X_NODES nodes stays within
# 7.6e-15 relative for J0 and 7.0e-15 for J1 up to beta = 0.5 (1.5e-13
# at 0.6, 1.4e-5 at 0.9); those peak at the largest c, where the
# exponential amplifies the rounding of c/u.  The closed forms stay
# within 3.7e-15 for J0 and 1.5e-14 for J1 from 0.5 up; J1 peaks near
# c = 1 just above 0.5, where its terms cancel (further down they
# cancel more: 2e-14 at 0.3-0.4).
_CLOSED_FORM_BETA = 0.5
_X_NODES = 16

# Rounding bounds of the kernels J0 (Qdot) and J1 (the drag), twice the
# largest errors above (tests/test_bath_integrals.py), relative to the
# gross size of the terms of Qdot (covering the P(T1) subtraction too)
# and to the drag.
_HEAT_ROUNDING = 1.6e-14
_DRAG_ROUNDING = 3.0e-14
# Rounding bound of the emission P(T1), and the floor of the heating
# rate's refinement target relative to the gross size of its terms.
_ROUNDING = 4.0e-15
# Rounding bounds of the kernels M1 (I2) and K (F_x), twice the largest
# error against 60-digit mpmath over c in [1e-5, 60] and beta from 1e-8
# to BETA_MAX (tests/test_bath_integrals.py): 5.6e-15 of M1, and 4e-14
# of beta * M1 for K, which changes sign in c.  Both peak at the largest
# c, where the rounding of c/u is amplified by the exponential.
_ABSORB_ROUNDING = 1.2e-14
_FORCE_ROUNDING = 8.0e-14

# Bernoulli numbers B_2, B_4, ..., B_22 of n(y) = 1/y - 1/2 + sum
# B_2m y^(2m-1)/(2m)!, which converges for y < 2 pi; used for y <= 1.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138)
# Li2(t) = sum t^k / k^2 to this order for t <= 1/4: the tail is < 1e-20 t.
_LI2_TERMS = 30


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
    return Quantity(0.0, 0.0, {"short_circuit": reason, "neval": 0, "nodes": 0, "panels": 0})


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


def _seed_ladder(lowest: float, stop: float, model: PolarizabilityModel) -> list[float]:
    """Panel edges start * 2^k below stop, start = min(lowest, feature frequency).

    A cutoff far above the thermal scale (gamma >> 1) or a smooth spectrum
    still gets nodes there.  A start below _OMEGA_DOMAIN_FLOOR is raised to it.
    """
    start = max(min(lowest, feature_frequency(model) or lowest), _OMEGA_DOMAIN_FLOOR)
    seeds = []
    while start < stop:
        seeds.append(start)
        start *= 2.0
    return seeds


def _jump_edges(model: PolarizabilityModel, beta: float):
    """Inner-edge function at the jumps of a''(w_b): s*(w) = ln(w_e/w)/eta.

    None without jumps, and at beta = 0, where w_b = w: the jumps are then
    outer seeds only.
    """
    breaks = breakpoints(model)
    if not breaks or beta == 0.0:
        return None
    eta = math.atanh(beta)

    def edges_fn(omega):
        # omega -> 0 sends the raw edge to inf before the clip catches it
        with np.errstate(over="ignore", divide="ignore"):
            cols = [np.clip(np.log(w_e / omega) / eta, -1.0, 1.0) for w_e in breaks]
        edges = np.stack([np.full(omega.shape, -1.0), *cols, np.full(omega.shape, 1.0)], axis=-1)
        edges.sort(axis=-1)
        return edges

    return edges_fn


def _doppler_integral(weight, pref, beta: float, t1: float, t2: float,
                      model: PolarizabilityModel, spec: QuadratureSpec, spontaneous=()):
    """pref * Int dw w^4 Int dx weight(x, 1+bx) a''(w_b) [n(w,T2) - n(w_b,T1)].

    The one lab-frame Doppler integral behind every observable that
    samples a''(w_b), x from _rapidity_map; callers differ only in the
    angular weight and the signed prefactor.  Passing t1 = 0 keeps the
    bath term alone and t2 = 0 the (negative) particle term alone, since
    n(., 0) is exactly 0.  With a tuple of k prefactors, weight returns k
    weights and k Quantities come back from one vector pass that
    evaluates a'' and each occupation once per node; the terms indexed
    in `spontaneous` keep -n(w_b,T1) alone.  The cutoff is
    u_max * max(T2, D T1), D = sqrt((1+b)/(1-b)), since n(w_b, T1)
    decays over D T1 in w.  A jump of a'' at w_e puts outer kinks at
    w_e/(gamma*(1 +/- beta)) and w_e/gamma, and a'' is 0 above the last.
    The seed ladder starts at the lowest scale min(T2, T1/D) of the
    terms that do not underflow and ends at the cutoff or that kink.  An
    exact zero comes back as +0.0.
    """
    g = lorentz_gamma(beta)
    at = _rapidity_map(beta)
    vector = isinstance(pref, tuple)
    prefs = pref if vector else (pref,)

    def kern(om, s):
        # Full-size arrays are dropped once used: k terms keep k rows alive.
        x, u, jac = at(s)
        weights = weight(x, u) if vector else (weight(x, u),)
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
        return out if vector else out[0]

    blue = math.sqrt((1.0 + beta) / (1.0 - beta))
    decay = max(t2, t1 * blue)
    lowest = min((t for t, d in ((t2, t2), (t1 / blue, t1 * blue))
                  if spec.u_max * d >= _OMEGA_DOMAIN_FLOOR), default=math.inf)
    kinks = [w_e / (g * f) for w_e in breakpoints(model) for f in (1.0 + beta, 1.0, 1.0 - beta)]
    stop = min(spec.u_max * decay, max(kinks, default=math.inf))
    q = integrate_omega_x(kern, decay, spec, inner_edges_fn=_jump_edges(model, beta),
                          outer_seeds=(*kinks, *_seed_ladder(lowest, stop, model)))
    value, error = np.broadcast_to(q.value, len(prefs)), np.broadcast_to(q.error, len(prefs))
    terms = tuple(Quantity(p * float(v) + 0.0, abs(p) * float(e), _diag(q, g, beta))
                  for p, v, e in zip(prefs, value, error))
    return terms if vector else terms[0]


def _integrate_thermal(
    integrand,
    pref: float,
    lowest: float,
    decay: float,
    model: PolarizabilityModel,
    spec: QuadratureSpec,
) -> Quantity:
    """pref * Int_0^cut integrand(w) dw, cut = u_max * decay, as a Quantity.

    `decay` is the length over which the integrand's Wien tail decays and
    `lowest` its lowest thermal scale.  An exact 0 when the cutoff lies
    below _OMEGA_DOMAIN_FLOOR (a zero or underflowing temperature).
    Panel edges are the model's breakpoints and the _seed_ladder from
    `lowest` up to the cutoff.  The error includes the truncation bound
    kernels._tail_bound.  "neval" counts integrate_omega_x kernel
    evaluations, none on this route; "nodes" counts the 1D integrand's.
    """
    cut = spec.u_max * decay
    if cut < _OMEGA_DOMAIN_FLOOR:
        return _zero("no photons: the temperature is 0 or its domain underflows")
    seeds = [*breakpoints(model), *_seed_ladder(lowest, cut, model)]
    q = integrate_1d(integrand, 0.0, cut, spec, seeds=seeds)
    error = q.error + _tail_bound(integrand, cut, spec)
    return Quantity(pref * q.value + 0.0, abs(pref) * error,
                    {"neval": 0, "nodes": q.neval, "panels": q.panels,
                     "omega_max": cut, "omega_beta_max": cut})


def _emitted_power(t1: float, model: PolarizabilityModel, spec: QuadratureSpec) -> Quantity:
    """P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw, the rest-frame emitted power.

    In exact arithmetic T1 enters the observables only through P: the
    emitted intensity I1 is P(T1) at any beta and Qdot(T1) = Qdot(0) - P(T1)/gamma^2.
    """

    def integrand(om):
        return om**4 * alpha_im(model, om) * bose_occupation(om, t1)

    return _integrate_thermal(integrand, 4.0 / math.pi, t1, t1, model, spec)


def _log1m_exp(y: np.ndarray) -> np.ndarray:
    """ln(1 - e^-y) for y > 0, without cancellation at either end."""
    out = np.log(-np.expm1(-y))
    big = y > math.log(2.0)
    out[big] = np.log1p(-np.exp(-y[big]))
    return out


def _li2_exp(y: np.ndarray) -> np.ndarray:
    """Li2(e^-y) for y > 0: its power series for e^-y <= 1/4, else scipy's spence.

    spence(z) = Li2(1 - z); for small e^-y the rounding of 1 - e^-y
    would cost the relative accuracy that the series keeps.
    """
    from scipy.special import spence

    out = np.empty_like(y)
    big = y > math.log(4.0)
    t = np.exp(-y[big])
    acc = np.zeros_like(t)
    for k in range(_LI2_TERMS, 0, -1):
        acc = t * (1.0 / (k * k) + acc)
    out[big] = acc
    out[~big] = spence(-np.expm1(-y[~big]))
    return out


def _odd_series(c: np.ndarray, beta: float, g2: float, s: float) -> np.ndarray:
    """Int_a^b (s c - y) n(y) dy of _bath_kernel, as a series in c for b <= 1.

    From the Bernoulli series of n(y).  Its c^2 term beta g2 (g2 - s) c^2
    comes from the -1/2 of n and vanishes for the drag (s = gamma^2).
    """
    p, q = 1.0 / (1.0 + beta), 1.0 / (1.0 - beta)
    coef = [s * math.log1p(2.0 * beta / (1.0 - beta)) - 2.0 * beta * g2]
    for m, b2m in enumerate(_BERNOULLI, 1):
        k = 2 * m
        coef.append(b2m / math.factorial(k)
                    * (s * (q**k - p**k) / k - (q ** (k + 1) - p ** (k + 1)) / (k + 1)))
    c2 = c * c
    acc = np.zeros_like(c)
    for f in reversed(coef):
        acc = acc * c2 + f
    return acc * c + beta * g2 * (g2 - s) * c2


def _bath_kernel(c: np.ndarray, beta: float, kind: str) -> np.ndarray:
    """Angular integral of the bath occupation at c = w'/(gamma T2), u = 1 + beta x.

    Over x in [-1, 1], by `kind`:

      "heat"    J0 = Int u^-2 n(c/u) dx            (Qdot)
      "absorb"  M1 = Int u^-3 n(c/u) dx            (I2)
      "force"   K  = Int x u^-3 n(c/u) dx          (F_x)
      "drag"    J1 = Int (x + beta) u^-3 n(c/u) dx = K + beta M1

    With y = c/u they become integrals over [a, b] = [c/(1+beta),
    c/(1-beta)]: J0 = (1/(beta c)) Int n dy, and K (s = 1) and J1
    (s = gamma^2) are (1/(beta^2 s c^2)) Int (s c - y) n(y) dy, closed
    forms in ln(1 - e^-y) and Li2(e^-y).  M1 = J0 - beta K exactly; since
    M1 >= J0/2 the difference loses at most a factor 2.  The closed forms
    lose about eps/beta^2, so below _CLOSED_FORM_BETA a Gauss-Legendre
    rule in x takes over, pairing x with -x so that the odd part is
    formed from differences that do not cancel.  Above it K and J1 still
    cancel where c/(1-beta) <= 1; there _odd_series takes over.
    """
    if beta < _CLOSED_FORM_BETA:
        x, w = _gl_nodes(_X_NODES)
        x, w = x[_X_NODES // 2:], w[_X_NODES // 2:]
        c = c[..., None]
        up, um = 1.0 + beta * x, 1.0 - beta * x
        n_up, n_um = _occupation(c / up), _occupation(c / um)
        if kind == "heat":
            return (n_up / up**2 + n_um / um**2) @ w
        even = n_up / up**3 + n_um / um**3
        if kind == "absorb":
            return even @ w
        # n(c/u+) - n(c/u-) through expm1(c/u+ - c/u-), and u+^-3 - u-^-3
        # through u-^3 - u+^3 = -2 beta x (u+^2 + u+ u- + u-^2).
        dn = np.expm1(-2.0 * beta * x * c / (up * um)) * n_up / np.expm1(-c / um)
        du = -2.0 * beta * x * (up * up + up * um + um * um) / (up * um) ** 3
        odd = x * (dn / up**3 + n_um * du)
        return (odd if kind == "force" else odd + beta * even) @ w

    g2 = 1.0 / ((1.0 - beta) * (1.0 + beta))
    a = c / (1.0 + beta)
    if kind == "heat":
        # ln[(1 - e^-b)/(1 - e^-a)] with b - a = 2 beta gamma^2 c
        return np.log1p(np.exp(-a) * np.expm1(-2.0 * beta * g2 * c) / np.expm1(-a)) / (beta * c)
    if kind == "absorb":
        return _bath_kernel(c, beta, "heat") - beta * _bath_kernel(c, beta, "force")
    s = g2 if kind == "drag" else 1.0
    b = c / (1.0 - beta)
    out = np.empty_like(c)
    small = b <= 1.0
    out[small] = _odd_series(c[small], beta, g2, s)
    cl, a, b = c[~small], a[~small], b[~small]
    # Int (s c - y) n dy = [(s c - y) ln(1 - e^-y) + Li2(e^-y)] from a to b,
    # where s c - b = -beta b and s c - a = beta a for K, and both are
    # -/+ beta gamma^2 c for J1.
    if kind == "drag":
        lin = -beta * g2 * cl * (_log1m_exp(a) + _log1m_exp(b))
    else:
        lin = -beta * (a * _log1m_exp(a) + b * _log1m_exp(b))
    out[~small] = lin + _li2_exp(b) - _li2_exp(a)
    return out / (beta * beta * s * c * c)


def _bath_integral(
    kind: str, beta: float, t2: float, model: PolarizabilityModel, spec: QuadratureSpec
) -> Quantity:
    """One bath term as an integral over the rest-frame w' (module docstring).

    pref * Int w'^4 a''(w') J dw' with J = _bath_kernel(w'/(gamma T2), kind):
    pref = 2/(pi gamma^4) for the heating ("heat") and I2 ("absorb"),
    -2/(pi gamma^4) for the bath term of F_x ("force") and -2/(pi gamma^2)
    for the drag.
    """
    g = lorentz_gamma(beta)
    scale = g * t2

    def integrand(om):
        return om**4 * alpha_im(model, om) * _bath_kernel(om / scale, beta, kind)

    # The least suppressed direction sees n(w'/(D T2)), D = sqrt((1+b)/(1-b)):
    # thermal scales run from T2/D to D T2, and the tail decays over D T2.
    blue = math.sqrt((1.0 + beta) / (1.0 - beta))
    pref = -_PREF / g**2 if kind == "drag" else _PREF / (g**2 * g**2)
    if kind == "force":
        pref = -pref
    return _integrate_thermal(integrand, pref, t2 / blue, t2 * blue, model, spec)


def _force_lab(b: float, t2: float, model: PolarizabilityModel, spec: QuadratureSpec,
               power: Quantity, absorbed: Quantity) -> Quantity:
    """F_x = bath K term - beta P(T1) from the bare P(T1) and I2 (force_lab)."""
    bath_term = _bath_integral("force", b, t2, model, spec)
    diag = dict(bath_term.diagnostics)
    diag["nodes"] += absorbed.diagnostics["nodes"] + power.diagnostics["nodes"]
    rounding = b * (_FORCE_ROUNDING * absorbed.value + _ROUNDING * power.value)
    return Quantity(bath_term.value - b * power.value,
                    bath_term.error + b * power.error + rounding, diag)


def force_lab(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Velocity-projected radiative force on the particle, lab frame.

    Negative values oppose the motion (+x direction).  Exactly zero at
    beta = 0, where the integrand is odd in x.  Evaluated as the bath
    term, one 1D integral of the odd kernel K over the rest-frame
    frequency, minus beta P(T1) (module docstring).  K changes sign in
    c, so its rounding is bounded against beta M1 instead of |K|:
    _FORCE_ROUNDING * beta * I2 joins the error, with _ROUNDING * beta P
    for the emitted term.
    """
    b, t2 = state.beta, bath.temperature
    if b == 0.0:
        return _zero("integrand odd in x at beta = 0")
    return _force_lab(b, t2, model, spec, _emitted_power(state.temperature, model, spec),
                      _bath_integral("absorb", b, t2, model, spec))


def _heating_rate(b: float, t1: float, t2: float, model: PolarizabilityModel,
                  spec: QuadratureSpec, power: Quantity) -> Quantity:
    """Qdot = A - P(T1)/gamma^2 from the bare P(T1) at `spec` (heating_rate)."""
    g2 = lorentz_gamma(b) ** 2
    absorbed = _bath_integral("heat", b, t2, model, spec)
    gross = absorbed.value + power.value / g2
    need = max(spec.rel_tol * abs(absorbed.value - power.value / g2), spec.abs_tol,
               _ROUNDING * gross)
    if absorbed.error + power.error / g2 > need:
        # The terms cancel: refine both to the tolerance of their difference.
        spec = replace(spec, rel_tol=need / gross)
        absorbed = _bath_integral("heat", b, t2, model, spec)
        power = _emitted_power(t1, model, spec)
        gross = absorbed.value + power.value / g2
    diag = dict(absorbed.diagnostics)
    diag["nodes"] += power.diagnostics["nodes"]
    return Quantity(absorbed.value - power.value / g2,
                    absorbed.error + power.error / g2 + _HEAT_ROUNDING * gross, diag)


def heating_rate(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Net power absorbed by the particle's internal degrees of freedom (lab frame).

    Positive when the bath heats the particle; zero at full equilibrium
    (beta = 0, T1 = T2).  Evaluated on the exact split Qdot = A - P(T1)/gamma^2
    as two 1D integrals over the rest-frame frequency (module docstring).
    Where the two terms cancel, both are refined until their errors meet
    the tolerance of the net value; a rounding bound _HEAT_ROUNDING * (A +
    P/gamma^2) joins the error.
    """
    t1 = state.temperature
    return _heating_rate(state.beta, t1, bath.temperature, model, spec,
                         _emitted_power(t1, model, spec))


def _intensity(power: Quantity, absorbed: Quantity) -> tuple[Quantity, Quantity, Quantity]:
    """(I, I1, I2) from the bare P(T1) and I2, with their rounding bounds (intensity)."""
    emitted = replace(power, error=power.error + _ROUNDING * power.value)
    absorbed = replace(absorbed, error=absorbed.error + _ABSORB_ROUNDING * absorbed.value)
    net = Quantity(emitted.value - absorbed.value, emitted.error + absorbed.error,
                   {"emitted": emitted.diagnostics, "absorbed": absorbed.diagnostics})
    return net, emitted, absorbed


def intensity(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[Quantity, Quantity, Quantity]:
    """Net, emitted, and absorbed radiated power: (I, I1, I2) with I = I1 - I2.

    I1 is the particle-temperature (spontaneous) term, which equals the
    rest-frame emission P(T1) at any beta; I2 is the bath term, one 1D
    integral of the kernel M1 over the rest-frame frequency (module
    docstring).  The rounding bounds _ROUNDING * I1 and _ABSORB_ROUNDING
    * I2 of their kernels join the errors.  Positive I means the particle
    loses energy to radiation.
    """
    return _intensity(_emitted_power(state.temperature, model, spec),
                      _bath_integral("absorb", state.beta, bath.temperature, model, spec))


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
    construction.  One 1D integral over the rest-frame frequency
    (module docstring).  Strictly negative for beta > 0, T2 > 0 and a
    nonzero passive model; equals the rest-frame force.
    """
    if state.beta == 0.0:
        return _zero("integrand odd in x at beta = 0")
    q = _bath_integral("drag", state.beta, bath.temperature, model, spec)
    return replace(q, error=q.error + _DRAG_ROUNDING * abs(q.value))


def force_rest_frame(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Quantity:
    """Friction force in the particle's instantaneous rest frame.

    The direct form samples the polarizability at the rest-frame
    frequency w and the bath occupation at n(gamma*w*(1+beta*x), T2);
    the change of variables w' = gamma*w*(1+beta*x) maps it onto the
    bath-only drag combination, so this is drag_combination: one 1D
    integral over w'.  T1 never enters.  F'_x <= 0, with equality only
    for beta = 0, T2 = 0, or a null model.  The direct form itself is
    consistency.force_rest_frame_alt, the verification route.
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
        # 1/sinh^2(w/(2 T2)) = 4 n (n + 1)
        n = bose_occupation(om, t2)
        return om**5 * alpha_im(model, om) * 4.0 * n * (n + 1.0)

    return _integrate_thermal(integrand, -beta / (3.0 * math.pi * t2), t2, t2, model, spec)


def evaluate_bundle(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ObservableBundle:
    """Evaluate every observable at one parameter point.

    P(T1) and the absorbed term I2 are evaluated once and shared by the
    members that compose them; each member is bitwise the standalone
    observable's value and error.
    """
    b, t1, t2 = state.beta, state.temperature, bath.temperature
    power = _emitted_power(t1, model, spec)
    absorbed = _bath_integral("absorb", b, t2, model, spec)
    force = (force_lab(state, bath, model, spec) if b == 0.0
             else _force_lab(b, t2, model, spec, power, absorbed))
    # Fields in order: force_lab, heating_rate, (I, I1, I2), force_rest_frame.
    return ObservableBundle(force, _heating_rate(b, t1, t2, model, spec, power),
                            *_intensity(power, absorbed), force_rest_frame(state, bath, model, spec))
