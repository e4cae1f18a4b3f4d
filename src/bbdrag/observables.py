"""Radiative observables of a moving polarizable particle.

A point particle with proper temperature T1 moves with speed beta
through an isotropic photon bath of temperature T2.  All quantities are
internal units (hbar = c = k_B = 1); x is the arrival-direction cosine
of a lab photon and w_b = gamma*w*(1 + beta*x) its rest-frame
(Doppler) frequency.  With a'' the dissipative polarizability and
n(w, T) the Bose occupation, the observables are the lab-frame forms

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

Two routes evaluate these forms.  The production route of the two
rates the equations of motion need substitutes the rest-frame frequency
w' = gamma*w*(1+bx).  The angular integral of each bath term then has a
closed form in c = w'/(gamma*T2), and T1 enters only through the
rest-frame emission P(T1) = (4/pi) Int w^4 a''(w) n(w,T1) dw:

  heating_rate   Qdot = (2/(pi gamma^4)) Int dw' w'^4 a''(w') J0(c) - P(T1)/gamma^2
                 J0(c) = Int dx u^-2 n(c/u)
                       = ln[(1 - e^{-c/(1-b)}) / (1 - e^{-c/(1+b)})] / (b c)
  drag           -(2/(pi gamma^2)) Int dw' w'^4 a''(w') J1(c)
                 J1(c) = Int dx (x+b) u^-3 n(c/u),  u = 1 + bx,

J1 in closed form through ln(1 - e^{-y}) and Li2(e^{-y}) (_bath_kernel).
Each is one adaptive 1D integral over w' with no integrate_omega_x
call.  The verification route is the 2D lab-frame Doppler quadrature:
every a''(w_b) integral -- force_lab, intensity, the spontaneous terms
in consistency and the trajectory monitor -- is one _doppler_integral
call with its own weight and signed prefactor, and force_rest_frame
keeps its own 2D kernel.  So energy balance, the frame force, the drag
composition, the dual rest force and the trajectory monitor each
compare a 1D value with 2D quadratures.

Each route has one helper that returns the finished Quantity:
_doppler_integral for the 2D integrals and _integrate_thermal for the
1D ones (the bath terms, P(T1) and the low-speed friction
force_rest_frame_nr).  Each applies the prefactor and its sign, and
returns an exact +0.0 where the integral underflows.  It also adds the
truncation bound at the cutoff to the error and builds the diagnostics.

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
from .polarizability import PolarizabilityModel, alpha_im, breakpoints

_PREF = 2.0 / math.pi

DEFAULT_QUADRATURE = QuadratureSpec()

# Speeds below this take the angular integrals of the bath kernels by a
# fixed Gauss-Legendre rule in x, from it up in closed form.  Against
# mpmath at 80 digits over c in [1e-5, 60], the rule with _X_NODES
# nodes stays within 3.4e-15 relative up to beta = 0.5 (1.5e-13 at 0.6,
# 1.4e-5 at 0.9), and the closed forms within 3.2e-15 from 0.5 up
# (2e-14 at 0.3-0.4, where their differences cancel).
_CLOSED_FORM_BETA = 0.5
_X_NODES = 16

# Rounding bound of the 1D bath integrals, relative to the gross size of
# their terms: the kernels above (<= 3.4e-15 each) and the P(T1)
# subtraction in the heating rate.
_ROUNDING = 4.0e-15

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


def _doppler_integral(
    weight,
    pref: float,
    beta: float,
    t1: float,
    t2: float,
    model: PolarizabilityModel,
    spec: QuadratureSpec,
) -> Quantity:
    """pref * Int dw w^4 Int dx weight(x, 1+bx) a''(w_b) [n(w,T2) - n(w_b,T1)].

    The one lab-frame Doppler integral behind every observable that
    samples a''(w_b); callers differ only in the angular weight and the
    signed prefactor.  Passing t1 = 0 keeps the bath term alone and
    t2 = 0 the (negative) particle term alone, since n(., 0) is exactly
    0.  The cutoff is u_max * max(T2, D T1), D = sqrt((1+b)/(1-b)): the
    particle term n(w_b, T1) has its argument w_b >= w / D, so it decays
    over D T1 in w.  An exact zero comes back as +0.0 whatever the sign
    of pref.
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

    decay = max(t2, t1 * math.sqrt((1.0 + beta) / (1.0 - beta)))
    q = integrate_omega_x(kern, decay, spec, inner_edges_fn=edges_fn, outer_seeds=seeds)
    return Quantity(pref * q.value + 0.0, abs(pref) * q.error, _diag(q, g, beta))


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
    Panel edges are the model's breakpoints and the geometric ladder
    lowest * 2^k below the cutoff, so that an integral whose cutoff lies
    far above its thermal scale (gamma >> 1) still puts nodes on the
    thermal peak, with a panel count growing like log(cut/lowest).  The
    error includes the truncation bound kernels._tail_bound.  "neval"
    counts integrate_omega_x kernel evaluations, none on this route;
    "nodes" counts the 1D integrand's.
    """
    cut = spec.u_max * decay
    if cut < _OMEGA_DOMAIN_FLOOR:
        return _zero("no photons: the temperature is 0 or its domain underflows")
    seeds = list(breakpoints(model))
    # A lowest scale that underflows to 0 would never climb to the cutoff.
    lowest = max(lowest, _OMEGA_DOMAIN_FLOOR)
    while lowest < cut:
        seeds.append(lowest)
        lowest *= 2.0
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


def _drag_series(c: np.ndarray, beta: float, g2: float) -> np.ndarray:
    """Int_a^b (y0 - y) n(y) dy of _bath_kernel, as a series in c for b <= 1.

    From the Bernoulli series of n(y); the c^2 term vanishes identically.
    """
    p, q = 1.0 / (1.0 + beta), 1.0 / (1.0 - beta)
    coef = [g2 * math.log1p(2.0 * beta / (1.0 - beta)) - 2.0 * beta * g2]
    for m, b2m in enumerate(_BERNOULLI, 1):
        k = 2 * m
        coef.append(b2m / math.factorial(k)
                    * (g2 * (q**k - p**k) / k - (q ** (k + 1) - p ** (k + 1)) / (k + 1)))
    c2 = c * c
    acc = np.zeros_like(c)
    for f in reversed(coef):
        acc = acc * c2 + f
    return acc * c


def _bath_kernel(c: np.ndarray, beta: float, drag: bool) -> np.ndarray:
    """Angular integral of the bath occupation at c = w'/(gamma T2), u = 1 + beta x.

    Heating: Int u^-2 n(c/u) dx; drag: Int (x + beta) u^-3 n(c/u) dx,
    both over [-1, 1].  With y = c/u they become integrals over
    [a, b] = [c/(1+beta), c/(1-beta)]: (1/(beta c)) Int n dy and
    (1/(beta^2 gamma^2 c^2)) Int (y0 - y) n(y) dy with y0 = gamma^2 c,
    closed forms in ln(1 - e^-y) and Li2(e^-y).  Their differences lose
    about eps/beta^2, so below _CLOSED_FORM_BETA a Gauss-Legendre rule
    in x takes over, pairing x with -x so that the odd part is formed
    from differences that do not cancel.  Above it the drag's terms
    still cancel where c/(1-beta) <= 1; there _drag_series takes over.
    """
    if beta < _CLOSED_FORM_BETA:
        x, w = _gl_nodes(_X_NODES)
        x, w = x[_X_NODES // 2:], w[_X_NODES // 2:]
        c = c[..., None]
        up, um = 1.0 + beta * x, 1.0 - beta * x
        n_up, n_um = _occupation(c / up), _occupation(c / um)
        if not drag:
            return (n_up / up**2 + n_um / um**2) @ w
        # n(c/u+) - n(c/u-) through expm1(c/u+ - c/u-), and u+^-3 - u-^-3
        # through u-^3 - u+^3 = -2 beta x (u+^2 + u+ u- + u-^2).
        dn = np.expm1(-2.0 * beta * x * c / (up * um)) * n_up / np.expm1(-c / um)
        du = -2.0 * beta * x * (up * up + up * um + um * um) / (up * um) ** 3
        odd = dn / up**3 + n_um * du
        return (x * odd + beta * (n_up / up**3 + n_um / um**3)) @ w

    g2 = 1.0 / ((1.0 - beta) * (1.0 + beta))
    a = c / (1.0 + beta)
    if not drag:
        # ln[(1 - e^-b)/(1 - e^-a)] with b - a = 2 beta gamma^2 c
        return np.log1p(np.exp(-a) * np.expm1(-2.0 * beta * g2 * c) / np.expm1(-a)) / (beta * c)
    b = c / (1.0 - beta)
    out = np.empty_like(c)
    small = b <= 1.0
    out[small] = _drag_series(c[small], beta, g2)
    cl, a, b = c[~small], a[~small], b[~small]
    # Int (y0 - y) n dy = [(y0 - y) ln(1 - e^-y) + Li2(e^-y)] from a to b
    out[~small] = (-beta * g2 * cl * (_log1m_exp(a) + _log1m_exp(b))
                   + _li2_exp(b) - _li2_exp(a))
    return out / (beta * beta * g2 * c * c)


def _bath_integral(
    drag: bool, beta: float, t2: float, model: PolarizabilityModel, spec: QuadratureSpec
) -> Quantity:
    """The bath term of Qdot, or the drag, as one integral over the rest-frame w'.

    (2/(pi gamma^4)) Int w'^4 a''(w') J0 dw' for the heating and
    -(2/(pi gamma^2)) Int w'^4 a''(w') J1 dw' for the drag (module
    docstring), with J = _bath_kernel(w'/(gamma T2)).
    """
    g = lorentz_gamma(beta)
    scale = g * t2

    def integrand(om):
        return om**4 * alpha_im(model, om) * _bath_kernel(om / scale, beta, drag)

    # The least suppressed direction sees n(w'/(D T2)), D = sqrt((1+b)/(1-b)):
    # thermal scales run from T2/D to D T2, and the tail decays over D T2.
    blue = math.sqrt((1.0 + beta) / (1.0 - beta))
    pref = -_PREF / g**2 if drag else _PREF / (g**2 * g**2)
    return _integrate_thermal(integrand, pref, t2 / blue, t2 * blue, model, spec)


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
    return _doppler_integral(lambda x, u: x * u * u, -_PREF * lorentz_gamma(b), b, t1, t2,
                             model, spec)


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
    the tolerance of the net value; a rounding bound _ROUNDING * (A + P/gamma^2)
    joins the error.
    """
    b, t1, t2 = state.beta, state.temperature, bath.temperature
    g2 = lorentz_gamma(b) ** 2

    def split(s: QuadratureSpec) -> tuple[Quantity, Quantity]:
        """(A, P(T1)/gamma^2)."""
        p = _emitted_power(t1, model, s)
        return (_bath_integral(False, b, t2, model, s),
                Quantity(p.value / g2, p.error / g2, p.diagnostics))

    absorbed, emitted = split(spec)
    gross = absorbed.value + emitted.value
    need = max(spec.rel_tol * abs(absorbed.value - emitted.value), spec.abs_tol, _ROUNDING * gross)
    if absorbed.error + emitted.error > need:
        # The terms cancel: refine both to the tolerance of their difference.
        absorbed, emitted = split(replace(spec, rel_tol=need / gross))
        gross = absorbed.value + emitted.value
    diag = dict(absorbed.diagnostics)
    diag["nodes"] += emitted.diagnostics["nodes"]
    return Quantity(
        absorbed.value - emitted.value, absorbed.error + emitted.error + _ROUNDING * gross, diag
    )


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
    pref = _PREF * lorentz_gamma(b)

    if t1 == 0.0:
        emitted = _zero("no spontaneous emission at T1 = 0")
    else:
        # The particle term alone is -n(w_b, T1): hence -pref.
        emitted = _doppler_integral(lambda x, u: u * u, -pref, b, t1, 0.0, model, spec)

    if t2 == 0.0:
        absorbed = _zero("no bath photons at T2 = 0")
    else:
        absorbed = _doppler_integral(lambda x, u: u * u, pref, b, 0.0, t2, model, spec)

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
    construction.  One 1D integral over the rest-frame frequency
    (module docstring).  Strictly negative for beta > 0, T2 > 0 and a
    nonzero passive model; equals the rest-frame force.
    """
    if state.beta == 0.0:
        return _zero("integrand odd in x at beta = 0")
    q = _bath_integral(True, state.beta, bath.temperature, model, spec)
    return replace(q, error=q.error + _ROUNDING * abs(q.value))


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

    # The occupation argument is red-shifted down to w/D, D = sqrt((1+b)/(1-b)),
    # at x = -1, so the tail decays over D T2.
    decay = t2 * math.sqrt((1.0 + b) / (1.0 - b))
    q = integrate_omega_x(kern, decay, spec, outer_seeds=breakpoints(model))
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
    drag_combination itself: the 1D integral over w' with the closed-form
    angular kernel J1.  Its agreement with the 2D force_rest_frame
    cross-validates two genuinely different evaluations.
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
