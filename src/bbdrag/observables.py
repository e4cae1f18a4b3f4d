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
M1 = J0 - b K.  The four share their occupations (in closed form, the
logarithms and Li2), so _bath_kernel stacks them and one vector
integral over w' (_bath_terms) gives every bath term: with P(T1), two
1D integrals per point.  The 2D lab-frame forms above are the
verification route, in consistency.  Li2 is summed by its series in
e^{-y} above y = ln 4 and its Bernoulli series in y below (Lewin 1981),
without scipy.

Both 1D integrals keep their last result (_bath_terms and
_emitted_power): evolve's right-hand side asks for drag_combination,
force_lab and then heating_rate at one state, and the three share one
pass and one P(T1); verify_all right after evaluate_bundle at the same
point makes no 1D integral.  A refinement in heating_rate replaces
both memos, so a call after it at the caller's spec evaluates them
again.  Memoized Quantities are shared objects, as is the
diagnostics dict of one pass; no code mutates a returned diagnostics
dict.  evaluate_bundle composes every member from P(T1) and one pass
(_force_lab, _heating_rate, _intensity, _drag), bitwise equal to the
standalone observables, memo or not.  _integrate_thermal finishes every
Quantity of this route (the bath terms, P(T1), force_rest_frame_nr):
signed prefactors, an exact +0.0 where the integral underflows, the
truncation bound, the diagnostics and the _seed_ladder panels.

Every observable returns a Quantity carrying the value, a conservative
error estimate, and quadrature diagnostics, including the largest
Doppler argument the model can be sampled at ("omega_beta_max").
"neval" counts integrate_omega_x kernel evaluations, 0 on this route,
which reports its node count as "nodes".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .kernels import (BETA_MAX, QuadratureSpec, _OMEGA_DOMAIN_FLOOR, _gl_nodes, _occupation,
                      bose_occupation, integrate_1d, lorentz_gamma)
from .kernels import integrate_omega_x  # noqa: F401 -- perfbench's tracer patches it by name
from .polarizability import PolarizabilityModel, alpha_im, feature_frequency, support

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
# B_2m y^(2m-1)/(2m)!, which converges for y < 2 pi (used for y <= 1), and
# the coefficients B_2m/(2m)! of that series.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138)
_N_SERIES = np.array([b2m / math.factorial(2 * m) for m, b2m in enumerate(_BERNOULLI, 1)])
# The coefficients of Li2(e^-y) = sum t^k / k^2 in t = e^-y, to this order
# for t <= 1/4 (the tail is < 1e-20 t), and for y <= ln 4 of pi^2/6 - y +
# y ln y - y^2/4 + sum B_2m y^(2m+1)/(2m (2m+1)!), convergent for y < 2 pi
# (Lewin, Polylogarithms and Associated Functions, 1981).
_LI2_TERMS = 30
_LI2_POWER = 1.0 / np.arange(1, _LI2_TERMS + 1) ** 2
_LI2_BERNOULLI = np.array([b2m / (2 * m * math.factorial(2 * m + 1))
                           for m, b2m in enumerate(_BERNOULLI, 1)])


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


def _integrate_thermal(integrand, prefs: tuple, lowest: float, decay: float,
                       model: PolarizabilityModel, spec: QuadratureSpec) -> tuple[Quantity, ...]:
    """prefs[k] * Int_0^cut integrand(w)[k] dw, cut = u_max * decay, as Quantities.

    `decay` is the length over which the integrand's Wien tail decays and
    `lowest` its lowest thermal scale; the integrand stacks one component
    per prefactor in front (integrate_1d), none for a 1-tuple.  It runs
    over [lo, min(hi, cut)] of the support (lo, hi), where a'' can be
    nonzero.  Exact 0s when the cutoff lies below _OMEGA_DOMAIN_FLOOR (a
    zero or underflowing temperature) or at or below lo.  Panel edges are
    the _seed_ladder from `lowest` up to the cutoff.  The errors include
    the truncation bound where the support reaches the cutoff (elsewhere
    the tail is exactly 0 and unsampled).  "neval" counts integrate_omega_x
    kernel evaluations, none here; "nodes" the 1D integrand's but the cutoff.
    """
    cut = spec.u_max * decay
    lo, hi = support(model)
    if cut < _OMEGA_DOMAIN_FLOOR:
        return (_zero("no photons: the temperature is 0 or its domain underflows"),) * len(prefs)
    if lo >= cut:
        return (_zero("the support lies above the cutoff: a'' is 0 below it"),) * len(prefs)
    q = integrate_1d(integrand, lo, min(hi, cut), spec, seeds=_seed_ladder(lowest, cut, model),
                     decay=decay if hi >= cut else None)
    diag = {"neval": 0, "nodes": q.neval, "panels": q.panels,
            "omega_max": cut, "omega_beta_max": cut}
    return tuple(Quantity(p * float(v) + 0.0, abs(p) * float(e), diag)
                 for p, v, e in zip(prefs, np.atleast_1d(q.value), np.atleast_1d(q.error)))


@lru_cache(maxsize=1)
def _emitted_power(t1: float, model: PolarizabilityModel, spec: QuadratureSpec) -> Quantity:
    """P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw, the rest-frame emitted power.

    In exact arithmetic T1 enters the observables only through P: the
    emitted intensity I1 is P(T1) at any beta and Qdot(T1) = Qdot(0) - P(T1)/gamma^2.
    """

    def integrand(om):
        return om**4 * alpha_im(model, om) * bose_occupation(om, t1)

    (power,) = _integrate_thermal(integrand, (4.0 / math.pi,), t1, t1, model, spec)
    return power


def _log1m_exp(y: np.ndarray) -> np.ndarray:
    """ln(1 - e^-y) for y > 0, without cancellation at either end."""
    out = np.log(-np.expm1(-y))
    big = y > math.log(2.0)
    out[big] = np.log1p(-np.exp(-y[big]))
    return out


def _powers(t: np.ndarray, n: int) -> np.ndarray:
    """t, t^2, ..., t^n stacked in front of t's shape, by repeated doubling."""
    out = np.empty((n, *t.shape))
    out[0], k = t, 1
    while k < n:  # t^(k+1) ... t^2k = (t ... t^k) * t^k
        out[k:2 * k] = out[:min(k, n - k)] * out[k - 1]
        k *= 2
    return out


def _li2_exp(y: np.ndarray) -> np.ndarray:
    """Li2(e^-y) for y > 0: its series in e^-y for y > ln 4, else its series in y.

    Each is its coefficients @ one _powers table.  Neither forms 1 - e^-y,
    so both keep their relative accuracy (tests/test_bath_integrals.py).
    """
    out = np.empty_like(y)
    big = y > math.log(4.0)
    out[big] = _LI2_POWER @ _powers(np.exp(-y[big]), _LI2_TERMS)
    s = y[~big]
    s2 = s * s
    series = s * (_LI2_BERNOULLI @ _powers(s2, len(_BERNOULLI)))
    out[~big] = (math.pi**2 / 6.0 - s) + (s * np.log(s) - 0.25 * s2 + series)
    return out


def _odd_series(c: np.ndarray, beta: float, g2: float) -> np.ndarray:
    """Int_a^b (s c - y) n(y) dy of _bath_kernel for s = 1 and gamma^2, in c for b <= 1.

    From the Bernoulli series of n(y), shape (2, *c.shape).  Its c^2
    term beta g2 (g2 - s) c^2 comes from the -1/2 of n and vanishes for
    the drag (s = gamma^2).
    """
    p, q = 1.0 / (1.0 + beta), 1.0 / (1.0 - beta)
    s, k = np.array([[1.0], [g2]]), np.arange(2.0, 2.0 * len(_BERNOULLI) + 1.0, 2.0)
    coef = _N_SERIES * (s * (q**k - p**k) / k - (q ** (k + 1) - p ** (k + 1)) / (k + 1))
    c2 = c * c
    acc = coef @ _powers(c2, len(_BERNOULLI)) + (s * math.log1p(2.0 * beta / (1.0 - beta))
                                                 - 2.0 * beta * g2)
    return acc * c + beta * g2 * (g2 - s) * c2


def _bath_kernel(c: np.ndarray, beta: float) -> np.ndarray:
    """Angular integrals of the bath occupation at c = w'/(gamma T2), u = 1 + beta x.

    Over x in [-1, 1], stacked in this order, shape (4, *c.shape):

      J0 = Int u^-2 n(c/u) dx            (Qdot)
      M1 = Int u^-3 n(c/u) dx            (I2)
      K  = Int x u^-3 n(c/u) dx          (F_x)
      J1 = Int (x + beta) u^-3 n(c/u) dx = K + beta M1   (the drag)

    With y = c/u they become integrals over [a, b] = [c/(1+beta),
    c/(1-beta)]: J0 = (1/(beta c)) Int n dy, and K (s = 1) and J1
    (s = gamma^2) are (1/(beta^2 s c^2)) Int (s c - y) n(y) dy, closed
    forms in ln(1 - e^-y) and Li2(e^-y), which the four share.  M1 = J0 -
    beta K exactly; since M1 >= J0/2 the difference loses at most a
    factor 2.  The closed forms lose about eps/beta^2, so below
    _CLOSED_FORM_BETA a Gauss-Legendre rule in x takes over, its nodes
    sharing the occupations and paired x with -x so that the odd part is
    formed from differences that do not cancel.  Above it K and J1 still
    cancel where c/(1-beta) <= 1; there _odd_series takes over.
    """
    if beta < _CLOSED_FORM_BETA:
        x, w = _gl_nodes(_X_NODES)
        x, w = x[_X_NODES // 2:], w[_X_NODES // 2:]
        c = c[..., None]
        up, um = 1.0 + beta * x, 1.0 - beta * x
        ym = c / um
        n_up, n_um = _occupation(c / up), _occupation(ym)
        # n(c/u+) - n(c/u-) through expm1(c/u+ - c/u-), and u+^-3 - u-^-3
        # through u-^3 - u+^3 = -2 beta x (u+^2 + u+ u- + u-^2).
        dn = np.expm1(c * (-2.0 * beta * x / (up * um))) * n_up / np.expm1(-ym)
        du = -2.0 * beta * x * (up * up + up * um + um * um) / (up * um) ** 3
        # Each kernel's weights at the nodes, applied by @.
        j0, m1 = np.moveaxis(n_up @ np.array([w / up**2, w / up**3]).T
                             + n_um @ np.array([w / um**2, w / um**3]).T, -1, 0)
        k = dn @ (w * x / up**3) + n_um @ (w * x * du)
        return np.stack([j0, m1, k, k + beta * m1])

    g2 = 1.0 / ((1.0 - beta) * (1.0 + beta))
    a, b = c / (1.0 + beta), c / (1.0 - beta)
    # ln[(1 - e^-b)/(1 - e^-a)] with b - a = 2 beta gamma^2 c
    j0 = np.log1p(np.exp(-a) * np.expm1(-2.0 * beta * g2 * c) / np.expm1(-a)) / (beta * c)
    odd = np.empty((2, *c.shape))  # Int (s c - y) n dy for K, then J1
    small = b <= 1.0
    if small.any():
        odd[:, small] = _odd_series(c[small], beta, g2)
    ab = np.stack([a[~small], b[~small]])
    log, li2 = _log1m_exp(ab), _li2_exp(ab)
    # [(s c - y) ln(1 - e^-y) + Li2(e^-y)] from a to b, where s c - b = -beta b
    # and s c - a = beta a for K, and both are -/+ beta gamma^2 c for J1.
    odd[0, ~small] = -beta * (ab[0] * log[0] + ab[1] * log[1]) + li2[1] - li2[0]
    odd[1, ~small] = -beta * g2 * c[~small] * (log[0] + log[1]) + li2[1] - li2[0]
    k = odd[0] / (beta * beta * c * c)
    return np.stack([j0, j0 - beta * k, k, odd[1] / (beta * beta * g2 * c * c)])


@lru_cache(maxsize=1)
def _bath_terms(beta: float, t2: float, model: PolarizabilityModel,
                spec: QuadratureSpec) -> tuple[Quantity, Quantity, Quantity, Quantity]:
    """The four bath terms, one vector integral over the rest-frame w' (module docstring).

    pref * Int w'^4 a''(w') J dw' for each J of _bath_kernel(w'/(gamma T2)):
    A of Qdot (J0) and I2 (M1) with pref = 2/(pi gamma^4), the bath term of
    F_x (K) with -2/(pi gamma^4) and the drag (J1) with -2/(pi gamma^2).
    """
    g = lorentz_gamma(beta)
    scale = g * t2

    def integrand(om):
        return om**4 * alpha_im(model, om) * _bath_kernel(om / scale, beta)

    # The least suppressed direction sees n(w'/(D T2)), D = sqrt((1+b)/(1-b)):
    # thermal scales run from T2/D to D T2, and the tail decays over D T2.
    blue = math.sqrt((1.0 + beta) / (1.0 - beta))
    pref = _PREF / (g**2 * g**2)
    return _integrate_thermal(integrand, (pref, pref, -pref, -_PREF / g**2),
                              t2 / blue, t2 * blue, model, spec)


def _force_lab(b: float, power: Quantity, absorbed: Quantity, bath_term: Quantity) -> Quantity:
    """F_x = bath K term - beta P(T1) from the bare P(T1), I2 and K term (force_lab)."""
    diag = dict(bath_term.diagnostics)
    diag["nodes"] += power.diagnostics["nodes"]
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
    term, the odd kernel K of the one bath pass over the rest-frame
    frequency, minus beta P(T1) (module docstring).  K changes sign in
    c, so its rounding is bounded against beta M1 instead of |K|:
    _FORCE_ROUNDING * beta * I2 joins the error, with _ROUNDING * beta P
    for the emitted term.
    """
    b = state.beta
    if b == 0.0:
        return _zero("integrand odd in x at beta = 0")
    _, absorbed, bath_term, _ = _bath_terms(b, bath.temperature, model, spec)
    return _force_lab(b, _emitted_power(state.temperature, model, spec), absorbed, bath_term)


def _heating_rate(b: float, t1: float, t2: float, model: PolarizabilityModel,
                  spec: QuadratureSpec, power: Quantity, absorbed: Quantity) -> Quantity:
    """Qdot = A - P(T1)/gamma^2 from the bare P(T1) and A at `spec` (heating_rate)."""
    g2 = lorentz_gamma(b) ** 2
    gross = absorbed.value + power.value / g2
    need = max(spec.rel_tol * abs(absorbed.value - power.value / g2), spec.abs_tol,
               _ROUNDING * gross)
    if absorbed.error + power.error / g2 > need:
        # The terms cancel: refine both to the tolerance of their difference.
        spec = replace(spec, rel_tol=need / gross)
        absorbed = _bath_terms(b, t2, model, spec)[0]
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
    from P(T1) and the bath pass (module docstring).  Where the two terms
    cancel, both are refined until their errors meet the tolerance of the
    net value; a rounding bound _HEAT_ROUNDING * (A + P/gamma^2) joins it.
    """
    b, t1, t2 = state.beta, state.temperature, bath.temperature
    return _heating_rate(b, t1, t2, model, spec, _emitted_power(t1, model, spec),
                         _bath_terms(b, t2, model, spec)[0])


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
    rest-frame emission P(T1) at any beta; I2 is the bath term, the
    kernel M1 of the one bath pass over the rest-frame frequency (module
    docstring).  The rounding bounds _ROUNDING * I1 and _ABSORB_ROUNDING
    * I2 of their kernels join the errors.  Positive I means the particle
    loses energy to radiation.
    """
    return _intensity(_emitted_power(state.temperature, model, spec),
                      _bath_terms(state.beta, bath.temperature, model, spec)[1])


def _drag(drag: Quantity) -> Quantity:
    """The drag with its rounding bound _DRAG_ROUNDING * |drag| (drag_combination)."""
    return replace(drag, error=drag.error + _DRAG_ROUNDING * abs(drag.value))


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
    construction.  The kernel J1 of the one bath pass over the
    rest-frame frequency (module docstring).  Strictly negative for
    beta > 0, T2 > 0 and a nonzero passive model; equals the rest-frame
    force.
    """
    if state.beta == 0.0:
        return _zero("integrand odd in x at beta = 0")
    return _drag(_bath_terms(state.beta, bath.temperature, model, spec)[3])


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

    (force,) = _integrate_thermal(integrand, (-beta / (3.0 * math.pi * t2),), t2, t2, model, spec)
    return force


def evaluate_bundle(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ObservableBundle:
    """Evaluate every observable at one parameter point.

    Every member is composed from one P(T1) and one bath pass, bitwise
    the standalone observable's value and error.
    """
    b, t1, t2 = state.beta, state.temperature, bath.temperature
    power = _emitted_power(t1, model, spec)
    heat, absorbed, bath_term, drag = _bath_terms(b, t2, model, spec)
    odd = _zero("integrand odd in x at beta = 0")
    # Fields in order: force_lab, heating_rate, (I, I1, I2), force_rest_frame.
    return ObservableBundle(odd if b == 0.0 else _force_lab(b, power, absorbed, bath_term),
                            _heating_rate(b, t1, t2, model, spec, power, heat),
                            *_intensity(power, absorbed), odd if b == 0.0 else _drag(drag))
