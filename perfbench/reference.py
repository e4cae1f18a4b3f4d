"""Independent references for the heating rate and the emitted power.

The engine integrates over (omega, x) in 2D.  The angular integral has a
closed form, which leaves 1D integrals over frequency only (internal
units, hbar = c = k_B = 1; D = sqrt((1+b)/(1-b)); n = Bose occupation):

    I1   = P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw           (any beta)
    Qdot = (2 T2/(pi b g^3)) Int w^3 a''(w)
               ln[(1 - e^{-w D/T2}) / (1 - e^{-w/(D T2)})] dw - P(T1)/g^2

Qdot is integrated as one integral of the combined bracket.  At low speed
with T1 = T2 its two terms cancel to a share of about b^2, so the bracket
is evaluated in numpy's extended precision (64-bit mantissa on x86), the
log ratio through log1p/expm1 without cancellation of its own.  The
error of every reference is quad's estimate plus the rounding bound of
the samples, which counts both terms of the bracket and so the
cancellation.  Both integrals go through scipy's adaptive quad with the
model's band edges and resonances and a geometric ladder of thermal
scales as panel edges (without the band edges quad misses the TopHat band
entirely).  When quad raises an IntegrationWarning the value comes from
mpmath's tanh-sinh rule at 40 digits instead.

Nothing here imports bbdrag: models arrive as the tagged dicts of
``bbdrag.polarizability.model_to_dict``.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
from scipy import integrate

_DPS = 40
_TAIL = 60.0  # occupations are below e^-60 ~ 1e-26 beyond w/T = 60
_EPSREL = 1e-13
# Rounding bound of one term of an integrand, relative to that term.
_ROUNDOFF = 4e-16
_ROUNDOFF_LD = 4.0 * float(np.finfo(np.longdouble).eps)


def _alpha(model: dict):
    """Scalar a''(w) for float or mpf arguments."""
    kind = model["type"]
    if kind == "lorentz":
        a0, w0, g = model["alpha0"], model["omega0"], model["gamma"]
        return lambda w: a0 * w0**2 * g * w / ((w0**2 - w**2) ** 2 + g**2 * w**2)
    if kind == "drude":
        r3, wp, nu = model["radius"] ** 3, model["omega_p"], model["nu"]
        return lambda w: 3 * r3 * wp**2 * nu * w / ((3 * w**2 - wp**2) ** 2 + 9 * nu**2 * w**2)
    if kind == "tophat":
        amp, w1, w2 = model["amplitude"], model["omega1"], model["omega2"]
        return lambda w: amp if w1 <= w <= w2 else 0 * w
    if kind == "ohmic":
        s, wc = model["slope"], model["omega_c"]
        if wc is None:
            return lambda w: s * w
        return lambda w: s * w * (mp.exp(-w / wc) if isinstance(w, mp.mpf) else math.exp(-w / wc))
    raise ValueError(f"unknown model type {kind!r}")


def _features(model: dict) -> list[float]:
    """Frequencies where a'' jumps or peaks."""
    kind = model["type"]
    if kind == "tophat":
        return [model["omega1"], model["omega2"]]
    if kind in ("lorentz", "drude"):
        if kind == "lorentz":
            w0, g = model["omega0"], model["gamma"]
        else:
            w0, g = model["omega_p"] / math.sqrt(3.0), model["nu"]
        return [max(w0 - g, w0 / 2), w0, w0 + g]
    return [model["omega_c"]] if model.get("omega_c") is not None else []


def _domain(model: dict, lo_scale: float, hi: float) -> tuple[float, float, list[float]]:
    """Integration range and panel edges: geometric ladder plus model features."""
    lo = 0.0
    if model["type"] == "tophat":
        lo, hi = model["omega1"], min(model["omega2"], hi)
    edges = {w for w in _features(model) if lo < w < hi}
    s = lo_scale / 4.0
    while s < hi:
        if s > lo:
            edges.add(s)
        s *= 4.0
    return lo, hi, sorted(edges)


def _quad(f, lo, hi, edges, epsrel: float, epsabs: float = 0.0) -> tuple[float, float]:
    return integrate.quad(
        f, lo, hi, points=edges or None, epsabs=epsabs, epsrel=epsrel, limit=500
    )


def _integrate(f, rounding_density, lo: float, hi: float, edges: list[float], f_mp):
    """(value, error) of Int f: quad's estimate plus the rounding of the samples.

    Int rounding_density bounds the rounding error of the samples of f,
    cancellation between their terms included.  On an IntegrationWarning
    the value comes from mpmath's tanh-sinh rule applied to f_mp.
    """
    if hi <= lo:
        return 0.0, 0.0
    rounding = _quad(rounding_density, lo, hi, edges, 1e-3)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            # Refining below the rounding of the samples cannot help.
            value, err = _quad(f, lo, hi, edges, _EPSREL, rounding)
            return value, err + rounding
        except integrate.IntegrationWarning:
            pass
    with mp.workdps(_DPS):
        nodes = [mp.mpf(lo), *[mp.mpf(e) for e in edges], mp.mpf(hi)]
        value, err = mp.quad(f_mp, nodes, error=True, maxdegree=10)
    return float(value), float(err) + rounding


def _bose(w: float, t: float) -> float:
    return 1.0 / math.expm1(w / t) if w / t < 700.0 else math.exp(-w / t)


def emitted_power(model: dict, t1: float) -> tuple[float, float]:
    """(P(T1), error): the emitted power I1 at any speed."""
    if t1 == 0.0:
        return 0.0, 0.0
    alpha = _alpha(model)
    lo, hi, edges = _domain(model, t1, _TAIL * t1)

    def f(w):
        return 4.0 / math.pi * w**4 * alpha(w) * _bose(w, t1) if w > 0.0 else 0.0

    def f_mp(w):
        return 4 / mp.pi * w**4 * alpha(w) / mp.expm1(w / t1)

    return _integrate(f, lambda w: _ROUNDOFF * f(w), lo, hi, edges, f_mp)


def heating_rate(model: dict, beta: float, t1: float, t2: float) -> tuple[float, float]:
    """(Qdot, error) from the combined 1D bracket; needs 0 < beta < 1, T2 > 0."""
    if not (0.0 < beta < 1.0 and t2 > 0.0 and t1 >= 0.0):
        raise ValueError(f"reference needs 0 < beta < 1 and T2 > 0, got {beta!r}, {t2!r}")
    alpha = _alpha(model)
    # mpf(beta) is the exact binary value the engine receives.  Near
    # BETA_MAX, 1 - beta differs from the decimal 1e-9 by 3e-8 relative.
    with mp.workdps(_DPS):
        b = mp.mpf(beta)
        d_mp = mp.sqrt((1 + b) / (1 - b))
        g_mp = 1 / mp.sqrt((1 - b) * (1 + b))
        consts = (
            d_mp,  # D
            d_mp - 1 / d_mp,  # D - 1/D = 2 b g
            mp.mpf(t2) / (b * g_mp**3),  # weight of the log ratio
            2 / g_mp**2,  # weight of the spontaneous term
        )
        d_ld, spread_ld, c_l, c_p = (np.longdouble(mp.nstr(c, 25)) for c in consts)
    d = float(d_mp)
    one = np.longdouble(1)
    inv_t1 = one / np.longdouble(t1) if t1 > 0.0 else None
    inv_t2 = one / np.longdouble(t2)
    scales = [t2 / d] + ([t1] if t1 > 0.0 else [])
    lo, hi, edges = _domain(model, min(scales), _TAIL * max(d * t2, t1))

    def terms(w):
        """(prefactor, log-ratio term, spontaneous term) in extended precision."""
        a = alpha(w) if w > 0.0 else 0.0
        if a == 0.0:
            return 0.0, one * 0, one * 0
        x = np.longdouble(w) * inv_t2
        log_ratio = np.log1p(np.exp(-x / d_ld) * np.expm1(-x * spread_ld) / np.expm1(-x / d_ld))
        if inv_t1 is None:
            spont = one * 0
        else:
            y = np.longdouble(w) * inv_t1
            spont = c_p * np.longdouble(w) / np.expm1(y) if y < 11000 else one * 0
        return 2.0 / math.pi * w**3 * a, c_l * log_ratio, spont

    def f(w):
        pref, up, spont = terms(w)
        return pref * float(up - spont)

    def rounding_density(w):
        pref, up, spont = terms(w)
        return pref * (_ROUNDOFF_LD * float(abs(up) + abs(spont)) + _ROUNDOFF * abs(float(up - spont)))

    def f_mp(w):
        a = alpha(w)
        log_ratio = mp.log(-mp.expm1(-w * consts[0] / t2)) - mp.log(-mp.expm1(-w / (consts[0] * t2)))
        spont = consts[3] * w / mp.expm1(w / t1) if t1 > 0.0 else 0
        return 2 / mp.pi * w**3 * a * (consts[2] * log_ratio - spont)

    return _integrate(f, rounding_density, lo, hi, edges, f_mp)


def heating_rate_mpmath(model: dict, beta, t1, t2, dps: int = 30) -> float:
    """Qdot by mpmath tanh-sinh alone, to spot-check the quad path.

    beta, t1 and t2 may be decimal strings, so that a spot-check can use
    an exact decimal speed such as 0.999999999.
    """
    alpha = _alpha(model)
    with mp.workdps(dps):
        b, t1, t2 = mp.mpf(beta), mp.mpf(t1), mp.mpf(t2)
        g = 1 / mp.sqrt((1 - b) * (1 + b))
        d = mp.sqrt((1 + b) / (1 - b))

        def f(w):
            log_ratio = mp.log(-mp.expm1(-w * d / t2)) - mp.log(-mp.expm1(-w / (d * t2)))
            spont = 2 * w / mp.expm1(w / t1) / g**2 if t1 > 0 else 0
            return 2 / mp.pi * w**3 * alpha(w) * (t2 / (b * g**3) * log_ratio - spont)

        scales = [float(t2 / d)] + ([float(t1)] if t1 > 0 else [])
        lo, hi, edges = _domain(model, min(scales), _TAIL * float(max(d * t2, t1)))
        nodes = [mp.mpf(lo), *[mp.mpf(e) for e in edges], mp.mpf(hi)]
        return float(mp.quad(f, nodes, maxdegree=10))
