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

heating_rate and drag_combination are 1D integrals over the rest-frame
frequency; force_lab, intensity, force_rest_frame and the spontaneous
terms are 2D Doppler quadratures, so each relation between them checks
one route against the other.  Every check compares independent
quadratures, so the acceptance threshold is tied to their error
estimates: pass iff residual <= max(10 * RSS(error estimates),
ABS_FLOOR), never a bare epsilon.  ABS_FLOOR = 1e-12 internal units absorbs exact-zero cases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .kernels import QuadratureSpec, integrate_1d, lorentz_gamma
from .kernels import bose_occupation  # noqa: F401 -- perfbench's tracer patches it by name
from .kernels import integrate_omega_x  # noqa: F401 -- perfbench's tracer patches it by name
from .observables import (
    DEFAULT_QUADRATURE,
    BathSpec,
    ParticleState,
    Quantity,
    _doppler_integral,
    _emitted_power,
    drag_combination,
    force_lab,
    force_rest_frame,
    force_rest_frame_alt,  # noqa: F401 -- perfbench's tracer patches it by name
    heating_rate,
    intensity,
)
from .polarizability import PolarizabilityModel
from .polarizability import alpha_im  # noqa: F401 -- perfbench's tracer patches it by name

ABS_FLOOR = 1e-12

_PREF = 2.0 / math.pi


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "combined_error": self.combined_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ConsistencyReport:
    """Deterministic aggregate of identity checks; passed iff all pass."""

    checks: tuple[IdentityCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _residual_check(name: str, lhs: float, rhs: float, *errors: float) -> IdentityCheck:
    residual = abs(lhs - rhs)
    combined = math.sqrt(sum(e * e for e in errors))
    tol = max(10.0 * combined, ABS_FLOOR)
    return IdentityCheck(name, lhs, rhs, residual, combined, tol, residual <= tol)


def _sign_check(name: str, quantity: Quantity) -> IdentityCheck:
    """Pass iff the value is non-positive to within its error budget."""
    excess = max(0.0, quantity.value)
    tol = max(10.0 * quantity.error, ABS_FLOOR)
    return IdentityCheck(name, quantity.value, 0.0, excess, quantity.error, tol, excess <= tol)


def _energy_balance(b: float, net: Quantity, q: Quantity, f: Quantity) -> IdentityCheck:
    return _residual_check(
        "energy-balance", net.value, -(q.value + b * f.value), net.error, q.error, b * f.error
    )


def _frame_force(name: str, b: float, lhs: Quantity, f: Quantity, q: Quantity) -> IdentityCheck:
    """lhs against the composition F_x - gamma^2 * beta * Qdot."""
    g = lorentz_gamma(b)
    return _residual_check(
        name, lhs.value, f.value - g * g * b * q.value, lhs.error, f.error, g * g * b * q.error
    )


def energy_balance_residual(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> IdentityCheck:
    """|I + Qdot + beta * F_x| from three independent quadratures.

    The net radiated power must equal what the bath pumps in minus the
    work the radiation does on the particle.
    """
    f = force_lab(state, bath, model, spec)
    q = heating_rate(state, bath, model, spec)
    net, _, _ = intensity(state, bath, model, spec)
    return _energy_balance(state.beta, net, q, f)


def frame_force_residual(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> IdentityCheck:
    """|F'_x - (F_x - gamma^2 * beta * Qdot)| across three quadratures."""
    fp = force_rest_frame(state, bath, model, spec)
    f = force_lab(state, bath, model, spec)
    q = heating_rate(state, bath, model, spec)
    return _frame_force("frame-force-relation", state.beta, fp, f, q)


@dataclass(frozen=True)
class SpontaneousTerms:
    """The two particle-temperature contributions that cancel in the drag.

    force_term: the T1-dependent part of the lab force; drift_term: the
    T1-dependent part of gamma^2*beta*Qdot.  Equality of the two (both
    evaluated by direct 2D quadrature) is what removes every trace of
    the particle temperature from the drag combination.  emitted_power
    is the rest-frame emission P(T1) = (4/pi) Int w^4 a''(w) n(w, T1) dw
    (observables._emitted_power; exact 0 at T1 = 0), and reduced_force
    re-derives force_term as its change-of-variables form -beta*P(T1),
    an independent check.
    """

    force_term: Quantity
    drift_term: Quantity
    reduced_force: float
    emitted_power: Quantity
    cancellation: IdentityCheck
    reduction: IdentityCheck

    @property
    def residual(self) -> float:
        return self.cancellation.residual


def spontaneous_term_cancellation(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> SpontaneousTerms:
    """Evaluate both spontaneous-emission terms and their cancellation.

    Both terms are computed as genuine 2D quadratures (not through the
    1D reduction, which would make the comparison circular); the
    reduction is returned separately.
    """
    b, t1 = state.beta, state.temperature
    g = lorentz_gamma(b)
    power = _emitted_power(t1, model, spec)

    if t1 == 0.0 or b == 0.0:
        reason = "no spontaneous term at T1 = 0" if t1 == 0.0 else "odd/zero at beta = 0"
        force_term = Quantity(0.0, 0.0, {"short_circuit": reason})
        drift_term = Quantity(0.0, 0.0, {"short_circuit": reason})
        reduced = 0.0
    else:
        # T2 = 0 keeps -n(w_b, T1) alone, hence the negated prefactors.
        force_term = _doppler_integral(
            lambda x, u: x * u * u, -_PREF * g, b, t1, 0.0, model, spec
        )
        drift_term = _doppler_integral(
            lambda x, u: u**3, _PREF * g**3 * b, b, t1, 0.0, model, spec
        )
        reduced = -b * power.value

    cancellation = _residual_check(
        "spontaneous-term-cancellation",
        force_term.value,
        drift_term.value,
        force_term.error,
        drift_term.error,
    )
    reduction = _residual_check(
        "spontaneous-term-reduction",
        force_term.value,
        reduced,
        force_term.error,
    )
    return SpontaneousTerms(force_term, drift_term, reduced, power, cancellation, reduction)


def inner_closed_forms(
    beta: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    """Quadratures of Int x(1+bx)^-3 dx and Int (1+bx)^-2 dx over [-1, 1].

    Closed forms: -2*beta*gamma^4 and 2*gamma^2.  These are the inner
    integrals that collapse the spontaneous terms onto one 1D integral.
    """
    g = lorentz_gamma(beta)  # validates beta and fails fast on bad input
    del g
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

    Aggregates: energy balance, frame-force relation, spontaneous-term
    cancellation and its 1D reduction, dual-form rest force, the
    equality of the drag combination with its F_x / Qdot composition,
    the intensity split against the rest-frame emitted power (the 1D
    integral of the spontaneous-term reduction, evaluated once), and
    the sign constraints on the drag and rest-frame force.
    """
    b = state.beta
    f = force_lab(state, bath, model, spec)
    q = heating_rate(state, bath, model, spec)
    net, _, absorbed = intensity(state, bath, model, spec)
    fp = force_rest_frame(state, bath, model, spec)
    drag = drag_combination(state, bath, model, spec)
    spont = spontaneous_term_cancellation(state, bath, model, spec)

    checks = (
        _energy_balance(b, net, q, f),
        _frame_force("frame-force-relation", b, fp, f, q),
        spont.cancellation,
        spont.reduction,
        # force_rest_frame_alt is drag_combination under another name, so
        # the 1D drag already in hand is the transformed rest-force integral.
        _residual_check("rest-force-dual-form", fp.value, drag.value, fp.error, drag.error),
        _frame_force("drag-composition", b, drag, f, q),
        # net = I1 - I2 with the 2D-quadrature I1 against the 1D P(T1)
        _residual_check(
            "intensity-split",
            net.value,
            spont.emitted_power.value - absorbed.value,
            net.error,
            spont.emitted_power.error,
            absorbed.error,
        ),
        _sign_check("drag-sign", drag),
        _sign_check("rest-force-sign", fp),
    )
    return ConsistencyReport(checks, all(c.passed for c in checks))
