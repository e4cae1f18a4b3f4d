"""Coupled evolution of speed, rest mass, and proper temperature.

Equations of motion (internal units, hbar = c = k_B = 1):

    dbeta/dt = (1 - beta^2)^{3/2} * F' / m         (F' = drag combination)
    dm/dt    = gamma * Qdot                        (absorbed heat adds mass)
    dT1/dt   = gamma * Qdot * (1 - C_s*T1) / (C_s * m)

The (1 - C_s*T1) factor corrects for the heat that reappears as rest
mass; it is dropped when C_s*T1 < 1e-12 (the regimes of interest have
C_s*T1 << 1, and a warning fires when it exceeds 1e-6).

F', the lab force F_x and Qdot are the production 1D integrals over
the rest-frame frequency (observables module docstring), read at each
state in that order: F' and F_x share the bath pass and F_x and Qdot
P(T1), so a right-hand-side evaluation makes two integrals (four where
Qdot refines).  The stepper is an embedded Runge-Kutta 4(5) pair
(Dormand-Prince via scipy, imported when a trajectory starts) driven
step by step.

The radiated energy E rides along as the last integrated variable,
dE/dt = I = -(Qdot + beta*F_x): the energy-balance identity applied to
the production rates, so it costs no further integral.  It is excluded
from the step controller's error norm, so the steps are those of the
physical variables alone.  At every accepted step the instantaneous
balance |I_2D - I| is evaluated with an independent quadrature, the 2D
lab-frame Doppler integral I_2D (consistency._net_intensity), and must
pass verify_all's energy-balance check (consistency._energy_balance) on
the same values, so the monitor stops exactly where verify fails; the
frame relation F' = F_x - gamma^2*beta*Qdot is left to verify.  In full
mode I equals -d(gamma*m)/dt, the statement that kinetic-plus-rest
energy is lost exactly at the radiated rate.  The reported radiated
energy is E(t_end) plus the trapezoid of the small difference I_2D - I
over the accepted points, so the 2D quadrature enters only as a
correction and the global bookkeeping |Delta(gamma*m) + Int I dt| is
limited by the ODE tolerances rather than by the sampling of I.

Modes: ``full`` integrates all three variables; ``quasi-static-T1``
pins T1 = T1*(beta), the zero of Qdot(T1) = Qdot(0) - P(T1)/gamma^2
(one bath-only heating integral, then the root of the monotone 1D
rest-frame emission P by Brent's method, ported into this module so
that T1* needs no scipy and equals scipy's brentq root bit for bit), and
integrates (beta, m),
removing the fast thermal timescale; ``fixed-velocity`` holds beta and
integrates (m, T1), the fixed-speed heating problem.  Global energy
bookkeeping applies to full and quasi-static trajectories; a
fixed-velocity particle exchanges energy with whatever constrains it,
so its bookkeeping residual is reported as NaN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .consistency import _energy_balance, _net_intensity
from .kernels import BETA_MAX, QuadratureSpec, _check_beta, lorentz_gamma
from .kernels import bose_occupation  # noqa: F401 -- perfbench's tracer patches it by name
from .kernels import integrate_omega_x  # noqa: F401 -- perfbench's tracer patches it by name
from .observables import (
    DEFAULT_QUADRATURE,
    BathSpec,
    ParticleState,
    Quantity,
    _emitted_power,
    drag_combination,
    force_lab,
    heating_rate,
)
from .polarizability import PolarizabilityModel
from .polarizability import alpha_im  # noqa: F401 -- perfbench's tracer patches it by name

# Relative size of the C_s*T1 correction below which it is dropped.
_CORRECTION_CUT = 1e-12

# C_s*T1 above this deserves a warning: the thermal model neglects
# higher-order rest-mass feedback of the same size.
_CORRECTION_WARN = 1e-6

# The smallest rel_tol of the T1* solve, the floor scipy's brentq enforced:
# a finer tolerance is below the spacing of doubles near the root.
_REL_TOL_FLOOR = 4.0 * math.ulp(1.0)

# A run ends "steady" once beta is below _STEADY_BETA (kinematically at
# rest) and T1 is within _STEADY_TEMPERATURE_TOL of T2, relative.
_STEADY_BETA = 1e-8
_STEADY_TEMPERATURE_TOL = 1e-6

# Variables each mode integrates; the radiated energy E is always last.
_VARIABLES = {
    "full": ("beta", "mass", "temperature", "radiated"),
    "quasi-static-T1": ("beta", "mass", "radiated"),
    "fixed-velocity": ("mass", "temperature", "radiated"),
}
MODES = tuple(_VARIABLES)


class DynamicsError(RuntimeError):
    """Trajectory integration aborted (step underflow, unphysical state)."""


class MonitorViolation(DynamicsError):
    """Accepted step broke the instantaneous energy-balance monitor."""


class BracketError(RuntimeError):
    """Equilibrium root not bracketed by the Doppler temperature bounds."""


@dataclass(frozen=True)
class MaterialThermo:
    """Constant specific heat per unit mass (internal units: 1/temperature)."""

    specific_heat: float

    def __post_init__(self):
        c = self.specific_heat
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0.0):
            raise ValueError(f"specific_heat must be finite and positive, got {c!r}")


@dataclass(frozen=True)
class TrajectoryPoint:
    """Accepted integration point with instantaneous observables."""

    t: float
    beta: float
    mass: float
    temperature: float
    force_lab: float
    heating_rate: float
    intensity: float
    balance_residual: float


@dataclass(frozen=True)
class Trajectory:
    """Integration result: accepted points plus global energy bookkeeping."""

    points: tuple[TrajectoryPoint, ...]
    termination: str  # "t_end" | "beta_stop" | "steady"
    radiated_energy: float  # Int I dt: the integrated E plus the 2D monitor's correction
    bookkeeping_residual: float  # |Delta(gamma*m) + Int I dt|; NaN for fixed-velocity


@dataclass(frozen=True)
class EvolveConfig:
    """Integration horizon, tolerances, mode, and termination knobs.

    abs_tol must exceed 10x the quadrature abs_tol: the step controller
    treats quadrature error as RHS noise and cannot resolve below it.
    The tolerances bound the physical variables; the radiated energy
    integrated alongside them is accurate to the same order.
    """

    t_end: float
    initial_step: float | None = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    mode: str = "full"
    output_stride: int = 1
    max_step: float = math.inf
    beta_stop: float | None = None
    monitor: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end!r}")
        if self.initial_step is not None and not (
            math.isfinite(self.initial_step) and self.initial_step > 0.0
        ):
            raise ValueError(f"initial_step must be positive, got {self.initial_step!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (isinstance(self.output_stride, int) and self.output_stride >= 1):
            raise ValueError(f"output_stride must be an int >= 1, got {self.output_stride!r}")
        if not self.max_step > 0.0:
            raise ValueError(f"max_step must be positive, got {self.max_step!r}")
        if self.beta_stop is not None and not (0.0 <= self.beta_stop <= BETA_MAX):
            raise ValueError(f"beta_stop must lie in [0, {BETA_MAX!r}], got {self.beta_stop!r}")

    def validate_against(self, spec: QuadratureSpec):
        if self.abs_tol < 10.0 * spec.abs_tol:
            raise ValueError(
                f"ODE abs_tol {self.abs_tol:g} must be at least 10x the quadrature "
                f"abs_tol {spec.abs_tol:g}; the stepper cannot resolve below the "
                "quadrature noise floor"
            )


def derivatives(
    state: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    thermo: MaterialThermo,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float, float]:
    """(dbeta/dt, dm/dt, dT1/dt) at one state."""
    fp = drag_combination(state, bath, model, spec).value
    qd = heating_rate(state, bath, model, spec).value
    return _equations_of_motion(state, fp, qd, thermo)


def _equations_of_motion(
    state: ParticleState, fp: float, qd: float, thermo: MaterialThermo
) -> tuple[float, float, float]:
    """(dbeta/dt, dm/dt, dT1/dt) from the drag F' and the heating rate Qdot."""
    g = lorentz_gamma(state.beta)
    dbeta = (1.0 - state.beta**2) ** 1.5 * fp / state.mass
    dmass = g * qd
    dtemp = g * qd / (thermo.specific_heat * state.mass)
    corr = thermo.specific_heat * state.temperature
    if corr >= _CORRECTION_CUT:
        dtemp *= 1.0 - corr
    return dbeta, dmass, dtemp


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> tuple[float, bool]:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    fa = f(xa) and fb = f(xb) are nonzero and of opposite signs.  The
    loop of scipy.optimize.brentq's C code, ported line for line: the
    same arguments give the same bits.  Returns (root, converged);
    converged is False after maxiter iterations, the root then being the
    last iterate.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur, False


@lru_cache(maxsize=1024)
def _equilibrium_cached(
    beta: float,
    t2: float,
    model: PolarizabilityModel,
    spec: QuadratureSpec,
    rel_tol: float,
) -> float:
    blue = math.sqrt((1.0 + beta) / (1.0 - beta))
    if blue - 1.0 <= rel_tol:
        return t2  # from beta ~ 2e-16 down, the bracket rounds to one point
    lo = t2 / blue
    hi = t2 * blue
    g2 = lorentz_gamma(beta) ** 2
    absorbed = heating_rate(ParticleState(beta, 1.0, 0.0), BathSpec(t2), model, spec).value

    def qdot(t1: float) -> float:
        return absorbed - _emitted_power(t1, model, spec).value / g2

    q_lo = qdot(lo)
    q_hi = qdot(hi)
    if not (q_lo > 0.0 > q_hi):
        raise BracketError(
            "equilibrium temperature not bracketed: "
            f"Qdot({lo:.6g}) = {q_lo:.6g}, Qdot({hi:.6g}) = {q_hi:.6g} "
            "(need positive at the red-shifted bound, negative at the "
            "blue-shifted bound; a null model has no root)"
        )
    root, converged = _brentq(qdot, lo, hi, q_lo, q_hi, 1e-14 * hi, rel_tol)
    if not converged:
        raise RuntimeError(f"equilibrium temperature: no convergence at the Brent "
                           f"iteration cap, last iterate {root!r}")
    return float(root)


def equilibrium_temperature(
    beta: float,
    bath: BathSpec,
    model: PolarizabilityModel,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    rel_tol: float = 1e-8,
) -> float:
    """Proper temperature T1* at which the net heating vanishes.

    Solved on the exact split Qdot(T1) = Qdot(0) - P(T1)/gamma^2: one
    bath-only heating integral, then the root of the monotone 1D
    rest-frame emission P(T1).  The root is bracketed by the extreme
    Doppler temperatures T2*sqrt((1-b)/(1+b)) and T2*sqrt((1+b)/(1-b)):
    at those values the occupation comparison is one-sided for every
    direction, so Qdot has opposite strict signs at the ends for any
    nonzero passive model.  Where D = sqrt((1+b)/(1-b)) has D - 1 <= rel_tol
    (beta = 0 too), the whole bracket meets rel_tol and T2 is returned.
    """
    _check_beta(beta)
    t2 = bath.temperature
    if t2 <= 0.0:
        raise ValueError("equilibrium temperature needs a bath with T2 > 0")
    if not (math.isfinite(rel_tol) and rel_tol >= _REL_TOL_FLOOR):
        raise ValueError(f"rel_tol must be positive and at least 4 machine epsilons "
                         f"({_REL_TOL_FLOOR!r}), got {rel_tol!r}")
    return _equilibrium_cached(float(beta), float(t2), model, spec, float(rel_tol))


def evolve(
    state0: ParticleState,
    bath: BathSpec,
    model: PolarizabilityModel,
    thermo: MaterialThermo,
    cfg: EvolveConfig,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Trajectory:
    """Integrate the coupled system from state0; see the module docstring.

    Returns every accepted step as a TrajectoryPoint (output striding is
    an output-layer concern).  Raises DynamicsError on step underflow or
    an unphysical state, MonitorViolation when an accepted step's energy
    balance fails the energy-balance check of verify_all.
    """
    from scipy.integrate import RK45

    cfg.validate_against(spec)
    if thermo.specific_heat * state0.temperature > _CORRECTION_WARN:
        warnings.warn(
            f"C_s*T1 = {thermo.specific_heat * state0.temperature:.3g} is not "
            "small; the thermal evolution neglects rest-mass feedback beyond "
            "first order",
            UserWarning,
            stacklevel=2,
        )
    mode = cfg.mode
    if mode == "quasi-static-T1" and bath.temperature <= 0.0:
        raise ValueError("quasi-static-T1 mode needs T2 > 0 to define T1*(beta)")

    names = _VARIABLES[mode]
    last: dict[bytes, tuple] = {}  # RK45 revisits only the last state it evaluated

    def record(y: np.ndarray) -> tuple[ParticleState, Quantity, Quantity, Quantity, float]:
        """(state, F', Qdot, F_x, I) at the physical variables of y."""
        key = y[:-1].tobytes()
        if key not in last:
            v = dict(zip(names, y.tolist()))
            b = min(max(v.get("beta", state0.beta), 0.0), BETA_MAX)
            m = v["mass"]
            if "temperature" in v:
                t1 = v["temperature"]
            else:
                t1 = equilibrium_temperature(b, bath, model, spec)
            if not m > 0.0:
                raise DynamicsError(
                    f"mass became non-positive (m = {m:.6g}); the model has been "
                    "integrated far outside its regime"
                )
            st = ParticleState(b, m, max(t1, 0.0))
            # force_lab before heating_rate: a refinement there replaces both memos.
            fp = drag_combination(st, bath, model, spec)
            f_lab = force_lab(st, bath, model, spec)
            qd = heating_rate(st, bath, model, spec)
            last.clear()
            last[key] = (st, fp, qd, f_lab, -(qd.value + b * f_lab.value))
        return last[key]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        st, fp, qd, _, power = record(y)
        dbeta, dmass, dtemp = _equations_of_motion(st, fp.value, qd.value, thermo)
        rate = {"beta": dbeta, "mass": dmass, "temperature": dtemp, "radiated": power}
        return np.array([rate[n] for n in names])

    def make_point(t: float, y: np.ndarray) -> tuple[TrajectoryPoint, float]:
        """The point at y and its signed monitor gap I_2D - I.

        Raises MonitorViolation when the energy-balance check fails.
        """
        st, _, qd, f_lab, _ = record(y)
        check = _energy_balance(st.beta, _net_intensity(st, bath, model, spec), f_lab, qd)
        if cfg.monitor and not check.passed:
            raise MonitorViolation(
                f"energy balance violated at t = {t:.6g}: residual "
                f"{check.residual:.3g} > tolerance {check.tolerance:.3g} "
                f"(beta = {st.beta:.6g}, T1 = {st.temperature:.6g})"
            )
        point = TrajectoryPoint(t, st.beta, st.mass, st.temperature, f_lab.value, qd.value,
                                check.lhs, check.residual)
        return point, check.lhs - check.rhs

    start = {"beta": state0.beta, "mass": state0.mass,
             "temperature": state0.temperature, "radiated": 0.0}
    y0 = np.array([start[n] for n in names])
    # Before the solver, so that its own first evaluation at y0 is a record hit.
    point, gap = make_point(0.0, y0)
    points, gaps = [point], [gap]
    # E stays out of the error norm (atol = inf).  scipy's norm is an RMS
    # over all components, so the others' tolerances shrink by
    # sqrt(n/(n+1)) to keep the step sequence of the physical variables.
    shrink = math.sqrt((len(names) - 1) / len(names))
    atol = np.full(len(names), cfg.abs_tol * shrink)
    atol[-1] = math.inf
    solver = RK45(
        rhs,
        0.0,
        y0,
        t_bound=cfg.t_end,
        rtol=cfg.rel_tol * shrink,
        atol=atol,
        max_step=cfg.max_step,
        first_step=cfg.initial_step,
    )
    termination = "t_end"
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise DynamicsError(
                f"step-size underflow at t = {solver.t:.6g}: {message or 'solver failed'}"
            )
        point, gap = make_point(solver.t, solver.y)
        points.append(point)
        gaps.append(gap)

        if cfg.beta_stop is not None and point.beta <= cfg.beta_stop:
            termination = "beta_stop"
            break
        if (
            point.beta < _STEADY_BETA
            and bath.temperature > 0.0
            and abs(point.temperature - bath.temperature)
            <= _STEADY_TEMPERATURE_TOL * bath.temperature
        ):
            # Below _STEADY_BETA T1*(beta) differs from T2 only at
            # O(beta^2), far inside _STEADY_TEMPERATURE_TOL.
            termination = "steady"
            break

    # The integrated E plus the trapezoid of the monitor's correction I_2D - I.
    radiated = float(solver.y[-1]) + math.fsum(
        0.5 * (ga + gb) * (pb.t - pa.t)
        for ga, gb, pa, pb in zip(gaps, gaps[1:], points, points[1:])
    )
    if mode == "fixed-velocity":
        bookkeeping = math.nan
    else:
        first, last = points[0], points[-1]
        delta_e = lorentz_gamma(last.beta) * last.mass - lorentz_gamma(first.beta) * first.mass
        bookkeeping = abs(delta_e + radiated)
    return Trajectory(tuple(points), termination, radiated, bookkeeping)
