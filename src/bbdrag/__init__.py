"""Relativistic blackbody friction: forces, heating, and radiation exchange
for a small polarizable particle moving through thermal radiation.

Everything computes in internal units with hbar = c = k_B = 1 and
frequencies measured against a reference temperature; UnitSystem
converts to and from SI.  The observable layer returns values with
quadrature error estimates; the consistency layer checks the exact
identities tying the observables together; dynamics integrates the
coupled slowdown/heating equations of motion.
"""

from .consistency import (
    ConsistencyReport,
    IdentityCheck,
    force_rest_frame_alt,
    inner_closed_forms,
    spontaneous_term_cancellation,
    verify_all,
)
from .dynamics import (
    BracketError,
    DynamicsError,
    EvolveConfig,
    MaterialThermo,
    MonitorViolation,
    Trajectory,
    TrajectoryPoint,
    derivatives,
    equilibrium_temperature,
    evolve,
)
from .kernels import (
    BETA_MAX,
    QuadratureConvergenceError,
    QuadratureSpec,
    QuadResult,
    bose_occupation,
    integrate_1d,
    integrate_omega_x,
    lorentz_gamma,
)
from .observables import (
    BathSpec,
    ObservableBundle,
    ParticleState,
    Quantity,
    drag_combination,
    evaluate_bundle,
    force_lab,
    force_rest_frame,
    force_rest_frame_nr,
    heating_rate,
    intensity,
)
from .oracle import (
    BUILTIN_CASES,
    ConvergenceGateError,
    GridSpec,
    OracleError,
    load_golden,
    mint_builtin,
    mint_golden,
    oracle_value,
    riemann_2d,
)
from .polarizability import (
    DrudeSphere,
    LorentzOscillator,
    Ohmic,
    PolarizabilityModel,
    TopHat,
    alpha_im,
    check_point_dipole,
    model_from_dict,
    model_to_dict,
)
from .units import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    UnitSystem,
    beta_from_velocity,
    velocity_from_beta,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_MAX",
    "BUILTIN_CASES",
    "BathSpec",
    "BracketError",
    "C_LIGHT",
    "ConsistencyReport",
    "ConvergenceGateError",
    "DrudeSphere",
    "DynamicsError",
    "EvolveConfig",
    "GridSpec",
    "HBAR",
    "IdentityCheck",
    "K_BOLTZMANN",
    "LorentzOscillator",
    "MaterialThermo",
    "MonitorViolation",
    "ObservableBundle",
    "Ohmic",
    "OracleError",
    "ParticleState",
    "PolarizabilityModel",
    "QuadResult",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "Quantity",
    "TopHat",
    "Trajectory",
    "TrajectoryPoint",
    "UnitSystem",
    "alpha_im",
    "beta_from_velocity",
    "bose_occupation",
    "check_point_dipole",
    "derivatives",
    "drag_combination",
    "equilibrium_temperature",
    "evaluate_bundle",
    "evolve",
    "force_lab",
    "force_rest_frame",
    "force_rest_frame_alt",
    "force_rest_frame_nr",
    "heating_rate",
    "inner_closed_forms",
    "integrate_1d",
    "integrate_omega_x",
    "intensity",
    "load_golden",
    "lorentz_gamma",
    "mint_builtin",
    "mint_golden",
    "model_from_dict",
    "model_to_dict",
    "oracle_value",
    "riemann_2d",
    "spontaneous_term_cancellation",
    "velocity_from_beta",
    "verify_all",
]
