"""Natural-unit system and SI conversions.

Every physics module in this package works in internal units with
hbar = c = k_B = 1.  The scale is set by a single reference temperature
T_ref through the reference angular frequency

    omega_ref = k_B * T_ref / hbar

so a temperature equal to T_ref maps to 1.0, an angular frequency equal
to omega_ref maps to 1.0, and the remaining kinds follow from
hbar = c = k_B = 1:

    kind                     one internal unit in SI
    ----------------------   -------------------------------
    frequency                omega_ref                [rad/s]
    temperature              T_ref                    [K]
    time                     1 / omega_ref            [s]
    mass                     hbar * omega_ref / c^2   [kg]
    force                    hbar * omega_ref^2 / c   [N]
    power                    hbar * omega_ref^2       [W]
    polarizability-volume    (c / omega_ref)^3        [m^3]

SI values appear only at the CLI boundary; the numerical core never
sees a dimensionful number.  Velocity is deliberately not a convertible
kind: the dimensionless beta = v/c is the native variable, and
``beta_from_velocity`` / ``velocity_from_beta`` handle the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 exact values (SI definitional constants).
HBAR = 1.054571817e-34      # J s
C_LIGHT = 2.99792458e8      # m/s
K_BOLTZMANN = 1.380649e-23  # J/K

DEFAULT_REFERENCE_TEMPERATURE = 300.0  # K

KINDS = (
    "frequency",
    "temperature",
    "time",
    "mass",
    "force",
    "power",
    "polarizability-volume",
)


@dataclass(frozen=True)
class UnitSystem:
    """Conversion table between SI and the internal hbar = c = k_B = 1 units.

    Parameters
    ----------
    reference_temperature : float
        T_ref in kelvin.  Must be positive and finite.
    """

    reference_temperature: float = DEFAULT_REFERENCE_TEMPERATURE

    def __post_init__(self):
        t = self.reference_temperature
        if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
            raise ValueError(
                f"reference_temperature must be finite and positive, got {t!r}"
            )

    @property
    def omega_ref(self) -> float:
        """Reference angular frequency k_B * T_ref / hbar in rad/s."""
        return K_BOLTZMANN * self.reference_temperature / HBAR

    def _si_per_internal(self, kind: str) -> float:
        """SI value of one internal unit of `kind`."""
        w = self.omega_ref
        if kind == "frequency":
            return w
        if kind == "temperature":
            return self.reference_temperature
        if kind == "time":
            return 1.0 / w
        if kind == "mass":
            return HBAR * w / C_LIGHT**2
        if kind == "force":
            return HBAR * w**2 / C_LIGHT
        if kind == "power":
            return HBAR * w**2
        if kind == "polarizability-volume":
            return (C_LIGHT / w) ** 3
        raise ValueError(f"unknown unit kind {kind!r}; expected one of {KINDS}")

    def to_internal(self, value: float, kind: str) -> float:
        """Convert an SI value of the given kind to internal units."""
        _check_finite(value, kind)
        return value / self._si_per_internal(kind)

    def from_internal(self, value: float, kind: str) -> float:
        """Convert an internal value of the given kind back to SI."""
        _check_finite(value, kind)
        return value * self._si_per_internal(kind)


def _check_finite(value: float, kind: str):
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"cannot convert non-finite {kind} value {value!r}")


def beta_from_velocity(velocity_m_per_s: float) -> float:
    """Dimensionless beta = v/c from a lab-frame speed in m/s.

    Raises ValueError unless |v| < c.
    """
    v = velocity_m_per_s
    if not (isinstance(v, (int, float)) and math.isfinite(v)):
        raise ValueError(f"velocity must be finite, got {v!r}")
    if abs(v) >= C_LIGHT:
        raise ValueError(f"|velocity| must be below c = {C_LIGHT} m/s, got {v!r}")
    return v / C_LIGHT


def velocity_from_beta(beta: float) -> float:
    """Lab-frame speed in m/s from dimensionless beta."""
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)):
        raise ValueError(f"beta must be finite, got {beta!r}")
    return beta * C_LIGHT
