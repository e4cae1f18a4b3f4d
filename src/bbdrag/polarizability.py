"""Dissipative polarizability models.

Supplies alpha_im(model, omega), the imaginary part of the particle's
summed electric and magnetic polarizability, in internal units
(hbar = c = k_B = 1; polarizability carries volume units).  Four models:

* ``LorentzOscillator(alpha0, omega0, gamma)``:
  alpha'' = alpha0 * omega0^2 * gamma * w / ((omega0^2 - w^2)^2 + gamma^2 w^2)
* ``DrudeSphere(radius, omega_p, nu)``: small sphere with
  eps(w) = 1 - omega_p^2 / (w (w + i nu)) and
  alpha(w) = radius^3 (eps - 1)/(eps + 2), expanded to the real form
  alpha'' = 3 radius^3 omega_p^2 nu w / ((3 w^2 - omega_p^2)^2 + 9 nu^2 w^2)
* ``TopHat(amplitude, omega1, omega2)``: alpha'' = amplitude on
  [omega1, omega2], else 0.  Synthetic test model; the only model whose
  amplitude may be zero (null coupling) and whose alpha'' has jumps.
* ``Ohmic(slope, omega_c)``: alpha'' = slope * w * exp(-w / omega_c),
  with omega_c = None meaning no exponential cutoff.

All models are passive (alpha''(w) >= 0 for w >= 0), immutable, and
evaluated without side effects; alpha'' is exactly 0 outside support(model),
and no quadrature puts a node there.  Negative frequencies are rejected:
every integral in this package runs over w >= 0, so callers never need
the odd continuation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np


def _require_positive(name: str, value: float):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class LorentzOscillator:
    """Damped resonance: static polarizability alpha0, resonance omega0, damping gamma."""

    alpha0: float
    omega0: float
    gamma: float

    def __post_init__(self):
        _require_positive("alpha0", self.alpha0)
        _require_positive("omega0", self.omega0)
        _require_positive("gamma", self.gamma)


@dataclass(frozen=True)
class DrudeSphere:
    """Small metallic sphere: radius, plasma frequency omega_p, collision rate nu."""

    radius: float
    omega_p: float
    nu: float

    def __post_init__(self):
        _require_positive("radius", self.radius)
        _require_positive("omega_p", self.omega_p)
        _require_positive("nu", self.nu)


@dataclass(frozen=True)
class TopHat:
    """Flat synthetic band: alpha'' = amplitude on [omega1, omega2].

    amplitude = 0 is allowed and models a completely decoupled particle.
    """

    amplitude: float
    omega1: float
    omega2: float

    def __post_init__(self):
        a = self.amplitude
        if not (isinstance(a, (int, float)) and math.isfinite(a) and a >= 0.0):
            raise ValueError(f"amplitude must be finite and >= 0, got {a!r}")
        _require_positive("omega1", self.omega1)
        _require_positive("omega2", self.omega2)
        if not self.omega1 < self.omega2:
            raise ValueError(
                f"band edges must satisfy omega1 < omega2, got {self.omega1!r} >= {self.omega2!r}"
            )


@dataclass(frozen=True)
class Ohmic:
    """Linear low-frequency response with optional exponential cutoff."""

    slope: float
    omega_c: float | None = None

    def __post_init__(self):
        _require_positive("slope", self.slope)
        if self.omega_c is not None:
            _require_positive("omega_c", self.omega_c)


PolarizabilityModel = LorentzOscillator | DrudeSphere | TopHat | Ohmic


def alpha_im(model: PolarizabilityModel, omega):
    """Imaginary part of the summed polarizability at frequency omega >= 0.

    Parameters
    ----------
    model : PolarizabilityModel
    omega : float or ndarray
        Frequencies, all >= 0 (internal units).

    Returns
    -------
    float or ndarray
        alpha''(omega) >= 0, same shape as `omega`.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("alpha_im requires omega >= 0; fold oddness at the caller")

    if isinstance(model, LorentzOscillator):
        a0, w0, g = model.alpha0, model.omega0, model.gamma
        out = a0 * w0**2 * g * w / ((w0**2 - w**2) ** 2 + g**2 * w**2)
    elif isinstance(model, DrudeSphere):
        r3, wp, nu = model.radius**3, model.omega_p, model.nu
        out = 3.0 * r3 * wp**2 * nu * w / ((3.0 * w**2 - wp**2) ** 2 + 9.0 * nu**2 * w**2)
    elif isinstance(model, TopHat):
        out = np.where((w >= model.omega1) & (w <= model.omega2), model.amplitude, 0.0)
    elif isinstance(model, Ohmic):
        if model.omega_c is None:
            out = model.slope * w
        else:
            out = model.slope * w * np.exp(-w / model.omega_c)
    else:
        raise TypeError(f"unknown polarizability model {type(model).__name__}")

    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def support(model: PolarizabilityModel) -> tuple[float, float]:
    """(lo, hi), outside which alpha'' is exactly 0: TopHat's band, else (0, inf)."""
    if isinstance(model, TopHat):
        return (model.omega1, model.omega2)
    return (0.0, math.inf)


def feature_frequency(model: PolarizabilityModel) -> float | None:
    """Where a smooth alpha'' lives: omega0, omega_p/sqrt(3) (Drude), omega_c (Ohmic)."""
    if isinstance(model, LorentzOscillator):
        return model.omega0
    if isinstance(model, DrudeSphere):
        return model.omega_p / math.sqrt(3.0)
    return model.omega_c if isinstance(model, Ohmic) else None


def point_dipole_wavelength_bound(t1: float, t2: float) -> float:
    """Tightest thermal-wavelength scale 2*pi / max(T1, T2) (internal units).

    The point-dipole treatment needs the particle radius to be well below
    this; returns inf when both temperatures are zero (no constraint).
    """
    t = max(t1, t2)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"temperatures must be finite and >= 0, got {t1!r}, {t2!r}")
    if t == 0.0:
        return math.inf
    return 2.0 * math.pi / t


def check_point_dipole(radius: float, t1: float, t2: float, margin: float = 0.1):
    """Warn when the radius is not small against the thermal wavelength.

    Emits a UserWarning when radius > margin * 2*pi/max(T1, T2); the
    computation stays evaluable either way, the user judges validity.
    """
    _require_positive("radius", radius)
    bound = point_dipole_wavelength_bound(t1, t2)
    if radius > margin * bound:
        warnings.warn(
            f"particle radius {radius:g} exceeds {margin:g} of the thermal "
            f"wavelength bound {bound:g} (internal units); the point-dipole "
            "treatment is marginal at this size",
            UserWarning,
            stacklevel=2,
        )


_MODEL_TAGS = {
    "lorentz": LorentzOscillator,
    "drude": DrudeSphere,
    "tophat": TopHat,
    "ohmic": Ohmic,
}


def model_from_dict(data: dict) -> PolarizabilityModel:
    """Build a model from a tagged dict, e.g. {"type": "lorentz", "alpha0": ...}."""
    if not isinstance(data, dict):
        raise ValueError(f"model must be an object with a 'type' tag, got {data!r}")
    tag = data.get("type")
    if not isinstance(tag, str) or tag not in _MODEL_TAGS:
        raise ValueError(f"model.type must be one of {sorted(_MODEL_TAGS)}, got {tag!r}")
    cls = _MODEL_TAGS[tag]
    defaults = {f.name: f.default for f in fields(cls)}
    extra = set(data) - {"type", *defaults}
    if extra:
        raise ValueError(f"unexpected model fields for {tag!r}: {sorted(extra)}")
    for name, default in defaults.items():
        if name not in data and default is MISSING:
            raise ValueError(f"model {tag!r} requires field {name!r}")
    return cls(**{k: v for k, v in data.items() if k != "type"})


def model_to_dict(model: PolarizabilityModel) -> dict:
    """Inverse of model_from_dict; tagged plain dict for JSON serialization."""
    for tag, cls in _MODEL_TAGS.items():
        if isinstance(model, cls):
            return {"type": tag, **asdict(model)}
    raise TypeError(f"unknown polarizability model {type(model).__name__}")
