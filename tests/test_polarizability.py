"""Polarizability models: formulas, passivity, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bbdrag import (
    DrudeSphere,
    LorentzOscillator,
    Ohmic,
    TopHat,
    alpha_im,
    check_point_dipole,
    model_from_dict,
    model_to_dict,
)
from bbdrag.polarizability import point_dipole_wavelength_bound, support

from conftest import REFERENCE_MODELS


# ----------------------------------------------------------------- formulas


def test_lorentz_peak_value():
    # on resonance the response is alpha0 * omega0 / gamma
    m = LorentzOscillator(alpha0=2.0, omega0=3.0, gamma=0.25)
    assert alpha_im(m, 3.0) == pytest.approx(2.0 * 3.0 / 0.25, rel=1e-14)


def test_lorentz_static_limit_slope():
    # alpha'' ~ alpha0 * gamma * w / omega0^2 for w -> 0
    m = LorentzOscillator(alpha0=1.5, omega0=2.0, gamma=0.5)
    w = 1e-6
    assert alpha_im(m, w) == pytest.approx(1.5 * 0.5 * w / 4.0, rel=1e-9)


def test_drude_matches_complex_arithmetic():
    """Real-form alpha'' equals Im[R^3 (eps-1)/(eps+2)] with Drude eps."""
    m = DrudeSphere(radius=1.3, omega_p=2.0, nu=0.4)
    for w in (0.05, 0.3, 1.0, 1.1547, 3.0, 20.0):
        eps = 1.0 - m.omega_p**2 / (w * (w + 1j * m.nu))
        expected = (m.radius**3 * (eps - 1.0) / (eps + 2.0)).imag
        assert alpha_im(m, w) == pytest.approx(expected, rel=1e-12), f"w={w}"


def test_drude_surface_mode_peak():
    # (eps + 2) resonance sits at w = omega_p / sqrt(3)
    m = DrudeSphere(radius=1.0, omega_p=2.0, nu=0.1)
    w_res = m.omega_p / math.sqrt(3.0)
    grid = np.linspace(0.2, 3.0, 3001)
    values = alpha_im(m, grid)
    assert abs(grid[np.argmax(values)] - w_res) < 2e-3


def test_tophat_band_and_edges():
    m = TopHat(amplitude=2.5, omega1=1.0, omega2=2.0)
    assert alpha_im(m, 0.5) == 0.0
    assert alpha_im(m, 1.0) == 2.5
    assert alpha_im(m, 1.5) == 2.5
    assert alpha_im(m, 2.0) == 2.5
    assert alpha_im(m, 2.5) == 0.0
    assert support(m) == (1.0, 2.0)


def test_null_coupling_tophat_is_identically_zero():
    m = TopHat(amplitude=0.0, omega1=1.0, omega2=2.0)
    assert np.all(alpha_im(m, np.linspace(0.0, 5.0, 100)) == 0.0)


def test_ohmic_with_and_without_cutoff():
    assert alpha_im(Ohmic(2.0, None), 3.0) == 6.0
    assert alpha_im(Ohmic(2.0, 5.0), 3.0) == pytest.approx(6.0 * math.exp(-0.6), rel=1e-14)
    assert support(Ohmic(1.0, None)) == (0.0, math.inf)


# --------------------------------------------------------------- properties


@given(w=st.floats(min_value=0.0, max_value=1e6))
def test_passivity_everywhere(w):
    for m in REFERENCE_MODELS:
        assert alpha_im(m, w) >= 0.0


def test_vectorized_matches_scalar():
    grid = np.array([0.0, 0.3, 1.0, 2.0, 7.7])
    for m in REFERENCE_MODELS:
        vec = alpha_im(m, grid)
        assert vec.shape == grid.shape
        for w, v in zip(grid, vec):
            assert v == alpha_im(m, float(w))


def test_high_frequency_decay():
    for m in REFERENCE_MODELS:
        assert alpha_im(m, 1e6) < 1e-6


def test_negative_frequency_rejected():
    with pytest.raises(ValueError, match="omega >= 0"):
        alpha_im(REFERENCE_MODELS[0], -1.0)
    with pytest.raises(ValueError, match="omega >= 0"):
        alpha_im(REFERENCE_MODELS[0], np.array([0.5, -0.5]))


# --------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LorentzOscillator(0.0, 1.0, 1.0),
        lambda: LorentzOscillator(1.0, -1.0, 1.0),
        lambda: LorentzOscillator(1.0, 1.0, math.nan),
        lambda: DrudeSphere(0.0, 1.0, 1.0),
        lambda: DrudeSphere(1.0, 1.0, 0.0),
        lambda: TopHat(-1.0, 1.0, 2.0),
        lambda: TopHat(1.0, 2.0, 1.0),
        lambda: TopHat(1.0, 2.0, 2.0),
        lambda: Ohmic(0.0),
        lambda: Ohmic(1.0, -3.0),
    ],
)
def test_invalid_parameters_rejected(factory):
    with pytest.raises(ValueError):
        factory()


# ------------------------------------------------------------ serialization


def test_dict_round_trip():
    for m in REFERENCE_MODELS + (Ohmic(2.0, None),):
        assert model_from_dict(model_to_dict(m)) == m


def test_model_dicts_list_every_field_in_order():
    assert model_to_dict(REFERENCE_MODELS[0]) == {
        "type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 0.5}
    assert list(model_to_dict(REFERENCE_MODELS[2])) == ["type", "amplitude", "omega1", "omega2"]
    assert model_to_dict(Ohmic(2.0)) == {"type": "ohmic", "slope": 2.0, "omega_c": None}
    assert model_from_dict({"type": "ohmic", "slope": 2.0}) == Ohmic(2.0, None)


def test_model_from_dict_errors():
    with pytest.raises(ValueError, match="type"):
        model_from_dict({"slope": 1.0})
    with pytest.raises(ValueError) as e:
        model_from_dict({"type": "unknown-model"})
    assert str(e.value) == ("model.type must be one of ['drude', 'lorentz', 'ohmic', 'tophat'], "
                            "got 'unknown-model'")
    with pytest.raises(ValueError) as e:
        model_from_dict({"type": "ohmic", "slope": 1.0, "extra": 2.0, "alpha0": 1.0})
    assert str(e.value) == "unexpected model fields for 'ohmic': ['alpha0', 'extra']"
    with pytest.raises(ValueError) as e:
        model_from_dict({"type": "lorentz", "alpha0": 1.0, "gamma": 0.5})
    assert str(e.value) == "model 'lorentz' requires field 'omega0'"
    with pytest.raises(ValueError) as e:
        model_from_dict({"type": "ohmic", "omega_c": 1.0})
    assert str(e.value) == "model 'ohmic' requires field 'slope'"


# ------------------------------------------------------- point-dipole guard


def test_wavelength_bound():
    assert point_dipole_wavelength_bound(0.0, 0.0) == math.inf
    assert point_dipole_wavelength_bound(1.0, 2.0) == pytest.approx(math.pi, rel=1e-15)


def test_point_dipole_warning_fires_only_when_large():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_point_dipole(radius=0.01, t1=1.0, t2=1.0)  # small: silent
    with pytest.warns(UserWarning, match="point-dipole"):
        check_point_dipole(radius=5.0, t1=1.0, t2=1.0)
