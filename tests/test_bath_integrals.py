"""The 1D production route of the heating rate and the drag.

heating_rate and drag_combination are one integral each over the
rest-frame frequency w', with the angular integral of the bath
occupation in closed form (or a fixed Gauss-Legendre rule in x at low
speed).  They are checked here against mpmath evaluations of the same
1D forms and against the independent reference of perfbench/reference.py.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from bbdrag import (
    BETA_MAX,
    BathSpec,
    ParticleState,
    QuadratureSpec,
    drag_combination,
    heating_rate,
    model_to_dict,
)
from bbdrag import observables
from bbdrag.observables import _CLOSED_FORM_BETA

from conftest import REFERENCE_MODELS, model_label

SPEC = QuadratureSpec()
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"

# mpmath values of the 1D forms at 60 digits (mpmath 1.3.0, mp.quad with
# maxdegree 12, panel edges at the model features and a geometric ladder of
# thermal scales, upper limit 80 D T2 or 80 T1):
#   Qdot  = (2 T2/(pi b g^3)) Int w^3 a'' ln[(1 - e^(-w D/T2))/(1 - e^(-w/(D T2)))] dw
#           - (4/(pi g^2)) Int w^4 a'' n(w, T1) dw
#   drag  = -(2/(pi g^2)) Int w^4 a''(w) J1(w/(g T2)) dw,
#   J1(c) = [Li2(e^-b) - Li2(e^-a) - b g^2 c (ln(1 - e^-a) + ln(1 - e^-b))] / (b^2 g^2 c^2),
#           a = c/(1+b), b = c/(1-b) in the brackets,
# with D = sqrt((1+b)/(1-b)), g the Lorentz factor, mpmath's log, expm1 and
# polylog(2, .), and the betas as the binary floats the engine receives.
# J1 was checked against direct mp.quad of Int (x+b)(1+bx)^-3 n(c/(1+bx)) dx.

# (model, beta) -> (Qdot at T1 = 0.5, T2 = 1; drag at T2 = 1)
ULTRA = {
    ("LorentzOscillator", 0.99999): (7.062720262420454e-05, -4.513539063358506),
    ("LorentzOscillator", 0.999999): (6.66670785243198e-06, -4.3158818097100715),
    ("LorentzOscillator", BETA_MAX): (6.425106635485617e-09, -4.195125743896206),
    ("DrudeSphere", 0.99999): (2.1049959621026933e-05, -1.427999059439107),
    ("DrudeSphere", 0.999999): (2.066139709503377e-06, -1.408661119236565),
    ("DrudeSphere", BETA_MAX): (2.042551263910598e-09, -1.3968787525800048),
    ("TopHat", 0.99999): (-3.506134420457371e-06, -0.02109994014788306),
    ("TopHat", 0.999999): (-3.7691165057326905e-07, -0.007971801198149477),
    ("TopHat", BETA_MAX): (-3.92109821672464e-10, -0.00037506179194147474),
    ("Ohmic", 0.99999): (0.012849405683263612, -643.7823289525555),
    ("Ohmic", 0.999999): (0.0005573647697580908, -280.05384662715466),
    ("Ohmic", BETA_MAX): (2.9668521339760137e-08, -16.213082381718873),
}

# (model, beta, T2) -> (Qdot at T1 = T2/2; drag)
GRID = {
    ("LorentzOscillator", 1e-08, 0.3): (0.0737133651648545, -1.509403069440094e-09),
    ("LorentzOscillator", 1e-08, 3.0): (64.18395767776033, -5.101627378716984e-07),
    ("LorentzOscillator", 1e-05, 0.3): (0.07371336518301012, -1.509403069672249e-06),
    ("LorentzOscillator", 1e-05, 3.0): (64.18395767028741, -0.0005101627378787303),
    ("LorentzOscillator", 0.001, 0.3): (0.0737135467212618, -0.0001509405390992457),
    ("LorentzOscillator", 0.001, 3.0): (64.18388294848012, -0.05101628081912077),
    ("LorentzOscillator", 0.499, 0.3): (0.11260567363861362, -0.10918023738137707),
    ("LorentzOscillator", 0.499, 3.0): (45.92551952641665, -26.387507519036703),
    ("LorentzOscillator", 0.5, 0.3): (0.11273038006274398, -0.10955931722172599),
    ("LorentzOscillator", 0.5, 3.0): (45.853837431084514, -26.44436152843322),
    ("LorentzOscillator", 0.501, 0.3): (0.11285503004456657, -0.10993959196153659),
    ("LorentzOscillator", 0.501, 3.0): (45.78202596076098, -26.501241261073968),
    ("LorentzOscillator", 0.95, 0.3): (0.06282033150342893, -0.6182713167351905),
    ("LorentzOscillator", 0.95, 3.0): (4.02020498947583, -53.92450848549799),
    ("DrudeSphere", 1e-08, 0.3): (0.06311664885083357, -8.737497265481166e-10),
    ("DrudeSphere", 1e-08, 3.0): (13.002260150850633, -1.09077116501106e-07),
    ("DrudeSphere", 1e-05, 0.3): (0.06311664885045444, -8.737497265824891e-07),
    ("DrudeSphere", 1e-05, 3.0): (13.00226014944249, -0.00010907711650299551),
    ("DrudeSphere", 0.001, 0.3): (0.06311664505955639, -8.737500702724949e-05),
    ("DrudeSphere", 0.001, 3.0): (13.002246069416785, -0.01090771353961458),
    ("DrudeSphere", 0.499, 0.3): (0.059595731691009624, -0.048510330882573116),
    ("DrudeSphere", 0.499, 3.0): (9.53088300633151, -5.702127543443034),
    ("DrudeSphere", 0.5, 0.3): (0.059570422317534635, -0.04863032096978227),
    ("DrudeSphere", 0.5, 3.0): (9.517113093502319, -5.714708637338529),
    ("DrudeSphere", 0.501, 0.3): (0.0595449653543726, -0.048750476618000284),
    ("DrudeSphere", 0.501, 3.0): (9.503317031208494, -5.727297688508908),
    ("DrudeSphere", 0.95, 0.3): (0.014788094431325083, -0.14478402164860277),
    ("DrudeSphere", 0.95, 3.0): (1.031037525555666, -12.91876988697585),
    ("TopHat", 1e-08, 0.3): (0.039637458951566354, -5.012573763273013e-10),
    ("TopHat", 1e-08, 3.0): (2.321710971748569, -1.5694071064842236e-08),
    ("TopHat", 1e-05, 0.3): (0.03963745894993594, -5.012573763375484e-07),
    ("TopHat", 1e-05, 3.0): (2.3217109714401216, -1.5694071064990568e-05),
    ("TopHat", 0.001, 0.3): (0.03963744264744023, -5.0125747879826325e-05),
    ("TopHat", 0.001, 3.0): (2.3217078872702213, -0.0015694072548144951),
    ("TopHat", 0.499, 0.3): (0.03430609810574045, -0.026395466550385504),
    ("TopHat", 0.499, 3.0): (1.5778525021882186, -0.801106736488003),
    ("TopHat", 0.5, 0.3): (0.034279332727763935, -0.026454382732819744),
    ("TopHat", 0.5, 3.0): (1.574977281707823, -0.8027803884288213),
    ("TopHat", 0.501, 0.3): (0.03425246847824871, -0.0265133388530151),
    ("TopHat", 0.501, 3.0): (1.572097290373408, -0.8044543938013068),
    ("TopHat", 0.95, 0.3): (0.005675990576021447, -0.0555536481141292),
    ("TopHat", 0.95, 3.0): (0.05440157361094492, -1.395399578309661),
    ("Ohmic", 1e-08, 0.3): (0.07866412874146203, -1.5131838277616526e-09),
    ("Ohmic", 1e-08, 3.0): (6694.524076179844, -8.970257252215692e-05),
    ("Ohmic", 1e-05, 0.3): (0.07866412876089318, -1.5131838280924983e-06),
    ("Ohmic", 1e-05, 3.0): (6694.524076164155, -0.0897025725271097),
    ("Ohmic", 0.001, 0.3): (0.07866432305326476, -0.0001513187136225494),
    ("Ohmic", 0.001, 3.0): (6694.523919289882, -8.970262205000376),
    ("Ohmic", 0.499, 0.3): (0.13843578445712396, -0.137076931305736),
    ("Ohmic", 0.499, 3.0): (6432.338631780791, -5193.956840974412),
    ("Ohmic", 0.5, 0.3): (0.1387327570813097, -0.13771620605332416),
    ("Ohmic", 0.5, 3.0): (6430.2691223969305, -5207.740090296846),
    ("Ohmic", 0.501, 0.3): (0.13903089700129845, -0.13835899655148262),
    ("Ohmic", 0.501, 3.0): (6428.186203694238, -5221.548261473561),
    ("Ohmic", 0.95, 0.3): (0.7162611084567257, -7.215531683809901),
    ("Ohmic", 0.95, 3.0): (1779.9411784444505, -17585.879525957815),
}

GRID_BETAS = (1e-8, 1e-5, 1e-3, _CLOSED_FORM_BETA - 1e-3, _CLOSED_FORM_BETA,
              _CLOSED_FORM_BETA + 1e-3, 0.95)
ULTRA_BETAS = (0.99999, 0.999999, BETA_MAX)


def _meets(q, expected: float) -> bool:
    return abs(q.value - expected) <= q.error


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=model_label)
@pytest.mark.parametrize("beta", ULTRA_BETAS)
def test_ultra_relativistic_values_meet_mpmath(model, beta):
    qdot, drag = ULTRA[model_label(model), beta]
    state, bath = ParticleState(beta, 1.0, 0.5), BathSpec(1.0)
    q = heating_rate(state, bath, model, SPEC)
    d = drag_combination(state, bath, model, SPEC)
    assert _meets(q, qdot), (q.value, q.error, qdot)
    assert _meets(d, drag), (d.value, d.error, drag)


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=model_label)
def test_values_meet_mpmath_across_speed_and_the_crossover(model):
    for beta, t2 in itertools.product(GRID_BETAS, (0.3, 3.0)):
        qdot, drag = GRID[model_label(model), beta, t2]
        state, bath = ParticleState(beta, 1.0, t2 / 2.0), BathSpec(t2)
        q = heating_rate(state, bath, model, SPEC)
        d = drag_combination(state, bath, model, SPEC)
        assert _meets(q, qdot), (beta, t2, q.value, q.error, qdot)
        assert _meets(d, drag), (beta, t2, d.value, d.error, drag)


def test_no_2d_quadrature_behind_heating_and_drag(monkeypatch):
    calls = []
    original = observables.integrate_omega_x

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(observables, "integrate_omega_x", counted)
    for model, beta in itertools.product(REFERENCE_MODELS, (0.0, 0.3, 0.9)):
        state, bath = ParticleState(beta, 1.0, 0.7), BathSpec(1.3)
        q = heating_rate(state, bath, model, SPEC)
        d = drag_combination(state, bath, model, SPEC)
        assert q.diagnostics["neval"] == d.diagnostics["neval"] == 0
        assert q.diagnostics["nodes"] > 0
        if beta > 0.0:
            assert d.diagnostics["nodes"] > 0
    assert calls == []


def _load_reference(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is read-only here
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heating_rate_meets_the_reference_where_its_terms_cancel(monkeypatch):
    """At T1 = T2 the two terms of Qdot cancel to a share of about beta^2.

    The engine's error must still cover its distance to the reference,
    the reference's own error included, with no safety factor.
    """
    reference = _load_reference(monkeypatch)
    misses = []
    for model, beta, t in itertools.product(
        REFERENCE_MODELS, (1e-3, 0.011, 0.05, 0.2, 0.596, 0.9), (0.3, 0.69, 1.28, 3.0)
    ):
        q = heating_rate(ParticleState(beta, 1.0, t), BathSpec(t), model, SPEC)
        ref, ref_err = reference.heating_rate(model_to_dict(model), beta, t, t)
        if not abs(q.value - ref) <= q.error + ref_err:
            misses.append((model_label(model), beta, t, q.value, q.error, ref, ref_err))
    assert misses == []
