"""Acceptance gate: one test per release criterion.

Each test prints as a single pass/fail line under ``pytest -v``.  The
criteria cover, in order:

 1. cancellation of the particle-temperature terms between the lab
    force and the heating drift, plus the 1D reduction of that term;
 2. energy balance I + Qdot + beta*F_x = 0 across a parameter grid;
 3. the frame relation F'_x = F_x - gamma^2*beta*Qdot on the same grid;
 4. T1-independence of the drag combination;
 5. agreement of the two independent rest-frame force integrals;
 6. analytically known values (emitted power, nonrelativistic drag,
    inner angular integrals);
 7. the nonrelativistic limit of the rest-frame force;
 8. golden cases against the independent midpoint oracle, including
    the oracle's own grid-doubling gate;
 9. energy bookkeeping along an integrated trajectory;
10. separation of the temperature-relaxation and slowdown timescales;
11. byte-level determinism of the CLI regardless of thread count.

Every numerical tolerance below is part of the release contract, as is
each stated wall-clock budget (asserted against generous limits so the
gate also fails if performance regresses catastrophically).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from bbdrag import (
    BathSpec,
    EvolveConfig,
    GridSpec,
    MaterialThermo,
    Ohmic,
    ParticleState,
    QuadratureSpec,
    TopHat,
    drag_combination,
    equilibrium_temperature,
    evolve,
    force_rest_frame,
    force_rest_frame_alt,
    force_rest_frame_nr,
    inner_closed_forms,
    intensity,
    load_golden,
    lorentz_gamma,
    mint_golden,
    model_from_dict,
    oracle_value,
    spontaneous_term_cancellation,
    verify_all,
)
from bbdrag.oracle import BUILTIN_CASES

from conftest import REFERENCE_MODELS, model_label, rel_diff

SPEC = QuadratureSpec()

# --------------------------------------------------------------------------
# shared grid for the two identity criteria (computed once, asserted twice)
# --------------------------------------------------------------------------

GRID_BETAS = (0.0, 0.1, 0.3, 0.6, 0.9)
GRID_TEMPS = (0.0, 0.1, 1.0, 10.0)


@pytest.fixture(scope="module")
def identity_grid():
    """Energy-balance and frame-force checks over (beta, T1, T2, model).

    The T1 = T2 = 0 corner is skipped: every observable vanishes
    identically there and the check degenerates to 0 = 0.
    """
    t0 = time.perf_counter()
    energy, frame = [], []
    for model in REFERENCE_MODELS:
        for beta in GRID_BETAS:
            for t1 in GRID_TEMPS:
                for t2 in GRID_TEMPS:
                    if t1 == 0.0 and t2 == 0.0:
                        continue
                    state = ParticleState(beta=beta, mass=1.0, temperature=t1)
                    bath = BathSpec(temperature=t2)
                    tag = f"{model_label(model)} beta={beta} T1={t1} T2={t2}"
                    checks = {c.name: c for c in verify_all(state, bath, model, SPEC).checks}
                    energy.append((tag, checks["energy-balance"]))
                    frame.append((tag, checks["frame-force-relation"]))
    return energy, frame, time.perf_counter() - t0


def _assert_grid(checks, wall, budget_s):
    failures = [
        f"{tag}: |{c.lhs:.6e} - {c.rhs:.6e}| = {c.residual:.3e} > tol {c.tolerance:.3e}"
        for tag, c in checks
        if not c.passed
    ]
    assert not failures, f"{len(failures)} grid points failed:\n" + "\n".join(failures)
    assert wall < budget_s, f"grid took {wall:.1f}s > {budget_s}s budget"


def test_criterion_01_spontaneous_term_cancellation():
    """T1-driven parts of F_x and gamma^2*beta*Qdot agree to 1e-7 rel."""
    t0 = time.perf_counter()
    bath = BathSpec(temperature=1.0)  # bath plays no role in these terms
    worst_cancel = worst_reduce = 0.0
    for model in REFERENCE_MODELS:
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            for t1 in (0.5, 1.0, 5.0):
                state = ParticleState(beta=beta, mass=1.0, temperature=t1)
                terms = spontaneous_term_cancellation(state, bath, model, SPEC)
                scale = abs(terms.force_term.value)
                assert scale > 0.0, f"degenerate point {model_label(model)} {beta} {t1}"
                cancel = abs(terms.force_term.value - terms.drift_term.value) / scale
                reduced_force = -beta * intensity(state, bath, model, SPEC)[1].value
                reduce_ = abs(terms.force_term.value - reduced_force) / scale
                tag = f"{model_label(model)} beta={beta} T1={t1}"
                assert cancel <= 1e-7, f"{tag}: cancellation rel {cancel:.3e} > 1e-7"
                assert reduce_ <= 1e-7, f"{tag}: 1D reduction rel {reduce_:.3e} > 1e-7"
                worst_cancel = max(worst_cancel, cancel)
                worst_reduce = max(worst_reduce, reduce_)
    wall = time.perf_counter() - t0
    assert wall < 60.0, f"took {wall:.1f}s > 60s budget"


def test_criterion_02_energy_balance_grid(identity_grid):
    """|I + Qdot + beta*F_x| <= 10x combined quadrature error, full grid."""
    energy, _, wall = identity_grid
    _assert_grid(energy, wall, 240.0)


def test_criterion_03_frame_force_grid(identity_grid):
    """|F'_x - (F_x - g^2 beta Qdot)| <= 10x combined error, full grid."""
    _, frame, wall = identity_grid
    _assert_grid(frame, wall, 240.0)


def test_criterion_04_drag_independent_of_particle_temperature():
    """Sweeping T1 over {0, 0.1, 1, 10} moves the drag by <= 1e-7 rel.

    The exported drag combination is built from the bath-temperature
    integral alone, so this holds by construction; the nontrivial
    cancellation that justifies that construction is criterion 1 and
    the drag-composition identity exercised in the consistency tests.
    """
    bath = BathSpec(temperature=1.0)
    for model in REFERENCE_MODELS:
        values = []
        for t1 in (0.0, 0.1, 1.0, 10.0):
            state = ParticleState(beta=0.5, mass=1.0, temperature=t1)
            values.append(drag_combination(state, bath, model, SPEC).value)
        spread = (max(values) - min(values)) / max(abs(v) for v in values)
        assert spread <= 1e-7, f"{model_label(model)}: drag T1-spread {spread:.3e}"


def test_criterion_05_rest_force_dual_forms_agree():
    """Direct and frame-transformed rest-force integrals match, rel 1e-6."""
    bath = BathSpec(temperature=1.0)
    for model in REFERENCE_MODELS:
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            state = ParticleState(beta=beta, mass=1.0, temperature=0.0)
            a = force_rest_frame(state, bath, model, SPEC)
            b = force_rest_frame_alt(state, bath, model, SPEC)
            d = rel_diff(a.value, b.value)
            assert d <= 1e-6, (
                f"{model_label(model)} beta={beta}: dual forms differ rel {d:.3e}"
            )


def test_criterion_06_closed_forms():
    """Known analytic values: emitted power, NR drag, inner integrals."""
    # (a) emitted power of a unit-slope Ohmic particle at rest:
    #     (2/pi) * Gamma(6) * zeta(6) = 32 pi^5 / 63
    state = ParticleState(beta=0.0, mass=1.0, temperature=1.0)
    _, emitted, _ = intensity(state, BathSpec(0.0), Ohmic(1.0, None), SPEC)
    expected_a = 32.0 * math.pi**5 / 63.0
    d = rel_diff(emitted.value, expected_a)
    assert d <= 1e-6, f"emitted power vs 32*pi^5/63: rel {d:.3e}"

    # (b) nonrelativistic rest-frame drag of the same model:
    #     -(64 pi^5 / 63) * beta * T2^6
    coeff = 64.0 * math.pi**5 / 63.0
    for beta, t2 in ((0.1, 1.0), (0.05, 0.5), (0.02, 2.0)):
        got = force_rest_frame_nr(beta, BathSpec(t2), Ohmic(1.0, None), SPEC).value
        want = -coeff * beta * t2**6
        d = rel_diff(got, want)
        assert d <= 1e-6, f"NR drag at beta={beta}, T2={t2}: rel {d:.3e}"

    # (c) inner angular integrals against -2*beta*gamma^4 and 2*gamma^2
    for beta in (0.1, 0.5, 0.9):
        g = lorentz_gamma(beta)
        qa, qb = inner_closed_forms(beta, SPEC)
        da = rel_diff(qa, -2.0 * beta * g**4)
        db = rel_diff(qb, 2.0 * g**2)
        assert da <= 1e-10, f"x(1+bx)^-3 integral at beta={beta}: rel {da:.3e}"
        assert db <= 1e-10, f"(1+bx)^-2 integral at beta={beta}: rel {db:.3e}"
    qa, qb = inner_closed_forms(0.5, SPEC)
    assert rel_diff(qa, -16.0 / 9.0) <= 1e-10
    assert rel_diff(qb, 8.0 / 3.0) <= 1e-10


def test_criterion_07_nonrelativistic_limit():
    """Full/NR rest-force ratio -> 1 as beta -> 0, inside [0.99, 1.01]."""
    bath = BathSpec(temperature=1.0)
    model = Ohmic(1.0, None)
    deviations = []
    for beta in (1e-2, 3e-3, 1e-3):
        state = ParticleState(beta=beta, mass=1.0, temperature=0.0)
        full = force_rest_frame(state, bath, model, SPEC).value
        nr = force_rest_frame_nr(beta, bath, model, SPEC).value
        ratio = full / nr
        deviations.append(abs(ratio - 1.0))
        if beta == 1e-3:
            assert 0.99 <= ratio <= 1.01, f"ratio at beta=1e-3: {ratio!r}"
    assert deviations[0] > deviations[1] > deviations[2], (
        f"deviation not decreasing with beta: {deviations}"
    )


def test_criterion_08_golden_cases_match_oracle():
    """Golden values: engine agreement, coverage, and a live oracle gate."""
    t0 = time.perf_counter()
    records = load_golden()
    assert len(records) >= 6, f"only {len(records)} golden cases"

    # coverage: every exported observable family appears
    observables = {r["observable"] for r in records}
    for needed in (
        "force_lab",
        "heating_rate",
        {"intensity", "intensity_emitted", "intensity_absorbed"},
        "drag_combination",
        "force_rest_frame",
    ):
        if isinstance(needed, set):
            assert observables & needed, f"no golden case for any of {needed}"
        else:
            assert needed in observables, f"no golden case for {needed}"

    # stored gate evidence: the doubling-stability ratio was recorded
    for rec in records:
        assert rec["grid_rel_change"] <= 1e-6, (
            f"{rec['name']}: stored doubling change {rec['grid_rel_change']:.3e}"
        )

    # engine vs oracle value, rel 1e-6
    from bbdrag import evaluate_bundle

    for rec in records:
        inp = rec["inputs"]
        model = model_from_dict(inp["model"])
        state = ParticleState(beta=inp["beta"], mass=1.0, temperature=inp["t1"])
        bath = BathSpec(inp["t2"])
        obs = rec["observable"]
        if obs == "drag_combination":
            got = drag_combination(state, bath, model, SPEC).value
        elif obs == "force_rest_frame":
            got = force_rest_frame(state, bath, model, SPEC).value
        else:
            bundle = evaluate_bundle(state, bath, model, SPEC)
            got = getattr(bundle, obs).value
        d = rel_diff(got, rec["value"])
        assert d <= 1e-6, f"{rec['name']}: engine vs golden rel {d:.3e}"

    # live grid-doubling gate on the sub-second cases, plus direct
    # oracle evaluation equal to the stored value
    cheap = {"heating-ohmic-hot-particle", "emission-ohmic-closed-form", "net-intensity-drude"}
    by_name = {c["name"]: c for c in BUILTIN_CASES}
    stored = {r["name"]: r for r in records}
    for name in sorted(cheap):
        fresh = mint_golden(by_name[name])  # raises on gate failure
        assert rel_diff(fresh["value"], stored[name]["value"]) <= 1e-12, (
            f"{name}: re-minted value drifted from stored golden"
        )
        case = by_name[name]
        grid = GridSpec(
            omega_max=fresh["grid"]["omega_max"],
            n_omega=2 * fresh["grid"]["n_omega"],
            n_x=2 * fresh["grid"]["n_x"],
        )
        direct = oracle_value(
            case["observable"],
            case["beta"],
            case["t1"],
            case["t2"],
            model_from_dict(case["model"]),
            grid,
        )
        assert rel_diff(direct, fresh["value"]) <= 1e-12

    wall = time.perf_counter() - t0
    assert wall < 600.0, f"took {wall:.1f}s > 10min budget"


# --------------------------------------------------------------------------
# dynamics criteria share one physical setup: a hot TopHat particle
# launched at beta = 0.5 into a unit-temperature bath
# --------------------------------------------------------------------------

DYN_MODEL = TopHat(amplitude=1.0, omega1=0.5, omega2=1.5)
DYN_BATH = BathSpec(temperature=1.0)
DYN_STATE0 = ParticleState(beta=0.5, mass=100.0, temperature=2.0)


def test_criterion_09_energy_bookkeeping_along_trajectory():
    """|Delta(gamma m) + radiated| <= 1e-6 of radiated over a 1% slowdown."""
    t0 = time.perf_counter()
    thermo = MaterialThermo(specific_heat=3e-4)
    cfg = EvolveConfig(
        t_end=50.0,
        rel_tol=1e-12,
        abs_tol=1e-13,
        beta_stop=0.495,
    )
    with pytest.warns(UserWarning, match="rest-mass feedback"):
        traj = evolve(DYN_STATE0, DYN_BATH, DYN_MODEL, thermo, cfg, SPEC)
    wall = time.perf_counter() - t0

    assert traj.termination == "beta_stop", traj.termination
    betas = np.array([p.beta for p in traj.points])
    assert betas[0] == 0.5 and betas[-1] <= 0.495
    assert np.all(np.diff(betas) < 0.0), "beta not strictly decreasing"

    assert traj.radiated_energy > 0.0
    rel = traj.bookkeeping_residual / traj.radiated_energy
    assert rel <= 1e-6, (
        f"bookkeeping residual {traj.bookkeeping_residual:.3e} is "
        f"{rel:.3e} of radiated {traj.radiated_energy:.6e} (> 1e-6)"
    )
    assert wall < 300.0, f"took {wall:.1f}s > 5min budget"


def test_criterion_10_timescale_separation():
    """Temperature relaxes >= 10x faster than the velocity decays.

    Reference parameter set (documented in docs/config.md): TopHat
    model (A=1, band 0.5..1.5), bath T2=1, start beta=0.5, T1=2,
    m=100, specific heat 0.01.
    """
    t0 = time.perf_counter()
    thermo = MaterialThermo(specific_heat=0.01)
    cfg = EvolveConfig(t_end=600.0, rel_tol=1e-8, abs_tol=1e-10)
    with pytest.warns(UserWarning, match="rest-mass feedback"):
        traj = evolve(DYN_STATE0, DYN_BATH, DYN_MODEL, thermo, cfg, SPEC)

    t = np.array([p.t for p in traj.points])
    beta = np.array([p.beta for p in traj.points])
    temp = np.array([p.temperature for p in traj.points])

    # temperature e-folding: fit ln|T1 - T1*(beta)| over the approach
    early = t <= 6.0
    dev = np.array([
        temp[i] - equilibrium_temperature(beta[i], DYN_BATH, DYN_MODEL, SPEC)
        for i in np.nonzero(early)[0]
    ])
    mask = np.abs(dev) > 1e-8
    assert mask.sum() >= 8, "too few usable early samples"
    slope_t = np.polyfit(t[early][mask], np.log(np.abs(dev[mask])), 1)[0]
    tau_temp = -1.0 / slope_t
    assert tau_temp > 0.0, f"temperature deviation not decaying: {slope_t}"

    # velocity e-folding: fit ln(beta) on the late, thermalized stretch
    late = t >= 50.0
    assert late.sum() >= 8, "too few late samples"
    slope_b = np.polyfit(t[late], np.log(beta[late]), 1)[0]
    tau_beta = -1.0 / slope_b
    assert tau_beta > 0.0, f"velocity not decaying: {slope_b}"

    ratio = tau_beta / tau_temp
    assert ratio >= 10.0, (
        f"timescale ratio {ratio:.1f} < 10 (tau_T={tau_temp:.3g}, tau_beta={tau_beta:.3g})"
    )
    wall = time.perf_counter() - t0
    assert wall < 300.0, f"took {wall:.1f}s > 5min budget"


def test_criterion_11_cli_determinism_across_threads(tmp_path):
    """verify and evolve outputs are byte-identical at 1 and 2 BLAS threads.

    numpy's BLAS reads OPENBLAS_NUM_THREADS / OMP_NUM_THREADS when it
    loads, so each run is a fresh subprocess.
    """
    config = {
        "particle": {"beta": 0.4, "mass": 50.0, "temperature": 1.5, "specific_heat": 0.01},
        "bath": {"temperature": 1.0},
        "model": {"type": "tophat", "amplitude": 1.0, "omega1": 0.5, "omega2": 1.5},
        "evolve": {"t_end": 2.0, "mode": "quasi-static-T1"},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    def run_cli(args, threads, hash_seed):
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        env["PYTHONHASHSEED"] = str(hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "bbdrag.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = {}
    for label, threads, seed in (("a", 1, 0), ("b", 2, 12345)):
        for sub in ("verify", "evolve"):
            out = tmp_path / f"{sub}-{label}.out"
            run_cli([sub, "--config", str(cfg_path), "--output", str(out)], threads, seed)
            outputs.setdefault(sub, []).append(out.read_bytes())
    for sub, blobs in outputs.items():
        assert blobs[0] == blobs[1], f"{sub} output differs across thread counts"
    assert b"t,beta,m,T1,F_x,Qdot,I,balance_residual" in outputs["evolve"][0]
