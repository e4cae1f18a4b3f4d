"""The three workloads: seeded inputs, one op per call, and output checks.

Every workload is a closed loop: one client issues each op after the
previous one returns.  A run repeats one round of ops, so the mix of op
kinds is the same in every run whatever its length, and each op has as
many timings as the run has rounds.  Inputs depend only on the seed; the
library receives nothing else.

points        evaluate_bundle and verify_all at stratified parameter
              points over the four reference models of golden/cases.jsonl.
trajectories  evolve on the TopHat criterion-10 physics: full mode with
              C_s = 1e-2, full mode with C_s = 1e-3 (stiff), and
              quasi-static-T1 mode, each at a bounded horizon.
cli_golden    python -m bbdrag.cli subprocesses (six one-shot commands
              and two 40-point beta sweeps at the default worker count),
              then oracle.mint_golden over a subset of BUILTIN_CASES.

Every op of a workload passes its checks at this commit.  The engine's
known defects are probed apart from the workloads, at the fixed inputs
of KNOWN_DEFECTS (see probe_known_defects).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from bbdrag import cli, consistency, dynamics, observables, oracle
from bbdrag.kernels import BETA_MAX
from bbdrag.observables import BathSpec, ParticleState
from bbdrag.polarizability import model_from_dict

# The four reference models of golden/cases.jsonl.
MODELS = {
    "lorentz": {"type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 0.5},
    "drude": {"type": "drude", "radius": 1.0, "omega_p": 2.0, "nu": 0.5},
    "tophat": {"type": "tophat", "amplitude": 1.0, "omega1": 0.5, "omega2": 1.5},
    "ohmic": {"type": "ohmic", "slope": 1.0, "omega_c": 5.0},
}
BETA_LO, BETA_HI = 1e-3, 0.95
T2_LO, T2_HI = 0.3, 3.0
# T1 in {0, 2 T2}.  At T1 = T2 the engine's heating_rate error estimate
# is too small at low beta, and on some points at any beta (KNOWN_DEFECTS).
T1_FACTORS = (0.0, 2.0)
N_BETA_BINS = 4  # log-spaced strata over [BETA_LO, BETA_HI]
N_T2_BINS = 3  # log-spaced strata over [T2_LO, T2_HI]
# Per model: 8 points, 4 beta strata x 2 T1 choices, spread evenly over
# the T2 strata.

RESIDUAL_FLOOR = 1e-12  # consistency.ABS_FLOOR: exact-zero residuals
REFERENCE_SAFETY = 10.0  # miss allowed, in units of (engine + reference) error


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass
class Record:
    op: Op
    seconds: float
    output: object = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stopwatch(fn, *args):
    """(seconds, result, error text) of one call; failures are recorded, not raised."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as e:  # the benchmark keeps running and counts the op as failed
        return time.perf_counter() - t0, None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, out, None


def _model(name: str):
    return model_from_dict(MODELS[name])


def _state(beta: float, t1: float, t2: float, mass: float = 1.0):
    return ParticleState(beta, mass, t1), BathSpec(t2)


def regular_point(rng: random.Random, model: str, lo: float, hi: float, factor: float):
    t2 = _log_uniform(rng, T2_LO, T2_HI)
    return (model, _log_uniform(rng, lo, hi), factor * t2, t2)


# --------------------------------------------------------------------------
# points


class Points:
    name = "points"
    warm_up = True  # traced runs discard one untraced round first
    repetition = staticmethod(min)  # per-op figure over a run's repetitions: run.per_op_times
    probe = ("import bbdrag\nfrom bbdrag import ParticleState, BathSpec, model_from_dict\n"
             "ParticleState(0.5, 1.0, 1.0); BathSpec(1.0); model_from_dict({'type': 'ohmic', "
             "'slope': 1.0, 'omega_c': 5.0})\n")

    def __init__(self, seed: int):
        rng = random.Random(f"points:{seed}")
        beta_edges = np.geomspace(BETA_LO, BETA_HI, N_BETA_BINS + 1)
        t2_edges = np.geomspace(T2_LO, T2_HI, N_T2_BINS + 1)
        pts = []
        for m, model in enumerate(MODELS):
            for b in range(N_BETA_BINS):
                for f, factor in enumerate(T1_FACTORS):
                    k = (m + b + f) % N_T2_BINS
                    t2 = _log_uniform(rng, t2_edges[k], t2_edges[k + 1])
                    beta = _log_uniform(rng, beta_edges[b], beta_edges[b + 1])
                    pts.append((model, beta, factor * t2, t2))
        rng.shuffle(pts)
        self.points = pts
        self.models = {name: _model(name) for name in MODELS}

    def ops(self) -> list[Op]:
        return [Op(kind, p) for p in self.points for kind in ("bundle", "verify")]

    def execute(self, op: Op, tracer=None) -> Record:
        model, beta, t1, t2 = op.args
        state, bath = _state(beta, t1, t2)
        if op.kind == "equilibrium":  # only in the probe of KNOWN_DEFECTS
            clear_equilibrium_cache(tracer)
            seconds, out, err = _stopwatch(equilibrium_report, beta, bath, self.models[model])
            return Record(op, seconds, out, err)
        fn = observables.evaluate_bundle if op.kind == "bundle" else consistency.verify_all
        seconds, out, err = _stopwatch(fn, state, bath, self.models[model])
        return Record(op, seconds, out, err)

    def check(self, records: list[Record]):
        import reference  # after the timed region: mpmath stays out of peak_rss_mb

        refs = {}
        for rec in records:
            if rec.op.kind == "bundle" and rec.op.args not in refs:
                model, beta, t1, t2 = rec.op.args
                refs[rec.op.args] = (reference.heating_rate(MODELS[model], beta, t1, t2),
                                     reference.emitted_power(MODELS[model], t1))
        for rec in records:
            model, beta, t1, t2 = rec.op.args
            where = f"{rec.op.kind} {model} beta={beta!r} T1={t1!r} T2={t2!r}"
            if rec.error is not None:
                rec.failures.append(f"{where}: raised {rec.error}")
            elif rec.op.kind == "verify":
                if not rec.output.passed:
                    bad = [c.name for c in rec.output.checks if not c.passed]
                    rec.failures.append(f"{where}: verify_all failed {bad}")
            elif rec.op.kind == "bundle":
                problems = bundle_problems(rec.output, beta, *refs[rec.op.args])
                rec.failures += [f"{where}: {p}" for p in problems]


# Known engine defects at this commit, at fixed inputs: (op kind, model,
# beta, T1, T2).  No workload op lands on them, as a benchmark op must
# not fail; a traced run probes them all and reports the share that
# fails as probe.failed_frac, with each failure in its log.
#  - The ultra-relativistic band [0.98, BETA_MAX]: heating_rate and
#    intensity_emitted miss their references from beta = 0.99 up and read
#    0 at BETA_MAX (TopHat raises there), and verify_all fails.
#  - T1 = T2: the heating_rate error estimate is too small, at low beta
#    where the two terms cancel to about beta^2, and on a few points at
#    any beta (Lorentz at beta = 0.596 is off 3.3e-10 relative, claiming
#    3e-11; the reference agrees with mpmath at 30 digits).
#  - equilibrium-temp, as the CLI computes it, raises
#    QuadratureConvergenceError for Ohmic at some low speeds: the heating
#    rate at the root T1* is near 0, below its absolute tolerance 1e-14.
ULTRA_RUNGS = (0.99, 1.0 - 1e-4, 1.0 - 1e-6, BETA_MAX)
KNOWN_DEFECTS = (
    *((kind, model, beta, 0.5, 1.0)
      for model in MODELS for beta in ULTRA_RUNGS for kind in ("bundle", "verify")),
    ("bundle", "tophat", 0.011042198831524826, 0.6916879350349108, 0.6916879350349108),
    ("bundle", "ohmic", 0.042, 0.49, 0.49),
    ("bundle", "lorentz", 0.5960905085845004, 1.2793930139141123, 1.2793930139141123),
    ("equilibrium", "ohmic", 0.007902226058671866, 0.0, 1.654009284256541),
)


def equilibrium_report(beta: float, bath, model):
    """What the CLI's equilibrium-temp computes: T1* and the heating rate there."""
    t_star = dynamics.equilibrium_temperature(beta, bath, model)
    return t_star, observables.heating_rate(ParticleState(beta, 1.0, t_star), bath, model)


def probe_known_defects() -> list[Record]:
    """Every op of KNOWN_DEFECTS, executed and checked like a points op."""
    points = Points(0)
    records = [points.execute(Op(kind, tuple(args))) for kind, *args in KNOWN_DEFECTS]
    points.check(records)
    return records


def bundle_problems(bundle, beta: float, qdot_ref, emitted_ref) -> list[str]:
    """Reference misses and broken identities of one ObservableBundle."""
    problems = []
    for label, q, (ref, ref_err) in (("heating_rate", bundle.heating_rate, qdot_ref),
                                     ("intensity_emitted", bundle.intensity_emitted, emitted_ref)):
        if not abs(q.value - ref) <= REFERENCE_SAFETY * (q.error + ref_err):
            problems.append(f"{label} engine {q.value!r} +- {q.error:.3g}, "
                            f"reference {ref!r} +- {ref_err:.3g}")
    g2b = beta / ((1.0 - beta) * (1.0 + beta))
    f, qd, i, fp = (bundle.force_lab, bundle.heating_rate, bundle.intensity,
                    bundle.force_rest_frame)
    for label, resid, errs in (
        ("I + Qdot + beta F_x = 0", i.value + qd.value + beta * f.value,
         (i.error, qd.error, beta * f.error)),
        ("F'_x = F_x - gamma^2 beta Qdot", fp.value - (f.value - g2b * qd.value),
         (fp.error, f.error, g2b * qd.error)),
    ):
        tol = max(10.0 * math.sqrt(sum(e * e for e in errs)), RESIDUAL_FLOOR)
        if not abs(resid) <= tol:
            problems.append(f"identity {label}: residual {abs(resid):.3g} > {tol:.3g}")
    return problems


# --------------------------------------------------------------------------
# trajectories

# kind -> (specific heat C_s, mode, horizon t_end, start).  A "hot" start
# has the seeded T1 in [1.8, 2.2], far above its equilibrium T1* ~ 0.96,
# so the step follows T1's relaxation: RK45 is accuracy-bound.  The stiff
# kind starts at T1 = T1*(beta0) instead.  There T1 only tracks T1*
# while beta decays, and at C_s = 1e-3 RK45's step sits at its stability
# limit, about 0.245, from the start: 25 steps to t = 5, where the same
# start at C_s = 1e-2 takes 9.  An implicit solver would gain there.
TRAJECTORY_KINDS = {
    "full": (1e-2, "full", 3.0, "hot"),
    "stiff": (1e-3, "full", 5.0, "equilibrium"),
    "qs": (1e-2, "quasi-static-T1", 1.0, "hot"),
}
TRAJ_MODEL = "tophat"
TRAJ_MASS, TRAJ_T2 = 100.0, 1.0


class Trajectories:
    name = "trajectories"
    warm_up = True  # traced runs discard one untraced round first
    repetition = staticmethod(statistics.median)
    probe = ("import bbdrag\nfrom bbdrag import EvolveConfig, MaterialThermo, TopHat\n"
             "EvolveConfig(t_end=1.0); MaterialThermo(0.01); TopHat(1.0, 0.5, 1.5)\n")

    def __init__(self, seed: int):
        self.model = _model(TRAJ_MODEL)
        rng = random.Random(f"trajectories:{seed}")
        beta0, hot = rng.uniform(0.45, 0.55), rng.uniform(1.8, 2.2)
        start = {"hot": hot,
                 "equilibrium": dynamics.equilibrium_temperature(beta0, BathSpec(TRAJ_T2),
                                                                 self.model)}
        clear_equilibrium_cache()
        self.starts = [Op(kind, (beta0, start[spec[3]]))
                       for kind, spec in TRAJECTORY_KINDS.items()]

    def ops(self) -> list[Op]:
        return list(self.starts)

    def execute(self, op: Op, tracer=None) -> Record:
        specific_heat, mode, t_end, _ = TRAJECTORY_KINDS[op.kind]
        beta0, t1 = op.args
        state, bath = _state(beta0, t1, TRAJ_T2, TRAJ_MASS)
        thermo = dynamics.MaterialThermo(specific_heat)
        cfg = dynamics.EvolveConfig(t_end=t_end, mode=mode)
        clear_equilibrium_cache(tracer)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # C_s*T1 rest-mass note
            seconds, out, err = _stopwatch(dynamics.evolve, state, bath, self.model, thermo, cfg)
        return Record(op, seconds, out, err)

    def check(self, records: list[Record]):
        for rec in records:
            where = f"{rec.op.kind} beta0={rec.op.args[0]!r} T1={rec.op.args[1]!r}"
            if rec.error is not None:
                rec.failures.append(f"{where}: raised {rec.error}")
            elif rec.output.termination != "t_end":
                rec.failures.append(f"{where}: ended by {rec.output.termination!r}, not t_end")


def clear_equilibrium_cache(tracer=None):
    """Cold-start the T1* cache, as a fresh process would see it."""
    if tracer is not None:
        tracer.clear_equilibrium_cache()
    else:
        dynamics._equilibrium_cached.cache_clear()


# --------------------------------------------------------------------------
# cli

ONE_SHOT = ("force", "heat", "intensity", "restframe-force", "equilibrium-temp", "verify")
SWEEPS = ("heat", "equilibrium-temp")
SWEEP_MODEL = "lorentz"
SWEEP_BETAS = "0.05:0.9:40"
CLI_TIMEOUT_S = 120


class Cli:
    probe = "import bbdrag.cli\n"
    in_process = False  # True: call bbdrag.cli.run in this interpreter instead

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        self.seed, self.workdir, self.env, self.root = seed, workdir, env, root
        self.configs = {}
        for name, model in MODELS.items():
            path = workdir / f"model-{name}.json"
            path.write_text(json.dumps({"model": model}))
            self.configs[name] = str(path)
        rng = random.Random(f"cli-sweep:{seed}")
        t2 = _log_uniform(rng, 0.8, 1.25)
        self.sweep_temps = (0.5 * t2, t2)

    def ops(self) -> list[Op]:
        rng = random.Random(f"cli:{self.seed}")
        ops = []
        for command in ONE_SHOT:
            models = sorted(MODELS)
            if command == "equilibrium-temp":  # Ohmic raises at some speeds: KNOWN_DEFECTS
                models.remove("ohmic")
            model = rng.choice(models)
            point = regular_point(rng, model, BETA_LO, BETA_HI, rng.choice(T1_FACTORS))
            ops.append(Op(command, point))
        t1, t2 = self.sweep_temps
        for observable in SWEEPS:
            ops.append(Op("sweep", (SWEEP_MODEL, observable, t1, t2)))
        return ops

    def argv(self, op: Op) -> list[str]:
        if op.kind == "sweep":
            model, observable, t1, t2 = op.args
            return ["sweep", "--observable", observable, "--config", self.configs[model],
                    "--beta", SWEEP_BETAS, "--t1", repr(t1), "--t2", repr(t2)]
        model, beta, t1, t2 = op.args
        return [op.kind, "--config", self.configs[model], "--beta", repr(beta),
                "--t1", repr(t1), "--t2", repr(t2), "--format", "json"]

    def execute(self, op: Op, tracer=None) -> Record:
        """One CLI call: a subprocess, or bbdrag.cli.run in this interpreter."""
        argv = self.argv(op)
        if not self.in_process:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "bbdrag.cli", *argv],
                                      cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                return Record(op, time.perf_counter() - t0, None,
                              f"no exit within {CLI_TIMEOUT_S} s")
            return Record(op, time.perf_counter() - t0, (proc.returncode, proc.stdout))
        clear_equilibrium_cache(tracer)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            seconds, code, error = _stopwatch(cli.run, argv)
        return Record(op, seconds, (code, out.getvalue()), error)

    def check(self, records: list[Record]):
        expected = {}
        for rec in records:
            where = " ".join(self.argv(rec.op)).replace(str(self.workdir) + os.sep, "")
            if rec.error is not None:
                rec.failures.append(f"{where}: raised {rec.error}")
                continue
            code, text = rec.output
            if code != 0:
                rec.failures.append(f"{where}: exit code {code}")
                continue
            key = (rec.op.kind, rec.op.args)
            if key not in expected:
                expected[key] = library_output(rec.op)
            try:
                got = parse_cli_output(rec.op, text)
            except (ValueError, KeyError, IndexError) as e:
                rec.failures.append(f"{where}: output does not parse ({e})")
                continue
            if got != expected[key]:
                rec.failures.append(f"{where}: output {got!r} != library {expected[key]!r}")


def parse_cli_output(op: Op, text: str):
    """The values a CLI call printed, in the shape library_output returns."""
    if op.kind == "sweep":
        lines = text.strip().split("\n")
        if lines[0] != "beta,value,error":
            raise ValueError(f"unexpected header {lines[0]!r}")
        return [tuple(line.split(",")) for line in lines[1:]]
    doc = json.loads(text)
    if op.kind == "verify":
        return (doc["passed"], [(c["name"], c["lhs"], c["rhs"]) for c in doc["checks"]])
    return [(row["value"], row["error"]) for row in doc["rows"]]


def library_output(op: Op):
    """What the CLI must print for op, computed through the public API."""
    clear_equilibrium_cache()
    if op.kind == "sweep":
        model, observable, t1, t2 = op.args
        lo, hi, count = SWEEP_BETAS.split(":")
        rows = []
        for beta in np.linspace(float(lo), float(hi), int(count)):
            state, bath = _state(float(beta), t1, t2)
            if observable == "heat":
                q = observables.heating_rate(state, bath, _model(model))
                value, error = q.value, q.error
            else:
                value = dynamics.equilibrium_temperature(float(beta), bath, _model(model))
                error = 0.0
            rows.append(tuple(f"{v:.12g}" for v in (float(beta), value, error)))
        return rows
    model, beta, t1, t2 = op.args
    state, bath, m = *_state(beta, t1, t2), _model(model)
    if op.kind == "verify":
        report = consistency.verify_all(state, bath, m)
        return (report.passed, [(c.name, c.lhs, c.rhs) for c in report.checks])
    if op.kind == "equilibrium-temp":
        return [(dynamics.equilibrium_temperature(beta, bath, m), 0.0)]
    if op.kind == "intensity":
        quantities = observables.intensity(state, bath, m)
    else:
        fn = {"force": observables.force_lab, "heat": observables.heating_rate,
              "restframe-force": observables.force_rest_frame}[op.kind]
        quantities = [fn(state, bath, m)]
    return [(q.value, q.error) for q in quantities]


# --------------------------------------------------------------------------
# golden

# Every cheap case, the TopHat split-x force case and the beta = 0.9 rest
# force: about 19 s per round.  drag-tophat repeats the split-x path at
# 10 s, and heating-lorentz-fast alone takes about 20 s.  Name ->
# executions per round, back to back: a case's first call in a process
# ran up to 27% slower, and only one round fits in a run, so the cheap
# cases that p50_ms reads run three times and report their fastest.
GOLDEN_SUBSET = {"force-tophat-cold-particle": 1, "heating-ohmic-hot-particle": 3,
                 "emission-ohmic-closed-form": 3, "net-intensity-drude": 3,
                 "rest-force-lorentz": 3, "rest-force-fast-lorentz": 1}


class Golden:
    probe = ("import bbdrag\nfrom bbdrag.oracle import BUILTIN_CASES, load_golden\n"
             "load_golden()\n")

    def __init__(self, seed: int, root: Path):
        cases = {case["name"]: case for case in oracle.BUILTIN_CASES}
        self.cases = [cases[name] for name in GOLDEN_SUBSET]
        random.Random(f"golden:{seed}").shuffle(self.cases)
        lines = (root / "golden" / "cases.jsonl").read_text().splitlines()
        self.stored = {json.loads(line)["name"]: line for line in lines if line.strip()}
        self.byte_mismatch = 0

    def ops(self) -> list[Op]:
        return [Op("mint", (case["name"],)) for case in self.cases
                for _ in range(GOLDEN_SUBSET[case["name"]])]

    def execute(self, op: Op, tracer=None) -> Record:
        case = next(c for c in self.cases if c["name"] == op.args[0])
        seconds, out, err = _stopwatch(oracle.mint_golden, case)
        return Record(op, seconds, out, err)

    def check(self, records: list[Record]):
        mismatched = set()
        for rec in records:
            name = rec.op.args[0]
            if rec.error is not None:
                rec.failures.append(f"{name}: raised {rec.error}")
                continue
            stored = json.loads(self.stored[name])
            miss = abs(rec.output["value"] - stored["value"])
            if not miss <= oracle.GATE_REL * abs(stored["value"]):
                rec.failures.append(f"{name}: minted {rec.output['value']!r} misses stored "
                                    f"{stored['value']!r} by more than {oracle.GATE_REL:g} relative")
            if json.dumps(rec.output, sort_keys=True) != self.stored[name]:
                mismatched.add(name)
        self.byte_mismatch = len(mismatched)  # cases, however often each ran


# --------------------------------------------------------------------------
# cli_golden

class CliGolden:
    """The cli round, then the golden round, as one workload.

    Both are slow per op and share no code path that the other three
    layers' optimisations would move, so one run of each fits in a single
    run of the benchmark, and their ops keep their own checks.
    """

    name = "cli_golden"
    repetition = staticmethod(min)
    # An untraced round would take as long as the traced run itself; the
    # first calls' extra cost falls on the untraced half of the first pairs.
    warm_up = False
    probe = Cli.probe + Golden.probe

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        self.cli = Cli(seed, workdir, env, root)
        self.golden = Golden(seed, root)

    @property
    def byte_mismatch(self) -> int:
        return self.golden.byte_mismatch

    def ops(self) -> list[Op]:
        return self.cli.ops() + self.golden.ops()

    def _part(self, op: Op):
        return self.golden if op.kind == "mint" else self.cli

    def execute(self, op: Op, tracer=None) -> Record:
        return self._part(op).execute(op, tracer)

    def check(self, records: list[Record]):
        self.cli.check([r for r in records if r.op.kind != "mint"])
        self.golden.check([r for r in records if r.op.kind == "mint"])
