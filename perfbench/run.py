#!/usr/bin/env python3
"""Benchmark of the bbdrag package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: points, trajectories, cli_golden (see workloads.py).  A run
measures whole rounds of ops for about S seconds (at least one round),
then checks every op's output.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json.  With --trace 1 every
op runs twice, untraced and then with every layer wrapped, and the
metrics are the per-layer ones, per round, the tracing overhead among
them; a traced run also probes the engine's known defects (see
workloads.KNOWN_DEFECTS) and logs each one that shows.  Records of each
run, with its failure log and spans, go to .perfbench/ in the checkout.

An op fails when it raises or when its output misses its check; failed
ops are counted in "failed".  "correct" is true when no op failed and,
in a traced run, the trace's counts agree with the library's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("points", "trajectories", "cli_golden")
SETUP_REPEATS = 3
TAIL_MIN_SAMPLES = 50
TIMES = ("ns", "ms", "s")  # units of the per-layer times
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BBDRAG_THREADS",
            "NUMPY_MADVISE_HUGEPAGE")


def child_env() -> dict:
    """Environment of every child interpreter: this checkout's src, default threads."""
    env = dict(os.environ)
    env.pop("BBDRAG_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_to_ready(code: str) -> float:
    """Seconds from starting a fresh interpreter until code has run."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code + "print('ready', flush=True)\n"],
                          stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "points":
        return workloads.Points(seed)
    if name == "trajectories":
        return workloads.Trajectories(seed)
    return workloads.CliGolden(seed, workdir, child_env(), ROOT)


def run_rounds(workload, execute, seconds: float):
    """Whole rounds of the workload's ops through execute, for about seconds.

    Another round starts unless, lasting as long as the last one, it would
    end more than half of itself past seconds; the first always runs.
    Returns the records, the rounds, and the peak RSS in MB after the
    first round: every round repeats the same ops, so later rounds add
    only the records kept for the checks, which grow with the run.
    """
    ops = workload.ops()
    records, done, t0 = [], 0, time.perf_counter()
    while True:
        start = time.perf_counter()
        records += [execute(op) for op in ops]
        done += 1
        if done == 1:
            rss = peak_rss_mb()
        now = time.perf_counter()
        if now - t0 + (now - start) / 2 > seconds:
            return records, done, rss


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with 10 samples above it.

    That statistic is a tail only from TAIL_MIN_SAMPLES up (p80 at 50
    samples; at 21 it is the median), so smaller samples report their
    maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= TAIL_MIN_SAMPLES:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read without running git (which would search upward)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "bbdrag").glob("*.py"))
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "commit": git_commit(), "seed": seed, "src_bbdrag_lines": lines,
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def census():
    """A Tracer over one small call into every layer.

    A traced run reports a time from here for a layer its own ops never
    reach, rather than a structural 0 that would read the same on every run.
    """
    from bbdrag import cli, consistency, dynamics, observables, oracle
    from bbdrag.observables import BathSpec, ParticleState
    from bbdrag.polarizability import LorentzOscillator, TopHat
    from tracing import Tracer
    from workloads import ONE_SHOT

    tracer = Tracer()
    tracer.op = "census"
    tracer.install()
    try:
        state, bath = ParticleState(0.5, 1.0, 0.0), BathSpec(1.0)
        model = LorentzOscillator(1.0, 2.0, 0.5)
        observables.evaluate_bundle(state, bath, model)
        consistency.verify_all(state, bath, model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            dynamics.evolve(ParticleState(0.5, 100.0, 2.0), bath, TopHat(1.0, 0.5, 1.5),
                            dynamics.MaterialThermo(1e-2), dynamics.EvolveConfig(t_end=0.1))
        point = ["--beta", "0.5", "--t1", "1.0", "--t2", "1.0"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for command in ONE_SHOT:
                tracer.clear_equilibrium_cache()
                cli.run([command, *point])
            cli.run(["sweep", "--observable", "heat", "--beta", "0.1:0.5:3", "--t1", "1.0"])
        case = next(c for c in oracle.BUILTIN_CASES if c["name"] == "emission-ohmic-closed-form")
        oracle.mint_golden(case)
    finally:
        tracer.uninstall()
    return tracer


def per_op_times(records, statistic) -> list[float]:
    """statistic (min or median) of each distinct op's times in the run.

    Ops repeat across rounds.  The fastest repetition is the steadier
    figure for ops of milliseconds, which repeat tens of times in a run;
    the median for ops of seconds, which repeat a few times.
    """
    times: dict = defaultdict(list)
    for r in records:
        times[r.op].append(r.seconds)
    return [statistic(values) for values in times.values()]


def end_to_end(workload, records, setup: list[float], rss: float) -> dict:
    per_op = per_op_times(records, workload.repetition)
    value, _ = tail(per_op)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "tail_ms": (1e3 * value, "ms"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
    }


def summary(records) -> list[str]:
    """Human-readable latency lines per op kind and overall."""
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.op.kind].append(r.seconds)
    lines = []
    for kind, values in [*sorted(by_kind.items()), ("all", [r.seconds for r in records])]:
        value, pct = tail(values)
        lines.append(f"{kind}: n={len(values)} min={1e3 * min(values):.3f} ms "
                     f"p50={1e3 * statistics.median(values):.3f} ms "
                     f"tail(p{pct:.1f})={1e3 * value:.3f} ms mean={1e3 * statistics.fmean(values):.3f} ms")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def _run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    record = {"workload": name, "trace": int(trace)}
    problems: list[str] = []
    workload = make_workload(name, seed, workdir)
    if not trace:
        setup = [time_to_ready(workload.probe) for _ in range(SETUP_REPEATS)]
        records, rounds, rss = run_rounds(workload, workload.execute, seconds)
        metrics = end_to_end(workload, records, setup, rss)
    else:
        from tracing import Tracer, layer_metrics

        start = [time_to_ready("") for _ in range(SETUP_REPEATS)]
        imported = [time_to_ready("import bbdrag.cli\n") for _ in range(SETUP_REPEATS)]
        if name == "cli_golden":
            workload.cli.in_process = True  # spans need the calls in this interpreter
        tracer, op_ids, faults = Tracer(), itertools.count(), 0

        def plain_then_traced(op):
            """Each op untraced, then traced: the pair sees the same machine speed."""
            nonlocal faults
            plain = workload.execute(op)
            tracer.op = next(op_ids)
            tracer.install()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                return plain, workload.execute(op, tracer)
            finally:
                faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                tracer.uninstall()

        if workload.warm_up:  # first calls in a process run slower; keep them out of pairs
            for op in dict.fromkeys(workload.ops()):
                workload.execute(op)
        pairs, rounds, _ = run_rounds(workload, plain_then_traced, seconds)
        records = [traced for _, traced in pairs]
        metrics, problems = layer_metrics(tracer, rounds)
        probed = [k for k, (v, unit) in metrics.items() if v == 0 and unit.split("/")[0] in TIMES]
        if probed:
            from_census, _ = layer_metrics(census(), 1)
            metrics.update({k: from_census[k] for k in probed})
            record["census_metrics"] = probed
        metrics["cli.python_start_ms"] = (1e3 * statistics.median(start), "ms")
        metrics["cli.import_ms"] = (1e3 * (statistics.median(imported)
                                           - statistics.median(start)), "ms")
        plain_s = sum(plain.seconds for plain, _ in pairs)
        metrics["trace.overhead_s"] = ((sum(r.seconds for r in records) - plain_s) / rounds,
                                       "s/round")
        metrics["process.minor_faults"] = (faults / rounds, "count/round")
        record["untraced_op_s"] = plain_s
        tracer.dump(OUT / f"{name}-seed{seed}-spans.json")
    lines = summary(records)
    workload.check(records)
    failures = [text for r in records for text in r.failures]
    failed = sum(bool(r.failures) for r in records)
    if trace:
        from workloads import probe_known_defects

        defects = probe_known_defects()
        shown = [r for r in defects if r.failures]
        metrics["probe.failed_frac"] = (len(shown) / len(defects), "ratio")
        metrics["oracle.byte_mismatch"] = (getattr(workload, "byte_mismatch", 0), "count")
        record["known_defects"] = [text for r in shown for text in r.failures]
    elif name == "cli_golden":
        lines.append(f"cases whose bytes differ from golden/cases.jsonl: {workload.byte_mismatch}")
    lines.append(f"rounds={rounds} attempted={len(records)} failed={failed}")
    for text, count in sorted(Counter(failures).items()):
        lines.append(f"FAIL x{count} {text}")
    for text in problems:
        lines.append(f"TRACE CHECK {text}")
    for text in record.get("known_defects", []):
        lines.append(f"KNOWN DEFECT {text}")
    if record.get("census_metrics"):
        lines.append("from the census, as no op of the workload reaches them: "
                     + " ".join(record["census_metrics"]))
    record["meta"] = metadata(seed)  # after the timed region: it imports mpmath
    record.update(summary=lines, failures=failures, trace_problems=problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    for line in lines:
        print(line)
    result = {
        "correct": not problems and not failed,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Check the benchmark itself: metric names and units, a live reference
    gate, and the quad reference against mpmath."""
    import reference
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def report(passed: bool, text: str):
        nonlocal ok
        ok &= passed
        print(("ok   " if passed else "FAIL ") + text)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            got = json.loads(lines[-1])["metrics"] if proc.returncode == 0 and lines else {}
            units = {k: v["unit"] for k, v in got.items()}
            report(units == want, f"{name} --trace {trace} emits every {key} metric with its unit"
                   + ("" if units == want else f": differs in {sorted(set(units) ^ set(want))}"))

    from bbdrag.observables import BathSpec, ParticleState, evaluate_bundle
    from bbdrag.polarizability import model_from_dict

    lorentz = workloads.MODELS["lorentz"]
    beta, t1, t2 = 0.3, 0.0, 1.0
    bundle = evaluate_bundle(ParticleState(beta, 1.0, t1), BathSpec(t2), model_from_dict(lorentz))
    refs = (reference.heating_rate(lorentz, beta, t1, t2), reference.emitted_power(lorentz, t1))
    report(not workloads.bundle_problems(bundle, beta, *refs), "engine passes at a plain point")
    q = bundle.heating_rate
    bumped = bundle.__class__(**{**bundle.__dict__, "heating_rate": q.__class__(
        q.value * (1 + 1e-6), q.error, q.diagnostics)})
    report(bool(workloads.bundle_problems(bumped, beta, *refs)),
           "heating_rate x (1 + 1e-6) is rejected")

    from bbdrag.kernels import BETA_MAX

    for beta, expected in ((0.99, 0.129808953309263), (BETA_MAX, 6.42510663548562e-9)):
        value, err = reference.heating_rate(lorentz, beta, 0.5, 1.0)
        exact = reference.heating_rate_mpmath(lorentz, beta, 0.5, 1.0)
        report(abs(value - exact) <= 10 * err and abs(exact - expected) <= 1e-12 * expected,
               f"Lorentz Qdot at beta={beta!r}: quad {value!r} +- {err:.2g}, "
               f"mpmath {exact!r}, expected {expected!r}")
    decimal = reference.heating_rate_mpmath(lorentz, "0.999999999", 0.5, 1.0)
    report(abs(decimal - 6.42510681736026e-9) <= 1e-12 * decimal,
           f"at the decimal beta 0.999999999 mpmath gives {decimal!r}: BETA_MAX as a double "
           "sits 2.8e-17 above it, which moves Qdot by 3e-8 relative")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "bbdrag" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no bbdrag sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # numpy asks for transparent huge pages on arrays of 4 MiB and up.  On a
    # host whose THP defrag setting is "madvise", each such page fault may
    # stall in compaction for as long as the host's free memory dictates,
    # which made the same run differ by 40% between processes.  Set before
    # numpy is imported here or in any child.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
