"""Span tracing of bbdrag's layers, installed from outside the package.

Modules bind their collaborators by ``from ... import``, so a function is
wrapped under its public name in every module namespace that calls it:
wrapping ``bbdrag.kernels.integrate_omega_x`` alone would miss the calls
made through ``bbdrag.observables.integrate_omega_x``.  Each wrapper
records a span (name, start, end, parent span, op id, thread) in memory;
``Tracer.dump`` writes them out when the run ends.  A span's self time is
its duration minus the durations of its direct children, which nest
without overlap within one thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

OBSERVABLES = ("force_lab", "heating_rate", "intensity", "drag_combination",
               "force_rest_frame", "evaluate_bundle")
CLI_COMMANDS = ("force", "heat", "intensity", "restframe-force", "equilibrium-temp",
                "verify", "sweep")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "info", "children")

    def __init__(self, name, start, parent, op, thread):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.thread = parent, op, thread
        self.info: dict = {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


def _quantity_neval(q) -> int:
    return int(q.diagnostics.get("neval", 0))


def _result_neval(name: str, res) -> int:
    """Kernel evaluations behind an observable's result, from its diagnostics."""
    if name == "intensity":
        return _quantity_neval(res[1]) + _quantity_neval(res[2])
    if name == "evaluate_bundle":
        return sum(_quantity_neval(q) for q in (
            res.force_lab, res.heating_rate, res.intensity_emitted,
            res.intensity_absorbed, res.force_rest_frame))
    return _quantity_neval(res)


class Tracer:
    """Wraps bbdrag's public functions and records their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._undo: list = []
        self.cache_hits = 0
        self.sweep_workers: list[int] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sp = Span(name, time.perf_counter(), parent, self.op, threading.get_ident())
            if parent is not None:
                parent.children.append(sp)
            stack.append(sp)
            try:
                res = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, res)
                return res
            finally:
                sp.end = time.perf_counter()
                stack.pop()
                self.spans.append(sp)

        return wrapper

    def patch(self, module, attr: str, name: str, on_result=None):
        original = getattr(module, attr)
        setattr(module, attr, self.span(name, original, on_result))
        self._undo.append((module, attr, original))

    def uninstall(self):
        self.clear_equilibrium_cache()
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- installation ----------------------------------------------------
    def install(self):
        import bbdrag.cli as cli
        import bbdrag.consistency as consistency
        import bbdrag.dynamics as dynamics
        import bbdrag.kernels as kernels
        import bbdrag.observables as observables
        import bbdrag.oracle as oracle

        dynamics._equilibrium_cached.cache_clear()  # hits before now are not traced work

        def quad_info(sp, args, res):
            sp.info["neval"], sp.info["panels"] = res.neval, res.panels

        for mod in (observables, consistency, dynamics):
            self.patch(mod, "integrate_omega_x", "kernels.integrate_omega_x", quad_info)
            self.patch(mod, "bose_occupation", "kernels.bose_occupation")
            self.patch(mod, "alpha_im", "polarizability.alpha_im")
        self.patch(oracle, "alpha_im", "polarizability.alpha_im")
        for mod in (kernels, observables, consistency):
            self.patch(mod, "integrate_1d", "kernels.integrate_1d")

        def neval_info(name):
            def record(sp, args, res):
                sp.info["neval"] = _result_neval(name, res)
            return record

        for name in OBSERVABLES:
            self.patch(observables, name, f"observables.{name}", neval_info(name))
        for name in ("force_lab", "heating_rate", "intensity", "drag_combination",
                     "force_rest_frame"):
            self.patch(consistency, name, f"observables.{name}", neval_info(name))
            if hasattr(cli, name):
                self.patch(cli, name, f"observables.{name}", neval_info(name))
        self.patch(consistency, "force_rest_frame_alt", "observables.force_rest_frame_alt")
        for name in ("drag_combination", "heating_rate"):
            self.patch(dynamics, name, f"observables.{name}", neval_info(name))
        # The sweep table holds the observables it was built with.
        table = cli._SWEEP_OBSERVABLES
        self._undo.append((cli, "_SWEEP_OBSERVABLES", dict(table)))
        cli._SWEEP_OBSERVABLES = {
            key: (kind, getattr(cli, fn.__name__) if fn is not None else None)
            for key, (kind, fn) in table.items()
        }

        def checks_info(sp, args, res):
            sp.info["checks_failed"] = sum(not c.passed for c in res.checks)

        for mod in (consistency, cli):
            self.patch(mod, "verify_all", "consistency.verify_all", checks_info)
        self.patch(consistency, "spontaneous_term_cancellation",
                   "consistency.spontaneous_term_cancellation")

        def evolve_info(sp, args, res):
            sp.info["steps"] = len(res.points) - 1
            if res.radiated_energy:
                sp.info["bookkeeping_rel"] = res.bookkeeping_residual / res.radiated_energy

        for mod in (dynamics, cli):
            self.patch(mod, "equilibrium_temperature", "dynamics.equilibrium_temperature")
        self.patch(dynamics, "evolve", "dynamics.evolve", evolve_info)
        self.patch(dynamics, "_net_intensity", "dynamics.monitor")

        def run_info(sp, args, res):
            argv = args[0] if args else []
            sp.info["command"] = argv[0] if argv else "?"

        self.patch(cli, "run", "cli.run", run_info)
        pool = cli.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            self.sweep_workers.append(kwargs.get("max_workers", args[0] if args else 0))
            return pool(*args, **kwargs)

        self._undo.append((cli, "ThreadPoolExecutor", pool))
        cli.ThreadPoolExecutor = counting_pool

        riemann = oracle.riemann_2d

        def counted_riemann(integrand, grid, **kwargs):
            nodes = 0

            def counting(om, x):
                nonlocal nodes
                nodes += x.size
                return integrand(om, x)

            try:
                return riemann(counting, grid, **kwargs)
            finally:
                self._stack()[-1].info["nodes"] = nodes

        self._undo.append((oracle, "riemann_2d", riemann))
        oracle.riemann_2d = self.span("oracle.riemann_2d", counted_riemann)
        self.patch(oracle, "mint_golden", "oracle.mint_golden")

    def clear_equilibrium_cache(self):
        """Cold-start the T1* cache, keeping its hit count."""
        import bbdrag.dynamics as dynamics

        self.cache_hits += dynamics._equilibrium_cached.cache_info().hits
        dynamics._equilibrium_cached.cache_clear()

    # -- reduction -------------------------------------------------------
    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for sp in self.spans:
            out[sp.name].append(sp)
        return out

    def dump(self, path: Path):
        ids = {id(sp): i for i, sp in enumerate(self.spans)}
        rows = [
            {"id": ids[id(sp)], "name": sp.name, "start": sp.start, "end": sp.end,
             "parent": ids.get(id(sp.parent)), "op": sp.op, "thread": sp.thread, **sp.info}
            for sp in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


def _ms(spans, self_time=False) -> float:
    return 1e3 * sum(sp.self_time if self_time else sp.duration for sp in spans)


def _under(sp: Span, name: str) -> bool:
    p = sp.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)) and failed cross-checks.

    Counts and times summed over the run are divided by its rounds, so a
    faster layer reads lower rather than fitting more rounds into the run.
    """
    spans = tracer.by_name()
    m: dict[str, tuple[float, str]] = {}
    problems: list[str] = []

    def total(name: str, value: float, unit: str):
        m[name] = (value / rounds, unit + "/round")

    quad = spans["kernels.integrate_omega_x"]
    # A call that raised has no result, so its work goes uncounted.
    neval = sum(sp.info.get("neval", 0) for sp in quad)
    total("kernels.integrate_omega_x.calls", len(quad), "count")
    total("kernels.integrate_omega_x.neval", neval, "count")
    total("kernels.integrate_omega_x.panels", sum(sp.info.get("panels", 0) for sp in quad), "count")
    total("kernels.integrate_omega_x.self_ms", _ms(quad, True), "ms")
    total("kernels.integrate_1d.calls", len(spans["kernels.integrate_1d"]), "count")
    total("kernels.integrate_1d.self_ms", _ms(spans["kernels.integrate_1d"], True), "ms")
    m["kernels.ns_per_eval"] = (1e6 * _ms(quad) / neval if neval else 0.0, "ns")
    total("kernels.bose_occupation.ms", _ms(spans["kernels.bose_occupation"]), "ms")
    total("polarizability.alpha_im.calls", len(spans["polarizability.alpha_im"]), "count")
    total("polarizability.alpha_im.ms", _ms(spans["polarizability.alpha_im"]), "ms")

    for name in OBSERVABLES:
        group = spans[f"observables.{name}"]
        total(f"observables.{name}.ms", _ms(group), "ms")
        total(f"observables.{name}.neval", sum(sp.info.get("neval", 0) for sp in group), "count")
    bundles = [sp for sp in spans["observables.evaluate_bundle"] if "neval" in sp.info]
    diagnosed = sum(sp.info["neval"] for sp in bundles)
    returned = sum(q.info.get("neval", 0) for sp in bundles for q in _descendants(sp)
                   if q.name == "kernels.integrate_omega_x")
    if diagnosed != returned:
        problems.append(f"bundle diagnostics count {diagnosed} kernel evaluations, "
                        f"integrate_omega_x returned {returned}")

    verify = spans["consistency.verify_all"]
    returned = [sp for sp in verify if "checks_failed" in sp.info]
    drags = sum(c.name == "observables.drag_combination"
                for sp in returned for c in _descendants(sp))
    total("consistency.verify_all.ms", _ms(verify), "ms")
    m["consistency.verify_all.drag_evals"] = (drags / len(returned) if returned else 0.0,
                                              "count/call")
    total("consistency.verify_all.checks_failed",
          sum(sp.info.get("checks_failed", 0) for sp in verify), "count")
    total("consistency.spontaneous_term_cancellation.ms",
          _ms(spans["consistency.spontaneous_term_cancellation"]), "ms")

    eq = spans["dynamics.equilibrium_temperature"]
    total("dynamics.equilibrium_temperature.calls", len(eq), "count")
    total("dynamics.equilibrium_temperature.ms",
          _ms([sp for sp in eq if not _under(sp, "dynamics.equilibrium_temperature")]), "ms")
    total("dynamics.equilibrium_temperature.heating_evals",
          sum(_under(sp, "dynamics.equilibrium_temperature")
              for sp in spans["observables.heating_rate"]), "count")
    total("dynamics.equilibrium_temperature.cache_hits", tracer.cache_hits, "count")

    evolve = spans["dynamics.evolve"]
    rhs = [c for sp in evolve for c in sp.children
           if c.name in ("observables.drag_combination", "observables.heating_rate",
                         "dynamics.equilibrium_temperature")]
    drag_calls = sum(c.name == "observables.drag_combination" for c in rhs)
    heat_calls = sum(c.name == "observables.heating_rate" for c in rhs)
    if drag_calls != heat_calls:
        problems.append(f"evolve made {drag_calls} drag but {heat_calls} heating calls")
    monitor = [c for sp in evolve for c in sp.children if c.name == "dynamics.monitor"]
    total("dynamics.evolve.steps", sum(sp.info.get("steps", 0) for sp in evolve), "count")
    total("dynamics.evolve.rhs_evals", drag_calls, "count")
    total("dynamics.evolve.rhs_ms", _ms(rhs), "ms")
    total("dynamics.evolve.monitor_ms", _ms(monitor), "ms")
    total("dynamics.evolve.solver_ms", _ms(evolve) - _ms(rhs) - _ms(monitor), "ms")
    m["dynamics.evolve.bookkeeping_rel"] = (
        max((sp.info.get("bookkeeping_rel", 0.0) for sp in evolve), default=0.0), "ratio")

    runs = spans["cli.run"]
    for command in CLI_COMMANDS:
        group = [sp for sp in runs if sp.info.get("command") == command]
        m[f"cli.run.{command}.ms"] = (_ms(group) / len(group) if group else 0.0, "ms/call")
    m["cli.sweep.workers"] = (max(tracer.sweep_workers, default=0), "count")

    riemann = spans["oracle.riemann_2d"]
    total("oracle.riemann_2d.calls", len(riemann), "count")
    total("oracle.riemann_2d.ms", _ms(riemann), "ms")
    total("oracle.riemann_2d.nodes", sum(sp.info.get("nodes", 0) for sp in riemann), "count")
    total("oracle.mint_golden.ms", _ms(spans["oracle.mint_golden"]), "ms")
    return m, problems


def _descendants(sp: Span):
    for child in sp.children:
        yield child
        yield from _descendants(child)
