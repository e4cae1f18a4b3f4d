"""The names perfbench's tracer patches in bbdrag.cli and bbdrag.dynamics stay in place.

perfbench/tracing.py wraps bbdrag's functions from outside the package,
under their module-level names; a refactor that renames or inlines one
makes the benchmark's per-layer figures silently read zero.  This loads
the tracer as it is and checks that every CLI path and the trajectory
integration it measures still record their spans.
"""

from __future__ import annotations

import importlib.util
import sys
import warnings
from pathlib import Path

import bbdrag.cli as cli
import bbdrag.dynamics as dynamics
from bbdrag import BathSpec, EvolveConfig, MaterialThermo, ParticleState, TopHat

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PATCHED = ("run", "verify_all", "equilibrium_temperature", "ThreadPoolExecutor",
           "_SWEEP_OBSERVABLES", "force_lab", "heating_rate", "intensity",
           "drag_combination", "force_rest_frame")

DYNAMICS_PATCHED = ("integrate_omega_x", "bose_occupation", "alpha_im", "drag_combination",
                    "heating_rate", "equilibrium_temperature", "evolve", "_net_intensity")


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is read-only here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_records_every_cli_layer_and_uninstalls(monkeypatch, capsys):
    before = {name: getattr(cli, name) for name in PATCHED}
    point = ["--beta", "0.5", "--t1", "1.0", "--t2", "1.0"]
    tracer = _load_tracer(monkeypatch)
    tracer.install()
    try:
        calls = {
            "force": ["force", *point],
            "equilibrium-temp": ["equilibrium-temp", *point],
            "verify": ["verify", *point],
            "sweep": ["sweep", "--observable", "heat", "--beta", "0.1:0.5:3", "--t1", "1.0"],
        }
        expected = {
            "force": "observables.force_lab",
            "equilibrium-temp": "dynamics.equilibrium_temperature",
            "verify": "consistency.verify_all",
            "sweep": "observables.heating_rate",
        }
        for command, argv in calls.items():
            tracer.spans.clear()
            assert cli.run(argv) == 0, command
            names = {sp.name for sp in tracer.spans}
            assert {"cli.run", expected[command]} <= names, (command, sorted(names))
        assert tracer.sweep_workers == []
    finally:
        tracer.uninstall()
        capsys.readouterr()
    assert {name: getattr(cli, name) for name in PATCHED} == before


def test_tracer_records_the_trajectory_layers_and_uninstalls(monkeypatch):
    before = {name: getattr(dynamics, name) for name in DYNAMICS_PATCHED}
    tracer = _load_tracer(monkeypatch)
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # C_s*T1 rest-mass note
            traj = dynamics.evolve(ParticleState(0.5, 100.0, 2.0), BathSpec(1.0),
                                   TopHat(1.0, 0.5, 1.5), MaterialThermo(0.01),
                                   EvolveConfig(t_end=0.5))
        names = [sp.name for sp in tracer.spans]
    finally:
        tracer.uninstall()
    assert "dynamics.evolve" in names
    drags = names.count("observables.drag_combination")
    assert drags > 0 and drags == names.count("observables.heating_rate")
    assert names.count("dynamics.monitor") == len(traj.points)
    assert {name: getattr(dynamics, name) for name in DYNAMICS_PATCHED} == before
