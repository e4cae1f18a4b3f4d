"""The names perfbench's tracer patches in bbdrag.cli, .consistency and .dynamics stay in place.

perfbench/tracing.py wraps bbdrag's functions from outside the package,
under their module-level names; a refactor that renames or inlines one
makes the benchmark's per-layer figures silently read zero.  This loads
the tracer as it is and checks that every CLI path, the identity suite
and the trajectory integration it measures still record their spans.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import warnings
from pathlib import Path

import bbdrag.cli as cli
import bbdrag.consistency as consistency
import bbdrag.dynamics as dynamics
import bbdrag.observables as observables
from bbdrag import (BathSpec, EvolveConfig, LorentzOscillator, MaterialThermo, ParticleState,
                    TopHat)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bbdrag"

# Imported only so that the tracer can patch them by name (# noqa: F401).
TRACER_ONLY_IMPORTS = {"cli.ThreadPoolExecutor", "consistency.drag_combination",
                       "consistency.force_lab", "consistency.force_rest_frame",
                       "consistency.heating_rate", "consistency.intensity",
                       "dynamics.alpha_im", "dynamics.bose_occupation",
                       "dynamics.integrate_omega_x", "observables.integrate_omega_x"}

PATCHED = ("run", "verify_all", "equilibrium_temperature", "ThreadPoolExecutor",
           "_SWEEP_OBSERVABLES", "force_lab", "heating_rate", "intensity",
           "drag_combination", "force_rest_frame")

CONSISTENCY_PATCHED = ("integrate_omega_x", "bose_occupation", "alpha_im", "integrate_1d",
                       "force_lab", "heating_rate", "intensity", "drag_combination",
                       "force_rest_frame", "force_rest_frame_alt", "verify_all",
                       "spontaneous_term_cancellation")

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


def test_tracer_records_the_verification_route_and_uninstalls(monkeypatch):
    before = {name: getattr(consistency, name) for name in CONSISTENCY_PATCHED}
    tracer = _load_tracer(monkeypatch)
    tracer.install()
    try:
        report = consistency.verify_all(ParticleState(0.6, 1.0, 1.7), BathSpec(0.9),
                                        LorentzOscillator(1.0, 2.0, 0.5))
        spans = list(tracer.spans)
    finally:
        tracer.uninstall()
    assert report.passed
    (verify,) = [sp for sp in spans if sp.name == "consistency.verify_all"]

    def under_verify(sp):
        while sp.parent is not None:
            sp = sp.parent
            if sp is verify:
                return True
        return False

    names = [sp.name for sp in spans if under_verify(sp)]
    assert "observables.force_rest_frame_alt" in names
    # Every 1D value comes from one bundle, none from a standalone observable:
    # the bundle takes the drag from its bath pass too.
    assert names.count("observables.evaluate_bundle") == 1
    assert not {"observables.force_lab", "observables.heating_rate",
                "observables.intensity"} & set(names)
    # One vector pass for the net intensity, the lab force and both spontaneous
    # terms, and one for the direct rest force.
    assert names.count("kernels.integrate_omega_x") == 2
    assert names.count("observables.drag_combination") == 0
    assert {name: getattr(consistency, name) for name in CONSISTENCY_PATCHED} == before


def test_the_tracer_patches_every_tracer_only_import_and_restores_it(monkeypatch):
    """A name on TRACER_ONLY_IMPORTS that the tracer does not patch is a dead import."""
    modules = {"cli": cli, "consistency": consistency, "dynamics": dynamics,
               "observables": observables}

    def lookup():
        return {entry: getattr(modules[entry.split(".")[0]], entry.split(".")[1])
                for entry in TRACER_ONLY_IMPORTS}

    before = lookup()
    tracer = _load_tracer(monkeypatch)
    tracer.install()
    try:
        patched = lookup()
    finally:
        tracer.uninstall()
    assert sorted(entry for entry in before if patched[entry] is before[entry]) == []
    assert lookup() == before


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports (outside __future__) but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_only_unused_imports_are_the_tracer_only_ones():
    """The package has no linter: an import nothing reads is either one the
    tracer patches by name, listed here on purpose, or dead code."""
    unused = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "__init__" for name in _unused_imports(path)}
    assert unused == TRACER_ONLY_IMPORTS
