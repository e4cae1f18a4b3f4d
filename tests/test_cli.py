"""Command-line interface: config handling, outputs, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bbdrag import (
    IdentityCheck,
    ParticleState,
    drag_combination,
    equilibrium_temperature,
    force_lab,
    force_rest_frame,
    heating_rate,
    intensity,
)
from bbdrag.cli import _FLAG_FIELDS, ConfigError, _flag, load_config, run
from bbdrag.dynamics import EvolveConfig
from bbdrag.kernels import QuadratureSpec
from bbdrag.units import UnitSystem

SRC = str(Path(__file__).resolve().parents[1] / "src")

EVOLVE_HEADER = "t,beta,m,T1,F_x,Qdot,I,balance_residual"

TOPHAT_CFG = {
    "particle": {"beta": 0.5, "temperature": 0.0},
    "bath": {"temperature": 1.0},
    "model": {"type": "tophat", "amplitude": 1.0, "omega1": 0.5, "omega2": 1.5},
}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run_json(args, tmp_path, capsys):
    code = run([*args, "--output", "-"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ------------------------------------------------------------------- config


def test_empty_config_yields_documented_defaults():
    cfg = load_config({})
    assert cfg.particle.beta == 0.0
    assert cfg.particle.mass == 1.0
    assert cfg.particle.temperature == 1.0
    assert cfg.bath.temperature == 1.0
    assert type(cfg.model).__name__ == "Ohmic"
    assert cfg.units.reference_temperature == 300.0
    assert cfg.evolve == EvolveConfig(t_end=10.0)
    assert cfg.quadrature == QuadratureSpec()
    assert cfg.thermo.specific_heat == 1e-8
    assert cfg.radius is None
    assert cfg.out_format is None  # each command picks its own default
    assert cfg.out_target == "-"


def test_velocity_si_converts_to_beta():
    cfg = load_config({"particle": {"velocity_si": 1.5e8}})
    assert cfg.particle.beta == pytest.approx(0.5003461427972281, rel=1e-15)


def test_si_temperature_and_mass_convert():
    cfg = load_config(
        {"particle": {"temperature_si": 600.0}, "bath": {"temperature_si": 150.0}}
    )
    assert cfg.particle.temperature == pytest.approx(2.0, rel=1e-14)
    assert cfg.bath.temperature == pytest.approx(0.5, rel=1e-14)


def test_conflicting_speed_keys_rejected():
    with pytest.raises(ConfigError, match="velocity_si"):
        load_config({"particle": {"beta": 0.5, "velocity_si": 1.5e8}})


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="particle"):
        load_config({"particle": {"bta": 0.5}})
    with pytest.raises(ConfigError, match="config"):
        load_config({"particles": {}})


def test_invalid_values_name_the_field_path():
    with pytest.raises(ConfigError, match="particle.beta"):
        load_config({"particle": {"beta": 2.0}})
    with pytest.raises(ConfigError, match="bath.temperature"):
        load_config({"bath": {"temperature": -1.0}})
    with pytest.raises(ConfigError, match="model"):
        load_config({"model": {"type": "nope"}})
    with pytest.raises(ConfigError, match="quadrature"):
        load_config({"quadrature": {"rel_tol": -1.0}})
    with pytest.raises(ConfigError, match="evolve"):
        load_config({"evolve": {"mode": "sideways"}})


def test_negative_velocity_si_is_reported_under_its_own_path():
    with pytest.raises(ConfigError, match=r"^particle\.velocity_si: beta must lie in"):
        load_config({"particle": {"velocity_si": -1e8}})


def test_non_string_model_type_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, {"model": {"type": ["ohmic"]}})
    assert run(["force", "--config", path]) == 1
    assert "input error: model: model.type must be one of" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"particle": {"mass_si": math.inf}}, "particle.mass_si"),
        ({"particle": {"temperature_si": math.inf}}, "particle.temperature_si"),
        ({"bath": {"temperature_si": math.nan}}, "bath.temperature_si"),
        ({"particle": {"radius_si": math.inf}}, "particle.radius_si"),
        ({"particle": {"radius": math.inf}}, "particle.radius"),
    ],
)
def test_non_finite_twin_values_name_the_field_path(raw, path):
    # JSON's Infinity and NaN parse to these floats
    with pytest.raises(ConfigError, match=rf"^{path}: "):
        load_config(raw)


def test_parse_error_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "particle": {"beta": }\n}\n')
    with pytest.raises(ConfigError, match=r"line 2 column"):
        load_config(str(p))


def test_missing_config_file_reported(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        load_config(str(tmp_path / "absent.json"))


def test_config_flag_parse_error_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "particle": {"beta": }\n}\n')
    assert run(["force", "--config", str(p)]) == 1
    assert "line 2 column" in capsys.readouterr().err


@pytest.mark.parametrize("section, field", [
    pytest.param(section, field, id=field) for section, field in (
        ("evolve", "balance_substeps"), ("evolve", "beta_floor"),
        ("evolve", "temperature_tol"), ("quadrature", "inner_nodes"))
])
def test_removed_balance_substeps_field_exits_1(tmp_path, capsys, section, field):
    """Removed fields are unknown: the radiated energy is an ODE variable
    (no trapezoid substeps), the steady-state thresholds are dynamics
    constants, and the 2D route's inner rule has a fixed order."""
    path = write_cfg(tmp_path, {section: {field: 4}})
    assert run(["evolve", "--config", path]) == 1
    assert f"{section}.{field}: unknown field" in capsys.readouterr().err


def test_derived_omega_ref_is_not_a_units_field(tmp_path, capsys):
    """omega_ref follows from reference_temperature and cannot be set."""
    path = write_cfg(tmp_path, {"units": {"omega_ref": 1.0}})
    assert run(["force", "--config", path]) == 1
    assert "units.omega_ref: unknown field" in capsys.readouterr().err


def _doc_sections() -> dict[str, list[str]]:
    """Lines of docs/config.md under each "## " heading."""
    sections: dict[str, list[str]] = {}
    name = ""
    doc = Path(__file__).resolve().parents[1] / "docs" / "config.md"
    for line in doc.read_text().splitlines():
        if line.startswith("## "):
            name = line[3:].strip()
        sections.setdefault(name, []).append(line)
    return sections


def _first_table_keys(lines: list[str]) -> list[str]:
    """The backticked first column of the first table in `lines`."""
    keys: list[str] = []
    for line in lines:
        if line.startswith("| `"):
            keys.append(line.split("`")[1])
        elif keys:
            break
    return keys


@pytest.mark.parametrize("section, cls", [("Units", UnitSystem), ("quadrature", QuadratureSpec),
                                          ("evolve", EvolveConfig)])
def test_config_doc_tables_list_exactly_the_config_fields(section, cls):
    """docs/config.md documents every field the CLI reads, and no other."""
    documented = _first_table_keys(_doc_sections()[section])
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(cls))


def test_config_doc_flag_table_lists_exactly_the_cli_flags():
    documented = _first_table_keys(_doc_sections()["Command-line overrides"])
    assert sorted(documented) == sorted(_flag(dest) for dest in _FLAG_FIELDS)


def test_config_flag_missing_file_exits_1(tmp_path, capsys):
    assert run(["force", "--config", str(tmp_path / "absent.json")]) == 1
    assert "config file" in capsys.readouterr().err


def test_ode_quadrature_tolerance_coupling_checked():
    with pytest.raises(ConfigError, match="abs_tol"):
        load_config({"evolve": {"abs_tol": 1e-15}})


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_1(capsys):
    assert run(["definitely-not-a-command"]) == 1
    assert run([]) == 1
    assert run(["sweep"]) == 1  # missing --observable and range
    capsys.readouterr()


def test_bad_flag_value_exits_1(capsys):
    assert run(["force", "--beta", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "particle.beta" in err


def test_numerical_failure_exits_2(tmp_path, capsys):
    # a resonance three decades narrower than the domain cannot be
    # resolved within a two-split budget
    cfg = {
        "particle": {"beta": 0.5, "temperature": 0.0},
        "bath": {"temperature": 1.0},
        "model": {"type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 1e-3},
        "quadrature": {"rel_tol": 1e-13, "abs_tol": 1e-300, "max_subdivisions": 2},
    }
    code = run(["heat", "--config", write_cfg(tmp_path, cfg), "--output", "-"])
    assert code == 2
    assert "subdivision" in capsys.readouterr().err


def test_verify_failure_exits_3(monkeypatch, capsys):
    import bbdrag.cli as cli_module
    from bbdrag.consistency import ConsistencyReport

    failing = ConsistencyReport(
        checks=(
            IdentityCheck("energy-balance", 1.0, 0.0, 1.0, 1e-12, 1e-11, False),
        ),
        passed=False,
    )
    monkeypatch.setattr(cli_module, "verify_all", lambda *a, **k: failing)
    assert run(["verify", "--output", "-"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


def test_help_exits_0(capsys):
    # argparse raises SystemExit(0) on --help; run() maps it to the code
    assert run(["--help"]) == 0
    assert run(["evolve", "--help"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------ scalar output


def test_force_json_structure(tmp_path, capsys):
    doc = run_json(["force", "--beta", "0.5", "--t1", "0", "--t2", "1"], tmp_path, capsys)
    assert doc["command"] == "force"
    assert doc["inputs"]["beta"] == 0.5
    (row,) = doc["rows"]
    assert row["observable"] == "force_lab"
    assert row["si_unit"] == "N"
    assert row["error"] < abs(row["value"])
    assert row["value_si"] / row["value"] == pytest.approx(
        row["error_si"] / row["error"], rel=1e-9
    )


def test_intensity_reports_three_rows(tmp_path, capsys):
    doc = run_json(
        ["intensity", "--beta", "0.3", "--t1", "2", "--t2", "1"], tmp_path, capsys
    )
    names = [r["observable"] for r in doc["rows"]]
    assert names == ["intensity", "intensity_emitted", "intensity_absorbed"]
    net, emitted, absorbed = (r["value"] for r in doc["rows"])
    assert net == pytest.approx(emitted - absorbed, rel=1e-9)
    assert all(r["si_unit"] == "W" for r in doc["rows"])


def test_scalar_csv_output(tmp_path, capsys):
    code = run(["heat", "--t1", "2", "--t2", "1", "--format", "csv", "--output", "-"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "observable,value,error"
    assert lines[1].startswith("heating_rate,")


def test_equilibrium_temp_at_rest_is_bath_temperature(tmp_path, capsys):
    doc = run_json(
        ["equilibrium-temp", "--beta", "0", "--t2", "1"], tmp_path, capsys
    )
    (row,) = doc["rows"]
    assert row["observable"] == "equilibrium_temperature"
    assert row["value"] == 1.0
    assert row["si_unit"] == "K"


def test_equilibrium_temp_below_the_rounding_of_the_doppler_factor(tmp_path, capsys):
    """At beta = 1e-17 the bracket [T2/D, T2*D] is one point; T1* is T2."""
    doc = run_json(["equilibrium-temp", "--beta", "1e-17", "--t2", "1"], tmp_path, capsys)
    (row,) = doc["rows"]
    assert row["value"] == 1.0


def test_equilibrium_temp_converges_for_ohmic_near_its_root(tmp_path, capsys):
    # The heating rate at T1* cancels to about 1e-8 here; the CLI used to
    # exit 2 asking for an absolute 1e-14 below the rounding floor of its
    # two terms.
    path = write_cfg(tmp_path, {"model": {"type": "ohmic", "slope": 1, "omega_c": 5}})
    doc = run_json(
        ["equilibrium-temp", "--config", path, "--beta", "0.007902226058671866",
         "--t2", "1.654009284256541"],
        tmp_path,
        capsys,
    )
    (row,) = doc["rows"]
    assert row["value"] == pytest.approx(1.654009284256541, rel=1e-4)


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    """scipy is imported by the commands that need it, not at start-up, and
    the one-shot observables and verify at beta = 0.9, where the bath
    kernels take their closed forms, need none of it."""
    scipy = "sorted(m for m in sys.modules if m.startswith('scipy'))"
    code = f"import sys, bbdrag.cli; print({scipy})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"
    commands = ["force", "heat", "intensity", "restframe-force", "verify"]
    code = ("import sys, bbdrag.cli\n"
            f"for k, command in enumerate({commands!r}):\n"
            "    assert bbdrag.cli.run([command, '--beta', '0.9', '--output',"
            f" {str(tmp_path)!r} + f'/{{k}}.json']) == 0, command\n"
            f"print({scipy})")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"


def test_flags_override_config_file(tmp_path, capsys):
    path = write_cfg(tmp_path, TOPHAT_CFG)
    doc = run_json(["heat", "--config", path, "--t1", "2.0"], tmp_path, capsys)
    assert doc["inputs"]["temperature_particle"] == 2.0
    assert doc["inputs"]["model_kind"] == "TopHat"  # file still supplies the model


@pytest.mark.parametrize(
    "flag, section, field",
    [("--t1", "particle", "temperature_particle"), ("--t2", "bath", "temperature_bath")],
)
def test_temperature_flags_supersede_the_si_twin(tmp_path, capsys, flag, section, field):
    path = write_cfg(tmp_path, {section: {"temperature_si": 450.0}})
    doc = run_json(["heat", "--config", path, flag, "0.5"], tmp_path, capsys)
    assert doc["inputs"][field] == 0.5


def test_flag_into_a_non_object_section_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, {"particle": 5})
    assert run(["force", "--config", path, "--beta", "0.5"]) == 1
    assert "input error: particle: expected a JSON object" in capsys.readouterr().err


# ------------------------------------------------------------------ evolve


# This config runs with C_s*T1 = 0.015, so the rest-mass-feedback advisory
# fires by design; acknowledge it rather than letting it pollute the run.
@pytest.mark.filterwarnings("ignore:C_s\\*T1:UserWarning")
def test_evolve_csv_header_and_shape(tmp_path):
    path = write_cfg(
        tmp_path,
        {
            **TOPHAT_CFG,
            "particle": {"beta": 0.3, "temperature": 1.5, "specific_heat": 0.01},
            "evolve": {"t_end": 2.0, "mode": "quasi-static-T1"},
        },
    )
    out = tmp_path / "traj.csv"
    assert run(["evolve", "--config", path, "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == EVOLVE_HEADER
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.3
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0


# This config runs with C_s*T1 = 0.015, so the rest-mass-feedback advisory
# fires by design; acknowledge it rather than letting it pollute the run.
@pytest.mark.filterwarnings("ignore:C_s\\*T1:UserWarning")
def test_evolve_json_carries_energy_ledger(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        {
            **TOPHAT_CFG,
            "particle": {"beta": 0.0, "temperature": 1.5, "specific_heat": 0.01},
            "evolve": {
                "t_end": 2.0,
                "rel_tol": 1e-12,
                "abs_tol": 1e-13,
            },
        },
    )
    doc = run_json(["evolve", "--config", path, "--format", "json"], tmp_path, capsys)
    # the light particle thermalizes in ~0.03 time units, well before t_end
    assert doc["termination"] == "steady"
    assert doc["radiated_energy"] > 0.0
    assert doc["radiated_energy_si_joule"] > 0.0
    assert doc["bookkeeping_residual"] <= 1e-6 * doc["radiated_energy"]
    assert doc["rows"][0]["t"] == 0.0
    assert set(doc["rows"][0]) == set(EVOLVE_HEADER.split(","))
    assert "rows_si" in doc and "si_units" in doc


# C_s*T1 = 0.75 here: the rest-mass-feedback advisory fires by design.
@pytest.mark.filterwarnings("ignore:C_s\\*T1:UserWarning")
def test_evolve_fixed_velocity_json_is_strict(tmp_path, capsys):
    """The undefined bookkeeping residual of a fixed-velocity run is null, not NaN."""
    path = write_cfg(
        tmp_path,
        {
            **TOPHAT_CFG,
            "particle": {"beta": 0.3, "temperature": 1.5, "specific_heat": 0.5},
            "evolve": {"t_end": 0.2, "mode": "fixed-velocity"},
        },
    )
    assert run(["evolve", "--config", path, "--format", "json", "--output", "-"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["bookkeeping_residual"] is None
    assert doc["radiated_energy"] > 0.0


# This config runs with C_s*T1 = 0.015, so the rest-mass-feedback advisory
# fires by design; acknowledge it rather than letting it pollute the run.
@pytest.mark.filterwarnings("ignore:C_s\\*T1:UserWarning")
def test_evolve_stride_flag(tmp_path):
    base = {
        **TOPHAT_CFG,
        "particle": {"beta": 0.0, "temperature": 1.5, "specific_heat": 0.01},
        "evolve": {"t_end": 2.0},
    }
    path = write_cfg(tmp_path, base)
    dense, thin = tmp_path / "dense.csv", tmp_path / "thin.csv"
    assert run(["evolve", "--config", path, "--output", str(dense)]) == 0
    assert run(["evolve", "--config", path, "--stride", "5", "--output", str(thin)]) == 0
    n_dense = len(dense.read_text().strip().split("\n"))
    n_thin = len(thin.read_text().strip().split("\n"))
    assert n_thin < n_dense


# ------------------------------------------------------------------- verify


def test_verify_passes_and_reports_si_residuals(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        {
            **TOPHAT_CFG,
            "particle": {"beta": 0.6, "temperature": 1.2, "specific_heat": 0.01},
        },
    )
    code = run(["verify", "--config", path, "--output", "-"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "energy-balance" in names and "drag-sign" in names
    for check in doc["checks"]:
        assert check["passed"] is True
        assert "residual_si" in check and "si_unit" in check


@pytest.mark.parametrize("beta", ["0.3", "0.5"])
def test_verify_passes_for_the_cutoff_free_ohmic_model(tmp_path, capsys, beta):
    """Exit 3 here while the reduction check left out the error of P(T1)."""
    path = write_cfg(tmp_path, {"model": {"type": "ohmic", "slope": 1.0}})
    doc = run_json(["verify", "--config", path, "--beta", beta, "--t1", "0.5", "--t2", "1"],
                   tmp_path, capsys)
    assert doc["passed"] is True


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_rejects_csv(tmp_path, capsys, source):
    cfg = {**TOPHAT_CFG, "output": {"format": "csv"}} if source == "config" else TOPHAT_CFG
    argv = ["verify", "--config", write_cfg(tmp_path, cfg), "--output", "-"]
    assert run(argv + (["--format", "csv"] if source == "flag" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: output.format:" in captured.err


# -------------------------------------------------------------------- sweep


def test_sweep_beta_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        [
            "sweep", "--observable", "drag", "--beta", "0:0.9:10",
            "--t2", "1", "--config", write_cfg(tmp_path, TOPHAT_CFG),
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,value,error"
    assert len(lines) == 11
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 0.0  # no drag at rest
    assert all(v < 0.0 for v in values[1:])  # drag opposes motion
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


def test_sweep_t1_heat_crosses_zero(tmp_path):
    out = tmp_path / "heat.csv"
    code = run(
        [
            "sweep", "--observable", "heat", "--t1", "0:3:7", "--beta", "0",
            "--t2", "1", "--config", write_cfg(tmp_path, TOPHAT_CFG),
            "--output", str(out),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    heats = {float(t1): float(v) for t1, v, _ in rows}
    assert heats[0.0] > 0.0  # cold particle heats up
    assert heats[3.0] < 0.0  # hot particle cools
    assert abs(heats[1.0]) < 1e-10  # equilibrium at T1 = T2


def test_sweep_equilibrium_temp_json(tmp_path, capsys):
    doc = run_json(
        [
            "sweep", "--observable", "equilibrium-temp", "--beta", "0:0.8:5",
            "--t2", "1", "--config", write_cfg(tmp_path, TOPHAT_CFG),
            "--format", "json",
        ],
        tmp_path,
        capsys,
    )
    assert doc["observable"] == "equilibrium-temp"
    rows = doc["rows"]
    assert len(rows) == 5 and rows[0]["beta"] == 0.0
    assert rows[0]["value"] == 1.0
    # the band model runs colder than the bath as beta grows
    assert all(rows[i + 1]["value"] < rows[i]["value"] for i in range(4))
    assert all(r["si_unit"] == "K" for r in rows)


def test_sweep_rejects_multiple_ranges(tmp_path, capsys):
    code = run(
        ["sweep", "--observable", "drag", "--beta", "0:0.5:3", "--t2", "0:1:3"]
    )
    assert code == 1
    capsys.readouterr()


def test_sweep_bad_range_syntax(capsys):
    assert run(["sweep", "--observable", "drag", "--beta", "0:0.5"]) == 1
    assert run(["sweep", "--observable", "drag", "--beta", "0:0.5:0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("observable", ["force", "heat", "intensity", "drag",
                                        "restframe-force", "equilibrium-temp"])
def test_sweep_rows_equal_the_one_shot_values_in_grid_order(tmp_path, observable):
    cfg = load_config(TOPHAT_CFG)
    rest = (cfg.bath, cfg.model, cfg.quadrature)
    fn = {"force": force_lab, "heat": heating_rate, "intensity": intensity,
          "drag": drag_combination, "restframe-force": force_rest_frame}.get(observable)
    grid = np.linspace(0.0, 0.6, 3)
    out = tmp_path / "sweep.csv"
    assert run(
        ["sweep", "--observable", observable, "--beta", "0:0.6:3",
         "--config", write_cfg(tmp_path, TOPHAT_CFG), "--output", str(out)]
    ) == 0
    expected = ["beta,value,error"]
    for beta in grid:
        state = ParticleState(float(beta), cfg.particle.mass, cfg.particle.temperature)
        if observable == "equilibrium-temp":
            value, error = equilibrium_temperature(state.beta, *rest), 0.0
        else:
            q = fn(state, *rest)
            q = q[0] if observable == "intensity" else q  # the net intensity
            value, error = q.value, q.error
        expected.append(f"{float(beta):.12g},{value:.12g},{error:.12g}")
    assert out.read_text().splitlines() == expected


def test_sweep_thread_env_does_not_change_bytes(tmp_path):
    """A 40-point sweep is byte-identical at 1 and 2 BLAS threads.

    numpy's BLAS reads OPENBLAS_NUM_THREADS / OMP_NUM_THREADS when it
    loads, so each run is a fresh subprocess.
    """
    path = write_cfg(tmp_path, TOPHAT_CFG)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"s{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "bbdrag.cli", "sweep", "--observable", "restframe-force",
             "--beta", "0:0.9:40", "--config", path, "--output", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC,
                 "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b"\n") == 41  # header and 40 points


@pytest.mark.parametrize("command", [
    ["force", "--beta", "0.5", "--format", "json"],
    ["sweep", "--observable", "heat", "--beta", "0:0.5:2"],
], ids=["force-json", "sweep-csv"])
def test_unwritable_output_target_exits_1_without_a_traceback(tmp_path, command):
    target = tmp_path / "missing" / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bbdrag.cli", *command,
         "--config", write_cfg(tmp_path, TOPHAT_CFG), "--output", str(target)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1, proc.stderr
    assert "output.target" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("t1", ["1e80", "1e300", "2.8951e75"])
def test_nonfinite_integrand_exits_2_without_a_traceback(t1):
    """Far above the default Ohmic spectrum w^4 overflows where a'' has
    underflowed to 0: a numerical failure of valid input, not an input error.
    At T1 = 2.8951e75 only the sample at the cutoff is inf * 0.  A
    subprocess, since pytest would raise the overflow RuntimeWarning; the
    CLI itself prints none of numpy's floating-point warnings."""
    proc = subprocess.run(
        [sys.executable, "-m", "bbdrag.cli", "heat", "--beta", "0.3", "--t1", t1, "--t2", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 2, proc.stderr
    assert "numerical failure" in proc.stderr and "non-finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_sweep_over_temperature_warns_for_the_hottest_grid_point(tmp_path, capsys):
    """The point-dipole size check covers the swept temperatures, not only the base ones."""
    args = ["sweep", "--observable", "heat", "--beta", "0.3", "--output", "-",
            "--config", write_cfg(tmp_path, {"particle": {"radius": 0.5}})]
    with pytest.warns(UserWarning, match="point-dipole"):
        assert run([*args, "--t1", "1:2:2"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert run([*args, "--t1", "0.5:1:2"]) == 0
        assert run([*args, "--t1=-1:2:2"]) == 1
    assert "temperature must be finite and >= 0" in capsys.readouterr().err


# ------------------------------------------------------------- mint-golden


def test_mint_golden_reproduces_stored_file(tmp_path, capsys):
    """Re-minting from scratch regenerates the stored golden bytes."""
    from bbdrag.oracle import default_golden_path

    out = tmp_path / "cases.jsonl"
    assert run(["mint-golden", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("minted ") == len(out.read_text().strip().split("\n"))
    assert out.read_bytes() == default_golden_path().read_bytes()


def test_mint_golden_into_an_uncreatable_directory_exits_1(tmp_path, monkeypatch, capsys):
    """A parent path that is a regular file fails as an input error, before the minting."""
    import bbdrag.oracle as oracle

    cases = [c for c in oracle.BUILTIN_CASES if c["name"] == "emission-ohmic-closed-form"]
    monkeypatch.setattr(oracle, "BUILTIN_CASES", tuple(cases))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["mint-golden", "--output", str(blocker / "cases.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "output.target" in err
    assert "Traceback" not in err
