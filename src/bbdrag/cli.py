"""Command-line surface: config parsing, dispatch, CSV/JSON output.

Subcommands:

    force | heat | intensity | restframe-force   one-shot observables
    equilibrium-temp                              root of the heating rate
    evolve                                        trajectory integration
    verify                                        cross-frame identity suite
    sweep                                         one observable over a grid
    mint-golden                                   regenerate oracle records

Exit codes: 0 success, 1 input error (bad flags, malformed config),
2 numerical failure (quadrature, bracket, step underflow, oracle gate),
3 verify-suite failure.

All output is deterministic: identical config and command produce
byte-identical files, independent of thread count (sweep results are
assembled in grid order, not completion order).  JSON output reports
every physical quantity in internal units and in SI.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consistency import verify_all
from .dynamics import (
    BracketError,
    DynamicsError,
    EvolveConfig,
    MaterialThermo,
    Trajectory,
    equilibrium_temperature,
    evolve,
)
from .kernels import QuadratureConvergenceError, QuadratureSpec
from .observables import (
    BathSpec,
    ParticleState,
    Quantity,
    drag_combination,
    force_lab,
    force_rest_frame,
    heating_rate,
    intensity,
)
from .oracle import OracleError, mint_builtin
from .polarizability import check_point_dipole, model_from_dict
from .units import C_LIGHT, HBAR, UnitSystem, beta_from_velocity

__all__ = ["main", "run", "load_config", "write_output", "ConfigError", "RunConfig"]


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending field path."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means numerical failure
    # here, so usage problems are routed to the input-error exit code.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


_DEFAULT_MODEL = {"type": "ohmic", "slope": 1.0, "omega_c": 5.0}

_EVOLVE_DEFAULTS = {
    "t_end": 10.0,
    "initial_step": None,
    "rel_tol": 1e-8,
    "abs_tol": 1e-10,
    "mode": "full",
    "output_stride": 1,
    "max_step": math.inf,
    "beta_floor": 1e-8,
    "temperature_tol": 1e-6,
    "beta_stop": None,
    "monitor": True,
    "balance_substeps": 1,
}

_QUAD_FIELDS = ("rel_tol", "abs_tol", "u_max", "max_subdivisions", "inner_nodes")

EVOLVE_COLUMNS = ("t", "beta", "m", "T1", "F_x", "Qdot", "I", "balance_residual")

# SI conversion kind for each evolve column / verify check (beta has none).
_EVOLVE_KINDS = {
    "t": "time",
    "m": "mass",
    "T1": "temperature",
    "F_x": "force",
    "Qdot": "power",
    "I": "power",
    "balance_residual": "power",
}
_CHECK_KINDS = {
    "energy-balance": "power",
    "intensity-split": "power",
    "frame-force-relation": "force",
    "spontaneous-term-cancellation": "force",
    "spontaneous-term-reduction": "force",
    "rest-force-dual-form": "force",
    "drag-composition": "force",
    "drag-sign": "force",
    "rest-force-sign": "force",
}

_SI_UNIT = {
    "force": "N",
    "power": "W",
    "temperature": "K",
    "time": "s",
    "mass": "kg",
    "frequency": "rad/s",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, internal-unit view of one run's inputs."""

    units: UnitSystem
    particle: ParticleState
    thermo: MaterialThermo
    radius: float | None
    bath: BathSpec
    model: object
    quadrature: QuadratureSpec
    evolve: EvolveConfig
    out_format: str | None
    out_target: str


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _num(section, key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key}: expected a number, got {value!r}")
    return float(value)


def _reject_unknown(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _read_config_file(source):
    """The JSON object in a config file; read and parse errors name the file."""
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"config file {path}: {e.strerror or e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config file {path}: parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return _require_mapping(raw, "config")


def load_config(source) -> RunConfig:
    """Build a RunConfig from a JSON file path or an already-parsed dict.

    Every physics value is converted to internal units here; validation
    errors name the offending field path, parse errors carry line and
    column.  {} is valid and yields the documented defaults.
    """
    raw = source if isinstance(source, dict) else _read_config_file(source)
    _reject_unknown(
        raw,
        ("units", "particle", "bath", "model", "quadrature", "evolve", "output"),
        "config",
    )

    units_raw = _require_mapping(raw.get("units", {}), "units")
    _reject_unknown(units_raw, ("reference_temperature",), "units")
    t_ref = _num("units", "reference_temperature", units_raw.get("reference_temperature", 300.0))
    try:
        us = UnitSystem(reference_temperature=t_ref)
    except ValueError as e:
        raise ConfigError(f"units.reference_temperature: {e}") from e

    part = _require_mapping(raw.get("particle", {}), "particle")
    _reject_unknown(
        part,
        ("beta", "velocity_si", "mass", "mass_si", "temperature", "temperature_si",
         "specific_heat", "radius", "radius_si"),
        "particle",
    )
    if "beta" in part and "velocity_si" in part:
        raise ConfigError("particle.velocity_si: conflicts with particle.beta; give one")
    if "velocity_si" in part:
        try:
            beta = beta_from_velocity(_num("particle", "velocity_si", part["velocity_si"]))
        except ValueError as e:
            raise ConfigError(f"particle.velocity_si: {e}") from e
    else:
        beta = _num("particle", "beta", part.get("beta", 0.0))
    if "mass" in part and "mass_si" in part:
        raise ConfigError("particle.mass_si: conflicts with particle.mass; give one")
    if "mass_si" in part:
        mass = us.to_internal(_num("particle", "mass_si", part["mass_si"]), "mass")
    else:
        mass = _num("particle", "mass", part.get("mass", 1.0))
    if "temperature" in part and "temperature_si" in part:
        raise ConfigError(
            "particle.temperature_si: conflicts with particle.temperature; give one"
        )
    if "temperature_si" in part:
        t1 = us.to_internal(_num("particle", "temperature_si", part["temperature_si"]),
                            "temperature")
    else:
        t1 = _num("particle", "temperature", part.get("temperature", 1.0))
    try:
        state = ParticleState(beta, mass, t1)
    except ValueError as e:
        msg = str(e)
        field = "particle.beta" if "beta" in msg else (
            "particle.mass" if "mass" in msg else "particle.temperature")
        raise ConfigError(f"{field}: {msg}") from e
    try:
        thermo = MaterialThermo(_num("particle", "specific_heat",
                                     part.get("specific_heat", 1e-8)))
    except ValueError as e:
        raise ConfigError(f"particle.specific_heat: {e}") from e
    radius = None
    if "radius" in part and "radius_si" in part:
        raise ConfigError("particle.radius_si: conflicts with particle.radius; give one")
    if "radius" in part and part["radius"] is not None:
        radius = _num("particle", "radius", part["radius"])
    elif "radius_si" in part and part["radius_si"] is not None:
        # length in internal units is c/omega_ref
        radius = _num("particle", "radius_si", part["radius_si"]) * us.omega_ref / C_LIGHT
    if radius is not None and radius <= 0.0:
        raise ConfigError(f"particle.radius: must be positive, got {radius!r}")

    bath_raw = _require_mapping(raw.get("bath", {}), "bath")
    _reject_unknown(bath_raw, ("temperature", "temperature_si"), "bath")
    if "temperature" in bath_raw and "temperature_si" in bath_raw:
        raise ConfigError("bath.temperature_si: conflicts with bath.temperature; give one")
    if "temperature_si" in bath_raw:
        t2 = us.to_internal(_num("bath", "temperature_si", bath_raw["temperature_si"]),
                            "temperature")
    else:
        t2 = _num("bath", "temperature", bath_raw.get("temperature", 1.0))
    try:
        bath = BathSpec(t2)
    except ValueError as e:
        raise ConfigError(f"bath.temperature: {e}") from e

    model_raw = _require_mapping(raw.get("model", dict(_DEFAULT_MODEL)), "model")
    try:
        model = model_from_dict(model_raw)
    except (ValueError, KeyError) as e:
        raise ConfigError(f"model: {e}") from e

    quad_raw = _require_mapping(raw.get("quadrature", {}), "quadrature")
    _reject_unknown(quad_raw, _QUAD_FIELDS, "quadrature")
    quad_kwargs = {}
    for key in _QUAD_FIELDS:
        if key in quad_raw:
            v = quad_raw[key]
            if key in ("max_subdivisions", "inner_nodes"):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConfigError(f"quadrature.{key}: expected an integer, got {v!r}")
                quad_kwargs[key] = v
            else:
                quad_kwargs[key] = _num("quadrature", key, v)
    try:
        quad = QuadratureSpec(**quad_kwargs)
    except ValueError as e:
        raise ConfigError(f"quadrature: {e}") from e

    ev_raw = _require_mapping(raw.get("evolve", {}), "evolve")
    _reject_unknown(ev_raw, tuple(_EVOLVE_DEFAULTS), "evolve")
    ev_kwargs = dict(_EVOLVE_DEFAULTS)
    for key, v in ev_raw.items():
        if key == "mode":
            if not isinstance(v, str):
                raise ConfigError(f"evolve.mode: expected a string, got {v!r}")
            ev_kwargs[key] = v
        elif key == "monitor":
            if not isinstance(v, bool):
                raise ConfigError(f"evolve.monitor: expected a boolean, got {v!r}")
            ev_kwargs[key] = v
        elif key in ("output_stride", "balance_substeps"):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"evolve.{key}: expected an integer, got {v!r}")
            ev_kwargs[key] = v
        elif key in ("initial_step", "beta_stop") and v is None:
            ev_kwargs[key] = None
        else:
            ev_kwargs[key] = _num("evolve", key, v)
    try:
        ev_cfg = EvolveConfig(**ev_kwargs)
        ev_cfg.validate_against(quad)
    except ValueError as e:
        raise ConfigError(f"evolve: {e}") from e

    out_raw = _require_mapping(raw.get("output", {}), "output")
    _reject_unknown(out_raw, ("format", "target"), "output")
    out_format = out_raw.get("format")
    if out_format is not None and out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected 'csv' or 'json', got {out_format!r}")
    out_target = out_raw.get("target", "-")
    if not isinstance(out_target, str):
        raise ConfigError(f"output.target: expected a string path or '-', got {out_target!r}")

    if radius is not None:
        check_point_dipole(radius, state.temperature, bath.temperature)

    return RunConfig(us, state, thermo, radius, bath, model, quad, ev_cfg,
                     out_format, out_target)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_output(rows, columns, fmt: str, target: str, json_extra: dict | None = None):
    """Serialize rows (dicts keyed by columns) as CSV or JSON to target.

    CSV: one header line, 12 significant digits, LF newlines.  JSON: the
    rows under "rows" plus any json_extra fields, sorted keys.  Output
    is byte-deterministic for identical inputs.
    """
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = dict(json_extra or {})
        doc["rows"] = [{c: row[c] for c in columns} for row in rows]
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _quantity_report(name: str, kind: str, q: Quantity, cfg: RunConfig) -> dict:
    return {
        "observable": name,
        "value": q.value,
        "error": q.error,
        "value_si": cfg.units.from_internal(q.value, kind),
        "error_si": cfg.units.from_internal(q.error, kind),
        "si_unit": _SI_UNIT[kind],
        "diagnostics": q.diagnostics,
    }


def _inputs_report(cfg: RunConfig) -> dict:
    return {
        "beta": cfg.particle.beta,
        "mass": cfg.particle.mass,
        "temperature_particle": cfg.particle.temperature,
        "temperature_bath": cfg.bath.temperature,
        "model": json.loads(json.dumps(cfg.model.__dict__)),
        "model_kind": type(cfg.model).__name__,
        "reference_temperature_kelvin": cfg.units.reference_temperature,
    }


def _emit_scalars(cfg: RunConfig, fmt: str, reports: list[dict], command: str):
    fmt = fmt or "json"
    if fmt == "csv":
        rows = [
            {"observable": r["observable"], "value": r["value"], "error": r["error"]}
            for r in reports
        ]
        write_output(rows, ("observable", "value", "error"), "csv", cfg.out_target)
    else:
        write_output(
            reports,
            tuple(reports[0].keys()),
            "json",
            cfg.out_target,
            json_extra={"command": command, "inputs": _inputs_report(cfg)},
        )


def _cmd_scalar(command: str, cfg: RunConfig, fmt: str) -> int:
    state, bath, model, quad = cfg.particle, cfg.bath, cfg.model, cfg.quadrature
    if command == "force":
        reports = [_quantity_report("force_lab", "force",
                                    force_lab(state, bath, model, quad), cfg)]
    elif command == "heat":
        reports = [_quantity_report("heating_rate", "power",
                                    heating_rate(state, bath, model, quad), cfg)]
    elif command == "intensity":
        net, emitted, absorbed = intensity(state, bath, model, quad)
        reports = [
            _quantity_report("intensity", "power", net, cfg),
            _quantity_report("intensity_emitted", "power", emitted, cfg),
            _quantity_report("intensity_absorbed", "power", absorbed, cfg),
        ]
    else:  # restframe-force
        reports = [_quantity_report("force_rest_frame", "force",
                                    force_rest_frame(state, bath, model, quad), cfg)]
    _emit_scalars(cfg, fmt, reports, command)
    return 0


def _cmd_equilibrium(cfg: RunConfig, fmt: str) -> int:
    t_star = equilibrium_temperature(cfg.particle.beta, cfg.bath, cfg.model, cfg.quadrature)
    q = heating_rate(
        ParticleState(cfg.particle.beta, cfg.particle.mass, t_star),
        cfg.bath, cfg.model, cfg.quadrature,
    )
    report = {
        "observable": "equilibrium_temperature",
        "value": t_star,
        "error": 0.0,
        "value_si": cfg.units.from_internal(t_star, "temperature"),
        "error_si": 0.0,
        "si_unit": _SI_UNIT["temperature"],
        "diagnostics": {"heating_rate_at_root": q.value, "heating_rate_error": q.error},
    }
    _emit_scalars(cfg, fmt, [report], "equilibrium-temp")
    return 0


def _trajectory_rows(traj: Trajectory, stride: int) -> list[dict]:
    pts = list(traj.points[::stride])
    if traj.points and traj.points[-1] is not pts[-1]:
        pts.append(traj.points[-1])  # keep the terminal state visible
    return [
        {
            "t": p.t, "beta": p.beta, "m": p.mass, "T1": p.temperature,
            "F_x": p.force_lab, "Qdot": p.heating_rate, "I": p.intensity,
            "balance_residual": p.balance_residual,
        }
        for p in pts
    ]


def _cmd_evolve(cfg: RunConfig, fmt: str) -> int:
    traj = evolve(cfg.particle, cfg.bath, cfg.model, cfg.thermo, cfg.evolve, cfg.quadrature)
    rows = _trajectory_rows(traj, cfg.evolve.output_stride)
    fmt = fmt or "csv"
    if fmt == "csv":
        write_output(rows, EVOLVE_COLUMNS, "csv", cfg.out_target)
    else:
        us = cfg.units
        rows_si = [
            {
                c: (row[c] if c == "beta" else us.from_internal(row[c], _EVOLVE_KINDS[c]))
                for c in EVOLVE_COLUMNS
            }
            for row in rows
        ]
        extra = {
            "command": "evolve",
            "termination": traj.termination,
            "radiated_energy": traj.radiated_energy,
            # internal energy unit is hbar*omega_ref
            "radiated_energy_si_joule": traj.radiated_energy * HBAR * us.omega_ref,
            "bookkeeping_residual": traj.bookkeeping_residual,
            "rows_si": rows_si,
            "si_units": {c: _SI_UNIT.get(_EVOLVE_KINDS.get(c, ""), "") for c in EVOLVE_COLUMNS},
            "inputs": _inputs_report(cfg),
        }
        write_output(rows, EVOLVE_COLUMNS, "json", cfg.out_target, json_extra=extra)
    return 0


def _cmd_verify(cfg: RunConfig, fmt: str) -> int:
    report = verify_all(cfg.particle, cfg.bath, cfg.model, cfg.quadrature)
    doc = report.to_dict()
    us = cfg.units
    for check in doc["checks"]:
        kind = _CHECK_KINDS.get(check["name"])
        if kind:
            check["si_unit"] = _SI_UNIT[kind]
            for field in ("lhs", "rhs", "residual", "combined_error", "tolerance"):
                check[field + "_si"] = us.from_internal(check[field], kind)
    doc["command"] = "verify"
    doc["inputs"] = _inputs_report(cfg)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if cfg.out_target == "-":
        sys.stdout.write(text)
    else:
        Path(cfg.out_target).write_text(text)
    return 0 if report.passed else 3


_SWEEP_OBSERVABLES = {
    "force": ("force", force_lab),
    "heat": ("power", heating_rate),
    "intensity": ("power", None),  # net intensity, handled below
    "drag": ("force", drag_combination),
    "restframe-force": ("force", force_rest_frame),
    "equilibrium-temp": ("temperature", None),
}


def _parse_range(text: str, flag: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag}: range must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from e
    if count < 1:
        raise ConfigError(f"{flag}: count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _cmd_sweep(cfg: RunConfig, fmt: str, observable: str, param: str,
               grid: np.ndarray) -> int:
    if observable not in _SWEEP_OBSERVABLES:
        raise ConfigError(
            f"--observable: unknown observable {observable!r}; expected one of "
            f"{sorted(_SWEEP_OBSERVABLES)}"
        )
    kind, fn = _SWEEP_OBSERVABLES[observable]

    def eval_point(value: float) -> tuple[float, float]:
        beta, t1 = cfg.particle.beta, cfg.particle.temperature
        t2 = cfg.bath.temperature
        if param == "beta":
            beta = value
        elif param == "t1":
            t1 = value
        else:
            t2 = value
        state = ParticleState(beta, cfg.particle.mass, t1)
        bath = BathSpec(t2)
        if observable == "equilibrium-temp":
            return equilibrium_temperature(beta, bath, cfg.model, cfg.quadrature), 0.0
        if observable == "intensity":
            net, _, _ = intensity(state, bath, cfg.model, cfg.quadrature)
            return net.value, net.error
        q = fn(state, bath, cfg.model, cfg.quadrature)
        return q.value, q.error

    env = os.environ.get("BBDRAG_THREADS", "")
    if env:
        try:
            cap = int(env)
        except ValueError as e:
            raise ConfigError(f"BBDRAG_THREADS: expected an integer, got {env!r}") from e
        if cap < 1:
            raise ConfigError(f"BBDRAG_THREADS: must be >= 1, got {cap}")
    else:
        cap = min(8, os.cpu_count() or 1)
    workers = max(1, min(cap, len(grid)))
    if workers == 1:
        results = [eval_point(v) for v in grid]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(eval_point, grid))  # grid order, not completion order

    rows = [
        {param: float(v), "value": val, "error": err}
        for v, (val, err) in zip(grid, results)
    ]
    fmt = fmt or "csv"
    if fmt == "csv":
        write_output(rows, (param, "value", "error"), "csv", cfg.out_target)
    else:
        us = cfg.units
        for row in rows:
            row["value_si"] = us.from_internal(row["value"], kind)
            row["si_unit"] = _SI_UNIT[kind]
        write_output(
            rows, (param, "value", "error", "value_si", "si_unit"), "json",
            cfg.out_target,
            json_extra={"command": "sweep", "observable": observable,
                        "inputs": _inputs_report(cfg)},
        )
    return 0


def _cmd_mint_golden(target: str | None) -> int:
    records = mint_builtin(target) if target else mint_builtin()
    for rec in records:
        sys.stderr.write(
            f"minted {rec['name']}: {rec['value']:.12g} "
            f"(grid change rel {rec['grid_rel_change']:.2e})\n"
        )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bbdrag", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p, with_evolve=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="output target path, or - for stdout")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--beta", help="particle speed in units of c")
        p.add_argument("--velocity-si", help="particle speed in m/s")
        p.add_argument("--t1", help="particle temperature, internal units")
        p.add_argument("--t2", help="bath temperature, internal units")
        if with_evolve:
            p.add_argument("--t-end", help="integration horizon, internal time units")
            p.add_argument("--mode", choices=("full", "quasi-static-T1", "fixed-velocity"))
            p.add_argument("--stride", type=int, help="output every Nth accepted step")

    for name in ("force", "heat", "intensity", "restframe-force",
                 "equilibrium-temp", "verify"):
        add_common(sub.add_parser(name))
    add_common(sub.add_parser("evolve"), with_evolve=True)
    sweep = sub.add_parser("sweep")
    add_common(sweep)
    sweep.add_argument("--observable", required=True)
    mint = sub.add_parser("mint-golden")
    mint.add_argument("--output", help="golden file path (default: golden/cases.jsonl)")
    return parser


def _assemble_config(args) -> tuple[RunConfig, str | None, dict]:
    """Merge the config file with command-line overrides.

    Returns (config, format, sweep ranges keyed by param name).
    """
    raw: dict = {}
    if args.config:
        raw = _read_config_file(args.config)

    sweeps: dict[str, np.ndarray] = {}

    def set_scalar(flag_value, flag, section, key):
        if ":" in flag_value:
            raise ConfigError(f"{flag}: ranges are only valid for sweep")
        try:
            value = float(flag_value)
        except ValueError as e:
            raise ConfigError(f"{flag}: expected a number, got {flag_value!r}") from e
        raw.setdefault(section, {})[key] = value

    allow_range = args.command == "sweep"
    if getattr(args, "beta", None) is not None and getattr(args, "velocity_si", None) is not None:
        raise ConfigError("--velocity-si: conflicts with --beta; give one")
    if getattr(args, "beta", None) is not None:
        if allow_range and ":" in args.beta:
            sweeps["beta"] = _parse_range(args.beta, "--beta")
        else:
            set_scalar(args.beta, "--beta", "particle", "beta")
    if getattr(args, "velocity_si", None) is not None:
        set_scalar(args.velocity_si, "--velocity-si", "particle", "velocity_si")
        raw.get("particle", {}).pop("beta", None)
    if getattr(args, "t1", None) is not None:
        if allow_range and ":" in args.t1:
            sweeps["t1"] = _parse_range(args.t1, "--t1")
        else:
            set_scalar(args.t1, "--t1", "particle", "temperature")
    if getattr(args, "t2", None) is not None:
        if allow_range and ":" in args.t2:
            sweeps["t2"] = _parse_range(args.t2, "--t2")
        else:
            set_scalar(args.t2, "--t2", "bath", "temperature")
    if getattr(args, "t_end", None) is not None:
        try:
            raw.setdefault("evolve", {})["t_end"] = float(args.t_end)
        except ValueError as e:
            raise ConfigError(f"--t-end: expected a number, got {args.t_end!r}") from e
    if getattr(args, "mode", None) is not None:
        raw.setdefault("evolve", {})["mode"] = args.mode
    if getattr(args, "stride", None) is not None:
        raw.setdefault("evolve", {})["output_stride"] = args.stride
    if getattr(args, "output", None) is not None:
        raw.setdefault("output", {})["target"] = args.output
    if getattr(args, "format", None) is not None:
        raw.setdefault("output", {})["format"] = args.format

    # beta=... flag override must supersede a config-file velocity_si
    if "particle" in raw and "beta" in raw["particle"] and "velocity_si" in raw["particle"]:
        if getattr(args, "beta", None) is not None:
            raw["particle"].pop("velocity_si")

    cfg = load_config(raw)
    return cfg, raw.get("output", {}).get("format"), sweeps


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        sys.stderr.write(str(e) + "\n")
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    if args.command is None:
        sys.stderr.write("bbdrag: error: a subcommand is required (see --help)\n")
        return 1

    try:
        if args.command == "mint-golden":
            return _cmd_mint_golden(args.output)
        cfg, fmt, sweeps = _assemble_config(args)
        if args.command == "sweep":
            if len(sweeps) != 1:
                raise ConfigError(
                    "sweep: exactly one of --beta/--t1/--t2 must be a start:stop:count range"
                )
            (param, grid), = sweeps.items()
            return _cmd_sweep(cfg, fmt, args.observable, param, grid)
        if sweeps:
            raise ConfigError(f"{args.command}: range arguments are only valid for sweep")
        if args.command in ("force", "heat", "intensity", "restframe-force"):
            return _cmd_scalar(args.command, cfg, fmt)
        if args.command == "equilibrium-temp":
            return _cmd_equilibrium(cfg, fmt)
        if args.command == "evolve":
            return _cmd_evolve(cfg, fmt)
        if args.command == "verify":
            return _cmd_verify(cfg, fmt)
        raise ConfigError(f"unknown subcommand {args.command!r}")
    except ConfigError as e:
        sys.stderr.write(f"bbdrag: input error: {e}\n")
        return 1
    except (QuadratureConvergenceError, DynamicsError, BracketError, OracleError) as e:
        sys.stderr.write(f"bbdrag: numerical failure: {e}\n")
        return 2
    except ValueError as e:
        sys.stderr.write(f"bbdrag: input error: {e}\n")
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
