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
byte-identical files (a sweep evaluates its grid serially, in order).
JSON output reports every physical quantity in internal units and in SI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 -- perfbench's tracer patches it by name
from pathlib import Path

import numpy as np

from .consistency import verify_all
from .dynamics import (
    MODES,
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


@dataclasses.dataclass(frozen=True)
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


def _num(path, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
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


def _twin(d, section, key, default, si_key, from_si, check):
    """Internal-unit value of a field given as `key` or as its SI twin `si_key`.

    Giving both is an error.  The value must be a finite number, or null
    when the default is None (the field is then unset); from_si converts
    an SI value and check(value) raises ValueError for an internal value
    out of range.  Every error names the key that was given.
    """
    if key in d and si_key in d:
        raise ConfigError(f"{section}.{si_key}: conflicts with {section}.{key}; give one")
    name = si_key if si_key in d else key
    path = f"{section}.{name}"
    value = d.get(name, default)
    if value is None and default is None:
        return None
    value = _num(path, value)
    try:
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        value = from_si(value) if name == si_key else value
        check(value)
        return value
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _positive(value):
    if not value > 0.0:
        raise ValueError(f"must be positive, got {value!r}")


def _call(path, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError reported under path."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string"}


def _dataclass_kwargs(raw, section, cls) -> dict:
    """raw[section] as keyword arguments for the dataclass cls.

    The allowed keys and each value's type (bool, int, str, float or
    nullable float) come from cls's fields; numbers become floats.
    Fields left out keep the dataclass defaults.
    """
    d = _require_mapping(raw.get(section, {}), section)
    hints = typing.get_type_hints(cls)
    types = {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}
    _reject_unknown(d, types, section)
    kwargs = {}
    for key, value in d.items():
        path, hint = f"{section}.{key}", types[key]
        if hint in _TYPE_NAMES:
            # bool is an int subclass, so an int field must reject it by hand
            if not isinstance(value, hint) or (hint is int and isinstance(value, bool)):
                raise ConfigError(f"{path}: expected {_TYPE_NAMES[hint]}, got {value!r}")
        elif not (value is None and type(None) in typing.get_args(hint)):
            value = _num(path, value)
        kwargs[key] = value
    return kwargs


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

    us = _call("units.reference_temperature", UnitSystem,
               **_dataclass_kwargs(raw, "units", UnitSystem))

    part = _require_mapping(raw.get("particle", {}), "particle")
    _reject_unknown(
        part,
        ("beta", "velocity_si", "mass", "mass_si", "temperature", "temperature_si",
         "specific_heat", "radius", "radius_si"),
        "particle",
    )
    # ParticleState validates each field; the others are given valid values.
    beta = _twin(part, "particle", "beta", 0.0, "velocity_si", beta_from_velocity,
                 lambda v: ParticleState(v, 1.0, 0.0))
    mass = _twin(part, "particle", "mass", 1.0, "mass_si",
                 lambda v: us.to_internal(v, "mass"), lambda v: ParticleState(0.0, v, 0.0))
    t1 = _twin(part, "particle", "temperature", 1.0, "temperature_si",
               lambda v: us.to_internal(v, "temperature"), lambda v: ParticleState(0.0, 1.0, v))
    state = ParticleState(beta, mass, t1)
    thermo = _call("particle.specific_heat", MaterialThermo,
                   _num("particle.specific_heat", part.get("specific_heat", 1e-8)))
    # length in internal units is c/omega_ref
    radius = _twin(part, "particle", "radius", None, "radius_si",
                   lambda v: v * us.omega_ref / C_LIGHT, _positive)

    bath_raw = _require_mapping(raw.get("bath", {}), "bath")
    _reject_unknown(bath_raw, ("temperature", "temperature_si"), "bath")
    bath = BathSpec(_twin(bath_raw, "bath", "temperature", 1.0, "temperature_si",
                          lambda v: us.to_internal(v, "temperature"), BathSpec))

    model = _call("model", model_from_dict,
                  _require_mapping(raw.get("model", dict(_DEFAULT_MODEL)), "model"))

    quad = _call("quadrature", QuadratureSpec,
                 **_dataclass_kwargs(raw, "quadrature", QuadratureSpec))
    ev_cfg = _call("evolve", EvolveConfig,
                   **{"t_end": 10.0, **_dataclass_kwargs(raw, "evolve", EvolveConfig)})
    _call("evolve", ev_cfg.validate_against, quad)

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


def _write(target: str, content: str | dict):
    """Write CSV text, or a JSON document, to a file path or "-" (stdout).

    JSON has sorted keys and must be strict: NaN and Infinity raise
    instead of being written, so a value a command cannot define goes
    out as null.  A file that cannot be written is a ConfigError on
    output.target.
    """
    if not isinstance(content, str):
        content = json.dumps(content, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if target == "-":
        sys.stdout.write(content)
        return
    try:
        Path(target).write_text(content)
    except OSError as e:
        raise ConfigError(f"output.target {target}: {e.strerror or e}") from e


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
        _write(target, "\n".join(lines) + "\n")
    else:
        rows = [{c: row[c] for c in columns} for row in rows]
        _write(target, {**(json_extra or {}), "rows": rows})


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


def _cmd_scalar(command: str, cfg: RunConfig) -> int:
    """force, heat, intensity, restframe-force or equilibrium-temp at one point."""
    state, rest = cfg.particle, (cfg.bath, cfg.model, cfg.quadrature)
    if command == "intensity":
        reports = [
            _quantity_report(name, "power", q, cfg)
            for name, q in zip(("intensity", "intensity_emitted", "intensity_absorbed"),
                               intensity(state, *rest))
        ]
    elif command == "equilibrium-temp":
        t_star = equilibrium_temperature(state.beta, *rest)
        q = heating_rate(ParticleState(state.beta, state.mass, t_star), *rest)
        root = Quantity(t_star, 0.0,
                        {"heating_rate_at_root": q.value, "heating_rate_error": q.error})
        reports = [_quantity_report("equilibrium_temperature", "temperature", root, cfg)]
    else:  # reported under the observable function's name, e.g. force_lab
        kind, fn = _SWEEP_OBSERVABLES[command]
        reports = [_quantity_report(fn.__name__, kind, fn(state, *rest), cfg)]
    if cfg.out_format == "csv":
        write_output(reports, ("observable", "value", "error"), "csv", cfg.out_target)
    else:
        write_output(reports, tuple(reports[0]), "json", cfg.out_target,
                     json_extra={"command": command, "inputs": _inputs_report(cfg)})
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


def _cmd_evolve(cfg: RunConfig) -> int:
    traj = evolve(cfg.particle, cfg.bath, cfg.model, cfg.thermo, cfg.evolve, cfg.quadrature)
    rows = _trajectory_rows(traj, cfg.evolve.output_stride)
    if cfg.out_format != "json":
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
            # NaN (fixed-velocity mode: no global energy bookkeeping) goes out as null
            "bookkeeping_residual": (None if math.isnan(traj.bookkeeping_residual)
                                     else traj.bookkeeping_residual),
            "rows_si": rows_si,
            "si_units": {c: _SI_UNIT.get(_EVOLVE_KINDS.get(c, ""), "") for c in EVOLVE_COLUMNS},
            "inputs": _inputs_report(cfg),
        }
        write_output(rows, EVOLVE_COLUMNS, "json", cfg.out_target, json_extra=extra)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.out_format == "csv":
        raise ConfigError("output.format: verify writes JSON only, got 'csv'")
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
    _write(cfg.out_target, doc)
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


def _cmd_sweep(cfg: RunConfig, observable: str, param: str, grid: np.ndarray) -> int:
    if observable not in _SWEEP_OBSERVABLES:
        raise ConfigError(
            f"--observable: unknown observable {observable!r}; expected one of "
            f"{sorted(_SWEEP_OBSERVABLES)}"
        )
    kind, fn = _SWEEP_OBSERVABLES[observable]

    def eval_point(value: float) -> tuple[float, float]:
        point = {"beta": cfg.particle.beta, "t1": cfg.particle.temperature,
                 "t2": cfg.bath.temperature, param: value}
        state = ParticleState(point["beta"], cfg.particle.mass, point["t1"])
        bath = BathSpec(point["t2"])
        if observable == "equilibrium-temp":
            return equilibrium_temperature(state.beta, bath, cfg.model, cfg.quadrature), 0.0
        if observable == "intensity":
            net, _, _ = intensity(state, bath, cfg.model, cfg.quadrature)
            return net.value, net.error
        q = fn(state, bath, cfg.model, cfg.quadrature)
        return q.value, q.error

    results = [eval_point(v) for v in grid]

    rows = [
        {param: float(v), "value": val, "error": err}
        for v, (val, err) in zip(grid, results)
    ]
    if cfg.out_format != "json":
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

    for name in ("force", "heat", "intensity", "restframe-force",
                 "equilibrium-temp", "verify", "evolve", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for dest, (section, _, _, options) in _FLAG_FIELDS.items():
            if name == "evolve" or section != "evolve":
                p.add_argument(_flag(dest), **options)
        if name == "sweep":
            p.add_argument("--observable", required=True)
    mint = sub.add_parser("mint-golden")
    mint.add_argument("--output", help="golden file path (default: golden/cases.jsonl)")
    return parser


def _flag_number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError as e:
        raise ConfigError(f"{flag}: expected a number, got {text!r}") from e


def _flag_point(text: str, flag: str) -> float:
    """A particle or bath flag; start:stop:count ranges belong to sweep."""
    if ":" in text:
        raise ConfigError(f"{flag}: ranges are only valid for sweep")
    return _flag_number(text, flag)


# A particle or bath flag supersedes the config file's twin of its field.
_FLAG_TWINS = {"beta": "velocity_si", "velocity_si": "beta", "temperature": "temperature_si"}

# argparse dest -> (config section, field, value parser or None to keep the
# text, argparse options).  Flags are listed, and override the config file,
# in this order; evolve-section flags exist on `evolve` only.
_FLAG_FIELDS = {
    "output": ("output", "target", None, {"help": "output target path, or - for stdout"}),
    "format": ("output", "format", None, {"choices": ("csv", "json"), "help": "output format"}),
    "beta": ("particle", "beta", _flag_point, {"help": "particle speed in units of c"}),
    "velocity_si": ("particle", "velocity_si", _flag_point, {"help": "particle speed in m/s"}),
    "t1": ("particle", "temperature", _flag_point,
           {"help": "particle temperature, internal units"}),
    "t2": ("bath", "temperature", _flag_point, {"help": "bath temperature, internal units"}),
    "t_end": ("evolve", "t_end", _flag_number,
              {"help": "integration horizon, internal time units"}),
    "mode": ("evolve", "mode", None, {"choices": MODES}),
    "stride": ("evolve", "output_stride", None,
               {"type": int, "help": "output every Nth accepted step"}),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _assemble_config(args) -> tuple[RunConfig, dict]:
    """Merge the config file with command-line overrides.

    Returns (config, sweep ranges keyed by param name).
    """
    raw: dict = {}
    if args.config:
        raw = _read_config_file(args.config)
    if args.beta is not None and args.velocity_si is not None:
        raise ConfigError("--velocity-si: conflicts with --beta; give one")

    sweeps: dict[str, np.ndarray] = {}
    for dest, (section, key, parse, _) in _FLAG_FIELDS.items():
        text = getattr(args, dest, None)
        if text is None:
            continue
        if args.command == "sweep" and dest in ("beta", "t1", "t2") and ":" in text:
            sweeps[dest] = _parse_range(text, _flag(dest))
        else:
            fields = _require_mapping(raw.setdefault(section, {}), section)
            fields.pop(_FLAG_TWINS.get(key), None)
            fields[key] = parse(text, _flag(dest)) if parse else text
    return load_config(raw), sweeps


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
        cfg, sweeps = _assemble_config(args)
        if args.command == "sweep":
            if len(sweeps) != 1:
                raise ConfigError(
                    "sweep: exactly one of --beta/--t1/--t2 must be a start:stop:count range"
                )
            (param, grid), = sweeps.items()
            return _cmd_sweep(cfg, args.observable, param, grid)
        if args.command == "evolve":
            return _cmd_evolve(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        return _cmd_scalar(args.command, cfg)
    except (QuadratureConvergenceError, DynamicsError, BracketError, OracleError) as e:
        sys.stderr.write(f"bbdrag: numerical failure: {e}\n")
        return 2
    except ValueError as e:  # ConfigError included
        sys.stderr.write(f"bbdrag: input error: {e}\n")
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
