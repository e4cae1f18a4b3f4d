"""Brute-force midpoint-rule reference values for the double integrals.

This module exists to mint golden regression values through a code path
that shares nothing with the adaptive quadrature engine: plain midpoint
Riemann sums on dense fixed grids, a separately written thermal
occupation factor, and separately derived frequency cutoffs.  A bug in
the main engine cannot validate itself here.

Convergence: the composite midpoint rule is O(n^-2) on each smooth
piece.  Band-limited response models introduce a jump in the angular
integrand along x*(omega) and kinks in the frequency direction where
that jump enters or leaves [-1, 1]; both are handled by splitting the
domain exactly at those loci (``x_edges_fn``, ``omega_edges``) so every
piece integrated is smooth and the O(n^-2) rate survives.  Node counts
in GridSpec apply per smooth segment.

A value becomes golden only after the grid-doubling gate: doubling both
node counts must move the result by less than 1e-6 relative.  Golden
records are line-delimited JSON holding the full case descriptor, the
grids, both values, and the observed relative change, so any
implementation can regenerate and re-check them.

Stored precision: the base and doubled values (and any closed form) are
rounded to GOLDEN_DIGITS = 13 significant digits as soon as they are
computed, through Python's correctly rounded decimal formatting.  The
midpoint sums themselves differ in the last few ulps between numpy/libm
builds (up to 4 ulps seen across two environments), so their full repr
is not reproducible; 13 digits is the most that agreed on every stored
value, and costs at most 5e-13 relative, far inside the 1e-6 gate and
the 1e-12 re-mint agreement the acceptance suite asks for.
grid_rel_change is derived from the two rounded values with IEEE
subtraction and division only, so the gate checks exactly what the
record holds.  Byte identity across platforms therefore rests on the
rounding margin (no raw sum lies within 45 ulps of a 13-digit
rounding boundary), not on a guarantee.

The nodes cover only where the integrand can be nonzero; the exact zeros
dropped elsewhere leave every other node where the full domain puts it.

Block arithmetic: riemann_2d passes blocks of about _BLOCK_NODES nodes
and weights the samples in the memory of the block's x.  Each integrand
forms its product left to right in place (numpy's out= and *=) in two
fresh block arrays, calling alpha_im on up to _ALPHA_NODES nodes (whole
rows of the block) at a time.  As plain expressions the integrands made
about ten block arrays per block, and alpha_im as many again; glibc's
malloc gave that memory back to the system after every block and
faulted it in again at the next: 1.4 million minor faults in the
largest builtin mint, whose wall time fell by a third without them.
Every product keeps the operands and order of the plain expression, so
each rounding, and with it every sum and stored value, is unchanged to
the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .polarizability import PolarizabilityModel, TopHat, alpha_im, model_from_dict, model_to_dict

_PREF = 2.0 / math.pi
_TAIL = 40.0  # occupation factors are < 5e-18 beyond omega/T = 40
_BLOCK_NODES = 1 << 15  # per x-segment: block temporaries stay in L2
_ALPHA_NODES = 1 << 13  # per alpha_im call in a block: its temporaries stay small

OBSERVABLES = (
    "force_lab",
    "heating_rate",
    "intensity",
    "intensity_emitted",
    "intensity_absorbed",
    "drag_combination",
    "force_rest_frame",
)


class OracleError(RuntimeError):
    """Non-finite integrand sample or other oracle-side failure."""


class ConvergenceGateError(OracleError):
    """Grid doubling moved the value by more than the golden gate allows."""


@dataclass(frozen=True)
class GridSpec:
    """Fixed midpoint grid: node counts per smooth segment plus the cutoff."""

    omega_max: float
    n_omega: int = 2048
    n_x: int = 1024

    def __post_init__(self):
        if not (math.isfinite(self.omega_max) and self.omega_max > 0.0):
            raise ValueError(f"omega_max must be finite and positive, got {self.omega_max!r}")
        for label, n in (("n_omega", self.n_omega), ("n_x", self.n_x)):
            if not (isinstance(n, int) and n >= 64):
                raise ValueError(f"{label} must be an int >= 64, got {n!r}")

    def doubled(self) -> "GridSpec":
        return GridSpec(self.omega_max, 2 * self.n_omega, 2 * self.n_x)


def photon_number(freq, temperature: float, out: np.ndarray | None = None):
    """Planck occupation, written independently of the engine's version.

    Formed in out, which may be freq itself, else in one fresh array; a
    scalar freq gives a scalar.
    """
    y = np.empty(np.shape(freq)) if out is None else out
    if temperature == 0.0:
        y.fill(0.0)
    else:
        np.divide(freq, temperature, out=y)
        np.minimum(y, 700.0, out=y)
        np.exp(y, out=y)
        y -= 1.0
        np.divide(1.0, y, out=y)
    return y if y.ndim else y[()]


def riemann_2d(
    integrand: Callable,
    grid: GridSpec,
    *,
    omega_min: float = 0.0,
    omega_edges: tuple[float, ...] = (),
    x_edges_fn: Callable | None = None,
) -> float:
    """Midpoint double sum of integrand(omega, x) over [omega_min, omega_max] x [-1, 1].

    integrand receives omega with shape (B, 1, 1) and x with shape
    (B, S, n_x), B = max(1, _BLOCK_NODES // n_x), and must broadcast.
    omega_edges split the outer range; x_edges_fn(omega_block) -> (B, m)
    sorted per-row edges bound the x where the integrand can be nonzero
    (default -1 and +1).  Fixed accumulation order: bit-deterministic sums.
    """
    cuts = sorted({float(e) for e in omega_edges if omega_min < e < grid.omega_max})
    bounds = [min(omega_min, grid.omega_max), *cuts, grid.omega_max]
    frac = (np.arange(grid.n_x) + 0.5) / grid.n_x
    block = max(1, _BLOCK_NODES // grid.n_x)
    parts: list[float] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h = (hi - lo) / grid.n_omega
        for start in range(0, grid.n_omega, block):
            om = lo + (np.arange(start, min(start + block, grid.n_omega)) + 0.5) * h
            if x_edges_fn is None:
                edges = np.broadcast_to(np.array([-1.0, 1.0]), (om.size, 2))
            else:
                edges = np.asarray(x_edges_fn(om), dtype=float)
            widths = np.diff(edges, axis=1)  # (B, S), >= 0 for sorted edges
            x = np.multiply(widths[:, :, None], frac)
            x += edges[:, :-1, None]
            vals = np.broadcast_to(
                np.asarray(integrand(om[:, None, None], x), dtype=float), x.shape
            )
            # Any non-finite sample leaves the sum non-finite, at weight 0 too (inf * 0 is nan).
            with np.errstate(over="ignore", invalid="ignore"):
                weighted = np.multiply(vals, widths[:, :, None] / grid.n_x, out=x)
                parts.append(float(np.sum(weighted) * h))
            if not math.isfinite(parts[-1]):
                bad = np.argwhere(~np.isfinite(vals))
                if bad.size == 0:
                    raise OracleError(f"block sum overflows from omega = {float(om[0])!r}")
                i, s, j = map(int, bad[0])
                raise OracleError(f"non-finite integrand sample at omega = {float(om[i])!r}, "
                                  f"x = {float(edges[i, s] + widths[i, s] * frac[j])!r}")
    return math.fsum(parts)


@dataclass(frozen=True)
class OracleProblem:
    """Integrand plus the domain geometry riemann_2d needs for it.

    The integrand takes omega and x in riemann_2d's block shapes,
    (B, 1, 1) and (B, S, n), and returns a fresh (B, S, n) array.
    """

    integrand: Callable
    omega_max: float
    omega_edges: tuple[float, ...]
    x_edges_fn: Callable | None
    omega_min: float


def _blue_shift(beta: float) -> float:
    return math.sqrt((1.0 + beta) / (1.0 - beta))


def _tophat_geometry(model: TopHat, beta: float, gamma: float):
    """Split loci for a band-limited model under the Doppler map.

    The response is nonzero only for omega1 <= gamma*omega*(1+beta*x)
    <= omega2.  For each band edge w the inner integrand jumps at
    x*(omega) = (w/(gamma*omega) - 1)/beta, and that jump crosses
    x = +-1 at w/(gamma*(1+-beta)), producing kinks in the outer
    integrand there and at w/gamma (where x* = 0 changes which half
    dominates for odd weights).  x*(omega1) <= x*(omega2), so x_edges
    returns the band between them, clipped to [-1, 1].
    """
    ws = (model.omega1, model.omega2)
    kinks = []
    for w in ws:
        kinks += [w / (gamma * (1.0 + beta)), w / gamma, w / (gamma * (1.0 - beta))]

    if beta == 0.0:
        return tuple(ws), None

    def x_edges(om):
        return np.stack([np.clip((w / (gamma * om) - 1.0) / beta, -1.0, 1.0) for w in ws], 1)

    return tuple(kinks), x_edges


def oracle_problem(
    observable: str,
    beta: float,
    t1: float,
    t2: float,
    model: PolarizabilityModel,
) -> OracleProblem:
    """Build the full-prefactor integrand for one observable.

    riemann_2d(problem.integrand, GridSpec(problem.omega_max), ...)
    yields the observable itself, in internal units.
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}; expected one of {OBSERVABLES}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    if t1 < 0.0 or t2 < 0.0:
        raise ValueError("temperatures must be non-negative")
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    blue = _blue_shift(beta)

    # Frequency reach of each occupation factor: the lab-frequency
    # factor dies past _TAIL*t2; the Doppler-argument factor's slowest
    # decay direction is x = -1, dying past _TAIL*t1*blue.
    need_t1 = {"force_lab", "heating_rate", "intensity", "intensity_emitted"}
    need_t2 = {"force_lab", "heating_rate", "intensity", "intensity_absorbed",
               "drag_combination"}
    cut = 0.0
    if observable in need_t1:
        cut = max(cut, _TAIL * t1 * blue)
    if observable in need_t2:
        cut = max(cut, _TAIL * t2)
    if observable == "force_rest_frame":
        # occupation argument gamma*omega*(1+beta*x) >= omega/blue
        cut = _TAIL * t2 * blue
    if cut == 0.0:
        raise ValueError(
            f"{observable} vanishes identically for t1 = {t1}, t2 = {t2}; nothing to integrate"
        )

    omega_edges: tuple[float, ...] = ()
    x_edges_fn = None
    if isinstance(model, TopHat):
        if observable == "force_rest_frame":
            cut = min(cut, model.omega2)
            omega_edges = (model.omega1,)
        else:
            cut = min(cut, model.omega2 * blue)
            omega_edges, x_edges_fn = _tophat_geometry(model, beta, g)
    omega_min = min(omega_edges, default=0.0)  # alpha'' is 0 below the lowest kink

    # Each integrand is the product in its comment, taken left to right in
    # place (module docstring); om and x are only read.
    if observable == "force_rest_frame":

        def integrand(om, x):
            # _PREF x om^4 a(om) n(g om (1 + beta x), t2)
            occ = np.multiply(beta, x)
            occ += 1.0
            occ *= g * om
            photon_number(occ, t2, out=occ)
            out = np.multiply(_PREF, x)
            out *= om**4
            out *= alpha_im(model, om)
            out *= occ
            return out

        return OracleProblem(integrand, cut, omega_edges, x_edges_fn, omega_min)

    def integrand(om, x):
        # lead om^4 a(wb) occ, with u = 1 + beta x, wb = g om u and lead
        # -_PREF g x u u (force_lab), _PREF g u^3 (heating_rate),
        # -_PREF g^3 (x + beta) u u (drag_combination), else _PREF g u u;
        # occ n(om, t2) - n(wb, t1) (force_lab, heating_rate), its negative
        # (intensity), n(wb, t1) (intensity_emitted), else n(om, t2).
        u = np.multiply(beta, x)
        u += 1.0
        if observable == "heating_rate":
            out = np.power(u, 3)
            out *= _PREF * g
        else:
            if observable == "force_lab":
                out = np.multiply(-_PREF * g, x)
                out *= u
            elif observable == "drag_combination":
                out = np.add(x, beta)
                out *= -_PREF * g**3
                out *= u
            else:
                out = np.multiply(_PREF * g, u)
            out *= u
        wb = np.multiply(g * om, u, out=u)
        out *= om**4
        rows = max(1, _ALPHA_NODES // wb[0].size)
        for i in range(0, len(wb), rows):
            out[i:i + rows] *= alpha_im(model, wb[i:i + rows])
        if observable in ("force_lab", "heating_rate"):
            out *= np.subtract(photon_number(om, t2), photon_number(wb, t1, out=wb), out=wb)
        elif observable == "intensity":
            out *= np.subtract(photon_number(wb, t1, out=wb), photon_number(om, t2), out=wb)
        elif observable == "intensity_emitted":
            out *= photon_number(wb, t1, out=wb)
        else:
            out *= photon_number(om, t2)
        return out

    return OracleProblem(integrand, cut, omega_edges, x_edges_fn, omega_min)


def oracle_value(
    observable: str,
    beta: float,
    t1: float,
    t2: float,
    model: PolarizabilityModel,
    grid: GridSpec | None = None,
) -> float:
    prob = oracle_problem(observable, beta, t1, t2, model)
    if grid is None:
        grid = GridSpec(prob.omega_max)
    return riemann_2d(prob.integrand, grid, omega_min=prob.omega_min,
                      omega_edges=prob.omega_edges, x_edges_fn=prob.x_edges_fn)


GATE_REL = 1e-6
CLOSED_FORM_REL = 1e-5
GOLDEN_DIGITS = 13


def golden_round(x: float) -> float:
    """Round x to GOLDEN_DIGITS significant digits, the same on every platform."""
    return float(format(x, f".{GOLDEN_DIGITS - 1}e"))


# Regression corpus: spans all five observable families, all four model
# shapes, rest/cold/hot particles, and speeds up to beta = 0.9.  Cases
# may override the node counts: the occupation factor seen through the
# Doppler map varies on an x-scale of T/(gamma*beta*omega), so fast
# cases need denser inner grids to clear the doubling gate.
BUILTIN_CASES: tuple[dict, ...] = (
    {
        "name": "force-tophat-cold-particle",
        "observable": "force_lab",
        "beta": 0.5, "t1": 0.0, "t2": 1.0,
        "model": {"type": "tophat", "amplitude": 1.0, "omega1": 0.5, "omega2": 1.5},
        "grid": {"n_x": 2048},
    },
    {
        "name": "heating-ohmic-hot-particle",
        "observable": "heating_rate",
        "beta": 0.5, "t1": 2.0, "t2": 1.0,
        "model": {"type": "ohmic", "slope": 1.0, "omega_c": 5.0},
    },
    {
        "name": "emission-ohmic-closed-form",
        "observable": "intensity_emitted",
        "beta": 0.0, "t1": 1.0, "t2": 0.0,
        "model": {"type": "ohmic", "slope": 1.0},
        "closed_form": 32.0 * math.pi**5 / 63.0,
    },
    {
        "name": "net-intensity-drude",
        "observable": "intensity",
        "beta": 0.6, "t1": 0.5, "t2": 1.5,
        "model": {"type": "drude", "radius": 1.0, "omega_p": 2.0, "nu": 0.5},
    },
    {
        "name": "drag-tophat",
        "observable": "drag_combination",
        "beta": 0.3, "t1": 0.0, "t2": 1.0,
        "model": {"type": "tophat", "amplitude": 1.0, "omega1": 0.5, "omega2": 1.5},
        "grid": {"n_x": 2048},
    },
    {
        "name": "rest-force-lorentz",
        "observable": "force_rest_frame",
        "beta": 0.4, "t1": 0.0, "t2": 1.0,
        "model": {"type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 0.5},
        "grid": {"n_x": 2048},
    },
    {
        "name": "rest-force-fast-lorentz",
        "observable": "force_rest_frame",
        "beta": 0.9, "t1": 0.0, "t2": 1.0,
        "model": {"type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 0.5},
        "grid": {"n_x": 8192},
    },
    {
        "name": "heating-lorentz-fast",
        "observable": "heating_rate",
        "beta": 0.9, "t1": 0.5, "t2": 1.0,
        "model": {"type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 0.5},
        "grid": {"n_omega": 16384, "n_x": 4096},
    },
)


def mint_golden(case: dict, n_omega: int | None = None, n_x: int | None = None) -> dict:
    """Evaluate one case at the base and doubled grids and gate it.

    Node counts default to the case's own "grid" entry, then to the
    GridSpec defaults.  Both values and any closed form are rounded by
    golden_round before anything is derived from them.  Returns the
    golden record; raises ConvergenceGateError if doubling both node
    counts moves the value by more than GATE_REL relative, or if a
    supplied closed form disagrees beyond CLOSED_FORM_REL.
    """
    case_grid = case.get("grid", {})
    if n_omega is None:
        n_omega = case_grid.get("n_omega", GridSpec.n_omega)
    if n_x is None:
        n_x = case_grid.get("n_x", GridSpec.n_x)
    model = model_from_dict(case["model"])
    prob = oracle_problem(case["observable"], case["beta"], case["t1"], case["t2"], model)
    base_grid = GridSpec(prob.omega_max, n_omega, n_x)
    kw = {key: getattr(prob, key) for key in ("omega_min", "omega_edges", "x_edges_fn")}
    value_base = golden_round(riemann_2d(prob.integrand, base_grid, **kw))
    value = golden_round(riemann_2d(prob.integrand, base_grid.doubled(), **kw))
    rel_change = abs(value - value_base) / abs(value) if value != 0.0 else abs(value_base)
    if rel_change > GATE_REL:
        raise ConvergenceGateError(
            f"case {case['name']!r}: grid doubling moved the value by rel "
            f"{rel_change:.3e} (> {GATE_REL:g}); not golden"
        )
    record = {
        "name": case["name"],
        "observable": case["observable"],
        "inputs": {
            "beta": case["beta"],
            "t1": case["t1"],
            "t2": case["t2"],
            "model": model_to_dict(model),
        },
        "grid": {"omega_max": prob.omega_max, "n_omega": n_omega, "n_x": n_x},
        "value": value,
        "value_base": value_base,
        "grid_rel_change": rel_change,
    }
    if "closed_form" in case:
        cf = golden_round(case["closed_form"])
        miss = abs(value - cf) / abs(cf)
        if miss > CLOSED_FORM_REL:
            raise ConvergenceGateError(
                f"case {case['name']!r}: oracle value {value!r} misses the closed "
                f"form {cf!r} by rel {miss:.3e} (> {CLOSED_FORM_REL:g})"
            )
        record["closed_form"] = cf
    return record


def default_golden_path() -> Path:
    return Path(__file__).resolve().parents[2] / "golden" / "cases.jsonl"


def mint_builtin(path: Path | str | None = None) -> list[dict]:
    """Mint every builtin case and write the golden file (JSON lines)."""
    path = Path(path) if path is not None else default_golden_path()
    # A directory that cannot be made fails before the minting; the file is
    # opened after it, so a failed gate leaves the old file whole.
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [mint_golden(case) for case in BUILTIN_CASES]
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def load_golden(path: Path | str | None = None) -> list[dict]:
    path = Path(path) if path is not None else default_golden_path()
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
