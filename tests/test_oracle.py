"""Independent midpoint-rule oracle: rule correctness and golden minting."""

from __future__ import annotations

import inspect
import math
import re

import numpy as np
import pytest

from bbdrag import (
    ConvergenceGateError,
    GridSpec,
    OracleError,
    TopHat,
    load_golden,
    mint_golden,
    model_from_dict,
    oracle_value,
)
from bbdrag.oracle import BUILTIN_CASES, OBSERVABLES, photon_number, riemann_2d
import bbdrag.oracle as oracle_module


# -------------------------------------------------------------- independence


def test_oracle_shares_no_quadrature_code_with_the_engine():
    """The oracle must not import the adaptive-integration engine.

    Only the polarizability definitions may be shared; occupation
    numbers, cutoffs, geometry, and summation are all re-derived.
    """
    src = inspect.getsource(oracle_module)
    imports = re.findall(r"^\s*(?:from|import)\s+([.\w]+)", src, flags=re.M)
    package_imports = {name for name in imports if name.startswith(".")}
    assert package_imports == {".polarizability"}, package_imports
    assert "integrate_1d" not in src and "integrate_omega_x" not in src
    assert "bose_occupation" not in src


def test_photon_number_matches_definition():
    # independent occupation: 1/(exp(y) - 1) with a hard overflow clamp
    assert photon_number(2.0, 1.0) == pytest.approx(1.0 / (math.exp(2.0) - 1.0), rel=1e-14)
    assert photon_number(1.0, 0.0) == 0.0
    assert photon_number(1e4, 1.0) < 1e-300  # clamped exponent, no overflow
    arr = photon_number(np.array([1.0, 2.0]), 2.0)
    assert arr.shape == (2,)


# ------------------------------------------------------------- midpoint rule


def test_constant_integrand_is_exact():
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=64)
    value = riemann_2d(lambda om, x: np.ones_like(om * x), grid)
    assert value == pytest.approx(2.0, rel=1e-14)  # area of (0,1] x [-1,1]


def test_odd_integrand_sums_to_zero():
    grid = GridSpec(omega_max=2.0, n_omega=64, n_x=64)
    value = riemann_2d(lambda om, x: om * x, grid)
    assert abs(value) < 1e-14  # midpoint grid is symmetric in x


def test_linear_integrand_is_exact():
    grid = GridSpec(omega_max=3.0, n_omega=64, n_x=64)
    value = riemann_2d(lambda om, x: om + 0.0 * x, grid)
    assert value == pytest.approx(9.0, rel=1e-14)  # (3^2/2) * 2


def test_omega_edges_make_piecewise_constant_exact():
    grid = GridSpec(omega_max=2.0, n_omega=64, n_x=64)

    def step(om, x):
        return np.where(om < 0.7, 1.0, 3.0) * np.ones_like(x)

    ragged = riemann_2d(step, grid)
    split = riemann_2d(step, grid, omega_edges=(0.7,))
    truth = (0.7 * 1.0 + 1.3 * 3.0) * 2.0
    assert split == pytest.approx(truth, rel=1e-14)
    assert abs(ragged - truth) > 1e-6  # without the cut the step is smeared


def test_x_edges_fn_make_band_exact():
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=64)

    def band(om, x):
        return np.where((x >= -0.25) & (x <= 0.5), 1.0, 0.0) * np.ones_like(om)

    def edges(om):
        e = np.array([-1.0, -0.25, 0.5, 1.0])
        return np.broadcast_to(e, (om.size, 4)).copy()

    value = riemann_2d(band, grid, x_edges_fn=edges)
    assert value == pytest.approx(0.75, rel=1e-13)


def test_nonfinite_integrand_reported_with_coordinates():
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=64)

    def bad(om, x):
        return np.where(om > 0.5, np.nan, 1.0) * np.ones_like(x)

    with pytest.raises(OracleError, match="omega"):
        riemann_2d(bad, grid)


def test_blocks_stay_within_the_node_budget():
    """Block rows follow n_x, so a wide inner grid cannot make huge temporaries.

    At most 2^16 nodes per x-segment: each float64 temporary stays within
    512 KiB, where 256 rows of 16384 made 32 MiB ones.
    """
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=16384)
    budget = oracle_module._BLOCK_NODES
    assert budget <= 1 << 16
    for edges, segments in ((None, 1), (lambda om: np.tile([-1.0, -0.25, 0.5, 1.0], (om.size, 1)), 3)):
        sizes = []

        def counting(om, x):
            sizes.append(x.size)
            return np.ones_like(x)

        assert riemann_2d(counting, grid, x_edges_fn=edges) == pytest.approx(2.0, rel=1e-13)
        assert max(sizes) <= budget * segments
        assert sum(sizes) == 64 * segments * 16384


def test_nonfinite_sample_in_one_row_of_a_later_block_is_named():
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=16384)
    assert max(1, oracle_module._BLOCK_NODES // grid.n_x) > 1  # the NaN row shares its block
    row, col = 37, 5000
    om_bad = (row + 0.5) / 64
    x_bad = -1.0 + 2.0 * (col + 0.5) / 16384

    def planted(om, x):
        hit = (np.abs(om - om_bad) < 0.25 / 64) & (np.abs(x - x_bad) < 0.25 / 16384)
        return np.where(hit, np.nan, 1.0)

    with pytest.raises(OracleError) as err:
        riemann_2d(planted, grid)
    om_seen, x_seen = map(float, re.findall(r"= (\S+?)(?:,|$)", str(err.value)))
    assert om_seen == pytest.approx(om_bad, rel=1e-14)
    assert x_seen == pytest.approx(x_bad, rel=1e-12)


def test_infinite_sample_on_a_zero_width_segment_is_named():
    """inf times a zero weight is nan, so the block sum still catches it."""
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=64)

    def edges(om):
        return np.tile([-1.0, 0.0, 0.0, 1.0], (om.size, 1))

    with pytest.raises(OracleError, match=r"x = 0\.0$"):
        riemann_2d(lambda om, x: np.where(x == 0.0, np.inf, 1.0), grid, x_edges_fn=edges)


def test_overflowing_sum_of_finite_samples_raises():
    grid = GridSpec(omega_max=1.0, n_omega=64, n_x=64)
    with pytest.raises(OracleError, match="overflow"):
        riemann_2d(lambda om, x: np.full(x.shape, 1e308), grid)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(omega_max=0.0)
    with pytest.raises(ValueError):
        GridSpec(omega_max=1.0, n_omega=32)
    with pytest.raises(ValueError):
        GridSpec(omega_max=1.0, n_x=8)
    doubled = GridSpec(omega_max=1.0, n_omega=64, n_x=128).doubled()
    assert (doubled.n_omega, doubled.n_x) == (128, 256)
    assert doubled.omega_max == 1.0


# ------------------------------------------------------------- oracle values


def test_oracle_rejects_unknown_observable():
    with pytest.raises(ValueError, match="observable"):
        oracle_value("sideways", 0.5, 1.0, 1.0, TopHat(1.0, 0.5, 1.5))


def test_oracle_rejects_all_cold():
    with pytest.raises(ValueError):
        oracle_value("heating_rate", 0.5, 0.0, 0.0, TopHat(1.0, 0.5, 1.5))


def test_oracle_closed_form_emission():
    model = model_from_dict({"type": "ohmic", "slope": 1.0})
    got = oracle_value("intensity_emitted", 0.0, 1.0, 0.0, model)
    assert got == pytest.approx(32.0 * math.pi**5 / 63.0, rel=1e-7)


def test_oracle_drag_matches_rest_force_route():
    """Two structurally different integrals agree on the same number.

    Each route gets a grid sized to its own support: the lab-frame drag
    integrand lives under omega_beta in the band, i.e. omega up to
    band_top/(gamma*(1-beta)); the rest-frame one under the band itself.
    """
    model = TopHat(1.0, 0.5, 1.5)
    beta = 0.5
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    drag_grid = GridSpec(omega_max=1.5 / (gamma * (1.0 - beta)), n_omega=2048, n_x=2048)
    rest_grid = GridSpec(omega_max=1.5, n_omega=2048, n_x=2048)
    drag = oracle_value("drag_combination", beta, 0.0, 1.0, model, drag_grid)
    rest = oracle_value("force_rest_frame", beta, 0.0, 1.0, model, rest_grid)
    assert drag == pytest.approx(rest, rel=2e-6)


def _full_domain_sum(prob, grid):
    """The sum over [0, omega_max] x [-1, 1], with -1 and +1 around the band edges."""
    band = prob.x_edges_fn
    full = None if band is None else (
        lambda om: np.column_stack([-np.ones_like(om), band(om), np.ones_like(om)]))
    return riemann_2d(prob.integrand, grid, omega_edges=prob.omega_edges, x_edges_fn=full)


@pytest.mark.parametrize("observable, beta, t1", [
    ("force_lab", 0.5, 0.0),
    ("force_lab", 0.5, 2.0),
    ("drag_combination", 0.3, 0.0),
    ("force_rest_frame", 0.4, 0.0),
    ("heating_rate", 0.0, 2.0),
])
def test_band_domain_drops_only_exact_zeros(observable, beta, t1):
    """Summing only where alpha'' can be nonzero keeps the full-domain sum.

    The band starts at the lowest kink and the x range is the band between
    the jump loci; the dropped nodes are exact zeros, so only the
    summation order, and with it the last ulps, can change.
    """
    model = TopHat(1.0, 0.5, 1.5)
    prob = oracle_module.oracle_problem(observable, beta, t1, 1.0, model)
    assert prob.omega_min == min(prob.omega_edges) > 0.0
    grid = GridSpec(prob.omega_max, n_omega=256, n_x=256)
    restricted = riemann_2d(prob.integrand, grid, omega_min=prob.omega_min,
                            omega_edges=prob.omega_edges, x_edges_fn=prob.x_edges_fn)
    full = _full_domain_sum(prob, grid)
    assert restricted != 0.0
    assert abs(restricted - full) <= 4 * math.ulp(full)
    assert restricted == oracle_value(observable, beta, t1, 1.0, model, grid)


# ------------------------------------------------------------ golden minting


def test_builtin_cases_are_well_formed():
    assert len(BUILTIN_CASES) >= 6
    names = [c["name"] for c in BUILTIN_CASES]
    assert len(set(names)) == len(names)
    for case in BUILTIN_CASES:
        assert case["observable"] in OBSERVABLES
        model_from_dict(case["model"])  # parses


def test_mint_golden_passes_gate_and_closed_form():
    case = next(c for c in BUILTIN_CASES if c["name"] == "emission-ohmic-closed-form")
    record = mint_golden(case)
    assert record["grid_rel_change"] <= 1e-6
    assert record["value"] == pytest.approx(record["closed_form"], rel=1e-5)
    # the record stores the normalized model dict; compare what it parses to
    assert model_from_dict(record["inputs"]["model"]) == model_from_dict(case["model"])


def test_mint_golden_gate_failure_raises():
    """An intentionally starved grid cannot pass the doubling gate."""
    case = dict(
        name="starved",
        observable="heating_rate",
        beta=0.9,
        t1=0.5,
        t2=1.0,
        model={"type": "lorentz", "alpha0": 1.0, "omega0": 2.0, "gamma": 0.5},
    )
    with pytest.raises(ConvergenceGateError, match="starved"):
        mint_golden(case, n_omega=64, n_x=64)


def test_stored_golden_file_is_complete_and_gated():
    records = load_golden()
    assert len(records) == len(BUILTIN_CASES)
    by_name = {r["name"]: r for r in records}
    for case in BUILTIN_CASES:
        rec = by_name[case["name"]]
        assert rec["grid_rel_change"] <= 1e-6
        assert rec["observable"] == case["observable"]
        assert math.isfinite(rec["value"]) and rec["value"] != 0.0


def test_stored_golden_file_is_in_canonical_form():
    """Stored values carry 13 significant digits; the gate ratio follows from them.

    Checks the committed file without minting, so a regeneration that
    skipped the rounding fails here in milliseconds.
    """

    def round13(x):
        return float(format(x, ".12e"))

    for rec in load_golden():
        for key in ("value", "value_base", "closed_form"):
            if key in rec:
                assert rec[key] == round13(rec[key]), f"{rec['name']}: {key} {rec[key]!r}"
        v, vb = rec["value"], rec["value_base"]
        assert rec["grid_rel_change"] == abs(v - vb) / abs(v), rec["name"]
