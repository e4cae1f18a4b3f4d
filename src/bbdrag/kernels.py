"""Stable scalar kernels and the adaptive quadrature engine.

Everything here works in internal units (hbar = c = k_B = 1).  The
scalar kernels are written so that no admissible input overflows:

* ``bose_occupation`` evaluates n(y) = 1/(e^y - 1) as e^{-y}/(1 - e^{-y})
  with expm1 in the denominator, which neither overflows at large y nor
  cancels at small y.  The 1D bath kernels and the low-speed friction
  (1/sinh^2(y/2) = 4 n (n + 1)) use the same formula.

The quadrature engine is adaptive interval bisection with an embedded
Gauss-Legendre pair per panel: the 31-point rule supplies the value,
|GL31 - GL15| the error estimate.  Panels whose estimate exceeds their
share of the tolerance are split at the midpoint until the total
estimate passes or the subdivision budget runs out.  Panel sums are
accumulated in ascending-interval order, single-threaded, so results
are bitwise reproducible regardless of how callers parallelize around
the engine.

An integrand may stack k components in front of its argument's shape.
They share the panels: one is split when any component's defect exceeds
that component's share, and the integral converges when every component
meets its own tolerance; value, error and truncation bound come back per
component.  A k-less integrand is the one-component case, with floats.

integrate_omega_x serves the verification route (the consistency
module) alone: its double integrals over (omega, x) apply a fixed
_INNER_NODES-point Gauss-Legendre rule across the inner variable,
piecewise between edges from the caller (a model's jump images), inside
the adaptive omega integral; the reported error has no term for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Speed guard: gamma stays finite (~2.2e4) at the boundary.
BETA_MAX = 1.0 - 1e-9

# Orders of the embedded Gauss-Legendre pair (value / error reference).
_GL_LOW = 15
_GL_HIGH = 31

# Order of integrate_omega_x's inner rule per segment.  On verify's grid
# over beta in [0.95, 0.995], 16 nodes fail from 0.95 and 64 fail at an
# Ohmic point at 0.995 (1.08x; the inner rule has no error term); 32 pass.
_INNER_NODES = 32

# Per-panel error floor relative to the panel value: double-precision
# roundoff of the node sum.  Joins the reported error so identity
# tolerances (10x combined error) stay honest at large integrand scales
# (T = 10 -> integrals ~ 1e6), but never gates convergence: subdivision
# cannot reduce roundoff, so only the embedded pair defect is tested
# against the tolerances.
_ERR_FLOOR = 2.0e-16

# Truncation frequencies below this cannot be node-mapped in double
# precision: the lowest Gauss node on [0, omega_max] rounds to exactly
# 0.0.  Every kernel integrated here carries at least three powers of
# omega, so each sample -- and with it the integral -- underflows to 0.0
# long before this scale; returning exactly 0 is the correctly rounded
# value, not an approximation.
_OMEGA_DOMAIN_FLOOR = 1.0e-318

# Truncation bound of a thermal integral cut at u_max decay lengths L:
# its integrand at the cutoff times this many decay lengths.  An integrand
# w^p e^(-w/L) has the tail f(cut) L / (1 - p L/cut) beyond cut = u_max L,
# at most 2 f(cut) L for p <= u_max / 2 (the models here have p <= 5).
_TAIL_LENGTHS = 2.0


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature failed numerically.

    Its subdivision budget ran out, or the integrand produced non-finite
    panel sums (such as inf * 0 where w^4 overflows and a'' underflows).
    """

    def __init__(self, message: str, value: float = math.nan, error: float = math.nan):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy and truncation knobs shared by all observables.

    rel_tol / abs_tol bound the reducible (refinement) part of the
    error estimate via max(rel_tol * |value|, abs_tol); the roundoff of
    the gross panel mass is reported on top of that and sets the
    attainable floor.  u_max sets the frequency cutoff in units of the
    relevant thermal scale.  max_subdivisions is the total panel-split
    budget of one adaptive integral.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    u_max: float = 40.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if not (math.isfinite(self.u_max) and self.u_max >= 10.0):
            raise ValueError(f"u_max must be >= 10, got {self.u_max!r}")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 0):
            raise ValueError(
                f"max_subdivisions must be a count >= 0, got {self.max_subdivisions!r}"
            )


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with its error estimate and work diagnostics (per component)."""

    value: float | np.ndarray
    error: float | np.ndarray
    neval: int
    panels: int
    omega_max: float | None = None


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def lorentz_gamma(beta: float) -> float:
    """1/sqrt(1 - beta^2) with the beta range guard."""
    b = _check_beta(beta)
    return 1.0 / math.sqrt((1.0 - b) * (1.0 + b))


def _check_beta(beta: float) -> float:
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta < 0.0 or beta > BETA_MAX:
        raise ValueError(f"beta must lie in [0, {BETA_MAX!r}], got {beta!r}")
    return float(beta)


def _occupation(y: np.ndarray) -> np.ndarray:
    """n(y) = 1/(e^y - 1) for y > 0 as e^{-y}/(1 - e^{-y}), elementwise.

    Neither factor overflows, expm1 keeps the small-y end free of
    cancellation, and past y ~ 745 (or at y = inf) the numerator
    underflows cleanly to 0.
    """
    return np.exp(-y) / -np.expm1(-y)


def bose_occupation(omega, temperature: float):
    """Mean photon number n(omega, T) = 1/(e^{omega/T} - 1).

    Parameters
    ----------
    omega : float or ndarray
        Frequencies, all > 0.
    temperature : float
        T >= 0; T = 0 returns exactly 0 (empty vacuum, no limit taken).

    Stable for every ratio omega/T (``_occupation``): the Wien tail
    underflows cleanly to 0, including ratios whose division itself
    overflows.  Returns a float for scalar omega.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("bose_occupation requires omega > 0")
    t = temperature
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0, got {t!r}")
    if t == 0.0:
        out = np.zeros_like(w)
    else:
        # A normal omega over a subnormal T overflows the ratio to inf,
        # where the occupation is the correct 0, so the overflow is not
        # an error.
        with np.errstate(over="ignore"):
            out = _occupation(w / t)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def _panel_pair(f, lo, hi):
    """Evaluate the GL pair on a batch of P panels.

    Returns (rows, evaluation count, k-less): rows (3, k, P) holds each
    component's high-order sums, defects |GL31 - GL15| and |high-order
    sums|, k = 1 for a k-less integrand (integrate_1d's f).
    """
    x_lo, w_lo = _gl_nodes(_GL_LOW)
    x_hi, w_hi = _gl_nodes(_GL_HIGH)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = np.concatenate([x_lo, x_hi])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape[-2:] != pts.shape or vals.ndim > 3:
        raise ValueError(f"integrand returned shape {vals.shape}, expected {pts.shape}")
    v_hi = (vals[..., _GL_LOW:] @ w_hi) * half
    if not np.isfinite(v_hi).all():
        raise QuadratureConvergenceError("integrand produced non-finite panel sums")
    defect = np.abs(v_hi - (vals[..., :_GL_LOW] @ w_lo) * half)
    rows = np.concatenate([v_hi, defect, np.abs(v_hi)]).reshape(3, -1, len(lo))
    return rows, pts.size, vals.ndim == 2


def integrate_1d(f, a: float, b: float, spec: QuadratureSpec, seeds=()) -> QuadResult:
    """Adaptive Gauss quadrature of f over [a, b] with an error estimate.

    Parameters
    ----------
    f : callable
        Vectorized integrand: ndarray in, same-shape ndarray out, finite
        on (a, b); or k components stacked in front, shape (k, *x.shape).
    a, b : float
        Finite bounds, a < b.
    spec : QuadratureSpec
    seeds : iterable of float, optional
        Interior points forced to be initial panel edges (kinks or scale
        transitions known to the caller).

    Returns
    -------
    QuadResult
        value (high-order panel sum), error (sum of per-panel embedded
        defects plus the roundoff floor of the gross panel mass),
        evaluation count, panel count; value and error are arrays of k
        for k components.  For strongly cancelling
        integrals the reported error bottoms out at that roundoff
        floor even when the defect sum has passed a tighter tolerance:
        the value is then correctly rounded, and the error says so.

    Raises
    ------
    QuadratureConvergenceError
        If the split budget is exhausted before the reducible (pair
        defect) estimate of every component passes its own
        max(rel_tol * |value|, abs_tol), or if a panel sum is not finite.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite bounds with a < b, got {a!r}, {b!r}")

    edges = np.array([a, *sorted({float(s) for s in seeds if a < s < b}), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]

    rows, neval, kless = _panel_pair(f, lo, hi)
    splits_used = 0

    def out(per_component):  # floats for a k-less integrand
        return per_component[0] if kless else np.array(per_component)

    while True:
        # Two error scales per component: the embedded pair defect (what
        # subdivision can reduce) and the roundoff noise of the panel
        # sums, _ERR_FLOOR times the gross panel mass (what it cannot).
        # The defect is itself built from roundoff-limited sums, so once
        # it falls to the noise scale it measures roundoff, not
        # discretization error: accept there even if the requested abs_tol
        # is tighter, or a strongly cancelling integral (net ~ 0, gross
        # large) could never terminate despite its value being correctly
        # rounded.  Both scales join the reported error, which stays an
        # honest bound.  Sums run in ascending-interval order.
        ordered = np.take(rows, np.argsort(lo, kind="stable"), axis=-1)
        value, reducible, gross = np.add.reduce(ordered, axis=-1).tolist()
        noise = [_ERR_FLOOR * m for m in gross]
        err_total = [r + n for r, n in zip(reducible, noise)]
        tol = [max(spec.rel_tol * abs(v), spec.abs_tol) for v in value]
        target = [max(t, n) for t, n in zip(tol, noise)]
        if all(r <= t for r, t in zip(reducible, target)):
            return QuadResult(out(value), out(err_total), neval, len(lo))

        budget = spec.max_subdivisions - splits_used
        if budget <= 0:
            i = int(np.argmax(np.divide(reducible, target)))  # the worst component
            raise QuadratureConvergenceError(
                f"subdivision budget {spec.max_subdivisions} exhausted: "
                f"value {value[i]:.6g}, reducible error estimate {reducible[i]:.3g} > "
                f"max(tolerance {tol[i]:.3g}, roundoff scale {noise[i]:.3g}) "
                f"over {len(lo)} panels",
                value=out(value), error=out(err_total),
            )

        # A panel is split when any component's defect exceeds that
        # component's share of its target.
        defect = rows[1]
        share = np.array(target)[:, None] / (2.0 * len(lo))
        cand = (defect > share).any(axis=0).nonzero()[0]
        if cand.size > budget:
            worst = np.argsort(-(defect[:, cand] / share).max(axis=0), kind="stable")[:budget]
            cand = cand[worst]
        mid = 0.5 * (lo[cand] + hi[cand])
        splittable = (mid > lo[cand]) & (mid < hi[cand])
        cand, mid = cand[splittable], mid[splittable]
        if cand.size == 0:
            i = int(np.argmax(np.divide(reducible, target)))
            raise QuadratureConvergenceError(
                "panels have collapsed to machine width without converging "
                f"(value {value[i]:.6g}, error estimate {err_total[i]:.3g})",
                value=out(value), error=out(err_total),
            )

        new_lo = np.concatenate([lo[cand], mid])
        new_hi = np.concatenate([mid, hi[cand]])
        new_rows, extra, _ = _panel_pair(f, new_lo, new_hi)
        neval += extra
        splits_used += cand.size

        keep = np.ones(len(lo), dtype=bool)
        keep[cand] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        rows = np.concatenate([rows[..., keep], new_rows], axis=-1)


def _tail_bound(f, cut: float, spec: QuadratureSpec):
    """Truncation error of Int_0^cut f, with cut = spec.u_max decay lengths.

    _TAIL_LENGTHS * (cut / u_max) * |f(cut)|; f takes and returns ndarrays,
    and a vector f gets one bound per component.
    """
    tail = _TAIL_LENGTHS * (cut / spec.u_max) * np.abs(np.asarray(f(np.array([cut])))[..., 0])
    return tail if tail.ndim else float(tail)


def integrate_omega_x(
    kernel,
    decay: float,
    spec: QuadratureSpec,
    inner_edges_fn=None,
    outer_seeds=(),
) -> QuadResult:
    """Nested quadrature of kernel(omega, x) over (0, omega_max] x [-1, 1].

    A fixed _INNER_NODES-point Gauss-Legendre rule across x on each inner
    segment, inside adaptive quadrature over omega truncated at
    omega_max = ``spec.u_max * decay``.  The kernel may return k
    components stacked in front (integrate_1d).

    Parameters
    ----------
    kernel : callable
        kernel(omega, x) with broadcasting: omega comes shaped (N, 1, 1)
        against x of shape (N or 1, m, n), m segments of n nodes.
    decay : float
        Length in omega over which the kernel's Wien tail decays, for
        every x in [-1, 1]; the caller knows its thermal scales.
    spec : QuadratureSpec
    inner_edges_fn : callable, optional
        Maps a flat omega array (N,) to an ascending edge array
        (N, m + 1) spanning [-1, 1], by default [[-1, 1]]; the inner
        rule is applied on each [edge_i, edge_{i+1}] separately.  For
        jumps in x (band-edge images); zero-width segments add nothing.
    outer_seeds : iterable of float, optional
        Initial panel edges for the omega integral (kink frequencies).

    Returns
    -------
    QuadResult
        error includes the _tail_bound of the omega integral at the
        cutoff; neval counts kernel point evaluations, all components at
        once; omega_max records the cutoff.  Below _OMEGA_DOMAIN_FLOOR the
        value and error are one scalar 0 for every component.
    """
    omega_max = spec.u_max * decay
    if omega_max < _OMEGA_DOMAIN_FLOOR:
        return QuadResult(0.0, 0.0, 0, 0, float(omega_max))

    xg, wg = _gl_nodes(_INNER_NODES)
    count = 0

    def inner(omega):
        nonlocal count
        flat = omega.reshape(-1)
        edges = np.array([[-1.0, 1.0]]) if inner_edges_fn is None else inner_edges_fn(flat)
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
        x = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None] + half * xg
        count += flat.size * x[0].size
        vals = kernel(flat[:, None, None], x)
        return np.sum(vals * (half * wg), axis=(-2, -1)).reshape(vals.shape[:-3] + omega.shape)

    res = integrate_1d(inner, 0.0, omega_max, spec, seeds=outer_seeds)
    error = res.error + _tail_bound(inner, omega_max, spec)
    return QuadResult(res.value, error, count, res.panels, omega_max)
