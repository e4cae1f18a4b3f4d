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

The double integrals over (omega, x) use a fixed-order Gauss-Legendre
rule across x in [-1, 1] inside the adaptive omega integral.  The inner
integrand is smooth for the smooth polarizability models; models with
jumps publish breakpoints, and callers pass ``inner_edges_fn`` so the
inner rule is applied piecewise between the exact jump images, keeping
spectral accuracy.  The fixed inner order is a documented trade: it
must resolve the narrowest spectral feature of the model (the
``inner_nodes`` knob raises it), and the reported error has no term for
the inner rule.  No test guards it: doubling ``inner_nodes`` from 64 to
128 moves some 2D values by up to about 128 times their own error
(ROADMAP, F8).
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
    """Adaptive quadrature exhausted its subdivision budget."""

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
    budget of one adaptive integral.  inner_nodes is the fixed
    Gauss-Legendre order across x.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    u_max: float = 40.0
    max_subdivisions: int = 200
    inner_nodes: int = 64

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
        if not (isinstance(self.inner_nodes, int) and self.inner_nodes >= 8):
            raise ValueError(f"inner_nodes must be >= 8, got {self.inner_nodes!r}")


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with its error estimate and work diagnostics."""

    value: float
    error: float
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
    """Evaluate the GL pair on a batch of panels.

    Returns (low-order sums, high-order sums, evaluation count).  `f`
    receives one ndarray of arbitrary shape and must return values of
    the same shape.
    """
    x_lo, w_lo = _gl_nodes(_GL_LOW)
    x_hi, w_hi = _gl_nodes(_GL_HIGH)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = np.concatenate([x_lo, x_hi])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {pts.shape}"
        )
    v_lo = (vals[:, :_GL_LOW] @ w_lo) * half
    v_hi = (vals[:, _GL_LOW:] @ w_hi) * half
    return v_lo, v_hi, pts.size


def integrate_1d(f, a: float, b: float, spec: QuadratureSpec, seeds=()) -> QuadResult:
    """Adaptive Gauss quadrature of f over [a, b] with an error estimate.

    Parameters
    ----------
    f : callable
        Vectorized integrand: ndarray in, same-shape ndarray out, finite
        on (a, b).
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
        evaluation count, panel count.  For strongly cancelling
        integrals the reported error bottoms out at that roundoff
        floor even when the defect sum has passed a tighter tolerance:
        the value is then correctly rounded, and the error says so.

    Raises
    ------
    QuadratureConvergenceError
        If the split budget is exhausted before the reducible (pair
        defect) estimate passes max(rel_tol * |value|, abs_tol).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite bounds with a < b, got {a!r}, {b!r}")

    interior = sorted({float(s) for s in seeds if a < s < b})
    edges = np.array([a, *interior, b], dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]

    v_lo, v_hi, neval = _panel_pair(f, lo, hi)
    if not np.all(np.isfinite(v_hi)):
        raise ValueError("integrand produced non-finite panel sums")
    splits_used = 0

    while True:
        # Two error scales: the embedded pair defect (what subdivision can
        # reduce) and the roundoff noise of the panel sums, _ERR_FLOOR
        # times the gross panel mass (what it cannot).  The defect is
        # itself built from roundoff-limited sums, so once it falls to the
        # noise scale it measures roundoff, not discretization error:
        # accept there even if the requested abs_tol is tighter, or a
        # strongly cancelling integral (net ~ 0, gross large) could never
        # terminate despite its value being correctly rounded.  Both
        # scales join the reported error, which stays an honest bound.
        defect = np.abs(v_hi - v_lo)
        order = np.argsort(lo, kind="stable")
        value = float(np.sum(v_hi[order]))
        reducible = float(np.sum(defect[order]))
        noise = _ERR_FLOOR * float(np.sum(np.abs(v_hi[order])))
        err_total = reducible + noise
        tol = max(spec.rel_tol * abs(value), spec.abs_tol)
        target = max(tol, noise)
        if reducible <= target:
            return QuadResult(value, err_total, neval, len(lo))

        budget = spec.max_subdivisions - splits_used
        if budget <= 0:
            raise QuadratureConvergenceError(
                f"subdivision budget {spec.max_subdivisions} exhausted: "
                f"value {value:.6g}, reducible error estimate {reducible:.3g} > "
                f"max(tolerance {tol:.3g}, roundoff scale {noise:.3g}) "
                f"over {len(lo)} panels",
                value=value,
                error=err_total,
            )

        share = target / (2.0 * len(lo))
        cand = np.where(defect > share)[0]
        if cand.size == 0:
            cand = np.array([int(np.argmax(defect))])
        if cand.size > budget:
            worst = np.argsort(-defect[cand], kind="stable")[:budget]
            cand = cand[worst]
        mid = 0.5 * (lo[cand] + hi[cand])
        splittable = (mid > lo[cand]) & (mid < hi[cand])
        cand, mid = cand[splittable], mid[splittable]
        if cand.size == 0:
            raise QuadratureConvergenceError(
                "panels have collapsed to machine width without converging "
                f"(value {value:.6g}, error estimate {err_total:.3g})",
                value=value,
                error=err_total,
            )

        new_lo = np.concatenate([lo[cand], mid])
        new_hi = np.concatenate([mid, hi[cand]])
        nv_lo, nv_hi, extra = _panel_pair(f, new_lo, new_hi)
        if not np.all(np.isfinite(nv_hi)):
            raise ValueError("integrand produced non-finite panel sums")
        neval += extra
        splits_used += cand.size

        keep = np.ones(len(lo), dtype=bool)
        keep[cand] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        v_lo = np.concatenate([v_lo[keep], nv_lo])
        v_hi = np.concatenate([v_hi[keep], nv_hi])


def _tail_bound(f, cut: float, spec: QuadratureSpec) -> float:
    """Truncation error of Int_0^cut f, with cut = spec.u_max decay lengths.

    _TAIL_LENGTHS * (cut / u_max) * |f(cut)|; f takes and returns ndarrays.
    """
    return _TAIL_LENGTHS * (cut / spec.u_max) * abs(float(f(np.array([cut]))[0]))


def integrate_omega_x(
    kernel,
    decay: float,
    spec: QuadratureSpec,
    inner_edges_fn=None,
    outer_seeds=(),
) -> QuadResult:
    """Nested quadrature of kernel(omega, x) over (0, omega_max] x [-1, 1].

    Fixed-order Gauss-Legendre across x (``spec.inner_nodes`` points)
    inside adaptive quadrature over omega, truncated at
    omega_max = ``spec.u_max * decay``.

    Parameters
    ----------
    kernel : callable
        kernel(omega, x) with broadcasting: omega comes shaped
        (..., 1) or (..., 1, 1) against x of shape (n,) or (panels, n).
    decay : float
        Length in omega over which the kernel's Wien tail decays, for
        every x in [-1, 1]; the caller knows its thermal scales.
    spec : QuadratureSpec
    inner_edges_fn : callable, optional
        Maps a flat omega array (N,) to an ascending edge array
        (N, k + 1) spanning [-1, 1]; the inner rule is applied on each
        [edge_i, edge_{i+1}] separately.  For integrands with jumps in
        x (band-edge images); zero-width segments contribute nothing.
    outer_seeds : iterable of float, optional
        Initial panel edges for the omega integral (kink frequencies).

    Returns
    -------
    QuadResult
        error includes the _tail_bound of the omega integral at the
        cutoff; neval counts kernel point evaluations; omega_max records
        the cutoff.
    """
    omega_max = spec.u_max * decay
    if omega_max < _OMEGA_DOMAIN_FLOOR:
        return QuadResult(0.0, 0.0, 0, 0, float(omega_max))

    xg, wg = _gl_nodes(spec.inner_nodes)
    count = 0

    if inner_edges_fn is None:

        def inner(omega):
            nonlocal count
            count += omega.size * xg.size
            vals = kernel(omega[..., None], xg)
            return vals @ wg

    else:

        def inner(omega):
            nonlocal count
            flat = omega.reshape(-1)
            edges = inner_edges_fn(flat)
            seg_lo = edges[:, :-1]
            seg_hi = edges[:, 1:]
            half = 0.5 * (seg_hi - seg_lo)
            mid = 0.5 * (seg_hi + seg_lo)
            x = mid[:, :, None] + half[:, :, None] * xg
            w = half[:, :, None] * wg
            count += x.size
            vals = kernel(flat[:, None, None], x)
            return np.sum(vals * w, axis=(1, 2)).reshape(omega.shape)

    res = integrate_1d(inner, 0.0, omega_max, spec, seeds=outer_seeds)
    error = res.error + _tail_bound(inner, omega_max, spec)
    return QuadResult(res.value, error, count, res.panels, omega_max)
