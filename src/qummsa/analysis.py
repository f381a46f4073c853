"""Closed-form failure-rate and complexity models.

Failure rates come from :func:`qummsa.grover_long.final_amplitudes`, the
two-amplitude engine the search loops also run on: good/bad per-state
amplitudes turn by a fixed angle per iteration, so J iterations are one
closed form, O(1) in J, evaluated over whole arrays of (M/N, M~/N~) at once.
The test suite checks it against the step-by-step
:func:`~qummsa.grover_long.amplitude_recursion` and that against the dense
state-vector reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .baselines import (
    DHA_PREP_COEFF, DHA_SEARCH_COEFF, GROWTH_FACTOR_MAX, draw_range, qesa_failure_model,
)
from .grover_long import _tune, compute_params, final_amplitudes
# re-exported: the tests' step-by-step reference, also wrapped by perfbench/spans.py
from .grover_long import amplitude_recursion  # noqa: F401

SQRT2 = math.sqrt(2.0)
# Block sizes of the model evaluations.  How many cells one _failure call
# evaluates is part of the output bytes: from 16,384 cells (256 KiB of
# complex128, where numpy starts to elide temporaries) on, some cells change
# in their last bits against smaller calls.
# failure_contour_grid evaluates blocks of rows near 2^15 cells (one row, where
# a row alone is larger), each complex temporary near 0.5 MB; below 16,384
# cells, 7,244 of the 65,536 cells of failure-map --resolution 256 (pinned in
# the tests) would change.
_GRID_BLOCK_CELLS = 1 << 15
# sampled_failure_curve evaluates blocks of ratio rows below 16,384 cells (one
# row, where a row alone is larger), so every cell has the bits of its row
# evaluated alone, as the curves were first recorded, and memory is bounded by
# one block.
_CURVE_BLOCK_CELLS = 16_383
# database size the failure curves' baseline is modelled at.  The curves are
# stated in M/N alone; N enters only through the sqrt(N) cap on the
# exponential search's draw range, and for every ratio down to 1e-6 the range
# the iteration budget needs stays below that cap (1000), so the baseline
# acts as N -> infinity.
CURVE_MODEL_N = 1e6


def _check_ratios(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError unless every one lies in (0, 1]."""
    arr = np.asarray(values, dtype=float)
    bad = arr[~((arr > 0.0) & (arr <= 1.0))]
    if bad.size:
        raise ValueError(f"{name} must lie in (0, 1], got {bad.flat[0]}")
    return arr


def grover_long_failure(ratio_true: float, ratio_est: float) -> float:
    """Failure rate when the run is tuned for ratio_est but the truth is ratio_true.

    Both ratios must lie in (0, 1].  Exactly zero (to rounding) on the
    diagonal ratio_true == ratio_est.
    """
    ratio_true = float(_check_ratios("ratio_true", ratio_true))
    params = compute_params(float(_check_ratios("ratio_est", ratio_est)), 1.0)
    return float(_failure(ratio_true, params.phi, params.iterations))


def _failure(ratio_true, phi, iterations):
    """1 - (marked mass) after a search with (phi, J) from the uniform start, in [0, 1]."""
    a_good, _ = final_amplitudes(ratio_true, 1.0, phi, iterations)
    return np.clip(1.0 - ratio_true * abs(a_good) ** 2, 0.0, 1.0)


def _tuned(ratio_est) -> tuple[np.ndarray, np.ndarray]:
    """(phi, J) arrays shaped like ``ratio_est``, tuned once per distinct value."""
    ratio_est = _check_ratios("ratio_est", ratio_est)
    distinct, inverse = np.unique(ratio_est, return_inverse=True)
    tuned = [_tune(r) for r in distinct.tolist()]
    phi = np.array([p for _, p, _ in tuned])[inverse].reshape(ratio_est.shape)
    iterations = np.array([j for _, _, j in tuned])[inverse].reshape(ratio_est.shape)
    return phi, iterations


def failure_contour_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Failure-rate surface over (ratio_true, ratio_est) in (0, 1]^2.

    Returns (axis, grid) with grid[i, j] evaluated at true ratio axis[i] and
    estimated ratio axis[j]: both ratios run over the one axis.  Rows are
    evaluated in blocks, so temporaries stay small next to the grid itself.
    """
    if resolution < 10:
        raise ValueError(f"resolution must be >= 10, got {resolution}")
    axis = np.linspace(1.0 / resolution, 1.0, resolution)
    phi, iterations = _tuned(axis)
    grid = np.empty((resolution, resolution))
    rows = max(1, _GRID_BLOCK_CELLS // resolution)
    for start in range(0, resolution, rows):
        block = axis[start : start + rows, None]
        grid[start : start + rows] = _failure(block, phi, iterations)
    return axis, grid


# --- sample sizing ------------------------------------------------------------

# Z lookup for named confidence levels (two-decimal table convention).
Z_TABLE = {
    0.50: 0.675,
    0.75: 1.15,
    0.80: 1.28,
    0.85: 1.44,
    0.95: 1.96,
    0.99: 2.576,
    0.999: 2.81,
}


def z_for_confidence(confidence: float) -> float:
    """Z-statistic for a two-sided confidence level.

    Named levels use the rounded table values above; anything else falls back
    to the exact normal quantile.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    for level, z in Z_TABLE.items():
        if abs(confidence - level) < 1e-9:
            return z
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class SampleSpec:
    """Inputs to the minimum-sample-size rule h = Z^2 sigma^2 / E^2."""

    z: float
    error: float
    sigma2: float = 0.25

    def __post_init__(self):
        if self.z <= 0 or self.sigma2 <= 0 or not 0.0 < self.error < 1.0:
            raise ValueError(f"invalid sample spec {self}")


def min_sample_size(spec: SampleSpec) -> int:
    """Smallest sample estimating a distribution function within spec.error: at least 1."""
    return max(1, math.ceil(spec.z**2 * spec.sigma2 / spec.error**2))


# --- estimated-parameter failure curves ---------------------------------------


def qesa_expected_gamma(m: float) -> float:
    """E[floor(U[0, m))] for the iteration draw of the exponential search."""
    f = math.floor(m)
    return f * (f - 1) // 2 / m + (m - f) / m * f


def sampled_failure_curve(spec: SampleSpec, ratios, draws: int = 200, rng=None) -> np.ndarray:
    """Mean failure rate of the search tuned to a sampled estimate, one per true ratio.

    For each true ratio, the solution fraction is estimated ``draws`` times
    from an h-sized sample (h from ``spec``) and the failure rates are
    averaged into one float array.  Consecutive ratios are drawn, tuned and
    evaluated together in blocks below 16,384 draws (one ratio where
    ``draws`` alone is more): the draws come in the order of one ratio at a
    time, every mean has the bits of its ratio evaluated alone, and memory is
    one block plus the array.  The baseline is :func:`qesa_baseline`.
    """
    gen = np.random.default_rng(rng)
    h = min_sample_size(spec)
    ratios = _check_ratios("ratio_true", ratios)
    step = max(1, _CURVE_BLOCK_CELLS // draws)
    means = np.empty(len(ratios))
    for start in range(0, len(ratios), step):
        block = ratios[start : start + step, None]
        counts = gen.binomial(h, block, size=(len(block), draws))
        eps = _failure(block, *_tuned(np.maximum(counts, 1) / h))
        means[start : start + step] = [np.mean(row) for row in eps]
    return means


def qesa_baseline(ratios) -> tuple[list[int], list[float]]:
    """The exponential-search baseline at each true ratio: columns of rounds t and failure rates.

    t is the first round count whose expected cumulative Grover iterations
    reach the J of the search tuned to the true ratio (growth factor
    ``GROWTH_FACTOR_MAX``, ``CURVE_MODEL_N`` standing in for the database
    size), at most 10,001; the failure rate is ``qesa_failure_model`` after t
    rounds.  The cumulative sums are taken once for all ratios.
    """
    ratios = _check_ratios("ratio_true", ratios)
    budgets = _tuned(ratios)[1].tolist()
    top = max(budgets, default=0)
    cum, cums = 0.0, []
    while len(cums) < 10_000 and cum < top:
        cum += qesa_expected_gamma(draw_range(len(cums) + 1, GROWTH_FACTOR_MAX, CURVE_MODEL_N))
        cums.append(cum)
    rounds = [bisect_left(cums, j) + 1 for j in budgets]  # 10,001 where no 10,000-round sum reaches J
    eps = [qesa_failure_model(r * CURVE_MODEL_N, CURVE_MODEL_N, t, GROWTH_FACTOR_MAX)
           for r, t in zip(ratios.tolist(), rounds)]
    return rounds, eps


# --- complexity ---------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityParams:
    """Inputs to the total-cost model."""

    N: float
    c: int = 3
    eps: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


@dataclass(frozen=True)
class ComplexityReport:
    total: float
    search_term: float
    prep_term: float
    prep_count: float


def grover_iterations_closed(N: float, m0: float) -> float:
    """Geometric-sum form of the total iterations over halving loops."""
    return (math.pi / 2.0) * (SQRT2 + 1.0) * (math.sqrt(2.0 * N) - math.sqrt(N / m0))


def grover_iterations_sum(N: float, m0: float) -> float:
    """Explicit sum over loops k with M_k = m0 / 2^k down to 1.

    Agrees with the closed form exactly when m0 is a power of two; for other
    m0 the two are both reported by callers rather than reconciled here.
    """
    if m0 < 1:
        return 0.0
    total = 0.0
    for k in range(math.floor(math.log2(m0)) + 1):
        total += math.sqrt(N / (m0 / 2**k))
    return (math.pi / 2.0) * total


def qummsa_complexity(params: ComplexityParams) -> ComplexityReport:
    """Total cost: amplification sweep + c confirmations + preparations.

    search = (pi/2)(2 + sqrt(2) + c) sqrt(N); prep = (log2 N + c) log2 N;
    total = (search + prep) / (1 - eps).
    """
    lg = math.log2(params.N)
    search = (math.pi / 2.0) * (2.0 + SQRT2 + params.c) * math.sqrt(params.N)
    prep = (lg + params.c) * lg
    return ComplexityReport(
        total=(search + prep) / (1.0 - params.eps),
        search_term=search,
        prep_term=prep,
        prep_count=lg + params.c,
    )


def dha_complexity(N: float, eps: float = 0.0) -> ComplexityReport:
    """Baseline minimum-finder cost, normalized by 1/(1 - eps) like the above.

    The same budget :func:`qummsa.baselines.run_dha_minimum` runs to: the
    classic 22.5 sqrt(N) search term plus 1.4 log2(N)^2, reflecting
    ~log2(N)^2 preparations.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    lg = math.log2(N)
    search = DHA_SEARCH_COEFF * math.sqrt(N)
    prep = DHA_PREP_COEFF * lg**2
    return ComplexityReport(
        total=(search + prep) / (1.0 - eps),
        search_term=search,
        prep_term=prep,
        prep_count=lg**2,
    )
