"""Closed-form failure-rate and complexity models.

Failure rates come from :func:`qummsa.grover_long.final_amplitudes`, the
two-amplitude engine the search loops also run on: good/bad per-state
amplitudes evolve under one 2x2 complex step matrix per iteration, and J
iterations cost O(log J) by repeated squaring of that matrix, evaluated over
whole arrays of (M/N, M~/N~) at once.  The test suite checks it against the
step-by-step :func:`~qummsa.grover_long.amplitude_recursion` and that against
the dense state-vector reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .grover_long import compute_params, final_amplitudes
# re-exported: the tests' step-by-step reference, also wrapped by perfbench/spans.py
from .grover_long import amplitude_recursion  # noqa: F401

SQRT2 = math.sqrt(2.0)
# cells per block of failure_contour_grid rows: each complex temporary stays
# near 0.5 MB (one row, where a row alone is larger)
_GRID_BLOCK_CELLS = 1 << 15


def _check_ratios(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError unless every one lies in (0, 1]."""
    arr = np.asarray(values, dtype=float)
    bad = arr[~((arr > 0.0) & (arr <= 1.0))]
    if bad.size:
        raise ValueError(f"{name} must lie in (0, 1], got {bad.flat[0]}")
    return arr


@dataclass(frozen=True)
class MisestimationPoint:
    """True and estimated solution fractions, both in (0, 1]."""

    ratio_true: float
    ratio_est: float

    def __post_init__(self):
        _check_ratios("ratio_true", self.ratio_true)
        _check_ratios("ratio_est", self.ratio_est)


def grover_long_failure(
    ratio_true: float | MisestimationPoint,
    ratio_est: float | None = None,
    j_rule: str = "2beta",
) -> float:
    """Failure rate when the run is tuned for ratio_est but the truth is ratio_true.

    Exactly zero (to rounding) on the diagonal ratio_true == ratio_est.
    """
    if isinstance(ratio_true, MisestimationPoint):
        point = ratio_true
    else:
        point = MisestimationPoint(float(ratio_true), float(ratio_est))
    params = compute_params(point.ratio_est, 1.0, j_rule)
    return float(_failure(point.ratio_true, params.phi, params.iterations))


def _failure(ratio_true, phi, iterations):
    """1 - (marked mass) after a search with (phi, J) from the uniform start, in [0, 1]."""
    a_good, _ = final_amplitudes(ratio_true, 1.0, phi, iterations)
    return np.clip(1.0 - ratio_true * abs(a_good) ** 2, 0.0, 1.0)


def _tuned(ratio_est, j_rule: str) -> tuple[np.ndarray, np.ndarray]:
    """(phi, J) arrays shaped like ``ratio_est``, from one compute_params per distinct value."""
    ratio_est = _check_ratios("ratio_est", ratio_est)
    distinct, inverse = np.unique(ratio_est, return_inverse=True)
    params = [compute_params(r, 1.0, j_rule) for r in distinct.tolist()]
    phi = np.array([p.phi for p in params])[inverse].reshape(ratio_est.shape)
    iterations = np.array([p.iterations for p in params])[inverse].reshape(ratio_est.shape)
    return phi, iterations


def failure_contour_grid(
    resolution: int, j_rule: str = "2beta"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Failure-rate surface over (ratio_true, ratio_est) in (0, 1]^2.

    Returns (true_axis, est_axis, grid) with grid[i, j] evaluated at
    (true_axis[i], est_axis[j]).  Rows are evaluated in blocks, so temporaries
    stay small next to the grid itself.
    """
    if resolution < 10:
        raise ValueError(f"resolution must be >= 10, got {resolution}")
    axis = np.linspace(1.0 / resolution, 1.0, resolution)
    phi, iterations = _tuned(axis, j_rule)
    grid = np.empty((resolution, resolution))
    rows = max(1, _GRID_BLOCK_CELLS // resolution)
    for start in range(0, resolution, rows):
        block = axis[start : start + rows, None]
        grid[start : start + rows] = _failure(block, phi, iterations)
    return axis, axis.copy(), grid


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
    """Smallest sample estimating a distribution function within spec.error."""
    return math.ceil(spec.z**2 * spec.sigma2 / spec.error**2)


# --- estimated-parameter failure curves ---------------------------------------


def qesa_expected_gamma(m: float) -> float:
    """E[floor(U[0, m))] for the iteration draw of the exponential search."""
    f = math.floor(m)
    exact = sum(range(f)) / m
    return exact + (m - f) / m * f


def sampled_failure_curve(
    spec: SampleSpec,
    ratios=None,
    resolution: int = 40,
    draws: int = 200,
    lam: float = 4.0 / 3.0,
    n_model: float = 1e6,
    rng=None,
    j_rule: str = "2beta",
) -> list[dict]:
    """Mean misestimated failure rate vs. the exponential-search baseline.

    For each true ratio, the solution fraction is estimated ``draws`` times
    from an h-sized sample (h from ``spec``), the resulting failure rates are
    averaged, and the baseline failure is evaluated at the iteration budget
    matched to the tuned run's J (equal cumulative Grover iterations, with
    ``n_model`` standing in for the database size).
    """
    from .baselines import qesa_failure_model  # cross-module by design

    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if ratios is None:
        ratios = np.linspace(1.0 / resolution, 1.0, resolution)
    h = min_sample_size(spec)
    rows = []
    for r in _check_ratios("ratio_true", ratios):
        counts = gen.binomial(h, r, size=draws)
        phi, iterations = _tuned(np.maximum(counts, 1) / h, j_rule)
        eps_vals = _failure(r, phi, iterations)
        j_budget = compute_params(r, 1.0, j_rule).iterations
        t, cum = 1, 0.0
        while True:
            cum += qesa_expected_gamma(min(lam ** (t - 1), math.sqrt(n_model)))
            if cum >= j_budget or t > 10_000:
                break
            t += 1
        rows.append(
            {
                "ratio": float(r),
                "sample_size": h,
                "eps_grover_long": float(np.mean(eps_vals)),
                "qesa_t": t,
                "eps_qesa": float(qesa_failure_model(float(r) * n_model, n_model, t, lam)),
            }
        )
    return rows


# --- complexity ---------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityParams:
    """Inputs to the total-cost model."""

    N: float
    c: int = 3
    eps: float = 0.0
    m0: float | None = None  # first-loop marked count; defaults to N/2

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


def qummsa_complexity_structured(params: ComplexityParams) -> ComplexityReport:
    """Same cost assembled from its parts (halving sweep + confirmations).

    Differs from :func:`qummsa_complexity` by the constant
    (pi/2)(2 + sqrt(2)) that the flat form absorbs into its sqrt(N) term;
    degenerates to exactly 0 search cost at N = 1.
    """
    m0 = params.m0 if params.m0 is not None else params.N / 2.0
    lg = math.log2(params.N)
    sweep = grover_iterations_closed(params.N, m0) if m0 >= 1 else 0.0
    confirmations = params.c * (math.pi / 2.0) * math.sqrt(params.N)
    prep = (lg + params.c) * lg
    return ComplexityReport(
        total=(sweep + confirmations + prep) / (1.0 - params.eps),
        search_term=sweep + confirmations,
        prep_term=prep,
        prep_count=lg + params.c,
    )


def dha_complexity(
    N: float,
    eps: float = 0.0,
    search_coeff: float = 22.5,
    prep_coeff: float = 1.4,
) -> ComplexityReport:
    """Baseline minimum-finder cost, normalized by 1/(1 - eps) like the above.

    The search term is the classic 22.5 sqrt(N) budget; the preparation term
    is prep_coeff * log2(N)^2, reflecting ~log2(N)^2 preparations.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    lg = math.log2(N)
    search = search_coeff * math.sqrt(N)
    prep = prep_coeff * lg**2
    return ComplexityReport(
        total=(search + prep) / (1.0 - eps),
        search_term=search,
        prep_term=prep,
        prep_count=lg**2,
    )
