"""Comparison baselines: exponential search (QESA) and the classic minimum finder.

Both are simulated exactly from the uniform start over the occupied values: a
"standard Grover iteration" is the two-amplitude recursion at phi = pi, so no
2^n register is built, and measurements are seeded inverse-CDF draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CircuitError
from .grover_long import measure
from .oracles import MarkedSet
from .statevector import StateVector

GROWTH_FACTOR_MAX = 4.0 / 3.0
# the minimum finder's time budget, DHA_SEARCH_COEFF sqrt(N) + DHA_PREP_COEFF log2(N)^2
DHA_SEARCH_COEFF = 22.5
DHA_PREP_COEFF = 1.4


@dataclass(frozen=True)
class QesaConfig:
    """Exponential-search settings: growth factor and iteration cap."""

    lam: float = GROWTH_FACTOR_MAX
    max_t: int = 64

    def __post_init__(self):
        if not 1.0 < self.lam <= GROWTH_FACTOR_MAX:
            raise ValueError(f"growth factor must lie in (1, 4/3], got {self.lam}")
        if self.max_t < 1:
            raise ValueError(f"max_t must be >= 1, got {self.max_t}")


def draw_range(t: int, lam: float, size: float) -> float:
    """Round t's iteration draw range min(lam^(t-1), sqrt(size)) (Boyer-Brassard-Hoyer-Tapp)."""
    try:
        return min(lam ** (t - 1), math.sqrt(size))
    except OverflowError:  # lam^(t-1) is past the float range, so past the cap
        return math.sqrt(size)


class QesaIteration(NamedTuple):
    t: int
    gamma: int
    measured: int
    success: bool


@dataclass
class QesaTrace:
    """Per-iteration log of one exponential-search run."""

    iterations: list[QesaIteration] = field(default_factory=list)
    oracle_calls: int = 0
    preparations: int = 0
    succeeded: bool = False
    result: int | None = None


def run_qesa(
    initial: StateVector, marked: MarkedSet, cfg: QesaConfig, rng=None
) -> QesaTrace:
    """Exponential search: grow the iteration draw range by lam each round.

    Round t draws gamma = floor(U[0, min(lam^(t-1), sqrt(N)))), runs that many
    standard Grover iterations on a freshly prepared register, and measures.
    N counts the occupied (nonzero-amplitude) basis states, and ``initial``
    must be the uniform superposition over them (CircuitError otherwise).
    If no marked index carries amplitude the trace simply fails at max_t.
    """
    if marked.n != initial.n:
        raise CircuitError(f"dimension mismatch: marked.n={marked.n}, initial.n={initial.n}")
    gen = np.random.default_rng(rng)
    occupied = initial.uniform_support().tolist()
    flags = [False, *(v in marked.V for v in occupied), False]  # flags[i + 1] marks occupied[i]
    bounds = tuple(i for i in range(len(occupied) + 1) if flags[i] != flags[i + 1])

    trace = QesaTrace()
    for t in range(1, cfg.max_t + 1):
        gamma = int(draw_range(t, cfg.lam, len(occupied)) * gen.random())
        idx = measure(bounds, len(occupied), math.pi, gamma, gen)
        outcome = occupied[idx]
        success = flags[idx + 1]
        trace.iterations.append(QesaIteration(t, gamma, outcome, success))
        trace.preparations += 1
        trace.oracle_calls += gamma
        if success:
            trace.succeeded = True
            trace.result = outcome
            return trace
    return trace


def qesa_failure_model(M: float, N: float, t: int, lam: float = GROWTH_FACTOR_MAX) -> float:
    """Probability that t exponential-search rounds all fail.

    Each round fails with the gamma-averaged miss probability; gamma = v hits
    with probability sin^2((2v+1) beta), and the draw range is capped at
    sqrt(N).  The weights form a proper mixture: 1/m for each whole v below
    floor(m) and (m - floor(m))/m for v = floor(m).
    """
    if not 0 < M <= N:
        raise ValueError(f"need 0 < M <= N, got M={M}, N={N}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    beta = math.asin(math.sqrt(M / N))
    eps, last = 1.0, None
    for s in range(1, t + 1):
        m = draw_range(s, lam, N)
        if m != last:  # every round past the sqrt(N) cap repeats its factor
            last, f = m, math.floor(m)
            factor = (1.0 / m) * (1.0 - M / N)
            for v in range(1, f):
                factor += (1.0 / m) * math.cos((2 * v + 1) * beta) ** 2
            if m > f:
                factor += ((m - f) / m) * math.cos((2 * f + 1) * beta) ** 2
        eps *= factor
    return eps


@dataclass
class DhaResult:
    """Outcome and cost counters of one baseline minimum-finding run."""

    minimum: int
    grover_iterations: int
    preparations: int
    rounds: int
    threshold_updates: int
    time_used: float
    budget: float


def run_dha_minimum(db, cfg: QesaConfig, rng=None) -> DhaResult:
    """Threshold-descent minimum finding on top of exponential search.

    Repeatedly searches for values strictly below the current threshold,
    restarting the exponential schedule after every improvement, until the
    time budget 22.5 sqrt(N) + 1.4 log2(N)^2 (the DHA_* constants) is
    exhausted.  Time accounting per round: gamma oracle steps plus log2(N)
    preparation steps.
    """
    gen = np.random.default_rng(rng)
    N = db.size
    d0 = int(db.values[gen.integers(N)])
    if N == 1:
        return DhaResult(d0, 0, 0, 0, 0, 0.0, 0.0)

    ordered = db.sorted_values
    lg = math.log2(N)
    budget = DHA_SEARCH_COEFF * math.sqrt(N) + DHA_PREP_COEFF * lg**2

    time_used = 0.0
    grover_total = 0
    rounds = 0  # one preparation each
    updates = 0
    t = 1
    below = int(np.searchsorted(ordered, d0, side="left"))  # d0's position, the marked prefix's end
    while time_used < budget:
        gamma = int(draw_range(t, cfg.lam, N) * gen.random())
        idx = measure((0, below), N, math.pi, gamma, gen)
        rounds += 1
        grover_total += gamma
        time_used += gamma + lg
        if idx < below:  # a value below d0
            below = idx
            updates += 1
            t = 1
        else:
            t += 1
    return DhaResult(int(ordered[below]), grover_total, rounds, rounds, updates, time_used, budget)
