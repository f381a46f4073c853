"""The optimized minimum/maximum finder: threshold descent with exact search.

One run keeps a reference value d0 and repeatedly tunes an exact search to
the estimated fraction of values on the wanted side of d0.  A measurement
strictly better than d0 restarts the confirmation count; after c consecutive
measurements equal to d0 the loop declares d0 the answer.  With exact
per-loop estimates each inner search is failure-free, and the worst-case
probability of stopping early is (1/2)^c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .grover_long import SearchParams, compute_params, support_probabilities
from .statevector import StateVector, make_superposition, sample_indices
# No longer called here; kept importable under this module because the
# benchmark's tracer (perfbench/spans.py) wraps them by this path.
from .grover_long import run_grover_long  # noqa: F401
from .statevector import sample_measurement  # noqa: F401


@dataclass(frozen=True)
class Database:
    """Labeled distinct integer values, encoded as basis states of n qubits."""

    records: tuple[tuple[str, int], ...]
    n: int
    values: tuple[int, ...] = field(init=False, repr=False, compare=False)  # record order
    sorted_values: np.ndarray = field(init=False, repr=False, compare=False)  # ascending

    def __post_init__(self):
        object.__setattr__(self, "records", tuple((str(l), int(v)) for l, v in self.records))
        if not self.records:
            raise DataError("database must be nonempty")
        values = tuple(v for _, v in self.records)
        if len(set(values)) != len(values):
            dupes = sorted({v for v in values if values.count(v) > 1})
            raise DataError(f"duplicate data values {dupes}: each value must be distinct")
        if min(values) < 0 or max(values) >= 2**self.n:
            raise DataError(
                f"values must lie in [0, {2**self.n - 1}] for n={self.n} qubits"
            )
        ordered = np.array(sorted(values))
        ordered.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sorted_values", ordered)

    @property
    def size(self) -> int:
        return len(self.records)

    def initial_state(self) -> StateVector:
        return make_superposition(self.n, self.values)

    def rank(self, value: int, mode: str = "min") -> int:
        """1-based rank of ``value`` from the relevant end (analysis only)."""
        if mode == "min":
            return sum(1 for v in self.values if v <= value)
        return sum(1 for v in self.values if v >= value)


@dataclass(frozen=True)
class UniformEstimation:
    """Assume every basis state stores a value: M~ = d0+1 (min), N~ = 2^n."""


@dataclass(frozen=True)
class SampledEstimation:
    """Estimate the solution fraction from a drawn sample of the values.

    sample_size None means a census: count over the whole database, which
    makes the estimate (and hence every inner search) exact.
    """

    sample_size: int | None = None


EstimationStrategy = UniformEstimation | SampledEstimation


def draw_sample(db: Database, strategy: EstimationStrategy, rng=None):
    """Materialize the value sample a sampled strategy estimates from.

    Drawn once per run and reused for every threshold query; a census (and
    the uniform strategy, which needs no sample) returns the full value set.
    """
    if isinstance(strategy, UniformEstimation):
        return db.values
    if isinstance(strategy, SampledEstimation):
        if strategy.sample_size is None or strategy.sample_size >= db.size:
            return db.values
        if strategy.sample_size < 1:
            raise DataError("sample size must be >= 1")
        if rng is None:
            raise ValueError("sampled estimation needs an rng")
        return tuple(
            int(v) for v in rng.choice(db.values, size=strategy.sample_size, replace=True)
        )
    raise TypeError(f"unknown estimation strategy {strategy!r}")


def estimate_params(
    d0: int,
    db: Database,
    strategy: EstimationStrategy,
    mode: str = "min",
    rng: np.random.Generator | None = None,
    sample=None,
) -> SearchParams:
    """Search parameters for the threshold at d0 under the given strategy.

    ``sample`` short-circuits the draw for callers that hold one fixed sample
    across a whole run; otherwise one is drawn here.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if isinstance(strategy, UniformEstimation):
        space = 2**db.n
        m_est = d0 + 1 if mode == "min" else space - d0
        return compute_params(max(m_est, 1), space)
    if isinstance(strategy, SampledEstimation):
        if sample is None:
            sample = draw_sample(db, strategy, rng)
        values = np.asarray(sample)
        count = int(np.sum(values <= d0) if mode == "min" else np.sum(values >= d0))
        return compute_params(max(count, 1), len(values))
    raise TypeError(f"unknown estimation strategy {strategy!r}")


@dataclass(frozen=True)
class LoopRecord:
    d0: int
    m_est: float
    n_est: float
    iterations: int
    measured: int
    attempts: int = 1  # prepare/measure rounds before d1 landed on the wanted side


@dataclass
class QummsaResult:
    """Outcome of one full run plus its cost accounting."""

    minimum: int
    main_loops: int
    records: list[LoopRecord] = field(default_factory=list)
    grover_iterations: int = 0  # sum of per-loop J over all searches
    preparations: int = 0
    success: bool = True
    descents: int = 0


def run_qummsa(
    db: Database,
    c: int = 3,
    strategy: EstimationStrategy = UniformEstimation(),
    mode: str = "min",
    rng=None,
    retry_cap: int = 32,
) -> QummsaResult:
    """Threshold-descent search for the minimum (or maximum) of ``db``.

    Each main loop re-tunes the search to the current threshold d0, repeats
    prepare/amplify/measure until the measured value d1 is on the wanted side
    of d0, then either restarts the confirmation count (strict improvement)
    or advances it (d1 == d0).  After c consecutive confirmations d0 is
    returned.

    Searches run in the two-amplitude subspace of the uniform start, so a
    measurement is a draw over the stored values, never outside the database.

    retry_cap bounds the inner repeat: misestimated parameters make the
    inner search fallible, so a cap converts pathological non-termination
    into a reported failure (success=False, best d0 so far returned).
    """
    if c < 1:
        raise ValueError(f"interrupt constant c must be >= 1, got {c}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    ordered = db.sorted_values
    sample = draw_sample(db, strategy, gen)  # one sample serves the whole run
    d0 = int(db.values[gen.integers(db.size)])
    result = QummsaResult(minimum=d0, main_loops=0)

    def better(a: int, b: int) -> bool:
        return a < b if mode == "min" else a > b

    streak = 0
    while streak < c:
        params = estimate_params(d0, db, strategy, mode, gen, sample=sample)
        is_marked = ordered <= d0 if mode == "min" else ordered >= d0
        probs = support_probabilities(is_marked, params.phi, params.iterations)
        d1 = None
        attempts = 0
        for _ in range(retry_cap):
            attempts += 1
            result.preparations += 1
            result.grover_iterations += params.iterations
            outcome = int(ordered[sample_indices(probs, 1, gen)[0]])
            if not better(d0, outcome):
                d1 = outcome
                break
        if d1 is None:
            result.success = False
            break
        result.main_loops += 1
        result.records.append(
            LoopRecord(d0, params.m_est, params.n_est, params.iterations, d1, attempts)
        )
        if better(d1, d0):
            streak = 0
            result.descents += 1
            d0 = d1
        else:
            streak += 1
    result.minimum = d0
    return result


def loop_failure_bound(r0: int, c: int) -> float:
    """(1/r0)^c: chance of c consecutive repeats at a threshold of rank r0."""
    if r0 < 1 or c < 1:
        raise ValueError(f"need r0 >= 1 and c >= 1, got r0={r0}, c={c}")
    return (1.0 / r0) ** c
