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
from .grover_long import SearchParams, compute_params, measure
# No longer called here; kept importable under this module because the
# benchmark's tracer (perfbench/spans.py) wraps them by this path.
from .grover_long import run_grover_long  # noqa: F401
from .statevector import make_superposition, sample_measurement  # noqa: F401


@dataclass(frozen=True)
class Database:
    """Labeled distinct integer values, encoded as basis states of n qubits."""

    labels: tuple[str, ...]  # record order, parallel to values
    values: tuple[int, ...]  # also accepts a 1-D int64 array, stored as a tuple
    n: int
    sorted_values: np.ndarray = field(init=False, repr=False, compare=False)  # ascending

    def __post_init__(self):
        labels = tuple(self.labels)
        try:  # labels that are all str already, as the loader hands them, are kept as they are
            "".join(labels)
        except TypeError:
            labels = tuple(map(str, labels))
        if isinstance(self.values, np.ndarray) and self.values.dtype == np.int64:
            values = tuple(self.values.tolist())
            ordered = np.sort(self.values)
        else:
            values = tuple(map(int, self.values))
            ordered = np.array(values)
            if ordered.dtype.kind == "f":  # numpy rounds 2^63 and up beside smaller values to float64
                ordered = np.array(values, dtype=object)
            ordered.sort()
        if len(labels) != len(values):
            raise DataError(f"{len(labels)} labels for {len(values)} values")
        if not values:
            raise DataError("database must be nonempty")
        repeats = ordered[1:] == ordered[:-1]
        if repeats.any():
            dupes = np.unique(ordered[1:][repeats]).tolist()
            raise DataError(f"duplicate data values {dupes}: each value must be distinct")
        if ordered[0] < 0 or int(ordered[-1]) >= 2**self.n:
            raise DataError(
                f"values must lie in [0, {2**self.n - 1}] for n={self.n} qubits"
            )
        ordered.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sorted_values", ordered)

    @property
    def size(self) -> int:
        return len(self.values)


def _count_on_side(ordered: np.ndarray, d0: int, mode: str) -> int:
    """How many of the ascending ``ordered`` are <= d0 (min) or >= d0 (max): one bisection."""
    if mode == "min":  # the method, not np.searchsorted: its wrapper costs more than the search
        return int(ordered.searchsorted(d0, side="right"))
    return len(ordered) - int(ordered.searchsorted(d0, side="left"))


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


def ascending_sample(db: Database, strategy: EstimationStrategy, rng=None) -> np.ndarray:
    """The ascending value sample a strategy estimates from, in ``db.sorted_values``'s dtype.

    Drawn once per run and reused for every threshold query.  The uniform
    strategy, which needs no sample, and a census get ``db.sorted_values``
    itself.  Every threshold comes from the database, so it fits that dtype
    and the count stays exact beyond 2^63.
    """
    if isinstance(strategy, UniformEstimation):
        return db.sorted_values
    if not isinstance(strategy, SampledEstimation):
        raise TypeError(f"unknown estimation strategy {strategy!r}")
    if strategy.sample_size is None or strategy.sample_size >= db.size:
        return db.sorted_values
    if strategy.sample_size < 1:
        raise DataError("sample size must be >= 1")
    if rng is None:
        raise ValueError("sampled estimation needs an rng")
    # draw indices, not values: numpy would round 2^63 and up beside smaller values
    picks = rng.choice(db.size, size=strategy.sample_size, replace=True)
    return np.sort(np.array([db.values[i] for i in picks], dtype=db.sorted_values.dtype))


def estimate_params(
    d0: int,
    db: Database,
    strategy: EstimationStrategy,
    mode: str = "min",
    *,
    sample: np.ndarray,
) -> SearchParams:
    """Search parameters for the threshold at d0 under the given strategy.

    ``sample`` is the run's :func:`ascending_sample`; the uniform strategy
    ignores it.  It must be ascending: the count is one bisection, so an
    unsorted sample gives a wrong count without an error.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if isinstance(strategy, UniformEstimation):
        space = 2**db.n
        m_est = d0 + 1 if mode == "min" else space - d0
        return compute_params(max(m_est, 1), space)
    if isinstance(strategy, SampledEstimation):
        count = _count_on_side(sample, d0, mode)
        return compute_params(max(count, 1), len(sample))
    raise TypeError(f"unknown estimation strategy {strategy!r}")


@dataclass(frozen=True)
class LoopRecord:
    d0: int
    m_est: float
    n_est: float
    iterations: int
    measured: int
    attempts: int  # prepare/measure rounds before d1 landed on the wanted side


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
    measurement is a position among the stored values: the loop walks on d0's rank.

    retry_cap bounds the inner repeat: misestimated parameters make the
    inner search fallible, so a cap converts pathological non-termination
    into a reported failure (success=False, best d0 so far returned).
    """
    if c < 1:
        raise ValueError(f"interrupt constant c must be >= 1, got {c}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    ordered = db.sorted_values
    if isinstance(strategy, UniformEstimation):  # the smallest M~/N~ a run can tune to
        fewest = int(ordered[0]) + 1 if mode == "min" else 2**db.n - int(ordered[-1])
        if fewest / 2**db.n == 0.0:
            raise DataError(
                f"n={db.n}: the uniform estimate {fewest}/2^{db.n} rounds to 0; use a smaller n"
            )
    gen = np.random.default_rng(rng)

    sample = ascending_sample(db, strategy, gen)  # one sample serves the whole run
    d0 = int(db.values[gen.integers(db.size)])
    rank = _count_on_side(ordered, d0, mode)  # d0's 1-based rank from the wanted end
    result = QummsaResult(minimum=d0, main_loops=0)

    streak = 0
    while streak < c:
        params = estimate_params(d0, db, strategy, mode, sample=sample)
        low, high = (0, rank) if mode == "min" else (db.size - rank, db.size)  # the marked positions
        for attempts in range(1, retry_cap + 1):
            result.preparations += 1
            result.grover_iterations += params.iterations
            idx = measure((low, high), db.size, params.phi, params.iterations, gen)
            if low <= idx < high:
                break
        else:
            result.success = False
            break
        d1 = int(ordered[idx])
        result.main_loops += 1
        result.records.append(LoopRecord(d0, params.m_est, params.n_est, params.iterations, d1, attempts))
        new_rank = idx + 1 if mode == "min" else db.size - idx
        if new_rank < rank:
            streak = 0
            result.descents += 1
            d0, rank = d1, new_rank
        else:
            streak += 1
    result.minimum = d0
    return result

