"""Fixed reference loops that measure how fast the machine runs right now.

On a shared host the speed of one core drifts: the same pass of a workload
can take twice as long a minute later, and process CPU time drifts with it.
The runner therefore times a reference loop between the items of a pass and
expresses each stretch of timed work in units of the loop's duration at that
moment.  The drift hits kinds of work unequally, so each workload names the
loop that does its kind of work:

- ``vector``: numpy arithmetic in place on a 4 MiB complex array, the size of
  one 2^18 state vector.  Streaming work, for ``sparse_n18``.
- ``mixed``: 20k random reads from a list of 100k Python floats (3 MiB with
  the float objects) plus a little of the vector work.  Interpreter work past
  the L2 cache, for ``oracle_circuits`` and ``failure_models``.

Both loops call nothing in ``qummsa`` and allocate nothing while they run, so
neither a change to the program nor the state of its heap moves the unit.
Their data add about 10 MB to ``peak_rss_mb``, the same on every commit.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

REPEATS = 2  # a sample is the mean of these runs, 10 to 15 ms in all
_rng = random.Random(0)
_FLOATS = [_rng.random() for _ in range(100_000)]
_ORDER = _rng.sample(range(100_000), 20_000)
_VECTOR = np.full(1 << 18, 0.5 + 0.5j)


def _scale_vector(rounds: int) -> None:
    for _ in range(rounds):
        np.multiply(_VECTOR, 1.25, out=_VECTOR)
        np.multiply(_VECTOR, 0.8, out=_VECTOR)


def _vector() -> None:
    _scale_vector(4)


def _mixed() -> None:
    total = 0.0
    for i in _ORDER:
        total += _FLOATS[i] * 1.0001
    _scale_vector(1)


LOOPS = {"vector": _vector, "mixed": _mixed}


def sample(loop: str) -> float:
    """Seconds the named loop takes now: the mean of ``REPEATS`` runs.

    A mean, not a minimum, so that the sample sees the same share of slow
    moments as the work beside it.  The garbage collector is paused meanwhile,
    so that the size of the workload's heap does not leak into the sample.
    """
    kernel = LOOPS[loop]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            kernel()
        return (time.perf_counter() - t0) / REPEATS
    finally:
        if enabled:
            gc.enable()
