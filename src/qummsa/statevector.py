"""Dense complex state vectors, the rank-1 reflection and measurement sampling.

Qubit convention: q[0] is the least-significant bit of the basis index, so
basis state ``|b_{n-1} ... b_1 b_0>`` has index ``sum(b_k * 2**k)``.
Amplitudes are complex128 throughout.  No operation renormalizes silently;
drift is something callers assert on, not something we hide.
A state never changes, so it is shared, never copied: its constructor adopts an
array that owns its data, marked read-only, and copies a view, whose base could
still be written; writing to an array after handing it over raises ValueError.
A view taken before the array was handed over still writes into the state:
numpy cannot tell whether one exists, so only the array itself is guarded.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import CircuitError

NORM_TOL = 1e-9


class StateVector:
    """An n-qubit register as a length-2**n complex amplitude array it owns, read-only."""

    __slots__ = ("n", "amps", "_support")

    def __init__(self, n: int, amps: np.ndarray):
        if n < 1:
            raise CircuitError(f"qubit count must be >= 1, got {n}")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (2**n,):
            raise CircuitError(
                f"amplitude array has shape {amps.shape}, expected ({2**n},)"
            )
        amps = amps if amps.flags.owndata else amps.copy()  # a view's base may still be written
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise CircuitError("amplitudes must be finite")
        amps.flags.writeable = False
        self.n = n
        self.amps = amps
        self._support = None

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def uniform_support(self) -> np.ndarray:
        """Ascending occupied indices, read-only int64, checked once; CircuitError unless uniform on them."""
        if self._support is None:  # not uniform: checked again, and raises, on every call
            occupied = np.flatnonzero(self.probabilities() > 1e-18)
            if np.max(np.abs(self.amps[occupied] - 1.0 / math.sqrt(len(occupied)))) > 1e-9:
                raise CircuitError("initial state must be uniform over its occupied indices")
            occupied.flags.writeable = False
            self._support = occupied
        return self._support

    def __reduce__(self):  # copies and pickles go through the constructor: read-only, support unchecked
        return (StateVector, (self.n, self.amps))

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, amps={self.amps!r})"


def make_basis_state(n: int, index: int) -> StateVector:
    """|index> on n qubits."""
    if not 0 <= index < 2**n:
        raise CircuitError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, amps)


def sorted_occupied(n: int, occupied: Iterable[int]) -> list[int]:
    """The distinct occupied indices in ascending order; refuses an empty or out-of-range set."""
    occ = sorted(set(occupied))
    if not occ:
        raise CircuitError("occupied set must be nonempty")
    if occ[0] < 0 or occ[-1] >= 2**n:
        raise CircuitError(f"occupied indices must lie in [0, {2**n - 1}]")
    return occ


def make_superposition(n: int, occupied: Iterable[int]) -> StateVector:
    """Uniform superposition with amplitude 1/sqrt(N) on each occupied index.

    N is the number of occupied indices; every other amplitude is exactly 0.
    """
    occ = sorted_occupied(n, occupied)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[occ] = 1.0 / np.sqrt(len(occ))
    return StateVector(n, amps)


def apply_rank1_reflection(state: StateVector, psi: StateVector, phi: float) -> StateVector:
    """Apply -(e^{i phi} - 1)|psi><psi| - I to ``state``.

    This is the prepare-phase-unprepare block of one Grover-Long iteration,
    expressed directly on the prepared state |psi> instead of at gate level.
    Unitary: the norm is preserved.
    """
    if psi.n != state.n:
        raise CircuitError(f"dimension mismatch: psi has n={psi.n}, state has n={state.n}")
    inner = np.vdot(psi.amps, state.amps)
    out = (-(np.exp(1j * phi) - 1.0) * inner) * psi.amps - state.amps
    return StateVector(state.n, out)


def sample_measurement(state: StateVector, rng) -> int:
    """Sample one basis index (see :func:`sample_indices`); ``rng`` is a seed or Generator."""
    return int(sample_indices(state.probabilities(), 1, rng)[0])


def sample_indices(probs: np.ndarray, size: int, rng) -> np.ndarray:
    """Inverse-CDF draws of ``size`` indices into a probability array: the dense reference.

    The first index where cdf >= u > 0 is returned (u = 0 counts as the least
    positive float), so zero-probability indices are never drawn.  A total
    further than NORM_TOL from 1 raises CircuitError.
    """
    gen = np.random.default_rng(rng)
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > NORM_TOL:
        raise CircuitError(f"probabilities sum to {cdf[-1]!r}, not 1 within {NORM_TOL}")
    u = np.maximum(gen.random(size) * cdf[-1], np.finfo(float).smallest_subnormal)
    return np.minimum(cdf.searchsorted(u, side="left"), len(cdf) - 1)
