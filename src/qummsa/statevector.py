"""Dense complex state vectors with gate application and measurement sampling.

Qubit convention: q[0] is the least-significant bit of the basis index, so
basis state ``|b_{n-1} ... b_1 b_0>`` has index ``sum(b_k * 2**k)``.
Amplitudes are complex128 throughout.  No operation renormalizes silently;
drift is something callers assert on, not something we hide.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import CircuitError

NORM_TOL = 1e-9


class StateVector:
    """An n-qubit register as a length-2**n complex amplitude array."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        if n < 1:
            raise CircuitError(f"qubit count must be >= 1, got {n}")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (2**n,):
            raise CircuitError(
                f"amplitude array has shape {amps.shape}, expected ({2**n},)"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise CircuitError("amplitudes must be finite")
        self.n = n
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, amps={self.amps!r})"


def make_basis_state(n: int, index: int) -> StateVector:
    """|index> on n qubits."""
    if not 0 <= index < 2**n:
        raise CircuitError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, amps)


def make_superposition(n: int, occupied: Iterable[int]) -> StateVector:
    """Uniform superposition with amplitude 1/sqrt(N) on each occupied index.

    N is the number of occupied indices; every other amplitude is exactly 0.
    """
    occ = sorted(set(occupied))
    if not occ:
        raise CircuitError("occupied set must be nonempty")
    if occ[0] < 0 or occ[-1] >= 2**n:
        raise CircuitError(f"occupied indices must lie in [0, {2**n - 1}]")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[occ] = 1.0 / np.sqrt(len(occ))
    return StateVector(n, amps)


def apply_gate(state: StateVector, gate) -> StateVector:
    """Apply a (multi-)controlled elementary gate, returning a new state."""
    out = state.amps.copy()
    _apply_gate_inplace(out, state.n, gate)
    return StateVector(state.n, out)


def _apply_gate_inplace(amps: np.ndarray, n: int, gate) -> None:
    """In-place gate application on a (2**n,) or (2**n, k) array.

    The second axis, when present, is carried along unchanged (used to lower
    whole circuits to dense matrices column by column).
    """
    from .circuit import gate_matrix  # local import to avoid a cycle

    _validate_gate_qubits(n, gate)
    t = gate.target
    idx = np.arange(2**n)
    sel = np.ones(2**n, dtype=bool)
    for ctrl in gate.controls:
        sel &= ((idx >> ctrl.qubit) & 1) == ctrl.value

    if gate.kind == "PHASE":
        # diagonal: scale the target=1 half of the selected subspace
        hit = sel & (((idx >> t) & 1) == 1)
        amps[hit] *= np.exp(1j * gate.param)
        return

    lo = idx[sel & (((idx >> t) & 1) == 0)]
    hi = lo | (1 << t)
    m = gate_matrix(gate)
    a0 = amps[lo].copy()
    a1 = amps[hi].copy()
    amps[lo] = m[0, 0] * a0 + m[0, 1] * a1
    amps[hi] = m[1, 0] * a0 + m[1, 1] * a1


def _validate_gate_qubits(n: int, gate) -> None:
    qubits = [gate.target] + [c.qubit for c in gate.controls]
    for q in qubits:
        if not 0 <= q < n:
            raise CircuitError(f"qubit {q} out of range for {n}-qubit register")
    ctrl_qubits = [c.qubit for c in gate.controls]
    if gate.target in ctrl_qubits:
        raise CircuitError(f"target qubit {gate.target} also appears as a control")
    if len(set(ctrl_qubits)) != len(ctrl_qubits):
        raise CircuitError("control qubits must be pairwise distinct")


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


def measure_distribution(state: StateVector) -> np.ndarray:
    """Born-rule outcome probabilities, p_i = |amp_i|^2."""
    return state.probabilities()


def sample_measurement(state: StateVector, rng) -> int:
    """Sample one basis index (see :func:`sample_indices`); ``rng`` is a seed or Generator."""
    return int(sample_measurements(state, 1, rng)[0])


def sample_measurements(state: StateVector, size: int, rng) -> np.ndarray:
    """Vectorized version of sample_measurement; deterministic for a fixed seed."""
    return sample_indices(state.probabilities(), size, rng)


def sample_indices(probs: np.ndarray, size: int, rng) -> np.ndarray:
    """Inverse-CDF draws of ``size`` indices into a probability array.

    The first index where cdf >= u is returned, so zero-probability indices
    are never drawn.  A total further than NORM_TOL from 1 raises CircuitError.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > NORM_TOL:
        raise CircuitError(f"probabilities sum to {cdf[-1]!r}, not 1 within {NORM_TOL}")
    u = gen.random(size) * cdf[-1]
    return np.searchsorted(cdf, u, side="left").clip(0, len(cdf) - 1)


def canonical_global_phase(state: StateVector, tol: float = 1e-12) -> StateVector:
    """Rotate the global phase so the first nonzero amplitude is real-positive."""
    for a in state.amps:
        if abs(a) > tol:
            return StateVector(state.n, state.amps * (abs(a) / a))
    return state.copy()


def states_equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    if a.n != b.n:
        return False
    ca = canonical_global_phase(a)
    cb = canonical_global_phase(b)
    return bool(np.max(np.abs(ca.amps - cb.amps)) < tol)
