"""Circuit builders and state comparisons that only the tests use."""

import numpy as np

from qummsa.circuit import GATE_KINDS, Circuit, GateOp, _apply_gate_inplace
from qummsa.errors import CircuitError
from qummsa.statevector import StateVector


def concat(*circuits: Circuit) -> Circuit:
    n = circuits[0].n
    if any(c.n != n for c in circuits):
        raise CircuitError("cannot concatenate circuits with different qubit counts")
    ops: list[GateOp] = []
    for c in circuits:
        ops.extend(c.ops)
    return Circuit(n, tuple(ops))


def random_circuit(n: int, n_gates: int, rng) -> Circuit:
    """Arbitrary valid circuit; used by round-trip and norm-preservation tests."""
    gen = np.random.default_rng(rng)
    ops = []
    for _ in range(n_gates):
        kind = GATE_KINDS[gen.integers(len(GATE_KINDS))]
        target = int(gen.integers(n))
        others = [q for q in range(n) if q != target]
        gen.shuffle(others)
        n_ctrl = int(gen.integers(0, len(others) + 1))
        mask = sum(1 << q for q in others[:n_ctrl])
        value = sum(int(gen.integers(2)) << q for q in others[:n_ctrl])
        param = float(gen.uniform(-2 * np.pi, 2 * np.pi)) if kind in ("RY", "PHASE") else None
        ops.append(GateOp(kind, target, mask, value, param))
    return Circuit(n, tuple(ops))


def run_gate_by_gate(circuit: Circuit, state: StateVector) -> StateVector:
    """The circuit applied one op at a time through the stride kernel."""
    amps = state.amps.copy()
    for op in circuit.ops:
        _apply_gate_inplace(amps, circuit.n, op)
    return StateVector(circuit.n, amps)


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
