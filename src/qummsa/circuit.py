"""Gate-level circuit IR: multi-controlled elementary gates over n qubits, and their application.

Gate kinds:
    X               bit flip
    H               Hadamard
    RY(theta)       rotation by theta around Y
    PHASE(phi)      diag[1, e^{i phi}] on the target qubit

A gate's controls are one cube ``(mask, value)``, the format the rewrite passes
use too: a control qubit has its bit set in mask and fires on |1> (``+q``, black
dot, bit set in value) or on |0> (``-q``, white dot, bit clear in value).
Circuits are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CircuitError, ParseError
from .statevector import StateVector

GATE_KINDS = ("X", "H", "RY", "PHASE")
_PARAMETRIC = ("RY", "PHASE")

DENSE_MAX_QUBITS = 12


@dataclass(frozen=True)
class GateOp:
    """A gate on ``target`` that fires on the basis states b with ``(b & mask) == value``."""

    kind: str
    target: int
    mask: int = 0
    value: int = 0
    param: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        needs_param = self.kind in _PARAMETRIC
        if needs_param and (self.param is None or not math.isfinite(self.param)):
            raise CircuitError(f"{self.kind} requires a finite angle parameter")
        if not needs_param and self.param is not None:
            raise CircuitError(f"{self.kind} takes no parameter")
        try:  # numpy and bool ints become int, which has bit_count and exports as digits
            target, mask, value = map(operator.index, (self.target, self.mask, self.value))
        except TypeError:
            raise CircuitError("target, mask and value must be integers") from None
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "value", value)
        if min(target, mask, value) < 0:
            raise CircuitError("target, mask and value must be non-negative")
        if value & ~mask:
            raise CircuitError("control values must lie inside the control mask")
        if (mask >> target) & 1:
            raise CircuitError(f"target qubit {target} also appears as a control")

    def inverse(self) -> "GateOp":
        if self.kind in _PARAMETRIC:
            return GateOp(self.kind, self.target, self.mask, self.value, -self.param)
        return self  # X and H are self-inverse


@dataclass(frozen=True)
class Circuit:
    n: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n < 1:
            raise CircuitError(f"qubit count must be >= 1, got {self.n}")
        for op in self.ops:
            if op.target >= self.n or op.mask >> self.n:
                q = max(op.target, op.mask.bit_length() - 1)
                raise CircuitError(f"qubit {q} out of range for {self.n}-qubit register")

    def __len__(self) -> int:
        return len(self.ops)


def gate_matrix(op: GateOp) -> np.ndarray:
    """2x2 matrix of the uncontrolled base gate."""
    if op.kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if op.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    if op.kind == "RY":
        c, s = np.cos(op.param / 2.0), np.sin(op.param / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if op.kind == "PHASE":
        return np.array([[1, 0], [0, np.exp(1j * op.param)]], dtype=np.complex128)
    raise CircuitError(f"unknown gate kind {op.kind!r}")


def _apply_gate_inplace(amps: np.ndarray, n: int, gate: GateOp) -> None:
    """Apply a validated gate to a C-contiguous (2**n,) array in place.

    On a (2,)*n view with qubit q on axis n-1-q, each control indexes its axis
    at its bit of the value and the target axis is sliced at 0 and at 1: the
    gate mixes those two views, so nothing is allocated per basis state.
    """
    view = amps.reshape((2,) * n)
    sel = [slice(None)] * n
    for q in range(n):
        if (gate.mask >> q) & 1:
            sel[n - 1 - q] = (gate.value >> q) & 1
    t = n - 1 - gate.target
    sel[t] = slice(1, 2)
    hi = tuple(sel)
    if gate.kind == "PHASE":  # diagonal: scale the target=1 slice
        view[hi] *= np.exp(1j * gate.param)
        return
    sel[t] = slice(0, 1)
    lo = tuple(sel)
    m = gate_matrix(gate)
    a0 = view[lo].copy()
    a1 = view[hi].copy()
    view[lo] = m[0, 0] * a0 + m[0, 1] * a1
    view[hi] = m[1, 0] * a0 + m[1, 1] * a1


def gate_to_matrix(op: GateOp, n: int) -> np.ndarray:
    """Dense 2**n unitary of a controlled gate, built state by state.

    Deliberately written as a per-basis-state enumeration, independent of the
    vectorized application path, so the two can check each other.
    """
    Circuit(n, (op,))  # the range check
    dim = 2**n
    m = gate_matrix(op)
    u = np.zeros((dim, dim), dtype=np.complex128)
    for b in range(dim):
        if (b & op.mask) == op.value:
            tb = (b >> op.target) & 1
            flipped = b ^ (1 << op.target)
            u[b, b] = m[tb, tb]
            u[flipped, b] = m[1 - tb, tb]
        else:
            u[b, b] = 1.0
    return u


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Product of the per-gate unitaries in application order (dense lowering)."""
    if circuit.n > DENSE_MAX_QUBITS:
        raise CircuitError(
            f"dense lowering limited to {DENSE_MAX_QUBITS} qubits, got {circuit.n}"
        )
    u = np.eye(2**circuit.n, dtype=np.complex128)
    for op in circuit.ops:
        u = gate_to_matrix(op, circuit.n) @ u
    return u


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the circuit gate by gate; Circuit already validated every op."""
    if circuit.n != state.n:
        raise CircuitError(
            f"dimension mismatch: circuit has n={circuit.n}, state has n={state.n}"
        )
    amps = state.amps.copy()
    for op in circuit.ops:
        _apply_gate_inplace(amps, circuit.n, op)
    return StateVector(circuit.n, amps)


def invert_circuit(circuit: Circuit) -> Circuit:
    return Circuit(circuit.n, tuple(op.inverse() for op in reversed(circuit.ops)))


def concat(*circuits: Circuit) -> Circuit:
    n = circuits[0].n
    if any(c.n != n for c in circuits):
        raise CircuitError("cannot concatenate circuits with different qubit counts")
    ops: list[GateOp] = []
    for c in circuits:
        ops.extend(c.ops)
    return Circuit(n, tuple(ops))


# --- textual format (.qc) ---------------------------------------------------
#
#   qubits: 2
#   PHASE(3.141592653589793) 0 | controls: -q1
#   X 0 | controls:
#
# One gate per line; '+' controls fire on |1>, '-' controls fire on |0>.
# Export lists controls in ascending qubit order; parse takes any order.
# Parameters round-trip losslessly via repr().

_LINE_RE = re.compile(
    r"^(?P<name>[A-Z]+)(?:\((?P<param>[^)]*)\))?\s+(?P<target>\d+)\s*\|\s*controls:(?P<ctrls>.*)$"
)
_CTRL_RE = re.compile(r"^([+-])q(\d+)$")

# Largest register a .qc header may declare, so a control mask parsed from
# the text (a Python int of up to this many bits) stays at most 128 KiB.
QC_MAX_QUBITS = 2**20


def export_circuit(circuit: Circuit) -> str:
    lines = [f"qubits: {circuit.n}"]
    for op in circuit.ops:
        name = op.kind if op.param is None else f"{op.kind}({op.param!r})"
        ctrls = " ".join(f"{'+' if (op.value >> q) & 1 else '-'}q{q}"
                         for q in range(op.mask.bit_length()) if (op.mask >> q) & 1)
        lines.append(f"{name} {op.target} | controls:" + (f" {ctrls}" if ctrls else ""))
    return "\n".join(lines)


def parse_circuit(text: str) -> Circuit:
    lines = text.splitlines()
    header_seen = False
    n = 0
    ops: list[GateOp] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            m = re.match(r"^qubits:\s*(\d+)$", line)
            if not m:
                raise ParseError("expected header 'qubits: <n>'", lineno)
            n = int(m.group(1))
            if n > QC_MAX_QUBITS:
                raise ParseError(f"a circuit has at most {QC_MAX_QUBITS} qubits, got {n}", lineno)
            header_seen = True
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ParseError(f"unrecognized gate line {line!r}", lineno)
        name = m.group("name")
        if name not in GATE_KINDS:
            raise ParseError(f"unknown gate {name!r}", lineno)
        param = None
        if m.group("param") is not None:
            try:
                param = float(m.group("param"))
            except ValueError:
                raise ParseError(f"bad parameter {m.group('param')!r}", lineno) from None
        controls = []
        for tok in m.group("ctrls").split():
            cm = _CTRL_RE.match(tok)
            if not cm:
                raise ParseError(f"bad control token {tok!r}", lineno)
            controls.append((int(cm.group(2)), cm.group(1) == "+"))
        target = int(m.group("target"))
        for q in (target, *(q for q, _ in controls)):  # before any 1 << q is built
            if q >= n:
                raise ParseError(f"qubit {q} out of range for {n}-qubit register", lineno)
        mask = value = 0
        for q, plus in controls:
            mask |= 1 << q
            value |= plus << q
        try:
            ops.append(GateOp(name, target, mask, value, param))
        except CircuitError as exc:
            raise ParseError(str(exc), lineno) from None
        if mask.bit_count() != len(controls):
            raise ParseError("control qubits must be pairwise distinct", lineno)
    if not header_seen:
        raise ParseError("missing 'qubits: <n>' header")
    try:
        return Circuit(n, tuple(ops))
    except CircuitError as exc:
        raise ParseError(str(exc)) from None


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
        param = float(gen.uniform(-2 * np.pi, 2 * np.pi)) if kind in _PARAMETRIC else None
        ops.append(GateOp(kind, target, mask, value, param))
    return Circuit(n, tuple(ops))
