"""Gate-level circuit IR: multi-controlled elementary gates over n qubits, and their application.

Gate kinds:
    X               bit flip
    H               Hadamard
    RY(theta)       rotation by theta around Y
    PHASE(phi)      diag[1, e^{i phi}] on the target qubit

Control polarity is first-class: each control fires on |1> (``+q``, black dot)
or on |0> (``-q``, white dot).  Circuits are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CircuitError, ParseError
from .statevector import StateVector

GATE_KINDS = ("X", "H", "RY", "PHASE")
_PARAMETRIC = ("RY", "PHASE")

DENSE_MAX_QUBITS = 12


class Control(NamedTuple):
    qubit: int
    value: int  # 1 = fires on |1> (black dot), 0 = fires on |0> (white dot)


def on_one(qubit: int) -> Control:
    return Control(qubit, 1)


def on_zero(qubit: int) -> Control:
    return Control(qubit, 0)


@dataclass(frozen=True)
class GateOp:
    kind: str
    target: int
    controls: tuple[Control, ...] = ()
    param: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        needs_param = self.kind in _PARAMETRIC
        if needs_param and (self.param is None or not math.isfinite(self.param)):
            raise CircuitError(f"{self.kind} requires a finite angle parameter")
        if not needs_param and self.param is not None:
            raise CircuitError(f"{self.kind} takes no parameter")
        # int-valued Controls are kept as given, so gates can share one tuple
        ctrls = tuple(self.controls)
        if not all(type(c) is Control and type(c.qubit) is type(c.value) is int for c in ctrls):
            ctrls = tuple(Control(int(q), int(v)) for q, v in ctrls)
        object.__setattr__(self, "controls", ctrls)
        qubits = {c.qubit for c in ctrls}
        if self.target in qubits:
            raise CircuitError(f"target qubit {self.target} also appears as a control")
        if len(qubits) != len(ctrls):
            raise CircuitError("control qubits must be pairwise distinct")
        if not {c.value for c in ctrls} <= {0, 1}:
            raise CircuitError("control values must be 0 or 1")

    def inverse(self) -> "GateOp":
        if self.kind in _PARAMETRIC:
            return GateOp(self.kind, self.target, self.controls, -self.param)
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
            _validate_gate_qubits(self.n, op)

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


def _validate_gate_qubits(n: int, gate: GateOp) -> None:
    """Range check; GateOp itself enforces the target/control rules."""
    for q in (gate.target, *(c.qubit for c in gate.controls)):
        if not 0 <= q < n:
            raise CircuitError(f"qubit {q} out of range for {n}-qubit register")


def _apply_gate_inplace(amps: np.ndarray, n: int, gate: GateOp) -> None:
    """Apply a validated gate to a C-contiguous (2**n,) array in place.

    On a (2,)*n view with qubit q on axis n-1-q, each control indexes its axis
    at its value and the target axis is sliced at 0 and at 1: the gate mixes
    those two views, so nothing is allocated per basis state.
    """
    view = amps.reshape((2,) * n)
    sel = [slice(None)] * n
    for q, v in gate.controls:
        sel[n - 1 - q] = v
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
    _validate_gate_qubits(n, op)
    dim = 2**n
    m = gate_matrix(op)
    u = np.zeros((dim, dim), dtype=np.complex128)
    for b in range(dim):
        if all(((b >> c.qubit) & 1) == c.value for c in op.controls):
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
# Parameters round-trip losslessly via repr().

_LINE_RE = re.compile(
    r"^(?P<name>[A-Z]+)(?:\((?P<param>[^)]*)\))?\s+(?P<target>\d+)\s*\|\s*controls:(?P<ctrls>.*)$"
)
_CTRL_RE = re.compile(r"^([+-])q(\d+)$")


def export_circuit(circuit: Circuit) -> str:
    lines = [f"qubits: {circuit.n}"]
    for op in circuit.ops:
        name = op.kind if op.param is None else f"{op.kind}({op.param!r})"
        ctrls = " ".join(f"{'+' if c.value else '-'}q{c.qubit}" for c in op.controls)
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
            controls.append(Control(int(cm.group(2)), 1 if cm.group(1) == "+" else 0))
        try:
            ops.append(GateOp(name, int(m.group("target")), tuple(controls), param))
        except CircuitError as exc:
            raise ParseError(str(exc), lineno) from None
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
        controls = tuple(Control(q, int(gen.integers(2))) for q in others[:n_ctrl])
        param = float(gen.uniform(-2 * np.pi, 2 * np.pi)) if kind in _PARAMETRIC else None
        ops.append(GateOp(kind, target, controls, param))
    return Circuit(n, tuple(ops))
