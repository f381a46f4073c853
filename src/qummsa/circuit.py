"""Gate-level circuit IR: multi-controlled elementary gates over n qubits, and their application.

Gate kinds:
    X               bit flip
    H               Hadamard
    RY(theta)       rotation by theta around Y
    PHASE(phi)      diag[1, e^{i phi}] on the target qubit

A gate's controls are one cube ``(mask, value)``, the format the rewrite passes
use too: a control qubit has its bit set in mask and fires on |1> (``+q``, black
dot, bit set in value) or on |0> (``-q``, white dot, bit clear in value).
``run_circuit`` applies each maximal run of phase fragments (``_scan``) as one
diagonal and every other gate through the stride kernel.
Circuits are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
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


def _cube_index(n: int, mask: int, value: int) -> list:
    """Basic index of the cube ``(b & mask) == value`` on a (2,)*n view, qubit q on axis n-1-q."""
    sel: list = [slice(None)] * n
    for q in range(n):
        if (mask >> q) & 1:
            sel[n - 1 - q] = (value >> q) & 1
    return sel


def _apply_gate_inplace(amps: np.ndarray, n: int, gate: GateOp) -> None:
    """Apply a validated gate to a C-contiguous (2**n,) array in place.

    On the control cube's view the target axis is sliced at 0 and at 1: the
    gate mixes those two views, so nothing is allocated per basis state.
    """
    view = amps.reshape((2,) * n)
    sel = _cube_index(n, gate.mask, gate.value)
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


# --- phase fragments --------------------------------------------------------
#
# A fragment marks every basis state b with (b & mask) == value, phasing it by
# e^{i phi}: it is its phase gate's control cube with the target bit fixed too.
# conj is how an even-parity fragment wraps its phase gate in X gates: "ctrl"
# (X carries the same controls) or "bare" (plain X).
_Frag = tuple[int, int, float, str]  # (mask, value, phi, conj)


def _scan(ops: tuple[GateOp, ...]) -> list[tuple[bool, list]]:
    """Lex the op list into maximal runs ``(is_frag, payloads)`` of _Frags or of other GateOps.

    The one place an X-PHASE-X triple (or a lone PHASE) is recognized as a
    phase fragment; the rewrite passes and :func:`run_circuit` both read it.
    """
    items: list[tuple[bool, object]] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.kind == "X" and i + 2 < len(ops):
            mid, post = ops[i + 1], ops[i + 2]
            if (mid.kind == "PHASE" and post.kind == "X" and mid.target == post.target == op.target
                    and (post.mask, post.value) == (op.mask, op.value)
                    and ((op.mask, op.value) == (mid.mask, mid.value) or not op.mask)):
                conj = "ctrl" if op.mask else "bare"
                items.append((True, (mid.mask | 1 << op.target, mid.value, mid.param, conj)))
                i += 3
                continue
        if op.kind == "PHASE":
            bit = 1 << op.target
            items.append((True, (op.mask | bit, op.value | bit, op.param, "bare")))
        else:
            items.append((False, op))
        i += 1
    runs = itertools.groupby(items, key=lambda item: item[0])
    return [(is_frag, [payload for _, payload in run]) for is_frag, run in runs]


def _apply_phase_run(amps: np.ndarray, n: int, frags: list[_Frag]) -> None:
    """Multiply each fragment's cube by e^{i phi} in place, in fragment order.

    Consecutive single-state cubes are one ``np.multiply.at`` scatter (repeated
    indices apply in sequence), any other cube one multiply on its view.  X
    conjugation only moves amplitudes, so this is bit-identical to gate by gate.
    """
    view = amps.reshape((2,) * n)
    full = (1 << n) - 1
    for single, group in itertools.groupby(frags, key=lambda frag: frag[0] == full):
        if single:
            _, values, phis, _ = zip(*group)
            np.multiply.at(amps, list(values), np.exp(1j * np.array(phis)))
            continue
        for mask, value, phi, _ in group:
            view[tuple(_cube_index(n, mask, value))] *= np.exp(1j * phi)


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply each run of phase fragments as one diagonal, every other gate by the stride kernel."""
    if circuit.n != state.n:
        raise CircuitError(f"dimension mismatch: circuit has n={circuit.n}, state has n={state.n}")
    amps = state.amps.copy()
    for is_frag, payloads in _scan(circuit.ops):
        if is_frag:
            _apply_phase_run(amps, circuit.n, payloads)
            continue
        for op in payloads:
            _apply_gate_inplace(amps, circuit.n, op)
    return StateVector(circuit.n, amps)


def invert_circuit(circuit: Circuit) -> Circuit:
    return Circuit(circuit.n, tuple(op.inverse() for op in reversed(circuit.ops)))


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


def _qubit_number(digits: str, lineno: int) -> int:
    """int() of a digit string, refused first if it is longer than any qubit count."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(QC_MAX_QUBITS)):
        raise ParseError(f"{len(digits)}-digit number is out of range", lineno)
    return int(digits)


def export_circuit(circuit: Circuit) -> str:
    lines = [f"qubits: {circuit.n}"]
    for op in circuit.ops:
        name = op.kind if op.param is None else f"{op.kind}({op.param!r})"
        ctrls = " ".join(f"{'+' if (op.value >> q) & 1 else '-'}q{q}"
                         for q in range(op.mask.bit_length()) if (op.mask >> q) & 1)
        lines.append(f"{name} {op.target} | controls:" + (f" {ctrls}" if ctrls else ""))
    return "\n".join(lines)


def parse_circuit(text: str) -> Circuit:
    header_seen = False
    n = 0
    ops: list[GateOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            m = re.match(r"^qubits:\s*(\d+)$", line)
            if not m:
                raise ParseError("expected header 'qubits: <n>'", lineno)
            n = _qubit_number(m.group(1), lineno)
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
            controls.append((_qubit_number(cm.group(2), lineno), cm.group(1) == "+"))
        target = _qubit_number(m.group("target"), lineno)
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
