"""Gate-level circuit IR: multi-controlled elementary gates over n qubits, and their application.

Gate kinds:
    X               bit flip
    H               Hadamard
    RY(theta)       rotation by theta around Y
    PHASE(phi)      diag[1, e^{i phi}] on the target qubit

A gate's controls are one cube ``(mask, value)``, the format the rewrite passes
use too: a control qubit has its bit set in mask and fires on |1> (``+q``, black
dot, bit set in value) or on |0> (``-q``, white dot, bit clear in value).
A circuit's runs (:attr:`Circuit.runs`) are its maximal runs of phase
fragments and of other gates, lexed by ``_scan`` once, on first use.  A phase
oracle from the builders or the passes is made from its cubes instead and emits
its gates (:func:`emit_fragment`) only when ``.ops`` is first read, so a raw
oracle is never lexed and its gates are built only if read.  ``run_circuit``
compiles a circuit into steps and applies them: each run of phase fragments is
one diagonal, consecutive narrow gates (at most NARROW_PAIRS amplitude pairs
each) are split into layers of pairwise disjoint supports, each one gather,
product and scatter, and a wider gate runs on the stride kernel.  The result is
bit-identical to applying the gates one by one.  Circuits are immutable after
construction and safe to share across threads: two threads that lex a circuit,
or emit its ops, at once compute and cache equal ones.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, init=False, slots=True)
class GateOp:
    """A gate on ``target`` that fires on the basis states b with ``(b & mask) == value``."""

    kind: str
    target: int
    mask: int = 0
    value: int = 0
    param: float | None = None

    def __init__(self, kind: str, target: int, mask: int = 0, value: int = 0, param: float | None = None):
        # written out, not generated, so the fields are checked as locals before they are stored
        if kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        if kind in _PARAMETRIC:
            if param is None or not math.isfinite(param):
                raise CircuitError(f"{kind} requires a finite angle parameter")
            if type(param) is not float:  # numpy and bool angles export as a plain float
                param = float(param)
        elif param is not None:
            raise CircuitError(f"{kind} takes no parameter")
        if not type(target) is type(mask) is type(value) is int:
            try:  # numpy and bool ints become int, which has bit_count and exports as digits
                target, mask, value = map(operator.index, (target, mask, value))
            except TypeError:
                raise CircuitError("target, mask and value must be integers") from None
        if target < 0 or mask < 0 or value < 0:
            raise CircuitError("target, mask and value must be non-negative")
        if value & ~mask:
            raise CircuitError("control values must lie inside the control mask")
        if (mask >> target) & 1:
            raise CircuitError(f"target qubit {target} also appears as a control")
        _set_kind(self, kind)
        _set_target(self, target)
        _set_mask(self, mask)
        _set_value(self, value)
        _set_param(self, param)

    def inverse(self) -> "GateOp":
        if self.kind in _PARAMETRIC:
            return GateOp(self.kind, self.target, self.mask, self.value, -self.param)
        return self  # X and H are self-inverse


# the slots' setters, which store past the frozen __setattr__ and cost less than object.__setattr__
_set_kind, _set_target, _set_mask, _set_value, _set_param = (
    getattr(GateOp, name).__set__ for name in ("kind", "target", "mask", "value", "param")
)


@dataclass(frozen=True)
class Circuit:
    n: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n, ops = self.n, tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        if n < 1:
            raise CircuitError(f"qubit count must be >= 1, got {n}")
        for op in ops:
            if op.target >= n or op.mask >> n:
                q = max(op.target, op.mask.bit_length() - 1)
                raise CircuitError(f"qubit {q} out of range for {n}-qubit register")

    @classmethod
    def _from_runs(cls, n: int, runs: tuple[tuple[bool, tuple], ...]) -> Circuit:
        """The circuit of the fragment runs ``runs``, each cube as ``_lexed`` gives it; its ops are emitted when first read."""
        if n < 1:
            raise CircuitError(f"qubit count must be >= 1, got {n}")
        for mask in (frag[0] for _, frags in runs for frag in frags):
            if mask >> n:  # named by the cube's highest fixed qubit, as __post_init__ names a gate
                raise CircuitError(f"qubit {mask.bit_length() - 1} out of range for {n}-qubit register")
        circuit = object.__new__(cls)
        circuit.__dict__.update(n=n, runs=tuple((True, tuple(map(_lexed, frags))) for _, frags in runs))
        return circuit

    def __getattr__(self, name: str):
        # only a circuit made from its runs lacks ops: eq, hash, repr and pickling read them from here
        if name != "ops" or "runs" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops = tuple(op for _, frags in self.runs for frag in frags for op in emit_fragment(frag))
        self.__dict__["ops"] = ops
        return ops

    def __len__(self) -> int:
        return len(self.__dict__.get("ops") or _gate_shapes(self))  # made from cubes: counted, not emitted

    @functools.cached_property
    def runs(self) -> tuple[tuple[bool, tuple], ...]:
        """``_scan(self.ops)``: lexed on first use, or the cubes a circuit was made from."""
        return _scan(self.ops)


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
    gate mixes those two views, so nothing is allocated per basis state.  The
    new target=0 slice is computed before either slice is written.
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
    a0, a1 = view[lo], view[hi]
    new_lo = m[0, 0] * a0 + m[0, 1] * a1
    view[hi] = m[1, 0] * a0 + m[1, 1] * a1
    view[lo] = new_lo


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


def _scan(ops: tuple[GateOp, ...]) -> tuple[tuple[bool, tuple], ...]:
    """Lex the op list into maximal runs ``(is_frag, payloads)`` of _Frags or of other GateOps.

    The one place an X-PHASE-X triple (or a lone PHASE) is recognized as a
    phase fragment; the rewrite passes and :func:`run_circuit` read it through
    :attr:`Circuit.runs`.
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
    return tuple((is_frag, tuple(payload for _, payload in run)) for is_frag, run in runs)


def _lexed(frag: _Frag) -> _Frag:
    """The fragment ``_scan`` reads from ``emit_fragment(frag)``.

    conj stays "ctrl" only when the target bit is clear (so X gates are
    emitted) and another qubit is fixed (so they carry controls).  A
    sequence of emitted fragments alone lexes fragment by fragment, so a
    circuit of fragments alone is made from its runs with this rule.
    """
    mask, value, phi, conj = frag
    bit = mask & -mask
    if conj == "ctrl" and (value & bit or mask == bit):
        return (mask, value, phi, "bare")
    return frag


def emit_fragment(frag: _Frag) -> tuple[GateOp, ...]:
    """The one cube-to-gates emitter, shared by the oracle builders and the passes.

    The target is the lowest fixed qubit; the other fixed qubits are its
    control cube.  A target fixed at 0 gets its PHASE conjugated by X gates
    shaped by ``conj``.
    """
    mask, value, phi, conj = frag
    if mask <= 0:
        raise AssertionError("cannot emit a fragment with no fixed qubit")
    bit = mask & -mask
    target = bit.bit_length() - 1
    ctrl_mask, ctrl_value = mask ^ bit, value & ~bit
    phase = GateOp("PHASE", target, ctrl_mask, ctrl_value, phi)
    if value & bit:
        return (phase,)
    flip = GateOp("X", target, ctrl_mask, ctrl_value) if conj == "ctrl" else GateOp("X", target)
    return (flip, phase, flip)


def _gate_shapes(circuit: Circuit) -> list[tuple[int, bool]]:
    """(controls, is PHASE) of each gate: per cube as emitted while a circuit made from cubes has no ops read."""
    ops = circuit.__dict__.get("ops")  # else per op: a lexed lone PHASE may target any of its fixed qubits
    cubes = [frag for _, frags in circuit.runs for frag in frags] if ops is None else ()
    shapes = [(op.mask.bit_count(), op.kind == "PHASE") for op in ops or ()]
    for mask, value, _, conj in cubes:
        shapes.append((mask.bit_count() - 1, True))
        if not value & mask & -mask:  # target fixed at 0: an X on each side
            shapes += [(mask.bit_count() - 1 if conj == "ctrl" else 0, False)] * 2
    return shapes


# --- compiled steps ---------------------------------------------------------
#
# run_circuit lowers a circuit into steps, each a function that updates the
# amplitude array in place: a phase run with its factors worked out, a layer of
# narrow gates, or one wide gate on the stride kernel.  Every step performs the
# float operations of gate-by-gate application on each amplitude, in the same
# order, so the result is bit-identical to it.

# A gate that mixes at most this many amplitude pairs is narrow and joins a
# layer.  On one core of a 2-core Xeon the stride kernel, which needs no index
# arrays, costs about 20 us a gate up to a few hundred pairs,
# and a layer about 3 us a gate plus 40-80 ns a pair listed, sorted and
# gathered.  On a 2^20 register, where gathers miss the cache, a preparation
# tree ran about as fast in layers of up to 64-pair gates as on the kernel,
# and slower with 128-pair gates in its layers.
NARROW_PAIRS = 2**6
# Most pairs one batch of consecutive narrow gates lists at once: the bound on
# the index arrays a one-shot run holds.
BATCH_PAIRS = 2**12


class CompiledCircuit:
    """Circuits lowered once, each from its own runs, into the steps :func:`run_circuit` applies in turn."""

    __slots__ = ("n", "steps", "gates")

    def __init__(self, circuit: Circuit, *more: Circuit):
        self.n = circuit.n  # every part is taken to have circuit.n qubits
        self.steps = tuple(step for part in (circuit, *more) for step in _steps(part))
        self.gates = sum(map(len, (circuit, *more)))  # op count of the source circuits

    def __len__(self) -> int:
        return self.gates


def _steps(circuit: Circuit):
    """The steps of ``circuit`` in application order, lowered as they are asked for."""
    for is_frag, payloads in circuit.runs:
        yield from (_phase_steps if is_frag else _gate_steps)(circuit.n, payloads)


def _phase_steps(n: int, frags: tuple[_Frag, ...]):
    """Multiply each fragment's cube by e^{i phi}, in fragment order.

    Consecutive single-state cubes are one ``np.multiply.at`` scatter (repeated
    indices apply in sequence), any other cube one multiply on its view.  X
    conjugation only moves amplitudes, so this is bit-identical to gate by gate.
    """
    full = (1 << n) - 1
    for single, group in itertools.groupby(frags, key=lambda frag: frag[0] == full):
        if single:
            _, values, phis, _ = zip(*group)
            yield functools.partial(_scatter_phases, np.array(values), np.exp(1j * np.array(phis)))
            continue
        for mask, value, phi, _ in group:
            yield functools.partial(_phase_cube, tuple(_cube_index(n, mask, value)), np.exp(1j * phi))


def _scatter_phases(indices: np.ndarray, factors: np.ndarray, amps: np.ndarray) -> None:
    np.multiply.at(amps, indices, factors)


def _phase_cube(sel: tuple, factor: complex, amps: np.ndarray) -> None:
    amps.reshape((2,) * len(sel))[sel] *= factor


def _gate_steps(n: int, ops: tuple[GateOp, ...]):
    """Wide gates one by one on the stride kernel, narrow ones in layers.

    Consecutive narrow gates are lowered in batches of at most BATCH_PAIRS pairs.
    """
    batch: list[GateOp] = []
    pairs = 0
    for op in ops:
        width = 1 << (n - 1 - op.mask.bit_count())
        narrow = width <= NARROW_PAIRS
        if batch and (not narrow or pairs + width > BATCH_PAIRS):
            yield from _layers(n, batch)
            batch, pairs = [], 0
        if narrow:
            batch.append(op)
            pairs += width
        else:
            yield functools.partial(_apply_gate_inplace, n=n, gate=op)
    if batch:
        yield from _layers(n, batch)


def _layers(n: int, ops: list[GateOp]):
    """Split consecutive gates into layers with pairwise disjoint supports.

    Every pair a gate mixes is listed by its two indices, ``lo`` with the target
    bit clear and ``hi`` with it set.  One stable sort of all the indices finds,
    for each gate, the last earlier gate that touches one of its amplitudes; a
    layer grows while the next gate touches none of the layer's amplitudes, so
    its gates commute and may be applied at once.  Each layer is one gather,
    product and scatter.
    """
    lo, counts = _pair_indices(n, ops)
    hi = lo + np.repeat(np.array([1 << op.target for op in ops]), counts)

    touched = np.column_stack((lo, hi)).ravel()  # in gate order
    order = np.argsort(touched, kind="stable")  # so equal indices keep gate order
    touched, by = touched[order], np.repeat(np.arange(len(ops)), 2 * counts)[order]
    shared = touched[1:] == touched[:-1]
    last = np.full(len(ops), -1)
    np.maximum.at(last, by[1:][shared], by[:-1][shared])
    bounds = [0]
    for g, earlier in enumerate(last.tolist()):
        if earlier >= bounds[-1]:
            bounds.append(g)
    bounds.append(len(ops))

    offsets = [0, *np.cumsum(counts).tolist()]
    matrices: dict = {}
    for a, b in zip(bounds, bounds[1:]):
        m = np.array([_entries(op, matrices) for op in ops[a:b]]).T
        pairs = slice(offsets[a], offsets[b])
        yield functools.partial(_apply_layer, lo[pairs], hi[pairs], np.repeat(m, counts[a:b], axis=1))


def _pair_indices(n: int, ops: list[GateOp]) -> tuple[np.ndarray, np.ndarray]:
    """The ``lo`` index of every pair each gate mixes, gate after gate, and each gate's pair count.

    A gate's free bits are those neither controlled nor its target.  Its pair
    of rank r has the control value plus the free bits where r, read in
    binary, has its digits.
    """
    free = [[1 << q for q in range(n) if not (op.mask | 1 << op.target) >> q & 1] for op in ops]
    counts = np.array([1 << len(bits) for bits in free])
    lo = np.repeat([op.value for op in ops], counts)
    rank = np.arange(lo.size) - np.repeat(np.cumsum(counts) - counts, counts)
    for j in range(max(map(len, free))):
        lo += (rank >> j) % 2 * np.repeat([bits[j] if j < len(bits) else 0 for bits in free], counts)
    return lo, counts


def _entries(op: GateOp, matrices: dict) -> np.ndarray:
    """``gate_matrix(op)`` flattened to (m00, m01, m10, m11), worked out once per kind and angle."""
    key = (op.kind, None if op.param is None else op.param.hex())  # hex tells -0.0 from 0.0
    if key not in matrices:
        matrices[key] = gate_matrix(op).ravel()
    return matrices[key]


def _apply_layer(lo: np.ndarray, hi: np.ndarray, m: np.ndarray, amps: np.ndarray) -> None:
    """Mix each pair (lo, hi) by its own gate's matrix, a row of ``m`` per entry, as the stride kernel does."""
    a0, a1 = amps[lo], amps[hi]
    amps[lo] = m[0] * a0 + m[1] * a1
    amps[hi] = m[2] * a0 + m[3] * a1


def run_circuit(circuit: Circuit | CompiledCircuit, state: StateVector) -> StateVector:
    """Apply the steps of a circuit to a copy of ``state``.

    A :class:`Circuit` is lowered while it runs, so at most one batch of narrow
    gates' index arrays is held at a time; a :class:`CompiledCircuit` reuses its steps.
    """
    if circuit.n != state.n:
        raise CircuitError(f"dimension mismatch: circuit has n={circuit.n}, state has n={state.n}")
    steps = circuit.steps if isinstance(circuit, CompiledCircuit) else _steps(circuit)
    amps = state.amps.copy()
    for step in steps:
        step(amps)
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
