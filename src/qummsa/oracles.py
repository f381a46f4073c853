"""Construction of the search circuits: preparation W, phase shift I0, oracles O.

Every oracle built here is a diagonal unitary whose entries are e^{i phi} on
the marked basis indices and 1 elsewhere.  The target of each phase gate is
q[0]; marked indices with bit 0 set get a bare controlled PHASE, even indices
get the PHASE conjugated by controlled X gates (the form the simplify passes
later reduce).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Control, GateOp, concat, on_one, on_zero
from .errors import CircuitError


@dataclass(frozen=True)
class MarkedSet:
    """Basis indices that receive the oracle phase."""

    n: int
    V: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "V", frozenset(self.V))
        if not self.V:
            raise CircuitError("marked set must be nonempty")
        if min(self.V) < 0 or max(self.V) >= 2**self.n:
            raise CircuitError(f"marked indices must lie in [0, {2**self.n - 1}]")

    @property
    def size(self) -> int:
        return len(self.V)


@dataclass(frozen=True)
class ThresholdPredicate:
    """Comparison predicate: min-search marks values <= d0, max-search >= d0."""

    mode: str  # "min" | "max"
    d0: int
    n: int

    def __post_init__(self):
        if self.mode not in ("min", "max"):
            raise CircuitError(f"mode must be 'min' or 'max', got {self.mode!r}")
        if not 0 <= self.d0 < 2**self.n:
            raise CircuitError(f"d0={self.d0} out of range for {self.n} qubits")

    def marked_set(self) -> MarkedSet:
        if self.mode == "min":
            return MarkedSet(self.n, frozenset(range(0, self.d0 + 1)))
        return MarkedSet(self.n, frozenset(range(self.d0, 2**self.n)))


def _value_controls(n: int, v: int) -> tuple[Control, ...]:
    """Controls on q[1..n-1] matching the corresponding bits of v."""
    return tuple(
        on_one(j) if (v >> j) & 1 else on_zero(j) for j in range(1, n)
    )


def build_I0(n: int, phi: float) -> Circuit:
    """Conditional phase shift diag[e^{i phi}, 1, ..., 1].

    Structure: PHASE(phi) on q[0] conjugated by X on q[0], everything
    controlled on q[1..n-1] being |0>.
    """
    return build_single_oracle(n, 0, phi)


def build_single_oracle(n: int, v: int, phi: float) -> Circuit:
    """Oracle marking the single basis index v with phase e^{i phi}."""
    if not 0 <= v < 2**n:
        raise CircuitError(f"marked index {v} out of range for {n} qubits")
    ctrls = _value_controls(n, v)
    phase = GateOp("PHASE", 0, ctrls, phi)
    if v & 1:
        return Circuit(n, (phase,))
    flip = GateOp("X", 0, ctrls)
    return Circuit(n, (flip, phase, flip))


def build_multi_oracle(marked: MarkedSet, phi: float) -> Circuit:
    """Oracle marking every index in V: concatenated single-index oracles.

    Indices are emitted grouped by maximal dyadic blocks so later rewrite
    passes see mergeable neighbours next to each other.
    """
    ordered: list[int] = []
    for lo, hi in dyadic_blocks(sorted(marked.V)):
        ordered.extend(range(lo, hi + 1))
    return concat(*(build_single_oracle(marked.n, v, phi) for v in ordered))


def build_threshold_oracle(pred: ThresholdPredicate, phi: float) -> Circuit:
    """Oracle for a contiguous threshold range, dyadically decomposed."""
    return build_multi_oracle(pred.marked_set(), phi)


def dyadic_blocks(indices: list[int]) -> list[tuple[int, int]]:
    """Split sorted indices into maximal aligned power-of-two runs.

    Only complete runs count: a block [lo, lo + 2^k - 1] is emitted when lo is
    2^k-aligned and all its members are present.  {0..47} -> [(0,31), (32,47)];
    isolated indices come out as width-1 blocks.
    """
    present = set(indices)
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(indices):
        lo = indices[i]
        size = 1
        while lo % (size * 2) == 0 and all(lo + d in present for d in range(size, size * 2)):
            size *= 2
        blocks.append((lo, lo + size - 1))
        i += size
    return blocks


def build_preparation(occupied, n: int) -> Circuit:
    """Circuit W with W|0...0> = uniform superposition over ``occupied``.

    Full occupancy reduces to H on every qubit.  Otherwise a tree of
    (controlled) RY rotations splits the amplitude qubit by qubit from the
    most significant bit down; branches that are certain carry no control.
    """
    occ = sorted(set(occupied))
    if not occ:
        raise CircuitError("occupied set must be nonempty")
    if occ[0] < 0 or occ[-1] >= 2**n:
        raise CircuitError(f"occupied indices must lie in [0, {2**n - 1}]")
    if len(occ) == 2**n:
        return Circuit(n, tuple(GateOp("H", q) for q in range(n)))

    ops: list[GateOp] = []

    def split(qubit: int, controls: tuple[Control, ...], members: list[int]) -> None:
        zeros = [m for m in members if not (m >> qubit) & 1]
        ones = [m for m in members if (m >> qubit) & 1]
        if ones and zeros:
            theta = 2.0 * math.atan2(math.sqrt(len(ones)), math.sqrt(len(zeros)))
            ops.append(GateOp("RY", qubit, controls, theta))
        elif ones:
            ops.append(GateOp("RY", qubit, controls, math.pi))
        if qubit == 0:
            return
        if zeros:
            sub = controls + ((on_zero(qubit),) if ones else ())
            split(qubit - 1, sub, zeros)
        if ones:
            sub = controls + ((on_one(qubit),) if zeros else ())
            split(qubit - 1, sub, ones)

    split(n - 1, (), occ)
    return Circuit(n, tuple(ops))
