"""Construction of the search circuits: preparation W, phase shift I0, oracles O.

Every oracle built here is a diagonal unitary whose entries are e^{i phi} on
the marked basis indices and 1 elsewhere.  Each marked index is a cube with
every qubit fixed, and the oracle is made from these cubes alone: its gates,
emitted by :func:`circuit.emit_fragment` only when ``.ops`` is first read, are
a PHASE on q[0] controlled by the other bits, conjugated by controlled X gates
when bit 0 is clear (the form the simplify passes later reduce).  Simplifying,
costing and running an oracle read its cubes and build none of its gates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .circuit import Circuit, GateOp
from .errors import CircuitError
from .statevector import sorted_occupied

# Largest marked set a threshold predicate enumerates.  The raw oracle carries
# up to three gates per marked index, each with n-1 controls, so a threshold
# at large n (``--threshold-ge 0`` at n=40 marks 2^40 indices) is refused
# before anything of that size is allocated.
MARKED_MAX = 2**16


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
        """The marked indices; more than MARKED_MAX are refused before any is listed."""
        lo, hi = (0, self.d0 + 1) if self.mode == "min" else (self.d0, 2**self.n)
        if hi - lo > MARKED_MAX:
            raise CircuitError(
                f"threshold marks {hi - lo} indices, more than the {MARKED_MAX} an oracle is built for"
            )
        return MarkedSet(self.n, frozenset(range(lo, hi)))


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
    return _oracle(n, [v], phi)


def build_multi_oracle(marked: MarkedSet, phi: float) -> Circuit:
    """Oracle marking every index in V: the single-index oracles in sequence.

    Indices are emitted in ascending order, so the members of each maximal
    dyadic block sit next to each other for the rewrite passes.
    """
    return _oracle(marked.n, sorted(marked.V), phi)


def _oracle(n: int, indices, phi: float) -> Circuit:
    """Each index as a cube with every qubit fixed, in order: the one run of the circuit made from them."""
    phi = GateOp("PHASE", 0, param=phi).param  # the angle as the emitted gates store it
    full = 2**n - 1
    return Circuit._from_runs(n, ((True, tuple((full, v, phi, "ctrl") for v in indices)),))


def build_threshold_oracle(pred: ThresholdPredicate, phi: float) -> Circuit:
    """Oracle for a contiguous threshold range: every index in it, marked one by one."""
    return build_multi_oracle(pred.marked_set(), phi)


def build_preparation(occupied, n: int) -> Circuit:
    """Circuit W with W|0...0> = uniform superposition over ``occupied``.

    Full occupancy reduces to H on every qubit.  Otherwise a tree of
    (controlled) RY rotations splits the amplitude qubit by qubit from the
    most significant bit down; branches that are certain carry no control.
    The tree is emitted level by level, so each level's gates, whose control
    cubes are disjoint, sit next to each other.  A node is a range of the
    sorted support that agrees above the split qubit, so one bisection splits it.
    """
    occ = sorted_occupied(n, occupied)
    if len(occ) == 2**n:
        return Circuit(n, tuple(GateOp("H", q) for q in range(n)))

    ops: list[GateOp] = []
    level = [(0, 0, 0, len(occ))]  # each node's (mask, value, lo, hi), members occ[lo:hi], depth-first
    for qubit in range(n - 1, -1, -1):
        below = []
        for mask, value, lo, hi in level:
            split = bisect.bisect_left(occ, (occ[lo] >> qubit | 1) << qubit, lo, hi)
            zeros, ones = split - lo, hi - split
            if ones and zeros:
                theta = 2.0 * math.atan2(math.sqrt(ones), math.sqrt(zeros))
                ops.append(GateOp("RY", qubit, mask, value, theta))
            elif ones:
                ops.append(GateOp("RY", qubit, mask, value, math.pi))
            bit = 1 << qubit if ones and zeros else 0  # a certain branch adds no control
            if zeros:
                below.append((mask | bit, value, lo, split))
            if ones:
                below.append((mask | bit, value | bit, split, hi))
        level = below
    return Circuit(n, tuple(ops))
