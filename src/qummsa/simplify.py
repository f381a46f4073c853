"""Semantics-preserving rewrite passes for diagonal phase-oracle circuits.

The passes rewrite "phase fragments": spans of gates that imprint e^{i phi} on
one cube of basis states (a pattern fixing some qubits, leaving the rest free),
as ``circuit._scan`` recognizes them.  Every pass reads the circuit's runs
(``Circuit.runs``, lexed at most once per circuit), sends each maximal run
of consecutive fragments through its rewrite steps and emits the result once
through :func:`emit_fragment`.  Three rewrites, applied as a
pipeline 1 -> 3 -> 2:

  principle 1   merge same-parity single-state oracles that tile a block,
                dropping the control qubits that became free
  principle 3   merge an even-marking/odd-marking pair (or any two fragments
                whose cubes differ in exactly one fixed bit) into one gate on
                a retargeted qubit, in one forward scan that resumes at each
                fused cube instead of restarting from the first
  principle 2   emit the X gates that conjugate each phase gate without
                controls (plain X)

Every pass is total: gates that form no fragment pass through unchanged, and
fragments come out in the emitter's form, the form the oracle builders use,
so an oracle without the pattern passes through unchanged.  All rewrites
preserve the circuit unitary exactly; the claimed equivalence tolerance
(global phase, 1e-10) is what the tests assert.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .circuit import Circuit, GateOp, _Frag


@dataclass(frozen=True)
class GateCostReport:
    """Gate-count summary under the two-qubit-equivalent metric.

    n_two_qubit_equiv counts controlled phase gates only: a phase gate with k
    controls costs 2**k two-qubit controlled phase gates (an uncontrolled one
    counts 2**0 = 1); X/H/RY gates are conjugation plumbing and cost nothing
    here.  n_multi_controlled counts gates of any kind with >= 2 controls.
    """

    n_multi_controlled: int
    n_two_qubit_equiv: int
    n_single: int


def gate_cost(circuit: Circuit) -> GateCostReport:
    multi = sum(1 for op in circuit.ops if op.mask.bit_count() >= 2)
    two_q = sum(2 ** op.mask.bit_count() for op in circuit.ops if op.kind == "PHASE")
    single = sum(1 for op in circuit.ops if not op.mask)
    return GateCostReport(multi, two_q, single)


# --- fragment emission ------------------------------------------------------


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


def _rewrite(circuit: Circuit, *steps) -> Circuit:
    """Pass each maximal run of fragments through ``steps`` in order, emit once.

    The output's runs are lexed again when asked for, not recorded: a
    pass-through X before an emitted fragment can lex differently from the
    cubes it was emitted from.
    """
    ops: list[GateOp] = []
    for is_frag, payloads in circuit.runs:
        if not is_frag:
            ops.extend(payloads)
            continue
        for step in steps:
            payloads = step(payloads, circuit.n)
        for frag in payloads:
            ops.extend(emit_fragment(frag))
    return Circuit(circuit.n, tuple(ops))


def is_phase_oracle(circuit: Circuit) -> bool:
    """True when every op belongs to a phase fragment, so the circuit is diagonal."""
    return all(is_frag for is_frag, _ in circuit.runs)


# --- principle 1: block merge ------------------------------------------------


def _partition_cubes(minterms: set[int], bits: tuple[int, ...]) -> list[tuple[int, int]]:
    """Exact disjoint cover of a minterm set by cubes over ``bits``.

    Splits on the highest bit, except when that bit is free for the whole set
    (both halves identical), in which case it stays free.  Dyadic blocks come
    out as single maximal cubes.
    """
    if not minterms:
        return []
    if len(minterms) == 2 ** len(bits):
        return [(0, 0)]
    b = bits[-1]
    rest = bits[:-1]
    s0 = {m for m in minterms if not (m >> b) & 1}
    s1 = {m & ~(1 << b) for m in minterms if (m >> b) & 1}
    if s0 == s1:
        return _partition_cubes(s0, rest)
    out = [(mask | (1 << b), val) for mask, val in _partition_cubes(s0, rest)]
    out += [(mask | (1 << b), val | (1 << b)) for mask, val in _partition_cubes(s1, rest)]
    return out


def _merge_blocks(frags: Sequence[_Frag], n: int) -> Sequence[_Frag]:
    """Principle 1 on one run: re-cover each (phi, q0 parity) group by maximal cubes."""
    ctrl_bits = tuple(range(1, n))
    full_ctrl_mask = (2**n - 1) & ~1
    # groups in first-appearance order, which keeps the pass stable; a q0-free
    # fragment is keyed by its own position and passes through
    groups: dict[object, list[_Frag]] = {}
    for pos, frag in enumerate(frags):
        mask, value, phi, _ = frag
        groups.setdefault((phi, value & 1) if mask & 1 else pos, []).append(frag)
    out: list[_Frag] = []
    for key, members in groups.items():
        if isinstance(key, int):
            out += members
            continue
        phi, q0bit = key
        minterms: set[int] = set()
        count = 0
        for mask, value, _, _ in members:
            base, free = value & full_ctrl_mask, full_ctrl_mask & ~mask
            count += 2 ** free.bit_count()
            sub = free
            minterms.add(base | sub)
            while sub:  # every subset of the free control bits
                sub = (sub - 1) & free
                minterms.add(base | sub)
        if len(minterms) != count:
            return frags  # overlapping marks: phases would stack, leave alone
        conj = "bare" if q0bit else "ctrl"
        for mask, value in _partition_cubes(minterms, ctrl_bits):
            out.append((mask | 1, value | q0bit, phi, conj))
    return out


def simplify_principle1(circuit: Circuit) -> Circuit:
    """Merge same-parity fragments that tile blocks, dropping free controls."""
    return _rewrite(circuit, _merge_blocks)


# --- principle 3: even/odd pair fusion ----------------------------------------


def _fuse_pairs(frags: Sequence[_Frag], n: int) -> list[_Frag]:
    """Principle 3 on one run: fuse pairs until no two cubes differ in one fixed bit.

    One forward scan over a position p.  Nothing before p has a partner unless
    the cube at p has just come out of a fusion, so only then are earlier
    positions searched.  The fused cube takes the lower position and the scan
    resumes there, so it fuses the same pairs, in the same order, as a search
    that restarts from the front after every fusion and takes the lowest pair.
    """
    frags = list(frags)
    p, fused = 0, False
    while p < len(frags):
        mask, value, phi, _ = frags[p]
        for j in itertools.chain(range(p) if fused else (), range(p + 1, len(frags))):
            mj, vj, phij, _ = frags[j]
            diff = value ^ vj
            if phij == phi and mj == mask and diff and (diff & (diff - 1)) == 0 and mask & ~diff:
                lo, hi = min(p, j), max(p, j)
                frags[lo] = (mask & ~diff, value & ~diff, frags[lo][2], "bare")
                del frags[hi]
                p, fused = lo, True
                break
        else:
            p, fused = p + 1, False
    return frags


def simplify_principle3(circuit: Circuit) -> Circuit:
    """Fuse fragment pairs whose cubes differ in exactly one fixed bit."""
    return _rewrite(circuit, _fuse_pairs)


# --- principle 2: plain X conjugation -----------------------------------------


def _bare_conjugation(frags: Sequence[_Frag], n: int) -> list[_Frag]:
    """Principle 2 on one run: every fragment's X gates lose their controls."""
    return [(mask, value, phi, "bare") for mask, value, phi, _ in frags]


def simplify_principle2(circuit: Circuit) -> Circuit:
    """Replace controlled-X conjugation around a controlled phase by plain X."""
    return _rewrite(circuit, _bare_conjugation)


def simplify_all(circuit: Circuit) -> Circuit:
    """Full pipeline in one scan: merge blocks, fuse leftovers, strip conjugation."""
    return _rewrite(circuit, _merge_blocks, _fuse_pairs, _bare_conjugation)
