"""Semantics-preserving rewrite passes for diagonal phase-oracle circuits.

The passes rewrite "phase fragments": spans of gates that imprint e^{i phi} on
one cube of basis states (a pattern fixing some qubits, leaving the rest free),
as ``circuit._scan`` recognizes them.  Every pass reads the circuit's runs
(``Circuit.runs``, lexed at most once per circuit) and sends each maximal run
of consecutive fragments through its rewrite steps.  A phase oracle comes out
as its cubes, whose gates are emitted when first read; any other circuit is
emitted once through :func:`emit_fragment`.  Three rewrites, applied as a
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

import bisect
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .circuit import Circuit, _Frag, _gate_shapes, emit_fragment


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
    multi = two_q = single = 0
    for controls, phase in _gate_shapes(circuit):
        multi += controls >= 2
        two_q += phase << controls  # 2**controls for a PHASE
        single += not controls
    return GateCostReport(multi, two_q, single)


def _rewrite(circuit: Circuit, *steps) -> Circuit:
    """Pass each maximal run of fragments through ``steps`` in order.

    A phase oracle's output is made from its cubes.  Any other output is
    emitted here and lexed again when its runs are asked for: a pass-through
    X before an emitted fragment can lex differently from its cubes.
    """
    runs = []
    for is_frag, payloads in circuit.runs:
        if is_frag:
            for step in steps:
                payloads = step(payloads, circuit.n)
        runs.append((is_frag, payloads))
    if all(is_frag for is_frag, _ in runs):  # one run of fragments, or none
        return Circuit._from_runs(circuit.n, runs)
    ops = (op for is_frag, payloads in runs for item in payloads
           for op in (emit_fragment(item) if is_frag else (item,)))
    return Circuit(circuit.n, tuple(ops))


def is_phase_oracle(circuit: Circuit) -> bool:
    """True when every op belongs to a phase fragment, so the circuit is diagonal."""
    return all(is_frag for is_frag, _ in circuit.runs)


# --- principle 1: block merge ------------------------------------------------


def _partition_cubes(minterms: list[int], bits: tuple[int, ...]) -> list[tuple[int, int]]:
    """Exact disjoint cover of sorted distinct minterms by cubes over ``bits``, in ascending order.

    Splits on the highest bit, except when that bit is free for the whole set
    (both halves identical), in which case it stays free.  Dyadic blocks come
    out as single maximal cubes.  The minterms of a cube being split agree on
    every higher bit, so each split is one bisection of the sorted list.
    """

    def cover(lo: int, hi: int, depth: int) -> list[tuple[int, int]]:
        if lo == hi:
            return []
        if hi - lo == 1 << depth:
            return [(0, 0)]
        b = 1 << bits[depth - 1]
        mid = bisect.bisect_left(minterms, (minterms[lo] & -b << 1) | b, lo, hi)
        if mid - lo == hi - mid and all(minterms[i] | b == minterms[i - lo + mid] for i in range(lo, mid)):
            return cover(lo, mid, depth - 1)
        out = [(mask | b, val) for mask, val in cover(lo, mid, depth - 1)]
        out += [(mask | b, val | b) for mask, val in cover(mid, hi, depth - 1)]
        return out

    return cover(0, len(minterms), len(bits))


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
        for mask, value in _partition_cubes(sorted(minterms), ctrl_bits):
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
