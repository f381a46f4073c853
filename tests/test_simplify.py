import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qummsa.circuit import Circuit, GateOp, _lexed, _scan, circuit_to_matrix, export_circuit, parse_circuit
from qummsa.oracles import (
    MarkedSet,
    ThresholdPredicate,
    build_I0,
    build_multi_oracle,
    build_preparation,
    build_single_oracle,
    build_threshold_oracle,
)
from qummsa.simplify import (
    _bare_conjugation,
    _fuse_pairs,
    _merge_blocks,
    _partition_cubes,
    _rewrite,
    emit_fragment,
    gate_cost,
    simplify_all,
    simplify_principle1,
    simplify_principle2,
    simplify_principle3,
)

from helpers import (
    concat,
    fuse_pairs_reference,
    gate_cost_reference,
    merge_blocks_reference,
    partition_cubes_reference,
    random_circuit,
)
from conftest import assert_phase_equal

PASSES = (simplify_principle1, simplify_principle2, simplify_principle3, simplify_all)


def random_oracle(rng, n=None):
    n = n or int(rng.integers(2, 6))
    k = int(rng.integers(1, 2**n + 1))
    V = frozenset(int(v) for v in rng.choice(2**n, size=k, replace=False))
    return build_multi_oracle(MarkedSet(n, V), float(rng.uniform(0.1, 3.0)))


def split_by_h(oracle):
    """o + H + o: two fragment runs with an opaque gate between them."""
    h = Circuit(oracle.n, (GateOp("H", oracle.n - 1),))
    return h, concat(oracle, h, oracle)


# --- the cube-to-gates emitter ------------------------------------------------


@settings(max_examples=200)
@given(st.data())
def test_emit_fragment_phases_exactly_its_cube(data):
    n = data.draw(st.integers(1, 6), label="n")
    mask = data.draw(st.integers(1, 2**n - 1), label="mask")
    value = data.draw(st.integers(0, 2**n - 1), label="value") & mask
    phi = data.draw(st.floats(-2 * np.pi, 2 * np.pi), label="phi")
    conj = data.draw(st.sampled_from(("ctrl", "bare")), label="conj")
    ops = emit_fragment((mask, value, phi, conj))
    fixed = [q for q in range(n) if (mask >> q) & 1]
    assert all(op.target == fixed[0] for op in ops)
    phase = next(op for op in ops if op.kind == "PHASE")
    assert phase.mask == mask & ~(1 << fixed[0])
    on_cube = (np.arange(2**n) & mask) == value
    expected = np.diag(np.where(on_cube, np.exp(1j * phi), 1.0))
    np.testing.assert_allclose(circuit_to_matrix(Circuit(n, ops)), expected, rtol=0, atol=1e-12)


# --- principle 1 --------------------------------------------------------------


def test_p1_merges_two_odd_states():
    raw = build_multi_oracle(MarkedSet(3, frozenset({1, 3})), 0.8)
    out = simplify_principle1(raw)
    assert len(out.ops) == 1
    op = out.ops[0]
    assert op.kind == "PHASE" and op.target == 0
    assert (op.mask, op.value) == (0b100, 0)  # the shared fixed bit; the free one dropped
    assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw))


def test_p1_all_states_becomes_two_bare_phases():
    raw = build_multi_oracle(MarkedSet(3, frozenset(range(8))), 0.9)
    out = simplify_principle1(raw)
    phases = [op for op in out.ops if op.kind == "PHASE"]
    assert len(phases) == 2 and all(not op.mask for op in phases)
    xs = [op for op in out.ops if op.kind == "X"]
    assert all(not op.mask for op in xs)
    assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw))


def test_p1_single_state_unchanged():
    raw = build_single_oracle(3, 5, 1.1)
    assert simplify_principle1(raw).ops == raw.ops


def test_p1_total_on_non_oracle_input():
    c = Circuit(2, (GateOp("H", 0), GateOp("X", 1)))
    assert simplify_principle1(c).ops == c.ops


# --- principle 2 --------------------------------------------------------------


def test_p2_strips_conjugation_controls_from_i0():
    raw = build_I0(3, 0.5)
    out = simplify_principle2(raw)
    xs = [op for op in out.ops if op.kind == "X"]
    assert len(xs) == 2 and all(not op.mask for op in xs)
    np.testing.assert_allclose(circuit_to_matrix(out), circuit_to_matrix(raw), atol=1e-12)


def test_p2_single_even_state_keeps_one_multi_controlled_gate():
    raw = build_single_oracle(3, 4, 0.5)
    assert gate_cost(raw).n_multi_controlled == 3
    out = simplify_principle2(raw)
    assert gate_cost(out).n_multi_controlled == 1
    np.testing.assert_allclose(circuit_to_matrix(out), circuit_to_matrix(raw), atol=1e-12)


def test_p2_matches_a_triple_whatever_order_its_controls_are_listed_in():
    raw = parse_circuit(
        "qubits: 3\n"
        "X 0 | controls: +q2 -q1\n"
        "PHASE(0.5) 0 | controls: -q1 +q2\n"
        "X 0 | controls: -q1 +q2\n"
    )
    out = simplify_principle2(raw)
    assert [(op.kind, op.mask) for op in out.ops] == [("X", 0), ("PHASE", 0b110), ("X", 0)]
    assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw))


def test_p2_no_pattern_unchanged():
    raw = build_single_oracle(3, 5, 0.5)  # odd: no conjugation present
    assert simplify_principle2(raw).ops == raw.ops


# --- principle 3 --------------------------------------------------------------


def test_p3_fuses_even_odd_pair():
    # fragments marking 4 (even) and 5 (odd): same controls, differ in bit 0
    raw = Circuit(
        3,
        build_single_oracle(3, 4, 0.7).ops + build_single_oracle(3, 5, 0.7).ops,
    )
    out = simplify_principle3(raw)
    phases = [op for op in out.ops if op.kind == "PHASE"]
    assert len(phases) == 1
    assert phases[0].mask.bit_count() == 1  # one control dropped with the merge
    assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw))


def test_p3_idempotent_and_total():
    raw = Circuit(
        3,
        build_single_oracle(3, 4, 0.7).ops + build_single_oracle(3, 5, 0.7).ops,
    )
    once = simplify_principle3(raw)
    assert simplify_principle3(once).ops == once.ops
    untouched = build_single_oracle(3, 1, 0.3)
    assert simplify_principle3(untouched).ops == untouched.ops


def test_p3_preserves_matrix_on_random_oracles():
    rng = np.random.default_rng(21)
    for _ in range(30):
        raw = random_oracle(rng, n=int(rng.integers(2, 5)))
        assert_phase_equal(circuit_to_matrix(simplify_principle3(raw)), circuit_to_matrix(raw))


# --- gate cost ----------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 2), (5, 3), (6, 1)])
def test_cost_unsimplified_block(n, m):
    raw = build_multi_oracle(MarkedSet(n, frozenset(range(2**m))), 0.7)
    assert gate_cost(raw).n_two_qubit_equiv == 2 ** (n + m - 1)


def test_cost_single_qubit_only_circuit():
    c = Circuit(3, (GateOp("X", 0), GateOp("H", 1), GateOp("RY", 2, param=0.3)))
    report = gate_cost(c)
    assert report.n_two_qubit_equiv == 0
    assert report.n_single == 3
    assert report.n_multi_controlled == 0


def test_cost_report_invariants_on_oracles():
    rng = np.random.default_rng(22)
    for _ in range(20):
        report = gate_cost(random_oracle(rng))
        assert report.n_two_qubit_equiv >= report.n_multi_controlled >= 0


@settings(max_examples=60)
@given(st.data())
def test_gate_cost_from_runs_is_the_per_op_count(data):
    n = data.draw(st.integers(1, 8), label="n")
    phi = data.draw(st.floats(-2 * np.pi, 2 * np.pi), label="phi")
    V = data.draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=64), label="V")
    pred = ThresholdPredicate(data.draw(st.sampled_from(["min", "max"])), data.draw(st.integers(0, 2**n - 1)), n)
    rng = data.draw(st.integers(0, 2**32 - 1), label="rng")
    raw = [build_multi_oracle(MarkedSet(n, frozenset(V)), phi), build_threshold_oracle(pred, phi), build_I0(n, phi)]
    made = [*raw, *(p(c) for p in PASSES for c in raw)]
    assert not any("ops" in vars(c) for c in made)  # phase oracles made from their cubes
    costs = [gate_cost(c) for c in made]  # counted before any of their gates is read
    rand, prep = random_circuit(n, 30, rng), build_preparation(V, n)
    other = [rand, prep, concat(*raw), concat(raw[0], rand, prep, raw[2])]
    for circuit, cost in zip(made + other, costs + [gate_cost(c) for c in other]):
        assert cost == gate_cost_reference(circuit) == gate_cost(parse_circuit(export_circuit(circuit)))


# --- pipeline -----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pipeline_cost_claim_on_dyadic_blocks(n):
    for m in range(1, n):
        for j in (0, (2 ** (n - m)) - 1):
            lo = j * 2**m
            raw = build_multi_oracle(MarkedSet(n, frozenset(range(lo, lo + 2**m))), 0.7)
            out = simplify_all(raw)
            assert gate_cost(raw).n_two_qubit_equiv == 2 ** (n + m - 1)
            assert gate_cost(out).n_two_qubit_equiv == 2 ** (n - m - 1), (n, m, j)
            assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw))


def test_pipeline_on_threshold_oracle():
    raw = build_threshold_oracle(ThresholdPredicate("min", 47, 6), 1.2)
    out = simplify_all(raw)
    assert gate_cost(raw).n_two_qubit_equiv == 48 * 2**5
    assert gate_cost(out).n_two_qubit_equiv == 3  # blocks {0..31} and {32..47}
    assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw))


def test_soundness_exhaustive_random_oracles():
    rng = np.random.default_rng(23)
    for _ in range(60):
        raw = random_oracle(rng)
        h, two_runs = split_by_h(raw)
        for circuit in (raw, two_runs):
            u = circuit_to_matrix(circuit)
            for simplify_pass in PASSES:
                assert_phase_equal(circuit_to_matrix(simplify_pass(circuit)), u)
        for simplify_pass in PASSES:  # each run is rewritten as if it stood alone
            once = simplify_pass(raw).ops
            assert simplify_pass(two_runs).ops == once + h.ops + once, simplify_pass.__name__


def test_passes_idempotent():
    rng = np.random.default_rng(24)
    for _ in range(40):
        raw = random_oracle(rng)
        for circuit in (raw, split_by_h(raw)[1]):
            for simplify_pass in PASSES[:3]:
                once = simplify_pass(circuit)
                assert simplify_pass(once).ops == once.ops, simplify_pass.__name__


def test_passes_never_increase_cost():
    rng = np.random.default_rng(25)
    for _ in range(40):
        raw = random_oracle(rng)
        base = gate_cost(raw).n_two_qubit_equiv
        for simplify_pass in PASSES:
            assert gate_cost(simplify_pass(raw)).n_two_qubit_equiv <= base


def test_pipeline_fixed_point_on_dyadic_families():
    for n in range(3, 7):
        for m in range(1, n):
            raw = build_multi_oracle(MarkedSet(n, frozenset(range(2**m))), 0.7)
            once = simplify_all(raw)
            assert simplify_all(once).ops == once.ops


# --- the passes against their references ----------------------------------------


def test_p3_fused_cube_pairs_with_an_earlier_one():
    # cubes 000 and 001 fuse at position 1 into 00-, which then pairs with the
    # earlier 01- into 0--; the result keeps the lower position and its phi
    frags = [(0b110, 0b010, -0.0, "ctrl"), (0b111, 0b000, 0.0, "ctrl"), (0b111, 0b001, 0.0, "ctrl")]
    want = [(0b100, 0b000, -0.0, "bare")]
    assert repr(_fuse_pairs(frags, 3)) == repr(fuse_pairs_reference(frags, 3)) == repr(want)


@st.composite
def fragment_runs(draw):
    """A run of 0-40 fragments on n = 1..7 qubits: 1-3 phis, q0-free and repeated cubes."""
    n = draw(st.integers(1, 7), label="n")
    full = 2**n - 1
    phis = draw(st.lists(st.sampled_from([0.5, 1.25, 2.0, 0.0, -0.0]), min_size=1, max_size=3))
    # the full mask (single states), the full mask less one bit (fused pairs) or any mask
    near_full = st.sampled_from([full] + [full & ~(1 << q) for q in range(n) if full & ~(1 << q)])
    masks = draw(st.lists(st.one_of(near_full, st.integers(1, full)), min_size=1, max_size=3))
    cube = st.tuples(
        st.sampled_from(masks), st.integers(0, full), st.sampled_from(phis), st.sampled_from(["ctrl", "bare"])
    )
    size = draw(st.integers(0, 40), label="fragments")
    cubes = draw(st.lists(cube, min_size=size, max_size=size))
    frags = [(mask, value & mask, phi, conj) for mask, value, phi, conj in cubes]
    for src, dst in draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=6)):
        if max(src, dst) < size:  # a repeated cube
            frags[dst] = frags[src]
    return n, frags


@settings(max_examples=100)
@given(fragment_runs())
def test_circuit_made_from_fragment_runs_is_their_emitted_gates(run):
    n, frags = run
    emitted = Circuit(n, tuple(op for frag in frags for op in emit_fragment(frag)))
    made = Circuit._from_runs(n, ((True, tuple(map(_lexed, frags))),) if frags else ())
    assert gate_cost(made) == gate_cost_reference(emitted)  # counted before its gates are read
    assert made.runs == _scan(emitted.ops) and made == emitted


@settings(max_examples=200)
@given(st.data())
def test_partition_cubes_bisects_as_the_sets_split(data):
    n = data.draw(st.integers(1, 9), label="n")
    top = 2 ** (n - 1) - 1  # the control bits q1..q(n-1), shifted down to q0..
    scattered = data.draw(st.sets(st.integers(0, top), max_size=40), label="scattered")
    lo, hi = sorted(data.draw(st.tuples(st.integers(0, top + 1), st.integers(0, top + 1)), label="range"))
    free = data.draw(st.integers(0, top), label="free bits")  # bits that every member leaves free
    subsets = {sub for sub in range(free + 1) if sub & free == sub}
    minterms = {(m | sub) << 1 for m in scattered | set(range(lo, hi)) for sub in subsets}
    bits = tuple(range(1, n))
    assert _partition_cubes(sorted(minterms), bits) == partition_cubes_reference(minterms, bits)


@settings(max_examples=100)
@given(fragment_runs())
def test_passes_equal_their_references_on_fragment_runs(run):
    n, frags = run
    # repr tells 0.0 from -0.0, which == does not
    assert repr(_fuse_pairs(frags, n)) == repr(fuse_pairs_reference(frags, n))
    merged = _merge_blocks(frags, n)
    assert repr(merged) == repr(merge_blocks_reference(frags, n))
    assert repr(_fuse_pairs(merged, n)) == repr(fuse_pairs_reference(merged, n))


def test_pipelines_equal_their_references_on_oracles():
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(2**n, 64) + 1))  # the restarting reference is cubic in k
        V = frozenset(int(v) for v in rng.choice(2**n, size=k, replace=False))
        raw = build_multi_oracle(MarkedSet(n, V), float(rng.uniform(0.1, 3.0)))
        for circuit in (raw, simplify_principle1(raw), simplify_all(raw)):
            assert simplify_principle3(circuit).ops == _rewrite(circuit, fuse_pairs_reference).ops
            want = _rewrite(circuit, merge_blocks_reference, fuse_pairs_reference, _bare_conjugation)
            assert simplify_all(circuit).ops == want.ops
