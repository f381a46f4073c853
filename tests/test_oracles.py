import copy
import dataclasses
import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qummsa import circuit as circuit_module
from qummsa import oracles
from qummsa import simplify as simplify_module
from qummsa.circuit import (
    Circuit,
    GateOp,
    _scan,
    circuit_to_matrix,
    export_circuit,
    run_circuit,
)
from qummsa.errors import CircuitError
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
    emit_fragment,
    gate_cost,
    simplify_all,
    simplify_principle1,
    simplify_principle2,
    simplify_principle3,
)
from qummsa.statevector import make_basis_state, make_superposition

from helpers import concat, depth_first_preparation, random_circuit, run_gate_by_gate


def oracle_diag(circuit):
    u = circuit_to_matrix(circuit)
    off = u - np.diag(np.diagonal(u))
    np.testing.assert_allclose(off, 0, atol=1e-12)
    return np.diagonal(u)


@pytest.mark.parametrize(
    "n,phi,expected",
    [
        (1, np.pi, [-1, 1]),
        (2, np.pi / 2, [1j, 1, 1, 1]),
        (3, 0.0, [1] * 8),
    ],
)
def test_build_i0(n, phi, expected):
    np.testing.assert_allclose(oracle_diag(build_I0(n, phi)), expected, atol=1e-12)


def test_single_oracle_odd_state():
    np.testing.assert_allclose(
        oracle_diag(build_single_oracle(2, 3, np.pi)), [1, 1, 1, -1], atol=1e-12
    )


def test_single_oracle_zero_coincides_with_i0():
    np.testing.assert_allclose(
        oracle_diag(build_single_oracle(2, 0, np.pi / 2)), [1j, 1, 1, 1], atol=1e-12
    )
    np.testing.assert_allclose(
        circuit_to_matrix(build_single_oracle(2, 0, 0.77)),
        circuit_to_matrix(build_I0(2, 0.77)),
        atol=1e-12,
    )


def test_single_oracle_matches_direct_diagonal():
    # oracle: the diagonal written down directly from the marking definition
    phi = 1.0
    expected = np.ones(8, dtype=complex)
    expected[5] = np.exp(1j * phi)
    np.testing.assert_allclose(oracle_diag(build_single_oracle(3, 5, phi)), expected, atol=1e-12)


def test_single_oracle_out_of_range():
    with pytest.raises(CircuitError):
        build_single_oracle(2, 4, 1.0)


def test_multi_oracle_low_pair():
    marked = MarkedSet(2, frozenset({0, 1}))
    np.testing.assert_allclose(
        oracle_diag(build_multi_oracle(marked, np.pi)), [-1, -1, 1, 1], atol=1e-12
    )


def test_multi_oracle_high_pair():
    marked = MarkedSet(2, frozenset({2, 3}))
    np.testing.assert_allclose(
        oracle_diag(build_multi_oracle(marked, np.pi / 2)), [1, 1, 1j, 1j], atol=1e-12
    )


def test_multi_oracle_all_states_is_global_phase():
    phi = 0.6
    marked = MarkedSet(3, frozenset(range(8)))
    np.testing.assert_allclose(
        oracle_diag(build_multi_oracle(marked, phi)), np.exp(1j * phi) * np.ones(8), atol=1e-12
    )


def test_empty_marked_set_rejected():
    with pytest.raises(CircuitError):
        MarkedSet(2, frozenset())


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_marking_correctness_exhaustive(n, seed):
    rng = np.random.default_rng(seed)
    phi = float(rng.uniform(0.2, 3.0))
    k = int(rng.integers(1, 2**n + 1))
    V = frozenset(int(v) for v in rng.choice(2**n, size=k, replace=False))
    diag = oracle_diag(build_multi_oracle(MarkedSet(n, V), phi))
    assert np.all(np.abs(np.abs(diag) - 1.0) < 1e-12)
    for tau in range(2**n):
        expected = np.exp(1j * phi) if tau in V else 1.0
        assert abs(diag[tau] - expected) < 1e-12, (tau, tau in V)


def test_phase_linearity():
    marked = MarkedSet(3, frozenset({1, 4, 6}))
    phi1, phi2 = 0.8, 1.7
    combined = concat(build_multi_oracle(marked, phi1), build_multi_oracle(marked, phi2))
    np.testing.assert_allclose(
        circuit_to_matrix(combined),
        circuit_to_matrix(build_multi_oracle(marked, phi1 + phi2)),
        atol=1e-11,
    )


def concatenated_single_oracles(n, V, phi):
    """The raw oracle as it was first built: one Circuit per index, joined."""
    singles = []
    for v in sorted(V):
        mask = 2**n - 2  # every qubit but q0 controls it
        phase = GateOp("PHASE", 0, mask, v & mask, phi)
        flip = GateOp("X", 0, mask, v & mask)
        singles.append(Circuit(n, (phase,) if v & 1 else (flip, phase, flip)))
    return concat(*singles)


@settings(max_examples=100)
@given(st.data())
def test_raw_oracle_matches_concatenated_single_oracles(data):
    n = data.draw(st.integers(1, 8), label="n")
    V = data.draw(st.sets(st.integers(0, 2**n - 1), min_size=1), label="V")
    phi = data.draw(st.floats(0.1, 6.2), label="phi")
    built = build_multi_oracle(MarkedSet(n, frozenset(V)), phi)
    assert built.ops == concatenated_single_oracles(n, V, phi).ops


def assert_runs_lex_the_ops(circuit):
    """``circuit.runs``, recorded or lexed, is ``_scan`` of its ops, in immutable tuples of exact types."""
    runs = circuit.runs
    assert runs == _scan(circuit.ops)
    assert type(runs) is tuple
    for is_frag, payloads in runs:
        assert type(is_frag) is bool and type(payloads) is tuple and payloads
        for payload in payloads:
            if is_frag:
                mask, value, phi, conj = payload
                assert type(payload) is tuple and type(mask) is type(value) is int
                assert type(phi) is float and conj in ("ctrl", "bare")
            else:
                assert type(payload) is GateOp


@settings(max_examples=100)
@given(st.data())
def test_runs_are_the_lexed_ops(data):
    n = data.draw(st.integers(1, 10), label="n")
    phi = data.draw(st.floats(-2 * np.pi, 2 * np.pi).map(data.draw(st.sampled_from([float, np.float64]))),
                    label="phi")
    V = data.draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=64), label="V")
    pred = ThresholdPredicate(data.draw(st.sampled_from(["min", "max"])), data.draw(st.integers(0, 2**n - 1)), n)
    built = [
        build_I0(n, phi),
        build_single_oracle(n, data.draw(st.integers(0, 2**n - 1), label="v"), phi),
        build_multi_oracle(MarkedSet(n, frozenset(V)), phi),
        build_threshold_oracle(pred, phi),
        build_preparation(V, n),
    ]
    rng = data.draw(st.integers(0, 2**32 - 1), label="rng")
    passes = (simplify_principle1, simplify_principle2, simplify_principle3, simplify_all)
    rewritten = [simplify_pass(c) for simplify_pass in passes for c in built]
    for circuit in [*built, *rewritten, random_circuit(n, 30, rng), concat(*built)]:
        assert_runs_lex_the_ops(circuit)
    # the recorded cubes emit the gates of every index's fully fixed "ctrl" cube
    full = 2**n - 1
    assert built[2].ops == tuple(op for v in sorted(V) for op in emit_fragment((full, v, phi, "ctrl")))


def test_raw_oracles_are_never_lexed():
    # a raw oracle is made from its cubes, so building, simplifying, costing
    # and running one neither lexes it nor emits a gate
    uniform = make_superposition(10, range(2**10))
    with (mock.patch.object(circuit_module, "_scan", side_effect=AssertionError("lexed")),
          mock.patch.object(circuit_module, "emit_fragment", side_effect=AssertionError("emitted")),
          mock.patch.object(simplify_module, "emit_fragment", side_effect=AssertionError("emitted"))):
        raw = [build_multi_oracle(ThresholdPredicate("max", 300, 10).marked_set(), 0.7),
               build_single_oracle(10, 6, 1.1), build_I0(10, np.float64(2.5))]
        simple = [simplify_all(c) for c in raw]
        for c in raw + simple:
            gate_cost(c)
            run_circuit(c, uniform)
    for c in raw + simple:
        assert "ops" not in vars(c)  # not emitted yet
        assert_runs_lex_the_ops(c)
    # the cached runs and ops are read, not recomputed, and cannot be assigned
    assert raw[0].runs is raw[0].runs and simple[0].runs is simple[0].runs
    assert raw[0].ops is raw[0].ops
    for name in ("ops", "runs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(raw[1], name, ())
    with pytest.raises(AttributeError, match="no attribute 'opz'"):
        raw[1].opz


def test_len_counts_a_circuit_made_from_cubes_without_emitting_it():
    frags = ((0b1111, 0b0110, 0.5, "ctrl"), (0b1111, 0b1011, 0.5, "bare"), (0b0110, 0b0100, -1.5, "bare"))
    with (mock.patch.object(circuit_module, "emit_fragment", side_effect=AssertionError("emitted")),
          mock.patch.object(simplify_module, "emit_fragment", side_effect=AssertionError("emitted"))):
        made = [build_multi_oracle(ThresholdPredicate("max", 300, 10).marked_set(), 0.7),
                build_single_oracle(10, 6, 1.1), build_I0(10, np.float64(2.5)),
                Circuit._from_runs(4, ((True, frags),)), Circuit._from_runs(3, ())]
        made += [simplify_all(c) for c in made[:3]]
        lengths = [len(c) for c in made]
    for c, length in zip(made, lengths):
        assert "ops" not in c.__dict__  # counted from its cubes
        assert length == len(c.ops) == len(c)  # and the same count once its ops are read
    assert lengths[3:5] == [7, 0]


def test_circuit_made_from_its_cubes_is_the_eager_circuit():
    frags = ((0b1111, 0b0110, 0.5, "ctrl"), (0b1111, 0b1011, 0.5, "bare"), (0b0110, 0b0100, -1.5, "bare"))
    eager = Circuit(4, tuple(op for frag in frags for op in emit_fragment(frag)))

    def lazy():
        return Circuit._from_runs(4, ((True, frags),))

    assert type(lazy()) is Circuit and lazy() == eager and eager == lazy()
    assert hash(lazy()) == hash(eager) and repr(lazy()) == repr(eager)
    assert lazy() != Circuit._from_runs(4, ((True, frags[:2]),))
    assert lazy().runs == eager.runs and len(lazy()) == len(eager) == 7
    for copied in (pickle.loads(pickle.dumps(lazy())), copy.copy(lazy()), copy.deepcopy(lazy())):
        assert copied == eager and copied.ops == eager.ops and copied.runs == eager.runs
    read = lazy()
    read.ops
    assert pickle.loads(pickle.dumps(read)) == eager and copy.deepcopy(read) == eager
    assert dataclasses.replace(lazy(), n=5) == Circuit(5, eager.ops)
    # the range check of an eager circuit, on the cubes
    wide = (0b11001, 0b00001, 0.5, "bare")
    with pytest.raises(CircuitError) as eager_error:
        Circuit(4, emit_fragment(wide))
    with pytest.raises(CircuitError) as lazy_error:
        Circuit._from_runs(4, ((True, (frags[0], wide)),))
    assert str(lazy_error.value) == str(eager_error.value) == "qubit 4 out of range for 4-qubit register"
    with pytest.raises(CircuitError, match="qubit count must be >= 1, got 0"):
        Circuit._from_runs(0, ())
    assert Circuit._from_runs(2, ()) == Circuit(2)


def test_raw_and_simplified_oracles_bit_identical_pin():
    # sha256 over the .qc text and the amplitudes (raw bytes) that the raw and
    # simplified n=10 oracles produce from the uniform state
    rng = np.random.default_rng(20191021)
    uniform = make_superposition(10, range(2**10))
    h = hashlib.sha256()
    for k in range(4):
        phi = float(rng.uniform(0.1, 6.0))
        if k < 2:
            d0 = int(rng.integers(2**10))
            marked = ThresholdPredicate(("min", "max")[k], d0, 10).marked_set()
        else:
            V = frozenset(int(v) for v in rng.choice(2**10, size=60, replace=False))
            marked = MarkedSet(10, V)
        raw = build_multi_oracle(marked, phi)
        for circuit in (raw, simplify_all(raw)):
            h.update(export_circuit(circuit).encode())
            h.update(run_circuit(circuit, uniform).amps.tobytes())
    assert h.hexdigest() == "8795717a1d1fb69e4f1d69df41eeed3a71fb150dbc394a8edd3e3480b672346c"


def test_threshold_min_small():
    pred = ThresholdPredicate("min", 1, 2)
    np.testing.assert_allclose(
        oracle_diag(build_threshold_oracle(pred, np.pi)), [-1, -1, 1, 1], atol=1e-12
    )


def test_threshold_min_47_of_64():
    phi = 1.23096  # tuned phase for an estimated 48/64 fraction
    diag = oracle_diag(build_threshold_oracle(ThresholdPredicate("min", 47, 6), phi))
    np.testing.assert_allclose(diag[:48], np.exp(1j * phi), atol=1e-12)
    np.testing.assert_allclose(diag[48:], 1.0, atol=1e-12)


def test_threshold_max_zero_marks_everything():
    pred = ThresholdPredicate("max", 0, 3)
    phi = 0.5
    np.testing.assert_allclose(
        oracle_diag(build_threshold_oracle(pred, phi)), np.exp(1j * phi) * np.ones(8), atol=1e-12
    )


def test_threshold_validation():
    with pytest.raises(CircuitError):
        ThresholdPredicate("min", 4, 2)
    with pytest.raises(CircuitError):
        ThresholdPredicate("median", 1, 2)


def test_threshold_marked_set_size_cap(monkeypatch):
    monkeypatch.setattr(oracles, "MARKED_MAX", 8)
    assert ThresholdPredicate("min", 7, 4).marked_set().size == 8
    assert ThresholdPredicate("max", 8, 4).marked_set().size == 8
    with pytest.raises(CircuitError, match="9 indices"):
        ThresholdPredicate("min", 8, 4).marked_set()
    with pytest.raises(CircuitError, match="9 indices"):
        ThresholdPredicate("max", 7, 4).marked_set()


# --- preparation -------------------------------------------------------------


def test_preparation_three_of_four_structure():
    circuit = build_preparation([0, 2, 3], 2)
    # one rotation splitting the high qubit, one controlled rotation below
    assert [op.kind for op in circuit.ops] == ["RY", "RY"]
    assert circuit.ops[0].mask == 0
    assert circuit.ops[1].mask != 0
    out = run_circuit(circuit, make_basis_state(2, 0))
    s3 = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(out.amps, [s3, 0, s3, s3], atol=1e-12)


def test_preparation_full_occupancy_is_hadamards():
    circuit = build_preparation(range(8), 3)
    assert all(op.kind == "H" and not op.mask for op in circuit.ops)
    assert len(circuit.ops) == 3
    out = run_circuit(circuit, make_basis_state(3, 0))
    np.testing.assert_allclose(out.amps, np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_preparation_titanic(titanic):
    circuit = build_preparation(titanic.values, 6)
    out = run_circuit(circuit, make_basis_state(6, 0))
    np.testing.assert_allclose(out.amps, make_superposition(6, titanic.values).amps, atol=1e-10)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
def test_preparation_random_occupancies(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        k = int(rng.integers(1, 2**n + 1))
        occ = sorted(int(v) for v in rng.choice(2**n, size=k, replace=False))
        out = run_circuit(build_preparation(occ, n), make_basis_state(n, 0))
        np.testing.assert_allclose(out.amps, make_superposition(n, occ).amps, atol=1e-10)


@settings(max_examples=200)
@given(st.data())
def test_level_order_preparation_equals_depth_first_bit_for_bit(data):
    # the same gates, reordered only across disjoint control cubes
    n = data.draw(st.integers(1, 8), label="n")
    occ = data.draw(st.sets(st.integers(0, 2**n - 1), min_size=1), label="occupied")
    level, depth = build_preparation(occ, n), depth_first_preparation(occ, n)
    assert sorted(map(repr, level.ops)) == sorted(map(repr, depth.ops))
    zero = make_basis_state(n, 0)
    assert run_circuit(level, zero).amps.tobytes() == run_gate_by_gate(depth, zero).amps.tobytes()


def test_preparation_empty_rejected():
    with pytest.raises(CircuitError):
        build_preparation([], 2)
