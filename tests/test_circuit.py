import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qummsa.circuit import (
    BATCH_PAIRS,
    GATE_KINDS,
    NARROW_PAIRS,
    QC_MAX_QUBITS,
    Circuit,
    CompiledCircuit,
    GateOp,
    circuit_to_matrix,
    export_circuit,
    gate_to_matrix,
    invert_circuit,
    parse_circuit,
    run_circuit,
)
from qummsa.errors import CircuitError, ParseError
from qummsa.oracles import MarkedSet, build_I0, build_multi_oracle, build_preparation
from qummsa.simplify import emit_fragment
from qummsa.statevector import StateVector, make_basis_state, make_superposition

from helpers import concat, random_circuit, run_gate_by_gate
from conftest import assert_phase_equal


def test_empty_circuit_is_identity():
    np.testing.assert_allclose(circuit_to_matrix(Circuit(2)), np.eye(4), atol=0)


def test_single_phase_gate_matrix():
    c = Circuit(1, (GateOp("PHASE", 0, param=1.3),))
    np.testing.assert_allclose(
        circuit_to_matrix(c), np.diag([1.0, np.exp(1.3j)]), atol=1e-15
    )


def test_i0_circuit_matrix():
    phi = 0.9
    u = circuit_to_matrix(build_I0(2, phi))
    np.testing.assert_allclose(u, np.diag([np.exp(1j * phi), 1, 1, 1]), atol=1e-12)


def test_dense_lowering_guard():
    with pytest.raises(CircuitError):
        circuit_to_matrix(Circuit(13))


def test_run_i0_on_zero_state():
    out = run_circuit(build_I0(2, np.pi / 2), make_basis_state(2, 0))
    np.testing.assert_allclose(out.amps, [1j, 0, 0, 0], atol=1e-15)


def test_run_preparation_circuit():
    out = run_circuit(build_preparation([0, 2, 3], 2), make_basis_state(2, 0))
    s3 = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(out.amps, [s3, 0, s3, s3], atol=1e-12)


def test_run_matches_dense_matrix_random():
    rng = np.random.default_rng(11)
    circuit = random_circuit(3, 20, rng)
    state = make_superposition(3, range(8))
    out = run_circuit(circuit, state)
    np.testing.assert_allclose(out.amps, circuit_to_matrix(circuit) @ state.amps, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_run_equals_matrix_application(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(10):
        circuit = random_circuit(n, 12, rng)
        state = make_basis_state(n, int(rng.integers(2**n)))
        np.testing.assert_allclose(
            run_circuit(circuit, state).amps,
            circuit_to_matrix(circuit) @ state.amps,
            atol=1e-10,
        )


def test_run_circuit_dimension_mismatch():
    with pytest.raises(CircuitError):
        run_circuit(Circuit(2), make_basis_state(3, 0))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_controlled_gate_fires_only_on_matching_basis_states(n):
    # enumerate all basis inputs; the gate acts iff every control matches
    rng = np.random.default_rng(60 + n)
    for _ in range(8):
        op = random_circuit(n, 1, rng).ops[0]
        for b in range(2**n):
            out = run_circuit(Circuit(n, (op,)), make_basis_state(n, b))
            fires = (b & op.mask) == op.value
            if not fires:
                np.testing.assert_allclose(out.amps, make_basis_state(n, b).amps, atol=0)
            else:
                bare = GateOp(op.kind, op.target, param=op.param)
                expected = run_circuit(Circuit(n, (bare,)), make_basis_state(n, b))
                np.testing.assert_allclose(out.amps, expected.amps, atol=1e-12)


@st.composite
def gate_ops(draw, n):
    """Any gate kind, a random target, 0..n-1 controls of random polarity."""
    kind = draw(st.sampled_from(GATE_KINDS))
    target = draw(st.integers(0, n - 1))
    others = draw(st.permutations([q for q in range(n) if q != target]))
    n_ctrl = draw(st.integers(0, n - 1))
    mask = value = 0
    for q in others[:n_ctrl]:
        mask |= 1 << q
        value |= draw(st.integers(0, 1)) << q
    param = draw(st.floats(-2 * np.pi, 2 * np.pi)) if kind in ("RY", "PHASE") else None
    return GateOp(kind, target, mask, value, param)


@st.composite
def random_states(draw, n):
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


@settings(max_examples=300)
@given(st.data())
def test_apply_gate_matches_gate_matrix_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    op = data.draw(gate_ops(n), label="op")
    state = data.draw(random_states(n), label="state")
    np.testing.assert_allclose(
        run_circuit(Circuit(n, (op,)), state).amps, gate_to_matrix(op, n) @ state.amps, rtol=0, atol=1e-12
    )


@settings(max_examples=100)
@given(st.data())
def test_run_circuit_matches_circuit_matrix_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    ops = data.draw(st.lists(gate_ops(n), max_size=12), label="ops")
    state = data.draw(random_states(n), label="state")
    circuit = Circuit(n, tuple(ops))
    np.testing.assert_allclose(
        run_circuit(circuit, state).amps, circuit_to_matrix(circuit) @ state.amps,
        rtol=0, atol=1e-12,
    )


@st.composite
def phase_run_circuits(draw, n):
    """Runs of phase fragments between H/RY/X gates and lone PHASEs.

    A run holds fully and partly fixed cubes in both X conjugation forms, and
    may phase one cube (one basis state, when fully fixed) more than once.
    """
    full = (1 << n) - 1
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        part = draw(st.sampled_from(["run", "gate", "phase"]))
        if part == "gate":
            ops.append(draw(gate_ops(n).filter(lambda op: op.kind != "PHASE")))
        elif part == "phase":
            ops.append(draw(gate_ops(n).filter(lambda op: op.kind == "PHASE")))
        else:
            cubes = []
            for _ in range(draw(st.integers(1, 10))):
                if cubes and draw(st.booleans()):
                    mask, value = draw(st.sampled_from(cubes))
                else:
                    mask = full if draw(st.booleans()) else draw(st.integers(1, full))
                    value = draw(st.integers(0, full)) & mask
                    cubes.append((mask, value))
                phi = draw(st.floats(-2 * np.pi, 2 * np.pi))
                ops.extend(emit_fragment((mask, value, phi, draw(st.sampled_from(["ctrl", "bare"])))))
    return Circuit(n, tuple(ops))


@settings(max_examples=300)
@given(st.data())
def test_phase_runs_match_the_stride_kernel_bit_for_bit(data):
    n = data.draw(st.integers(1, 8), label="n")
    circuit = data.draw(phase_run_circuits(n), label="circuit")
    state = data.draw(random_states(n), label="state")
    got = run_circuit(circuit, state).amps
    want = run_gate_by_gate(circuit, state).amps
    assert got.tobytes() == want.tobytes()  # bits: -0.0 == 0.0 would pass a value comparison


@st.composite
def layer_circuits(draw, n):
    """Runs of controlled X/H/RY gates between uncontrolled gates and preparation trees.

    A run often keeps one target and mask and changes only the control value,
    so its cubes are disjoint, and sometimes repeats a cube or takes a new
    mask, so they overlap.
    """
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        part = draw(st.sampled_from(["run", "bare", "prep"] if n > 1 else ["bare", "prep"]))
        if part == "bare":
            ops.append(draw(gate_ops(n).filter(lambda op: op.kind != "PHASE" and not op.mask)))
        elif part == "prep":
            prep = build_preparation(draw(st.sets(st.integers(0, 2**n - 1), min_size=1)), n)
            ops.extend((prep if draw(st.booleans()) else invert_circuit(prep)).ops)
        else:
            op = None
            for _ in range(draw(st.integers(1, 16))):
                if op is None or draw(st.integers(0, 3)) == 0:
                    op = draw(gate_ops(n).filter(lambda op: op.kind != "PHASE" and op.mask))
                else:
                    kind = draw(st.sampled_from(["X", "H", "RY"]))
                    param = draw(st.floats(-2 * np.pi, 2 * np.pi)) if kind == "RY" else None
                    op = GateOp(kind, op.target, op.mask, draw(st.integers(0, op.mask)) & op.mask, param)
                ops.append(op)
    return Circuit(n, tuple(ops))


@settings(max_examples=300)
@given(st.data())
def test_layers_match_the_stride_kernel_bit_for_bit(data):
    n = data.draw(st.integers(1, 8), label="n")
    circuit = data.draw(layer_circuits(n), label="circuit")
    state = data.draw(random_states(n), label="state")
    got = run_circuit(circuit, state).amps
    want = run_gate_by_gate(circuit, state).amps
    assert got.tobytes() == want.tobytes()


def test_layers_tell_signed_zero_angles_apart():
    # RY(0.0) and RY(-0.0) differ in the sign of a zero matrix entry, which
    # shows in the sign of a zero amplitude
    state = StateVector(2, [-0.0, -0.5, -0.0, -0.5])
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        circuit = Circuit(2, (GateOp("RY", 0, 0b10, 0, first), GateOp("RY", 0, 0b10, 0b10, second)))
        assert run_circuit(circuit, state).amps.tobytes() == run_gate_by_gate(circuit, state).amps.tobytes()


def test_wide_gates_and_split_batches_match_the_stride_kernel_bit_for_bit():
    # at n = 13 a gate with one control mixes 2^11 pairs, past NARROW_PAIRS,
    # and a preparation tree over 600 values lists more than BATCH_PAIRS pairs
    n = 13
    rng = np.random.default_rng(1813)
    prep = build_preparation(rng.choice(2**n, size=600, replace=False).tolist(), n)
    parts = (random_circuit(n, 40, rng), prep, invert_circuit(prep), random_circuit(n, 40, rng))
    circuit = concat(*parts)
    widths = [1 << (n - 1 - op.mask.bit_count()) for op in circuit.ops if op.mask]
    assert max(widths) > NARROW_PAIRS and sum(w for w in widths if w <= NARROW_PAIRS) > BATCH_PAIRS
    compiled = CompiledCircuit(circuit)
    assert len(compiled) == len(circuit)
    state = StateVector(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
    want = run_gate_by_gate(circuit, state).amps.tobytes()
    assert run_circuit(circuit, state).amps.tobytes() == want
    assert run_circuit(compiled, state).amps.tobytes() == want
    # the parts compiled as one run as they do one after another
    in_turn = state
    for part in parts:
        in_turn = run_circuit(part, in_turn)
    in_parts = CompiledCircuit(*parts)
    assert len(in_parts) == len(circuit)
    assert run_circuit(in_parts, state).amps.tobytes() == in_turn.amps.tobytes() == want


def test_invert_circuit():
    rng = np.random.default_rng(13)
    circuit = random_circuit(3, 15, rng)
    u = circuit_to_matrix(concat(circuit, invert_circuit(circuit)))
    np.testing.assert_allclose(u, np.eye(8), atol=1e-10)


def test_unitarity_of_lowering():
    rng = np.random.default_rng(14)
    circuit = random_circuit(4, 30, rng)
    u = circuit_to_matrix(circuit)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)


# --- textual format ----------------------------------------------------------


def test_export_bare_x():
    assert export_circuit(Circuit(1, (GateOp("X", 0),))) == "qubits: 1\nX 0 | controls:"


def test_export_controlled_phase_line():
    c = Circuit(2, (GateOp("PHASE", 0, 0b10, 0b00, np.pi),))
    assert export_circuit(c) == "qubits: 2\nPHASE(3.141592653589793) 0 | controls: -q1"


def test_export_mixed_polarity_controls():
    c = Circuit(4, (GateOp("RY", 2, 0b1010, 0b1000, 0.25),))
    assert export_circuit(c) == "qubits: 4\nRY(0.25) 2 | controls: -q1 +q3"
    assert parse_circuit("qubits: 4\nRY(0.25) 2 | controls: +q3 -q1") == c


def test_parse_export_identity_on_i0():
    c = build_I0(3, 1.234)
    assert parse_circuit(export_circuit(c)) == c


def test_round_trip_random_50_gates():
    c = random_circuit(5, 50, np.random.default_rng(15))
    assert parse_circuit(export_circuit(c)) == c


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_round_trip_property(n, n_gates, seed):
    c = random_circuit(n, n_gates, np.random.default_rng(seed))
    assert parse_circuit(export_circuit(c)) == c


def test_parse_unknown_gate():
    with pytest.raises(ParseError, match="line 2.*FOO"):
        parse_circuit("qubits: 1\nFOO 0 | controls:")


def test_parse_target_control_collision():
    with pytest.raises(ParseError, match="line 2"):
        parse_circuit("qubits: 2\nX 0 | controls: +q0")


def test_parse_duplicate_control():
    with pytest.raises(ParseError, match="line 2"):
        parse_circuit("qubits: 3\nX 0 | controls: +q1 -q1")


def test_parse_qubit_out_of_range_names_its_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_circuit("qubits: 2\nX 0 | controls: +q5")
    with pytest.raises(ParseError, match="line 3: qubit 7 out of range"):
        parse_circuit("qubits: 2\nX 0 | controls:\nH 7 | controls:")


def test_parse_refuses_a_header_above_the_cap():
    with pytest.raises(ParseError, match="line 1"):
        parse_circuit(f"qubits: {QC_MAX_QUBITS + 1}\nX 0 | controls:")


def test_parse_reads_zero_padded_numbers_of_any_length():
    pad = "0" * 5000
    c = parse_circuit(f"qubits: {pad}2\nX {pad}0 | controls: +q{pad}1")
    assert c == Circuit(2, (GateOp("X", 0, 0b10, 0b10),))


def test_parse_missing_header():
    with pytest.raises(ParseError):
        parse_circuit("X 0 | controls:")


def test_parse_bad_parameter():
    with pytest.raises(ParseError, match="line 2"):
        parse_circuit("qubits: 1\nPHASE(abc) 0 | controls:")


def test_parse_skips_comments_and_blanks():
    c = parse_circuit("# header comment\nqubits: 1\n\nX 0 | controls:\n")
    assert c == Circuit(1, (GateOp("X", 0),))


# --- op validation -----------------------------------------------------------


def test_gateop_validation():
    with pytest.raises(CircuitError):
        GateOp("X", 0, param=1.0)  # X takes no parameter
    with pytest.raises(CircuitError):
        GateOp("RY", 0)  # RY needs one
    with pytest.raises(CircuitError, match="target qubit 1 also appears as a control"):
        GateOp("PHASE", 1, 0b10, 0, 1.0)  # target among controls
    with pytest.raises(CircuitError, match="qubit 3 out of range"):
        Circuit(1, (GateOp("X", 3),))  # qubit out of range
    with pytest.raises(CircuitError, match="qubit 3 out of range"):
        Circuit(2, (GateOp("X", 0, 0b1000, 0),))  # control out of range
    with pytest.raises(CircuitError):
        GateOp("X", 0, 0b10, 0b100)  # control value outside the mask
    with pytest.raises(CircuitError):
        GateOp("X", 0, -2, 0)  # negative mask
    with pytest.raises(CircuitError):
        GateOp("X", -1)  # negative target
    with pytest.raises(CircuitError):
        GateOp("X", 0, 2.0, 0)  # float mask
    # a bool or numpy target, mask and value become int and apply like it
    state = make_superposition(3, range(8))
    for loose, exact in (
        (GateOp("X", np.int64(0), np.int64(0b110), np.int64(0b010)), GateOp("X", 0, 0b110, 0b010)),
        (GateOp("X", 1, True, True), GateOp("X", 1, 1, 1)),
        (GateOp("X", True, 0b100, 0b100), GateOp("X", 1, 0b100, 0b100)),
        (GateOp("X", 0, np.int64(0b10), 0b10), GateOp("X", 0, 0b10, 0b10)),
        (GateOp("X", 2, 1, True), GateOp("X", 2, 1, 1)),
    ):
        assert loose == exact
        assert type(loose.target) is type(loose.mask) is type(loose.value) is int
        np.testing.assert_array_equal(
            run_circuit(Circuit(3, (loose,)), state).amps,
            run_circuit(Circuit(3, (exact,)), state).amps,
        )


def test_gateop_error_messages():
    cases = [
        (lambda: GateOp("CX", 0), "unknown gate kind 'CX'"),
        (lambda: GateOp("RY", 0), "RY requires a finite angle parameter"),
        (lambda: GateOp("PHASE", 0, param=float("-inf")), "PHASE requires a finite angle parameter"),
        (lambda: GateOp("X", 0, param=1.0), "X takes no parameter"),
        (lambda: GateOp("H", 0, param=0.0), "H takes no parameter"),
        (lambda: GateOp("X", 0, 2.0, 0), "target, mask and value must be integers"),
        (lambda: GateOp("X", "0"), "target, mask and value must be integers"),
        (lambda: GateOp("X", -1), "target, mask and value must be non-negative"),
        (lambda: GateOp("X", 0, -2, 0), "target, mask and value must be non-negative"),
        (lambda: GateOp("X", 0, 0b10, 0b100), "control values must lie inside the control mask"),
        (lambda: GateOp("PHASE", 1, 0b10, 0, 1.0), "target qubit 1 also appears as a control"),
    ]
    for make, message in cases:
        with pytest.raises(CircuitError) as info:
            make()
        assert str(info.value) == message


def test_gateop_stays_a_frozen_dataclass():
    op = GateOp("RY", np.int64(2), np.uint8(0b11), np.int32(0b01), np.float32(0.5))
    assert (type(op.target), type(op.mask), type(op.value), type(op.param)) == (int, int, int, float)
    exact = GateOp(kind="RY", target=2, mask=3, value=1, param=0.5)
    assert op == exact and hash(op) == hash(exact)
    assert repr(op) == "GateOp(kind='RY', target=2, mask=3, value=1, param=0.5)"
    assert [f.name for f in dataclasses.fields(GateOp)] == ["kind", "target", "mask", "value", "param"]
    assert GateOp("X", 1) == GateOp("X", 1, 0, 0, None)
    # replace builds through the same checks and conversions
    moved = dataclasses.replace(op, target=np.int64(5))
    assert moved == GateOp("RY", 5, 3, 1, 0.5) and type(moved.target) is int
    with pytest.raises(CircuitError, match="target qubit 0 also appears as a control"):
        dataclasses.replace(op, target=0)
    with pytest.raises(CircuitError, match="X takes no parameter"):
        dataclasses.replace(op, kind="X")
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.target = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        del op.param
    assert op == exact
    assert pickle.loads(pickle.dumps(op)) == op and copy.deepcopy(op) == op
    assert not hasattr(op, "__dict__")  # slots: a gate carries no per-instance dict


def test_gateop_angle_becomes_a_float():
    for loose, exact in ((np.float64(0.3), 0.3), (np.float32(0.5), 0.5), (True, 1.0), (2, 2.0)):
        op = GateOp("RY", 0, param=loose)
        assert type(op.param) is float and op.param == exact
    for bad in (np.float64("nan"), np.inf, None):
        with pytest.raises(CircuitError, match="finite angle"):
            GateOp("PHASE", 0, param=bad)


def test_numpy_and_bool_angles_round_trip():
    oracle = build_multi_oracle(MarkedSet(3, frozenset({1, 6})), np.float64(0.3))
    gates = Circuit(2, (GateOp("PHASE", 0, 0b10, 0b10, True), GateOp("RY", 1, param=np.float64(-2.5))))
    for circuit in (oracle, gates):
        text = export_circuit(circuit)
        assert "np." not in text and "True" not in text
        assert parse_circuit(text) == circuit
        assert export_circuit(parse_circuit(text)) == text


def test_gate_to_matrix_is_unitary():
    rng = np.random.default_rng(16)
    for _ in range(20):
        op = random_circuit(4, 1, rng).ops[0]
        u = gate_to_matrix(op, 4)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-12)


def test_phase_equal_helper_detects_global_phase():
    u = circuit_to_matrix(build_I0(2, 0.4))
    assert_phase_equal(np.exp(0.3j) * u, u)
