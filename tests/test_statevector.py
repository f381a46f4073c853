import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qummsa.circuit import Circuit, GateOp, gate_to_matrix, run_circuit
from qummsa.errors import CircuitError
from qummsa.grover_long import compute_params, oracle_phase_step, run_grover_long
from qummsa.oracles import MarkedSet
from qummsa.statevector import (
    StateVector,
    apply_rank1_reflection,
    make_basis_state,
    make_superposition,
    sample_indices,
    sample_measurement,
)

from helpers import (
    canonical_global_phase,
    random_circuit,
    run_position,
    states_equal_up_to_global_phase,
    uniform_support,
    zero_generator,
)

S3 = 1.0 / np.sqrt(3.0)


@pytest.mark.parametrize(
    "n,index,expected",
    [
        (2, 0, [1, 0, 0, 0]),
        (1, 1, [0, 1]),
        (3, 5, [0, 0, 0, 0, 0, 1, 0, 0]),
    ],
)
def test_basis_states(n, index, expected):
    np.testing.assert_allclose(make_basis_state(n, index).amps, expected, atol=0)


def test_basis_state_out_of_range():
    with pytest.raises(CircuitError):
        make_basis_state(2, 4)


def test_superposition_three_of_four():
    state = make_superposition(2, {0, 2, 3})
    np.testing.assert_allclose(state.amps, [S3, 0, S3, S3], atol=1e-15)


def test_superposition_uniform():
    state = make_superposition(2, {0, 1, 2, 3})
    np.testing.assert_allclose(state.amps, [0.5] * 4, atol=1e-15)


def test_superposition_titanic(titanic):
    state = make_superposition(6, titanic.values)
    occupied = np.abs(state.amps) > 0
    assert occupied.sum() == 36
    np.testing.assert_allclose(state.amps[occupied], 1.0 / 6.0, atol=1e-15)
    assert (~occupied).sum() == 28


def test_superposition_empty_raises():
    with pytest.raises(CircuitError):
        make_superposition(3, set())


def test_apply_x_flips_lowest_bit():
    out = run_circuit(Circuit(2, (GateOp("X", 0),)), make_basis_state(2, 0))
    np.testing.assert_allclose(out.amps, [0, 1, 0, 0], atol=0)


def test_apply_phase_pi():
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    out = run_circuit(Circuit(1, (GateOp("PHASE", 0, param=np.pi),)), plus)
    np.testing.assert_allclose(out.amps, np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_apply_ry_half_pi():
    out = run_circuit(Circuit(1, (GateOp("RY", 0, param=np.pi / 2),)), make_basis_state(1, 0))
    np.testing.assert_allclose(out.amps, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15)


def test_apply_gate_rejects_bad_qubits():
    state = make_basis_state(2, 0)
    with pytest.raises(CircuitError):
        run_circuit(Circuit(2, (GateOp("X", 5),)), state)
    with pytest.raises(CircuitError):
        run_circuit(Circuit(2, (GateOp("X", 0, 0b1, 0b1),)), state)


def test_rank1_reflection_fixed_point():
    psi = make_superposition(2, range(4))
    out = apply_rank1_reflection(psi, psi, np.pi)
    np.testing.assert_allclose(out.amps, psi.amps, atol=1e-15)


def test_rank1_reflection_phi_zero_is_negation():
    psi = make_superposition(2, range(4))
    state = make_basis_state(2, 3)
    out = apply_rank1_reflection(state, psi, 0.0)
    np.testing.assert_allclose(out.amps, -state.amps, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank1_reflection_matches_dense_operator(n):
    # oracle: build -(e^{i phi}-1)|psi><psi| - I as an explicit matrix
    rng = np.random.default_rng(42 + n)
    for _ in range(10):
        dim = 2**n
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        phi = rng.uniform(0, 2 * np.pi)
        dense = -(np.exp(1j * phi) - 1.0) * np.outer(psi, psi.conj()) - np.eye(dim)
        np.testing.assert_allclose(dense.conj().T @ dense, np.eye(dim), atol=1e-12)
        expected = dense @ state
        out = apply_rank1_reflection(StateVector(n, state), StateVector(n, psi), phi)
        np.testing.assert_allclose(out.amps, expected, atol=1e-10)
        assert abs(out.norm() - 1.0) < 1e-12


def test_rank1_reflection_dimension_mismatch():
    with pytest.raises(CircuitError):
        apply_rank1_reflection(make_basis_state(2, 0), make_basis_state(3, 0), 1.0)


def test_measure_distribution():
    np.testing.assert_allclose(make_basis_state(2, 1).probabilities(), [0, 1, 0, 0])
    state = make_superposition(2, {0, 2, 3})
    np.testing.assert_allclose(state.probabilities(), [1 / 3, 0, 1 / 3, 1 / 3], atol=1e-15)


def test_sample_deterministic_outcome():
    state = make_basis_state(2, 2)
    assert all(sample_measurement(state, seed) == 2 for seed in (0, 1, 12345))


def test_sample_frequencies_uniform():
    state = make_superposition(2, range(4))
    samples = sample_indices(state.probabilities(), 100_000, np.random.default_rng(1))
    freqs = np.bincount(samples, minlength=4) / len(samples)
    np.testing.assert_allclose(freqs, 0.25, atol=0.01)


def test_sample_never_hits_zero_amplitude():
    state = make_superposition(2, {0, 2, 3})
    samples = sample_indices(state.probabilities(), 100_000, np.random.default_rng(2))
    assert np.count_nonzero(samples == 1) == 0


def test_sample_convergence_to_distribution():
    state = make_superposition(3, {0, 1, 4, 6, 7})
    samples = sample_indices(state.probabilities(), 1_000_000, np.random.default_rng(3))
    freqs = np.bincount(samples, minlength=8) / len(samples)
    assert np.max(np.abs(freqs - state.probabilities())) < 5e-3


def test_sample_refuses_unnormalised_state():
    state = StateVector(2, 2.0 * make_superposition(2, range(4)).amps)  # norm 2
    with pytest.raises(CircuitError):
        sample_indices(state.probabilities(), 10, np.random.default_rng(0))
    with pytest.raises(CircuitError):
        sample_indices(np.full(3, 0.5), 1, np.random.default_rng(0))


def test_zero_draw_skips_zero_probability_positions():
    # u = 0 would stop on a leading zero in a plain "first cdf >= u" search
    probs = np.array([0.0, 0.0, 0.0, 0.25, 0.0, 0.75])
    assert sample_indices(probs, 2, zero_generator()).tolist() == [3, 3]
    runs = [(3, 0.0), (0, 0.5), (1, 0.25), (1, 0.0), (1, 0.75)]
    assert run_position(0.0, runs) == 3
    assert run_position(0.0, [(2, 0.5)]) == 0


def test_run_position_is_the_dense_inverse_cdf():
    # dyadic probabilities: every step edge is exact, so edges compare too
    runs = [(2, 0.0), (3, 0.125), (0, 0.25), (4, 0.0), (2, 0.3125)]
    probs = np.repeat([p for _, p in runs], [n for n, _ in runs])
    cdf = np.cumsum(probs)
    draws = np.random.default_rng(5).random(2000).tolist() + cdf[cdf > 0].tolist()
    for u in draws:
        assert run_position(u, runs) == int(cdf.searchsorted(u, side="left"))
    assert run_position(0.125, runs) == 2
    assert run_position(1.0 + 1e-15, runs) == 10  # past the total: the last positive position


def test_sample_indices_moves_no_positive_draw():
    # the u = 0 rule changes nothing for u > 0
    probs = np.random.default_rng(9).dirichlet(np.ones(50)) * (np.arange(50) % 3 > 0)
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    for seed in range(50):
        u = np.random.default_rng(seed).random(20) * cdf[-1]
        want = np.minimum(cdf.searchsorted(u, side="left"), len(cdf) - 1)
        assert sample_indices(probs, 20, np.random.default_rng(seed)).tolist() == want.tolist()


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(7)
    circuit = random_circuit(4, 1000, rng)
    state = make_superposition(4, range(16))
    for op in circuit.ops:
        state = run_circuit(Circuit(4, (op,)), state)
    assert abs(state.norm() ** 2 - 1.0) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gate_application_matches_dense_matrix(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        circuit = random_circuit(n, 1, rng)
        op = circuit.ops[0]
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        sv = StateVector(n, state)
        np.testing.assert_allclose(
            run_circuit(Circuit(n, (op,)), sv).amps, gate_to_matrix(op, n) @ state, atol=1e-10
        )


def test_global_phase_canonicalization():
    state = make_superposition(2, {0, 2, 3})
    rotated = StateVector(2, state.amps * np.exp(0.7j))
    assert states_equal_up_to_global_phase(state, rotated)
    canon = canonical_global_phase(rotated)
    np.testing.assert_allclose(canon.amps, state.amps, atol=1e-12)
    assert not states_equal_up_to_global_phase(state, make_basis_state(2, 0))


def test_statevector_validation():
    with pytest.raises(CircuitError):
        StateVector(2, np.ones(3))
    with pytest.raises(CircuitError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(CircuitError, match="finite"):  # a strided view is checked too
        StateVector(1, np.array([0.0, 1.0, np.inf, 1.0], dtype=complex)[::2])


finite_amplitudes = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def handed_arrays(draw):
    """(n, what a caller hands to StateVector, the base of that array if it is a view, else None)."""
    n = draw(st.integers(1, 4))
    amps = np.array(draw(st.lists(finite_amplitudes, min_size=2**n, max_size=2**n)), dtype=np.complex128)
    kind = draw(st.sampled_from(["owned", "list", "float", "stride", "offset", "reversed", "state"]))
    if kind == "owned":
        return n, amps, None
    if kind == "list":
        return n, amps.tolist(), None
    if kind == "float":
        return n, amps.real.copy(), None
    if kind == "state":  # another state's read-only array
        return n, StateVector(n, amps).amps, None
    base = np.zeros(2 ** (n + 1), dtype=np.complex128)
    view = {"stride": base[::2], "offset": base[2**n:], "reversed": base[::-1][: 2**n]}[kind]
    view[:] = amps
    return n, view, base


@settings(max_examples=150)
@given(handed_arrays())
def test_a_state_owns_read_only_amplitudes(case):
    n, handed, base = case
    want = np.array(handed, dtype=np.complex128)  # the values, in a copy of our own
    state = StateVector(n, handed)
    assert state.amps.flags.owndata and not state.amps.flags.writeable
    assert state.amps.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        state.amps[0] = 1.0
    with pytest.raises(ValueError):
        state.amps *= 2.0
    if base is not None:  # a view is copied, so writing through its base changes nothing
        assert state.amps is not handed
        base[:] = 7.0
        handed[:] = -7.0
    elif isinstance(handed, np.ndarray) and handed.dtype == np.complex128:
        assert state.amps is handed  # adopted, not copied: a later write is refused
        with pytest.raises(ValueError):
            handed[-1] = 1.0
    elif isinstance(handed, np.ndarray):
        handed[:] = 7.0  # converted to a new array, which the state owns
    assert state.amps.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(handed_arrays(), st.floats(-2 * np.pi, 2 * np.pi), st.integers(0, 2**32 - 1))
def test_every_operation_returns_read_only_amplitudes(case, phi, seed):
    n, handed, _ = case
    state = StateVector(n, handed)
    psi = make_superposition(n, range(0, 2**n, 2))
    outs = [
        run_circuit(random_circuit(n, 5, seed), state),
        apply_rank1_reflection(state, psi, phi),
        oracle_phase_step(state, MarkedSet(n, frozenset({2**n - 1})), phi),
        make_basis_state(n, seed % 2**n),
        make_superposition(n, {seed % 2**n, 0}),
    ]
    for out in outs:
        assert not out.amps.flags.writeable and out.amps.flags.owndata


@pytest.mark.parametrize("mode", ["rank1", "gates"])
def test_run_grover_long_returns_read_only_amplitudes(mode):
    initial = make_superposition(4, [1, 3, 4, 9, 12])
    marked = MarkedSet(4, frozenset({3, 12}))
    final = run_grover_long(initial, marked, compute_params(2, 5), mode)
    assert not final.amps.flags.writeable and final is not initial
    assert run_grover_long(initial, marked, compute_params(5, 5), mode) is initial  # J = 0


@st.composite
def support_states(draw):
    """Uniform superpositions, ones nudged by a small or large amount, and arbitrary states."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return StateVector(n, draw(st.lists(finite_amplitudes, min_size=2**n, max_size=2**n)))
    occupied = sorted(draw(st.sets(st.integers(0, 2**n - 1), min_size=1)))
    state = make_superposition(n, occupied)
    if draw(st.booleans()):
        return state
    amps = state.amps.copy()
    nudge = draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-3])) * draw(st.sampled_from([1, -1, 1j]))
    amps[draw(st.integers(0, 2**n - 1))] += nudge
    return StateVector(n, amps)


def _outcome(support, state):
    try:
        return support(state)
    except (CircuitError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(support_states())
def test_uniform_support_is_the_scan_checked_once(state):
    want, got = _outcome(uniform_support, state), _outcome(StateVector.uniform_support, state)
    if isinstance(want, tuple):  # not uniform: the same error, on every call
        assert got == want and _outcome(StateVector.uniform_support, state) == want
        return
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert not got.flags.writeable
    assert state.uniform_support() is got  # kept, not scanned again


def test_a_skewed_state_is_refused_on_every_call():
    skewed = StateVector(2, np.array([0.8, 0.6, 0.0, 0.0], dtype=complex))
    for _ in range(3):
        with pytest.raises(CircuitError, match="initial state must be uniform over its occupied indices"):
            skewed.uniform_support()


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["copy", "deepcopy", "pickle"]
)
def test_a_copied_state_is_read_only_and_checks_its_support_again(duplicate):
    state = make_superposition(2, [0, 2, 3])
    state.uniform_support()
    dup = duplicate(state)
    assert dup.n == 2 and dup.amps.tolist() == state.amps.tolist()
    assert not dup.amps.flags.writeable
    with pytest.raises(ValueError):
        dup.amps[1] = 1.0
    assert dup._support is None  # a copy is checked again, not trusted
    assert dup.uniform_support().tolist() == [0, 2, 3]
