import numpy as np
import pytest

from qummsa.circuit import GateOp, gate_to_matrix, on_one, on_zero, random_circuit
from qummsa.errors import CircuitError
from qummsa.statevector import (
    StateVector,
    apply_gate,
    apply_rank1_reflection,
    canonical_global_phase,
    make_basis_state,
    make_superposition,
    measure_distribution,
    sample_indices,
    sample_measurement,
    sample_measurements,
    states_equal_up_to_global_phase,
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
    out = apply_gate(make_basis_state(2, 0), GateOp("X", 0))
    np.testing.assert_allclose(out.amps, [0, 1, 0, 0], atol=0)


def test_apply_phase_pi():
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    out = apply_gate(plus, GateOp("PHASE", 0, (), np.pi))
    np.testing.assert_allclose(out.amps, np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_apply_ry_half_pi():
    out = apply_gate(make_basis_state(1, 0), GateOp("RY", 0, (), np.pi / 2))
    np.testing.assert_allclose(out.amps, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15)


def test_apply_gate_rejects_bad_qubits():
    state = make_basis_state(2, 0)
    with pytest.raises(CircuitError):
        apply_gate(state, GateOp("X", 5))
    with pytest.raises(CircuitError):
        apply_gate(state, GateOp("X", 0, (on_one(0),)))


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
    np.testing.assert_allclose(measure_distribution(make_basis_state(2, 1)), [0, 1, 0, 0])
    state = make_superposition(2, {0, 2, 3})
    np.testing.assert_allclose(measure_distribution(state), [1 / 3, 0, 1 / 3, 1 / 3], atol=1e-15)


def test_sample_deterministic_outcome():
    state = make_basis_state(2, 2)
    assert all(sample_measurement(state, seed) == 2 for seed in (0, 1, 12345))


def test_sample_frequencies_uniform():
    state = make_superposition(2, range(4))
    samples = sample_measurements(state, 100_000, np.random.default_rng(1))
    freqs = np.bincount(samples, minlength=4) / len(samples)
    np.testing.assert_allclose(freqs, 0.25, atol=0.01)


def test_sample_never_hits_zero_amplitude():
    state = make_superposition(2, {0, 2, 3})
    samples = sample_measurements(state, 100_000, np.random.default_rng(2))
    assert np.count_nonzero(samples == 1) == 0


def test_sample_convergence_to_distribution():
    state = make_superposition(3, {0, 1, 4, 6, 7})
    samples = sample_measurements(state, 1_000_000, np.random.default_rng(3))
    freqs = np.bincount(samples, minlength=8) / len(samples)
    assert np.max(np.abs(freqs - measure_distribution(state))) < 5e-3


def test_sample_refuses_unnormalised_state():
    state = StateVector(2, 2.0 * make_superposition(2, range(4)).amps)  # norm 2
    with pytest.raises(CircuitError):
        sample_measurements(state, 10, np.random.default_rng(0))
    with pytest.raises(CircuitError):
        sample_indices(np.full(3, 0.5), 1, np.random.default_rng(0))


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(7)
    circuit = random_circuit(4, 1000, rng)
    state = make_superposition(4, range(16))
    for op in circuit.ops:
        state = apply_gate(state, op)
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
            apply_gate(sv, op).amps, gate_to_matrix(op, n) @ state, atol=1e-10
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
