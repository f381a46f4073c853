import numpy as np
import pytest

from qummsa.circuit import circuit_to_matrix, concat, run_circuit
from qummsa.errors import CircuitError
from qummsa.oracles import (
    MarkedSet,
    ThresholdPredicate,
    build_I0,
    build_multi_oracle,
    build_preparation,
    build_single_oracle,
    build_threshold_oracle,
    dyadic_blocks,
)
from qummsa.statevector import make_basis_state, make_superposition


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


def test_dyadic_blocks():
    assert dyadic_blocks(list(range(48))) == [(0, 31), (32, 47)]
    assert dyadic_blocks([2, 3]) == [(2, 3)]
    assert dyadic_blocks([1, 3]) == [(1, 1), (3, 3)]
    assert dyadic_blocks([0, 5]) == [(0, 0), (5, 5)]
    assert dyadic_blocks(list(range(47, 64))) == [(47, 47), (48, 63)]


# --- preparation -------------------------------------------------------------


def test_preparation_three_of_four_structure():
    circuit = build_preparation([0, 2, 3], 2)
    # one rotation splitting the high qubit, one controlled rotation below
    assert [op.kind for op in circuit.ops] == ["RY", "RY"]
    assert circuit.ops[0].controls == ()
    assert circuit.ops[1].controls != ()
    out = run_circuit(circuit, make_basis_state(2, 0))
    s3 = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(out.amps, [s3, 0, s3, s3], atol=1e-12)


def test_preparation_full_occupancy_is_hadamards():
    circuit = build_preparation(range(8), 3)
    assert all(op.kind == "H" and not op.controls for op in circuit.ops)
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


def test_preparation_empty_rejected():
    with pytest.raises(CircuitError):
        build_preparation([], 2)
