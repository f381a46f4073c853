import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qummsa.analysis import amplitude_recursion
from qummsa.driver import UniformEstimation, estimate_params
from qummsa.errors import CircuitError
from qummsa.grover_long import (
    SearchParams,
    compute_params,
    final_amplitudes,
    grover_long_states,
    iteration_branches,
    iteration_count_model,
    run_grover_long,
    success_probability,
    support_probabilities,
)
from qummsa.oracles import MarkedSet, ThresholdPredicate
from qummsa.statevector import make_basis_state, make_superposition


def test_params_two_of_four():
    p = compute_params(2, 4)
    assert abs(p.beta - 0.7854) < 1e-4
    assert p.iterations == 1
    assert abs(p.phi - np.pi / 2) < 1e-9


def test_params_one_of_four():
    p = compute_params(1, 4)
    assert abs(p.beta - np.pi / 6) < 1e-12
    assert p.iterations == 2  # the boundary case keeps the extra iteration
    assert abs(p.phi - 2 * math.asin(math.sin(np.pi / 10) / 0.5)) < 1e-12
    # still an exact search: simulate it
    final = run_grover_long(
        make_superposition(2, range(4)), MarkedSet(2, frozenset({2})), p
    )
    assert abs(success_probability(final, MarkedSet(2, frozenset({2}))) - 1.0) < 1e-10


def test_params_full_database():
    p = compute_params(4, 4)
    assert p.iterations == 0


def test_params_conservative_rule_still_exact():
    p = compute_params(2, 4, j_rule="beta")
    assert p.iterations == 2
    marked = MarkedSet(2, frozenset({2, 3}))
    final = run_grover_long(make_superposition(2, range(4)), marked, p)
    assert abs(success_probability(final, marked) - 1.0) < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        compute_params(0, 4)
    with pytest.raises(ValueError):
        compute_params(5, 4)
    with pytest.raises(ValueError):
        compute_params(2, 4, j_rule="banana")


def test_worked_example_success_mass():
    psi = make_superposition(2, [0, 2, 3])
    marked = MarkedSet(2, frozenset({2, 3}))
    final = run_grover_long(psi, marked, compute_params(2, 4))
    assert abs(success_probability(final, marked) - (1.0 - 0.037)) < 1e-3


def test_exact_single_target():
    marked = MarkedSet(2, frozenset({2}))
    final = run_grover_long(make_superposition(2, range(4)), marked, compute_params(1, 4))
    assert abs(success_probability(final, marked) - 1.0) < 1e-10


def test_zero_iterations_returns_initial():
    psi = make_superposition(2, range(4))
    out = run_grover_long(psi, MarkedSet(2, frozenset({1})), compute_params(4, 4))
    np.testing.assert_allclose(out.amps, psi.amps, atol=0)


def test_dimension_mismatch():
    with pytest.raises(CircuitError):
        run_grover_long(
            make_basis_state(3, 0), MarkedSet(2, frozenset({1})), compute_params(1, 4)
        )


def test_success_probability_values():
    marked = MarkedSet(2, frozenset({2, 3}))
    assert success_probability(make_basis_state(2, 2), marked) == 1.0
    assert abs(success_probability(make_superposition(2, range(4)), marked) - 0.5) < 1e-12


@pytest.mark.parametrize(
    "M,N,expected",
    [(2, 4, 1), (4, 4, 0)],
)
def test_iteration_model_small(M, N, expected):
    assert iteration_count_model(M, N) == expected


def test_iteration_model_asymptote():
    j = iteration_count_model(1, 10**6)
    assert abs(j - (np.pi / 4) * 1000) / ((np.pi / 4) * 1000) < 0.05


def test_iteration_model_floor_branch_dominates():
    # documents the empirical resolution: the ceil branch never wins
    rng = np.random.default_rng(30)
    for _ in range(200):
        N = int(rng.integers(2, 10**6))
        M = int(rng.integers(1, N))
        fb, cb = iteration_branches(M, N)
        assert fb >= cb
        assert iteration_count_model(M, N) == fb


def test_params_invariants_over_random_grid():
    rng = np.random.default_rng(32)
    for _ in range(200):
        N = int(rng.integers(2, 4096))
        M = int(rng.integers(1, N))
        p = compute_params(M, N)
        assert abs(math.sin(p.beta) ** 2 - M / N) < 1e-12
        assert 0.0 < p.phi <= math.pi + 1e-15
        assert p.iterations >= 1


def test_iteration_model_matches_params():
    rng = np.random.default_rng(31)
    for _ in range(100):
        N = int(rng.integers(2, 4096))
        M = int(rng.integers(1, N + 1))
        assert iteration_count_model(M, N) == compute_params(M, N).iterations


# --- exactness properties ------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_failure_uniform_database(n):
    N = 2**n
    psi = make_superposition(n, range(N))
    for M in range(1, N + 1):
        marked = MarkedSet(n, frozenset(range(M)))
        final = run_grover_long(psi, marked, compute_params(M, N))
        assert abs(success_probability(final, marked) - 1.0) < 1e-9, (n, M)


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2), (6, 3)])
def test_zero_failure_partial_database(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        N = int(rng.integers(2, 2**n + 1))
        occ = sorted(int(v) for v in rng.choice(2**n, size=N, replace=False))
        M = int(rng.integers(1, N + 1))
        marked = MarkedSet(n, frozenset(occ[:M]))
        psi = make_superposition(n, occ)
        final = run_grover_long(psi, marked, compute_params(M, N))
        assert abs(success_probability(final, marked) - 1.0) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mode_agreement(n, ):
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        N = int(rng.integers(2, 2**n + 1))
        occ = sorted(int(v) for v in rng.choice(2**n, size=N, replace=False))
        M = int(rng.integers(1, N + 1))
        m_est = int(rng.integers(1, N + 1))
        marked = MarkedSet(n, frozenset(occ[:M]))
        psi = make_superposition(n, occ)
        params = compute_params(m_est, N)
        a = run_grover_long(psi, marked, params, mode="rank1")
        b = run_grover_long(psi, marked, params, mode="gates")
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-9)


def test_amplitude_recursion_agreement():
    # simulated per-state amplitudes track the analytic recursion each iteration
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(2, 2**n + 1))
        occ = sorted(int(v) for v in rng.choice(2**n, size=N, replace=False))
        M = int(rng.integers(1, N + 1))
        m_est = int(rng.integers(1, N + 1))
        marked_list, unmarked_list = occ[:M], occ[M:]
        marked = MarkedSet(n, frozenset(marked_list))
        psi = make_superposition(n, occ)
        params = compute_params(m_est, N)
        expected = amplitude_recursion(M, N, params.phi, params.iterations)
        for j, state in enumerate(grover_long_states(psi, marked, params), start=1):
            a, b = expected[j]
            for v in marked_list:
                assert abs(state.amps[v] - a) < 1e-9
            for v in unmarked_list:
                assert abs(state.amps[v] - b) < 1e-9


def test_unoccupied_states_stay_empty():
    # marking basis states of zero amplitude must not leak probability into them
    psi = make_superposition(3, [0, 2, 3, 5])
    marked = MarkedSet(3, frozenset({0, 1, 2}))  # index 1 is unoccupied
    final = run_grover_long(psi, marked, compute_params(3, 4))
    assert abs(final.amps[1]) < 1e-12
    assert abs(final.amps[4]) < 1e-12
    occupied_marked = MarkedSet(3, frozenset({0, 2}))
    assert success_probability(final, marked) == pytest.approx(
        success_probability(final, occupied_marked)
    )


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_support_probabilities_match_dense_reference(data):
    # the reference may also mark unoccupied indices (as the baselines' oracles
    # do); an empty mask is represented by marking only unoccupied ones
    n = data.draw(st.integers(1, 7), label="n")
    occ = sorted(data.draw(st.sets(st.integers(0, 2**n - 1), min_size=1), label="occupied"))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(occ), max_size=len(occ))))
    free = sorted(set(range(2**n)) - set(occ))
    extra = data.draw(st.sets(st.sampled_from(free)) if free else st.just(set()), label="extra")
    marked = set(np.asarray(occ)[mask].tolist()) | extra
    assume(marked)
    phi = data.draw(st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True), label="phi")
    iterations = data.draw(st.integers(0, 20), label="J")
    params = SearchParams(float(mask.sum()), float(len(occ)), 0.0, phi, iterations)
    dense = run_grover_long(make_superposition(n, occ), MarkedSet(n, frozenset(marked)), params)
    np.testing.assert_allclose(
        support_probabilities(mask, phi, iterations), dense.probabilities()[occ], atol=1e-12
    )


@pytest.mark.parametrize("mode", ["min", "max"])
def test_support_probabilities_match_driver_reference(titanic, mode):
    # the reference is built exactly as the dense driver built it
    ordered = titanic.sorted_values
    for d0 in (int(ordered[3]), int(ordered[17]), int(ordered[-4])):
        params = estimate_params(d0, titanic, UniformEstimation(), mode)
        marked = ThresholdPredicate(mode, d0, titanic.n).marked_set()
        dense = run_grover_long(titanic.initial_state(), marked, params)
        mask = ordered <= d0 if mode == "min" else ordered >= d0
        np.testing.assert_allclose(
            support_probabilities(mask, params.phi, params.iterations),
            dense.probabilities()[ordered],
            atol=1e-12,
        )


@pytest.mark.parametrize("marked", [[4, 5, 27], [0]])
def test_support_probabilities_standard_grover_step(marked):
    # phi = pi is the baselines' phase inversion plus reflection about psi;
    # [0] marks only an unoccupied index, as the baseline does at the minimum
    occ = [1, 4, 6, 9, 13, 17, 20, 22, 27, 30]
    psi = make_superposition(5, occ).amps
    mask = np.isin(occ, marked)
    for gamma in range(12):
        s = psi.copy()
        for _ in range(gamma):
            s[marked] *= -1.0
            s = 2.0 * np.vdot(psi, s) * psi - s
        np.testing.assert_allclose(
            support_probabilities(mask, math.pi, gamma), np.abs(s[occ]) ** 2, atol=1e-12
        )


_counts = st.integers(1, 2**20).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))
_phis = st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True)


@settings(deadline=None, max_examples=200)
@given(mn=_counts, phi=_phis, iterations=st.integers(0, 300))
def test_final_amplitudes_match_recursion_trajectory(mn, phi, iterations):
    # the scalar call gives the last step; one array call over J = 0..iterations
    # gives the whole step-by-step trajectory
    M, N = mn
    trajectory = np.array(amplitude_recursion(M, N, phi, iterations))
    np.testing.assert_allclose(final_amplitudes(M, N, phi, iterations), trajectory[-1], atol=1e-12)
    a, b = final_amplitudes(M, N, phi, np.arange(iterations + 1))
    np.testing.assert_allclose(np.stack([a, b], axis=1), trajectory, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(cells=st.lists(st.tuples(_counts, _phis, st.integers(0, 2000)), min_size=1, max_size=20))
def test_final_amplitudes_array_matches_scalar(cells):
    M = np.array([float(m) for (m, _), _, _ in cells])
    N = np.array([float(n) for (_, n), _, _ in cells])
    phi = np.array([p for _, p, _ in cells])
    J = np.array([j for _, _, j in cells])
    a, b = final_amplitudes(M, N, phi, J)
    for k, ((m, n), p, j) in enumerate(cells):
        np.testing.assert_allclose((a[k], b[k]), final_amplitudes(m, n, p, j), atol=1e-12)


def test_final_amplitudes_broadcast_and_validation():
    a, b = final_amplitudes(np.array([[1.0], [2.0]]), 8, 1.3, np.array([0, 3, 5]))
    assert a.shape == b.shape == (2, 3)
    np.testing.assert_allclose(a[1, 2], final_amplitudes(2.0, 8, 1.3, 5)[0], atol=1e-15)
    for iterations in (-1, np.array([2, -1])):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            final_amplitudes(1, 4, 1.0, iterations)
