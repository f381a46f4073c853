import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qummsa.analysis import amplitude_recursion
from qummsa.driver import UniformEstimation, estimate_params
from qummsa import grover_long
from qummsa.errors import CircuitError
from qummsa.grover_long import (
    SearchParams,
    compute_params,
    final_amplitudes,
    grover_long_states,
    measure,
    run_grover_long,
    success_probability,
)
from qummsa.circuit import invert_circuit, run_circuit
from qummsa.oracles import (
    MarkedSet, ThresholdPredicate, build_I0, build_multi_oracle, build_preparation,
)
from qummsa.statevector import (
    NORM_TOL, StateVector, make_basis_state, make_superposition, sample_indices,
)

from helpers import (
    final_amplitudes_in_one_piece, outcome_runs, run_position, support_probabilities, zero_generator,
)


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
    # J = 2 is one more than the minimum at M/N = 2/4; the phase matched to it
    # still gives an exact search
    beta = math.asin(math.sqrt(2 / 4))
    p = SearchParams(2, 4, beta, 2 * math.asin(math.sin(math.pi / 10) / math.sin(beta)), 2)
    marked = MarkedSet(2, frozenset({2, 3}))
    final = run_grover_long(make_superposition(2, range(4)), marked, p)
    assert abs(success_probability(final, marked) - 1.0) < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        compute_params(0, 4)
    with pytest.raises(ValueError):
        compute_params(5, 4)


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
    assert compute_params(M, N).iterations == expected


def test_iteration_model_asymptote():
    j = compute_params(1, 10**6).iterations
    assert abs(j - (np.pi / 4) * 1000) / ((np.pi / 4) * 1000) < 0.05


def test_iteration_model_floor_branch_dominates():
    # documents the empirical resolution: the ceil branch never wins
    rng = np.random.default_rng(30)
    for _ in range(200):
        N = int(rng.integers(2, 10**6))
        M = int(rng.integers(1, N))
        p = compute_params(M, N)
        assert p.iterations >= math.ceil((math.pi - 6 * p.beta) / (4 * p.beta))


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
    # a matched phase needs J >= (pi/2 - beta)/(2 beta); J is the fewest such
    # counts, or one more where that bound is an exact integer
    rng = np.random.default_rng(31)
    for _ in range(100):
        N = int(rng.integers(2, 4096))
        M = int(rng.integers(1, N))
        p = compute_params(M, N)
        bound = (math.pi / 2 - p.beta) / (2 * p.beta)
        assert bound - 1e-9 <= p.iterations <= bound + 1 + 1e-9
        assert math.sin(math.pi / (4 * p.iterations + 2)) <= math.sin(p.beta) + 1e-12


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


def test_gates_mode_step_is_its_four_parts_bit_for_bit():
    # one circuit per iteration gives exactly the amplitudes of oracle,
    # unpreparation, I0 and preparation run one after another
    rng = np.random.default_rng(45)
    for n in [2, 3, 4, 5, 6, 7, 8] * 6:
        N = int(rng.integers(2, 2**n + 1))
        occ = sorted(int(v) for v in rng.choice(2**n, size=N, replace=False))
        marked = MarkedSet(n, frozenset(int(v) for v in rng.choice(occ, size=rng.integers(1, N + 1))))
        psi = make_superposition(n, occ)
        params = compute_params(int(rng.integers(1, N + 1)), N)
        prep = build_preparation(occ, n)
        parts = (build_multi_oracle(marked, params.phi), invert_circuit(prep),
                 build_I0(n, params.phi), prep)
        state = psi
        for got in grover_long_states(psi, marked, params, mode="gates"):
            for part in parts:
                state = run_circuit(part, state)
            state = StateVector(n, -state.amps)
            assert got.amps.tobytes() == state.amps.tobytes()  # bits: tells -0.0 from 0.0


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


@settings(max_examples=150)
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
        params = estimate_params(d0, titanic, UniformEstimation(), mode, sample=ordered)
        marked = ThresholdPredicate(mode, d0, titanic.n).marked_set()
        dense = run_grover_long(make_superposition(titanic.n, titanic.values), marked, params)
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


@settings(max_examples=200)
@given(mn=_counts, phi=_phis, iterations=st.integers(0, 300))
def test_final_amplitudes_match_recursion_trajectory(mn, phi, iterations):
    # the scalar call gives the last step; one array call over J = 0..iterations
    # gives the whole step-by-step trajectory
    M, N = mn
    trajectory = np.array(amplitude_recursion(M, N, phi, iterations))
    np.testing.assert_allclose(final_amplitudes(M, N, phi, iterations), trajectory[-1], atol=1e-12)
    a, b = final_amplitudes(M, N, phi, np.arange(iterations + 1))
    np.testing.assert_allclose(np.stack([a, b], axis=1), trajectory, atol=1e-12)


@settings(max_examples=100)
@given(cells=st.lists(st.tuples(_counts, _phis, st.integers(0, 2000)), min_size=1, max_size=20))
def test_final_amplitudes_array_matches_scalar(cells):
    M = np.array([float(m) for (m, _), _, _ in cells])
    N = np.array([float(n) for (_, n), _, _ in cells])
    phi = np.array([p for _, p, _ in cells])
    J = np.array([j for _, _, j in cells])
    a, b = final_amplitudes(M, N, phi, J)
    for k, ((m, n), p, j) in enumerate(cells):
        np.testing.assert_allclose((a[k], b[k]), final_amplitudes(m, n, p, j), atol=1e-12)


@settings(max_examples=200)
@given(
    mn=_counts,
    est=_counts.filter(lambda mn: mn[0] > 0),
    iterations=st.integers(0, 2**40),
)
def test_final_amplitudes_stay_unitary_at_large_iterations(mn, est, iterations):
    # phi tuned for another ratio keeps the state turning; nothing renormalises it
    M, N = mn
    assume(M * est[1] != est[0] * N)
    phi = compute_params(*est).phi
    for J in (iterations, np.array([iterations])):
        a, b = final_amplitudes(M, N, phi, J)
        np.testing.assert_allclose(M * abs(a) ** 2 + (N - M) * abs(b) ** 2, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "M,N,phi",
    [(0, 8, 1.3), (0, 1, math.pi), (8, 8, math.pi), (1, 1, math.pi), (5, 5, math.pi),
     (3, 8, 1e-12), (3, 8, 1e-100), (8, 8, 1e-12), (0, 8, 1e-12), (3, 8, 0.0)],
)
def test_final_amplitudes_finite_on_singular_cells(M, N, phi):
    # M = 0 and phi = 0 take q's limit 2 J s; at M = N and phi = pi the turn is
    # theta = pi; near phi = 0 it is nearly none
    with np.errstate(all="raise"):
        a, b = final_amplitudes(M, N, phi, np.arange(60))
        big = final_amplitudes(M, N, phi, np.array([2**40]))
    assert all(np.isfinite(x).all() for x in (a, b, *big))
    trajectory = np.array(amplitude_recursion(M, N, phi, 59))
    np.testing.assert_allclose(np.stack([a, b], axis=1), trajectory, atol=1e-12)
    np.testing.assert_allclose(final_amplitudes(M, N, phi, 59), trajectory[-1], atol=1e-12)


def test_final_amplitudes_broadcast_and_validation():
    a, b = final_amplitudes(np.array([[1.0], [2.0]]), 8, 1.3, np.array([0, 3, 5]))
    assert a.shape == b.shape == (2, 3)
    np.testing.assert_allclose(a[1, 2], final_amplitudes(2.0, 8, 1.3, 5)[0], atol=1e-15)
    for iterations in (-1, np.array([2, -1])):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            final_amplitudes(1, 4, 1.0, iterations)


def _bounds_of(mask) -> tuple[int, ...]:
    """The positions where a mask switches, walked one value at a time."""
    bounds, previous = [], False
    for i, flag in enumerate(mask.tolist()):
        if flag != previous:
            bounds.append(i)
            previous = flag
    return tuple(bounds + [len(mask)] if previous else bounds)


@st.composite
def _marked_masks(draw):
    # a min prefix, a max suffix or an arbitrary set, M = 0 and M = N included
    n = draw(st.integers(1, 5000), label="N")
    kind = draw(st.sampled_from(["prefix", "suffix", "arbitrary"]), label="kind")
    if kind == "arbitrary":
        density = draw(st.sampled_from([0.0, 0.001, 0.01, 0.3, 0.9, 1.0]), label="density")
        seed = draw(st.integers(0, 2**32), label="mask seed")
        return np.random.default_rng(seed).random(n) < density
    m = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)), label="M")
    return np.arange(n) < m if kind == "prefix" else np.arange(n) >= n - m


@st.composite
def _phases(draw, n):
    # the baselines' phi = pi at a random gamma, or the driver's tuned (phi, J)
    if draw(st.booleans(), label="grover"):
        return math.pi, draw(st.integers(0, math.isqrt(n) + 2), label="gamma")
    params = compute_params(draw(st.integers(1, n), label="M~"), n)
    return params.phi, params.iterations


@settings(max_examples=300, deadline=None)
@given(mask=_marked_masks(), data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_measure_matches_dense_reference_draw(mask, data, seed):
    phi, iterations = data.draw(_phases(mask.size))
    probs = support_probabilities(mask, phi, iterations)
    dense = int(sample_indices(probs, 1, np.random.default_rng(seed))[0])
    drawn = measure(_bounds_of(mask), mask.size, phi, iterations, np.random.default_rng(seed))
    if drawn != dense:
        # the closed-form steps and the cumsum may split only a u within
        # rounding of the step edge between the two positions
        u = np.random.default_rng(seed).random() * np.cumsum(probs)[-1]
        assert abs(np.cumsum(probs)[min(drawn, dense)] - u) < 1e-12, (drawn, dense)


@settings(max_examples=200, deadline=None)
@given(mask=_marked_masks(), data=st.data())
def test_outcome_runs_match_support_probabilities(mask, data):
    phi, iterations = data.draw(_phases(mask.size))
    runs, total = outcome_runs(_bounds_of(mask), mask.size, phi, iterations)
    lengths, probs = zip(*runs)
    np.testing.assert_allclose(
        np.repeat(probs, lengths), support_probabilities(mask, phi, iterations), rtol=0, atol=1e-12
    )
    assert abs(total - 1.0) <= NORM_TOL


def test_measure_and_dense_reference_agree_at_zero_draw():
    # u = 0 through a generator whose next double is 0.0; zero-probability
    # runs at u = 0 are covered in test_statevector
    for bounds, size in (((0, 3), 10), ((7, 10), 10), ((0, 0), 5), ((2, 4, 6, 9), 12)):
        mask = np.zeros(size, dtype=bool)
        for start, end in zip(bounds[::2], bounds[1::2]):
            mask[start:end] = True
        params = compute_params(max(int(mask.sum()), 1), size)
        dense = sample_indices(support_probabilities(mask, params.phi, params.iterations), 1, zero_generator())
        assert measure(bounds, size, params.phi, params.iterations, zero_generator()) == dense[0]


@pytest.mark.parametrize("scale", [1 - 1e-8, 1 + 1e-8, 1 + 1e-11])
def test_measure_refuses_a_total_off_one(monkeypatch, scale):
    # the amplitudes measure draws from off by the factor scale: outside
    # NORM_TOL the draw is refused, inside it the probabilities are drawn
    # from as they are
    exact = grover_long._amplitudes
    monkeypatch.setattr(
        grover_long, "_amplitudes", lambda *args: tuple(scale * x for x in exact(*args))
    )
    params = compute_params(3, 40)
    if abs(scale**2 - 1.0) > NORM_TOL:
        with pytest.raises(CircuitError, match="probabilities sum to"):
            measure((0, 3), 40, params.phi, params.iterations, np.random.default_rng(1))
        return
    runs, total = outcome_runs((0, 3), 40, params.phi, params.iterations)
    a, b = exact(3.0, 40.0, params.phi, params.iterations)
    pa, pb = abs(scale * a) ** 2, abs(scale * b) ** 2
    assert runs == [(0, pb), (3, pa), (37, pb)]
    assert total != 1.0
    for seed in range(20):
        drawn = measure((0, 3), 40, params.phi, params.iterations, np.random.default_rng(seed))
        assert drawn == run_position(np.random.default_rng(seed).random() * total, runs)
        assert 0 <= drawn < 3


@settings(max_examples=300, deadline=None)
@given(
    mask=_marked_masks(),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    scale=st.sampled_from([1.0, 1.0, 1.0, 1 - 1e-8, 1 + 1e-11]),
)
def test_measure_is_the_run_list_rule(mask, data, seed, scale):
    # the inline walk over the edges is run_position over outcome_runs,
    # position for position, and refuses the same totals with the same error
    phi, iterations = data.draw(_phases(mask.size))
    bounds = _bounds_of(mask)
    exact = grover_long._amplitudes
    with mock.patch.object(
        grover_long, "_amplitudes", lambda *args: tuple(scale * x for x in exact(*args))
    ):
        try:
            runs, total = outcome_runs(bounds, mask.size, phi, iterations)
        except CircuitError as refused:
            with pytest.raises(CircuitError) as raised:
                measure(bounds, mask.size, phi, iterations, np.random.default_rng(seed))
            assert str(raised.value) == str(refused)
            return
        drawn = measure(bounds, mask.size, phi, iterations, np.random.default_rng(seed))
    assert drawn == run_position(np.random.default_rng(seed).random() * total, runs)


_singular_cells = [
    (0, 8, 1.3, 5), (-0.0, 8, 1.3, 5), (8, 8, math.pi, 7), (1, 1, 1.1, 3), (3, 8, 0.0, 4),
    (3, 8, -0.0, 4), (0, 8, 0.0, 2), (3, 8, 1.3, 0), (0, 8, 0.0, 0), (8, 8, 0.0, 0),
]


@settings(max_examples=100)
@given(
    cells=st.lists(
        st.tuples(_counts, _phis, st.integers(0, 2**40)).map(lambda c: (*c[0], c[1], c[2])),
        min_size=1,
        max_size=20,
    )
)
def test_split_closed_form_keeps_its_bits(cells):
    # cached, uncached and array evaluations of the split parts give the bits
    # of the one-piece formula on the same ops (numpy's vector trig rounds
    # apart from math's, so array and scalar agree only to rounding: see
    # test_final_amplitudes_array_matches_scalar)
    # the cache is not cleared between cells, so -0.0 also meets the rotation of 0.0
    cells = _singular_cells + cells
    ops = grover_long._SCALAR_OPS
    grover_long._scalar_rotation.cache_clear()
    for M, N, phi, j in cells:
        reference = np.array(final_amplitudes_in_one_piece(float(M), float(N), phi, j, ops))
        uncached = grover_long._power(grover_long._rotation(float(M), float(N), phi, ops), phi, j, ops)
        for got in (uncached, final_amplitudes(M, N, phi, j), final_amplitudes(M, N, phi, j)):
            assert np.array(got).tobytes() == reference.tobytes(), (M, N, phi, j)
    M, N, phi = (np.array(column, dtype=float) for column in list(zip(*cells))[:3])
    J = np.array([j for *_, j in cells], dtype=np.int64)
    a, b = final_amplitudes(M, N, phi, J)
    ref_a, ref_b = final_amplitudes_in_one_piece(M, N, phi, J, grover_long._ARRAY_OPS)
    assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()


def test_scalar_rotation_is_cached_per_cell():
    grover_long._scalar_rotation.cache_clear()
    for j in range(50):
        final_amplitudes(3, 4096, math.pi, j)
        measure((0, 3), 4096, math.pi, j, np.random.default_rng(j))
    info = grover_long._scalar_rotation.cache_info()
    assert (info.misses, info.hits) == (1, 99)
    assert info.maxsize is not None


def test_measure_costs_nothing_of_size_n():
    # three marked values among 2^40: no array of the size is built
    params = compute_params(3, 2**40)
    gen = np.random.default_rng(1)
    tracemalloc.start()
    try:
        drawn = measure((0, 3), 2**40, params.phi, params.iterations, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 <= drawn < 3  # an exact search finds a marked value
    assert peak < 2**20
