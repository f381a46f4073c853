import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qummsa.baselines import (
    GROWTH_FACTOR_MAX, QesaConfig, draw_range, qesa_failure_model, run_dha_minimum, run_qesa,
)
from qummsa.driver import Database
from qummsa.errors import CircuitError
from qummsa.oracles import MarkedSet
from qummsa.statevector import StateVector, make_superposition


def test_config_validation():
    with pytest.raises(ValueError):
        QesaConfig(lam=1.0)
    with pytest.raises(ValueError):
        QesaConfig(lam=1.5)
    QesaConfig(lam=4 / 3)


def test_failure_model_first_round():
    assert qesa_failure_model(2, 3, 1) == pytest.approx(1 / 3)


def test_failure_model_everything_marked():
    for t in (1, 3, 8):
        assert qesa_failure_model(4, 4, t) == pytest.approx(0.0, abs=1e-12)


def test_failure_model_t6_near_tuned_rate():
    assert abs(qesa_failure_model(2, 3, 6) - 0.037) < 0.02


def test_failure_model_non_increasing():
    for M, N in [(2, 3), (1, 4), (3, 8), (10, 100)]:
        eps = [qesa_failure_model(M, N, t) for t in range(1, 12)]
        assert all(a >= b - 1e-15 for a, b in zip(eps, eps[1:]))


def test_failure_model_two_branch_form_small_t():
    # while the draw range is in (1, 2] the factor collapses to
    # lam^(1-t)(1-M/N) + (1-lam^(1-t)) cos^2(3 arcsin sqrt(M/N))
    M, N, lam = 10, 100, 4 / 3
    beta = math.asin(math.sqrt(M / N))
    for t in (2, 3):
        assert 1.0 < lam ** (t - 1) <= 2.0
        factor = qesa_failure_model(M, N, t, lam) / qesa_failure_model(M, N, t - 1, lam)
        closed = lam ** (1 - t) * (1 - M / N) + (1 - lam ** (1 - t)) * math.cos(3 * beta) ** 2
        assert factor == pytest.approx(closed, abs=1e-12)


def test_run_qesa_all_marked_succeeds_immediately():
    psi = make_superposition(2, range(4))
    trace = run_qesa(psi, MarkedSet(2, frozenset(range(4))), QesaConfig(), rng=0)
    assert trace.succeeded and trace.iterations[0].t == 1
    assert trace.iterations[0].gamma == 0  # the first draw range is [0, 1)


def test_run_qesa_first_round_failure_rate():
    # gamma is forced to 0 at t=1, so failure is the unamplified miss rate 1 - M/N
    psi = make_superposition(2, [0, 2, 3])
    marked = MarkedSet(2, frozenset({2, 3}))
    cfg = QesaConfig(max_t=1)
    streams = np.random.SeedSequence(5).spawn(20_000)
    fails = sum(
        not run_qesa(psi, marked, cfg, rng=np.random.default_rng(s)).succeeded
        for s in streams
    )
    p = fails / 20_000
    sigma = math.sqrt((1 / 3) * (2 / 3) / 20_000)
    assert abs(p - 1 / 3) < 3 * sigma


def test_run_qesa_trace_invariants():
    psi = make_superposition(3, [0, 2, 3, 5, 6])
    marked = MarkedSet(3, frozenset({0}))
    cfg = QesaConfig(max_t=20)
    sqrt_n = math.sqrt(5)
    for seed in range(30):
        trace = run_qesa(psi, marked, cfg, rng=np.random.default_rng(seed))
        for rec in trace.iterations:
            cap = min((4 / 3) ** (rec.t - 1), sqrt_n)
            assert 0 <= rec.gamma <= cap
        assert trace.preparations == len(trace.iterations)
        assert trace.oracle_calls == sum(r.gamma for r in trace.iterations)
        if trace.succeeded:
            assert trace.iterations[-1].success
            assert trace.result in marked.V


@pytest.mark.parametrize(
    "n,occupied,marked_v,seed",
    [
        (2, (0, 1, 2, 3), (1,), 3),
        (3, (0, 1, 2, 3, 4, 5, 6, 7), (2, 5, 6), 4),
        (3, (0, 2, 3, 5, 6), (0, 6), 5),
    ],
)
def test_run_qesa_matches_model_across_configurations(n, occupied, marked_v, seed):
    psi = make_superposition(n, occupied)
    marked = MarkedSet(n, frozenset(marked_v))
    M, N = len(marked_v), len(occupied)
    cfg = QesaConfig(max_t=5)
    trials = 10_000
    streams = np.random.SeedSequence(seed).spawn(trials)
    alive = np.zeros(6)
    for s in streams:
        trace = run_qesa(psi, marked, cfg, rng=np.random.default_rng(s))
        through = len(trace.iterations) - (1 if trace.succeeded else 0)
        alive[1 : through + 1] += 1
    for t in range(1, 6):
        model = qesa_failure_model(M, N, t)
        sigma = math.sqrt(max(model * (1 - model), 1e-9) / trials)
        assert abs(alive[t] / trials - model) < 3 * sigma, (t, alive[t] / trials, model)


def test_run_qesa_empirical_matches_model():
    # cumulative per-round failure within 3 sigma of the analytic model
    psi = make_superposition(2, [0, 2, 3])
    marked = MarkedSet(2, frozenset({2, 3}))
    cfg = QesaConfig(max_t=6)
    trials = 30_000
    streams = np.random.SeedSequence(11).spawn(trials)
    alive_at = np.zeros(7)
    for s in streams:
        trace = run_qesa(psi, marked, cfg, rng=np.random.default_rng(s))
        failed_through = len(trace.iterations) if not trace.succeeded else len(trace.iterations) - 1
        alive_at[1 : failed_through + 1] += 1
    for t in range(1, 7):
        model = qesa_failure_model(2, 3, t)
        emp = alive_at[t] / trials
        sigma = math.sqrt(model * (1 - model) / trials)
        assert abs(emp - model) < 3 * sigma, (t, emp, model)


# --- the classic minimum finder -------------------------------------------------


def test_dha_single_item():
    db = Database(["only"], [5], 3)
    res = run_dha_minimum(db, QesaConfig(), rng=0)
    assert res.minimum == 5
    assert res.grover_iterations == 0


def test_dha_titanic_majority(titanic):
    streams = np.random.SeedSequence(17).spawn(60)
    hits = sum(
        run_dha_minimum(titanic, QesaConfig(), rng=np.random.default_rng(s)).minimum == 1
        for s in streams
    )
    assert hits > 30


def test_dha_counters_consistent(titanic):
    res = run_dha_minimum(titanic, QesaConfig(), rng=np.random.default_rng(4))
    assert res.rounds == res.preparations
    assert res.time_used >= res.budget
    assert res.minimum in set(titanic.values)


def test_dha_hit_frequency_on_random_databases(capsys):
    # probabilistic by design: the frequency is reported, not pinned
    rng = np.random.default_rng(200)
    hits = 0
    runs = 1000
    for i in range(runs):
        values = sorted(int(v) for v in rng.choice(64, size=16, replace=False))
        db = Database(map(str, values), values, 6)
        res = run_dha_minimum(db, QesaConfig(), rng=np.random.default_rng(10_000 + i))
        hits += res.minimum == values[0]
    freq = hits / runs
    print(f"\nbaseline minimum-finder hit frequency on 16-item databases: {freq:.3f}")
    assert 0.0 <= freq <= 1.0


def test_dha_cost_scales_like_sqrt_n():
    # regression of mean total Grover iterations against sqrt(N)
    sizes = []
    costs = []
    for n in range(4, 11):
        N = 2**n
        db = Database(map(str, range(N)), range(N), n)
        streams = np.random.SeedSequence(100 + n).spawn(20)
        total = [
            run_dha_minimum(db, QesaConfig(), rng=np.random.default_rng(s)).grover_iterations
            for s in streams
        ]
        sizes.append(N)
        costs.append(np.mean(total))
    slope = np.polyfit(np.log(sizes), np.log(costs), 1)[0]
    assert 0.4 < slope < 0.65, slope


def test_run_qesa_refuses_non_uniform_start():
    skewed = StateVector(2, np.array([0.8, 0.6, 0.0, 0.0], dtype=complex))
    with pytest.raises(CircuitError, match="uniform"):
        run_qesa(skewed, MarkedSet(2, frozenset({1})), QesaConfig(), rng=0)


def test_run_qesa_seeded_traces_pinned():
    # values recorded with the dense state-vector simulation; index 5 is marked
    # but unoccupied
    psi = make_superposition(5, [1, 4, 6, 9, 13, 17, 20, 22, 27, 30])
    marked = MarkedSet(5, frozenset({4, 5, 27}))
    expected = {
        1: [(1, 0, 30, False), (2, 0, 30, False), (3, 0, 13, False), (4, 1, 4, True)],
        2: [(1, 0, 6, False), (2, 1, 4, True)],
        3: [(1, 0, 6, False), (2, 1, 27, True)],
    }
    for seed, rounds in expected.items():
        trace = run_qesa(psi, marked, QesaConfig(max_t=30), rng=np.random.default_rng(seed))
        assert [tuple(it) for it in trace.iterations] == rounds


def test_dha_seeded_runs_pinned(titanic):
    # (minimum, rounds, preparations, grover_iterations), recorded with the
    # dense state-vector simulation
    sparse = Database([f"v{i}" for i in range(40)], [(389 * i + 71) % 1024 for i in range(40)], 10)
    wide = Database([f"v{i}" for i in range(400)], [(389 * i + 71) % 4096 for i in range(400)], 12)
    cases = [
        (titanic, 1, (1, 27, 27, 38)),
        (titanic, 4, (1, 28, 28, 31)),
        (sparse, 1, (8, 29, 29, 36)),
        (sparse, 2, (8, 29, 29, 32)),
        (wide, 2, (1, 55, 55, 95)),
        (wide, 8, (1, 56, 56, 75)),
    ]
    for db, seed, expected in cases:
        res = run_dha_minimum(db, QesaConfig(), rng=np.random.default_rng(seed))
        assert (res.minimum, res.rounds, res.preparations, res.grover_iterations) == expected


def test_dha_rounds_allocate_no_length_n_array():
    # 2^18 values: one float64 array of their length is 2 MiB; a round draws
    # from the marked prefix's bounds and allocates none
    values = range(0, 2**20, 4)
    db = Database(map(str, values), values, 20)
    gen = np.random.default_rng(1)
    tracemalloc.start()
    try:
        res = run_dha_minimum(db, QesaConfig(), rng=gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rounds > 100
    assert peak < 2**18


@settings(max_examples=300)
@given(
    t=st.integers(1, 64),
    lam=st.floats(1.0, GROWTH_FACTOR_MAX, exclude_min=True),
    size=st.integers(1, 2**40),
    seed=st.integers(0, 2**64 - 1),
)
def test_gamma_draw_is_numpys_uniform(t, lam, size, seed):
    # numpy's uniform(0.0, x) is 0.0 + (x - 0.0) * next_double, and both
    # additions of 0.0 are exact: the one-call draw is the same double, and
    # the generators stay in step
    x = draw_range(t, lam, size)
    twin, gen = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        uniform, drawn = twin.uniform(0.0, x), x * gen.random()
        assert np.float64(uniform).tobytes() == np.float64(drawn).tobytes()
        assert int(uniform) == int(drawn)
    assert twin.bit_generator.state == gen.bit_generator.state


def test_draw_range_past_the_float_range_is_the_cap():
    # (4/3)^10000 is past the float range; the cap sqrt(10^6) bounds every round
    assert draw_range(10_001, 4 / 3, 1e6) == 1000.0


def test_failure_model_runs_past_the_float_range_of_the_draw():
    # 3,000 rounds: the uncapped range (4/3)^2999 overflows from round 2,469 on
    assert 0.0 <= qesa_failure_model(1.0, 4.0, 3000) <= 1.0


def test_draw_range_below_the_float_range_is_the_capped_power():
    for size in (1, 3, 1e6, 2**40, 1e300):
        for t in range(1, 2401):
            assert draw_range(t, GROWTH_FACTOR_MAX, size) == min(
                GROWTH_FACTOR_MAX ** (t - 1), math.sqrt(size)
            ), (t, size)
