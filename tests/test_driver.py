import math

import numpy as np
import pytest

from qummsa.driver import (
    Database,
    SampledEstimation,
    UniformEstimation,
    draw_sample,
    estimate_params,
    loop_failure_bound,
    run_qummsa,
)
from qummsa.errors import DataError
from qummsa.grover_long import support_probabilities
from qummsa.statevector import NORM_TOL


def full_database(n):
    return Database(tuple((str(v), v) for v in range(2**n)), n)


def test_database_validation():
    with pytest.raises(DataError):
        Database((), 3)
    with pytest.raises(DataError):
        Database((("a", 1), ("b", 1)), 3)
    with pytest.raises(DataError):
        Database((("a", 9),), 3)
    db = Database((("a", 1), ("b", 2)), 3)
    assert db.size == 2 and db.values == (1, 2)


def test_database_rank():
    db = Database((("a", 3), ("b", 7), ("c", 1)), 3)
    assert db.rank(3, "min") == 2
    assert db.rank(7, "min") == 3
    assert db.rank(3, "max") == 2
    assert db.rank(1, "min") == 1


def test_estimate_uniform_min():
    db = Database(tuple((str(v), v) for v in (1, 5, 47, 60)), 6)
    p = estimate_params(47, db, UniformEstimation(), "min")
    assert (p.m_est, p.n_est) == (48, 64)
    assert abs(p.beta - math.asin(math.sqrt(0.75))) < 1e-12


def test_estimate_uniform_max_matches_worked_example():
    db = Database(tuple((str(v), v) for v in (0, 2, 3)), 2)
    p = estimate_params(2, db, UniformEstimation(), "max")
    assert (p.m_est, p.n_est) == (2, 4)
    assert p.iterations == 1 and abs(p.phi - np.pi / 2) < 1e-9


def test_estimate_census_is_exact():
    db = Database(tuple((str(v), v) for v in (1, 5, 47, 60)), 6)
    p = estimate_params(47, db, SampledEstimation(None), "min")
    assert (p.m_est, p.n_est) == (3, 4)  # values <= 47 are {1, 5, 47}


def test_estimate_sampled_draws_and_clamps():
    rng = np.random.default_rng(0)
    db = Database(tuple((str(v), v) for v in range(16)), 4)
    p = estimate_params(3, db, SampledEstimation(5), "min", rng=rng)
    assert p.n_est == 5 and 1 <= p.m_est <= 5
    # clamp: a sample that misses every value <= d0 still yields M~ = 1
    tiny = Database(tuple((str(v), v) for v in range(8, 16)), 4)
    for seed in range(10):
        p = estimate_params(8, tiny, SampledEstimation(3), "min", rng=np.random.default_rng(seed))
        assert p.m_est >= 1


def test_sample_drawn_once_per_run():
    # repeated queries at the same threshold reuse the run's one sample, so
    # confirmation loops at the final value all carry the same estimate
    db = Database(tuple((str(v), v) for v in range(0, 64, 2)), 6)
    for seed in range(8):
        res = run_qummsa(
            db, c=3, strategy=SampledEstimation(9), rng=np.random.default_rng(seed)
        )
        assert res.success
        by_d0 = {}
        for rec in res.records:
            by_d0.setdefault(rec.d0, set()).add((rec.m_est, rec.n_est))
        assert all(len(v) == 1 for v in by_d0.values())
        assert all(rec.n_est == 9 for rec in res.records)


def test_draw_sample_deterministic():
    db = Database(tuple((str(v), v) for v in range(16)), 4)
    a = draw_sample(db, SampledEstimation(6), np.random.default_rng(3))
    b = draw_sample(db, SampledEstimation(6), np.random.default_rng(3))
    assert a == b and len(a) == 6
    assert draw_sample(db, SampledEstimation(None)) == db.values
    assert draw_sample(db, UniformEstimation()) == db.values


def test_estimate_validation():
    db = full_database(3)
    with pytest.raises(ValueError):
        estimate_params(2, db, UniformEstimation(), "sideways")
    with pytest.raises(ValueError):
        estimate_params(2, db, SampledEstimation(4), "min")  # rng required


def test_single_record_database():
    db = Database((("only", 5),), 3)
    res = run_qummsa(db, c=3, rng=np.random.default_rng(0))
    assert res.minimum == 5
    assert res.success
    assert res.main_loops == 3  # c straight confirmations


def test_monotone_descent(titanic):
    res = run_qummsa(titanic, c=3, strategy=SampledEstimation(None), rng=np.random.default_rng(8))
    d0s = [rec.d0 for rec in res.records]
    assert all(a >= b for a, b in zip(d0s, d0s[1:]))
    assert all(rec.measured <= rec.d0 for rec in res.records)
    improvements = [rec.measured for rec in res.records if rec.measured < rec.d0]
    assert improvements == sorted(improvements, reverse=True)
    assert res.minimum in set(titanic.values)


def test_cost_accounting_fields(titanic):
    res = run_qummsa(titanic, c=2, strategy=SampledEstimation(None), rng=np.random.default_rng(9))
    assert res.main_loops == len(res.records)
    # exact estimation: every attempt is accepted first try
    assert all(r.attempts == 1 for r in res.records)
    assert res.preparations == res.main_loops
    assert res.grover_iterations == sum(r.iterations for r in res.records)


def test_cost_accounting_with_retries(titanic):
    # misestimated fractions can need several attempts per loop; the counters
    # still reconcile attempt by attempt
    for seed in range(6):
        res = run_qummsa(titanic, c=3, strategy=UniformEstimation(), rng=np.random.default_rng(seed))
        assert res.success
        assert res.preparations == sum(r.attempts for r in res.records)
        assert res.grover_iterations == sum(r.iterations * r.attempts for r in res.records)


def test_conditional_success_bound_full_database():
    # with exact per-loop fractions the only failure mode is the interrupt
    db = full_database(4)
    trials = 1000
    streams = np.random.SeedSequence(123).spawn(trials)
    failures = sum(
        run_qummsa(db, c=3, rng=np.random.default_rng(s)).minimum != 0 for s in streams
    )
    bound = (0.5) ** 3
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert failures / trials <= bound + 3 * sigma


def test_mean_main_loops_tracks_log2n():
    db = full_database(6)
    trials = 500
    streams = np.random.SeedSequence(77).spawn(trials)
    loops = [run_qummsa(db, c=2, rng=np.random.default_rng(s)).main_loops for s in streams]
    assert abs(np.mean(loops) - 6.0) / 6.0 < 0.25


def test_max_mode(titanic):
    streams = np.random.SeedSequence(55).spawn(120)
    hits = sum(
        run_qummsa(
            titanic, c=3, strategy=SampledEstimation(None), mode="max",
            rng=np.random.default_rng(s),
        ).minimum
        == 63
        for s in streams
    )
    assert hits > 90


def test_uniform_strategy_titanic(titanic):
    # misestimated fractions make inner searches fallible but retries recover
    streams = np.random.SeedSequence(66).spawn(120)
    results = [
        run_qummsa(titanic, c=3, strategy=UniformEstimation(), rng=np.random.default_rng(s))
        for s in streams
    ]
    assert all(r.success for r in results)
    assert sum(r.minimum == 1 for r in results) > 90


def test_run_qummsa_validation(titanic):
    with pytest.raises(ValueError):
        run_qummsa(titanic, c=0)
    with pytest.raises(ValueError):
        run_qummsa(titanic, mode="diagonal")


@pytest.mark.parametrize(
    "r0,c,expected",
    [(2, 3, 0.125), (1, 5, 1.0), (10, 2, 0.01)],
)
def test_loop_failure_bound(r0, c, expected):
    assert loop_failure_bound(r0, c) == pytest.approx(expected)


def test_loop_failure_bound_validation():
    with pytest.raises(ValueError):
        loop_failure_bound(0, 3)


@pytest.mark.parametrize(
    "source,mode,strategy,seed,expected",
    [
        ("titanic", "min", UniformEstimation(), 1, (1, 7, 7)),
        ("titanic", "max", SampledEstimation(None), 2, (63, 8, 8)),
        ("titanic", "min", SampledEstimation(9), 3, (1, 6, 8)),
        ("sparse", "max", UniformEstimation(), 4, (1009, 5, 6)),
        ("sparse", "min", SampledEstimation(9), 5, (8, 6, 8)),
    ],
)
def test_seeded_runs_pinned(titanic, source, mode, strategy, seed, expected):
    # (minimum, main_loops, preparations), recorded with the dense
    # state-vector simulation
    db = titanic
    if source == "sparse":
        db = Database(tuple((f"v{i}", (389 * i + 71) % 1024) for i in range(40)), 10)
    res = run_qummsa(db, c=3, strategy=strategy, mode=mode, rng=np.random.default_rng(seed))
    assert (res.minimum, res.main_loops, res.preparations) == expected


def test_uniform_estimation_large_iteration_counts():
    # 572 values in 2^40: uniform estimation tunes every loop for d0/2^40, so
    # J runs to the hundreds of thousands on a 572-value support.  The loop
    # at d0 = 0 is tuned for 1/2^40 while 1 of 572 values is marked, and it
    # exhausts the retry cap: success is False, as with the step-by-step
    # recursion, and (main_loops, preparations) are that recursion's too
    db = Database(tuple((f"v{v}", v) for v in range(0, 4000, 7)), 40)
    res = run_qummsa(db, strategy=UniformEstimation(), rng=np.random.default_rng(1))
    assert (res.minimum, res.main_loops, res.preparations, res.success) == (0, 9, 87, False)
    assert max(rec.iterations for rec in res.records) > 100_000
    for rec in res.records:
        params = estimate_params(rec.d0, db, UniformEstimation())
        assert params.iterations == rec.iterations
        probs = support_probabilities(db.sorted_values <= rec.d0, params.phi, params.iterations)
        assert abs(probs.sum() - 1.0) < NORM_TOL
