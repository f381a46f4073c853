import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qummsa.driver import (
    Database,
    SampledEstimation,
    UniformEstimation,
    ascending_sample,
    estimate_params,
    run_qummsa,
)
from qummsa.errors import DataError
from qummsa.statevector import NORM_TOL

from helpers import loop_failure_bound, rank, run_qummsa_reference, support_probabilities


def full_database(n):
    return Database(map(str, range(2**n)), range(2**n), n)


def test_database_validation():
    with pytest.raises(DataError):
        Database((), (), 3)
    with pytest.raises(DataError):
        Database("ab", (1, 1), 3)
    with pytest.raises(DataError):
        Database("a", (9,), 3)
    db = Database("ab", (1, 2), 3)
    assert db.size == 2 and db.values.tolist() == [1, 2]


def test_database_rank():
    db = Database("abc", (3, 7, 1), 3)
    assert rank(db, 3, "min") == 2
    assert rank(db, 7, "min") == 3
    assert rank(db, 3, "max") == 2
    assert rank(db, 1, "min") == 1


def test_estimate_uniform_min():
    db = Database(map(str, (1, 5, 47, 60)), (1, 5, 47, 60), 6)
    p = estimate_params(47, db, UniformEstimation(), "min", sample=db.sorted_values)
    assert (p.m_est, p.n_est) == (48, 64)
    assert abs(p.beta - math.asin(math.sqrt(0.75))) < 1e-12


def test_estimate_uniform_max_matches_worked_example():
    db = Database(map(str, (0, 2, 3)), (0, 2, 3), 2)
    p = estimate_params(2, db, UniformEstimation(), "max", sample=db.sorted_values)
    assert (p.m_est, p.n_est) == (2, 4)
    assert p.iterations == 1 and abs(p.phi - np.pi / 2) < 1e-9


def test_estimate_census_is_exact():
    db = Database(map(str, (1, 5, 47, 60)), (1, 5, 47, 60), 6)
    p = estimate_params(47, db, SampledEstimation(None), "min", sample=db.sorted_values)
    assert (p.m_est, p.n_est) == (3, 4)  # values <= 47 are {1, 5, 47}


def test_estimate_sampled_draws_and_clamps():
    db = Database(map(str, range(16)), range(16), 4)
    sample = ascending_sample(db, SampledEstimation(5), np.random.default_rng(0))
    p = estimate_params(3, db, SampledEstimation(5), "min", sample=sample)
    assert p.n_est == 5 and 1 <= p.m_est <= 5
    # clamp: a sample that misses every value <= d0 still yields M~ = 1
    tiny = Database(map(str, range(8, 16)), range(8, 16), 4)
    for seed in range(10):
        sample = ascending_sample(tiny, SampledEstimation(3), np.random.default_rng(seed))
        p = estimate_params(8, tiny, SampledEstimation(3), "min", sample=sample)
        assert p.m_est >= 1


def test_sample_drawn_once_per_run():
    # repeated queries at the same threshold reuse the run's one sample, so
    # confirmation loops at the final value all carry the same estimate
    db = Database(map(str, range(0, 64, 2)), range(0, 64, 2), 6)
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


def test_ascending_sample_deterministic():
    db = Database(map(str, range(16)), range(16), 4)
    a = ascending_sample(db, SampledEstimation(6), np.random.default_rng(3))
    b = ascending_sample(db, SampledEstimation(6), np.random.default_rng(3))
    assert a.tolist() == b.tolist() and len(a) == 6
    assert ascending_sample(db, SampledEstimation(None)) is db.sorted_values
    assert ascending_sample(db, UniformEstimation()) is db.sorted_values


def test_estimate_validation():
    db = full_database(3)
    with pytest.raises(ValueError):
        estimate_params(2, db, UniformEstimation(), "sideways", sample=db.sorted_values)
    with pytest.raises(ValueError):
        ascending_sample(db, SampledEstimation(4))  # rng required


def test_single_record_database():
    db = Database(["only"], [5], 3)
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


@settings(max_examples=150)
@given(data=st.data())
def test_rank_descent_is_the_value_descent(data):
    # the same draws in the same order: the whole result, records included, for
    # values up to beyond 2^63, exact and misestimated fractions, and caps that fire
    n = data.draw(st.integers(1, 8) | st.integers(62, 70), label="n")
    top = st.integers(max(0, 2**n - 16), 2**n - 1)  # from 2^62 - 16 to 2^70 - 1 for the wide n
    values = data.draw(st.lists(st.integers(0, 2**n - 1) | top, min_size=1, max_size=12, unique=True))
    strategy = data.draw(st.sampled_from(
        [UniformEstimation(), SampledEstimation(None), *map(SampledEstimation, range(1, 6))]
    ))
    mode = data.draw(st.sampled_from(["min", "max"]), label="mode")
    c = data.draw(st.integers(1, 3), label="c")
    retry_cap = data.draw(st.integers(1, 3), label="retry_cap")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    db = Database([f"r{i}" for i in range(len(values))], values, n)
    got = run_qummsa(db, c, strategy, mode, np.random.default_rng(seed), retry_cap)
    assert got == run_qummsa_reference(db, c, strategy, mode, np.random.default_rng(seed), retry_cap)


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
        db = Database([f"v{i}" for i in range(40)], [(389 * i + 71) % 1024 for i in range(40)], 10)
    res = run_qummsa(db, c=3, strategy=strategy, mode=mode, rng=np.random.default_rng(seed))
    assert (res.minimum, res.main_loops, res.preparations) == expected


def test_uniform_estimation_large_iteration_counts():
    # 572 values in 2^40: uniform estimation tunes every loop for d0/2^40, so
    # J runs to the hundreds of thousands on a 572-value support.  The loop
    # at d0 = 0 is tuned for 1/2^40 while 1 of 572 values is marked, and it
    # exhausts the retry cap: success is False, as with the step-by-step
    # recursion, and (main_loops, preparations) are that recursion's too
    db = Database([f"v{v}" for v in range(0, 4000, 7)], range(0, 4000, 7), 40)
    res = run_qummsa(db, strategy=UniformEstimation(), rng=np.random.default_rng(1))
    assert (res.minimum, res.main_loops, res.preparations, res.success) == (0, 9, 87, False)
    assert max(rec.iterations for rec in res.records) > 100_000
    for rec in res.records:
        params = estimate_params(rec.d0, db, UniformEstimation(), sample=db.sorted_values)
        assert params.iterations == rec.iterations
        probs = support_probabilities(db.sorted_values <= rec.d0, params.phi, params.iterations)
        assert abs(probs.sum() - 1.0) < NORM_TOL


@pytest.mark.parametrize("mode,values,fewest", [("min", [3, 9], 4), ("max", [3, 2**1100 - 1], 1)])
def test_uniform_estimate_rounding_to_zero_is_refused_before_any_draw(mode, values, fewest):
    # fewest/2^1100 is below the smallest float; the run once divided by it
    # when d0 reached the wanted end, so whether it failed hung on the seed
    db = Database(["a", "b"], values, 1100)
    for seed in range(4):
        with pytest.raises(DataError, match=rf"n=1100: the uniform estimate {fewest}/2\^1100 rounds to 0"):
            run_qummsa(db, strategy=UniformEstimation(), mode=mode, rng=np.random.default_rng(seed))
    assert run_qummsa(db, strategy=SampledEstimation(), mode=mode, rng=np.random.default_rng(0)).success


def test_duplicate_report_is_not_quadratic():
    # one repeated value among 200k: found on the sorted array, not by a
    # count per value
    values = list(range(200_000))
    values[-1] = 123_456
    labels = [f"v{i}" for i in range(len(values))]
    start = time.perf_counter()
    message = r"duplicate data values \[123456\]: each value must be distinct"
    with pytest.raises(DataError, match=message):
        Database(labels, values, 18)
    assert time.perf_counter() - start < 2.0


def test_database_keeps_64_bit_values_exact():
    # 2^63 and up beside a small value would make numpy infer float64
    top = 2**63 + 3
    db = Database("abc", (7, 2**63 + 1, top), 64)
    assert db.sorted_values.tolist() == [7, 2**63 + 1, top]
    res = run_qummsa(db, strategy=SampledEstimation(None), mode="max", rng=np.random.default_rng(1))
    assert res.minimum == top and res.success
    with pytest.raises(DataError, match=rf"duplicate data values \[{top}\]"):
        Database("abc", (7, top, top), 64)


def test_sample_keeps_64_bit_values_exact():
    top = 2**63 + 3
    db = Database("abcd", (7, 9, 2**63 + 1, top), 64)
    strategy = SampledEstimation(3)
    drawn = set()
    for seed in range(40):
        held = ascending_sample(db, strategy, np.random.default_rng(seed))
        picks = np.random.default_rng(seed).choice(db.size, size=3, replace=True)
        sample = [db.values[i] for i in picks]  # drawn by index: no value rounded through float64
        drawn.add(min(sample) < 2**63 <= max(sample))
        assert held.dtype == db.sorted_values.dtype and held.tolist() == sorted(sample)
        for d0 in db.values:
            for mode, side in (("min", [v <= d0 for v in sample]), ("max", [v >= d0 for v in sample])):
                assert estimate_params(d0, db, strategy, mode, sample=held).m_est == max(sum(side), 1)
    assert drawn == {True, False}  # samples on one side of 2^63 and across it


def test_database_converts_loose_columns():
    db = Database(["a", "b", 3], [np.int64(5), True, 2], 3)
    assert tuple(zip(db.labels, db.values.tolist())) == (("a", 5), ("b", 1), ("3", 2))
    assert db.values.dtype == np.int64
    assert Database((4, 5.5), [1, 2], 2).labels == ("4", "5.5")
    labels = [f"row {i}" for i in range(2)]
    assert all(kept is label for kept, label in zip(Database(labels, [1, 2], 2).labels, labels))
    with pytest.raises(DataError, match="2 labels for 3 values"):
        Database("ab", (1, 2, 3), 3)


def test_database_takes_an_int64_column():
    column = np.array([9, 2**62, 0, 5], dtype=np.int64)
    db = Database("abcd", column, 63)
    assert db == Database("abcd", column.tolist(), 63)
    assert db.values.dtype == np.int64
    assert db.sorted_values.tolist() == [0, 5, 9, 2**62] and db.sorted_values.dtype == np.int64
    column[0] = 1  # the database holds no view of its input
    assert db.values[0] == 9 and db.sorted_values.tolist()[-1] == 2**62
    with pytest.raises(DataError, match=r"duplicate data values \[5\]"):
        Database("abc", np.array([5, 1, 5], dtype=np.int64), 3)
    with pytest.raises(DataError, match=r"values must lie in \[0, 7\]"):
        Database("ab", np.array([-1, 2], dtype=np.int64), 3)


@st.composite
def databases_and_thresholds(draw):
    value = st.one_of(st.integers(0, 2**12 - 1), st.integers(2**62, 2**70))
    values = draw(st.lists(value, min_size=1, max_size=40, unique=True))
    db = Database([f"v{i}" for i in range(len(values))], values, max(values).bit_length() or 1)
    d0 = draw(st.one_of(st.sampled_from(values), st.integers(0, 2**71)))  # inside or outside
    return db, d0


@settings(max_examples=300)
@given(
    databases_and_thresholds(),
    st.sampled_from(["min", "max"]),
    st.one_of(st.none(), st.integers(1, 50)),
    st.integers(0, 2**32),
)
def test_estimate_count_is_the_masked_sum(case, mode, sample_size, seed):
    db, d0 = case
    strategy = SampledEstimation(sample_size)
    held = ascending_sample(db, strategy, np.random.default_rng(seed))
    # object dtype: numpy would round 2^63 and up beside small values to float64
    sample = np.asarray(held.tolist(), dtype=object)
    count = int(np.sum(sample <= d0) if mode == "min" else np.sum(sample >= d0))
    params = estimate_params(d0, db, strategy, mode, sample=held)
    assert (params.m_est, params.n_est) == (max(count, 1), len(sample))
    side = [v <= d0 if mode == "min" else v >= d0 for v in db.values]
    assert rank(db, d0, mode) == sum(side)
