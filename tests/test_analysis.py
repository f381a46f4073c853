import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qummsa import analysis

from qummsa.analysis import (
    ComplexityParams,
    SampleSpec,
    amplitude_recursion,
    dha_complexity,
    failure_contour_grid,
    grover_iterations_closed,
    grover_iterations_sum,
    grover_long_failure,
    min_sample_size,
    qesa_baseline,
    qesa_expected_gamma,
    qummsa_complexity,
    sampled_failure_curve,
    z_for_confidence,
)
from qummsa.grover_long import compute_params, run_grover_long, success_probability
from qummsa.oracles import MarkedSet
from qummsa.statevector import make_superposition

from helpers import qummsa_complexity_structured, sampled_failure_curve_by_ratio


def simulate_failure(n, occupied, marked_list, m_est, n_est):
    """Independent oracle: full state-vector run, failure = 1 - marked mass."""
    psi = make_superposition(n, occupied)
    marked = MarkedSet(n, frozenset(marked_list))
    final = run_grover_long(psi, marked, compute_params(m_est, n_est))
    return 1.0 - success_probability(final, marked)


def test_failure_worked_example():
    eps = grover_long_failure(2 / 3, 1 / 2)
    assert abs(eps - 0.037) < 1e-3
    sim = simulate_failure(2, [0, 2, 3], [2, 3], 2, 4)
    assert abs(eps - sim) < 1e-9


def test_failure_zero_on_diagonal():
    for r in np.linspace(0.02, 1.0, 50):
        assert grover_long_failure(r, r) < 1e-9


def test_failure_titanic_point(titanic):
    # d0 = 47: 30 of the 36 ages are <= 47, estimated fraction is 48/64
    eps = grover_long_failure(30 / 36, 48 / 64)
    marked = [v for v in range(64) if v <= 47]
    sim = simulate_failure(6, titanic.values, marked, 48, 64)
    assert abs(eps - sim) < 1e-9
    assert eps == pytest.approx(0.0020576, abs=1e-6)


def test_failure_matches_simulation_on_partial_databases():
    # the analytic path must track the simulator even when the register is
    # only partially occupied (N < 2^n) and the estimate is off in both ways
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        N = int(rng.integers(2, 2**n + 1))
        occ = sorted(int(v) for v in rng.choice(2**n, size=N, replace=False))
        M = int(rng.integers(1, N + 1))
        m_est = int(rng.integers(1, N + 1))
        analytic = grover_long_failure(M / N, m_est / N)
        sim = simulate_failure(n, occ, occ[:M], m_est, N)
        assert abs(analytic - sim) < 1e-9, (n, N, M, m_est)


def test_misestimation_point_validation():
    with pytest.raises(ValueError, match=r"ratio_true must lie in \(0, 1\], got 0.0"):
        grover_long_failure(0.0, 0.5)
    with pytest.raises(ValueError, match=r"ratio_est must lie in \(0, 1\], got 1.2"):
        grover_long_failure(0.5, 1.2)
    assert grover_long_failure(0.5, 0.5) < 1e-12


def test_contour_grid_diagonal_and_corner():
    _, grid = failure_contour_grid(16)
    assert grid.shape == (16, 16)
    np.testing.assert_allclose(np.diagonal(grid), 0.0, atol=1e-9)
    assert grid[-1, -1] == 0.0
    assert np.all((grid >= 0) & (grid <= 1))


def test_contour_grid_spot_checks_against_simulation():
    # resolution 16 makes every ratio realizable as M/256 at n = 8
    axis, grid = failure_contour_grid(16)
    rng = np.random.default_rng(31)
    psi = make_superposition(8, range(256))
    for _ in range(5):
        i, j = int(rng.integers(16)), int(rng.integers(16))
        m_true = round(axis[i] * 256)
        m_est = round(axis[j] * 256)
        sim = simulate_failure(8, range(256), range(m_true), m_est, 256)
        assert abs(grid[i, j] - sim) < 1e-6, (i, j)


def test_contour_grid_resolution_guard():
    with pytest.raises(ValueError):
        failure_contour_grid(5)


def per_cell_grid(true_axis, est_axis):
    return np.array([[grover_long_failure(rt, re_) for re_ in est_axis] for rt in true_axis])


@settings(max_examples=15)
@given(resolution=st.integers(10, 40))
def test_contour_grid_matches_per_cell_failure(resolution):
    axis, grid = failure_contour_grid(resolution)
    np.testing.assert_allclose(grid, per_cell_grid(axis, axis), rtol=0, atol=1e-13)


def test_contour_grid_matches_the_step_by_step_recursion():
    # every cell at every resolution 10..40 against 1 - r |a_J|^2 after J single steps
    for resolution in range(10, 41):
        axis, grid = failure_contour_grid(resolution)
        tuned = [compute_params(re_, 1.0) for re_ in axis.tolist()]
        want = [
            [1.0 - rt * abs(amplitude_recursion(rt, 1.0, p.phi, p.iterations)[-1][0]) ** 2
             for p in tuned]
            for rt in axis.tolist()
        ]
        np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12, err_msg=f"{resolution}")


def test_contour_grid_row_blocks(monkeypatch):
    # 100 cells per block at resolution 23: blocks of 4 rows, the last one of 3
    monkeypatch.setattr(analysis, "_GRID_BLOCK_CELLS", 100)
    axis, grid = failure_contour_grid(23)
    np.testing.assert_allclose(grid, per_cell_grid(axis, axis), rtol=0, atol=1e-13)


def test_contour_grid_temporaries_stay_small():
    # the grid itself is 2 MB; evaluated in one piece its complex temporaries
    # would take tens of MB
    tracemalloc.start()
    try:
        _, grid = failure_contour_grid(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes + 16 * 2**20


@pytest.mark.parametrize("bad", [0.0, -0.25, 1.0 + 1e-12, math.nan])
def test_array_path_refuses_ratios_outside_unit_interval(bad):
    # the same rule as grover_long_failure: no ratio outside (0, 1] is clipped
    spec = SampleSpec(z=1.96, error=0.05)
    with pytest.raises(ValueError, match=r"ratio_true must lie in \(0, 1\]"):
        sampled_failure_curve(spec, ratios=[0.5, bad], draws=10, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"ratio_est must lie in \(0, 1\]"):
        analysis._tuned(np.array([0.5, bad]))


# --- sample sizing --------------------------------------------------------------


@pytest.mark.parametrize(
    "confidence,error,expected",
    [(0.95, 0.05, 385), (0.99, 0.05, 664), (0.50, 0.1, 12)],
)
def test_min_sample_size_examples(confidence, error, expected):
    spec = SampleSpec(z=z_for_confidence(confidence), error=error)
    assert min_sample_size(spec) == expected


def test_min_sample_size_is_at_least_one():
    # Z^2 sigma^2 / E^2 > 0 for every valid spec, also where the quotient rounds to 0
    assert min_sample_size(SampleSpec(z=1e-300, error=0.5)) == 1
    assert min_sample_size(SampleSpec(z=z_for_confidence(0.5), error=0.5, sigma2=5e-324)) == 1


def test_z_fallback_uses_exact_quantile():
    assert z_for_confidence(0.9) == pytest.approx(1.6449, abs=1e-4)
    with pytest.raises(ValueError):
        z_for_confidence(1.5)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(z=-1.0, error=0.05)
    with pytest.raises(ValueError):
        SampleSpec(z=1.96, error=0.0)


# --- estimated-parameter curves ---------------------------------------------------


def test_qesa_expected_gamma():
    assert qesa_expected_gamma(1.0) == 0.0
    assert qesa_expected_gamma(2.0) == pytest.approx(0.5)  # gamma in {0,1} equally
    assert qesa_expected_gamma(1.5) == pytest.approx((0.5 / 1.5) * 1)


def test_curve_tiny_error_vanishes():
    spec = SampleSpec(z=1.96, error=0.002)
    curve = sampled_failure_curve(spec, ratios=[0.4], draws=50, rng=np.random.default_rng(1))
    assert curve[0] < 1e-3


def test_curve_smaller_error_smaller_failure():
    ratios = [0.2, 0.35, 0.5, 0.65]
    tight = sampled_failure_curve(
        SampleSpec(z=1.96, error=0.05), ratios=ratios, draws=400,
        rng=np.random.default_rng(2),
    )
    loose = sampled_failure_curve(
        SampleSpec(z=1.96, error=0.15), ratios=ratios, draws=400,
        rng=np.random.default_rng(3),
    )
    for a, b in zip(tight, loose):
        assert a <= b


def test_curve_baseline_above_tuned_mid_range():
    ratios = [0.2, 0.3, 0.4, 0.5]
    curve = sampled_failure_curve(
        SampleSpec(z=1.96, error=0.05), ratios=ratios, draws=300,
        rng=np.random.default_rng(4),
    )
    for eps_gl, eps_qesa in zip(curve, qesa_baseline(ratios)[1], strict=True):
        assert eps_qesa > eps_gl


@settings(max_examples=40, deadline=None)
@example(points=40, draws=1000, error=0.01, sigma2=0.25, seed=0)  # blocks of 16, 16 and 8 rows
@example(points=17, draws=1000, error=0.05, sigma2=0.25, seed=1)  # the last block one row
@example(points=3, draws=8192, error=0.05, sigma2=0.25, seed=2)  # two rows would be 16,384 cells
@example(points=3, draws=20000, error=0.02, sigma2=0.25, seed=3)  # one row, above a block
@given(
    points=st.integers(1, 60),
    draws=st.sampled_from([1, 2, 199, 200, 1000, 16383, 16384, 20000]),
    error=st.floats(0.005, 0.5),
    sigma2=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_curve_blocks_are_the_per_ratio_curve(points, draws, error, sigma2, seed):
    # the same draws in the same order, and every float the same bits, as one
    # ratio at a time; at most 200,000 draws an example keeps the test near 1 s
    if points * draws > 2 * 10**5:
        points = max(1, 2 * 10**5 // draws)
    ratios = np.linspace(1.0 / points, 1.0, points)
    spec = SampleSpec(z=1.96, error=error, sigma2=sigma2)
    curve = sampled_failure_curve(spec, ratios, draws, np.random.default_rng(seed))
    got = [
        {"ratio": r, "sample_size": min_sample_size(spec), "eps_grover_long": eps, "qesa_t": t, "eps_qesa": q}
        for r, eps, t, q in zip(ratios.tolist(), curve.tolist(), *qesa_baseline(ratios), strict=True)
    ]
    assert got == sampled_failure_curve_by_ratio(spec, ratios, draws, np.random.default_rng(seed))


def test_qesa_baseline_is_the_per_ratio_sum():
    # t from one cumulative sequence, out to the 179 rounds that J = 78,540 takes
    ratios = [1e-10, 1e-6, 1e-3, 0.3, 1.0]
    rounds, eps = qesa_baseline(ratios)
    ref = sampled_failure_curve_by_ratio(SampleSpec(z=1.96, error=0.5), ratios, 1, np.random.default_rng(0))
    assert (rounds, eps) == ([row["qesa_t"] for row in ref], [row["eps_qesa"] for row in ref])
    assert rounds[-1] == 1 and qesa_baseline([]) == ([], [])


def test_curve_memory_is_one_block():
    # about 180 B per draw held at once: all 200 x 1,000 draws in one piece
    # would take 36 MB, a block of 16 rows about 2.9 MB (3.8 MB traced with the rows)
    ratios = np.linspace(0.005, 1.0, 200)
    spec = SampleSpec(z=1.96, error=0.03)
    tracemalloc.start()
    try:
        sampled_failure_curve(spec, ratios, draws=1000, rng=np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180 * 200 * 1000 / 6


# --- complexity -------------------------------------------------------------------


def test_qummsa_complexity_direct_evaluation():
    report = qummsa_complexity(ComplexityParams(N=2**20, c=3, eps=0.1))
    lg = 20.0
    search = (math.pi / 2) * (2 + math.sqrt(2) + 3) * math.sqrt(2**20)
    prep = (lg + 3) * lg
    assert report.search_term == pytest.approx(search)
    assert report.prep_term == pytest.approx(prep)
    assert report.total == pytest.approx((search + prep) / 0.9)


def test_structured_complexity_degenerates_at_n1():
    report = qummsa_complexity_structured(ComplexityParams(N=1, c=0, eps=0.0))
    assert report.total == pytest.approx(0.0, abs=1e-12)


def test_structured_matches_flat_asymptotically():
    flat = qummsa_complexity(ComplexityParams(N=2**30, c=3, eps=0.0))
    structured = qummsa_complexity_structured(ComplexityParams(N=2**30, c=3, eps=0.0))
    assert structured.total == pytest.approx(flat.total, rel=1e-3)


def test_complexity_ratio_monotone_decreasing():
    ratios = []
    for k in range(8, 31):
        q = qummsa_complexity(ComplexityParams(N=2**k, c=3, eps=0.1)).total
        d = dha_complexity(2**k, eps=0.1).total
        ratios.append(q / d)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_dha_complexity_small_n_positive():
    report = dha_complexity(2)
    assert report.total > 0 and math.isfinite(report.total)


def test_prep_count_ratio_grows_like_log2n():
    # the baseline prepares ~log2(N)^2 times vs ~log2(N)+c here
    r15 = dha_complexity(2**15).prep_count / qummsa_complexity(
        ComplexityParams(N=2**15, c=3)
    ).prep_count
    r30 = dha_complexity(2**30).prep_count / qummsa_complexity(
        ComplexityParams(N=2**30, c=3)
    ).prep_count
    assert r30 / r15 == pytest.approx(2.0, rel=0.1)  # doubling log2(N) doubles the ratio


@pytest.mark.parametrize("m0_pow", [6, 8, 10, 14])
def test_closed_form_matches_explicit_sum(m0_pow):
    N = 2**20
    m0 = 2**m0_pow
    closed = grover_iterations_closed(N, m0)
    explicit = grover_iterations_sum(N, m0)
    assert abs(closed - explicit) / explicit < 0.02


def test_closed_vs_sum_discrepancy_surfaced_for_non_powers():
    # both values are exposed; for non-power m0 they genuinely differ
    closed = grover_iterations_closed(2**20, 96)
    explicit = grover_iterations_sum(2**20, 96)
    assert closed != pytest.approx(explicit, rel=0.02)


def test_amplitude_recursion_ratio_invariance():
    # only M/N matters: counts (3, 12) and fractions (0.25, 1.0) agree
    a = amplitude_recursion(3, 12, 1.1, 4)
    b = amplitude_recursion(0.25, 1.0, 1.1, 4)
    eps_counts = 1 - 3 * abs(a[-1][0]) ** 2
    eps_ratio = 1 - 0.25 * abs(b[-1][0]) ** 2
    assert eps_counts == pytest.approx(eps_ratio, abs=1e-12)


def test_complexity_params_validation():
    with pytest.raises(ValueError):
        ComplexityParams(N=0)
    with pytest.raises(ValueError):
        ComplexityParams(N=4, eps=1.0)
    with pytest.raises(ValueError):
        dha_complexity(1)
