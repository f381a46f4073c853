"""Acceptance suite: every release criterion, one test each, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 6 carries one strict-xfail cell: the reference
sample-size table contains a value (confidence 75%, error 0.03) that no
Z-statistic can produce consistently with the rest of its column; the test
documents the mismatch instead of hiding it.
"""

import math

import numpy as np
import pytest

from qummsa.analysis import (
    ComplexityParams,
    SampleSpec,
    dha_complexity,
    grover_iterations_closed,
    grover_iterations_sum,
    grover_long_failure,
    min_sample_size,
    qummsa_complexity,
    z_for_confidence,
)
from qummsa.baselines import QesaConfig, qesa_failure_model, run_qesa
from qummsa.circuit import circuit_to_matrix
from qummsa.dataio import titanic_database
from qummsa.driver import Database, SampledEstimation, run_qummsa
from qummsa.grover_long import compute_params, run_grover_long, success_probability
from qummsa.oracles import MarkedSet, build_multi_oracle
from qummsa.simplify import gate_cost, simplify_all
from qummsa.statevector import make_superposition

from conftest import assert_phase_equal


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE C{criterion:02d} PASS — {detail}")


def test_c01_worked_example_parameters():
    p = compute_params(2, 4)
    assert abs(p.beta - 0.7854) < 1e-4
    assert p.iterations == 1
    assert abs(p.phi - math.pi / 2) < 1e-9
    report(1, f"beta={p.beta:.6f}, J={p.iterations}, phi={p.phi:.9f}")


def test_c02_failure_rate_simulated_and_analytic():
    analytic = grover_long_failure(2 / 3, 1 / 2)
    psi = make_superposition(2, [0, 2, 3])
    marked = MarkedSet(2, frozenset({2, 3}))
    final = run_grover_long(psi, marked, compute_params(2, 4))
    simulated = 1.0 - success_probability(final, marked)
    assert abs(analytic - 0.037) < 1e-3
    assert abs(simulated - 0.037) < 1e-3
    assert abs(analytic - simulated) < 1e-9
    report(2, f"eps analytic={analytic:.6f}, simulated={simulated:.6f}")


def test_c03_zero_failure_exactness():
    worst = 0.0
    for n in range(1, 9):
        N = 2**n
        psi = make_superposition(n, range(N))
        for M in range(1, N + 1):
            marked = MarkedSet(n, frozenset(range(M)))
            final = run_grover_long(psi, marked, compute_params(M, N))
            worst = max(worst, abs(success_probability(final, marked) - 1.0))
    assert worst < 1e-9
    report(3, f"n in [1,8], all M: worst deviation from certainty {worst:.2e}")


def test_c04_recursion_matches_simulation_grid():
    n, N = 8, 256
    counts = sorted(set(int(round(x)) for x in np.linspace(1, N, 20)))
    assert len(counts) == 20
    psi = make_superposition(n, range(N))
    worst = 0.0
    for m_true in counts:
        marked = MarkedSet(n, frozenset(range(m_true)))
        for m_est in counts:
            analytic = grover_long_failure(m_true / N, m_est / N)
            final = run_grover_long(psi, marked, compute_params(m_est, N))
            simulated = 1.0 - success_probability(final, marked)
            worst = max(worst, abs(analytic - simulated))
    assert worst < 1e-9
    report(4, f"20x20 misestimation grid at n=8: max |analytic - simulated| = {worst:.2e}")


def test_c05_qesa_monte_carlo_matches_model():
    trials = 100_000
    psi = make_superposition(2, [0, 2, 3])
    marked = MarkedSet(2, frozenset({2, 3}))
    cfg = QesaConfig(max_t=8)
    streams = np.random.SeedSequence(2024).spawn(trials)
    still_failing = np.zeros(9)
    for s in streams:
        trace = run_qesa(psi, marked, cfg, rng=np.random.default_rng(s))
        through = len(trace.iterations) - (1 if trace.succeeded else 0)
        still_failing[1 : through + 1] += 1
    details = []
    for t in range(1, 9):
        model = qesa_failure_model(2, 3, t)
        emp = still_failing[t] / trials
        sigma = math.sqrt(model * (1 - model) / trials)
        assert abs(emp - model) < 3 * sigma, (t, emp, model, sigma)
        details.append(f"t{t}:{(emp - model) / sigma:+.2f}s")
    eps6 = qesa_failure_model(2, 3, 6)
    assert abs(eps6 - 0.037) < 0.02
    report(5, f"per-round deviations {' '.join(details)}; eps(6)={eps6:.4f}")


# Reference minimum-sample-size table: h for (acceptable error, confidence).
SAMPLE_TABLE = {
    0.01: {0.50: 1140, 0.75: 3307, 0.80: 4096, 0.85: 5184, 0.95: 9604, 0.99: 16590, 0.999: 19741},
    0.03: {0.50: 127, 0.75: 358, 0.80: 456, 0.85: 576, 0.95: 1068, 0.99: 1844, 0.999: 2194},
    0.05: {0.50: 46, 0.75: 133, 0.80: 164, 0.85: 208, 0.95: 385, 0.99: 664, 0.999: 790},
    0.1: {0.50: 12, 0.75: 34, 0.80: 41, 0.85: 52, 0.95: 97, 0.99: 166, 0.999: 198},
    0.15: {0.50: 6, 0.75: 15, 0.80: 19, 0.85: 24, 0.95: 43, 0.99: 74, 0.999: 88},
    0.2: {0.50: 3, 0.75: 9, 0.80: 11, 0.85: 13, 0.95: 25, 0.99: 42, 0.999: 50},
}
INCONSISTENT_CELL = (0.03, 0.75)  # 358 printed; the column's Z implies 368


def test_c06_sample_size_table():
    checked = 0
    for error, row in SAMPLE_TABLE.items():
        for confidence, expected in row.items():
            if (error, confidence) == INCONSISTENT_CELL:
                continue
            h = min_sample_size(SampleSpec(z=z_for_confidence(confidence), error=error))
            assert abs(h - expected) <= 1, (error, confidence, h, expected)
            checked += 1
    assert checked == 41
    report(6, "41/42 cells within +/-1; cell (E=0.03, C=75%) tracked as known-inconsistent")


@pytest.mark.xfail(
    strict=True,
    reason="tabulated value 358 is inconsistent with its own column: the 0.01 row "
    "forces Z in (1.14996, 1.15004] giving h = 368, and no Z satisfies both",
)
def test_c06_sample_size_known_inconsistent_cell():
    error, confidence = INCONSISTENT_CELL
    h = min_sample_size(SampleSpec(z=z_for_confidence(confidence), error=error))
    assert abs(h - SAMPLE_TABLE[error][confidence]) <= 1


def test_c07_titanic_reproduction():
    db = titanic_database()
    assert db.size == 36 and db.n == 6
    encodings = {v: format(v, "06b") for v in db.values}
    assert encodings[47] == "101111" and encodings[1] == "000001" and encodings[63] == "111111"

    trials = 1000
    streams = np.random.SeedSequence(4242).spawn(trials)
    failures = 0
    for s in streams:
        res = run_qummsa(
            db, c=3, strategy=SampledEstimation(None), rng=np.random.default_rng(s)
        )
        failures += res.minimum != 1
    bound = 0.5**3
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert failures / trials <= bound + 3 * sigma
    assert failures / trials < 0.5  # the minimum is found in the clear majority
    report(7, f"failure frequency {failures / trials:.4f} <= {bound + 3 * sigma:.4f}")


def test_c08_simplification_soundness_and_cost():
    for n in range(3, 7):
        for m in range(1, n):
            block = frozenset(range(2**m))
            raw = build_multi_oracle(MarkedSet(n, block), 0.7)
            out = simplify_all(raw)
            assert_phase_equal(circuit_to_matrix(out), circuit_to_matrix(raw), tol=1e-10)
            assert gate_cost(raw).n_two_qubit_equiv == 2 ** (n + m - 1), (n, m)
            assert gate_cost(out).n_two_qubit_equiv == 2 ** (n - m - 1), (n, m)
    report(8, "n in [3,6], m in [1,n-1]: unitary preserved; 2^(n+m-1) -> 2^(n-m-1)")


def test_c09_complexity_curves():
    ratios = []
    for k in range(8, 31):
        q = qummsa_complexity(ComplexityParams(N=2**k, c=3, eps=0.1)).total
        d = dha_complexity(2**k, eps=0.1).total
        ratios.append(q / d)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    for m0 in (64, 256, 1024, 4096, 2**14):
        closed = grover_iterations_closed(2**20, m0)
        explicit = grover_iterations_sum(2**20, m0)
        assert abs(closed - explicit) / explicit < 0.02, m0
    report(9, f"cost ratio falls {ratios[0]:.3f} -> {ratios[-1]:.3f}; closed form within 2%")


def test_c10_main_loop_expectation():
    # c = 2: the paper-level log2(N) expectation holds across the whole range
    # (larger c inflates small-N counts with confirmation loops; see ledger)
    trials = 1000
    details = []
    for n in range(4, 11):
        db = Database(map(str, range(2**n)), range(2**n), n)
        streams = np.random.SeedSequence(9000 + n).spawn(trials)
        loops = [
            run_qummsa(db, c=2, rng=np.random.default_rng(s)).main_loops for s in streams
        ]
        mean = float(np.mean(loops))
        assert abs(mean - n) / n < 0.25, (n, mean)
        details.append(f"n{n}:{mean:.2f}")
    report(10, f"mean main loops vs log2(N): {' '.join(details)}")
