"""Test-only helpers: circuits, state comparisons, models, and references for the failure curves, the exponential-search failure model, measurement, the uniform support, the threshold descent, CSV output, the preparation tree and the rewrite passes."""

import csv
import io
import math

import numpy as np

from qummsa.analysis import (
    CURVE_MODEL_N,
    ComplexityParams,
    ComplexityReport,
    SampleSpec,
    _check_ratios,
    _failure,
    _tuned,
    grover_iterations_closed,
    min_sample_size,
    qesa_expected_gamma,
)
from qummsa.baselines import GROWTH_FACTOR_MAX, draw_range, qesa_failure_model
from qummsa.circuit import GATE_KINDS, Circuit, GateOp, _apply_gate_inplace, _Frag
from qummsa.driver import (
    Database,
    LoopRecord,
    QummsaResult,
    _count_on_side,
    ascending_sample,
    estimate_params,
)
from qummsa.errors import CircuitError
from qummsa.grover_long import compute_params, final_amplitudes, measure
from qummsa.simplify import GateCostReport
from qummsa.statevector import NORM_TOL, StateVector, sorted_occupied


def concat(*circuits: Circuit) -> Circuit:
    n = circuits[0].n
    if any(c.n != n for c in circuits):
        raise CircuitError("cannot concatenate circuits with different qubit counts")
    ops: list[GateOp] = []
    for c in circuits:
        ops.extend(c.ops)
    return Circuit(n, tuple(ops))


def random_circuit(n: int, n_gates: int, rng) -> Circuit:
    """Arbitrary valid circuit; used by round-trip and norm-preservation tests."""
    gen = np.random.default_rng(rng)
    ops = []
    for _ in range(n_gates):
        kind = GATE_KINDS[gen.integers(len(GATE_KINDS))]
        target = int(gen.integers(n))
        others = [q for q in range(n) if q != target]
        gen.shuffle(others)
        n_ctrl = int(gen.integers(0, len(others) + 1))
        mask = sum(1 << q for q in others[:n_ctrl])
        value = sum(int(gen.integers(2)) << q for q in others[:n_ctrl])
        param = float(gen.uniform(-2 * np.pi, 2 * np.pi)) if kind in ("RY", "PHASE") else None
        ops.append(GateOp(kind, target, mask, value, param))
    return Circuit(n, tuple(ops))


def depth_first_preparation(occupied, n: int) -> Circuit:
    """``oracles.build_preparation`` as it emitted the RY tree before: depth first, zeros branch first."""
    occ = sorted_occupied(n, occupied)
    if len(occ) == 2**n:
        return Circuit(n, tuple(GateOp("H", q) for q in range(n)))

    ops: list[GateOp] = []

    def split(qubit: int, mask: int, value: int, members: list[int]) -> None:
        zeros = [m for m in members if not (m >> qubit) & 1]
        ones = [m for m in members if (m >> qubit) & 1]
        if ones and zeros:
            theta = 2.0 * math.atan2(math.sqrt(len(ones)), math.sqrt(len(zeros)))
            ops.append(GateOp("RY", qubit, mask, value, theta))
        elif ones:
            ops.append(GateOp("RY", qubit, mask, value, math.pi))
        if qubit == 0:
            return
        bit = 1 << qubit if ones and zeros else 0  # a certain branch adds no control
        if zeros:
            split(qubit - 1, mask | bit, value, zeros)
        if ones:
            split(qubit - 1, mask | bit, value | bit, ones)

    split(n - 1, 0, 0, occ)
    return Circuit(n, tuple(ops))


def run_gate_by_gate(circuit: Circuit, state: StateVector) -> StateVector:
    """The circuit applied one op at a time through the stride kernel."""
    amps = state.amps.copy()
    for op in circuit.ops:
        _apply_gate_inplace(amps, circuit.n, op)
    return StateVector(circuit.n, amps)


def canonical_global_phase(state: StateVector, tol: float = 1e-12) -> StateVector:
    """Rotate the global phase so the first nonzero amplitude is real-positive."""
    for a in state.amps:
        if abs(a) > tol:
            return StateVector(state.n, state.amps * (abs(a) / a))
    return state


def states_equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    if a.n != b.n:
        return False
    ca = canonical_global_phase(a)
    cb = canonical_global_phase(b)
    return bool(np.max(np.abs(ca.amps - cb.amps)) < tol)


def rank(db: Database, value: int, mode: str = "min") -> int:
    """1-based rank of ``value`` in ``db`` from the relevant end."""
    return _count_on_side(db.sorted_values, value, mode)


def run_qummsa_reference(db, c, strategy, mode, rng, retry_cap) -> QummsaResult:
    """``driver.run_qummsa`` as it kept d0's value: one bisection per loop, and values compared."""
    gen = np.random.default_rng(rng)

    ordered = db.sorted_values
    sample = ascending_sample(db, strategy, gen)  # one sample serves the whole run
    d0 = int(db.values[gen.integers(db.size)])
    result = QummsaResult(minimum=d0, main_loops=0)

    def better(a: int, b: int) -> bool:
        return a < b if mode == "min" else a > b

    streak = 0
    while streak < c:
        params = estimate_params(d0, db, strategy, mode, sample=sample)
        marked = _count_on_side(ordered, d0, mode)
        bounds = (0, marked) if mode == "min" else (db.size - marked, db.size)
        d1 = None
        attempts = 0
        for _ in range(retry_cap):
            attempts += 1
            result.preparations += 1
            result.grover_iterations += params.iterations
            outcome = int(ordered[measure(bounds, db.size, params.phi, params.iterations, gen)])
            if not better(d0, outcome):
                d1 = outcome
                break
        if d1 is None:
            result.success = False
            break
        result.main_loops += 1
        result.records.append(
            LoopRecord(d0, params.m_est, params.n_est, params.iterations, d1, attempts)
        )
        if better(d1, d0):
            streak = 0
            result.descents += 1
            d0 = d1
        else:
            streak += 1
    result.minimum = d0
    return result


def loop_failure_bound(r0: int, c: int) -> float:
    """(1/r0)^c: chance of c consecutive repeats at a threshold of rank r0."""
    if r0 < 1 or c < 1:
        raise ValueError(f"need r0 >= 1 and c >= 1, got r0={r0}, c={c}")
    return (1.0 / r0) ** c


def qummsa_complexity_structured(params: ComplexityParams) -> ComplexityReport:
    """The cost of :func:`qummsa.analysis.qummsa_complexity`, assembled from its parts.

    A halving sweep plus c confirmations.  Differs from the flat form by the
    constant (pi/2)(2 + sqrt(2)) that it absorbs into its sqrt(N) term.  The
    sweep starts from N/2 marked values and degenerates to exactly 0 search
    cost at N = 1.
    """
    m0 = params.N / 2.0
    lg = math.log2(params.N)
    sweep = grover_iterations_closed(params.N, m0) if m0 >= 1 else 0.0
    confirmations = params.c * (math.pi / 2.0) * math.sqrt(params.N)
    prep = (lg + params.c) * lg
    return ComplexityReport(
        total=(sweep + confirmations + prep) / (1.0 - params.eps),
        search_term=sweep + confirmations,
        prep_term=prep,
        prep_count=lg + params.c,
    )


def sampled_failure_curve_by_ratio(spec: SampleSpec, ratios, draws: int = 200, rng=None) -> list[dict]:
    """``analysis.sampled_failure_curve`` as it stood before its row blocks, with the baseline in each row.

    One binomial draw, one tuning pass and one ``_failure`` evaluation per
    ratio, and the baseline's t summed from t = 1 for every ratio; each row is
    a row of ``sampled_failure_curve`` merged with the same ratio's row of
    ``qesa_baseline``.
    """
    gen = np.random.default_rng(rng)
    h = min_sample_size(spec)
    rows = []
    for r in _check_ratios("ratio_true", ratios):
        counts = gen.binomial(h, r, size=draws)
        phi, iterations = _tuned(np.maximum(counts, 1) / h)
        eps_vals = _failure(r, phi, iterations)
        j_budget = compute_params(r, 1.0).iterations
        t, cum = 1, 0.0
        while True:
            cum += qesa_expected_gamma(draw_range(t, GROWTH_FACTOR_MAX, CURVE_MODEL_N))
            if cum >= j_budget or t > 10_000:
                break
            t += 1
        rows.append(
            {
                "ratio": float(r),
                "sample_size": h,
                "eps_grover_long": float(np.mean(eps_vals)),
                "qesa_t": t,
                "eps_qesa": float(
                    qesa_failure_model(float(r) * CURVE_MODEL_N, CURVE_MODEL_N, t, GROWTH_FACTOR_MAX)
                ),
            }
        )
    return rows


def qesa_failure_model_reference(M: float, N: float, t: int, lam: float = GROWTH_FACTOR_MAX) -> float:
    """``baselines.qesa_failure_model`` as it stood with every round's miss factor worked out anew."""
    beta = math.asin(math.sqrt(M / N))
    eps = 1.0
    for s in range(1, t + 1):
        m = draw_range(s, lam, N)
        f = math.floor(m)
        factor = (1.0 / m) * (1.0 - M / N)
        for v in range(1, f):
            factor += (1.0 / m) * math.cos((2 * v + 1) * beta) ** 2
        if m > f:
            factor += ((m - f) / m) * math.cos((2 * f + 1) * beta) ** 2
        eps *= factor
    return eps


# The closed form in one piece, and the measurement rule as it stood with a run
# list: a dense form, the runs and the position in them; qummsa.grover_long
# must agree with these.


def final_amplitudes_in_one_piece(M, N, phi, iterations, ops):
    """``grover_long.final_amplitudes`` as it stood before its split, on the given ``ops``.

    ``ops`` is (sqrt, sin, cos, atan2, where) from math or from numpy, as
    the one formula took them; the split parts must give its bits.
    """
    sqrt, sin, cos, atan2, where = ops
    j = iterations
    r, rb = M / N, (N - M) / N
    s, c = sin(phi / 2), cos(phi / 2)
    v, w = sqrt(r) * abs(s), sqrt(rb + r * c * c)
    flip = v > w
    x = j * where(flip, -2.0 * atan2(w, v), 2.0 * atan2(v, w))
    singular = v * w == 0
    q = where(singular, 2.0 * s * j, s / where(singular, 1.0, v * w) * sin(x))
    sigma = where(flip, 1, 1 - 2 * (j & 1)) * (cos(j * phi) + 1j * sin(j * phi)) / sqrt(N)
    cos_x = cos(x)
    return sigma * (cos_x + q * (s * rb + 1j * c)), sigma * (cos_x - q * r * s)


def uniform_support(initial: StateVector) -> np.ndarray:
    """Ascending occupied indices of ``initial``; CircuitError unless it is uniform on them."""
    occupied = np.flatnonzero(initial.probabilities() > 1e-18)
    amp = 1.0 / math.sqrt(len(occupied))
    if np.max(np.abs(initial.amps[occupied] - amp)) > 1e-9:
        raise CircuitError("initial state must be uniform over its occupied indices")
    return occupied


def support_probabilities(is_marked: np.ndarray, phi: float, iterations: int) -> np.ndarray:
    """Outcome probability of each occupied value after a search from the uniform start.

    ``is_marked`` masks the ascending occupied values: the dense form of :func:`outcome_runs`.
    """
    is_marked = np.asarray(is_marked, dtype=bool)
    a, b = final_amplitudes(np.count_nonzero(is_marked), is_marked.size, phi, iterations)
    return np.where(is_marked, abs(a) ** 2, abs(b) ** 2)


def outcome_runs(bounds: tuple[int, ...], size: int, phi: float, iterations: int):
    """Outcome probabilities over ``size`` occupied values as (length, p) runs, and their total.

    Marked are the ascending positions [bounds[0], bounds[1]), [bounds[2],
    bounds[3]), ...: (0, M) for a min prefix, (size - M, size) for a max
    suffix.  A total off 1 by more than NORM_TOL raises CircuitError.
    """
    marked = sum(bounds[1::2]) - sum(bounds[::2])
    a, b = final_amplitudes(marked, size, phi, iterations)
    pa, pb = abs(a) ** 2, abs(b) ** 2
    total = marked * pa + (size - marked) * pb
    if abs(total - 1.0) > NORM_TOL:
        raise CircuitError(f"probabilities sum to {total!r}, not 1 within {NORM_TOL}")
    edges = (0, *bounds, size)
    return [(edges[i + 1] - edges[i], pa if i & 1 else pb) for i in range(len(edges) - 1)], total


def run_position(u: float, runs) -> int:
    """``statevector.sample_indices``' index rule over (length, p) runs, in O(len(runs)).

    In the run that holds u: start + ceil((u - c)/p) - 1, c the probability
    before it.  Zero-probability runs are skipped: u = 0 gives the first
    position of positive probability, a u past the total the last one.
    """
    start, cum, last = 0, 0.0, None
    for length, p in runs:
        if length and p > 0:
            top = cum + length * p
            if u <= top:
                return start + min(max(math.ceil((u - cum) / p), 1), length) - 1
            cum, last = top, start + length - 1
        start += length
    return last


def zero_generator() -> np.random.Generator:
    """A Generator whose next two doubles are exactly 0.0 (MT19937 tempers a zero word to zero)."""
    bits = np.random.MT19937(0)
    key = bits.state["state"]["key"].copy()
    key[:4] = 0
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


def format_csv(rows: list[dict], invocation: str) -> str:
    """Reference CSV rendering: the stamp line, then ``csv.DictWriter`` over ``rows``."""
    out = io.StringIO()
    out.write(f"# invocation: {invocation}\n")
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return out.getvalue()


# Principle 1 and principle 3 as they stood with an order list, set-based
# partitioning and a restarting pair search; the passes in qummsa.simplify must
# return what these return.


def partition_cubes_reference(minterms: set[int], bits: tuple[int, ...]) -> list[tuple[int, int]]:
    """Exact disjoint cover of a minterm set by cubes over ``bits``, two sets rebuilt per split."""
    if not minterms:
        return []
    if len(minterms) == 2 ** len(bits):
        return [(0, 0)]
    b = bits[-1]
    rest = bits[:-1]
    s0 = {m for m in minterms if not (m >> b) & 1}
    s1 = {m & ~(1 << b) for m in minterms if (m >> b) & 1}
    if s0 == s1:
        return partition_cubes_reference(s0, rest)
    out = [(mask | (1 << b), val) for mask, val in partition_cubes_reference(s0, rest)]
    out += [(mask | (1 << b), val | (1 << b)) for mask, val in partition_cubes_reference(s1, rest)]
    return out


def merge_blocks_reference(frags: list[_Frag], n: int) -> list[_Frag]:
    """Principle 1 on one run: re-cover each (phi, q0 parity) group by maximal cubes."""
    ctrl_bits = tuple(range(1, n))
    full_ctrl_mask = (2**n - 1) & ~1
    # group fragments by (phi, parity of q0); q0-free fragments pass through
    groups: dict[tuple[float, int], list[_Frag]] = {}
    order: list[tuple[str, object]] = []  # first-appearance order keeps the pass stable
    for f in frags:
        mask, value, phi, _ = f
        if mask & 1:
            key = (phi, value & 1)
            if key not in groups:
                groups[key] = []
                order.append(("group", key))
            groups[key].append(f)
        else:
            order.append(("pass", f))
    out: list[_Frag] = []
    for tag, entry in order:
        if tag == "pass":
            out.append(entry)
            continue
        phi, q0bit = entry
        minterms: set[int] = set()
        count = 0
        for mask, value, _, _ in groups[entry]:
            free = [q for q in ctrl_bits if not (mask >> q) & 1]
            count += 2 ** len(free)
            for k in range(2 ** len(free)):
                m = value & full_ctrl_mask
                for pos, q in enumerate(free):
                    if (k >> pos) & 1:
                        m |= 1 << q
                minterms.add(m)
        if len(minterms) != count:
            return frags  # overlapping marks: phases would stack, leave alone
        conj = "bare" if q0bit else "ctrl"
        for mask, value in partition_cubes_reference(minterms, ctrl_bits):
            out.append((mask | 1, value | q0bit, phi, conj))
    return out


def fuse_pairs_reference(frags: list[_Frag], n: int) -> list[_Frag]:
    """Principle 3 on one run: fuse pairs until no two cubes differ in one fixed bit."""
    frags = list(frags)
    changed = True
    while changed:
        changed = False
        for i in range(len(frags)):
            for j in range(i + 1, len(frags)):
                mi, vi, phii, _ = frags[i]
                mj, vj, phij, _ = frags[j]
                if phii != phij or mi != mj:
                    continue
                diff = vi ^ vj
                if diff and (diff & (diff - 1)) == 0 and mi & ~diff:
                    frags[i] = (mi & ~diff, vi & ~diff, phii, "bare")
                    del frags[j]
                    changed = True
                    break
            if changed:
                break
    return frags


def gate_cost_reference(circuit: Circuit) -> GateCostReport:
    """``simplify.gate_cost`` as it counted gate by gate from the circuit's ops."""
    multi = sum(1 for op in circuit.ops if op.mask.bit_count() >= 2)
    two_q = sum(2 ** op.mask.bit_count() for op in circuit.ops if op.kind == "PHASE")
    single = sum(1 for op in circuit.ops if not op.mask)
    return GateCostReport(multi, two_q, single)
