"""Exact-search engine: iteration/phase parameters and the amplification loop.

One iteration applies G = -(prepare)(conditional phase)(unprepare)(oracle).
With the matched phase phi and iteration count J computed from the solution
fraction M/N, measuring after J iterations finds a marked state with zero
theoretical failure rate; with estimated M~/N~ the failure rate is the one
modelled in :mod:`qummsa.analysis`.

The iteration count uses J = floor((pi/2 - beta)/(2*beta)) + 1 by default:
each iteration advances the state angle by 2*beta, so this is the smallest
count whose matched phase exists (j_rule="2beta").  The conservative variant
j_rule="beta" treats the advance as beta and roughly doubles J; both are
exact, since any J >= the minimum admits a matched phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import Circuit, run_circuit, invert_circuit
from .errors import CircuitError
from .oracles import MarkedSet, build_I0, build_multi_oracle, build_preparation
from .statevector import StateVector, apply_rank1_reflection

J_RULES = ("2beta", "beta")


@dataclass(frozen=True)
class SearchParams:
    """One Grover-Long run: estimated counts and derived (beta, phi, J)."""

    m_est: float
    n_est: float
    beta: float
    phi: float
    iterations: int


def compute_params(m_est: float, n_est: float, j_rule: str = "2beta") -> SearchParams:
    """Derive beta = arcsin(sqrt(M~/N~)), the iteration count J, and phi.

    M~ = N~ needs no amplification: J = 0 is returned and phi is unused
    (set to 0.0).
    """
    if j_rule not in J_RULES:
        raise ValueError(f"j_rule must be one of {J_RULES}, got {j_rule!r}")
    if not 0 < m_est <= n_est:
        raise ValueError(f"need 0 < M~ <= N~, got M~={m_est}, N~={n_est}")
    ratio = m_est / n_est
    beta = math.asin(math.sqrt(ratio))
    if ratio == 1.0:
        return SearchParams(m_est, n_est, beta, 0.0, 0)
    denom = 2.0 * beta if j_rule == "2beta" else beta
    # +1e-12 absorbs float spill just below exact-integer boundaries, where the
    # rule deliberately returns one more iteration than the minimum
    iterations = math.floor((math.pi / 2 - beta) / denom + 1e-12) + 1
    arg = math.sin(math.pi / (4 * iterations + 2)) / math.sin(beta)
    if arg > 1.0:
        if arg > 1.0 + 1e-12:
            raise ValueError(f"inconsistent parameters: arcsin argument {arg} > 1")
        arg = 1.0
    phi = 2.0 * math.asin(arg)
    return SearchParams(m_est, n_est, beta, phi, iterations)


def oracle_phase_step(state: StateVector, marked: MarkedSet, phi: float) -> StateVector:
    """Multiply the amplitudes of marked indices by e^{i phi}."""
    if marked.n != state.n:
        raise CircuitError(f"dimension mismatch: marked.n={marked.n}, state.n={state.n}")
    out = state.amps.copy()
    out[sorted(marked.V)] *= np.exp(1j * phi)
    return StateVector(state.n, out)


def grover_long_states(
    initial: StateVector,
    marked: MarkedSet,
    params: SearchParams,
    mode: str = "rank1",
    prep: Circuit | None = None,
) -> Iterator[StateVector]:
    """Yield the state after each of the J iterations (J = 0 yields nothing)."""
    if mode not in ("rank1", "gates"):
        raise ValueError(f"mode must be 'rank1' or 'gates', got {mode!r}")
    if marked.n != initial.n:
        raise CircuitError(f"dimension mismatch: marked.n={marked.n}, initial.n={initial.n}")

    if mode == "rank1":
        state = initial
        for _ in range(params.iterations):
            state = apply_rank1_reflection(
                oracle_phase_step(state, marked, params.phi), initial, params.phi
            )
            yield state
        return

    if prep is None:
        prep = build_preparation(uniform_support(initial).tolist(), initial.n)
    oracle = build_multi_oracle(marked, params.phi)
    i0 = build_I0(initial.n, params.phi)
    unprep = invert_circuit(prep)
    state = initial
    for _ in range(params.iterations):
        state = run_circuit(prep, run_circuit(i0, run_circuit(unprep, run_circuit(oracle, state))))
        state = StateVector(state.n, -state.amps)
        yield state


def run_grover_long(
    initial: StateVector,
    marked: MarkedSet,
    params: SearchParams,
    mode: str = "rank1",
    prep: Circuit | None = None,
) -> StateVector:
    """Apply G exactly J times; J = 0 returns the initial state unchanged."""
    state = initial.copy()
    for state in grover_long_states(initial, marked, params, mode, prep):
        pass
    return state


def uniform_support(initial: StateVector) -> np.ndarray:
    """Ascending occupied indices of ``initial``; CircuitError unless it is uniform on them."""
    occupied = np.flatnonzero(initial.probabilities() > 1e-18)
    amp = 1.0 / math.sqrt(len(occupied))
    if np.max(np.abs(initial.amps[occupied] - amp)) > 1e-9:
        raise CircuitError("initial state must be uniform over its occupied indices")
    return occupied


def _step_matrix(M, N, ph):
    """Entries (g00, g01, g10, g11) of one step (a, b) -> (g00 a + g01 b, g10 a + g11 b).

    With c = (ph - 1)/N the step is s = c (M ph a + (N - M) b), a' = -s - ph a,
    b' = -s - b: the oracle phases the good amplitudes, then the rank-1
    reflection mixes in the overlap with the initial state and the global sign
    flips.  Works on Python complex and on numpy arrays alike.
    """
    c = (ph - 1.0) / N
    return (-ph - c * M * ph, -c * (N - M), -c * M * ph, -1.0 - c * (N - M))


def _mul(g, h):
    """Product of two 2x2 matrices given as (x00, x01, x10, x11)."""
    return (
        g[0] * h[0] + g[1] * h[2],
        g[0] * h[1] + g[1] * h[3],
        g[2] * h[0] + g[3] * h[2],
        g[2] * h[1] + g[3] * h[3],
    )


def amplitude_recursion(
    M: float, N: float, phi: float, iterations: int
) -> list[tuple[complex, complex]]:
    """Per-state amplitudes (a_good, a_bad) after 0..iterations steps.

    Starts from a = b = 1/sqrt(N) and applies :func:`_step_matrix` once per
    step, with ph = e^{i phi}.  Only M/N matters, so fractional (M, N) such as
    (ratio, 1.0) are valid.  At phi = pi this is the standard Grover iteration.
    This step-by-step trajectory is the reference :func:`final_amplitudes` is
    tested against.
    """
    g00, g01, g10, g11 = _step_matrix(M, N, cmath.exp(1j * phi))
    a = b = complex(1.0 / math.sqrt(N))
    out = [(a, b)]
    for _ in range(iterations):
        a, b = g00 * a + g01 * b, g10 * a + g11 * b
        out.append((a, b))
    return out


def final_amplitudes(M, N, phi, iterations):
    """Per-state amplitudes (a_good, a_bad) after ``iterations`` steps, in O(log J).

    Equals the last entry of :func:`amplitude_recursion`: the step matrix is
    raised to the power J by repeated squaring.  If any argument is a numpy
    array, all four broadcast and each element has its own J (the result is a
    pair of complex arrays); otherwise the arguments are scalars and the
    arithmetic stays in Python ``complex``, which is cheaper for one search.
    """
    arrays = (
        isinstance(M, np.ndarray)
        or isinstance(N, np.ndarray)
        or isinstance(phi, np.ndarray)
        or isinstance(iterations, np.ndarray)
    )
    if not arrays:
        j = int(iterations)
        if j < 0:
            raise ValueError(f"iterations must be >= 0, got {j}")
        g = _step_matrix(float(M), float(N), cmath.exp(1j * float(phi)))
        a = b = complex(1.0 / math.sqrt(N))
        while j:
            if j & 1:
                a, b = g[0] * a + g[1] * b, g[2] * a + g[3] * b
            j >>= 1
            if j:
                g = _mul(g, g)
        return a, b

    M, N, phi, j = np.broadcast_arrays(
        np.asarray(M, dtype=float),
        np.asarray(N, dtype=float),
        np.asarray(phi, dtype=float),
        np.asarray(iterations, dtype=np.int64),
    )
    if np.any(j < 0):
        raise ValueError(f"iterations must be >= 0, got {int(j.min())}")
    g = _step_matrix(M, N, np.exp(1j * phi))
    a = b = (1.0 / np.sqrt(N)).astype(complex)
    while True:
        odd = (j & 1).astype(bool)
        a, b = (
            np.where(odd, g[0] * a + g[1] * b, a),
            np.where(odd, g[2] * a + g[3] * b, b),
        )
        j = j >> 1
        if not j.any():
            return a, b
        g = _mul(g, g)


def support_probabilities(is_marked: np.ndarray, phi: float, iterations: int) -> np.ndarray:
    """Outcome probability of each occupied value after a search from the uniform start.

    ``is_marked`` masks the occupied values in ascending order; marked values get
    |a|^2 and the others |b|^2 from :func:`final_amplitudes`.
    """
    is_marked = np.asarray(is_marked, dtype=bool)
    a, b = final_amplitudes(np.count_nonzero(is_marked), is_marked.size, phi, iterations)
    return np.where(is_marked, abs(a) ** 2, abs(b) ** 2)


def success_probability(final: StateVector, marked: MarkedSet) -> float:
    """Total probability mass on the marked indices."""
    probs = final.probabilities()
    return float(sum(probs[v] for v in marked.V))


def iteration_branches(M: float, N: float, j_rule: str = "2beta") -> tuple[int, int]:
    """The two candidate iteration counts (floor-based, as compute_params, and ceil-based).

    Under the default rule the floor branch is never smaller; both are kept so
    the max can be audited.
    """
    params = compute_params(M, N, j_rule)
    ceil_branch = math.ceil((math.pi - 6 * params.beta) / (4 * params.beta))
    return params.iterations, ceil_branch


def iteration_count_model(M: float, N: float, j_rule: str = "2beta") -> int:
    """Iteration-count cost model; approaches (pi/4) sqrt(N/M) as M/N -> 0."""
    if not 0 < M <= N:
        raise ValueError(f"need 0 < M <= N, got M={M}, N={N}")
    if M == N:
        return 0
    return max(iteration_branches(M, N, j_rule))
