"""Exact-search engine: iteration/phase parameters and the amplification loop.

One iteration applies G = -(prepare)(conditional phase)(unprepare)(oracle).
With the matched phase phi and iteration count J computed from the solution
fraction M/N, measuring after J iterations finds a marked state with zero
theoretical failure rate; with estimated M~/N~ the failure rate is the one
modelled in :mod:`qummsa.analysis`.

The iteration count is J = floor((pi/2 - beta)/(2*beta)) + 1: each iteration
advances the state angle by 2*beta, so this is the smallest count whose
matched phase phi = 2 asin(sin(pi/(4J + 2)) / sin(beta)) exists.  As M/N -> 0
it approaches (pi/4) sqrt(N/M).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import CompiledCircuit, invert_circuit, run_circuit
from .errors import CircuitError
from .oracles import MarkedSet, build_I0, build_multi_oracle, build_preparation
from .statevector import NORM_TOL, StateVector, apply_rank1_reflection


@dataclass(frozen=True)
class SearchParams:
    """One Grover-Long run: estimated counts and derived (beta, phi, J)."""

    m_est: float
    n_est: float
    beta: float
    phi: float
    iterations: int


def compute_params(m_est: float, n_est: float) -> SearchParams:
    """Derive beta = arcsin(sqrt(M~/N~)), the iteration count J, and phi.

    M~ = N~ needs no amplification: J = 0 is returned and phi is unused
    (set to 0.0).
    """
    if not 0 < m_est <= n_est:
        raise ValueError(f"need 0 < M~ <= N~, got M~={m_est}, N~={n_est}")
    return SearchParams(m_est, n_est, *_tune(m_est / n_est))


def _tune(ratio: float) -> tuple[float, float, int]:
    """(beta, phi, J) for a ratio M~/N~ in (0, 1]: the one tuning rule, shared with the models."""
    beta = math.asin(math.sqrt(ratio))
    if ratio == 1.0:
        return beta, 0.0, 0
    # +1e-12 absorbs float spill just below exact-integer boundaries, where the
    # rule deliberately returns one more iteration than the minimum
    iterations = math.floor((math.pi / 2 - beta) / (2.0 * beta) + 1e-12) + 1
    arg = math.sin(math.pi / (4 * iterations + 2)) / math.sin(beta)
    if arg > 1.0:
        if arg > 1.0 + 1e-12:
            raise ValueError(f"inconsistent parameters: arcsin argument {arg} > 1")
        arg = 1.0
    return beta, 2.0 * math.asin(arg), iterations


def oracle_phase_step(state: StateVector, marked: MarkedSet, phi: float) -> StateVector:
    """Multiply the amplitudes of marked indices by e^{i phi}."""
    if marked.n != state.n:
        raise CircuitError(f"dimension mismatch: marked.n={marked.n}, state.n={state.n}")
    out = state.amps.copy()
    out[np.fromiter(marked.V, np.int64, marked.size)] *= np.exp(1j * phi)
    return StateVector(state.n, out)


def grover_long_states(
    initial: StateVector,
    marked: MarkedSet,
    params: SearchParams,
    mode: str = "rank1",
) -> Iterator[StateVector]:
    """Yield the state after each of the J iterations (J = 0 yields nothing)."""
    if mode not in ("rank1", "gates"):
        raise ValueError(f"mode must be 'rank1' or 'gates', got {mode!r}")
    if marked.n != initial.n:
        raise CircuitError(f"dimension mismatch: marked.n={marked.n}, initial.n={initial.n}")

    if mode == "rank1":
        def step(state):
            return apply_rank1_reflection(oracle_phase_step(state, marked, params.phi), initial, params.phi)
    else:
        prep = build_preparation(initial.uniform_support().tolist(), initial.n)
        compiled = CompiledCircuit(build_multi_oracle(marked, params.phi), invert_circuit(prep),
                                   build_I0(initial.n, params.phi), prep)  # once for all J iterations

        def step(state):
            return StateVector(state.n, -run_circuit(compiled, state).amps)

    state = initial
    for _ in range(params.iterations):
        state = step(state)
        yield state


def run_grover_long(
    initial: StateVector,
    marked: MarkedSet,
    params: SearchParams,
    mode: str = "rank1",
) -> StateVector:
    """Apply G exactly J times; J = 0 returns ``initial`` itself."""
    state = initial
    for state in grover_long_states(initial, marked, params, mode):
        pass
    return state


def _step_matrix(M, N, ph):
    """Entries (g00, g01, g10, g11) of one step (a, b) -> (g00 a + g01 b, g10 a + g11 b).

    With c = (ph - 1)/N the step is s = c (M ph a + (N - M) b), a' = -s - ph a,
    b' = -s - b: the oracle phases the good amplitudes, then the rank-1
    reflection mixes in the overlap with the initial state and the global sign
    flips.  Works on Python complex and on numpy arrays alike.
    """
    c = (ph - 1.0) / N
    return (-ph - c * M * ph, -c * (N - M), -c * M * ph, -1.0 - c * (N - M))


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


def _pick(cond, x, y):
    """np.where for scalars (both branches are already evaluated)."""
    return x if cond else y


_ARRAY_OPS = (np.sqrt, np.sin, np.cos, np.arctan2, np.where)
_SCALAR_OPS = (math.sqrt, math.sin, math.cos, math.atan2, _pick)


def _rotation(M, N, phi, ops):
    """The part of :func:`final_amplitudes` that depends on (M, N, phi) only, over ``ops``."""
    sqrt, sin, cos, atan2, where = ops
    r, rb = M / N, (N - M) / N
    s, c = sin(phi / 2), cos(phi / 2)
    # sin and cos of theta/2; the cos as sqrt(1 - r + r c^2) keeps its digits near r = 1
    v, w = sqrt(r) * abs(s), sqrt(rb + r * c * c)
    flip = v > w
    singular = v * w == 0
    angle = where(flip, -2.0 * atan2(w, v), 2.0 * atan2(v, w))
    return flip, angle, singular, 2.0 * s, s / where(singular, 1.0, v * w), s * rb + 1j * c, r, s, sqrt(N)


def _power(rotation, phi, j, ops):
    """The part of :func:`final_amplitudes` that depends on J, given its :func:`_rotation`."""
    _, sin, cos, _, where = ops
    flip, angle, singular, twice_s, s_over_vw, good, r, s, root_n = rotation
    x = j * angle
    q = where(singular, twice_s * j, s_over_vw * sin(x))
    sigma = where(flip, 1, 1 - 2 * (j & 1)) * (cos(j * phi) + 1j * sin(j * phi)) / root_n
    cos_x = cos(x)
    return sigma * (cos_x + q * good), sigma * (cos_x - q * r * s)


@functools.lru_cache(maxsize=64)  # a search's rounds reuse one rotation in a row
def _scalar_rotation(M: float, N: float, phi: float):
    return _rotation(M, N, phi, _SCALAR_OPS)


def _amplitudes(M: float, N: float, phi: float, j: int) -> tuple[complex, complex]:
    """:func:`final_amplitudes` on Python floats and an int J, its rotation cached."""
    if j < 0:
        raise ValueError(f"iterations must be >= 0, got {j}")
    return _power(_scalar_rotation(M, N, phi), phi, j, _SCALAR_OPS)


def final_amplitudes(M, N, phi, iterations):
    """Per-state amplitudes (a_good, a_bad) after ``iterations`` steps, in O(1).

    The last entry of :func:`amplitude_recursion`, in closed form.  The step
    is -e^{i phi} times a rotation by theta, where sin(theta/2) = sqrt(r) |s|
    with r = M/N, s = sin(phi/2) and c = cos(phi/2).  With x = J theta,
    sigma = (-e^{i phi})^J / sqrt(N) and q = 2 s sin(x) / sin(theta):

        a_J = sigma (cos x + q (s (1 - r) + i c)),   b_J = sigma (cos x - q r s).

    Past a quarter turn the step is taken as e^{i phi} times a rotation by
    theta - pi, so that x keeps its digits when theta is near pi.  At M = 0
    or phi = 0, q is its limit 2 J s.  Nothing is renormalised: M |a|^2 +
    (N - M) |b|^2 = cos^2 x + sin^2 x is 1 to rounding at any J.  The phase
    of sigma is exact only up to the rounding of J phi, which no probability
    depends on.  :func:`_rotation` holds everything but J, and
    :func:`_power` the rest.

    If any argument is a numpy array, all four broadcast and each element has
    its own J (the result is a pair of complex arrays); otherwise they are
    scalars and the arithmetic stays in Python floats, cheaper for one search,
    with the rotation cached per (M, N, phi).
    """
    if not any(isinstance(v, np.ndarray) for v in (M, N, phi, iterations)):
        return _amplitudes(float(M), float(N), float(phi), int(iterations))
    M, N, phi, j = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (M, N, phi)), np.asarray(iterations, np.int64)
    )
    lowest = int(j.min(initial=0))
    if lowest < 0:
        raise ValueError(f"iterations must be >= 0, got {lowest}")
    return _power(_rotation(M, N, phi, _ARRAY_OPS), phi, j, _ARRAY_OPS)


def measure(bounds: tuple[int, ...], size: int, phi: float, iterations: int, rng) -> int:
    """Position of one measurement among ``size`` occupied values: the Generator ``rng``'s next double.

    Marked are the ascending positions [bounds[0], bounds[1]), [bounds[2],
    bounds[3]), ...: (0, M) for a min prefix, (size - M, size) for a max
    suffix.  A total off 1 by more than NORM_TOL raises CircuitError.  The
    draw u lands at start + ceil((u - c)/p) - 1 in the run of the edges
    (0, *bounds, size) that holds it, c the probability before that run:
    ``sample_indices``' rule, which skips zero-probability runs.
    """
    marked = sum(bounds[1::2]) - sum(bounds[::2])
    a, b = _amplitudes(float(marked), float(size), float(phi), int(iterations))
    pa, pb = abs(a) ** 2, abs(b) ** 2
    total = marked * pa + (size - marked) * pb
    if abs(total - 1.0) > NORM_TOL:
        raise CircuitError(f"probabilities sum to {total!r}, not 1 within {NORM_TOL}")
    u = rng.random() * total
    edges = (0, *bounds, size)
    cum, last = 0.0, None
    for i in range(len(edges) - 1):
        start, length, p = edges[i], edges[i + 1] - edges[i], pa if i & 1 else pb
        if length and p > 0:
            top = cum + length * p
            if u <= top:
                return start + min(max(math.ceil((u - cum) / p), 1), length) - 1
            cum, last = top, start + length - 1
    return last


def success_probability(final: StateVector, marked: MarkedSet) -> float:
    """Total probability mass on the marked indices."""
    probs = final.probabilities()
    return float(sum(probs[v] for v in marked.V))

