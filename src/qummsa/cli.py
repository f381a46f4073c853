"""Command-line surface: one subcommand per analysis or experiment.

Every command writes chunks through :func:`_emit` as they are produced: CSV
rows (:func:`_csv`) for curves, grids and distributions, JSON (:func:`_json`)
for structured results, with the full invocation recorded, so identical argv
(and seed) give byte-identical output.  Exit codes: 0 success, 1 usage error, 2
data error or a file that cannot be read or written, 3 internal error.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import shlex
import sys

import numpy as np

from . import analysis, baselines, driver, simplify
from .circuit import export_circuit, parse_circuit, run_circuit
from .dataio import load_database, read_text, titanic_database
from .errors import CircuitError, DataError, ParseError, QummsaError
from .grover_long import SearchParams, compute_params, run_grover_long
from .oracles import MarkedSet, ThresholdPredicate, build_multi_oracle
from .statevector import StateVector, make_basis_state


# Largest register `simulate` runs: it writes one CSV row per basis state, so
# 2^20 rows (about 50 MB of text, from a 16 MB state) is the most it produces.
SIMULATE_MAX_QUBITS = 20
# `complexity` rows are powers of two N with sqrt(2N) in a float column, so
# N must stay below 2^1023.
COMPLEXITY_N_LIMIT = 2**1023
# Most `failure-curves --E` values, each a curve held until the rows are written.
CURVES_MAX_ERRORS = 32
# Most `--trials`: each trial's row (about 300 B) is held until its JSON is
# written, so the cap holds about 300 MB of rows.
TRIALS_MAX = 10**6
# Largest find-min/find-max `--c` and `--retry-cap`.  A run holds one record
# per main loop, and takes at least --c of them; --retry-cap bounds the
# attempts of each.  `find-min titanic --c 1000` takes about 0.1 s.
CONFIRMATIONS_MAX = 1000
RETRY_CAP_MAX = 1000
# Most `simulate --grover-long --iterations`: the largest tuned J a 20-qubit
# register needs is about 804, and there an iteration takes about 20 ms (41 ran
# in 2.59 s and 1 in 1.80 s, in process on a 2-core Xeon), so a run stays near 200 s.
ITERATIONS_MAX = 10_000
# Widest `--n`: 2^n is an exact int, and build-oracle's cost report holds
# 2^(n-1), which stays within the 4,300 digits an int may print as.
QUBITS_MAX = 8192


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ranged(kind, accept, expected: str):
    """argparse type: parse with ``kind``, then refuse values ``accept`` rejects."""

    def parse(text: str):
        try:
            value = kind(text)
        except (ValueError, ArithmeticError):  # ArithmeticError: e.g. 0^-1
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _ranged(int, lambda v: v >= 1, "a positive integer")
_SEED = _ranged(int, lambda v: v >= 0, "a non-negative integer")
_TRIALS = _ranged(int, lambda v: 1 <= v <= TRIALS_MAX, f"an integer in [1, {TRIALS_MAX}]")
_CONFIRMATIONS = _ranged(
    int, lambda v: 1 <= v <= CONFIRMATIONS_MAX, f"an integer in [1, {CONFIRMATIONS_MAX}]"
)
_RETRY_CAP = _ranged(int, lambda v: 1 <= v <= RETRY_CAP_MAX, f"an integer in [1, {RETRY_CAP_MAX}]")
_ITERATIONS = _ranged(
    int, lambda v: 1 <= v <= ITERATIONS_MAX, f"an integer in [1, {ITERATIONS_MAX}]"
)
_QUBITS = _ranged(int, lambda v: 1 <= v <= QUBITS_MAX, f"an integer in [1, {QUBITS_MAX}]")
# Model-command size caps: peak memory grows by about 8 B per failure-map cell
# (resolution^2 of them; the text is streamed) and, for failure-curves, 180 B per
# draw of one block (at most max(draws, 16,383) draws) plus 8 B per point and
# curve (at most CURVES_MAX_ERRORS curves).
_RESOLUTION = _ranged(int, lambda v: 10 <= v <= 2048, "an integer in [10, 2048]")
_POINTS = _ranged(int, lambda v: 1 <= v <= 10**5, "an integer in [1, 100000]")
_DRAWS = _ranged(int, lambda v: 1 <= v <= 10**6, "an integer in [1, 1000000]")
_UNIT_OPEN = _ranged(float, lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
_UNIT_EPS = _ranged(float, lambda v: 0.0 <= v < 1.0, "a value in [0, 1)")
_GROWTH = _ranged(float, lambda v: 1.0 < v <= baselines.GROWTH_FACTOR_MAX, "a value in (1, 4/3]")
_POSITIVE = _ranged(float, lambda v: 0.0 < v < math.inf, "a positive number")
_FINITE = _ranged(float, math.isfinite, "a finite number")


def _power(text: str) -> int:
    """Plain integer or '2^k'."""
    base, caret, exp = text.partition("^")
    if not caret:
        return int(text)
    base, exp = int(base), int(exp)
    # |base|^exp >= 2^((bitlen - 1) exp): refuse a sure miss of [1, 2^1023) before paying for it
    if exp > 0 and (abs(base).bit_length() - 1) * exp >= 1023:
        raise ValueError(f"{text} is at least 2^1023")
    return base**exp


_ERRORS = _ranged(
    lambda text: [float(tok) for tok in text.split(",") if tok.strip()],
    lambda v: v and all(0.0 < e < 1.0 for e in v),
    "comma-separated values in (0, 1)",
)
_SIZE = _ranged(_power, lambda v: 1 <= v < COMPLEXITY_N_LIMIT, "an integer or 2^k in [1, 2^1023)")


def _emit(chunks, out: str | None = None) -> None:
    """Write the str ``chunks`` to the file ``out``, or to stdout, as they are produced."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _csv(argv, header, rows):
    """Yield a CSV: the stamp line ``# invocation: ...``, the header, then each row.

    ``rows`` is consumed as it is produced.  A row is a tuple of fields or its
    rendered text (whole lines).  Every field is an int, a bitstring or a
    float (a numpy float64 too), whose str is the float's repr, so nothing
    needs CSV quoting.  With no rows the stamp line is all there is: no header.
    """
    yield f"# invocation: {_invocation(argv)}\n"
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    yield ",".join(header) + "\n"
    for row in itertools.chain([first], rows):
        yield row if isinstance(row, str) else ",".join(map(str, row)) + "\n"


def _json(obj):
    """Yield ``json.dumps(obj, indent=2, sort_keys=True)``'s chunks, then a newline."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    yield "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than most commands."""
    parser = _Parser(prog="qummsa")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("find-min", "find-max"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} of a dataset")
        p.add_argument("dataset", help="CSV file with 'label,value' header, or 'titanic'")
        p.add_argument("--n", type=_QUBITS, default=None, help="qubit count override")
        p.add_argument("--c", type=_CONFIRMATIONS, default=3, help="interrupt constant")
        p.add_argument("--strategy", choices=("uniform", "sampled"), default="uniform")
        p.add_argument("--sample-size", type=_positive_int, default=None,
                       help="sampled strategy: draw size (default: census)")
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--trials", type=_TRIALS, default=1)
        p.add_argument("--retry-cap", type=_RETRY_CAP, default=32)
        p.add_argument("--out", default=None)

    p = sub.add_parser("baseline-dha", help="run the baseline minimum finder")
    p.add_argument("dataset")
    p.add_argument("--n", type=_QUBITS, default=None)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--trials", type=_TRIALS, default=1)
    p.add_argument("--lam", type=_GROWTH, default=4.0 / 3.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("failure-map", help="failure-rate grid over (true, estimated) ratios")
    p.add_argument("--resolution", type=_RESOLUTION, default=50)
    p.add_argument("--out", default=None)

    p = sub.add_parser("failure-curves", help="sample-estimated failure vs the baseline")
    p.add_argument("--E", type=_ERRORS, default="0.01,0.03,0.05",
                   help="comma-separated acceptable errors")
    p.add_argument("--confidence", type=_UNIT_OPEN, default=0.95)
    p.add_argument("--sigma2", type=_POSITIVE, default=0.25)
    p.add_argument("--points", type=_POINTS, default=40)
    p.add_argument("--draws", type=_DRAWS, default=200)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("complexity", help="total-cost curves for both algorithms")
    p.add_argument("--eps", type=_UNIT_EPS, default=0.1)
    p.add_argument("--c", type=_positive_int, default=3)
    p.add_argument("--nmin", type=_SIZE, default=2**8)
    p.add_argument("--nmax", type=_SIZE, default=2**30)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample-size", help="minimum sample size h = Z^2 sigma^2 / E^2")
    p.add_argument("--confidence", type=_UNIT_OPEN, required=True)
    p.add_argument("--error", type=_UNIT_OPEN, required=True)
    p.add_argument("--sigma2", type=_POSITIVE, default=0.25)
    p.add_argument("--z", type=_POSITIVE, default=None, help="override the Z lookup")

    p = sub.add_parser("build-oracle", help="emit a phase-oracle circuit (.qc)")
    p.add_argument("--n", type=_QUBITS, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--marked", default=None, help="comma-separated basis indices")
    group.add_argument("--threshold-le", type=int, default=None, help="mark values <= d0")
    group.add_argument("--threshold-ge", type=int, default=None, help="mark values >= d0")
    p.add_argument("--phi", type=_FINITE, required=True)
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--out", default=None, help=".qc output path (cost JSON then on stdout)")

    p = sub.add_parser("simulate", help="run a .qc circuit and print the distribution")
    p.add_argument("circuit", help="circuit file in .qc format")
    p.add_argument("--initial", default="uniform", help="uniform | basis:k | db:<csv>")
    p.add_argument("--grover-long", action="store_true",
                   help="treat the circuit as an oracle inside a full tuned search")
    p.add_argument("--iterations", type=_ITERATIONS, default=None,
                   help="override the iteration count used with --grover-long")
    p.add_argument("--out", default=None)

    handlers = {
        "find-min": _cmd_find, "find-max": _cmd_find, "baseline-dha": _cmd_dha,
        "failure-map": _cmd_failure_map, "failure-curves": _cmd_failure_curves,
        "complexity": _cmd_complexity, "sample-size": _cmd_sample_size,
        "build-oracle": _cmd_build_oracle, "simulate": _cmd_simulate,
    }
    for name, p in sub.choices.items():  # checks after parsing report under their command's usage
        p.set_defaults(parser=p, run=handlers[name])
    return parser


def _load(dataset: str, n: int | None) -> driver.Database:
    if dataset == "titanic":
        return titanic_database(n)
    return load_database(dataset, n=n)


def _trials(args, argv, db, run, fields, means, target, **header) -> int:
    """Write the trials JSON of ``run(rng)`` on one spawned seed stream per trial.

    Each trial row holds the run's ``minimum`` as its result and the named
    ``fields`` of the run; the aggregate counts the results, the share that
    hit ``target`` and the mean of each field in ``means``.
    """
    seeds = np.random.SeedSequence(args.seed)  # spawn(1) k times gives spawn(k)'s children
    trials = []
    for idx in range(args.trials):
        res = run(np.random.default_rng(seeds.spawn(1)[0]))
        trials.append({"trial": idx, "result": res.minimum, **{f: getattr(res, f) for f in fields}})
    counts = collections.Counter(t["result"] for t in trials)
    payload = {
        "invocation": _invocation(argv),
        **header,
        "seed": args.seed,
        "database": {"source": args.dataset, "n": db.n, "size": db.size},
        "trials": trials,
        "aggregate": {
            "value_counts": {str(k): v for k, v in sorted(counts.items())},
            "target_value": target,
            "target_frequency": counts[target] / args.trials,
            **{f"mean_{f}": sum(t[f] for t in trials) / args.trials for f in means},
        },
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_find(args, argv) -> int:
    if args.sample_size is not None and args.strategy != "sampled":
        args.parser.error("--sample-size needs --strategy sampled")
    mode = args.command.split("-")[1]
    db = _load(args.dataset, args.n)
    if args.strategy == "uniform":
        strategy = driver.UniformEstimation()
    else:
        strategy = driver.SampledEstimation(args.sample_size)

    def run(rng):
        return driver.run_qummsa(db, args.c, strategy, mode, rng, retry_cap=args.retry_cap)

    fields = ("main_loops", "descents", "grover_iterations", "preparations", "success")
    target = int(db.sorted_values[0 if mode == "min" else -1])
    return _trials(args, argv, db, run, fields, ("main_loops", "grover_iterations"), target,
                   mode=mode, c=args.c, strategy=args.strategy)


def _cmd_dha(args, argv) -> int:
    db = _load(args.dataset, args.n)
    cfg = baselines.QesaConfig(lam=args.lam)
    fields = ("grover_iterations", "preparations", "rounds", "threshold_updates")
    return _trials(args, argv, db, lambda rng: baselines.run_dha_minimum(db, cfg, rng=rng),
                   fields, ("grover_iterations", "preparations"), int(db.sorted_values[0]))


def _cmd_failure_map(args, argv) -> int:
    axis, grid = analysis.failure_contour_grid(args.resolution)
    # one text row per grid row; each axis value is rendered once for both columns, not per cell
    text = list(map(repr, axis.tolist()))
    est = [f",{r}," for r in text]
    rows = (
        "".join(f"{head}{mid}{eps!r}\n" for mid, eps in zip(est, row.tolist()))
        for head, row in zip(text, grid)
    )
    _emit(_csv(argv, ("ratio_true", "ratio_est", "eps_gl"), rows), args.out)
    return 0


def _cmd_failure_curves(args, argv) -> int:
    errors = args.E
    z = analysis.z_for_confidence(args.confidence)
    specs = [analysis.SampleSpec(z=z, error=err, sigma2=args.sigma2) for err in errors]
    for spec in specs:  # each curve draws binomials of h trials, at most 2^63 - 1
        try:
            fits = analysis.min_sample_size(spec) <= np.iinfo(np.int64).max
        except ArithmeticError:  # Z^2 sigma^2 overflows, or E^2 underflows to 0
            fits = False
        if not fits:
            args.parser.error(
                f"--E {spec.error} with --sigma2 {args.sigma2}: Z^2 sigma^2 / E^2 exceeds 2^63 - 1"
            )
    if len(errors) > CURVES_MAX_ERRORS:
        args.parser.error(f"--E takes at most {CURVES_MAX_ERRORS} values, got {len(errors)}")
    ratios = np.linspace(1.0 / args.points, 1.0, args.points)
    streams = np.random.SeedSequence(args.seed).spawn(len(errors))
    # a repeated --E keeps its first column and its last stream: only printed curves are computed
    plan = {err: (spec, ss) for err, spec, ss in zip(errors, specs, streams)}
    curves = [analysis.sampled_failure_curve(spec, ratios, args.draws, np.random.default_rng(ss))
              for spec, ss in plan.values()]
    header = ("ratio", *(f"eps_gl_E{err}" for err in plan), "qesa_t", "eps_qesa")
    rows = zip(ratios, *curves, *analysis.qesa_baseline(ratios))
    _emit(_csv(argv, header, rows), args.out)
    return 0


def _cmd_complexity(args, argv) -> int:
    if args.nmax < max(args.nmin, 2):
        args.parser.error(f"--nmax must be >= 2 and >= --nmin, got {args.nmax}")
    first = max(1, (args.nmin - 1).bit_length())  # the smallest power of two >= nmin

    def row(k):
        N = 2**k
        q = analysis.qummsa_complexity(analysis.ComplexityParams(N=N, c=args.c, eps=args.eps))
        d = analysis.dha_complexity(N, args.eps)
        return (k, N, q.total, d.total, q.total / d.total,
                analysis.grover_iterations_closed(N, N / 2),
                analysis.grover_iterations_sum(N, N / 2))

    header = ("log2_N", "N", "qummsa_total", "dha_total", "ratio",
              "grover_sum_closed", "grover_sum_explicit")
    rows = map(row, range(first, args.nmax.bit_length()))  # every k with 2^k <= nmax
    _emit(_csv(argv, header, rows), args.out)
    return 0


def _cmd_sample_size(args, argv) -> int:
    z = args.z if args.z is not None else analysis.z_for_confidence(args.confidence)
    spec = analysis.SampleSpec(z=z, error=args.error, sigma2=args.sigma2)
    try:
        size = analysis.min_sample_size(spec)
    except ArithmeticError:  # Z^2 sigma^2 / E^2 overflows, or E^2 underflows to 0
        args.parser.error("Z^2 sigma^2 / E^2 is out of float range")
    _emit([f"{size}\n"])
    return 0


def _cmd_build_oracle(args, argv) -> int:
    try:
        if args.marked is not None:
            indices = frozenset(int(tok) for tok in args.marked.split(",") if tok.strip())
            marked = MarkedSet(args.n, indices)
        elif args.threshold_le is not None:
            marked = ThresholdPredicate("min", args.threshold_le, args.n).marked_set()
        else:
            marked = ThresholdPredicate("max", args.threshold_ge, args.n).marked_set()
    except CircuitError as exc:  # indices or threshold outside the n-qubit range
        raise DataError(str(exc)) from None
    except ValueError:  # a --marked token that is not an integer
        raise DataError(f"bad --marked list {args.marked!r}") from None
    circuit = build_multi_oracle(marked, args.phi)
    if args.simplify:
        circuit = simplify.simplify_all(circuit)
    cost = simplify.gate_cost(circuit)
    text = export_circuit(circuit) + "\n"  # emits the ops, which len() below then reads
    report = {
        "invocation": _invocation(argv),
        "n": args.n,
        "marked_count": marked.size,
        "gates": len(circuit),
        "n_multi_controlled": cost.n_multi_controlled,
        "n_two_qubit_equiv": cost.n_two_qubit_equiv,
        "n_single": cost.n_single,
    }
    if args.out:
        _emit([text], args.out)
        _emit(_json(report))
    else:
        _emit([text, "# cost: " + json.dumps(report, sort_keys=True) + "\n"])
    return 0


def _initial_state(spec: str, n: int) -> StateVector:
    kind, _, arg = spec.partition(":")
    if spec == "uniform":
        return StateVector(n, np.full(2**n, 1.0 / np.sqrt(2**n), dtype=np.complex128))
    # more than n digits is at least 10^n > 2^n, and may be past int()'s digit limit
    digits = arg.strip().lstrip("0") or "0"
    if kind == "basis" and arg.strip().isdecimal() and len(digits) <= n and int(digits) < 2**n:
        return make_basis_state(n, int(digits))
    if kind == "db":
        db = load_database(arg)
        if db.n > n:
            raise DataError(f"dataset needs n={db.n} qubits but the circuit has n={n}")
        amps = np.zeros(2**n, dtype=np.complex128)  # db.values are distinct and below 2^n
        amps[db.values] = 1.0 / np.sqrt(db.size)
        return StateVector(n, amps)
    raise DataError(f"bad --initial {spec!r} (expected uniform | basis:k | db:<csv>)")


def _cmd_simulate(args, argv) -> int:
    if args.iterations is not None and not args.grover_long:
        args.parser.error("--iterations needs --grover-long")
    circuit = parse_circuit(read_text(args.circuit, ParseError))
    if circuit.n > SIMULATE_MAX_QUBITS:
        raise DataError(
            f"simulate runs at most {SIMULATE_MAX_QUBITS} qubits; the circuit has {circuit.n}"
        )
    state = _initial_state(args.initial, circuit.n)
    if args.grover_long:
        final = _simulate_grover_long(circuit, state, args.iterations)
    else:
        final = run_circuit(circuit, state)
    bits = f"0{circuit.n}b"
    rows = (
        f"{i},{format(i, bits)},{p!r}\n" for i, p in enumerate(final.probabilities().tolist())
    )
    _emit(_csv(argv, ("index", "bitstring", "probability"), rows), args.out)
    return 0


def _simulate_grover_long(circuit, state, iterations):
    """Use the circuit as the oracle of a tuned search about ``state``.

    The circuit must be made of phase fragments (see ``simplify``).  Marked
    set and phase are recovered from its diagonal, which is the circuit
    applied to the all-ones vector; the iteration count defaults to the tuned
    value for |V| out of 2^n states.
    """
    if not simplify.is_phase_oracle(circuit):
        raise DataError("--grover-long needs a diagonal (phase oracle) circuit")
    diag = run_circuit(circuit, StateVector(circuit.n, np.ones(2**circuit.n))).amps
    marked_idx = np.flatnonzero(np.abs(diag - 1.0) > 1e-9)
    if marked_idx.size == 0:
        raise DataError("--grover-long: the circuit marks no states")
    entries = diag[marked_idx]  # e^{i phi} each: compared as numbers, so phi = pi and -pi agree
    if np.max(np.abs(entries - entries[0])) > 1e-9:
        raise DataError("--grover-long: marked states carry inconsistent phases")
    phi = float(np.angle(entries[0]))
    marked = MarkedSet(circuit.n, frozenset(int(i) for i in marked_idx))
    tuned = compute_params(marked.size, 2**circuit.n)
    j = iterations if iterations is not None else tuned.iterations
    params = SearchParams(marked.size, 2**circuit.n, tuned.beta, phi, j)
    return run_grover_long(state, marked, params, mode="rank1")


def _invocation(argv) -> str:
    return "qummsa " + " ".join(shlex.quote(str(a)) for a in argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, argv)
    except (DataError, ParseError, OSError) as exc:  # OSError: a file not read or written
        print(f"qummsa: error: {exc}", file=sys.stderr)
        return 2
    except QummsaError as exc:
        print(f"qummsa: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
