"""Command-line surface: one subcommand per analysis or experiment.

Outputs are CSV for curves/grids and JSON for structured results, always with
the full invocation recorded, so identical argv (and seed) reproduce
byte-identical output.  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys

import numpy as np

from . import analysis, baselines, driver, simplify
from .circuit import circuit_to_matrix, export_circuit, parse_circuit, run_circuit
from .dataio import csv_stamp, format_csv, load_database, titanic_database
from .errors import CircuitError, DataError, ParseError, QummsaError
from .grover_long import SearchParams, compute_params, run_grover_long
from .oracles import MarkedSet, ThresholdPredicate, build_multi_oracle
from .statevector import StateVector, make_basis_state, make_superposition


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
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _ranged(int, lambda v: v >= 1, "a positive integer")
_RESOLUTION = _ranged(int, lambda v: v >= 10, "an integer >= 10")
_UNIT_OPEN = _ranged(float, lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
_UNIT_EPS = _ranged(float, lambda v: 0.0 <= v < 1.0, "a value in [0, 1)")
_GROWTH = _ranged(float, lambda v: 1.0 < v <= baselines.GROWTH_FACTOR_MAX, "a value in (1, 4/3]")


def _power_int(text: str) -> int:
    """Plain integer or '2^k'."""
    if "^" in text:
        base, _, exp = text.partition("^")
        try:
            return int(base) ** int(exp)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qummsa")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("find-min", "find-max"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} of a dataset")
        p.add_argument("dataset", help="CSV file with 'label,value' header, or 'titanic'")
        p.add_argument("--n", type=_positive_int, default=None, help="qubit count override")
        p.add_argument("--c", type=_positive_int, default=3, help="interrupt constant")
        p.add_argument("--strategy", choices=("uniform", "sampled"), default="uniform")
        p.add_argument("--sample-size", type=_positive_int, default=None,
                       help="sampled strategy: draw size (default: census)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=_positive_int, default=1)
        p.add_argument("--retry-cap", type=_positive_int, default=32)
        p.add_argument("--out", default=None)

    p = sub.add_parser("baseline-dha", help="run the baseline minimum finder")
    p.add_argument("dataset")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--lam", type=_GROWTH, default=4.0 / 3.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("failure-map", help="failure-rate grid over (true, estimated) ratios")
    p.add_argument("--resolution", type=_RESOLUTION, default=50)
    p.add_argument("--out", default=None)

    p = sub.add_parser("failure-curves", help="sample-estimated failure vs the baseline")
    p.add_argument("--E", default="0.01,0.03,0.05", help="comma-separated acceptable errors")
    p.add_argument("--confidence", type=_UNIT_OPEN, default=0.95)
    p.add_argument("--sigma2", type=float, default=0.25)
    p.add_argument("--points", type=_positive_int, default=40)
    p.add_argument("--draws", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("complexity", help="total-cost curves for both algorithms")
    p.add_argument("--eps", type=_UNIT_EPS, default=0.1)
    p.add_argument("--c", type=_positive_int, default=3)
    p.add_argument("--nmin", type=_power_int, default=2**8)
    p.add_argument("--nmax", type=_power_int, default=2**30)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample-size", help="minimum sample size h = Z^2 sigma^2 / E^2")
    p.add_argument("--confidence", type=_UNIT_OPEN, required=True)
    p.add_argument("--error", type=_UNIT_OPEN, required=True)
    p.add_argument("--sigma2", type=float, default=0.25)
    p.add_argument("--z", type=float, default=None, help="override the Z lookup")

    p = sub.add_parser("build-oracle", help="emit a phase-oracle circuit (.qc)")
    p.add_argument("--n", type=_positive_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--marked", default=None, help="comma-separated basis indices")
    group.add_argument("--threshold-le", type=int, default=None, help="mark values <= d0")
    group.add_argument("--threshold-ge", type=int, default=None, help="mark values >= d0")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--out", default=None, help=".qc output path (cost JSON then on stdout)")

    p = sub.add_parser("simulate", help="run a .qc circuit and print the distribution")
    p.add_argument("circuit", help="circuit file in .qc format")
    p.add_argument("--initial", default="uniform", help="uniform | basis:k | db:<csv>")
    p.add_argument("--grover-long", action="store_true",
                   help="treat the circuit as an oracle inside a full tuned search")
    p.add_argument("--iterations", type=_positive_int, default=None,
                   help="override the iteration count used with --grover-long")
    p.add_argument("--out", default=None)

    return parser


def _load(dataset: str, n: int | None) -> driver.Database:
    if dataset == "titanic":
        return titanic_database()
    return load_database(dataset, n=n)


def _cmd_find(args, argv, mode: str) -> int:
    db = _load(args.dataset, args.n)
    if args.strategy == "uniform":
        strategy = driver.UniformEstimation()
    else:
        strategy = driver.SampledEstimation(args.sample_size)
    streams = np.random.SeedSequence(args.seed).spawn(args.trials)
    trials = []
    counts: dict[int, int] = {}
    for idx, ss in enumerate(streams):
        res = driver.run_qummsa(
            db, c=args.c, strategy=strategy, mode=mode,
            rng=np.random.default_rng(ss), retry_cap=args.retry_cap,
        )
        counts[res.minimum] = counts.get(res.minimum, 0) + 1
        trials.append(
            {
                "trial": idx,
                "result": res.minimum,
                "main_loops": res.main_loops,
                "descents": res.descents,
                "grover_iterations": res.grover_iterations,
                "preparations": res.preparations,
                "success": res.success,
            }
        )
    target = min(db.values) if mode == "min" else max(db.values)
    found = counts.get(target, 0)
    payload = {
        "invocation": _invocation(argv),
        "mode": mode,
        "c": args.c,
        "strategy": args.strategy,
        "seed": args.seed,
        "database": {"source": args.dataset, "n": db.n, "size": db.size},
        "trials": trials,
        "aggregate": {
            "value_counts": {str(k): v for k, v in sorted(counts.items())},
            "target_value": target,
            "target_frequency": found / args.trials,
            "mean_main_loops": sum(t["main_loops"] for t in trials) / args.trials,
            "mean_grover_iterations": sum(t["grover_iterations"] for t in trials) / args.trials,
        },
    }
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_dha(args, argv) -> int:
    db = _load(args.dataset, args.n)
    cfg = baselines.QesaConfig(lam=args.lam)
    streams = np.random.SeedSequence(args.seed).spawn(args.trials)
    trials = []
    counts: dict[int, int] = {}
    for idx, ss in enumerate(streams):
        res = baselines.run_dha_minimum(db, cfg, rng=np.random.default_rng(ss))
        counts[res.minimum] = counts.get(res.minimum, 0) + 1
        trials.append(
            {
                "trial": idx,
                "result": res.minimum,
                "grover_iterations": res.grover_iterations,
                "preparations": res.preparations,
                "rounds": res.rounds,
                "threshold_updates": res.threshold_updates,
            }
        )
    target = min(db.values)
    payload = {
        "invocation": _invocation(argv),
        "seed": args.seed,
        "database": {"source": args.dataset, "n": db.n, "size": db.size},
        "trials": trials,
        "aggregate": {
            "value_counts": {str(k): v for k, v in sorted(counts.items())},
            "target_value": target,
            "target_frequency": counts.get(target, 0) / args.trials,
            "mean_grover_iterations": sum(t["grover_iterations"] for t in trials) / args.trials,
            "mean_preparations": sum(t["preparations"] for t in trials) / args.trials,
        },
    }
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_failure_map(args, argv) -> int:
    true_axis, est_axis, grid = analysis.failure_contour_grid(args.resolution)
    # written row by row: reprs of floats need no CSV quoting, and each axis
    # value is rendered once rather than once per cell
    est = [f",{re_!r}," for re_ in est_axis.tolist()]
    lines = [csv_stamp(_invocation(argv)), "ratio_true,ratio_est,eps_gl\n"]
    for rt, row in zip(true_axis.tolist(), grid.tolist()):
        head = repr(rt)
        lines.extend(f"{head}{mid}{eps!r}\n" for mid, eps in zip(est, row))
    _emit("".join(lines), args.out)
    return 0


def _cmd_failure_curves(args, argv) -> int:
    errors = [float(tok) for tok in args.E.split(",") if tok.strip()]
    if not errors:
        raise DataError("no acceptable errors given")
    z = analysis.z_for_confidence(args.confidence)
    ratios = np.linspace(1.0 / args.points, 1.0, args.points)
    streams = np.random.SeedSequence(args.seed).spawn(len(errors))
    curves = {}
    for err, ss in zip(errors, streams):
        spec = analysis.SampleSpec(z=z, error=err, sigma2=args.sigma2)
        curves[err] = analysis.sampled_failure_curve(
            spec, ratios=ratios, draws=args.draws, rng=np.random.default_rng(ss)
        )
    rows = []
    base = curves[errors[0]]
    for i, r in enumerate(ratios):
        row = {"ratio": f"{float(r)!r}"}
        for err in errors:
            row[f"eps_gl_E{err}"] = f"{curves[err][i]['eps_grover_long']!r}"
        row["qesa_t"] = base[i]["qesa_t"]
        row["eps_qesa"] = f"{base[i]['eps_qesa']!r}"
        rows.append(row)
    _emit(format_csv(rows, _invocation(argv)), args.out)
    return 0


def _cmd_complexity(args, argv) -> int:
    rows = []
    k = max(1, int(math.log2(args.nmin)))
    while 2**k <= args.nmax:
        N = 2**k
        params = analysis.ComplexityParams(N=N, c=args.c, eps=args.eps)
        q = analysis.qummsa_complexity(params)
        d = analysis.dha_complexity(N, args.eps)
        rows.append(
            {
                "log2_N": k,
                "N": N,
                "qummsa_total": f"{q.total!r}",
                "dha_total": f"{d.total!r}",
                "ratio": f"{q.total / d.total!r}",
                "grover_sum_closed": f"{analysis.grover_iterations_closed(N, N / 2)!r}",
                "grover_sum_explicit": f"{analysis.grover_iterations_sum(N, N / 2)!r}",
            }
        )
        k += 1
    _emit(format_csv(rows, _invocation(argv)), args.out)
    return 0


def _cmd_sample_size(args) -> int:
    z = args.z if args.z is not None else analysis.z_for_confidence(args.confidence)
    spec = analysis.SampleSpec(z=z, error=args.error, sigma2=args.sigma2)
    print(analysis.min_sample_size(spec))
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
    report = {
        "invocation": _invocation(argv),
        "n": args.n,
        "marked_count": marked.size,
        "gates": len(circuit),
        "n_multi_controlled": cost.n_multi_controlled,
        "n_two_qubit_equiv": cost.n_two_qubit_equiv,
        "n_single": cost.n_single,
    }
    text = export_circuit(circuit) + "\n"
    if args.out:
        _emit(text, args.out)
        sys.stdout.write(_json_dump(report))
    else:
        sys.stdout.write(text)
        sys.stdout.write("# cost: " + json.dumps(report, sort_keys=True) + "\n")
    return 0


def _initial_state(spec: str, n: int) -> StateVector:
    if spec == "uniform":
        return make_superposition(n, range(2**n))
    if spec.startswith("basis:"):
        return make_basis_state(n, int(spec.split(":", 1)[1]))
    if spec.startswith("db:"):
        db = load_database(spec.split(":", 1)[1])
        if db.n > n:
            raise DataError(f"dataset needs n={db.n} qubits but the circuit has n={n}")
        return make_superposition(n, db.values)
    raise DataError(f"bad --initial {spec!r} (expected uniform | basis:k | db:<csv>)")


def _cmd_simulate(args, argv) -> int:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circuit = parse_circuit(fh.read())
    state = _initial_state(args.initial, circuit.n)
    if args.grover_long:
        final = _simulate_grover_long(circuit, state, args.iterations)
    else:
        final = run_circuit(circuit, state)
    probs = final.probabilities()
    rows = [
        {"index": i, "bitstring": format(i, f"0{circuit.n}b"), "probability": f"{float(p)!r}"}
        for i, p in enumerate(probs)
    ]
    _emit(format_csv(rows, _invocation(argv)), args.out)
    return 0


def _simulate_grover_long(circuit, state, iterations):
    """Use the circuit as the oracle of a tuned search about ``state``.

    Marked set and phase are recovered from the circuit's diagonal; the
    iteration count defaults to the tuned value for |V| out of 2^n states.
    """
    u = circuit_to_matrix(circuit)
    diag = np.diagonal(u)
    if np.max(np.abs(u - np.diag(diag))) > 1e-9:
        raise DataError("--grover-long needs a diagonal (phase oracle) circuit")
    marked_idx = np.flatnonzero(np.abs(diag - 1.0) > 1e-9)
    if marked_idx.size == 0:
        raise DataError("--grover-long: the circuit marks no states")
    phases = np.angle(diag[marked_idx])
    if np.max(np.abs(phases - phases[0])) > 1e-9:
        raise DataError("--grover-long: marked states carry inconsistent phases")
    phi = float(phases[0])
    marked = MarkedSet(circuit.n, frozenset(int(i) for i in marked_idx))
    tuned = compute_params(marked.size, 2**circuit.n)
    j = iterations if iterations is not None else tuned.iterations
    params = SearchParams(marked.size, 2**circuit.n, tuned.beta, phi, j)
    return run_grover_long(state, marked, params, mode="rank1")


def _invocation(argv) -> str:
    return "qummsa " + " ".join(shlex.quote(str(a)) for a in argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("find-min", "find-max"):
            return _cmd_find(args, argv, args.command.split("-")[1])
        if args.command == "baseline-dha":
            return _cmd_dha(args, argv)
        if args.command == "failure-map":
            return _cmd_failure_map(args, argv)
        if args.command == "failure-curves":
            return _cmd_failure_curves(args, argv)
        if args.command == "complexity":
            return _cmd_complexity(args, argv)
        if args.command == "sample-size":
            return _cmd_sample_size(args)
        if args.command == "build-oracle":
            return _cmd_build_oracle(args, argv)
        if args.command == "simulate":
            return _cmd_simulate(args, argv)
        parser.error(f"unknown command {args.command!r}")
    except SystemExit:
        raise
    except (DataError, ParseError, FileNotFoundError) as exc:
        print(f"qummsa: error: {exc}", file=sys.stderr)
        return 2
    except QummsaError as exc:
        print(f"qummsa: internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
