"""The four benchmark workloads.

Each workload is built from ``--seed`` alone: the constructor derives every
input (CLI seeds, generated datasets, thresholds, marked sets) from it and
does the set-up a user would do before the first timed call.  ``execute``
runs the fixed plan once and checks every output; the runner repeats it for
as long as the run lasts, after one checked ``warm_up`` pass.  Every plan is
deterministic for a seed, so its outputs, counters and deterministic metrics
repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from qummsa import circuit, cli, dataio, grover_long, oracles, simplify, statevector

C = 3  # interrupt constant of every find command; (1/2)^C bounds early stops
FALSE_ALARM = 0.00135  # one-sided 3-sigma level for the miss-rate checks
MIN_SEGMENT_S = 0.3  # timed body between two reference-loop samples, at least


def _binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k, n + 1))


@dataclass
class Execution:
    """One pass over a workload's plan."""

    items: int = 0
    failed: int = 0
    body_s: float = 0.0
    body_ref: float = 0.0  # the same body in reference-loop units; 0 unless sampled
    bytes_out: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""  # hash of every output, so repeated passes can be compared
    metrics: dict[str, float] = field(default_factory=dict)  # deterministic, per pass


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


class _Run:
    """Bookkeeping shared by the items of one execution.

    With a ``reference`` sampler (``reference.sample`` bound to the workload's
    loop), the timed body is also converted into reference-loop units: the
    loop is sampled at the start, at item boundaries once ``MIN_SEGMENT_S`` of
    body has passed, and at the end, and each stretch of body is divided by
    the mean of the samples around it.
    """

    def __init__(self, tracer, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.ex = Execution()
        self._hash = hashlib.sha256()
        self._segment_s = 0.0
        self._last_ref = reference() if reference else 0.0

    def checkpoint(self, final: bool = False) -> None:
        """Close the current stretch of body at an item boundary, if it is long enough."""
        if self.reference is None or self._segment_s <= 0.0:
            return
        if not final and self._segment_s < MIN_SEGMENT_S:
            return
        ref = self.reference()
        self.ex.body_ref += self._segment_s / (0.5 * (self._last_ref + ref))
        self._last_ref, self._segment_s = ref, 0.0

    def timed(self, fn, *args, span: str | None = None):
        """Call ``fn`` inside the timed body; only these calls are traced."""
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
            idx = tracer.begin(span) if span else None
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            self.ex.body_s += elapsed
            self._segment_s += elapsed
            if tracer is not None:
                if idx is not None:
                    tracer.end(idx)
                tracer.active = False

    def cli(self, argv: list[str], out_path) -> tuple[int, str]:
        """Run ``qummsa.cli.main`` in-process; returns (exit code, output text)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.timed(cli.main, argv, span="cli")
        text = out_path.read_text(encoding="utf-8") if out_path else stdout.getvalue()
        if code != 0:
            self.problem(f"{argv[0]} exited {code}: {stderr.getvalue().strip()}")
        self.ex.bytes_out += len(text.encode("utf-8"))
        self.output(text)
        return code, text

    def output(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))

    def problem(self, text: str) -> None:
        if len(self.ex.problems) < 20:
            self.ex.problems.append(text)

    def item(self, count: int, failed: int) -> None:
        self.ex.items += count
        self.ex.failed += failed

    def attempt(self, label: str, count: int, fn):
        """Run one item and its checks: ``fn`` returns (ok, value).

        A crash or a failed check fails all ``count`` items; value is then None.
        """
        self.checkpoint()
        try:
            ok, value = fn()
        except Exception as exc:
            self.problem(f"{label}: {type(exc).__name__}: {exc}")
            ok, value = False, None
        if not ok:
            self.problem(f"{label} failed its checks")
            value = None
        self.item(count, 0 if ok else count)
        return value

    def done(self, **metrics) -> Execution:
        self.checkpoint(final=True)
        self.ex.digest = self._hash.hexdigest()
        self.ex.metrics = metrics
        return self.ex


# --- find workloads (titanic, sparse_n18) ------------------------------------


class _FindWorkload:
    """Find-min / find-max / baseline-dha commands on one dataset.

    Every find-min runs ``--strategy sampled`` without a sample size: a census,
    so each of its inner searches is exact.  A command's trials are split into
    CLI calls of at most ``chunk`` trials, so that the reference loop can be
    sampled between them; the checks pool the calls of one command.
    """

    REFERENCE = "mixed"  # reference loop (reference.LOOPS) that matches the work

    def __init__(self, workdir, seed: int, commands, values, chunk: int):
        self.workdir = workdir
        self.calls = [  # (kind, argv without --trials/--seed/--out, trials)
            (kind, argv, min(chunk, trials - start))
            for kind, argv, trials in commands
            for start in range(0, trials, chunk)
        ]
        self.cli_seeds = _seeds(seed, len(self.calls))
        self.values = frozenset(values)
        self.low, self.high = min(values), max(values)

    def warm_up(self) -> Execution:
        """The first call of each command only, so that a 20 s ``sparse_n18`` pass is not repeated."""
        first = {}
        for index, (kind, _, _) in enumerate(self.calls):
            first.setdefault(kind, index)
        return self._execute(list(first.values()), None, None)

    def execute(self, tracer, reference=None) -> Execution:
        return self._execute(range(len(self.calls)), tracer, reference)

    def _execute(self, indices, tracer, reference) -> Execution:
        run = _Run(tracer, reference)
        kinds = {}  # kind -> [trials, failed trials, rows]
        for index in indices:
            (kind, argv, trials), cli_seed = self.calls[index], self.cli_seeds[index]
            out = self.workdir / f"{kind}.json"
            tally = kinds.setdefault(kind, [0, 0, []])
            tally[0] += trials
            run.checkpoint()
            try:
                code, text = run.cli(argv + ["--trials", str(trials), "--seed", str(cli_seed),
                                             "--out", str(out)], out)
                failed, rows = self._check(run, kind, trials, code, text)
            except Exception as exc:  # a crash fails every trial of the call
                run.problem(f"{kind}: {type(exc).__name__}: {exc}")
                failed, rows = trials, []
            tally[1] += failed
            tally[2] += rows
        find_trials = find_misses = capped = 0
        oracle_calls = preparations = trials_total = 0
        for kind, (trials, failed, rows) in kinds.items():
            if not self._miss_rate_ok(run, kind, rows):
                failed = trials
            if failed:
                run.problem(f"{kind}: {failed} of {trials} trials failed their checks")
            run.item(trials, failed)
            trials_total += trials
            oracle_calls += sum(row["grover_iterations"] for row in rows)
            preparations += sum(row["preparations"] for row in rows)
            if kind != "baseline-dha":
                target = self.high if kind == "find-max" else self.low
                find_trials += trials
                find_misses += sum(row["result"] != target for row in rows)
                capped += sum(not row.get("success", True) for row in rows)
        return run.done(
            miss_rate=find_misses / find_trials if find_trials else 0.0,
            retry_capped_frac=capped / find_trials if find_trials else 0.0,
            oracle_calls_per_trial=oracle_calls / trials_total if trials_total else 0.0,
            preparations_per_trial=preparations / trials_total if trials_total else 0.0,
        )

    def _check(self, run, kind, trials, code, text):
        """Check one call's JSON; returns (failed trials, trial rows)."""
        if code != 0:
            return trials, []
        payload = json.loads(text)
        rows = payload["trials"]
        target = self.high if kind == "find-max" else self.low
        if len(rows) != trials or payload["aggregate"]["target_value"] != target:
            run.problem(f"{kind}: {len(rows)} trials, target {payload['aggregate']['target_value']}")
            return trials, []
        bad = 0
        for row in rows:
            ok = row["result"] in self.values
            if kind != "baseline-dha":
                ok = ok and row["main_loops"] <= row["preparations"]
            if kind == "find-min":  # exact searches never retry, so never reach the cap
                ok = ok and row["success"] and row["main_loops"] == row["preparations"]
            bad += not ok
        return bad, rows

    def _miss_rate_ok(self, run, kind, rows) -> bool:
        """Test the early-stop bound on all trials of one command.

        Reaching the retry cap is the driver's documented answer to a
        misestimated fraction: such a trial counts as a miss, not as a
        failure, and the (1/2)^c bound applies to the trials that did not
        reach it.  The bound is tested with the exact binomial tail, at the
        false-alarm rate of a one-sided 3-sigma test, because a normal
        approximation is wrong for the few trials of sparse_n18.
        """
        target = self.high if kind == "find-max" else self.low
        settled = [row for row in rows if row.get("success", True)]
        p = 0.5 if kind == "baseline-dha" else 0.5**C
        misses = sum(row["result"] != target for row in settled)
        if _binomial_tail(misses, len(settled), p) < FALSE_ALARM:
            run.problem(f"{kind}: {misses} of {len(settled)} missed; bound {p}")
            return False
        return True


def _find_commands(dataset: str, extra: list[str], trials: tuple[int, int, int], sample_size=None):
    """argv (without --trials) for find-min (census), find-max and baseline-dha on one dataset."""
    t_min, t_max, t_dha = trials
    max_strategy = ["--strategy", "sampled", "--sample-size", str(sample_size)] if sample_size else []
    return [
        ("find-min", ["find-min", dataset, *extra, "--strategy", "sampled", "--c", str(C)], t_min),
        ("find-max", ["find-max", dataset, *extra, *max_strategy, "--c", str(C)], t_max),
        ("baseline-dha", ["baseline-dha", dataset, *extra], t_dha),
    ]


class Titanic(_FindWorkload):
    """Bundled 36-record dataset: tiny vectors, so per-call overhead dominates."""

    TRIALS = (200, 200, 200)  # find-min, find-max (uniform estimation), baseline-dha

    def __init__(self, root, workdir, seed: int):
        source = root / "src" / "qummsa" / "data" / "titanic_ages.csv"
        with open(source, encoding="utf-8", newline="") as fh:
            values = [int(row["value"]) for row in csv.DictReader(fh)]
        if sorted(dataio.titanic_database().values) != sorted(values):
            raise RuntimeError("bundled titanic dataset does not load as written")
        super().__init__(workdir, seed, _find_commands("titanic", [], self.TRIALS), values,
                         chunk=max(self.TRIALS))
        self.inputs_sha256 = hashlib.sha256(source.read_bytes()).hexdigest()


class SparseN18(_FindWorkload):
    """4096 distinct seeded values in [0, 2^18): dense 2^n work dominates."""

    N_QUBITS = 18
    SIZE = 4096
    TRIALS = (10, 2, 10)  # find-min, find-max (97-value sample), baseline-dha
    CHUNK = 2  # trials per CLI call: one to four seconds between reference samples
    REFERENCE = "vector"  # its time is streaming over 2^18-amplitude vectors
    SAMPLE_SIZE = 97

    def __init__(self, root, workdir, seed: int):
        gen = np.random.default_rng([seed, self.N_QUBITS])
        values = [int(v) for v in gen.choice(2**self.N_QUBITS, size=self.SIZE, replace=False)]
        text = "label,value\n" + "".join(f"v{i:04d},{v}\n" for i, v in enumerate(values))
        path = workdir / "sparse_n18.csv"
        path.write_text(text, encoding="utf-8")
        db = dataio.load_database(path, n=self.N_QUBITS)
        if db.size != self.SIZE or sorted(db.values) != sorted(values):
            raise RuntimeError("generated dataset does not load as written")
        commands = _find_commands(str(path), ["--n", str(self.N_QUBITS)], self.TRIALS, self.SAMPLE_SIZE)
        super().__init__(workdir, seed, commands, values, self.CHUNK)
        self.inputs_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- oracle_circuits ---------------------------------------------------------


class OracleCircuits:
    """Phase oracles at n = 10 through build, simplify, cost, .qc and simulation."""

    REFERENCE = "mixed"

    N_QUBITS = 10
    THRESHOLDS_PER_MODE = 8
    RANDOM_SETS = 4
    RANDOM_SET_SIZE = 48
    SEARCH_QUBITS = 8
    SEARCH_OCCUPIED = 100
    SEARCH_MARKED = (2, 7, 25)
    TOL_SIMPLIFY = 1e-10
    TOL_GATES = 1e-9

    def __init__(self, root, workdir, seed: int):
        gen = np.random.default_rng([seed, self.N_QUBITS])
        space = 2**self.N_QUBITS
        self.oracle_inputs = []  # (label, MarkedSet, phi)
        for mode, tag in (("min", "le"), ("max", "ge")):
            # one threshold per stratum, so every seed covers the range alike
            width = space / self.THRESHOLDS_PER_MODE
            for k in range(self.THRESHOLDS_PER_MODE):
                d0 = int(k * width + gen.integers(0, int(width)))
                phi = float(gen.uniform(0.1, 2 * math.pi - 0.1))
                pred = oracles.ThresholdPredicate(mode, d0, self.N_QUBITS)
                self.oracle_inputs.append((f"{tag}{d0}", pred, phi))
        for k in range(self.RANDOM_SETS):
            marked = frozenset(int(v) for v in gen.choice(space, size=self.RANDOM_SET_SIZE, replace=False))
            phi = float(gen.uniform(0.1, 2 * math.pi - 0.1))
            self.oracle_inputs.append((f"set{k}", oracles.MarkedSet(self.N_QUBITS, marked), phi))
        self.searches = []  # (occupied values, marked subset)
        for m in self.SEARCH_MARKED:
            occupied = gen.choice(2**self.SEARCH_QUBITS, size=self.SEARCH_OCCUPIED, replace=False)
            self.searches.append((sorted(int(v) for v in occupied),
                                  frozenset(int(v) for v in gen.choice(occupied, size=m, replace=False))))
        self.inputs_sha256 = hashlib.sha256(
            repr((self.oracle_inputs, self.searches)).encode("utf-8")
        ).hexdigest()

    def warm_up(self) -> Execution:
        return self.execute(None)

    def execute(self, tracer, reference=None) -> Execution:
        run = _Run(tracer, reference)
        uniform = run.timed(statevector.make_superposition, self.N_QUBITS, range(2**self.N_QUBITS))
        costs = [
            run.attempt(f"oracle {label}", 1, lambda: self._oracle(run, uniform, source, phi))
            for label, source, phi in self.oracle_inputs
        ]
        calls = [
            run.attempt(f"gates search |V|={len(marked)}", 1, lambda: self._search(run, occupied, marked))
            for occupied, marked in self.searches
        ]
        return run.done(two_qubit_equiv_total=sum(c or 0 for c in costs),
                        oracle_calls_per_trial=sum(c or 0 for c in calls) / len(self.searches))

    def _oracle(self, run, uniform, source, phi):
        if isinstance(source, oracles.ThresholdPredicate):
            marked = run.timed(source.marked_set)
        else:
            marked = source
        raw = run.timed(oracles.build_multi_oracle, marked, phi)
        simple = run.timed(simplify.simplify_all, raw)
        cost = run.timed(simplify.gate_cost, simple)
        text = run.timed(circuit.export_circuit, simple)
        parsed = run.timed(circuit.parse_circuit, text)
        out_raw = run.timed(circuit.run_circuit, raw, uniform)
        out_simple = run.timed(circuit.run_circuit, simple, uniform)
        run.output(text)
        expected = uniform.amps.copy()
        expected[sorted(marked.V)] *= np.exp(1j * phi)
        ok = (
            parsed == simple
            and circuit.export_circuit(parsed) == text
            and float(np.max(np.abs(out_simple.amps - out_raw.amps))) <= self.TOL_SIMPLIFY
            and float(np.max(np.abs(out_raw.amps - expected))) <= self.TOL_SIMPLIFY
            and cost.n_two_qubit_equiv <= simplify.gate_cost(raw).n_two_qubit_equiv
        )
        return ok, cost.n_two_qubit_equiv

    def _search(self, run, occupied, marked):
        n = self.SEARCH_QUBITS
        initial = run.timed(statevector.make_superposition, n, occupied)
        marked_set = oracles.MarkedSet(n, marked)
        params = run.timed(grover_long.compute_params, len(marked), len(occupied))
        gates = run.timed(grover_long.run_grover_long, initial, marked_set, params, "gates")
        rank1 = run.timed(grover_long.run_grover_long, initial, marked_set, params, "rank1")
        run.output(repr(np.round(gates.probabilities(), 12).tolist()))
        ok = (
            float(np.max(np.abs(gates.amps - rank1.amps))) <= self.TOL_GATES
            and abs(1.0 - grover_long.success_probability(gates, marked_set)) <= self.TOL_GATES
        )
        return ok, params.iterations


# --- failure_models ------------------------------------------------------------


class FailureModels:
    """Closed-form models through the CLI: map, curves, complexity, sample size."""

    REFERENCE = "mixed"

    RESOLUTION = 256  # axis = k/256, so every cell is an exact n = 8 fraction
    SPOT_CELLS = 6
    SPOT_QUBITS = 8
    TOL_SPOT = 1e-9
    # (confidence, error) -> h, from the reference sample-size table
    SAMPLE_SIZES = {(0.95, 0.05): 385, (0.99, 0.03): 1844, (0.80, 0.1): 41, (0.5, 0.01): 1140,
                    (0.999, 0.2): 50, (0.85, 0.15): 24}
    CURVE_POINTS, CURVE_DRAWS, CURVE_ERRORS = 40, 200, (0.01, 0.03, 0.05)  # CLI defaults
    COMPLEXITY_ROWS = 23  # N = 2^8 .. 2^30

    def __init__(self, root, workdir, seed: int):
        self.workdir = workdir
        gen = np.random.default_rng([seed, 7])
        self.curve_seed = int(gen.integers(0, 2**31 - 1))
        self.eps = float(np.round(gen.uniform(0.05, 0.3), 4))
        cells = sorted(self.SAMPLE_SIZES)
        picks = gen.choice(len(cells), size=3, replace=False)
        self.sample_cells = [cells[int(i)] for i in sorted(picks)]
        self.spots = [(int(i), int(j)) for i, j in gen.integers(0, self.RESOLUTION, size=(self.SPOT_CELLS, 2))]
        self.inputs_sha256 = hashlib.sha256(
            repr((self.curve_seed, self.eps, self.sample_cells, self.spots)).encode("utf-8")
        ).hexdigest()

    def warm_up(self) -> Execution:
        return self.execute(None)

    def execute(self, tracer, reference=None) -> Execution:
        run = _Run(tracer, reference)
        w = self.workdir
        steps = [
            ("failure-map", ["failure-map", "--resolution", str(self.RESOLUTION), "--out", str(w / "map.csv")],
             w / "map.csv", self.RESOLUTION**2, self._check_map),
            ("failure-curves", ["failure-curves", "--seed", str(self.curve_seed), "--out", str(w / "curves.csv")],
             w / "curves.csv", self.CURVE_POINTS * self.CURVE_DRAWS * len(self.CURVE_ERRORS), self._check_curves),
            ("complexity", ["complexity", "--eps", repr(self.eps), "--c", str(C), "--nmax", "2^30",
                            "--out", str(w / "complexity.csv")], w / "complexity.csv", self.COMPLEXITY_ROWS,
             self._check_complexity),
        ]
        for conf, err in self.sample_cells:
            steps.append(("sample-size", ["sample-size", "--confidence", repr(conf), "--error", repr(err)],
                          None, 1, lambda text, cell=(conf, err): int(text) == self.SAMPLE_SIZES[cell]))
        for name, argv, out, points, check in steps:
            run.attempt(name, points, lambda: self._step(run, argv, out, check))
        return run.done()

    @staticmethod
    def _step(run, argv, out, check):
        code, text = run.cli(argv, out)
        return code == 0 and check(text), None

    @staticmethod
    def _rows(text: str) -> list[dict]:
        return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))

    def _check_map(self, text: str) -> bool:
        rows = self._rows(text)
        r = self.RESOLUTION
        if len(rows) != r * r:
            return False
        eps = np.array([float(row["eps_gl"]) for row in rows]).reshape(r, r)
        if np.any(eps < 0.0) or np.any(eps > 1.0) or np.max(np.abs(np.diag(eps))) > self.TOL_SPOT:
            return False  # tuned to the true fraction, the search is exact
        n, space = self.SPOT_QUBITS, 2**self.SPOT_QUBITS
        psi = statevector.make_superposition(n, range(space))
        for i, j in self.spots:  # the C04 method: dense simulation of the same cell
            marked = oracles.MarkedSet(n, frozenset(range(i + 1)))
            final = grover_long.run_grover_long(psi, marked, grover_long.compute_params(j + 1, space))
            dense = 1.0 - grover_long.success_probability(final, marked)
            if abs(dense - eps[i, j]) > self.TOL_SPOT:
                return False
        return True

    def _check_curves(self, text: str) -> bool:
        rows = self._rows(text)
        if len(rows) != self.CURVE_POINTS:
            return False
        cols = [f"eps_gl_E{e}" for e in self.CURVE_ERRORS] + ["eps_qesa"]
        values = np.array([[float(row[c]) for c in cols] for row in rows])
        # at ratio 1 every sample estimates 1 exactly, so the tuned search cannot fail
        return bool(np.all((values >= 0.0) & (values <= 1.0)) and np.all(values[-1, :-1] == 0.0))

    def _check_complexity(self, text: str) -> bool:
        rows = self._rows(text)
        ratios = [float(row["ratio"]) for row in rows]
        exact = all(
            math.isclose(float(row["grover_sum_closed"]), float(row["grover_sum_explicit"]), rel_tol=1e-9)
            for row in rows
        )
        return len(rows) == self.COMPLEXITY_ROWS and exact and all(a > b for a, b in zip(ratios, ratios[1:]))


WORKLOADS = {
    "titanic": Titanic,
    "sparse_n18": SparseN18,
    "oracle_circuits": OracleCircuits,
    "failure_models": FailureModels,
}
