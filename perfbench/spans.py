"""In-memory span recorder and the per-layer metrics derived from it.

The traced run replaces module attributes of the imported ``qummsa``
package with thin wrappers, each recording one span (name, start, end,
parent) per call made inside the benchmark's timed body.  A name is wrapped in the namespace that calls it, for
example ``qummsa.driver.run_grover_long`` for the engine as the driver sees
it, so nothing inside ``src/`` changes.  Spans stay in memory until the run
ends; per-layer self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict

# Span names whose self time is a per-layer metric ("<name>.self_s").
SELF_TIMED = (
    "statevector.rank1_reflection",
    "statevector.sample",
    "statevector.superposition",
    "grover_long.oracle_phase",
    "grover_long.run",
    "grover_long.compute_params",
    "oracles.marked_set",
    "oracles.build",
    "driver",
    "driver.estimate_params",
    "baselines.dha",
    "simplify",
    "circuit.run",
    "circuit.qc_roundtrip",
    "analysis.recursion",
    "analysis.failure_point",
    "analysis.grid",
    "analysis.curve",
    "cli",
    "dataio.parse",
)

# Spans that touch every amplitude of a dense 2^n register once per call.
DENSE_SPANS = (
    "statevector.rank1_reflection",
    "statevector.sample",
    "statevector.superposition",
    "grover_long.oracle_phase",
)


def _register_n(args, kwargs):
    """Qubit count of the first state-like argument (StateVector or int n)."""
    for value in list(args) + list(kwargs.values()):
        n = getattr(value, "n", None)
        if isinstance(n, int):
            return n
        if isinstance(value, int):
            return value
    return 0


def _count_run_qummsa(counts, args, kwargs, out):
    counts["driver.main_loops"] += out.main_loops
    counts["driver.attempts"] += out.preparations


def _count_grover_long(counts, args, kwargs, out):
    params = args[2] if len(args) > 2 else kwargs["params"]
    counts["grover_long.iterations"] += params.iterations


def _count_dha(counts, args, kwargs, out):
    counts["baselines.grover_steps"] += out.grover_iterations
    counts["baselines.rounds"] += out.rounds
    counts["baselines.threshold_updates"] += out.threshold_updates


def _count_built(counts, args, kwargs, out):
    counts["oracles.gates_emitted"] += len(out)


def _count_simplify(counts, args, kwargs, out):
    counts["simplify.gates_in"] += len(args[0])
    counts["simplify.gates_out"] += len(out)


def _count_run_circuit(counts, args, kwargs, out):
    counts["circuit.gates_applied"] += len(args[0])


def _count_recursion(counts, args, kwargs, out):
    counts["analysis.recursion.steps"] += len(out) - 1


# (module, attribute, span name, counter).  A class attribute is given as
# "Class.method".  Entries in the benchmark's own namespaces (qummsa.oracles,
# qummsa.simplify, qummsa.circuit, qummsa.grover_long) catch the calls the
# oracle_circuits workload makes through those modules.
PATCHES = (
    ("qummsa.driver", "run_qummsa", "driver", _count_run_qummsa),
    ("qummsa.driver", "estimate_params", "driver.estimate_params", None),
    ("qummsa.driver", "compute_params", "grover_long.compute_params", None),
    ("qummsa.driver", "run_grover_long", "grover_long.run", _count_grover_long),
    ("qummsa.driver", "sample_measurement", "statevector.sample", None),
    ("qummsa.driver", "make_superposition", "statevector.superposition", None),
    ("qummsa.oracles", "ThresholdPredicate.marked_set", "oracles.marked_set", None),
    ("qummsa.grover_long", "apply_rank1_reflection", "statevector.rank1_reflection", None),
    ("qummsa.grover_long", "oracle_phase_step", "grover_long.oracle_phase", None),
    ("qummsa.grover_long", "run_circuit", "circuit.run", _count_run_circuit),
    ("qummsa.grover_long", "build_multi_oracle", "oracles.build", _count_built),
    ("qummsa.grover_long", "build_I0", "oracles.build", _count_built),
    ("qummsa.grover_long", "build_preparation", "oracles.build", _count_built),
    ("qummsa.grover_long", "run_grover_long", "grover_long.run", _count_grover_long),
    ("qummsa.grover_long", "compute_params", "grover_long.compute_params", None),
    ("qummsa.baselines", "run_dha_minimum", "baselines.dha", _count_dha),
    ("qummsa.oracles", "build_multi_oracle", "oracles.build", _count_built),
    ("qummsa.simplify", "simplify_all", "simplify", _count_simplify),
    ("qummsa.circuit", "run_circuit", "circuit.run", _count_run_circuit),
    ("qummsa.circuit", "export_circuit", "circuit.qc_roundtrip", None),
    ("qummsa.circuit", "parse_circuit", "circuit.qc_roundtrip", None),
    ("qummsa.statevector", "make_superposition", "statevector.superposition", None),
    ("qummsa.analysis", "failure_contour_grid", "analysis.grid", None),
    ("qummsa.analysis", "sampled_failure_curve", "analysis.curve", None),
    ("qummsa.analysis", "grover_long_failure", "analysis.failure_point", None),
    ("qummsa.analysis", "amplitude_recursion", "analysis.recursion", _count_recursion),
    ("qummsa.analysis", "compute_params", "grover_long.compute_params", None),
    ("qummsa.cli", "load_database", "dataio.parse", None),
    ("qummsa.cli", "titanic_database", "dataio.parse", None),
)


class Tracer:
    """Records spans while installed; derives per-layer metrics afterwards."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.dense_amps = 0
        self.active = False  # set by the runner around timed calls only
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent)

    def _wrap(self, fn, name, counter):
        dense = name in DENSE_SPANS

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            if dense:
                self.dense_amps += 2 ** _register_n(args, kwargs)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in PATCHES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over spans[first:]."""
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _) in enumerate(self.spans[first:]):
            out[name] += (end - start - child_ns[first + offset]) / 1e9
        return out

    def call_counts(self, first: int = 0) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans[first:]:
            out[name] += 1
        return out

    def write(self, path) -> None:
        """Dump every span as gzipped CSV: name,start_ns,end_ns,parent_index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def layer_metrics(self_s: dict[str, float], calls: dict[str, int], counts: dict[str, int],
                  dense_amps: int) -> dict[str, float]:
    """Per-layer metrics of one traced plan execution, keyed by metric name."""
    m: dict[str, float] = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    for name in ("statevector.rank1_reflection", "statevector.sample", "grover_long.oracle_phase",
                 "oracles.marked_set", "grover_long.run", "baselines.dha", "oracles.build",
                 "simplify", "circuit.run", "analysis.recursion", "analysis.failure_point",
                 "dataio.parse"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("cli.bytes_out", "grover_long.iterations", "driver.main_loops", "driver.attempts",
                 "baselines.grover_steps", "oracles.gates_emitted", "simplify.gates_in",
                 "simplify.gates_out", "circuit.gates_applied", "analysis.recursion.steps"):
        m[name] = counts.get(name, 0)
    m["statevector.amps_touched"] = dense_amps
    attempts = counts.get("driver.attempts", 0)
    m["driver.useful_ratio"] = counts.get("driver.main_loops", 0) / attempts if attempts else 0.0
    rounds = counts.get("baselines.rounds", 0)
    m["baselines.useful_ratio"] = (
        counts.get("baselines.threshold_updates", 0) / rounds if rounds else 0.0
    )
    return m
