"""qummsa benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced; with
``--trace 1`` they are its per-layer metrics, from traced passes alternated
with untraced ones.  The line before it is a JSON report: the environment
stamp, the deterministic metrics, the timings in plain seconds and any failed
checks.

Throughput is timed in units of a reference loop sampled beside the work
(``reference.py``), because the host's speed drifts from minute to minute.

Set-up time is the median over several fresh interpreter processes, each
timed from its start until its workload is ready for the first timed call,
in plain seconds.
"""

from __future__ import annotations

import os
import sys

# One single-threaded process per workload: cap BLAS threads before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 15
MAX_TRACED_PASSES = 3  # bounds the spans held in memory
PROBE_TIMEOUT_S = 120


def _import_package():
    """Import qummsa from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qummsa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'qummsa'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import qummsa

    if Path(qummsa.__file__).resolve().parent != (src / "qummsa").resolve():
        raise SystemExit(f"perfbench: imported qummsa from {qummsa.__file__}, not {src}")
    import workloads

    return workloads


def _setup(name: str, seed: int, workdir: Path):
    workloads = _import_package()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](ROOT, workdir, seed)


def _probe_setup(args) -> float:
    """Median seconds from process start to a ready workload, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def _environment(seed: int) -> dict:
    """Read-only stamp of the machine, toolchain and source revision."""
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                          "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    ref = _read(head)
    if ref.startswith("ref: "):
        name = ref[5:]
        loose = _read(ROOT / ".git" / name)
        if loose != "unknown":
            return loose
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
        return "unknown"
    return ref if ref != "unknown" else "unknown (not a git checkout)"


def _measure(workload, seconds: float, trace: bool):
    """Warm up, then repeat the plan until the time is spent.

    The warm-up pass fills caches and finishes lazy set-up; it is checked but
    not timed, and the time budget starts after it.  Untraced passes sample
    the reference loop; with ``trace``, traced passes are alternated with them.
    """
    import reference
    from spans import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    untraced, traced, layers = [], [], []
    warmup = workload.warm_up()
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < min(len(untraced), MAX_TRACED_PASSES)
        if use_trace:
            first = len(tracer.spans)
            tracer.counts.clear()
            tracer.dense_amps = 0
            tracer.install()
            try:
                ex = workload.execute(tracer)
            finally:
                tracer.uninstall()
            counts = dict(tracer.counts, **{"cli.bytes_out": ex.bytes_out})
            layers.append(layer_metrics(tracer.self_times(first), tracer.call_counts(first),
                                        counts, tracer.dense_amps))
            traced.append(ex)
        else:
            untraced.append(workload.execute(None, lambda: reference.sample(workload.REFERENCE)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(e.body_s for e in untraced + traced)
        if not (trace and not traced) and elapsed + typical > seconds:
            break
    return warmup, untraced, traced, layers, tracer


def _median_metrics(layers: list[dict]) -> dict[str, float]:
    """Times as the median over traced passes; counts from the first pass."""
    out = dict(layers[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(layer[key] for layer in layers)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = _setup(args.workload, args.seed, workdir)
    if args.probe:
        print(time.perf_counter())
        return 0

    setup_s = _probe_setup(args)
    warmup, untraced, traced, layers, tracer = _measure(workload, args.seconds, bool(args.trace))
    timed = untraced + traced
    passes = [warmup] + timed
    attempted = sum(e.items for e in passes)
    failed = sum(e.failed for e in passes)
    problems = [p for e in passes for p in e.problems]
    if any(e.digest != timed[0].digest for e in timed):
        failed += sum(e.items for e in timed[1:])  # a repeated plan must reproduce its outputs
        problems.append("outputs differ between repeated passes of the same plan")

    body = [e.body_s for e in untraced]
    e2e = {
        "setup_s": setup_s,
        "items_per_ref": statistics.median(e.items / e.body_ref for e in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    seconds = {  # the same work in plain seconds, which drift with the host's speed
        "wall_s": setup_s + statistics.median(body),
        "items_per_s": statistics.median(e.items / e.body_s for e in untraced),
        "reference_loop_s": statistics.median(e.body_s / e.body_ref for e in untraced),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": _environment(args.seed),
        "inputs_sha256": workload.inputs_sha256,
        "items_per_pass": untraced[0].items,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_s": {"median": statistics.median(body), "min": min(body), "max": max(body)},
        "seconds": seconds,
        "reference_loop": workload.REFERENCE,
        "ops_failed_frac": failed / attempted,
        "deterministic": untraced[0].metrics,
        "problems": problems,
    }
    if args.trace:
        metrics = _median_metrics(layers)
        metrics["trace.overhead_s"] = (statistics.median(e.body_s for e in traced)
                                       - statistics.median(body))
        declared = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["untraced_end_to_end"] = e2e
    else:
        metrics = e2e
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    for m in declared:
        print(f"{args.workload:16s} {m['name']:40s} {metrics[m['name']]!r:>24} {m['unit']}")
    if not args.trace:
        for name, value in seconds.items():
            print(f"{args.workload:16s} {name + ' (not gated)':40s} {value!r:>24}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
