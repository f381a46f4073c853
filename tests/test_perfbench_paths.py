"""The benchmark tracer wraps package functions by import path; each must exist, and its counters read the results."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qummsa import baselines, driver

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, attr: str):
    """The object at ``module_name``.``attr``; AttributeError names a path that moved."""
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    paths = [(module_name, attr) for module_name, attr, *_ in spans.PATCHES]
    originals = [resolve(*path) for path in paths]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._saved) == len(paths) == 29
        assert all(resolve(*path) is not original for path, original in zip(paths, originals))
    finally:
        tracer.uninstall()
    assert all(resolve(*path) is original for path, original in zip(paths, originals))


def test_tracer_counts_are_the_results_own(titanic):
    # through the module attributes, as the benchmark's plans call them
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        descent = driver.run_qummsa(titanic, rng=np.random.default_rng(4))  # one loop takes two attempts
        dha = baselines.run_dha_minimum(titanic, baselines.QesaConfig(), rng=np.random.default_rng(4))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert descent.preparations > descent.main_loops > 0 and dha.grover_iterations > 0
    assert tracer.counts["driver.main_loops"] == descent.main_loops
    assert tracer.counts["driver.attempts"] == descent.preparations
    assert tracer.counts["baselines.grover_steps"] == dha.grover_iterations
