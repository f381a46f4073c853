"""Classical simulation and analysis of exact quantum maximum/minimum search.

Layers, bottom up:

- :mod:`qummsa.statevector` / :mod:`qummsa.circuit`: dense register and
  sampling; gate-level IR, gate application and the textual ``.qc`` format
- :mod:`qummsa.oracles` / :mod:`qummsa.simplify`: phase-oracle construction
  and the three rewrite passes, which share one phase-cube emitter
- :mod:`qummsa.grover_long`: the zero-failure engine (two-amplitude and dense reference)
- :mod:`qummsa.baselines`: exponential search and the classic minimum finder
- :mod:`qummsa.driver`: the threshold-descent min/max algorithm
- :mod:`qummsa.analysis`: closed-form failure and complexity models
- :mod:`qummsa.dataio` / :mod:`qummsa.cli`: dataset ingestion and the CLI
"""

from .circuit import Circuit, GateOp, circuit_to_matrix, export_circuit, parse_circuit, run_circuit
from .driver import Database, QummsaResult, SampledEstimation, UniformEstimation, run_qummsa
from .grover_long import SearchParams, compute_params, run_grover_long, success_probability
from .oracles import MarkedSet, ThresholdPredicate, build_I0, build_multi_oracle, build_preparation, build_single_oracle, build_threshold_oracle
from .simplify import GateCostReport, gate_cost, simplify_all
from .statevector import StateVector, make_basis_state, make_superposition

__all__ = [
    "Circuit",
    "Database",
    "GateCostReport",
    "GateOp",
    "MarkedSet",
    "QummsaResult",
    "SampledEstimation",
    "SearchParams",
    "StateVector",
    "ThresholdPredicate",
    "UniformEstimation",
    "build_I0",
    "build_multi_oracle",
    "build_preparation",
    "build_single_oracle",
    "build_threshold_oracle",
    "circuit_to_matrix",
    "compute_params",
    "export_circuit",
    "gate_cost",
    "make_basis_state",
    "make_superposition",
    "parse_circuit",
    "run_circuit",
    "run_grover_long",
    "run_qummsa",
    "simplify_all",
    "success_probability",
]

__version__ = "0.1.0"
