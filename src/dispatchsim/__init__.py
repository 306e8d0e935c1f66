"""dispatchsim: a deterministic discrete-event simulator of a serverless
cluster with pluggable event dispatching strategies.

The package quantifies how locality-aware and adaptive dispatching changes
execution overhead, resource efficiency and GB-second billing relative to
locality-oblivious baselines such as round robin.
"""

from .cluster import (
    Cluster,
    ClusterParams,
    Container,
    DataObject,
    FunctionSpec,
    NetworkModel,
)
from .config import Scenario, StrategyConfig, load_scenario, parse_scenario, validate
from .engine import Engine, RandomSource
from .metrics import billed_gb_seconds, efficiency, utilization
from .runner import RunResult, Simulation, compare_scenario, run_one, run_scenario
from .strategies import STRATEGY_NAMES, locality_score, make_strategy
from .workload import (
    Catalog,
    Trace,
    WorkloadSpec,
    generate_trace,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "Cluster",
    "ClusterParams",
    "Container",
    "DataObject",
    "Engine",
    "FunctionSpec",
    "NetworkModel",
    "RandomSource",
    "RunResult",
    "Scenario",
    "Simulation",
    "StrategyConfig",
    "STRATEGY_NAMES",
    "Trace",
    "WorkloadSpec",
    "billed_gb_seconds",
    "compare_scenario",
    "efficiency",
    "generate_trace",
    "load_scenario",
    "load_trace",
    "locality_score",
    "make_strategy",
    "parse_scenario",
    "run_one",
    "run_scenario",
    "save_trace",
    "utilization",
    "validate",
]
