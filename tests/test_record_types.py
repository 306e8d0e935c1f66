"""The package's record types: plain slotted classes with a pinned API.

Each type used to be a dataclass. API below holds, per type, its fields in
positional order with their defaults, as the dataclass declared them; the
tests check that the plain class takes the same calls and gives the same
attribute values, and that importing the package loads neither
``dataclasses`` nor ``inspect``. FunctionSpec's weight, OriginSpec (a named
tuple) and ReplicationConfig came later, when each record took the shape of
the scenario mapping it is parsed from.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispatchsim
from dispatchsim import config
from dispatchsim.cluster import NetworkModel
from dispatchsim.config import Diagnostic

from reference import PhaseTimeline, TaskRecord

REQUIRED = object()
DEFAULT_NETWORK = ("NetworkModel", (("latency_ms", 1), ("bandwidth_mb_per_s", 100.0)))
DEFAULT_CLUSTER = ("ClusterParams", (
    ("nodes", 1), ("mem_capacity", 4096), ("store_capacity", 4000.0),
    ("flavors", (64, 128, 256, 512, 1024)), ("network", DEFAULT_NETWORK),
    ("container_boot_ms", 100), ("keep_alive_ms", 600_000), ("billing_granularity_ms", 100),
    ("max_execution_ms", 300_000), ("code_store", "external"), ("result_store", "external"),
))
DEFAULT_ARRIVAL = ("ArrivalSpec", (("kind", "fixed_interval"), ("rate_per_s", 10.0),
                                   ("interval_ms", 100)))
DEFAULT_POPULARITY = ("PopularitySpec", (("kind", "zipf"), ("s", 1.1)))
DEFAULT_OBJECTS = ("ObjectSpec", (("count", 0), ("size", 100.0),
                                  ("popularity", DEFAULT_POPULARITY)))
DEFAULT_WORKLOAD = ("WorkloadSpec", (
    ("horizon_ms", 10_000), ("arrival", DEFAULT_ARRIVAL), ("functions", ()),
    ("objects", DEFAULT_OBJECTS), ("refs_per_invocation", (0, 0)),
    ("origins", (("OriginSpec", (("tag", "default"), ("weight", 1.0))),)), ("trace_path", None),
))
DEFAULT_REPLICATION = ("ReplicationConfig", (("period_ms", 1000), ("threshold", 10.0),
                                             ("decay", 0.5)))
DEFAULT_STRATEGY = ("StrategyConfig", (
    ("name", "round_robin"), ("params", {}), ("work_stealing", False), ("steal_poll_ms", 10),
    ("dispatch_latency_ms", None), ("replication", DEFAULT_REPLICATION),
))
DEFAULT_OUTPUT = ("OutputConfig", (("dir", "out"), ("formats", ("csv",))))

# module -> type -> ((field, default or REQUIRED), ...), in positional order.
# A default given as (type name, fields) is an instance built with no
# arguments; it, {}, [] and set() are built per instance, so each instance
# gets its own.
API = {
    "cluster": {
        "FunctionSpec": (("name", REQUIRED), ("code_size", 0.0), ("flavor", 128),
                         ("compute_ms", 1), ("write_back", 0.0), ("weight", 1.0)),
        "DataObject": (("id", REQUIRED), ("size", REQUIRED), ("placements", set())),
        "Container": (("function", REQUIRED), ("node", REQUIRED), ("flavor", REQUIRED),
                      ("expiry", None)),
        "NetworkModel": DEFAULT_NETWORK[1],
        "ClusterParams": DEFAULT_CLUSTER[1],
    },
    "config": {
        "ReplicationConfig": DEFAULT_REPLICATION[1],
        "StrategyConfig": DEFAULT_STRATEGY[1],
        "OutputConfig": DEFAULT_OUTPUT[1],
        "Scenario": (("cluster", DEFAULT_CLUSTER), ("workload", DEFAULT_WORKLOAD),
                     ("strategies", [DEFAULT_STRATEGY]), ("seeds", [1]),
                     ("output", DEFAULT_OUTPUT)),
        "Diagnostic": (("key", REQUIRED), ("message", REQUIRED), ("severity", "error")),
    },
    "workload": {
        "ArrivalSpec": DEFAULT_ARRIVAL[1],
        "PopularitySpec": DEFAULT_POPULARITY[1],
        "ObjectSpec": DEFAULT_OBJECTS[1],
        "OriginSpec": (("tag", REQUIRED), ("weight", 1.0)),
        "WorkloadSpec": DEFAULT_WORKLOAD[1],
        "Catalog": (("functions", {}), ("objects", {})),
    },
    "strategies": {
        "ReplicationAction": (("object_id", REQUIRED), ("node", REQUIRED),
                              ("placed", REQUIRED), ("note", REQUIRED)),
    },
}
TYPES = [(module, name) for module, types in API.items() for name in types]
MUTABLE_DEFAULTS = (dict, list, set)


def is_record(value) -> bool:
    return hasattr(type(value), "__slots__") and type(value).__module__.startswith("dispatchsim.")


def field_names(cls) -> tuple[str, ...]:
    """A record type's fields: a named tuple's _fields, else its __slots__."""
    return getattr(cls, "_fields", cls.__slots__)


def as_pinned(value):
    """value in the form API writes a default in: a record type as (type
    name, ((field, value), ...)), containers element by element."""
    if is_record(value):
        return (type(value).__name__, tuple((name, as_pinned(getattr(value, name)))
                                            for name in field_names(type(value))))
    if isinstance(value, (list, tuple)):
        return type(value)(as_pinned(v) for v in value)
    return value


def record_type(module: str, name: str):
    return getattr(importlib.import_module(f"dispatchsim.{module}"), name)


@pytest.mark.parametrize("module, name", TYPES)
def test_record_type_takes_the_same_calls(module, name):
    cls = record_type(module, name)
    fields = API[module][name]
    names = tuple(field for field, _ in fields)
    assert field_names(cls) == names
    values = [object() for _ in names]
    for made in (cls(*values), cls(**dict(zip(names, values)))):
        assert not hasattr(made, "__dict__")
        assert all(getattr(made, field) is v for field, v in zip(names, values))
    with pytest.raises(TypeError):
        cls(*values, object())

    required = [v for (_, default), v in zip(fields, values) if default is REQUIRED]
    defaults, again = cls(*required), cls(*required)
    for field, default in fields:
        if default is REQUIRED:
            continue
        value = getattr(defaults, field)
        assert as_pinned(value) == default, field
        if isinstance(value, MUTABLE_DEFAULTS) or is_record(value):
            assert value is not getattr(again, field), field
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@pytest.mark.parametrize("entry", sorted(config._BUILD))
def test_each_mapping_builds_a_record_type_with_its_keys_as_fields(entry):
    # validate reads each key of a mapping as the record's attribute of the
    # same name, so the record has the mapping's keys, in table order.
    cls = config._BUILD[entry]
    assert isinstance(cls, type)
    assert field_names(cls) == tuple(config._KEYS[entry])


def test_run_result_takes_the_run_settings_and_starts_an_empty_account():
    # RunResult is the one type whose constructor is not its fields: it
    # takes the run's settings, and the account it holds starts empty.
    cls = record_type("runner", "RunResult")
    assert cls is record_type("metrics", "RunResult")
    assert cls.__slots__ == (
        "strategy", "seed", "horizon_ms", "node_count", "occupied_ms_total", "steals",
        "replication_log", "dispatch_ms_total", "queue_ms_total", "active_counts", "failures",
        "actual_ms", "_ideal_ms", "gb_seconds", "first_arrival", "last_finish")
    names = ("strategy", "seed", "ideal_ms", "first_arrival", "horizon_ms", "node_count")
    strategy, seed, first_arrival, horizon_ms, node_count = (object() for _ in range(5))
    values = (strategy, seed, (80, 1), first_arrival, horizon_ms, node_count)
    made = [cls(*values), cls(**dict(zip(names, values)))]
    for result in made:
        assert not hasattr(result, "__dict__")
        assert (result.strategy, result.seed, result.first_arrival, result.horizon_ms,
                result.node_count) == (strategy, seed, first_arrival, horizon_ms, node_count)
        assert result.occupied_ms_total == result.steals == result.last_finish == 0
        assert result.replication_log == [] and result.tasks == result.replications == 0
        assert result.phase_totals == [0] * 7 and result.failures == 0
        assert repr(result.gb_seconds) == "0"  # the int 0, as builtin sum starts
        assert [list(column) for column in result.actual_ms] == [[], []]
    assert made[0].replication_log is not made[1].replication_log
    assert made[0].active_counts is not made[1].active_counts
    assert made[0].actual_ms[0] is not made[1].actual_ms[0]
    with pytest.raises(TypeError):
        cls(*values, object())
    with pytest.raises(TypeError):
        cls(*values[:-1])


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    src = str(Path(dispatchsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import dispatchsim, dispatchsim.cli\n"
            "assert dispatchsim.__file__.startswith(sys.argv[1]), dispatchsim.__file__\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", code, src], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_compared_and_printed_types_keep_the_dataclass_repr_and_equality():
    # Reprs recorded from the dataclasses; equality is by type and fields.
    timeline = PhaseTimeline(1, 2, 3, 4, 5, 6, 7, 8, 36)
    assert repr(timeline) == (
        "PhaseTimeline(dispatch_ms=1, queue_wait_ms=2, boot_ms=3, code_fetch_ms=4, "
        "data_fetch_ms=5, compute_ms=6, write_back_ms=7, started_at=8, finished_at=36)")
    assert repr(Diagnostic("cluster.nodes", "needs at least one node")) == (
        "Diagnostic(key='cluster.nodes', message='needs at least one node', severity='error')")
    assert repr(TaskRecord("inv-000001", "f1", 3, PhaseTimeline(), 80, 0.125, "completed")) == (
        "TaskRecord(invocation_id='inv-000001', function='f1', node=3, timeline=PhaseTimeline("
        "dispatch_ms=0, queue_wait_ms=0, boot_ms=0, code_fetch_ms=0, data_fetch_ms=0, "
        "compute_ms=0, write_back_ms=0, started_at=0, finished_at=0), ideal_ms=80, "
        "billed_gb_s=0.125, status='completed')")
    cluster_params = record_type("cluster", "ClusterParams")
    assert repr(cluster_params(nodes=4, flavors=(128,), code_store=0)) == (
        "ClusterParams(nodes=4, mem_capacity=4096, store_capacity=4000.0, flavors=(128,), "
        "network=NetworkModel(latency_ms=1, bandwidth_mb_per_s=100.0), container_boot_ms=100, "
        "keep_alive_ms=600000, billing_granularity_ms=100, max_execution_ms=300000, "
        "code_store=0, result_store='external')")

    assert timeline == PhaseTimeline(1, 2, 3, 4, 5, 6, 7, 8, 36)
    assert timeline != PhaseTimeline(1, 2, 3, 4, 5, 6, 7, 8, 37)
    assert cluster_params(network=NetworkModel(2)) == cluster_params(network=NetworkModel(2))
    assert cluster_params(network=NetworkModel(2)) != cluster_params()
    assert NetworkModel() != (1, 100.0)
