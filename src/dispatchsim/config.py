"""Scenario configuration: YAML parsing, dotted overrides and validation.

A scenario file is a key-value tree, and each record of a scenario has the
shape of the mapping it is parsed from: one field per key, of the same name.
``FIELDS`` below is the table of every accepted key with its kind, which
parsing converts to, and its check, which validate applies to the records
however they were built, reading each key as the attribute of its name.
Each mapping in the tree is passed as keyword arguments to its record type
(``_BUILD``), so a key left out takes the type's default. A ``strategies``
list takes the place of the single ``strategy`` block.
"""

from __future__ import annotations

import math
import os
from functools import reduce

from .cluster import EXTERNAL_STORE, ClusterParams, FunctionSpec, NetworkModel
from .errors import ConfigError
from .metrics import REPORT_WRITERS
from .slotted import Slotted
from .strategies import DEFAULT_DECAY, strategy_problems
from .workload import (
    WHOLE_MS, ArrivalSpec, ObjectSpec, OriginSpec, PopularitySpec, WorkloadSpec, is_whole_ms,
    trace_problems,
)


class ReplicationConfig:
    """The popularity replication pass: its period, the demand threshold at
    which an object is copied, and the decay of the counts per pass."""

    __slots__ = ("period_ms", "threshold", "decay")

    def __init__(self, period_ms: int = 1000, threshold: float = 10.0,
                 decay: float = DEFAULT_DECAY):
        self.period_ms = period_ms
        self.threshold = threshold
        self.decay = decay


class StrategyConfig:
    __slots__ = ("name", "params", "work_stealing", "steal_poll_ms", "dispatch_latency_ms",
                 "replication")

    def __init__(self, name: str = "round_robin", params: dict | None = None,
                 work_stealing: bool = False, steal_poll_ms: int = 10,
                 dispatch_latency_ms: int | None = None,
                 replication: ReplicationConfig | None = None):
        self.name = name
        self.params = {} if params is None else params
        self.work_stealing = work_stealing
        self.steal_poll_ms = steal_poll_ms
        self.dispatch_latency_ms = dispatch_latency_ms
        self.replication = ReplicationConfig() if replication is None else replication

    @property
    def label(self) -> str:
        return self.name + ("+steal" if self.work_stealing else "")


class OutputConfig:
    __slots__ = ("dir", "formats")

    def __init__(self, dir: str = "out", formats: tuple[str, ...] = ("csv",)):
        self.dir = dir
        self.formats = formats


class Scenario:
    __slots__ = ("cluster", "workload", "strategies", "seeds", "output")

    def __init__(self, cluster: ClusterParams | None = None, workload: WorkloadSpec | None = None,
                 strategies: list[StrategyConfig] | None = None, seeds: list[int] | None = None,
                 output: OutputConfig | None = None):
        self.cluster = ClusterParams() if cluster is None else cluster
        self.workload = WorkloadSpec() if workload is None else workload
        self.strategies = [StrategyConfig()] if strategies is None else strategies
        self.seeds = [1] if seeds is None else seeds
        self.output = OutputConfig() if output is None else output

    def constants(self) -> dict:
        """Every cost-model constant, echoed into report metadata: each
        cluster key of the field table in table order, then the horizon."""
        out = {}
        for key in FIELDS:
            if key.startswith("cluster.") and not key.endswith(".N"):
                value = reduce(getattr, key.split("."), self)
                out[key] = "|".join(map(str, value)) if key == "cluster.flavors" else value
        out["workload.horizon_ms"] = self.workload.horizon_ms
        for i, s in enumerate(self.strategies):
            prefix = f"strategy.{i}"
            out[f"{prefix}.name"] = s.name
            out[f"{prefix}.dispatch_latency_ms"] = (
                "default" if s.dispatch_latency_ms is None else s.dispatch_latency_ms
            )
            out[f"{prefix}.work_stealing"] = s.work_stealing
            if s.work_stealing:
                out[f"{prefix}.steal_poll_ms"] = s.steal_poll_ms
            for key in sorted(s.params):
                out[f"{prefix}.params.{key}"] = s.params[key]
            r = s.replication
            out[f"{prefix}.replication"] = f"{r.period_ms}/{r.threshold}/{r.decay}"
        out["seeds"] = "|".join(str(s) for s in self.seeds)
        return out


class Diagnostic(Slotted):
    __slots__ = ("key", "message", "severity")

    def __init__(self, key: str, message: str, severity: str = "error"):
        self.key = key
        self.message = message
        self.severity = severity  # or "warning"

    def __str__(self) -> str:
        return f"{self.severity}: {self.key}: {self.message}"


# ---- kinds: convert a value or raise a ConfigError naming its key ---------------


def _fail(key: str, problem: str):
    raise ConfigError(f"{key or 'scenario'}: {problem}")


def _kind(expected: str, convert):
    """A scalar kind: convert(value), where None or an exception means the
    value is not of the kind."""

    def kind(value, key: str):
        try:
            result = convert(value)
        except (TypeError, ValueError, OverflowError):
            result = None
        if result is None:
            _fail(key, f"expected {expected}, got {value!r}")
        return result

    return kind


def _as_int(value) -> int | None:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        return None
    return int(value)


def _as_float(value) -> float | None:
    return None if isinstance(value, bool) or not math.isfinite(float(value)) else float(value)


_integer = _kind("an integer", _as_int)
_ms = _kind(WHOLE_MS, lambda v: v if is_whole_ms(v := _as_int(v)) else None)
_number = _kind("a number", _as_float)
_boolean = _kind("a boolean", lambda v: v if isinstance(v, bool) else None)
_string = _kind("a string", lambda v: v if isinstance(v, str) else None)
_mapping = _kind("a mapping", lambda v: dict(v) if isinstance(v, dict) else None)
_store = _kind(f"{EXTERNAL_STORE!r} or a node id",
               lambda v: v if v == EXTERNAL_STORE or type(v) is int else None)


def _pair(kind, spread: bool = False):
    """One value of kind, or a [lo, hi] pair of them; spread turns one
    value into the pair (value, value)."""

    def convert(value, key: str):
        if not isinstance(value, (list, tuple)):
            value = kind(value, key)
            return (value, value) if spread else value
        if len(value) != 2:
            _fail(key, f"expected one value or a [lo, hi] pair, got {value!r}")
        return tuple(kind(v, f"{key}.{i}") for i, v in enumerate(value))

    return convert


def _items(element: str, promote: bool = False):
    """A list whose elements are the table entry element; promote also
    takes one bare element."""

    def convert(value, key: str):
        if not isinstance(value, (list, tuple)):
            if not promote:
                _fail(key, f"expected a list, got {value!r}")
            return (_value(value, element, key),)
        return tuple(_value(v, element, f"{key}.{i}") for i, v in enumerate(value))

    return convert


# ---- checks: the problem with a converted value, or None ------------------------


def _is(passes, problem: str):
    return lambda value: None if passes(value) else problem


def _required(_value) -> None:
    """Marks a key without a default; the walker refuses its absence."""


def _span(value) -> tuple:
    """(lo, hi) of a pair, or of one value."""
    return value if isinstance(value, tuple) else (value, value)


_positive = _is(lambda v: v > 0, "must be positive")
_non_negative = _is(lambda v: v >= 0, "must be non-negative")
_at_least_1ms = _is(lambda v: v >= 1, "must be at least 1 ms")


def _object_size(value) -> str | None:
    lo, hi = _span(value)  # build_catalog draws a size from a [lo, hi] range in whole MB
    if not 0 < lo <= hi:
        return "must be positive (lo <= hi for a range)"
    if isinstance(value, tuple) and not (float(lo).is_integer() and float(hi).is_integer()):
        return "a range needs whole-MB bounds"


# ---- the field table ------------------------------------------------------------

# Every accepted key: the kind parsing converts it to, and the check validate
# applies to its value in the records. N stands for a list position, and a
# strategies entry takes the strategy rows. validate also applies the rules
# that compare keys, workload.trace_problems and strategies.strategy_problems.
FIELDS = {
    "cluster.nodes": (_integer, _is(lambda v: v >= 1, "needs at least one node")),
    "cluster.mem_capacity": (_integer, _positive),
    "cluster.store_capacity": (_number, _non_negative),
    "cluster.flavors": (_items("cluster.flavors.N"), _is(
        lambda v: v and min(v) > 0, "must be a non-empty set of positive MB sizes")),
    "cluster.flavors.N": (_integer, None),
    "cluster.network.latency_ms": (_ms, _non_negative),
    "cluster.network.bandwidth_mb_per_s": (_number, _positive),
    "cluster.container_boot_ms": (_ms, _non_negative),
    "cluster.keep_alive_ms": (_ms, _non_negative),
    "cluster.billing_granularity_ms": (_ms, _at_least_1ms),
    "cluster.max_execution_ms": (_ms, _at_least_1ms),
    "cluster.code_store": (_store, None),
    "cluster.result_store": (_store, None),
    "workload.horizon_ms": (_ms, _positive),
    "workload.arrival.kind": (_string, None),
    "workload.arrival.rate_per_s": (_number, None),
    "workload.arrival.interval_ms": (_ms, None),
    "workload.functions": (_items("workload.functions.N"), None),
    "workload.functions.N.name": (_string, _required),
    "workload.functions.N.code_size": (_number, _non_negative),
    "workload.functions.N.flavor": (_integer, None),
    "workload.functions.N.compute_ms": (_ms, _at_least_1ms),
    "workload.functions.N.write_back": (_number, _non_negative),
    "workload.functions.N.weight": (_number, None),
    "workload.objects.count": (_integer, _non_negative),
    "workload.objects.size": (_pair(_number), _object_size),
    "workload.objects.popularity.kind": (_string, _is(lambda v: v in ("zipf", "uniform"),
                                                      "must be zipf or uniform")),
    "workload.objects.popularity.s": (_number, None),
    "workload.refs_per_invocation": (_pair(_integer, spread=True), _is(
        lambda v: 0 <= v[0] <= v[1], "needs 0 <= lo <= hi")),
    "workload.origins": (_items("workload.origins.N"), None),
    "workload.origins.N.tag": (_string, _required),
    "workload.origins.N.weight": (_number, None),
    "workload.trace_path": (_string, None),
    "strategy.name": (_string, None),
    "strategy.params": (_mapping, None),
    "strategy.work_stealing": (_boolean, None),
    "strategy.steal_poll_ms": (_ms, _at_least_1ms),
    "strategy.dispatch_latency_ms": (_ms, _non_negative),
    "strategy.replication.period_ms": (_ms, _at_least_1ms),
    "strategy.replication.threshold": (_number, _positive),
    "strategy.replication.decay": (_number, None),
    "strategies": (_items("strategy"), _is(bool, "needs at least one strategy")),
    "seeds": (_items("seeds.N", promote=True), _is(bool, "at least one seed is required")),
    "seeds.N": (_integer, None),
    "output.dir": (_string, None),
    "output.formats": (_items("output.formats.N", promote=True),
                       _is(bool, "at least one report format is required")),
    "output.formats.N": (_string, lambda v: None if v in REPORT_WRITERS
                         else f"unknown format {v!r} ({' or '.join(REPORT_WRITERS)})"),
}


# The record type each mapping in the tree builds, its converted keys passed
# as keyword arguments of the same names; the root stays a dict.
_BUILD = {
    "cluster": ClusterParams,
    "cluster.network": NetworkModel,
    "workload": WorkloadSpec,
    "workload.arrival": ArrivalSpec,
    "workload.functions.N": FunctionSpec,
    "workload.objects": ObjectSpec,
    "workload.objects.popularity": PopularitySpec,
    "workload.origins.N": OriginSpec,
    "strategy": StrategyConfig,
    "strategy.replication": ReplicationConfig,
    "output": OutputConfig,
}


def _keys_by_mapping() -> dict[str, dict[str, str]]:
    """For each mapping in the tree, its keys and their table entries, in
    table order."""
    keys: dict[str, dict[str, str]] = {}
    for entry in FIELDS:
        parts = entry.split(".")
        for i, name in enumerate(parts):
            keys.setdefault(".".join(parts[:i]), {})[name] = ".".join(parts[:i + 1])
    return keys


_KEYS = _keys_by_mapping()


# ---- the walker -----------------------------------------------------------------


def _value(raw, entry: str, key: str):
    """raw converted as the table entry says, with key its dotted path: a
    row's kind, or a mapping whose keys are converted, then built."""
    if entry in FIELDS:
        return FIELDS[entry][0](raw, key)
    raw = _mapping(raw, key)
    keys = _KEYS[entry]
    for name in raw:
        if name not in keys:
            _fail(f"{key}.{name}" if key else str(name),
                  f"unknown key (expected one of: {', '.join(keys)})")
    fields = {}
    for name, sub in keys.items():
        path = f"{key}.{name}" if key else name
        if raw.get(name) is not None:  # null keeps the default
            fields[name] = _value(raw[name], sub, path)
        elif FIELDS.get(sub, (None, None))[1] is _required:
            _fail(path, "is required")
    return _BUILD.get(entry, dict)(**fields)


def parse_scenario(raw: dict) -> Scenario:
    """The scenario a raw tree describes, its values converted but unchecked.
    A value of the wrong kind, an unknown key or a strategy block beside a
    strategies list raises ConfigError."""
    fields = _value(raw, "", "")
    single = fields.pop("strategy", None)
    if single and "strategies" in fields:
        _fail("strategy", "cannot be given with a strategies list")
    fields["strategies"] = list(fields.get("strategies", [single or StrategyConfig()]))
    if "seeds" in fields:
        fields["seeds"] = list(fields["seeds"])
    return Scenario(**fields)


def _parse_yaml(source, context: str):
    """The one YAML document in source, a str or a binary file. PyYAML
    parses it with libyaml (``CSafeLoader``) when it was built with libyaml,
    and with its pure-Python ``SafeLoader`` otherwise. Both build the same
    trees from the shipped scenarios and from ``yaml.safe_dump`` output.
    Their error messages differ, and libyaml takes some tabs that the
    pure-Python scanner refuses, as after a colon or a plain scalar. A
    parse error is a ConfigError that starts with context."""
    import yaml  # here, not at module level: importing the package needs no PyYAML

    try:
        return yaml.load(source, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml encodes a str as UTF-8
        raise ConfigError(f"{context}: {exc}") from exc


def load_scenario(path, overrides: list[str] | None = None) -> Scenario:
    with open(path, "rb") as fh:  # PyYAML decodes, and reports bytes that are not text
        raw = _parse_yaml(fh, f"{path}: cannot parse YAML")
    raw = {} if raw is None else _mapping(raw, "scenario")
    for override in overrides or []:
        apply_override(raw, override)
    return parse_scenario(raw)


def apply_override(raw: dict, override: str) -> None:
    """Apply a dotted-path override like cluster.nodes=8; list elements are
    addressed by integer segments and values parse as YAML scalars."""
    path, equals, value = override.partition("=")
    segments = path.split(".")
    if not equals or "" in segments:  # every key segment must name something
        raise ConfigError(f"override {override!r} is not of the form key.path=value")
    target = raw
    for i, segment in enumerate(segments[:-1]):
        key = int(segment) if segment.isdecimal() else segment
        try:
            nxt = target[key]
        except (KeyError, IndexError, TypeError):
            nxt = None
        if nxt is None or not isinstance(nxt, (dict, list)):
            if isinstance(target, list):
                raise ConfigError(f"override {override!r}: no element {segment}")
            nxt = {}
            target[key] = nxt
        target = nxt
    last = segments[-1]
    key = int(last) if last.isdecimal() and isinstance(target, list) else last
    failure = f"override {override!r} cannot be applied"
    try:
        target[key] = _parse_yaml(value, failure)
    except (IndexError, TypeError) as exc:
        raise ConfigError(f"{failure}: {exc}") from exc


# ---- validation -------------------------------------------------------------


def _check(value, entry: str, key: str, diags: list[Diagnostic]) -> None:
    """Append a Diagnostic for each check that value (the table entry at
    dotted path key) or any key or element in it fails, reading a mapping's
    key as the record's attribute of the same name; None is a default."""
    if value is None:
        return
    check = FIELDS.get(entry, (None, None))[1]
    problem = check(value) if check else None
    if problem:
        diags.append(Diagnostic(key, problem))
    for name, sub in _KEYS.get(entry, {}).items():
        for i, item in enumerate(value) if name == "N" else [(name, getattr(value, name))]:
            _check(item, sub, f"{key}.{i}", diags)


def record_diagnostics(record, entry: str, key: str | None = None) -> list[Diagnostic]:
    """Every problem of a record at table entry ``entry``, "cluster" or "strategy", keyed
    from ``key`` or else the entry: its table checks, then a cluster's stores that name no
    node, or a strategy's strategy_problems."""
    key = key or entry
    diags: list[Diagnostic] = []
    _check(record, entry, key, diags)
    if entry == "cluster":
        stores = {sub: getattr(record, sub) for sub in ("code_store", "result_store")}
        problems = [(sub, f"must be {EXTERNAL_STORE} or a node id below cluster.nodes")
                    for sub, store in stores.items()
                    if store != EXTERNAL_STORE and not 0 <= store < record.nodes]
    else:
        problems = strategy_problems(record.name, record.params, record.replication.decay)
    return diags + [Diagnostic(f"{key}.{sub}", problem) for sub, problem in problems]


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All violations, without running anything; empty means valid: the
    table's checks of the records, whoever built them, the record_diagnostics
    of the cluster and each strategy block, and the rules that compare fields."""
    diags = record_diagnostics(scenario.cluster, "cluster")
    for name in ("workload", "strategies", "seeds", "output"):
        _check(getattr(scenario, name), name, name, diags)
    single = len(scenario.strategies) == 1
    for i, block in enumerate(scenario.strategies):
        diags += record_diagnostics(block, "strategy", "strategy" if single else f"strategies.{i}")
    err = lambda key, msg: diags.append(Diagnostic(key, msg, "error"))

    c, w = scenario.cluster, scenario.workload
    diags += [Diagnostic(key, problem) for key, problem in trace_problems(w)]
    names = set()
    for i, fs in enumerate(w.functions):
        key = f"workload.functions.{i}"
        if fs.name in names:
            err(key, f"duplicate function name {fs.name!r}")
        names.add(fs.name)
        if fs.compute_ms > c.max_execution_ms:
            err(f"{key}.compute_ms", "exceeds cluster.max_execution_ms")
        if fs.flavor not in c.flavors:
            err(f"{key}.flavor", f"{fs.flavor} not in configured flavors {c.flavors}")
        if fs.flavor > c.mem_capacity:
            err(f"{key}.flavor", "exceeds node memory capacity")
    o = w.objects
    # Node 0 takes the origin replicas of objects 0, nodes, 2 * nodes, ...
    on_node_0, largest = -(-o.count // max(c.nodes, 1)), _span(o.size)[1]
    if on_node_0 > 0 and largest > 0 and c.store_capacity / largest < on_node_0:
        diags.append(Diagnostic("cluster.store_capacity", f"cannot hold the {on_node_0} origin "
                                "replicas placed on node 0 at the largest object size; "
                                "placement may fail at runtime", "warning"))
    if w.refs_per_invocation[1] > 0 and o.count == 0 and not w.trace_path:
        err("workload.refs_per_invocation", "references requested but no objects defined")
    if w.trace_path and not os.path.isfile(w.trace_path):
        err("workload.trace_path", f"{w.trace_path}: not a file")
    return diags
