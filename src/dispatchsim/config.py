"""Scenario configuration: YAML parsing, dotted overrides and validation.

A scenario file is a key-value tree whose keys mirror the simulator's
dataclass fields. ``FIELDS`` below is the table of every accepted key with
its kind and check; a key left out takes the default of the dataclass field
it fills. A ``strategies`` list of strategy blocks, for comparisons, takes
the place of the single ``strategy`` block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import yaml

from .cluster import EXTERNAL_STORE, MAX_MS, ClusterParams, FunctionSpec, NetworkModel
from .errors import ConfigError
from .strategies import DEFAULT_DECAY, STRATEGY_NAMES, param_errors
from .workload import ArrivalSpec, ObjectSpec, PopularitySpec, WorkloadSpec


@dataclass
class StrategyConfig:
    name: str = "round_robin"
    params: dict = field(default_factory=dict)
    work_stealing: bool = False
    steal_poll_ms: int = 10
    dispatch_latency_ms: int | None = None
    replication_period_ms: int = 1000
    replication_threshold: float = 10.0
    replication_decay: float = DEFAULT_DECAY

    @property
    def label(self) -> str:
        return self.name + ("+steal" if self.work_stealing else "")


@dataclass
class OutputConfig:
    dir: str = "out"
    formats: tuple[str, ...] = ("csv",)


@dataclass
class Scenario:
    cluster: ClusterParams = field(default_factory=ClusterParams)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    strategies: list[StrategyConfig] = field(default_factory=lambda: [StrategyConfig()])
    seeds: list[int] = field(default_factory=lambda: [1])
    output: OutputConfig = field(default_factory=OutputConfig)
    # What the field table found when the scenario was parsed; validate
    # adds the cross-field rules.
    diagnostics: list[Diagnostic] = field(default_factory=list, repr=False, compare=False)

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
            out[f"{prefix}.replication"] = (
                f"{s.replication_period_ms}/{s.replication_threshold}/{s.replication_decay}"
            )
        out["seeds"] = "|".join(str(s) for s in self.seeds)
        return out


@dataclass(frozen=True)
class Diagnostic:
    key: str
    message: str
    severity: str = "error"  # or "warning"

    def __str__(self) -> str:
        return f"{self.severity}: {self.key}: {self.message}"


# ---- kinds: convert a value or raise a ConfigError naming its key ---------------


def _fail(key: str, problem: str):
    raise ConfigError(f"{key or 'scenario'}: {problem}")


def _kind(expected: str, convert):
    """A scalar kind: convert(value), where None or an exception means the
    value is not of the kind."""

    def kind(value, key: str, _diags=None):
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


def _as_ms(value) -> int | None:
    value = _as_int(value)
    return value if value is not None and abs(value) <= MAX_MS else None


def _as_float(value) -> float | None:
    return None if isinstance(value, bool) or not math.isfinite(float(value)) else float(value)


_integer = _kind("an integer", _as_int)
_ms = _kind(f"an integer number of ms up to {MAX_MS}", _as_ms)
_number = _kind("a number", _as_float)
_boolean = _kind("a boolean", lambda v: v if isinstance(v, bool) else None)
_string = _kind("a string", lambda v: v if isinstance(v, str) else None)
_mapping = _kind("a mapping", lambda v: dict(v) if isinstance(v, dict) else None)
_store = _kind(f"{EXTERNAL_STORE!r} or a node id",
               lambda v: v if v == EXTERNAL_STORE or type(v) is int else None)


def _pair(kind, spread: bool = False):
    """One value of kind, or a [lo, hi] pair of them; spread turns one
    value into the pair (value, value)."""

    def convert(value, key: str, diags):
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

    def convert(value, key: str, diags):
        if not isinstance(value, (list, tuple)):
            if not promote:
                _fail(key, f"expected a list, got {value!r}")
            return (_value(value, element, key, diags),)
        return tuple(_value(v, element, f"{key}.{i}", diags) for i, v in enumerate(value))

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


def _one_of(*choices):
    return _is(lambda v: v in choices, f"must be {' or '.join(choices)}")


def _registered(name: str) -> str | None:
    if name in STRATEGY_NAMES:
        return None
    return f"unknown strategy {name!r}; registered strategies: {', '.join(STRATEGY_NAMES)}"


# ---- the field table ------------------------------------------------------------

# Every accepted key: its kind and the check of its converted value. N stands
# for a list position, and a strategies entry takes the strategy rows. Keys
# compared with other keys are checked in validate.
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
    "workload.arrival.kind": (_string, _one_of("poisson", "fixed_interval")),
    "workload.arrival.rate_per_s": (_number, None),
    "workload.arrival.interval_ms": (_ms, None),
    "workload.functions": (_items("workload.functions.N"), None),
    "workload.functions.N.name": (_string, _required),
    "workload.functions.N.code_size": (_number, _non_negative),
    "workload.functions.N.flavor": (_integer, None),
    "workload.functions.N.compute_ms": (_ms, _at_least_1ms),
    "workload.functions.N.write_back": (_number, _non_negative),
    "workload.functions.N.weight": (_number, _positive),
    "workload.objects.count": (_integer, _non_negative),
    "workload.objects.size": (_pair(_number), _is(
        lambda v: 0 < _span(v)[0] <= _span(v)[1], "must be positive (lo <= hi for a range)")),
    "workload.objects.popularity.kind": (_string, _one_of("zipf", "uniform")),
    "workload.objects.popularity.s": (_number, None),
    "workload.refs_per_invocation": (_pair(_integer, spread=True), _is(
        lambda v: 0 <= v[0] <= v[1], "needs 0 <= lo <= hi")),
    "workload.origins": (_items("workload.origins.N"), None),
    "workload.origins.N.tag": (_string, None),
    "workload.origins.N.weight": (_number, _positive),
    "workload.trace_path": (_string, None),
    "strategy.name": (_string, _registered),
    "strategy.params": (_mapping, None),
    "strategy.work_stealing": (_boolean, None),
    "strategy.steal_poll_ms": (_ms, _at_least_1ms),
    "strategy.dispatch_latency_ms": (_ms, _non_negative),
    "strategy.replication.period_ms": (_ms, _at_least_1ms),
    "strategy.replication.threshold": (_number, _positive),
    "strategy.replication.decay": (_number, _is(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
    "strategies": (_items("strategy"), _is(bool, "needs at least one strategy")),
    "seeds": (_items("seeds.N", promote=True), _is(bool, "at least one seed is required")),
    "seeds.N": (_integer, None),
    "output.dir": (_string, None),
    "output.formats": (_items("output.formats.N", promote=True), None),
    "output.formats.N": (_string, lambda v: None if v in ("csv", "json")
                         else f"unknown format {v!r} (csv or json)"),
}


def _function(weight: float = 1.0, **spec) -> tuple[FunctionSpec, float]:
    return FunctionSpec(**spec), weight


def _workload(origins=(), **fields) -> WorkloadSpec:
    if origins:  # an empty list keeps the default origin
        fields["origins"] = tuple((o.get("tag", f"origin{i}"), o.get("weight", 1.0))
                                  for i, o in enumerate(origins))
    return WorkloadSpec(**fields)


def _strategy(replication=None, **fields) -> StrategyConfig:
    return StrategyConfig(**fields, **{f"replication_{k}": v
                                       for k, v in (replication or {}).items()})


# What each mapping in the tree builds from its converted fields; the rest
# stay dicts.
_BUILD = {
    "cluster": ClusterParams,
    "cluster.network": NetworkModel,
    "workload": _workload,
    "workload.arrival": ArrivalSpec,
    "workload.functions.N": _function,
    "workload.objects": ObjectSpec,
    "workload.objects.popularity": PopularitySpec,
    "strategy": _strategy,
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


def _value(value, entry: str, key: str, diags: list[Diagnostic]):
    """value as the table entry (a row, or a mapping of rows) says,
    with key its dotted path in the scenario."""
    row = FIELDS.get(entry)
    if row is None:
        return _section(value, entry, key, diags)
    kind, check = row
    value = kind(value, key, diags)
    problem = check(value) if check else None
    if problem:
        diags.append(Diagnostic(key, problem))
    return value


def _section(raw, entry: str, key: str, diags: list[Diagnostic]):
    """The mapping raw, its keys converted and checked, then built."""
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
            fields[name] = _value(raw[name], sub, path, diags)
        elif FIELDS.get(sub, (None, None))[1] is _required:
            _fail(path, "is required")
    return _BUILD.get(entry, dict)(**fields)


def parse_scenario(raw: dict) -> Scenario:
    """The scenario a raw tree describes. A value of the wrong kind or an
    unknown key raises ConfigError; failed checks are kept for validate."""
    diags: list[Diagnostic] = []
    fields = _section(raw, "", "", diags)
    single = fields.pop("strategy", None)
    if "strategies" in fields:
        strategies = list(fields.pop("strategies"))
        keys = [f"strategies.{i}" for i in range(len(strategies))]
    else:
        strategies, keys, single = [single or StrategyConfig()], ["strategy"], None
    for key, s in zip(keys, strategies):
        if s.name in STRATEGY_NAMES:
            diags += [Diagnostic(f"{key}.params.{param}", problem)
                      for param, problem in param_errors(s.name, s.params)]
    if single:
        diags.append(Diagnostic("strategy", "cannot be given with a strategies list"))
    if "seeds" in fields:
        fields["seeds"] = list(fields["seeds"])
    return Scenario(strategies=strategies, diagnostics=diags, **fields)


def load_scenario(path, overrides: list[str] | None = None) -> Scenario:
    try:
        with open(path, "rb") as fh:  # PyYAML decodes, and reports bytes that are not text
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: cannot parse YAML: {exc}") from exc
    raw = {} if raw is None else _mapping(raw, "scenario")
    for override in overrides or []:
        apply_override(raw, override)
    return parse_scenario(raw)


def apply_override(raw: dict, override: str) -> None:
    """Apply a dotted-path override like cluster.nodes=8; list elements are
    addressed by integer segments and values parse as YAML scalars."""
    if "=" not in override:
        raise ConfigError(f"override {override!r} is not of the form key.path=value")
    path, _, value = override.partition("=")
    segments = path.split(".")
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
    try:
        target[key] = yaml.safe_load(value)
    except (yaml.YAMLError, IndexError, TypeError) as exc:
        raise ConfigError(f"override {override!r} cannot be applied: {exc}") from exc


# ---- validation -------------------------------------------------------------


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All violations, without running anything; empty means valid. These
    are the field checks made at parse time plus the rules that compare
    fields with each other."""
    diags = list(scenario.diagnostics)
    err = lambda key, msg: diags.append(Diagnostic(key, msg, "error"))

    c = scenario.cluster
    for key in ("code_store", "result_store"):
        store = getattr(c, key)
        if store != EXTERNAL_STORE and not 0 <= store < c.nodes:
            err(f"cluster.{key}", f"must be {EXTERNAL_STORE} or a node id below cluster.nodes")

    w = scenario.workload
    if w.arrival.kind == "poisson" and w.arrival.rate_per_s <= 0:
        err("workload.arrival.rate_per_s", "must be positive")
    elif w.arrival.kind == "fixed_interval" and w.arrival.interval_ms < 1:
        err("workload.arrival.interval_ms", "must be at least 1 ms")
    if not w.functions:
        err("workload.functions", "at least one function is required")
    names = set()
    for i, (fs, _) in enumerate(w.functions):
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
    if o.popularity.kind == "zipf" and o.popularity.s <= 0:
        err("workload.objects.popularity", "zipf exponent s must be > 0")
    if o.count and c.store_capacity < _span(o.size)[1]:
        diags.append(Diagnostic("cluster.store_capacity", "smaller than the largest object; "
                                "placement will fail at runtime", "warning"))
    if w.refs_per_invocation[1] > 0 and o.count == 0 and not w.trace_path:
        err("workload.refs_per_invocation", "references requested but no objects defined")
    return diags
