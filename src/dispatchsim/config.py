"""Scenario configuration: YAML parsing, dotted overrides and validation.

A scenario file is a key-value tree whose keys mirror the simulator's
dataclass fields:

    cluster:   nodes, mem_capacity, store_capacity, flavors, network
               (latency_ms, bandwidth_mb_per_s), container_boot_ms,
               keep_alive_ms, billing_granularity_ms, max_execution_ms,
               code_store, result_store
    workload:  horizon_ms, arrival, functions, objects,
               refs_per_invocation, origins, trace_path
    strategy:  name, params, work_stealing, steal_poll_ms,
               dispatch_latency_ms, replication
    (or strategies: a list of strategy blocks, for comparisons)
    seeds:     list of integers
    output:    dir, formats
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .cluster import DEFAULT_FLAVORS, EXTERNAL_STORE, ClusterParams, FunctionSpec, NetworkModel
from .errors import ConfigError
from .strategies import STRATEGY_NAMES, scoring_param_errors, unknown_param_errors
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
    replication_decay: float = 0.5

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

    def constants(self) -> dict:
        """Every cost-model constant, echoed into report metadata."""
        c = self.cluster
        out = {
            "cluster.nodes": c.nodes,
            "cluster.mem_capacity": c.mem_capacity,
            "cluster.store_capacity": c.store_capacity,
            "cluster.flavors": "|".join(str(f) for f in c.flavors),
            "cluster.network.latency_ms": c.network.latency_ms,
            "cluster.network.bandwidth_mb_per_s": c.network.bandwidth_mb_per_s,
            "cluster.container_boot_ms": c.container_boot_ms,
            "cluster.keep_alive_ms": c.keep_alive_ms,
            "cluster.billing_granularity_ms": c.billing_granularity_ms,
            "cluster.max_execution_ms": c.max_execution_ms,
            "cluster.code_store": c.code_store,
            "cluster.result_store": c.result_store,
            "workload.horizon_ms": self.workload.horizon_ms,
        }
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


# ---- parsing ---------------------------------------------------------------


def _require_mapping(value, key: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping")
    return value


def _known_keys(raw: dict, keys: tuple[str, ...], prefix: str) -> dict:
    """raw, after checking that every key in it is one of keys."""
    for key in raw:
        if key not in keys:
            path = f"{prefix}.{key}" if prefix else str(key)
            raise ConfigError(f"{path}: unknown key (expected one of: {', '.join(keys)})")
    return raw


def _require_list(value, key: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list")
    return value


_KINDS = {int: "an integer", float: "a number"}


def _convert(value, convert, key: str):
    """convert(value); a value it rejects, or a non-integral number for an
    integer, is a ConfigError naming the key."""
    try:
        if convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected {_KINDS[convert]}, got {value!r}") from None


def _field(raw: dict, key: str, default, convert, prefix: str):
    """raw[key], or the default, through convert (int or float)."""
    return _convert(raw.get(key, default), convert, f"{prefix}.{key}")


def _parse_network(raw: dict) -> NetworkModel:
    _known_keys(raw, ("latency_ms", "bandwidth_mb_per_s"), "cluster.network")
    return NetworkModel(
        latency_ms=_field(raw, "latency_ms", 1, int, "cluster.network"),
        bandwidth_mb_per_s=_field(raw, "bandwidth_mb_per_s", 100.0, float, "cluster.network"),
    )


_CLUSTER_KEYS = ("nodes", "mem_capacity", "store_capacity", "flavors", "network",
                 "container_boot_ms", "keep_alive_ms", "billing_granularity_ms",
                 "max_execution_ms", "code_store", "result_store")


def _parse_cluster(raw: dict) -> ClusterParams:
    _known_keys(raw, _CLUSTER_KEYS, "cluster")
    flavors = _require_list(raw.get("flavors", DEFAULT_FLAVORS), "cluster.flavors")
    return ClusterParams(
        nodes=_field(raw, "nodes", 1, int, "cluster"),
        mem_capacity=_field(raw, "mem_capacity", 4096, int, "cluster"),
        store_capacity=_field(raw, "store_capacity", 4000.0, float, "cluster"),
        flavors=tuple(_convert(f, int, f"cluster.flavors.{i}") for i, f in enumerate(flavors)),
        network=_parse_network(_require_mapping(raw.get("network"), "cluster.network")),
        container_boot_ms=_field(raw, "container_boot_ms", 100, int, "cluster"),
        keep_alive_ms=_field(raw, "keep_alive_ms", 600_000, int, "cluster"),
        billing_granularity_ms=_field(raw, "billing_granularity_ms", 100, int, "cluster"),
        max_execution_ms=_field(raw, "max_execution_ms", 300_000, int, "cluster"),
        code_store=raw.get("code_store", EXTERNAL_STORE),
        result_store=raw.get("result_store", EXTERNAL_STORE),
    )


def _parse_arrival(raw: dict) -> ArrivalSpec:
    _known_keys(raw, ("kind", "rate_per_s", "interval_ms"), "workload.arrival")
    kind = raw.get("kind", "fixed_interval")
    return ArrivalSpec(
        kind=kind,
        rate_per_s=_field(raw, "rate_per_s", 10.0, float, "workload.arrival"),
        interval_ms=_field(raw, "interval_ms", 100, int, "workload.arrival"),
    )


def _parse_objects(raw: dict) -> ObjectSpec:
    _known_keys(raw, ("count", "size", "popularity"), "workload.objects")
    pop_raw = _known_keys(
        _require_mapping(raw.get("popularity"), "workload.objects.popularity"),
        ("kind", "s"), "workload.objects.popularity",
    )
    size = raw.get("size", 100.0)
    if isinstance(size, (list, tuple)):
        if len(size) != 2:
            raise ConfigError("workload.objects.size must be a number or a [lo, hi] pair")
        size = tuple(_convert(v, float, f"workload.objects.size.{i}") for i, v in enumerate(size))
    else:
        size = _convert(size, float, "workload.objects.size")
    return ObjectSpec(
        count=_field(raw, "count", 0, int, "workload.objects"),
        size=size,
        popularity=PopularitySpec(
            kind=pop_raw.get("kind", "zipf"),
            s=_field(pop_raw, "s", 1.1, float, "workload.objects.popularity"),
        ),
    )


def _parse_function(raw: dict, idx: int) -> tuple[FunctionSpec, float]:
    key = f"workload.functions.{idx}"
    _known_keys(raw, ("name", "code_size", "flavor", "compute_ms", "write_back", "weight"), key)
    if "name" not in raw:
        raise ConfigError(f"{key}: missing name")
    spec = FunctionSpec(
        name=str(raw["name"]),
        code_size=_field(raw, "code_size", 0.0, float, key),
        flavor=_field(raw, "flavor", 128, int, key),
        compute_ms=_field(raw, "compute_ms", 1, int, key),
        write_back=_field(raw, "write_back", 0.0, float, key),
    )
    return spec, _field(raw, "weight", 1.0, float, key)


def _parse_refs(raw) -> tuple[int, int]:
    key = "workload.refs_per_invocation"
    if raw is None:
        return (0, 0)
    if isinstance(raw, int):
        return (raw, raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return (_convert(raw[0], int, f"{key}.0"), _convert(raw[1], int, f"{key}.1"))
    raise ConfigError(f"{key} must be an int or a [lo, hi] pair")


def _parse_origin(raw: dict, idx: int) -> tuple[str, float]:
    _known_keys(raw, ("tag", "weight"), f"workload.origins.{idx}")
    return str(raw.get("tag", f"origin{idx}")), _field(raw, "weight", 1.0, float,
                                                       f"workload.origins.{idx}")


_WORKLOAD_KEYS = ("horizon_ms", "arrival", "functions", "objects", "refs_per_invocation",
                  "origins", "trace_path")


def _parse_workload(raw: dict) -> WorkloadSpec:
    _known_keys(raw, _WORKLOAD_KEYS, "workload")
    functions = tuple(
        _parse_function(_require_mapping(f, f"workload.functions.{i}"), i)
        for i, f in enumerate(_require_list(raw.get("functions", []), "workload.functions"))
    )
    origins_raw = raw.get("origins") or [{"tag": "default", "weight": 1.0}]
    origins = tuple(
        _parse_origin(_require_mapping(o, f"workload.origins.{i}"), i)
        for i, o in enumerate(_require_list(origins_raw, "workload.origins"))
    )
    return WorkloadSpec(
        horizon_ms=_field(raw, "horizon_ms", 10_000, int, "workload"),
        arrival=_parse_arrival(_require_mapping(raw.get("arrival"), "workload.arrival")),
        functions=functions,
        objects=_parse_objects(_require_mapping(raw.get("objects"), "workload.objects")),
        refs_per_invocation=_parse_refs(raw.get("refs_per_invocation")),
        origins=origins,
        trace_path=raw.get("trace_path"),
    )


_STRATEGY_KEYS = ("name", "params", "work_stealing", "steal_poll_ms", "dispatch_latency_ms",
                  "replication")


def _parse_strategy(raw: dict, key: str) -> StrategyConfig:
    """One strategy block; key is its dotted path (strategy or strategies.N)."""
    _known_keys(raw, _STRATEGY_KEYS, key)
    replication = _known_keys(
        _require_mapping(raw.get("replication"), f"{key}.replication"),
        ("period_ms", "threshold", "decay"), f"{key}.replication",
    )
    latency = raw.get("dispatch_latency_ms")
    work_stealing = raw.get("work_stealing", False)
    if not isinstance(work_stealing, bool):
        raise ConfigError(f"{key}.work_stealing: expected a boolean, got {work_stealing!r}")
    return StrategyConfig(
        name=str(raw.get("name", "round_robin")),
        params=dict(_require_mapping(raw.get("params"), f"{key}.params")),
        work_stealing=work_stealing,
        steal_poll_ms=_field(raw, "steal_poll_ms", 10, int, key),
        dispatch_latency_ms=(
            None if latency is None else _convert(latency, int, f"{key}.dispatch_latency_ms")
        ),
        replication_period_ms=_field(replication, "period_ms", 1000, int, f"{key}.replication"),
        replication_threshold=_field(replication, "threshold", 10.0, float,
                                     f"{key}.replication"),
        replication_decay=_field(replication, "decay", 0.5, float, f"{key}.replication"),
    )


def parse_scenario(raw: dict) -> Scenario:
    raw = _known_keys(_require_mapping(raw, "scenario"),
                      ("cluster", "workload", "strategy", "strategies", "seeds", "output"), "")
    if "strategies" in raw:
        strategies = [
            _parse_strategy(_require_mapping(s, f"strategies.{i}"), f"strategies.{i}")
            for i, s in enumerate(_require_list(raw["strategies"], "strategies"))
        ]
    else:
        strategies = [
            _parse_strategy(_require_mapping(raw.get("strategy"), "strategy"), "strategy")
        ]
    seeds_raw = raw.get("seeds", [1])
    if isinstance(seeds_raw, int):
        seeds_raw = [seeds_raw]
    output_raw = _known_keys(_require_mapping(raw.get("output"), "output"),
                             ("dir", "formats"), "output")
    formats = output_raw.get("formats", ["csv"])
    if isinstance(formats, str):
        formats = [formats]
    return Scenario(
        cluster=_parse_cluster(_require_mapping(raw.get("cluster"), "cluster")),
        workload=_parse_workload(_require_mapping(raw.get("workload"), "workload")),
        strategies=strategies,
        seeds=[_convert(s, int, f"seeds.{i}")
               for i, s in enumerate(_require_list(seeds_raw, "seeds"))],
        output=OutputConfig(
            dir=str(output_raw.get("dir", "out")),
            formats=tuple(str(f) for f in _require_list(formats, "output.formats")),
        ),
    )


def load_scenario(path, overrides: list[str] | None = None) -> Scenario:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: cannot parse YAML: {exc}") from exc
    raw = _require_mapping(raw, "scenario")
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
        key = int(segment) if segment.isdigit() else segment
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
    key = int(last) if last.isdigit() and isinstance(target, list) else last
    try:
        target[key] = yaml.safe_load(value)
    except (yaml.YAMLError, IndexError, TypeError) as exc:
        raise ConfigError(f"override {override!r} cannot be applied: {exc}") from exc


# ---- validation -------------------------------------------------------------


def validate(scenario: Scenario) -> list[Diagnostic]:
    """All violations, without running anything; empty means valid."""
    diags: list[Diagnostic] = []
    err = lambda key, msg: diags.append(Diagnostic(key, msg, "error"))
    warn = lambda key, msg: diags.append(Diagnostic(key, msg, "warning"))

    c = scenario.cluster
    if c.nodes < 1:
        err("cluster.nodes", "needs at least one node")
    if c.mem_capacity <= 0:
        err("cluster.mem_capacity", "must be positive")
    if c.store_capacity < 0:
        err("cluster.store_capacity", "must be non-negative")
    if not c.flavors or any(f <= 0 for f in c.flavors):
        err("cluster.flavors", "must be a non-empty set of positive MB sizes")
    if c.network.latency_ms < 0:
        err("cluster.network.latency_ms", "must be non-negative")
    if c.network.bandwidth_mb_per_s <= 0:
        err("cluster.network.bandwidth_mb_per_s", "must be positive")
    for key, value in (
        ("cluster.container_boot_ms", c.container_boot_ms),
        ("cluster.keep_alive_ms", c.keep_alive_ms),
    ):
        if value < 0:
            err(key, "must be non-negative")
    if c.billing_granularity_ms < 1:
        err("cluster.billing_granularity_ms", "must be at least 1 ms")
    if c.max_execution_ms < 1:
        err("cluster.max_execution_ms", "must be at least 1 ms")

    w = scenario.workload
    if w.horizon_ms <= 0:
        err("workload.horizon_ms", "must be positive")
    if w.arrival.kind not in ("poisson", "fixed_interval"):
        err("workload.arrival.kind", "must be poisson or fixed_interval")
    elif w.arrival.kind == "poisson" and w.arrival.rate_per_s <= 0:
        err("workload.arrival.rate_per_s", "must be positive")
    elif w.arrival.kind == "fixed_interval" and w.arrival.interval_ms < 1:
        err("workload.arrival.interval_ms", "must be at least 1 ms")
    if not w.functions:
        err("workload.functions", "at least one function is required")
    names = set()
    for i, (fs, weight) in enumerate(w.functions):
        key = f"workload.functions.{i}"
        if fs.name in names:
            err(key, f"duplicate function name {fs.name!r}")
        names.add(fs.name)
        if weight <= 0:
            err(f"{key}.weight", "must be positive")
        if fs.compute_ms < 1:
            err(f"{key}.compute_ms", "must be at least 1 ms")
        if fs.compute_ms > c.max_execution_ms:
            err(f"{key}.compute_ms", "exceeds cluster.max_execution_ms")
        if fs.flavor not in c.flavors:
            err(f"{key}.flavor", f"{fs.flavor} not in configured flavors {c.flavors}")
        if fs.flavor > c.mem_capacity:
            err(f"{key}.flavor", "exceeds node memory capacity")
        if fs.code_size < 0 or fs.write_back < 0:
            err(key, "code_size and write_back must be non-negative")
    o = w.objects
    if o.count < 0:
        err("workload.objects.count", "must be non-negative")
    sizes = o.size if isinstance(o.size, tuple) else (o.size, o.size)
    if sizes[0] <= 0 or sizes[1] < sizes[0]:
        err("workload.objects.size", "must be positive (lo <= hi for a range)")
    if o.popularity.kind not in ("zipf", "uniform"):
        err("workload.objects.popularity", "kind must be zipf or uniform")
    elif o.popularity.kind == "zipf" and o.popularity.s <= 0:
        err("workload.objects.popularity", "zipf exponent s must be > 0")
    if o.count and c.store_capacity < sizes[1]:
        warn("cluster.store_capacity",
             "smaller than the largest object; placement will fail at runtime")
    lo, hi = w.refs_per_invocation
    if lo < 0 or hi < lo:
        err("workload.refs_per_invocation", "needs 0 <= lo <= hi")
    if hi > 0 and o.count == 0 and w.trace_path is None:
        err("workload.refs_per_invocation", "references requested but no objects defined")
    if not w.origins or any(weight <= 0 for _, weight in w.origins):
        err("workload.origins", "origin weights must be positive")

    for i, s in enumerate(scenario.strategies):
        key = f"strategy.{i}" if len(scenario.strategies) > 1 else "strategy"
        if s.name not in STRATEGY_NAMES:
            err(f"{key}.name",
                f"unknown strategy {s.name!r}; registered strategies: "
                f"{', '.join(STRATEGY_NAMES)}")
        for param, problem in (unknown_param_errors(s.name, s.params)
                               or scoring_param_errors(s.params)):
            err(f"{key}.params.{param}", problem)
        if s.steal_poll_ms < 1:
            err(f"{key}.steal_poll_ms", "must be at least 1 ms")
        if s.dispatch_latency_ms is not None and s.dispatch_latency_ms < 0:
            err(f"{key}.dispatch_latency_ms", "must be non-negative")
        if s.replication_period_ms < 1:
            err(f"{key}.replication.period_ms", "must be at least 1 ms")
        if s.replication_threshold <= 0:
            err(f"{key}.replication.threshold", "must be positive")
        if not 0.0 < s.replication_decay <= 1.0:
            err(f"{key}.replication.decay", "must be in (0, 1]")

    if not scenario.seeds:
        err("seeds", "at least one seed is required")
    for fmt in scenario.output.formats:
        if fmt not in ("csv", "json"):
            err("output.formats", f"unknown format {fmt!r} (csv or json)")
    return diags
