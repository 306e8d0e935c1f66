"""Invocation streams: synthetic generation and trace file ingestion.

A trace is an arrival-ordered list of invocations; invocations with equal
references share one ``data_refs`` tuple. Synthetic traces draw from a
seeded random source with a fixed per-invocation draw order (interarrival,
function, reference count, references, origin), so the same (spec, seed)
always yields the same trace. Trace files are JSON lines with fields id,
function, arrival_ms, data_refs, origin.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .cluster import DataObject, FunctionSpec
from .engine import RandomSource
from .errors import (
    ConfigError,
    TraceFormatError,
    UnknownFunctionError,
    UnknownObjectError,
)

TRACE_FIELDS = ("id", "function", "arrival_ms", "data_refs", "origin")


@dataclass(frozen=True, slots=True)
class Invocation:
    """One dispatchable event."""

    id: str
    function: str
    data_refs: tuple[str, ...]
    origin: str
    arrival: int


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival process: poisson(rate_per_s) or fixed_interval(interval_ms)."""

    kind: str = "fixed_interval"
    rate_per_s: float = 10.0
    interval_ms: int = 100


@dataclass(frozen=True)
class PopularitySpec:
    """Object reference skew: zipf(s) over object rank, or uniform."""

    kind: str = "zipf"
    s: float = 1.1


@dataclass(frozen=True)
class ObjectSpec:
    """Object population: fixed size or [lo, hi] uniform MB per object."""

    count: int = 0
    size: float | tuple[float, float] = 100.0
    popularity: PopularitySpec = PopularitySpec()


@dataclass(frozen=True)
class WorkloadSpec:
    horizon_ms: int = 10_000
    arrival: ArrivalSpec = ArrivalSpec()
    functions: tuple[tuple[FunctionSpec, float], ...] = ()  # (spec, weight)
    objects: ObjectSpec = ObjectSpec()
    refs_per_invocation: tuple[int, int] = (0, 0)  # inclusive range
    origins: tuple[tuple[str, float], ...] = (("default", 1.0),)
    trace_path: str | None = None


@dataclass
class Catalog:
    """Function and data-object definitions a run resolves names against."""

    functions: dict[str, FunctionSpec] = field(default_factory=dict)
    objects: dict[str, DataObject] = field(default_factory=dict)


def build_catalog(spec: WorkloadSpec, rng: RandomSource) -> Catalog:
    """Materialize the catalogs; object sizes are drawn here (in id order)
    when the size is a range, before any trace draws."""
    functions = {fs.name: fs for fs, _ in spec.functions}
    objects: dict[str, DataObject] = {}
    for i in range(spec.objects.count):
        oid = f"obj-{i:04d}"
        size = spec.objects.size
        if isinstance(size, tuple):
            size = float(rng.randint(int(size[0]), int(size[1])))
        objects[oid] = DataObject(oid, float(size))
    return Catalog(functions=functions, objects=objects)


class _WeightedPicker:
    """Deterministic weighted choice over a fixed alternative list.

    Draws nothing when only one alternative exists, so singleton mixes do
    not consume randomness.
    """

    def __init__(self, weights: list[float]):
        if any(w <= 0 for w in weights):
            raise ConfigError("weights must be positive")
        self.cum = list(accumulate(weights))
        self.total = self.cum[-1]

    def pick(self, rng: RandomSource) -> int:
        if len(self.cum) == 1:
            return 0
        return bisect_right(self.cum, rng.random() * self.total)


def _popularity_weights(spec: ObjectSpec) -> list[float]:
    if spec.popularity.kind == "zipf":
        s = spec.popularity.s
        if s <= 0:
            raise ConfigError("zipf exponent must be > 0")
        return [1.0 / (rank ** s) for rank in range(1, spec.count + 1)]
    return [1.0] * spec.count


def generate_trace(spec: WorkloadSpec, catalog: Catalog, rng: RandomSource) -> list[Invocation]:
    """Generate the arrival-ordered invocation list for a workload spec."""
    if not spec.functions:
        raise ConfigError("workload defines no functions")
    fn_picker = _WeightedPicker([w for _, w in spec.functions])
    fn_names = [fs.name for fs, _ in spec.functions]
    origin_picker = _WeightedPicker([w for _, w in spec.origins])
    origin_tags = [tag for tag, _ in spec.origins]
    object_ids = list(catalog.objects)
    obj_picker = _WeightedPicker(_popularity_weights(spec.objects)) if object_ids else None

    lo, hi = spec.refs_per_invocation
    shared_refs: dict[tuple[str, ...], tuple[str, ...]] = {}
    out: list[Invocation] = []
    arrival = 0
    t_float = 0.0
    n = 0
    while True:
        if spec.arrival.kind == "fixed_interval":
            arrival += spec.arrival.interval_ms
        elif spec.arrival.kind == "poisson":
            t_float += rng.expovariate(1000.0 / spec.arrival.rate_per_s)
            arrival = int(t_float)
        else:
            raise ConfigError(f"unknown arrival kind: {spec.arrival.kind}")
        if arrival > spec.horizon_ms:
            break
        function = fn_names[fn_picker.pick(rng)]
        k = rng.randint(lo, hi) if hi > lo else lo
        k = min(k, len(object_ids))
        refs: list[str] = []
        if k and obj_picker is not None:
            seen: set[str] = set()
            while len(refs) < k:
                oid = object_ids[obj_picker.pick(rng)]
                if oid not in seen:
                    seen.add(oid)
                    refs.append(oid)
        origin = origin_tags[origin_picker.pick(rng)]
        refs_tuple = tuple(refs)
        refs_tuple = shared_refs.setdefault(refs_tuple, refs_tuple)
        out.append(Invocation(f"inv-{n:06d}", function, refs_tuple, origin, arrival))
        n += 1
    return out


def save_trace(trace: list[Invocation], path) -> None:
    with open(path, "w", newline="\n") as fh:
        for inv in trace:
            fh.write(json.dumps({
                "id": inv.id,
                "function": inv.function,
                "arrival_ms": inv.arrival,
                "data_refs": list(inv.data_refs),
                "origin": inv.origin,
            }) + "\n")


def load_trace(path, catalog: Catalog) -> list[Invocation]:
    """Parse and validate a JSON-lines trace, sorted by arrival time."""
    shared_refs: dict[tuple[str, ...], tuple[str, ...]] = {}
    out: list[Invocation] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise TraceFormatError(line_no, "record is not an object")
            missing = [f for f in TRACE_FIELDS if f not in rec]
            if missing:
                raise TraceFormatError(line_no, f"missing fields: {', '.join(missing)}")
            if not isinstance(rec["arrival_ms"], int) or rec["arrival_ms"] < 0:
                raise TraceFormatError(line_no, "arrival_ms must be a non-negative integer")
            if rec["function"] not in catalog.functions:
                raise UnknownFunctionError(
                    f"line {line_no}: unknown function {rec['function']!r}"
                )
            refs = rec["data_refs"]
            if not isinstance(refs, list):
                raise TraceFormatError(line_no, "data_refs must be a list")
            for ref in refs:
                if ref not in catalog.objects:
                    raise UnknownObjectError(f"line {line_no}: unknown object {ref!r}")
            refs = tuple(refs)
            out.append(Invocation(
                id=str(rec["id"]),
                function=rec["function"],
                data_refs=shared_refs.setdefault(refs, refs),
                origin=str(rec["origin"]),
                arrival=rec["arrival_ms"],
            ))
    out.sort(key=lambda inv: inv.arrival)
    return out


def ideal_time(catalog: Catalog, function: str) -> int:
    """Execution time with zero dispatch latency, a warm container and all
    data local: the function's pure compute time."""
    spec = catalog.functions.get(function)
    if spec is None:
        raise UnknownFunctionError(function)
    return spec.compute_ms
