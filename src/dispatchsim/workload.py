"""Invocation streams: synthetic generation and trace file ingestion.

A trace is an arrival-ordered sequence of invocations held as columns (see
Trace). Synthetic traces draw from a seeded random source with a fixed
per-invocation draw order (interarrival, function, reference count,
references, origin), so the same (spec, seed) always yields the same trace.
Trace files are JSON lines with fields id, function, arrival_ms, data_refs,
origin.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import eq, gt
from typing import NamedTuple

from .cluster import DataObject, FunctionSpec
from .engine import RandomSource
from .errors import (
    ConfigError,
    TraceFormatError,
    UnknownFunctionError,
    UnknownObjectError,
)

TRACE_FIELDS = ("id", "function", "arrival_ms", "data_refs", "origin")

_new_tuple = tuple.__new__  # builds a NamedTuple without its Python-level __new__


class Invocation(NamedTuple):
    """One dispatchable event."""

    id: str
    function: str
    data_refs: tuple[str, ...]
    origin: str
    arrival: int


def _interner(table: list):
    """code(value): the index of value in table, appending it when new."""
    codes = {value: i for i, value in enumerate(table)}

    def code(value) -> int:
        i = codes.get(value)
        if i is None:
            i = codes[value] = len(table)
            table.append(value)
        return i

    return code


class Trace(Sequence[Invocation]):
    """An arrival-ordered invocation stream held as columns.

    Per invocation it keeps the arrival in an ``array('q')`` and three int
    codes into per-trace tables: ``functions``, ``origins`` and
    ``ref_sets`` (equal reference sets are one shared tuple). Ids are
    derived from the index (``inv-000042``) when ``ids`` is None, as for a
    generated trace; a loaded trace lists them. That is about 21 bytes per
    generated invocation.

    It reads as a sequence of Invocations, each built when it is read
    (``view``); slices are lists. generate_trace, load_trace and
    from_invocations fill one, and each leaves it in arrival order with
    ties in input order.
    """

    __slots__ = ("arrivals", "function_codes", "origin_codes", "ref_codes",
                 "functions", "origins", "ref_sets", "ids")

    def __init__(self, functions=(), origins=(), ids: list[str] | None = None):
        self.arrivals = array("q")
        self.function_codes = array("i")
        self.origin_codes = array("i")
        self.ref_codes = array("i")
        self.functions: list[str] = list(functions)
        self.origins: list[str] = list(origins)
        self.ref_sets: list[tuple[str, ...]] = []
        self.ids = ids

    @classmethod
    def from_invocations(cls, invocations) -> Trace:
        """A trace of the given invocations, stably sorted by arrival."""
        trace = cls(ids=[])
        add = trace._adder()
        for inv in invocations:
            add(inv.id, inv.function, tuple(inv.data_refs), inv.origin, inv.arrival)
        trace._sort()
        return trace

    def _adder(self):
        """add(id, function, data_refs, origin, arrival) appends one
        invocation to a trace with an id list, interning the strings and the
        reference tuple into the tables."""
        function_code = _interner(self.functions)
        origin_code = _interner(self.origins)
        refs_code = _interner(self.ref_sets)
        ids, arrivals = self.ids, self.arrivals
        function_codes, origin_codes, ref_codes = (
            self.function_codes, self.origin_codes, self.ref_codes)

        def add(id_: str, function: str, data_refs: tuple, origin: str, arrival: int) -> None:
            arrivals.append(arrival)  # first: an out-of-range arrival appends nothing
            ids.append(id_)
            function_codes.append(function_code(function))
            origin_codes.append(origin_code(origin))
            ref_codes.append(refs_code(data_refs))

        return add

    def _sort(self) -> None:
        """Stable sort of every column by arrival; a no-op when sorted."""
        arrivals = self.arrivals
        if not any(map(gt, arrivals, islice(arrivals, 1, None))):
            return
        order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
        for name in ("arrivals", "function_codes", "origin_codes", "ref_codes"):
            column = getattr(self, name)
            setattr(self, name, array(column.typecode, map(column.__getitem__, order)))
        if self.ids is not None:
            self.ids = list(map(self.ids.__getitem__, order))

    def view(self, i: int) -> Invocation:
        """The invocation at index i, for 0 <= i < len(self)."""
        ids = self.ids
        return _new_tuple(Invocation, (
            "inv-%06d" % i if ids is None else ids[i],
            self.functions[self.function_codes[i]],
            self.ref_sets[self.ref_codes[i]],
            self.origins[self.origin_codes[i]],
            self.arrivals[i],
        ))

    def __len__(self) -> int:
        return len(self.arrivals)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.view(i) for i in range(*index.indices(len(self)))]
        count = len(self.arrivals)
        i = index + count if index < 0 else index
        if not 0 <= i < count:
            raise IndexError("trace index out of range")
        return self.view(i)

    def __iter__(self):
        return map(self.view, range(len(self)))

    def __eq__(self, other) -> bool:
        """Element-wise, against another trace or a list of invocations."""
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} invocations>"


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


def _cumulative(weights: list[float]) -> tuple[list[float], float]:
    """(running sums, total) for a weighted choice: a uniform draw u picks
    alternative bisect_right(sums, u * total). A single alternative is
    picked without a draw, so singleton mixes do not consume randomness."""
    if any(w <= 0 for w in weights):
        raise ConfigError("weights must be positive")
    cum = list(accumulate(weights))
    return cum, cum[-1]


def _popularity_weights(spec: ObjectSpec) -> list[float]:
    if spec.popularity.kind == "zipf":
        s = spec.popularity.s
        if s <= 0:
            raise ConfigError("zipf exponent must be > 0")
        return [1.0 / (rank ** s) for rank in range(1, spec.count + 1)]
    return [1.0] * spec.count


def generate_trace(spec: WorkloadSpec, catalog: Catalog, rng: RandomSource) -> Trace:
    """Generate the arrival-ordered trace for a workload spec."""
    if not spec.functions:
        raise ConfigError("workload defines no functions")
    fn_cum, fn_total = _cumulative([w for _, w in spec.functions])
    origin_cum, origin_total = _cumulative([w for _, w in spec.origins])
    object_ids = list(catalog.objects)
    obj_cum, obj_total = _cumulative(_popularity_weights(spec.objects)) if object_ids else ((), 0.0)
    kind = spec.arrival.kind
    if kind not in ("fixed_interval", "poisson"):
        raise ConfigError(f"unknown arrival kind: {kind}")

    # The RandomSource float methods are inlined: the same draws from the
    # underlying generator, in the same order and with the same arithmetic.
    # Integer draws go through RandomSource.randint, which defines them.
    gen = rng._rng
    random, randint, expovariate = gen.random, rng.randint, gen.expovariate
    poisson = kind == "poisson"
    lambd = 1.0 / (1000.0 / spec.arrival.rate_per_s) if poisson else 0.0
    interval = spec.arrival.interval_ms
    horizon = spec.horizon_ms
    fn_many, origin_many, obj_many = len(fn_cum) > 1, len(origin_cum) > 1, len(obj_cum) > 1
    lo, hi = spec.refs_per_invocation
    k_varies = hi > lo
    n_objects = len(object_ids)

    trace = Trace(functions=[fs.name for fs, _ in spec.functions],
                  origins=[tag for tag, _ in spec.origins])
    ref_sets = trace.ref_sets
    ref_code_of: dict[tuple[int, ...], int] = {}  # object indices -> ref_sets code
    add_arrival, add_function = trace.arrivals.append, trace.function_codes.append
    add_origin, add_refs = trace.origin_codes.append, trace.ref_codes.append
    arrival = 0
    t_float = 0.0
    while True:
        if poisson:
            t_float += expovariate(lambd)
            arrival = int(t_float)
        else:
            arrival += interval
        if arrival > horizon:
            break
        add_function(bisect_right(fn_cum, random() * fn_total) if fn_many else 0)
        k = randint(lo, hi) if k_varies else lo
        if k > n_objects:
            k = n_objects
        if k <= 0:
            picks = ()
        elif obj_many:
            chosen: list[int] = []
            while len(chosen) < k:
                j = bisect_right(obj_cum, random() * obj_total)
                if j not in chosen:
                    chosen.append(j)
            picks = tuple(chosen)
        else:
            picks = (0,)
        code = ref_code_of.get(picks)
        if code is None:
            code = ref_code_of[picks] = len(ref_sets)
            ref_sets.append(tuple([object_ids[j] for j in picks]))
        add_refs(code)
        add_origin(bisect_right(origin_cum, random() * origin_total) if origin_many else 0)
        add_arrival(arrival)
    return trace


def save_trace(trace, path) -> None:
    """Write invocations as JSON lines (see TRACE_FIELDS)."""
    with open(path, "w", newline="\n") as fh:
        for inv in trace:
            fh.write(json.dumps({
                "id": inv.id,
                "function": inv.function,
                "arrival_ms": inv.arrival,
                "data_refs": list(inv.data_refs),
                "origin": inv.origin,
            }) + "\n")


def load_trace(path, catalog: Catalog) -> Trace:
    """Parse and validate a JSON-lines trace, sorted by arrival time (ties
    keep file order)."""
    trace = Trace(ids=[])
    add = trace._adder()
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise TraceFormatError(line_no, "not UTF-8 text") from None
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
            arrival = rec["arrival_ms"]
            if not isinstance(arrival, int) or isinstance(arrival, bool) or arrival < 0:
                raise TraceFormatError(line_no, "arrival_ms must be a non-negative integer")
            for field in ("id", "origin"):
                if not isinstance(rec[field], str):
                    raise TraceFormatError(line_no, f"{field} must be a string")
            function = rec["function"]
            if not isinstance(function, str) or function not in catalog.functions:
                raise UnknownFunctionError(f"line {line_no}: unknown function {function!r}")
            refs = rec["data_refs"]
            if not isinstance(refs, list):
                raise TraceFormatError(line_no, "data_refs must be a list")
            for ref in refs:
                if not isinstance(ref, str) or ref not in catalog.objects:
                    raise UnknownObjectError(f"line {line_no}: unknown object {ref!r}")
            try:
                add(rec["id"], function, tuple(refs), rec["origin"], arrival)
            except OverflowError:
                raise TraceFormatError(line_no, "arrival_ms is out of range") from None
    trace._sort()
    return trace
