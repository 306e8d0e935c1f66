"""Traces of invocations: synthetic generation and trace file ingestion.

A trace is an arrival-ordered stream of invocations held as columns (see
Trace). Synthetic traces draw from a seeded random source with a fixed
per-invocation draw order (interarrival, function, reference count,
references, origin), so the same (spec, seed) always yields the same trace.
generate_trace makes these draws inline, with no Python call per
invocation, and they take the same values in the same order as calls of
Random.expovariate and RandomSource.randint would.
Trace files are JSON lines with fields id, function, arrival_ms, data_refs,
origin.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, islice, repeat
from operator import gt

from .cluster import MAX_MS, DataObject, FunctionSpec
from .engine import RandomSource
from .errors import (
    ConfigError,
    TraceFormatError,
    UnknownFunctionError,
    UnknownObjectError,
)

TRACE_FIELDS = ("id", "function", "arrival_ms", "data_refs", "origin")

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


class Trace:
    """An arrival-ordered invocation stream held as columns.

    Per invocation it keeps the arrival in an ``array('q')`` and three int
    codes into per-trace tables: ``functions``, ``origins`` and
    ``ref_sets`` (equal reference sets are one shared tuple). Ids are
    derived from the index (``inv-000042``) when ``ids`` is None, as for a
    generated trace; a loaded trace lists them. That is about 21 bytes per
    generated invocation.

    A run reads the columns and tables by index. generate_trace and
    load_trace fill one, and each leaves it in arrival order with ties in
    input order.
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

    def invocation_id(self, i: int) -> str:
        """The id of the invocation at index i, for 0 <= i < len(self)."""
        ids = self.ids
        return "inv-%06d" % i if ids is None else ids[i]

    def __len__(self) -> int:
        return len(self.arrivals)

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} invocations>"


class ArrivalSpec:
    """Arrival process: poisson(rate_per_s) or fixed_interval(interval_ms)."""

    __slots__ = ("kind", "rate_per_s", "interval_ms")

    def __init__(self, kind: str = "fixed_interval", rate_per_s: float = 10.0,
                 interval_ms: int = 100):
        self.kind = kind
        self.rate_per_s = rate_per_s
        self.interval_ms = interval_ms


class PopularitySpec:
    """Object reference skew: zipf(s) over object rank, or uniform."""

    __slots__ = ("kind", "s")

    def __init__(self, kind: str = "zipf", s: float = 1.1):
        self.kind = kind
        self.s = s


class ObjectSpec:
    """Object population: fixed size or [lo, hi] uniform MB per object."""

    __slots__ = ("count", "size", "popularity")

    def __init__(self, count: int = 0, size: float | tuple[float, float] = 100.0,
                 popularity: PopularitySpec | None = None):
        self.count = count
        self.size = size
        self.popularity = PopularitySpec() if popularity is None else popularity


# An origin tag and its weight in the workload's origin mix; a tuple, so
# ``for tag, weight in spec.origins`` unpacks it.
OriginSpec = namedtuple("OriginSpec", ("tag", "weight"), defaults=(1.0,))


class WorkloadSpec:
    """A workload, field for field as the ``workload`` block of a scenario
    file: ``functions`` holds FunctionSpecs, ``origins`` OriginSpecs, each
    with its mix weight, and ``refs_per_invocation`` an inclusive range."""

    __slots__ = ("horizon_ms", "arrival", "functions", "objects", "refs_per_invocation",
                 "origins", "trace_path")

    def __init__(self, horizon_ms: int = 10_000, arrival: ArrivalSpec | None = None,
                 functions: tuple[FunctionSpec, ...] = (),
                 objects: ObjectSpec | None = None,
                 refs_per_invocation: tuple[int, int] = (0, 0),
                 origins: tuple[OriginSpec, ...] = (OriginSpec("default"),),
                 trace_path: str | None = None):
        self.horizon_ms = horizon_ms
        self.arrival = ArrivalSpec() if arrival is None else arrival
        self.functions = functions
        self.objects = ObjectSpec() if objects is None else objects
        self.refs_per_invocation = refs_per_invocation
        self.origins = origins
        self.trace_path = trace_path


class Catalog:
    """Function and data-object definitions a run resolves names against."""

    __slots__ = ("functions", "objects")

    def __init__(self, functions: dict[str, FunctionSpec] | None = None,
                 objects: dict[str, DataObject] | None = None):
        self.functions = {} if functions is None else functions
        self.objects = {} if objects is None else objects


def build_catalog(spec: WorkloadSpec, rng: RandomSource) -> Catalog:
    """Materialize the catalogs; object sizes are drawn here (in id order)
    when the size is a range, before any trace draws."""
    functions = {fs.name: fs for fs in spec.functions}
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
    cum = list(accumulate(weights))
    return cum, cum[-1]


# A zipf popularity must leave an invocation's last distinct pick at least
# this chance per draw of meeting an object not yet picked (README,
# "Scenario files").
MIN_NEW_PICK_CHANCE = 1e-3


def _zipf_mass(lo: int, hi: int, s: float) -> float:
    """The sum of rank ** -s over the ranks lo..hi: up to 1,000 ranks term
    by term, and any further ones by the integral of x ** -s over
    [rank - 1/2, hi + 1/2], so that the cost does not grow with hi."""
    stop = min(hi, lo + 999)
    mass = math.fsum(rank ** -s for rank in range(lo, stop + 1))
    if hi > stop:
        a, b = stop + 0.5, hi + 0.5
        mass += math.log(b / a) if s == 1 else (a ** (1 - s) - b ** (1 - s)) / (s - 1)
    return mass


def popularity_problem(spec: WorkloadSpec) -> str | None:
    """Why a zipf exponent s > 0 cannot generate the workload's trace, or
    None; the key at fault is workload.objects.popularity.s. Either the
    weight of the last rank, 1 / count ** s, overflows a float, or
    generating would not end in practice: an invocation draws objects until
    it has k = min(refs upper bound, count) distinct ones, and when the k-1
    most popular are drawn, a draw meets a new one with chance (weight of
    ranks k..count) / (weight of all ranks), which must be at least
    MIN_NEW_PICK_CHANCE."""
    objects = spec.objects
    s, count = objects.popularity.s, objects.count
    if objects.popularity.kind != "zipf":
        return None
    try:
        float(count) ** s
    except OverflowError:
        return f"{count} ** {s} overflows a float"
    k = min(spec.refs_per_invocation[1], count)
    if k < 2:
        return None
    tail = _zipf_mass(k, count, s)
    chance = tail / (_zipf_mass(1, k - 1, s) + tail)
    if chance >= MIN_NEW_PICK_CHANCE:
        return None
    return (f"at {k} distinct objects per invocation, a draw after the {k - 1} most popular "
            f"meets a new one with chance {chance:.3g}, below {MIN_NEW_PICK_CHANCE}")


def _popularity_weights(spec: ObjectSpec) -> list[float]:
    if spec.popularity.kind == "zipf":
        s = spec.popularity.s
        return [1.0 / (rank ** s) for rank in range(1, spec.count + 1)]
    return [1.0] * spec.count


# The one rule for a millisecond value: the scenario kind of config.py and
# trace_problems both apply it, and refuse a value in these words.
WHOLE_MS = f"an integer number of ms up to {MAX_MS}"


def is_whole_ms(value) -> bool:
    """Whether value is an int, or a float with an integer value, of at
    most MAX_MS either way; a bool is not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or value.is_integer()) and abs(value) <= MAX_MS)


def trace_problems(spec: WorkloadSpec) -> list[tuple[str, str]]:
    """(key, problem) for each rule that generating spec's trace needs and
    spec breaks, in a fixed order: generate_trace refuses the first, and
    validate reports them all."""
    problems = []
    arrival = spec.arrival
    for key, value in (("workload.horizon_ms", spec.horizon_ms),
                       ("workload.arrival.interval_ms", arrival.interval_ms)):
        if not is_whole_ms(value):
            problems.append((key, f"expected {WHOLE_MS}, got {value!r}"))
    if arrival.kind == "poisson":
        if not 0 < arrival.rate_per_s < math.inf:
            problems.append(("workload.arrival.rate_per_s", "must be positive and finite"))
    elif arrival.kind != "fixed_interval":
        problems.append(("workload.arrival.kind", "must be poisson or fixed_interval"))
    elif is_whole_ms(arrival.interval_ms) and arrival.interval_ms < 1:
        problems.append(("workload.arrival.interval_ms", "must be at least 1 ms"))
    for key, specs, item in (("workload.functions", spec.functions, "function"),
                             ("workload.origins", spec.origins, "origin")):
        weights = [s.weight for s in specs]
        if not weights:
            problems.append((key, f"at least one {item} is required"))
        elif all(weight > 0 for weight in weights) and _cumulative(weights)[1] == math.inf:
            problems.append((key, "weights must add up to a finite number"))
        problems += [(f"{key}.{i}.weight", "must be positive")
                     for i, weight in enumerate(weights) if not weight > 0]
    popularity = spec.objects.popularity
    if popularity.kind == "zipf" and not popularity.s > 0:
        problems.append(("workload.objects.popularity", "zipf exponent s must be > 0"))
    elif problem := popularity_problem(spec):
        problems.append(("workload.objects.popularity.s", problem))
    return problems


def generate_trace(spec: WorkloadSpec, catalog: Catalog, rng: RandomSource) -> Trace:
    """Generate the arrival-ordered trace for a workload spec.

    Only the columns that draw are filled per invocation: fixed-interval
    arrivals are one range, and a single function or origin is a column of
    zeros. Fixed arrivals of one function and one origin that each reference
    exactly one of two or more objects (the criterion-10 shape) take a loop
    whose only draw is the object pick; every other plan takes the general
    loop. Both draw as the module docstring says. A spec that breaks a
    rule of trace_problems is a ConfigError naming the first one."""
    problems = trace_problems(spec)
    if problems:
        raise ConfigError("%s: %s" % problems[0])
    fn_cum, fn_total = _cumulative([fs.weight for fs in spec.functions])
    origin_cum, origin_total = _cumulative([o.weight for o in spec.origins])
    object_ids = list(catalog.objects)
    obj_cum, obj_total = _cumulative(_popularity_weights(spec.objects)) if object_ids else ((), 0.0)
    arrival = spec.arrival
    horizon_ms, interval = int(spec.horizon_ms), int(arrival.interval_ms)
    poisson = arrival.kind == "poisson"

    random, getrandbits = rng.random, rng.getrandbits
    fn_many, origin_many, obj_many = len(fn_cum) > 1, len(origin_cum) > 1, len(obj_cum) > 1
    lo, hi = spec.refs_per_invocation
    n_objects = len(object_ids)
    k_fixed = min(lo, n_objects)

    trace = Trace(functions=[fs.name for fs in spec.functions],
                  origins=[o.tag for o in spec.origins])
    ref_sets, add_refs = trace.ref_sets, trace.ref_codes.append
    if poisson:
        lambd = 1.0 / (1000.0 / arrival.rate_per_s)  # arrivals per ms
        # Each pass draws one arrival until one passes the horizon, an
        # infinite one too; at lambd 0 (a rate too small for any arrival)
        # nothing is drawn.
        ticks = repeat(None) if lambd else ()
    else:
        trace.arrivals.extend(range(interval, horizon_ms + 1, interval))
        ticks = range(len(trace.arrivals))

    if not (poisson or fn_many or origin_many) and lo == hi and k_fixed == 1 and obj_many:
        # The single-pick plan: the object pick is the only draw, and its
        # reference set is interned by object index.
        code_of: list[int | None] = [None] * n_objects
        for _ in ticks:
            j = bisect_right(obj_cum, random() * obj_total)
            code = code_of[j]
            if code is None:
                code = code_of[j] = len(ref_sets)
                ref_sets.append((object_ids[j],))
            add_refs(code)
    else:
        # The interarrival is Random.expovariate's -log(1 - random()) / lambd
        # (negating the quotient, not the log, gives the same float), and
        # the reference count is RandomSource.randint's rejection rule.
        ref_code_of: dict[tuple[int, ...], int] = {}  # object indices -> ref_sets code
        add_arrival = trace.arrivals.append
        add_function, add_origin = trace.function_codes.append, trace.origin_codes.append
        log, end, t_float = math.log, horizon_ms + 1, 0.0
        k_varies = hi > lo
        k_width = hi - lo + 1
        k_bits = k_width.bit_length()
        k = k_fixed
        for _ in ticks:
            if poisson:
                t_float -= log(1.0 - random()) / lambd
                if t_float >= end:  # int(t_float) > horizon_ms, for a finite t_float >= 0
                    break
                add_arrival(int(t_float))
            if fn_many:
                add_function(bisect_right(fn_cum, random() * fn_total))
            if k_varies:
                k = getrandbits(k_bits)
                while k >= k_width:
                    k = getrandbits(k_bits)
                k += lo
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
                ref_sets.append(tuple(map(object_ids.__getitem__, picks)))
            add_refs(code)
            if origin_many:
                add_origin(bisect_right(origin_cum, random() * origin_total))

    n = len(trace.arrivals)
    for many, codes in ((fn_many, trace.function_codes), (origin_many, trace.origin_codes)):
        if not many:
            codes.frombytes(bytes(codes.itemsize * n))
    return trace


def save_trace(trace: Trace, path) -> None:
    """Write a trace as JSON lines (see TRACE_FIELDS), from its columns and
    tables."""
    functions, ref_sets, origins = trace.functions, trace.ref_sets, trace.origins
    with open(path, "w", newline="\n") as fh:
        for i, (arrival, function, refs, origin) in enumerate(zip(
                trace.arrivals, trace.function_codes, trace.ref_codes, trace.origin_codes)):
            fh.write(json.dumps({
                "id": trace.invocation_id(i),
                "function": functions[function],
                "arrival_ms": arrival,
                "data_refs": list(ref_sets[refs]),
                "origin": origins[origin],
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
