"""The columnar Trace against the per-invocation object list it replaces.

generate_trace fills columns (arrival array, function/origin/reference-set
codes, ids derived from the index). The reference here is the object
generator it replaced: one Invocation per draw, drawn through RandomSource.
Traces, read back as invocations, must match it element by element, and
their trace files byte for byte.
"""

import gc
import hashlib
import json
import sys
import tracemalloc
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.cluster import FunctionSpec
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.engine import RandomSource
from dispatchsim.errors import ConfigError
from dispatchsim.workload import (
    ArrivalSpec,
    ObjectSpec,
    OriginSpec,
    PopularitySpec,
    Trace,
    WorkloadSpec,
    build_catalog,
    generate_trace,
    load_trace,
    save_trace,
)

from conftest import scenario_dict
from reference import Invocation, invocations

DEMO_SCENARIOS = Path(__file__).parent.parent / "demos" / "scenarios"

# ---- the object generator generate_trace replaced -----------------------------------


class ReferencePicker:
    def __init__(self, weights):
        if any(w <= 0 for w in weights):
            raise ConfigError("weights must be positive")
        self.cum = list(accumulate(weights))
        self.total = self.cum[-1]

    def pick(self, rng):
        if len(self.cum) == 1:
            return 0
        return bisect_right(self.cum, rng.random() * self.total)


def reference_generate_trace(spec, catalog, rng):
    fn_picker = ReferencePicker([fs.weight for fs in spec.functions])
    fn_names = [fs.name for fs in spec.functions]
    origin_picker = ReferencePicker([w for _, w in spec.origins])
    origin_tags = [tag for tag, _ in spec.origins]
    object_ids = list(catalog.objects)
    if spec.objects.popularity.kind == "zipf":
        weights = [1.0 / (rank ** spec.objects.popularity.s)
                   for rank in range(1, spec.objects.count + 1)]
    else:
        weights = [1.0] * spec.objects.count
    obj_picker = ReferencePicker(weights) if object_ids else None
    lo, hi = spec.refs_per_invocation
    out = []
    arrival = 0
    t_float = 0.0
    while True:
        if spec.arrival.kind == "fixed_interval":
            arrival += spec.arrival.interval_ms
        else:
            t_float += rng.expovariate(1.0 / (1000.0 / spec.arrival.rate_per_s))
            arrival = int(t_float)
        if arrival > spec.horizon_ms:
            break
        function = fn_names[fn_picker.pick(rng)]
        k = rng.randint(lo, hi) if hi > lo else lo
        k = min(k, len(object_ids))
        refs, seen = [], set()
        if k and obj_picker is not None:
            while len(refs) < k:
                oid = object_ids[obj_picker.pick(rng)]
                if oid not in seen:
                    seen.add(oid)
                    refs.append(oid)
        origin = origin_tags[origin_picker.pick(rng)]
        out.append(Invocation(f"inv-{len(out):06d}", function, tuple(refs), origin, arrival))
    return out


def reference_save_trace(invocations, path):
    """The trace file of a list of invocations, one JSON line each: the
    writer save_trace replaced, which built an Invocation per line."""
    with open(path, "w", newline="\n") as fh:
        for inv in invocations:
            fh.write(json.dumps({
                "id": inv.id,
                "function": inv.function,
                "arrival_ms": inv.arrival,
                "data_refs": list(inv.data_refs),
                "origin": inv.origin,
            }) + "\n")


# ---- differential ---------------------------------------------------------------------

def function(i: int, weight: float = 1.0) -> FunctionSpec:
    return FunctionSpec(f"f{i}", flavor=128, compute_ms=10, weight=weight)


@st.composite
def workload_specs(draw):
    if draw(st.booleans()):
        arrival = ArrivalSpec(kind="poisson", rate_per_s=draw(st.floats(5.0, 400.0)))
    else:
        arrival = ArrivalSpec(kind="fixed_interval", interval_ms=draw(st.integers(1, 50)))
    weights = st.floats(0.1, 5.0)
    functions = tuple(function(i, draw(weights)) for i in range(draw(st.integers(1, 3))))
    origins = tuple(OriginSpec(tag, draw(weights))
                    for tag in ("web", "iot", "batch")[:draw(st.integers(1, 3))])
    count = draw(st.integers(0, 8))
    size = draw(st.one_of(st.just(10.0), st.tuples(st.just(5.0), st.floats(5.0, 90.0))))
    popularity = (PopularitySpec("zipf", draw(st.floats(0.5, 2.0))) if draw(st.booleans())
                  else PopularitySpec("uniform"))
    lo = draw(st.integers(0, 3))
    return WorkloadSpec(
        horizon_ms=draw(st.integers(0, 2000)),
        arrival=arrival,
        functions=functions,
        objects=ObjectSpec(count=count, size=size, popularity=popularity),
        refs_per_invocation=(lo, lo + draw(st.integers(0, 3))),
        origins=origins,
    )


@settings(max_examples=150, deadline=None)
@given(workload_specs(), st.integers(0, 10**6))
def test_trace_matches_the_object_generator(tmp_path_factory, spec, seed):
    catalog = build_catalog(spec, RandomSource(seed, "catalog"))
    trace = generate_trace(spec, catalog, RandomSource(seed, "trace"))
    reference = reference_generate_trace(spec, catalog, RandomSource(seed, "trace"))
    assert isinstance(trace, Trace) and trace.ids is None
    items = invocations(trace)
    assert len(trace) == len(items) == len(reference)
    for i, (inv, ref) in enumerate(zip(items, reference)):
        assert inv == ref, i

    tmp = tmp_path_factory.mktemp("trace")
    save_trace(trace, tmp / "columns.jsonl")
    reference_save_trace(reference, tmp / "objects.jsonl")
    assert (tmp / "columns.jsonl").read_bytes() == (tmp / "objects.jsonl").read_bytes()
    loaded = load_trace(tmp / "columns.jsonl", catalog)
    assert invocations(loaded) == reference


@st.composite
def single_pick_specs(draw, counts=st.integers(2, 64), refs=st.just((1, 1))):
    """Fixed arrivals of one function and one origin, each referencing
    `refs` of `counts` objects: by default the plan whose only draw is the
    object pick, which workload_specs rarely meets."""
    popularity = (PopularitySpec("zipf", draw(st.floats(0.5, 3.0))) if draw(st.booleans())
                  else PopularitySpec("uniform"))
    return WorkloadSpec(
        horizon_ms=draw(st.integers(0, 5000)),
        arrival=ArrivalSpec(kind="fixed_interval", interval_ms=draw(st.integers(1, 50))),
        functions=(function(0, draw(st.floats(0.1, 5.0))),),
        objects=ObjectSpec(count=draw(counts), size=10.0, popularity=popularity),
        refs_per_invocation=draw(refs),
        origins=(OriginSpec("web", draw(st.floats(0.1, 5.0))),),
    )


def assert_matches_the_object_generator(spec, seed):
    catalog = build_catalog(spec, RandomSource(seed, "catalog"))
    trace = generate_trace(spec, catalog, RandomSource(seed, "trace"))
    assert invocations(trace) == reference_generate_trace(spec, catalog,
                                                          RandomSource(seed, "trace"))
    assert list(trace.function_codes) == list(trace.origin_codes) == [0] * len(trace)


@settings(max_examples=100, deadline=None)
@given(single_pick_specs(), st.integers(0, 10**6))
def test_single_pick_trace_matches_the_object_generator(spec, seed):
    assert_matches_the_object_generator(spec, seed)


@settings(max_examples=30, deadline=None)
@given(single_pick_specs(counts=st.just(1), refs=st.sampled_from([(1, 1), (2, 2)])),
       st.integers(0, 10**6))
def test_one_object_trace_matches_the_object_generator(spec, seed):
    # Next to the single-pick plan: each invocation takes the one object
    # without a draw, so these take the general loop.
    assert_matches_the_object_generator(spec, seed)


def python_calls(build):
    """(result of build(), the Python frames it ran) under sys.setprofile;
    a generator counts once per resumption. The cyclic collector is off
    meanwhile, so no finalizer of other code's garbage runs in the count."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = build()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return result, calls


def test_general_trace_plan_runs_no_python_frame_per_invocation():
    # Poisson arrivals, a varying reference count and weighted functions and
    # origins: every draw of the general loop. Ten times the horizon must
    # run the same frames, so none runs per invocation.
    lengths, calls = [], []
    for horizon_ms in (2_000, 20_000):
        spec = WorkloadSpec(
            horizon_ms=horizon_ms,
            arrival=ArrivalSpec(kind="poisson", rate_per_s=200.0),
            functions=tuple(function(i, 1.0 + i) for i in range(3)),
            objects=ObjectSpec(count=8, size=10.0, popularity=PopularitySpec("zipf", 1.1)),
            refs_per_invocation=(1, 3),
            origins=(OriginSpec("web"), OriginSpec("iot", 2.0)),
        )
        catalog = build_catalog(spec, RandomSource(1, "catalog"))
        rng = RandomSource(1, "trace")
        trace, n = python_calls(lambda: generate_trace(spec, catalog, rng))
        lengths.append(len(trace))
        calls.append(n)
    assert lengths[1] > 5 * lengths[0] > 0
    assert calls[0] == calls[1], calls


# Report digests of the trace files at the commit before the columnar trace.
GOLDEN_TRACE_SHA256 = {
    "minimal.yaml": "639861dcb627a258057d38670b353df53c0de4e18e1fb589dfa93d9d2aae61c4",
    "data_intensive.yaml": "da7774b329066fd7df2ffa21364781ddf1aa827e1a54633e743c11046455d9c4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
def test_demo_trace_files_are_byte_stable(tmp_path, name):
    scenario = load_scenario(DEMO_SCENARIOS / name)
    _, trace = runner.prepare_workload(scenario, 1)
    save_trace(trace, tmp_path / "trace.jsonl")
    digest = hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256[name]


# ---- loaded traces ------------------------------------------------------------------


def small_trace():
    spec = WorkloadSpec(
        horizon_ms=500,
        arrival=ArrivalSpec(kind="fixed_interval", interval_ms=100),
        functions=(function(0), function(1)),
        objects=ObjectSpec(count=3, size=10.0),
        refs_per_invocation=(0, 2),
        origins=(OriginSpec("web"), OriginSpec("iot")),
    )
    catalog = build_catalog(spec, RandomSource(4, "catalog"))
    return catalog, generate_trace(spec, catalog, RandomSource(4, "trace"))


def test_loaded_trace_keeps_one_string_per_function_and_origin(tmp_path):
    # Regression: json.loads made a new function and origin string per line.
    catalog, trace = small_trace()
    save_trace(trace, tmp_path / "t.jsonl")
    loaded = load_trace(tmp_path / "t.jsonl", catalog)
    items = invocations(loaded)
    assert items == invocations(trace)
    assert len({id(inv.function) for inv in items}) == len({inv.function for inv in items})
    assert len({id(inv.origin) for inv in items}) == len({inv.origin for inv in items})
    assert sorted(loaded.functions) == sorted({inv.function for inv in items})


# ---- memory ---------------------------------------------------------------------------

RR_20K = scenario_dict(
    cluster={"nodes": 8},
    workload={"horizon_ms": 20_000, "arrival": {"kind": "fixed_interval", "interval_ms": 1},
              "objects": {"count": 16, "size": 10, "popularity": {"kind": "uniform"}},
              "refs_per_invocation": 1},
)


def traced_growth(build):
    """(result of build(), bytes it still holds) under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, held


def test_generated_trace_retains_at_most_24_bytes_per_invocation():
    scenario = parse_scenario(RR_20K)
    (_, trace), held = traced_growth(lambda: runner.prepare_workload(scenario, 1))
    assert len(trace) == 20_000
    assert held / len(trace) <= 24, held / len(trace)


def test_trace_and_run_result_retain_at_most_110_bytes_per_invocation():
    scenario = parse_scenario(RR_20K)

    def build():
        catalog, trace = runner.prepare_workload(scenario, 1)
        return trace, runner.run_one(scenario, scenario.strategies[0], 1, catalog, trace)

    (trace, result), held = traced_growth(build)
    assert len(trace) == result.row()["tasks"] == 20_000
    assert held / len(trace) <= 110, held / len(trace)
