"""The columnar Trace against the per-invocation object list it replaces.

generate_trace fills columns (arrival array, function/origin/reference-set
codes, ids derived from the index). The reference here is the object
generator it replaced: one Invocation per draw, drawn through RandomSource.
Traces must match it element by element, and their trace files byte for
byte.
"""

import hashlib
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
    Invocation,
    ObjectSpec,
    PopularitySpec,
    Trace,
    WorkloadSpec,
    build_catalog,
    generate_trace,
    load_trace,
    save_trace,
)

from conftest import scenario_dict

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
    fn_picker = ReferencePicker([w for _, w in spec.functions])
    fn_names = [fs.name for fs, _ in spec.functions]
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
            t_float += rng.expovariate(1000.0 / spec.arrival.rate_per_s)
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


# ---- differential ---------------------------------------------------------------------

FUNCTIONS = [FunctionSpec(f"f{i}", flavor=128, compute_ms=10) for i in range(3)]


@st.composite
def workload_specs(draw):
    if draw(st.booleans()):
        arrival = ArrivalSpec(kind="poisson", rate_per_s=draw(st.floats(5.0, 400.0)))
    else:
        arrival = ArrivalSpec(kind="fixed_interval", interval_ms=draw(st.integers(1, 50)))
    weights = st.floats(0.1, 5.0)
    functions = tuple((fs, draw(weights)) for fs in FUNCTIONS[:draw(st.integers(1, 3))])
    origins = tuple((tag, draw(weights))
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
    assert len(trace) == len(reference)
    for i, (inv, ref) in enumerate(zip(trace, reference)):
        assert type(inv) is Invocation and inv == ref, i
    assert trace == reference

    tmp = tmp_path_factory.mktemp("trace")
    save_trace(trace, tmp / "columns.jsonl")
    save_trace(reference, tmp / "objects.jsonl")
    assert (tmp / "columns.jsonl").read_bytes() == (tmp / "objects.jsonl").read_bytes()
    loaded = load_trace(tmp / "columns.jsonl", catalog)
    assert loaded == trace and list(loaded) == reference


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


# ---- sequence behaviour ---------------------------------------------------------------


def small_trace():
    spec = WorkloadSpec(
        horizon_ms=500,
        arrival=ArrivalSpec(kind="fixed_interval", interval_ms=100),
        functions=((FUNCTIONS[0], 1.0), (FUNCTIONS[1], 1.0)),
        objects=ObjectSpec(count=3, size=10.0),
        refs_per_invocation=(0, 2),
        origins=(("web", 1.0), ("iot", 1.0)),
    )
    catalog = build_catalog(spec, RandomSource(4, "catalog"))
    return catalog, generate_trace(spec, catalog, RandomSource(4, "trace"))


def test_trace_reads_like_a_list():
    _, trace = small_trace()
    items = list(trace)
    assert len(trace) == len(items) == 5
    assert [inv.id for inv in trace] == [f"inv-{i:06d}" for i in range(5)]
    assert trace[0] == items[0] and trace[-1] == items[-1] and trace[-5] == items[0]
    assert trace[1:3] == items[1:3] and trace[::-1] == items[::-1] and trace[9:] == []
    assert isinstance(trace[1:3], list)
    assert items[2] in trace and trace.index(items[3]) == 3
    assert trace == items and items == trace and trace != items[:-1]
    assert trace != tuple(items)  # like a list, a trace equals no tuple
    with pytest.raises(IndexError):
        trace[5]
    with pytest.raises(IndexError):
        trace[-6]
    with pytest.raises(TypeError):
        hash(trace)
    assert Trace() == [] and len(Trace()) == 0


def test_from_invocations_sorts_stably_and_keeps_ids():
    invs = [Invocation("c", "f1", ("a",), "x", 30), Invocation("a", "f2", (), "y", 10),
            Invocation("b", "f1", ("a",), "x", 30), Invocation("d", "f1", (), "x", 10)]
    trace = Trace.from_invocations(invs)
    assert [inv.id for inv in trace] == ["a", "d", "c", "b"]
    assert list(trace) == sorted(invs, key=lambda inv: inv.arrival)
    assert trace.functions == ["f1", "f2"] and trace.origins == ["x", "y"]
    assert trace.ref_sets == [("a",), ()]
    assert trace[2].data_refs is trace[3].data_refs


def test_loaded_trace_keeps_one_string_per_function_and_origin(tmp_path):
    # Regression: json.loads made a new function and origin string per line.
    catalog, trace = small_trace()
    save_trace(trace, tmp_path / "t.jsonl")
    loaded = load_trace(tmp_path / "t.jsonl", catalog)
    assert loaded == trace
    assert len({id(inv.function) for inv in loaded}) == len({inv.function for inv in loaded})
    assert len({id(inv.origin) for inv in loaded}) == len({inv.origin for inv in loaded})
    assert sorted(loaded.functions) == sorted({inv.function for inv in trace})


def test_simulation_accepts_a_list_of_invocations():
    scenario = parse_scenario(scenario_dict(cluster={"nodes": 2}))
    catalog, trace = runner.prepare_workload(scenario, 1)
    cfg = scenario.strategies[0]
    from_list = runner.run_one(scenario, cfg, 1, catalog, list(trace))
    from_trace = runner.run_one(scenario, cfg, 1, catalog, trace)
    assert from_list.row() == from_trace.row()
    assert list(from_list.records) == list(from_trace.records)


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
    assert len(trace) == len(result.records) == 20_000
    assert held / len(trace) <= 110, held / len(trace)
