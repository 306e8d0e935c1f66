"""Workload generation and trace ingestion."""

import json
import statistics

import pytest

from dispatchsim.cluster import FunctionSpec
from dispatchsim.engine import RandomSource
from dispatchsim.errors import TraceFormatError, UnknownFunctionError, UnknownObjectError
from dispatchsim.workload import (
    ArrivalSpec,
    Catalog,
    ObjectSpec,
    PopularitySpec,
    WorkloadSpec,
    build_catalog,
    generate_trace,
    load_trace,
    save_trace,
)

F1 = FunctionSpec("f1", code_size=10, flavor=128, compute_ms=80)
F2 = FunctionSpec("f2", code_size=5, flavor=64, compute_ms=20)


def make_spec(**kw) -> WorkloadSpec:
    defaults = dict(
        horizon_ms=1000,
        arrival=ArrivalSpec(kind="fixed_interval", interval_ms=100),
        functions=((F1, 1.0),),
        objects=ObjectSpec(count=0),
        refs_per_invocation=(0, 0),
        origins=(("web", 1.0),),
    )
    defaults.update(kw)
    return WorkloadSpec(**defaults)


def build(spec, seed=1):
    catalog = build_catalog(spec, RandomSource(seed, "catalog"))
    return catalog, generate_trace(spec, catalog, RandomSource(seed, "trace"))


def test_fixed_interval_arrivals_are_deterministic():
    _, trace = build(make_spec())
    assert [inv.arrival for inv in trace] == list(range(100, 1001, 100))
    assert len(trace) == 10
    assert [inv.id for inv in trace] == [f"inv-{i:06d}" for i in range(10)]


def test_poisson_rate_and_interarrival_statistics():
    # Statistical oracle over 30 seeds: count near rate*horizon and the
    # empirical mean interarrival within 20% of 10ms.
    spec = make_spec(horizon_ms=10_000, arrival=ArrivalSpec(kind="poisson", rate_per_s=100))
    for seed in range(30):
        _, trace = build(spec, seed=seed)
        n = len(trace)
        assert 800 <= n <= 1200, f"seed {seed}: count {n}"
        gaps = [b.arrival - a.arrival for a, b in zip(trace, trace[1:])]
        mean_gap = statistics.fmean(gaps)
        assert 8.0 <= mean_gap <= 12.0, f"seed {seed}: mean gap {mean_gap}"


def test_zipf_popularity_skews_toward_low_ranks():
    # Frequency-count oracle: rank-1 object referenced strictly more often
    # than the rank-10 object across 10000 draws.
    spec = make_spec(
        horizon_ms=10_000,
        arrival=ArrivalSpec(kind="fixed_interval", interval_ms=1),
        objects=ObjectSpec(count=50, size=100.0, popularity=PopularitySpec("zipf", 1.1)),
        refs_per_invocation=(1, 1),
    )
    _, trace = build(spec)
    assert len(trace) == 10_000
    counts = {}
    for inv in trace:
        for ref in inv.data_refs:
            counts[ref] = counts.get(ref, 0) + 1
    assert counts.get("obj-0000", 0) > counts.get("obj-0009", 0)


def test_function_mix_shares_track_weights():
    # Over >= 10000 invocations each function's share is within 3 points.
    spec = make_spec(
        horizon_ms=12_000,
        arrival=ArrivalSpec(kind="fixed_interval", interval_ms=1),
        functions=((F1, 3.0), (F2, 1.0)),
    )
    _, trace = build(spec)
    share_f1 = sum(1 for inv in trace if inv.function == "f1") / len(trace)
    assert abs(share_f1 - 0.75) <= 0.03


def test_same_spec_and_seed_give_identical_traces():
    spec = make_spec(
        horizon_ms=2000,
        arrival=ArrivalSpec(kind="poisson", rate_per_s=50),
        objects=ObjectSpec(count=10, size=(10.0, 50.0)),
        refs_per_invocation=(1, 3),
        origins=(("web", 2.0), ("iot", 1.0)),
    )
    _, t1 = build(spec, seed=11)
    _, t2 = build(spec, seed=11)
    _, t3 = build(spec, seed=12)
    assert t1 == t2
    assert t1 != t3


def test_arrivals_are_non_decreasing_and_refs_distinct():
    spec = make_spec(
        horizon_ms=5000,
        arrival=ArrivalSpec(kind="poisson", rate_per_s=200),
        objects=ObjectSpec(count=5, size=10.0),
        refs_per_invocation=(2, 3),
    )
    _, trace = build(spec)
    arrivals = [inv.arrival for inv in trace]
    assert arrivals == sorted(arrivals)
    for inv in trace:
        assert len(set(inv.data_refs)) == len(inv.data_refs)


def test_object_size_range_draws_within_bounds():
    spec = make_spec(objects=ObjectSpec(count=20, size=(10.0, 50.0)))
    catalog, _ = build(spec)
    sizes = [obj.size for obj in catalog.objects.values()]
    assert all(10.0 <= s <= 50.0 for s in sizes)


def test_trace_round_trip(tmp_path):
    spec = make_spec(
        horizon_ms=2000,
        arrival=ArrivalSpec(kind="poisson", rate_per_s=100),
        objects=ObjectSpec(count=8, size=25.0),
        refs_per_invocation=(0, 2),
        origins=(("web", 1.0), ("batch", 1.0)),
    )
    catalog, trace = build(spec, seed=3)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert load_trace(path, catalog) == trace


def test_equal_references_share_one_tuple(tmp_path):
    spec = make_spec(
        horizon_ms=5000,
        arrival=ArrivalSpec(kind="poisson", rate_per_s=200),
        objects=ObjectSpec(count=3, size=10.0),
        refs_per_invocation=(1, 2),
    )
    catalog, trace = build(spec)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    for loaded in (trace, load_trace(path, catalog)):
        distinct = {inv.data_refs for inv in loaded}
        assert len(loaded) > len(distinct)
        assert len({id(inv.data_refs) for inv in loaded}) == len(distinct)


def test_empty_trace_file_loads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_trace(path, Catalog()) == []


def test_loaded_trace_is_sorted_by_arrival(tmp_path):
    catalog = Catalog(functions={"f1": F1})
    path = tmp_path / "unsorted.jsonl"
    path.write_text(
        '{"id": "b", "function": "f1", "arrival_ms": 200, "data_refs": [], "origin": "x"}\n'
        '{"id": "a", "function": "f1", "arrival_ms": 100, "data_refs": [], "origin": "x"}\n'
    )
    assert [inv.id for inv in load_trace(path, catalog)] == ["a", "b"]


def test_unknown_function_names_the_line(tmp_path):
    catalog = Catalog(functions={"f1": F1})
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "function": "f1", "arrival_ms": 0, "data_refs": [], "origin": "x"}\n'
        '{"id": "b", "function": "ghost", "arrival_ms": 5, "data_refs": [], "origin": "x"}\n'
    )
    with pytest.raises(UnknownFunctionError, match="line 2"):
        load_trace(path, catalog)


def test_unknown_object_names_the_line(tmp_path):
    catalog = Catalog(functions={"f1": F1})
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "function": "f1", "arrival_ms": 0, "data_refs": ["ghost"], "origin": "x"}\n'
    )
    with pytest.raises(UnknownObjectError, match="line 1"):
        load_trace(path, catalog)


@pytest.mark.parametrize("bad", [
    b"\xff",  # not a start byte
    b'{"id": "caf\xe9"}',  # Latin-1
    b'{"id": "\xe2\x82"}',  # a three-byte sequence cut short
    b'{"id": "\xed\xa0\x80"}',  # an encoded surrogate
], ids=["leading_0xff", "latin1", "truncated", "surrogate"])
def test_non_utf8_line_is_a_trace_format_error_naming_it(tmp_path, bad):
    good = b'{"id": "a", "function": "f1", "arrival_ms": 0, "data_refs": [], "origin": "x"}\n'
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(good + bad + b"\n" + good)
    with pytest.raises(TraceFormatError, match="^line 2: not UTF-8 text$"):
        load_trace(path, Catalog(functions={"f1": F1}))


def test_malformed_record_reports_line_number(tmp_path):
    path = tmp_path / "mangled.jsonl"
    path.write_text('{"id": "a"}\nnot json at all {{{\n')
    with pytest.raises(TraceFormatError, match="line 1"):
        load_trace(path, Catalog(functions={"f1": F1}))


@pytest.mark.parametrize("field, value, problem", [
    ("arrival_ms", True, "arrival_ms must be a non-negative integer"),
    ("id", None, "id must be a string"),
    ("id", 7, "id must be a string"),
    ("origin", ["x"], "origin must be a string"),
])
def test_mistyped_field_is_rejected_with_its_line_and_name(tmp_path, field, value, problem):
    # Each of these once loaded: true as arrival 1, null as the id "None",
    # and ["x"] as the origin "['x']".
    good = {"id": "a", "function": "f1", "arrival_ms": 0, "data_refs": [], "origin": "x"}
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n")
    with pytest.raises(TraceFormatError, match=f"line 2: {problem}"):
        load_trace(path, Catalog(functions={"f1": F1}))
