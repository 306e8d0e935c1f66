"""Configuration parsing, validation diagnostics and the CLI surface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import dispatchsim
from dispatchsim import cli, runner
from dispatchsim.cli import main
from dispatchsim.config import (
    FIELDS, Scenario, apply_override, load_scenario, parse_scenario, validate,
)
from dispatchsim.engine import RandomSource
from dispatchsim.errors import ConfigError
from dispatchsim.strategies import make_strategy
from dispatchsim.cluster import FunctionSpec
from dispatchsim.workload import (
    ArrivalSpec, ObjectSpec, OriginSpec, PopularitySpec, WorkloadSpec, build_catalog,
    generate_trace, trace_problems,
)

from conftest import scenario_dict

DEMO_SCENARIOS = Path(__file__).parent.parent / "demos" / "scenarios"


def write_config(tmp_path, raw, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


# ---- parsing and validation -----------------------------------------------------


def test_valid_scenario_has_no_diagnostics():
    assert validate(parse_scenario(scenario_dict())) == []


def test_zipf_exponent_zero_names_the_key():
    raw = scenario_dict(workload={
        "objects": {"count": 5, "size": 10, "popularity": {"kind": "zipf", "s": 0}},
    })
    diags = validate(parse_scenario(raw))
    assert any(d.key == "workload.objects.popularity" and d.severity == "error"
               for d in diags)


@pytest.mark.parametrize("count, s, valid", [
    (50, 182.0, False), (50, 1000.0, False), (1, 1000.0, True),
])
def test_zipf_exponent_that_overflows_names_the_key(tmp_path, capsys, count, s, valid):
    # Regression: 50 ** 182 overflows a float, so this validated and then
    # generating the trace raised OverflowError. One object never overflows.
    raw = scenario_dict(workload={
        "objects": {"count": count, "size": 10, "popularity": {"kind": "zipf", "s": s}},
        "refs_per_invocation": [1, 1],
    })
    assert main(["validate", write_config(tmp_path, raw)]) == (0 if valid else 2)
    err = capsys.readouterr().err
    assert ("error: workload.objects.popularity.s:" in err) != valid
    assert "Traceback" not in err
    workload = parse_scenario(raw).workload
    catalog = build_catalog(workload, RandomSource(1, "catalog"))
    if valid:
        assert len(generate_trace(workload, catalog, RandomSource(1, "trace"))) > 0
    else:
        with pytest.raises(ConfigError, match=r"^workload\.objects\.popularity\.s: "):
            generate_trace(workload, catalog, RandomSource(1, "trace"))


@pytest.mark.parametrize("s, valid", [(20, False), (60, False), (5, True)])
def test_zipf_exponent_that_starves_distinct_picks_names_the_key(capsys, s, valid):
    # Regression: at s=20 or s=60 an invocation of the data-intensive workload
    # that draws 3 distinct objects of 50 almost never meets a third one, so
    # this validated and then generating the trace never ended. At s=5 a
    # draw after the two most popular meets a new object with chance 0.0055.
    demo = str(DEMO_SCENARIOS / "data_intensive.yaml")
    override = f"workload.objects.popularity.s={s}"
    assert main(["validate", demo, override]) == (0 if valid else 2)
    err = capsys.readouterr().err
    assert ("error: workload.objects.popularity.s:" in err) != valid
    assert "Traceback" not in err
    workload = load_scenario(demo, [override]).workload
    catalog = build_catalog(workload, RandomSource(1, "catalog"))
    if valid:
        assert len(generate_trace(workload, catalog, RandomSource(1, "trace"))) > 0
    else:
        with pytest.raises(ConfigError, match=r"^workload\.objects\.popularity\.s: "):
            generate_trace(workload, catalog, RandomSource(1, "trace"))


def test_distinct_pick_rule_costs_no_more_for_a_huge_population():
    # The rule sums at most 1,000 ranks per range, so it stays quick at 10**12
    # objects, where every invocation would reference all of them.
    raw = scenario_dict(workload={
        "objects": {"count": 10**12, "size": 10, "popularity": {"kind": "zipf", "s": 1.1}},
        "refs_per_invocation": [1, 10**12],
    })
    diags = validate(parse_scenario(raw))
    assert [d.key for d in diags if d.severity == "error"] == ["workload.objects.popularity.s"]


def test_small_store_is_a_warning_not_an_error():
    raw = scenario_dict(
        cluster={"store_capacity": 50},
        workload={"objects": {"count": 2, "size": 100}},
    )
    diags = validate(parse_scenario(raw))
    assert [d.severity for d in diags] == ["warning"]
    assert diags[0].key == "cluster.store_capacity"


def test_unknown_strategy_diagnostic_lists_registry():
    raw = scenario_dict(strategy={"name": "magic"})
    diags = validate(parse_scenario(raw))
    assert any("round_robin" in d.message and "proactive_cluster" in d.message
               for d in diags)


def test_flavor_must_be_in_configured_set():
    raw = scenario_dict(workload={
        "functions": [{"name": "f1", "flavor": 96, "compute_ms": 10}],
    })
    assert any("flavor" in d.key for d in validate(parse_scenario(raw)))


def test_compute_must_respect_execution_cap():
    raw = scenario_dict(
        cluster={"max_execution_ms": 1000},
        workload={"functions": [{"name": "f1", "flavor": 128, "compute_ms": 2000}]},
    )
    assert any("compute_ms" in d.key for d in validate(parse_scenario(raw)))


def test_refs_without_objects_is_an_error():
    raw = scenario_dict(workload={"refs_per_invocation": [1, 2], "objects": {"count": 0}})
    assert any(d.key == "workload.refs_per_invocation"
               for d in validate(parse_scenario(raw)))


def test_empty_seeds_is_an_error():
    raw = scenario_dict(seeds=[])
    assert any(d.key == "seeds" for d in validate(parse_scenario(raw)))


def test_override_sets_nested_and_typed_values():
    raw = scenario_dict()
    apply_override(raw, "cluster.nodes=8")
    apply_override(raw, "workload.arrival.kind=poisson")
    apply_override(raw, "workload.functions.0.compute_ms=75")
    apply_override(raw, "seeds=[4, 5]")
    scenario = parse_scenario(raw)
    assert scenario.cluster.nodes == 8
    assert scenario.workload.arrival.kind == "poisson"
    assert scenario.workload.functions[0].compute_ms == 75
    assert scenario.seeds == [4, 5]


def test_override_requires_key_value_shape():
    for override in ("cluster.nodes", "=5", ".=5", "cluster..nodes=3"):
        with pytest.raises(ConfigError) as caught:
            apply_override(scenario_dict(), override)
        assert str(caught.value) == f"override {override!r} is not of the form key.path=value"


# ---- CLI ------------------------------------------------------------------------


def test_cli_run_minimal_scenario(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario_dict(output={"dir": str(tmp_path / "out")}))
    assert main(["run", cfg]) == 0
    report = tmp_path / "out" / "report.csv"
    assert report.exists()
    rows = [l for l in report.read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) == 2  # header + one (strategy, seed) row
    assert "wrote" in capsys.readouterr().out


def test_cli_unknown_strategy_exits_2_and_lists_registry(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario_dict(strategy={"name": "sorcery"}))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "sorcery" in err and "round_robin" in err


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(b"\xffcluster: {}\n"),
    lambda path: path.write_bytes(b"seeds: [1]\nb: \xe9t\xe9\n"),  # Latin-1
    lambda path: path.mkdir(),
], ids=["leading_0xff", "latin1", "directory"])
def test_cli_unreadable_config_exits_2_naming_it(tmp_path, capsys, make):
    # Regression: bytes that are not UTF-8 gave a UnicodeDecodeError
    # traceback and exit 1, and a directory exited 3 as a runtime failure.
    path = tmp_path / "scenario.yaml"
    make(path)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


MALFORMED_TRACE_LINES = [
    (b"\xff", "not UTF-8 text"),
    (b"{not json", "invalid JSON (Expecting property name enclosed in double quotes)"),
    (b'{"id": "b", "function": "f1", "arrival_ms": 0, "data_refs": []}',
     "missing fields: origin"),
    (b'{"id": "b", "function": "f9", "arrival_ms": 0, "data_refs": [], "origin": "x"}',
     "unknown function 'f9'"),
    (b'{"id": "b", "function": "f1", "arrival_ms": 0, "data_refs": ["o9"], "origin": "x"}',
     "unknown object 'o9'"),
    (b'{"id": "b", "function": "f1", "arrival_ms": 99999999999999999999, '
     b'"data_refs": [], "origin": "x"}', "arrival_ms is out of range"),
]


def test_cli_non_utf8_trace_line_is_a_trace_format_error(tmp_path, capsys):
    # A malformed trace file exits 2 with one line naming the key, the file
    # and the line, as a missing one does; it used to exit 3 without the file.
    trace_path = tmp_path / "trace.jsonl"
    good = b'{"id": "a", "function": "f1", "arrival_ms": 0, "data_refs": [], "origin": "x"}\n'
    cfg = write_config(tmp_path, scenario_dict(workload={"trace_path": str(trace_path)}))
    for bad_line, problem in MALFORMED_TRACE_LINES:
        trace_path.write_bytes(good + bad_line + b"\n" + good)
        for args in (["run", cfg, "--out-dir", str(tmp_path / "out")],
                     ["generate-trace", cfg, "--out", str(tmp_path / "copy.jsonl")]):
            assert main(args) == 2
            assert capsys.readouterr().err == (
                f"error: workload.trace_path: {trace_path}: line 2: {problem}\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_trace_path_that_is_not_a_file_names_the_key(tmp_path, capsys, command, kind):
    # validate used to accept both, and run printed only the OSError.
    trace_path = tmp_path / "trace.jsonl"
    if kind == "directory":
        trace_path.mkdir()
    cfg = write_config(tmp_path, scenario_dict())
    args = [command, cfg, "--out-dir", str(tmp_path / "out"),
            f"workload.trace_path={trace_path}"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: workload.trace_path: {trace_path}: not a file\n"


def test_trace_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys, monkeypatch):
    # prepare_workload names the key: through validate for a path that is
    # not a file, and from the OSError for a file that cannot be read past
    # validation. An unreadable file used to exit 3.
    missing, directory, unreadable = (tmp_path / name for name in ("missing", "dir", "denied"))
    directory.mkdir()
    unreadable.write_text("")
    for path in (missing, directory):
        scenario = parse_scenario(scenario_dict(workload={"trace_path": str(path)}))
        with pytest.raises(ConfigError) as excinfo:
            runner.prepare_workload(scenario, 1)
        assert str(excinfo.value) == f"workload.trace_path: {path}: not a file"

    def denied(path, catalog):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(runner, "load_trace", denied)
    cfg = write_config(tmp_path, scenario_dict(workload={"trace_path": str(unreadable)}))
    assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: workload.trace_path: {unreadable}: Permission denied\n")


def test_cli_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(scenario):
        raise MemoryError

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    assert main(["run", write_config(tmp_path, scenario_dict())]) == 3
    assert capsys.readouterr().err == "runtime failure: out of memory\n"


def test_cli_reports_are_byte_identical_across_runs(tmp_path):
    raw = scenario_dict(
        cluster={"nodes": 2},
        workload={
            "horizon_ms": 2000,
            "arrival": {"kind": "poisson", "rate_per_s": 80},
            "objects": {"count": 6, "size": 25},
            "refs_per_invocation": [0, 2],
        },
        strategy={"name": "data_aware"},
        output={"formats": ["csv", "json"]},
    )
    cfg = write_config(tmp_path, raw)
    assert main(["run", cfg, "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("report.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_seed_flag_overrides_seed_list(tmp_path):
    cfg = write_config(tmp_path, scenario_dict(seeds=[1, 2, 3]))
    assert main(["run", cfg, "--seed", "7", "--out-dir", str(tmp_path / "out")]) == 0
    rows = [l for l in (tmp_path / "out" / "report.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) == 2
    assert rows[1].split(",")[1] == "7"


def test_cli_dotted_override_changes_the_run(tmp_path):
    cfg = write_config(tmp_path, scenario_dict())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "cluster.nodes=3"]) == 0
    meta = [l for l in (out / "report.csv").read_text().splitlines()
            if l.startswith("# cluster.nodes=")]
    assert meta == ["# cluster.nodes=3"]


def test_cli_compare_rows_and_aggregates(tmp_path):
    raw = scenario_dict(seeds=[1, 2, 3], output={"dir": str(tmp_path / "out")})
    raw["strategies"] = [{"name": "round_robin"}, {"name": "data_aware"}]
    del raw["strategy"]
    cfg = write_config(tmp_path, raw)
    assert main(["compare", cfg]) == 0
    lines = [l for l in (tmp_path / "out" / "compare.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 6 + 2  # header, 3 seeds x 2 strategies, 2 means
    assert sum(1 for l in lines if ",mean," in l) == 2


def test_cli_compare_requires_two_strategies(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario_dict())
    assert main(["compare", cfg]) == 2
    assert "at least two" in capsys.readouterr().err


def test_cli_validate_valid_and_invalid(tmp_path, capsys):
    good = write_config(tmp_path, scenario_dict(), "good.yaml")
    assert main(["validate", good]) == 0
    assert "configuration valid" in capsys.readouterr().out
    bad = write_config(tmp_path, scenario_dict(seeds=[]), "bad.yaml")
    assert main(["validate", bad]) == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ("strategy.params.queue_cap=0", "strategy.params.queue_cap"),
    ("strategy.params.queue_cap=-3", "strategy.params.queue_cap"),
    ("strategy.params.queue_cap=2.5", "strategy.params.queue_cap"),
    ("strategy.params.w_data=-1", "strategy.params.w_data"),
    ("strategy.params.w_code=.nan", "strategy.params.w_code"),
    ("strategy.params.w_load=.inf", "strategy.params.w_load"),
    pytest.param("strategy.params.w_code=1" + "0" * 400, "strategy.params.w_code",
                 id="w_code-above-the-largest-float"),
])
def test_cli_validate_rejects_bad_scoring_params(tmp_path, capsys, override, key):
    # Regression: these passed validation, and queue_cap=0 then crashed
    # a data_aware run with ZeroDivisionError.
    cfg = write_config(tmp_path, scenario_dict())
    for command in ("validate", "run"):
        assert main([command, cfg, "strategy.name=data_aware", override,
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {key}:" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("override, key", [
    ("cluster.nodes=abc", "cluster.nodes"),
    ("cluster.network.bandwidth_mb_per_s=fast", "cluster.network.bandwidth_mb_per_s"),
    ("cluster.keep_alive_ms=.inf", "cluster.keep_alive_ms"),
    ("cluster.flavors=[128, big]", "cluster.flavors.1"),
    ("cluster.flavors=5", "cluster.flavors"),
    ("workload.functions=5", "workload.functions"),
    ("workload.functions.0.compute_ms=[1]", "workload.functions.0.compute_ms"),
    ("workload.arrival.interval_ms=soon", "workload.arrival.interval_ms"),
    ("workload.objects.size=[1]", "workload.objects.size"),
    # drew sizes truncated to whole MB: 0.0 and 1.0 or 2.0
    ("workload.objects.size=[0.2, 0.7]", "workload.objects.size"),
    ("workload.objects.size=[1.5, 2.5]", "workload.objects.size"),
    ("workload.objects.popularity.s=x", "workload.objects.popularity.s"),
    ("workload.refs_per_invocation=[0, x]", "workload.refs_per_invocation.1"),
    ("workload.origins=7", "workload.origins"),
    ("workload.origins=[{tag: a, weight: heavy}]", "workload.origins.0.weight"),
    ("strategy.steal_poll_ms=often", "strategy.steal_poll_ms"),
    ("strategy.replication.decay=half", "strategy.replication.decay"),
    ("strategies=5", "strategies"),
    ("strategies=[{name: data_aware, dispatch_latency_ms: x}]",
     "strategies.0.dispatch_latency_ms"),
    ("seeds=[1, two]", "seeds.1"),
    ("output.formats=3", "output.formats"),
    # ran, wrote no report and exited 0
    ("output.formats=[]", "output.formats"),
    ("cluster.nodes=2.7", "cluster.nodes"),
    ("workload.functions.0.compute_ms=12.5", "workload.functions.0.compute_ms"),
    ("seeds=[1.5]", "seeds.0"),
    ("strategy.work_stealing=nope", "strategy.work_stealing"),
    ("strategy.work_stealing=1", "strategy.work_stealing"),
    ("strategies=[{name: round_robin}, {name: hash_affinity, work_stealing: maybe}]",
     "strategies.1.work_stealing"),
    # trace_path=5 opened file descriptor 5, and trace_path=0 was ignored
    ("workload.trace_path=5", "workload.trace_path"),
    ("workload.trace_path=0", "workload.trace_path"),
    # past 64 bits these raised OverflowError from the record columns
    ("strategy.dispatch_latency_ms=100000000000000000000000", "strategy.dispatch_latency_ms"),
    ("cluster.max_execution_ms=100000000000000000000000", "cluster.max_execution_ms"),
    ("workload.functions.0.compute_ms=100000000000000000000000",
     "workload.functions.0.compute_ms"),
    # booleans counted as the integer 1
    ("cluster.nodes=true", "cluster.nodes"),
    ("seeds=[true]", "seeds.0"),
    # anything but an integer node id ran as "external"
    ("cluster.code_store=node9", "cluster.code_store"),
    ("cluster.result_store=[1,2]", "cluster.result_store"),
    ("cluster.code_store=3", "cluster.code_store"),
    # validated, then drew function codes past the function table: IndexError
    ("workload.functions=[{name: a, weight: 1e308}, {name: b, weight: 1e308}]",
     "workload.functions: weights must add up to a finite number"),
])
def test_cli_malformed_value_exits_2_naming_the_key(tmp_path, capsys, override, key):
    # Regression: cluster.nodes=abc raised ValueError and workload.functions=5
    # raised TypeError, each a traceback with exit code 1.
    cfg = write_config(tmp_path, scenario_dict())
    for command in ("validate", "run"):
        assert main([command, cfg, override, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert "Traceback" not in err


@pytest.mark.parametrize("override, key", [
    ("nodes=8", "nodes"),
    ("cluster.nodez=8", "cluster.nodez"),
    ("cluster.network.latency=1", "cluster.network.latency"),
    ("workload.horizon=500", "workload.horizon"),
    ("workload.arrival.rate=5", "workload.arrival.rate"),
    ("workload.objects.counts=2", "workload.objects.counts"),
    ("workload.objects.popularity.alpha=1", "workload.objects.popularity.alpha"),
    ("workload.functions.0.memory=128", "workload.functions.0.memory"),
    ("workload.origins=[{tag: web, wieght: 2}]", "workload.origins.0.wieght"),
    ("strategy.parms.w_code=1", "strategy.parms"),
    ("strategy.replication.every=5", "strategy.replication.every"),
    ("strategies=[{name: round_robin}, {name: data_aware, latency: 3}]", "strategies.1.latency"),
    ("output.directory=x", "output.directory"),
    # params a strategy does not take
    ("strategy.params.w_code=1", "strategy.params.w_code"),
    ("strategies=[{name: round_robin}, {name: data_aware, params: {w_cod: 1}}]",
     "strategies.1.params.w_cod"),
    ("strategies=[{name: proactive_cluster, params: {decay: 0.5}},"
     " {name: mcgrath_queues, params: {decay: 0.5}}]", "strategies.0.params.decay"),
])
def test_cli_unknown_key_exits_2_naming_it(tmp_path, capsys, override, key):
    # Declared behaviour change (malformed input only): these were ignored,
    # and validate printed "configuration valid". A strategies override
    # takes the place of the base's strategy block, as one fault only.
    listed = override.startswith("strategies=")
    cfg = write_config(tmp_path, scenario_dict(strategies=[]) if listed else scenario_dict())
    for command in ("validate", "run"):
        assert main([command, cfg, override, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}:")
        assert "Traceback" not in err


@pytest.mark.parametrize("section, extra, key", [
    (None, {"description": "x"}, "description"),
    ("cluster", {"node": 4}, "cluster.node"),
    ("workload", {"arrivals": {}}, "workload.arrivals"),
    ("strategy", {"params": {"queue_cap": 4}}, "strategy.params.queue_cap"),
    ("output", {"format": "csv"}, "output.format"),
])
def test_yaml_unknown_key_exits_2_naming_it(tmp_path, capsys, section, extra, key):
    raw = scenario_dict()
    (raw if section is None else raw[section]).update(extra)
    cfg = write_config(tmp_path, raw)
    for command in ("validate", "run"):
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}:")


def test_demo_scenario_with_misspelled_keys_is_rejected(capsys):
    demo = str(DEMO_SCENARIOS / "minimal.yaml")
    assert main(["validate", demo]) == 0
    capsys.readouterr()
    assert main(["validate", demo, "cluster.nodez=8", "strategy.parms.w_code=1"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_key_message_lists_the_known_ones(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario_dict())
    assert main(["validate", cfg, "cluster.network.latency=1"]) == 2
    assert capsys.readouterr().err == (
        "error: cluster.network.latency: unknown key "
        "(expected one of: latency_ms, bandwidth_mb_per_s)\n")
    assert main(["validate", cfg, "strategy.params.w_code=1"]) == 2
    assert capsys.readouterr().err == (
        "error: strategy.params.w_code: is not a parameter of round_robin (it takes: none)\n")


def test_cli_integer_key_refuses_to_truncate_a_float(tmp_path, capsys):
    # Regression: cluster.nodes=2.7 was "configuration valid" and ran 2 nodes.
    cfg = write_config(tmp_path, scenario_dict())
    out = tmp_path / "out"
    for command in ("validate", "run"):
        assert main([command, cfg, "cluster.nodes=2.7", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: cluster.nodes: expected an integer, got 2.7\n"
    assert main(["run", cfg, "cluster.nodes=2.0", "--out-dir", str(out)]) == 0
    assert "# cluster.nodes=2\n" in (out / "report.csv").read_text()
    assert main(["validate", cfg, "workload.objects.size=[10.0, 50.0]"]) == 0


def test_work_stealing_takes_only_a_yaml_boolean(tmp_path, capsys):
    # Regression: strategy.work_stealing=nope ran round_robin+steal.
    cfg = write_config(tmp_path, scenario_dict())
    for command in ("validate", "run"):
        assert main([command, cfg, "strategy.work_stealing=nope",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert (capsys.readouterr().err
                == "error: strategy.work_stealing: expected a boolean, got 'nope'\n")
    for value, label in (("yes", "round_robin+steal"), ("false", "round_robin")):
        scenario = load_scenario(cfg, [f"strategy.work_stealing={value}"])
        assert scenario.strategies[0].label == label


def test_scoring_params_are_checked_in_every_strategies_entry():
    raw = scenario_dict(strategies=[
        {"name": "data_aware", "params": {"w_code": -0.1}},
        {"name": "mcgrath_queues", "params": {"queue_cap": 0}},
    ])
    keys = {d.key for d in validate(parse_scenario(raw)) if d.severity == "error"}
    assert keys == {"strategies.0.params.w_code", "strategies.1.params.queue_cap"}


def test_strategy_override_on_a_strategies_list_is_refused(capsys):
    # Regression: the override made a strategy block that parsing ignored,
    # and validate printed "configuration valid".
    demo = str(DEMO_SCENARIOS / "data_intensive.yaml")
    assert main(["validate", demo]) == 0
    capsys.readouterr()
    assert main(["validate", demo, "strategy.name=nope"]) == 2
    assert "error: strategy: cannot be given with a strategies list" in capsys.readouterr().err
    raw = scenario_dict(strategies=[{"name": "round_robin"}, {"name": "data_aware"}])
    raw["strategy"] = {"name": "round_robin"}
    with pytest.raises(ConfigError) as refused:
        parse_scenario(raw)
    assert str(refused.value) == "strategy: cannot be given with a strategies list"


def test_proactive_cluster_decay_is_the_replication_decay(tmp_path, capsys, monkeypatch):
    # Regression: params.decay was checked but the run used replication.decay.
    cfg = write_config(tmp_path, scenario_dict(strategy={"name": "proactive_cluster"}))
    assert main(["validate", cfg, "strategy.params.decay=0.9"]) == 2
    assert capsys.readouterr().err.startswith("error: strategy.params.decay:")

    made = []

    def spy(*args, **kwargs):
        made.append(make_strategy(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(runner, "make_strategy", spy)
    scenario = load_scenario(cfg, ["strategy.replication.decay=0.9"])
    runner.run_one(scenario, scenario.strategies[0], 1)
    assert made[0].counters.decay == 0.9


def test_cli_flags_are_overrides_before_the_checks(tmp_path):
    # --seed and --format replace the file's values before they are checked.
    cfg = write_config(tmp_path, scenario_dict(seeds=[], output={"formats": ["xml"]}))
    assert main(["validate", cfg]) == 2
    assert main(["validate", cfg, "--seed", "3", "--format", "json"]) == 0


@pytest.mark.parametrize("override, line", [
    ("workload.origins=[{weight: 1}]", "error: workload.origins.0.tag: is required"),
    ("workload.origins=[]", "error: workload.origins: at least one origin is required"),
])
def test_an_origin_needs_a_tag_and_the_origin_list_an_origin(tmp_path, capsys, override, line):
    # Declared behaviour change: the first ran with the tag "origin0", and
    # the second with the default origin, each exiting 0.
    demo = str(DEMO_SCENARIOS / "minimal.yaml")
    assert main(["run", demo, override, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [line]
    assert not (tmp_path / "out").exists()


def test_null_keeps_the_default():
    scenario = parse_scenario(scenario_dict(cluster={"nodes": None, "network": None}))
    assert scenario.cluster == parse_scenario(scenario_dict(cluster={
        "nodes": 1, "network": {}})).cluster
    with pytest.raises(ConfigError, match="workload.functions.0.name: is required"):
        parse_scenario(scenario_dict(workload={"functions": [{"name": None}]}))


# Any YAML tree or dotted override: validate exits 0 or 2 and never raises.
KNOWN_KEYS = sorted({part for key in FIELDS for part in key.split(".")} | {"0", "1"})
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8) | st.sampled_from(KNOWN_KEYS + ["external", "poisson"]))
keys = st.sampled_from(KNOWN_KEYS) | st.text(max_size=6) | st.integers(-2, 3)
trees = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(keys, inner, max_size=4), max_leaves=12)


def validate_exit(config: str, overrides=()) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["validate", config, *overrides])


@settings(max_examples=150, deadline=None)
@given(tree=st.dictionaries(st.sampled_from(sorted(scenario_dict())) | keys, trees, max_size=5)
       | trees,
       base=st.booleans())
def test_any_yaml_tree_validates_to_0_or_2(tmp_path_factory, tree, base):
    if base and isinstance(tree, dict):
        tree = {**scenario_dict(), **tree}
    path = tmp_path_factory.mktemp("tree") / "scenario.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert validate_exit(str(path)) in (0, 2)


PATHS = sorted({key.replace(".N", ".0") for key in FIELDS}
               | {key.replace("strategy.", "strategies.1.") for key in FIELDS})
dotted = (st.sampled_from(PATHS).map(lambda key: key.split("."))
          | st.lists(st.sampled_from(KNOWN_KEYS) | st.text(max_size=4), min_size=1, max_size=5))
values = st.one_of(st.text(max_size=12), scalars.map(lambda v: yaml.safe_dump(v).strip()),
                   trees.map(lambda v: yaml.safe_dump(v, default_flow_style=True).strip()))


@settings(max_examples=200, deadline=None)
@given(overrides=st.lists(st.tuples(dotted, values), min_size=1, max_size=3))
@example(overrides=[(["²", "x"], "1")])  # "²".isdigit(), and int("²") raised ValueError
def test_any_dotted_override_validates_to_0_or_2(tmp_path_factory, overrides):
    config = str(DEMO_SCENARIOS / "data_intensive.yaml")
    assert validate_exit(config, [".".join(p) + "=" + v for p, v in overrides]) in (0, 2)


# ---- the YAML loader: libyaml when PyYAML has it, else pure Python ------------------

ROOT = Path(__file__).parent.parent
SHIPPED_YAML = sorted([*ROOT.glob("demos/scenarios/*.yaml"), *ROOT.glob("perfbench/scenarios/*.yaml"),
                       *ROOT.glob("tests/fixtures/*.yaml")])


def c_safe_loader():
    if not getattr(yaml, "__with_libyaml__", False):
        pytest.skip("PyYAML is built without libyaml")
    return yaml.CSafeLoader


def assert_same_tree(text):
    # repr, not ==: a NaN leaf is unequal to itself, and 1 == 1.0 == True.
    c_tree = yaml.load(text, Loader=c_safe_loader())
    assert repr(c_tree) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_shipped_scenarios_parse_alike_under_both_loaders():
    assert len(SHIPPED_YAML) >= 7
    for path in SHIPPED_YAML:
        assert_same_tree(path.read_bytes())


@settings(max_examples=200, deadline=None)
@given(tree=trees, flow=st.booleans())
def test_dumped_trees_parse_alike_under_both_loaders(tree, flow):
    assert_same_tree(yaml.safe_dump(tree, default_flow_style=flow))


def test_load_scenario_without_libyaml(tmp_path, monkeypatch):
    demo = DEMO_SCENARIOS / "data_intensive.yaml"
    loaded = load_scenario(demo).constants()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_scenario(demo).constants() == loaded
    bad = tmp_path / "bad.yaml"
    bad.write_text("cluster: [1,\n")
    with pytest.raises(ConfigError, match="^" + re.escape(f"{bad}: cannot parse YAML: ")):
        load_scenario(bad)


@pytest.mark.parametrize("libyaml", [True, False])
def test_override_that_is_not_utf8_text_is_a_config_error(monkeypatch, libyaml):
    # A command-line byte that is not UTF-8 reaches an override as a lone
    # surrogate. libyaml fails to encode it rather than reporting a YAML error.
    if libyaml:
        c_safe_loader()
    else:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ConfigError, match="cannot be applied"):
        apply_override({}, "cluster.nodes=\udcff")


def test_cli_validate_surfaces_warnings_but_passes(tmp_path, capsys):
    raw = scenario_dict(
        cluster={"store_capacity": 50},
        workload={"objects": {"count": 1, "size": 100}},
    )
    cfg = write_config(tmp_path, raw)
    assert main(["validate", cfg]) == 0
    assert "warning" in capsys.readouterr().err


def test_cli_generate_trace_round_trips_with_run(tmp_path):
    raw = scenario_dict(
        workload={
            "horizon_ms": 1500,
            "arrival": {"kind": "poisson", "rate_per_s": 40},
            "objects": {"count": 4, "size": 10},
            "refs_per_invocation": [0, 1],
        },
    )
    cfg = write_config(tmp_path, raw)
    trace_path = tmp_path / "trace.jsonl"
    assert main(["generate-trace", cfg, "--out", str(trace_path)]) == 0
    lines = trace_path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"id", "function", "arrival_ms", "data_refs", "origin"}

    # replaying the written trace matches the synthetic run byte for byte
    synth_out, replay_out = tmp_path / "synth", tmp_path / "replay"
    assert main(["run", cfg, "--out-dir", str(synth_out)]) == 0
    raw_replay = dict(raw)
    raw_replay["workload"] = dict(raw["workload"], trace_path=str(trace_path))
    cfg_replay = write_config(tmp_path, raw_replay, "replay.yaml")
    assert main(["run", cfg_replay, "--out-dir", str(replay_out)]) == 0
    a = (synth_out / "report.csv").read_text().splitlines()
    b = (replay_out / "report.csv").read_text().splitlines()
    assert [l for l in a if not l.startswith("#")] == [l for l in b if not l.startswith("#")]


def test_cli_json_format_flag(tmp_path):
    cfg = write_config(tmp_path, scenario_dict())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["rows"][0]["strategy"] == "round_robin"
    assert not (out / "report.csv").exists()


# ---- transfers too long for a float -----------------------------------------------


def _json_row(out):
    return json.loads((out / "report.json").read_text())["rows"][0]


def test_transfer_too_long_for_a_float_fails_at_the_execution_cap(tmp_path):
    """code_size * 1000 / bandwidth overflows to inf, which math.ceil once
    refused with OverflowError. Such a transfer outlasts any execution cap:
    the run exits 0 and each invocation that pays it fails at the cap. On one
    1024 MB node, eight 128 MB cold starts pay the code fetch; the last two
    invocations queue, then start on a warm container without one."""
    minimal = str(DEMO_SCENARIOS / "minimal.yaml")
    rows = {}
    for tag, code_size, bandwidth in (("overflow", "1e300", "1e-300"),
                                      ("finite", "1e10", "1e-3")):  # 1e16 ms, no overflow
        out = tmp_path / tag
        assert main(["run", minimal, "--out-dir", str(out), "--format", "json",
                     f"workload.functions.0.code_size={code_size}",
                     f"cluster.network.bandwidth_mb_per_s={bandwidth}"]) == 0
        rows[tag] = _json_row(out)
    row = rows["overflow"]
    assert (row["tasks"], row["failures"], row["invocations_billed"]) == (10, 8, 2)
    # Each failed task ran boot (100 ms) plus code fetch for exactly the 300,000 ms cap.
    assert row["boot_ms_total"] + row["code_fetch_ms_total"] == 8 * 300_000
    assert row["compute_ms_total"] == 2 * 50
    assert rows["overflow"] == rows["finite"]


def test_object_too_large_to_transfer_fails_the_fetching_task(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(DEMO_SCENARIOS / "minimal.yaml"), "--out-dir", str(out),
                 "--format", "json", "cluster.nodes=2", "cluster.store_capacity=1e307",
                 "workload.objects.count=1", "workload.objects.size=1e306",
                 "workload.refs_per_invocation=1"]) == 0
    row = _json_row(out)
    # Only node 1's first task fetches (node 0 holds the origin, node 1 then a copy).
    assert (row["tasks"], row["failures"]) == (10, 1)
    # The cap, less that task's boot (100 ms) and code fetch (1 + 100 ms).
    assert row["data_fetch_ms_total"] == 300_000 - 100 - 101


# ---- arrival specs and start-up -----------------------------------------------------

SRC = str(Path(dispatchsim.__file__).resolve().parent.parent)


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this package, limited to
    1 GiB of address space and 10 s, so that a runaway loop fails fast."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    return subprocess.run([sys.executable, "-c", limit + code, *args], env=env,
                          capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("arrival, key", [
    ({"interval_ms": 0}, "workload.arrival.interval_ms"),
    ({"interval_ms": -5}, "workload.arrival.interval_ms"),
    ({"kind": "poisson", "rate_per_s": -1.0}, "workload.arrival.rate_per_s"),
    ({"kind": "poisson", "rate_per_s": 0.0}, "workload.arrival.rate_per_s"),
    ({"kind": "poisson", "rate_per_s": float("inf")}, "workload.arrival.rate_per_s"),
    ({"kind": "burst"}, "workload.arrival.kind"),
])
def test_generate_trace_refuses_an_arrival_spec_that_validate_refuses(tmp_path, capsys, arrival,
                                                                     key):
    # Regression: the first three never ended, growing the trace all the
    # while, and a zero or infinite rate raised ZeroDivisionError.
    code = (
        "import json, sys\n"
        "from dispatchsim.cluster import FunctionSpec\n"
        "from dispatchsim.engine import RandomSource\n"
        "from dispatchsim.errors import ConfigError\n"
        "from dispatchsim.workload import ArrivalSpec, WorkloadSpec, build_catalog, generate_trace\n"
        "spec = WorkloadSpec(arrival=ArrivalSpec(**json.loads(sys.argv[1])),\n"
        "                    functions=(FunctionSpec('f1', flavor=128, compute_ms=10),))\n"
        "try:\n"
        "    generate_trace(spec, build_catalog(spec, RandomSource(1, 'catalog')),\n"
        "                   RandomSource(1, 'trace'))\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n")
    child = run_child(code, json.dumps(arrival))
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith(f"{key}: must be ")
    raw = scenario_dict(workload={"arrival": {"kind": "fixed_interval", **arrival}})
    assert main(["validate", write_config(tmp_path, raw)]) == 2
    assert f"error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("arrival, horizon_ms, key, value", [
    ({"interval_ms": 2.5}, 10_000, "workload.arrival.interval_ms", 2.5),
    ({"interval_ms": True}, 10_000, "workload.arrival.interval_ms", True),
    ({}, 1000.5, "workload.horizon_ms", 1000.5),
    ({}, True, "workload.horizon_ms", True),
    ({"kind": "poisson"}, 1000.5, "workload.horizon_ms", 1000.5),
])
def test_generate_trace_refuses_an_ms_value_that_validate_refuses(tmp_path, capsys, arrival,
                                                                  horizon_ms, key, value):
    # Regression: a fractional fixed interval or horizon raised an unnamed
    # TypeError from the arrival column, and an interval of True ran as 1 ms.
    spec = WorkloadSpec(horizon_ms=horizon_ms, arrival=ArrivalSpec(**arrival),
                        functions=(FunctionSpec("f1", flavor=128, compute_ms=10),))
    problem = f"{key}: expected an integer number of ms up to 1000000000000, got {value!r}"
    with pytest.raises(ConfigError) as refused:
        generate_trace(spec, build_catalog(spec, RandomSource(1, "catalog")),
                       RandomSource(1, "trace"))
    assert str(refused.value) == problem
    raw = scenario_dict(workload={"horizon_ms": horizon_ms,
                                  "arrival": {"kind": "fixed_interval", **arrival}})
    assert main(["validate", write_config(tmp_path, raw)]) == 2
    assert f"error: {problem}" in capsys.readouterr().err


F1 = FunctionSpec("f1", flavor=128, compute_ms=10)


def _generate(spec: WorkloadSpec):
    return generate_trace(spec, build_catalog(spec, RandomSource(1, "catalog")),
                          RandomSource(1, "trace"))


@pytest.mark.parametrize("fields", [
    {"functions": ()},
    {"origins": ()},
    {"functions": (FunctionSpec("f1", flavor=128, compute_ms=10, weight=0.0),)},
    {"origins": (OriginSpec("web"), OriginSpec("iot", 0.0))},
    {"functions": (FunctionSpec("f1", flavor=128, compute_ms=10, weight=1e308),
                   FunctionSpec("f2", flavor=128, compute_ms=10, weight=1e308))},
    {"arrival": ArrivalSpec(kind="burst")},
    {"objects": ObjectSpec(count=3, popularity=PopularitySpec(s=0.0)),
     "refs_per_invocation": (1, 1)},
], ids=["no functions", "no origins", "function weight 0", "origin weight 0",
        "weights add up to inf", "burst", "zipf s=0"])
def test_generate_trace_refuses_a_spec_with_validates_first_workload_error(fields):
    # Regression: no origins raised a bare IndexError, weights adding up to
    # inf drew function codes past the end of the trace's function table,
    # and the others raised messages that named no key.
    spec = WorkloadSpec(**{"functions": (F1,), **fields})
    first = next(f"{d.key}: {d.message}" for d in validate(Scenario(workload=spec))
                 if d.severity == "error" and d.key.startswith("workload."))
    with pytest.raises(ConfigError) as refused:
        _generate(spec)
    assert str(refused.value) == first


@pytest.mark.parametrize("owner, name, value, line", [
    ("workload", "horizon_ms", 1000.5, "error: workload.horizon_ms: expected an integer "
                                       "number of ms up to 1000000000000, got 1000.5"),
    ("workload.arrival", "kind", "burst",
     "error: workload.arrival.kind: must be poisson or fixed_interval"),
    ("cluster", "keep_alive_ms", -5, "error: cluster.keep_alive_ms: must be non-negative"),
    ("cluster", "nodes", 0, "error: cluster.nodes: needs at least one node"),
    ("", "seeds", [], "error: seeds: at least one seed is required"),
    ("output", "formats", ("xml",), "error: output.formats.0: unknown format 'xml' (csv or json)"),
    ("workload.objects", "size", (0.2, 0.7),
     "error: workload.objects.size: a range needs whole-MB bounds"),
], ids=["horizon 1000.5", "kind burst", "keep-alive -5", "no nodes", "no seeds", "format xml",
        "size range 0.2-0.7"])
def test_validate_refuses_a_workload_changed_after_parsing(owner, name, value, line):
    # Regression: validate passed these, and the run then refused them (or,
    # from cluster.keep_alive_ms on, ran them).
    scenario = parse_scenario(scenario_dict())
    target = scenario
    for attribute in filter(None, owner.split(".")):
        target = getattr(target, attribute)
    setattr(target, name, value)
    assert [str(d) for d in validate(scenario)] == [line]


def test_validate_refuses_a_workload_built_in_code():
    # Regression: validate passed this, and generate_trace then drew uniform
    # popularity and 3 references for every invocation.
    spec = WorkloadSpec(functions=(F1,), refs_per_invocation=(3, 1),
                        objects=ObjectSpec(count=5, popularity=PopularitySpec(kind="bogus")))
    assert [str(d) for d in validate(Scenario(workload=spec))] == [
        "error: workload.objects.popularity.kind: must be zipf or uniform",
        "error: workload.refs_per_invocation: needs 0 <= lo <= hi"]


def _mostly(valid, broken):
    """valid, or about one draw in ten broken."""
    return st.integers(0, 9).flatmap(lambda i: broken if i == 0 else valid)


_BROKEN_MS = st.one_of(st.floats(-5, 2000).filter(lambda v: not v.is_integer()), st.booleans(),
                       st.sampled_from([float("inf"), float("nan"), 10**12 + 1]))
_HORIZONS = _mostly(st.one_of(st.integers(-5, 2000), st.integers(0, 2000).map(float)),
                    _BROKEN_MS)
_INTERVALS = _mostly(st.integers(1, 2000), st.one_of(st.integers(-5, 0), _BROKEN_MS))
_RATES = _mostly(st.floats(0.1, 2000), st.one_of(st.floats(-1, 0), st.just(float("inf"))))
_WEIGHT = _mostly(st.one_of(st.floats(0.01, 5), st.just(1e308)),
                  st.one_of(st.floats(-1, 0), st.just(float("nan"))))
_WEIGHTS = _mostly(st.lists(_WEIGHT, min_size=1, max_size=3), st.just([]))


@st.composite
def _workload_specs(draw) -> WorkloadSpec:
    """Small workload specs, some of which break each rule of trace_problems."""
    functions = tuple(FunctionSpec(f"f{i}", flavor=128, compute_ms=10, weight=weight)
                      for i, weight in enumerate(draw(_WEIGHTS)))
    origins = tuple(OriginSpec(f"o{i}", weight) for i, weight in enumerate(draw(_WEIGHTS)))
    arrival = ArrivalSpec(kind=draw(_mostly(st.sampled_from(["fixed_interval", "poisson"]),
                                            st.just("burst"))),
                          rate_per_s=draw(_RATES), interval_ms=draw(_INTERVALS))
    popularity = PopularitySpec(kind=draw(st.sampled_from(["zipf", "uniform"])),
                                s=draw(_mostly(st.floats(0.01, 30), st.floats(-1, 0))))
    lo = draw(st.integers(0, 3))
    return WorkloadSpec(horizon_ms=draw(_HORIZONS), arrival=arrival, functions=functions,
                        objects=ObjectSpec(count=draw(st.integers(0, 5)), popularity=popularity),
                        origins=origins, refs_per_invocation=(lo, draw(st.integers(lo, 3))))


@settings(max_examples=200, deadline=None)
@given(spec=_workload_specs())
def test_generate_trace_runs_exactly_when_validate_finds_no_trace_problem(spec):
    problems = trace_problems(spec)
    try:
        _generate(spec)
    except ConfigError as exc:
        assert problems and str(exc) == "%s: %s" % problems[0]
    else:
        assert not problems
    errors = {(d.key, d.message) for d in validate(Scenario(workload=spec))
              if d.severity == "error"}
    assert set(problems) <= errors


def test_origin_replicas_that_do_not_fit_exit_2_naming_the_key(tmp_path, capsys):
    # Regression: validate passed this, and run exited 3 with a runtime failure.
    args = [str(DEMO_SCENARIOS / "minimal.yaml"), "workload.objects.count=100",
            "workload.objects.size=100"]
    assert main(["validate", *args]) == 0
    assert "warning: cluster.store_capacity: cannot hold the 100 origin replicas" in (
        capsys.readouterr().err)
    assert main(["run", *args, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("error: cluster.store_capacity: origin replica of obj-0010 does not fit on node 0"
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("rate, seeds", [("1e-320", None), ("2e-306", None), ("1e-305", "[11]")])
def test_poisson_rate_too_small_for_any_arrival_runs_an_empty_trace(tmp_path, capsys, rate,
                                                                     seeds):
    # Regression: a rate whose mean interarrival is inf raised
    # ZeroDivisionError, and an interarrival draw that overflowed to inf
    # raised OverflowError; both validated and then exited 1 with a traceback.
    args = ["run", str(DEMO_SCENARIOS / "minimal.yaml"), "--out-dir", str(tmp_path),
            "workload.arrival.kind=poisson", f"workload.arrival.rate_per_s={rate}"]
    assert main(args + ([f"seeds={seeds}"] if seeds else [])) == 0
    out = capsys.readouterr().out
    assert " 0 tasks," in out and "Traceback" not in out


def test_importing_the_package_does_not_load_yaml():
    # PyYAML is imported by the two functions that parse YAML text.
    code = ("import sys\n"
            "import dispatchsim, dispatchsim.cli\n"
            "assert dispatchsim.__file__.startswith(sys.argv[1]), dispatchsim.__file__\n"
            "print('yaml' in sys.modules)\n")
    child = run_child(code, SRC)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
