"""Configuration parsing, validation diagnostics and the CLI surface."""

import contextlib
import io
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from dispatchsim import cli, runner
from dispatchsim.cli import main
from dispatchsim.config import FIELDS, apply_override, load_scenario, parse_scenario, validate
from dispatchsim.errors import ConfigError
from dispatchsim.strategies import make_strategy

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
    assert scenario.workload.functions[0][0].compute_ms == 75
    assert scenario.seeds == [4, 5]


def test_override_requires_key_value_shape():
    with pytest.raises(ConfigError):
        apply_override(scenario_dict(), "cluster.nodes")


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
    # and validate printed "configuration valid".
    cfg = write_config(tmp_path, scenario_dict())
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
    keys = {d.key for d in validate(parse_scenario(raw)) if d.severity == "error"}
    assert keys == {"strategy"}


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
