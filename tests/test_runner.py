"""End-to-end run mechanics on small scenarios."""

from functools import reduce
from heapq import heappush
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.cluster import EXTERNAL_STORE, ClusterParams, FunctionSpec, NetworkModel
from dispatchsim.config import (
    ReplicationConfig, Scenario, StrategyConfig, apply_override, load_scenario, parse_scenario,
    validate,
)
from dispatchsim.engine import Engine
from dispatchsim.errors import ConfigError, SimulationError
from dispatchsim.runner import (
    Simulation,
    compare_scenario,
    prepare_workload,
    run_scenario,
)
from dispatchsim.strategies import STRATEGY_NAMES
from dispatchsim.workload import ArrivalSpec, ObjectSpec, PopularitySpec, Trace, WorkloadSpec

from conftest import scenario_dict
from reference import COMPLETED, invocations, phase_sum, run_with_records, simulate, trace_of

DEMO_SCENARIOS = sorted((Path(__file__).parent.parent / "demos" / "scenarios").glob("*.yaml"))
MINIMAL = Path(__file__).parent.parent / "demos" / "scenarios" / "minimal.yaml"
MIXED = Path(__file__).parent / "fixtures" / "mixed.yaml"


def run_first(raw):
    """(RunResult, its TaskRecords) of the scenario's first strategy and seed."""
    scenario = parse_scenario(raw)
    return run_with_records(scenario, scenario.strategies[0], scenario.seeds[0])


def test_minimal_run_completes_all_tasks():
    result, records = run_first(scenario_dict())
    assert len(records) == 10
    assert all(r.status == COMPLETED for r in records)
    row = result.row()
    assert row["tasks"] == 10 and row["failures"] == 0


def test_every_invocation_recorded_exactly_once():
    raw = scenario_dict(
        cluster={"nodes": 4, "mem_capacity": 512},
        workload={
            "horizon_ms": 3000,
            "arrival": {"kind": "poisson", "rate_per_s": 200},
            "objects": {"count": 10, "size": 20},
            "refs_per_invocation": [0, 2],
        },
        strategy={"name": "data_aware"},
    )
    scenario = parse_scenario(raw)
    _, trace = prepare_workload(scenario, 1)
    _, records = run_with_records(scenario, scenario.strategies[0], 1)
    assert sorted(r.invocation_id for r in records) == sorted(i.id for i in invocations(trace))


def test_phase_conservation_across_a_run():
    raw = scenario_dict(
        cluster={"nodes": 2, "mem_capacity": 256},
        workload={
            "horizon_ms": 2000,
            "arrival": {"kind": "poisson", "rate_per_s": 100},
            "objects": {"count": 5, "size": 30},
            "refs_per_invocation": [1, 2],
        },
    )
    _, records = run_first(raw)
    for r in records:
        assert r.timeline.actual_ms() == phase_sum(r.timeline)


def test_first_task_cold_second_task_warm_on_one_node():
    raw = scenario_dict(
        workload={"horizon_ms": 2000, "arrival": {"kind": "fixed_interval", "interval_ms": 1000}},
    )
    _, records = run_first(raw)
    first, second = records[0].timeline, records[1].timeline
    assert first.boot_ms == 100 and first.code_fetch_ms == 101
    assert second.boot_ms == 0 and second.code_fetch_ms == 0


def test_queue_wait_appears_when_memory_is_tight():
    # One 128MB slot; the second arrival must wait for the first completion.
    raw = scenario_dict(
        cluster={"mem_capacity": 128, "container_boot_ms": 0},
        workload={
            "horizon_ms": 100,
            "arrival": {"kind": "fixed_interval", "interval_ms": 10},
            "functions": [{"name": "f1", "code_size": 0, "flavor": 128, "compute_ms": 50}],
        },
        strategy={"name": "round_robin", "dispatch_latency_ms": 0},
    )
    scenario = parse_scenario(raw)
    _, records = run_with_records(scenario, scenario.strategies[0], 1)
    waits = [r.timeline.queue_wait_ms for r in records]
    assert waits[0] == 0
    assert any(w > 0 for w in waits[1:])
    # strict FIFO: waiting tasks start in arrival order
    starts = [(r.timeline.started_at + r.timeline.dispatch_ms + r.timeline.queue_wait_ms)
              for r in records]
    assert starts == sorted(starts)


def test_keep_alive_expiry_frees_memory_for_other_functions():
    raw = scenario_dict(
        cluster={"mem_capacity": 128, "keep_alive_ms": 100},
        workload={
            "horizon_ms": 3000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 1500},
            "functions": [
                {"name": "f1", "code_size": 0, "flavor": 128, "compute_ms": 50, "weight": 1},
                {"name": "f2", "code_size": 0, "flavor": 128, "compute_ms": 50, "weight": 1},
            ],
        },
    )
    _, records = run_first(raw)
    assert len(records) == 2
    assert all(r.status == COMPLETED for r in records)


def test_run_is_deterministic_per_seed():
    raw = scenario_dict(
        cluster={"nodes": 3},
        workload={
            "horizon_ms": 2000,
            "arrival": {"kind": "poisson", "rate_per_s": 150},
            "objects": {"count": 8, "size": 15},
            "refs_per_invocation": [0, 2],
        },
        strategy={"name": "proactive_cluster"},
    )
    assert run_first(raw)[0].row() == run_first(raw)[0].row()


def test_stealing_moves_work_off_a_hotspot():
    hot = {
        "cluster": {"nodes": 4, "mem_capacity": 128},
        "workload": {
            "horizon_ms": 1000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 5},
            "functions": [{"name": "f1", "code_size": 1, "flavor": 128, "compute_ms": 60}],
        },
    }
    base = parse_scenario(scenario_dict(strategy={"name": "hash_affinity"}, **hot))
    stealing = parse_scenario(scenario_dict(
        strategy={"name": "hash_affinity", "work_stealing": True}, **hot))
    plain, plain_records = run_with_records(base, base.strategies[0], 1)
    stolen, stolen_records = run_with_records(stealing, stealing.strategies[0], 1)
    assert plain.steals == 0
    assert stolen.steals > 0
    assert stolen.makespan_ms < plain.makespan_ms
    assert (sorted(r.invocation_id for r in stolen_records)
            == sorted(r.invocation_id for r in plain_records))


def test_replication_fires_for_hot_objects_under_proactive():
    # Few container slots force long queues, so demanded objects are still
    # unfetched on their target nodes when the replication pass runs.
    raw = scenario_dict(
        cluster={"nodes": 4, "mem_capacity": 256, "store_capacity": 2000},
        workload={
            "horizon_ms": 4000,
            "arrival": {"kind": "poisson", "rate_per_s": 100},
            "functions": [{"name": "f1", "code_size": 10, "flavor": 128, "compute_ms": 2000}],
            "objects": {"count": 10, "size": 50, "popularity": {"kind": "zipf", "s": 1.2}},
            "refs_per_invocation": [1, 2],
        },
        strategy={"name": "proactive_cluster"},
    )
    result, _ = run_first(raw)
    assert result.replications > 0
    assert result.row()["replications"] == result.replications
    # a placed replica precedes the demanding task's data fetch
    assert any(action.placed for _, action in result.replication_log)


def test_utilization_and_efficiency_stay_in_bounds():
    raw = scenario_dict(
        cluster={"nodes": 2, "mem_capacity": 256},
        workload={
            "horizon_ms": 2000,
            "arrival": {"kind": "poisson", "rate_per_s": 300},
            "objects": {"count": 4, "size": 40},
            "refs_per_invocation": [0, 1],
        },
    )
    row = run_first(raw)[0].row()
    assert 0.0 <= row["efficiency"] <= 1.0
    assert 0.0 <= row["utilization"] <= 1.0
    assert 0.0 < row["mean_quality"] <= 1.0


def test_run_scenario_covers_all_seeds():
    scenario = parse_scenario(scenario_dict(seeds=[1, 2, 3]))
    results = run_scenario(scenario)
    assert [r.seed for r in results] == [1, 2, 3]


def test_compare_pairs_strategies_on_identical_traces(monkeypatch):
    raw = scenario_dict(
        workload={
            "horizon_ms": 2000,
            "arrival": {"kind": "poisson", "rate_per_s": 50},
        },
        seeds=[1, 2, 3],
    )
    raw["strategies"] = [{"name": "round_robin"}, {"name": "data_aware"}]
    del raw["strategy"]
    scenario = parse_scenario(raw)
    traces = {}  # seed -> the traces run_one was given
    real_run_one = runner.run_one

    def spy(scenario, strategy_cfg, seed, catalog, trace, label):
        traces.setdefault(seed, set()).add(id(trace))
        return real_run_one(scenario, strategy_cfg, seed, catalog, trace, label)

    monkeypatch.setattr(runner, "run_one", spy)
    results, rows = compare_scenario(scenario)
    assert len(results) == 6
    assert len(rows) == 8  # 6 detail rows + 2 aggregates
    assert sorted(traces) == [1, 2, 3]
    assert all(len(ids) == 1 for ids in traces.values())  # one trace per seed
    mean_rows = [row for row in rows if row["seed"] == "mean"]
    assert {row["strategy"] for row in mean_rows} == {"round_robin", "data_aware"}


def test_compare_no_data_workload_differs_only_by_dispatch_latency():
    # On one node with no data references, placements coincide, so the mean
    # actual time differs by exactly the dispatch latency gap (2ms vs 1ms).
    raw = scenario_dict(
        workload={"horizon_ms": 3000, "arrival": {"kind": "fixed_interval", "interval_ms": 300}},
    )
    raw["strategies"] = [{"name": "round_robin"}, {"name": "data_aware"}]
    del raw["strategy"]
    _, rows = compare_scenario(parse_scenario(raw))
    means = {row["strategy"]: row["mean_actual_ms"] for row in rows if row["seed"] == "mean"}
    assert means["data_aware"] - means["round_robin"] == pytest.approx(1.0)


def test_sorted_trace_is_used_as_given_and_unsorted_one_is_sorted():
    scenario = parse_scenario(scenario_dict(cluster={"nodes": 2}))
    catalog, trace = prepare_workload(scenario, 1)

    def run_on(t):
        completions = []
        sim = Simulation(scenario, scenario.strategies[0], 1, catalog, t,
                         on_complete=lambda *completion: completions.append(completion))
        sim.run()
        return sim, completions

    assert isinstance(trace, Trace)
    in_order, in_order_completions = run_on(trace)
    assert in_order.trace is trace  # no per-run copy
    # Built from its invocations latest arrival first, as load_trace builds a
    # trace from its file: the builder sorts it.
    reversed_run, reversed_completions = run_on(trace_of(invocations(trace)[::-1]))
    assert invocations(reversed_run.trace) == invocations(trace)
    assert reversed_completions == in_order_completions


def test_completion_check_refuses_a_finish_other_than_the_phase_sum():
    scenario = parse_scenario(scenario_dict())
    catalog, trace = prepare_workload(scenario, 1)
    sim = Simulation(scenario, scenario.strategies[0], 1, catalog, trace)
    engine, complete = sim.engine, sim._complete

    def late(*args):  # every completion one millisecond after its phases end
        engine.now += 1
        complete(*args)

    sim._complete = late
    # The first completion is inv-000001's: it starts while inv-000000 is
    # still fetching f1's code, finds that code cached, and finishes first.
    with pytest.raises(SimulationError, match="phase accounting broken for inv-000001"):
        sim.run()


REFUSED = [  # (override, validate's message for its key)
    ("workload.objects.popularity.kind=bogus", "must be zipf or uniform"),
    ("workload.refs_per_invocation=[3, 1]", "needs 0 <= lo <= hi"),
    ("cluster.network.latency_ms=-3", "must be non-negative"),
    ("workload.functions.0.compute_ms=0", "must be at least 1 ms"),
    ("strategy.replication.decay=5", "must be in (0, 1]"),
    ("cluster.keep_alive_ms=-5", "must be non-negative"),
    ("cluster.store_capacity=-1", "must be non-negative"),
    ("workload.functions.0.weight=0", "must be positive"),
]


@pytest.mark.parametrize("override, message", REFUSED, ids=[o for o, _ in REFUSED])
def test_library_path_refuses_what_validate_refuses(override, message):
    # parse_scenario then run_one, with no validate: the first five used to
    # run, the next two failed mid-run and the last named no key.
    raw = scenario_dict(cluster={"nodes": 2}, strategy={"name": "data_aware"})
    apply_override(raw, override)
    scenario = parse_scenario(raw)
    key = override.partition("=")[0]
    with pytest.raises(ConfigError) as excinfo:
        runner.run_one(scenario, scenario.strategies[0], 1)
    assert str(excinfo.value) == f"{key}: {message}"


TICKS_AT_0_MS = [
    ("strategy.steal_poll_ms", StrategyConfig(work_stealing=True, steal_poll_ms=0)),
    ("strategy.replication.period_ms",
     StrategyConfig("proactive_cluster", replication=ReplicationConfig(period_ms=0))),
]


@pytest.mark.parametrize("key, strategy_cfg", TICKS_AT_0_MS, ids=[k for k, _ in TICKS_AT_0_MS])
def test_a_tick_period_under_1ms_is_refused_before_the_run(monkeypatch, key, strategy_cfg):
    # Built in code, these pass validate; their runs used to re-arm the tick
    # at t = 0 forever. The engine failing on entry keeps a regression finite.
    monkeypatch.setattr(Engine, "run", lambda self: pytest.fail("the run started"))
    with pytest.raises(ConfigError) as excinfo:
        runner.run_one(parse_scenario(scenario_dict()), strategy_cfg, 1)
    assert str(excinfo.value) == f"{key}: must be at least 1 ms"


BUILT_IN_CODE = [  # (strategy_cfg, the ConfigError's text)
    (StrategyConfig(dispatch_latency_ms=-5), "strategy.dispatch_latency_ms: must be non-negative"),
    (StrategyConfig("proactive_cluster", replication=ReplicationConfig(threshold=-1.0)),
     "strategy.replication.threshold: must be positive"),
]


@pytest.mark.parametrize("strategy_cfg, line", BUILT_IN_CODE, ids=[l for _, l in BUILT_IN_CODE])
def test_a_strategy_cfg_built_in_code_is_refused_naming_its_key(monkeypatch, strategy_cfg, line):
    # Regression: a negative latency raised SchedulingInPastError mid-run,
    # and a negative threshold ran with no diagnostic.
    monkeypatch.setattr(Engine, "run", lambda self: pytest.fail("the run started"))
    with pytest.raises(ConfigError) as excinfo:
        runner.run_one(parse_scenario(scenario_dict()), strategy_cfg, 1)
    assert str(excinfo.value) == line


def test_a_strategy_with_a_negative_latency_is_refused_before_the_run():
    # Offers are pushed unchecked at the arrival plus the latency, so a
    # latency of -5 would fire an offer behind the clock; one built into the
    # strategy apart from its block raised SchedulingInPastError so.
    scenario = parse_scenario(scenario_dict())
    catalog, trace = prepare_workload(scenario, 1)
    with pytest.raises(ConfigError) as excinfo:
        Simulation(scenario, StrategyConfig(dispatch_latency_ms=-5), 1, catalog, trace)
    assert str(excinfo.value) == "strategy.dispatch_latency_ms: must be non-negative"


def test_a_cluster_with_a_negative_keep_alive_is_refused_before_the_run():
    # Keep-alive timers are pushed unchecked at the release's expiry key, so
    # a keep-alive of -5 would fire a timer behind the clock; schedule raised
    # SchedulingInPastError for it when it checked them.
    scenario = parse_scenario(scenario_dict())
    catalog, trace = prepare_workload(scenario, 1)
    scenario.cluster.keep_alive_ms = -5
    with pytest.raises(ConfigError) as excinfo:
        Simulation(scenario, scenario.strategies[0], 1, catalog, trace)
    assert str(excinfo.value) == "cluster.keep_alive_ms: must be non-negative"


def test_a_trace_without_its_catalog_is_refused():
    # Regression: given one of the two, run_one prepared both afresh and ran
    # the seed's own trace, 10 tasks here, in place of the empty one.
    scenario = load_scenario(MINIMAL)
    catalog, _ = prepare_workload(scenario, 1)
    empty = trace_of([])
    assert runner.run_one(scenario, scenario.strategies[0], 1, catalog, empty).tasks == 0
    for given in ({"trace": empty}, {"catalog": catalog}):
        with pytest.raises(TypeError, match="together"):
            runner.run_one(scenario, scenario.strategies[0], 1, **given)


def _drain_cases():
    for path in DEMO_SCENARIOS + [MIXED]:
        scenario = load_scenario(path)
        for cfg in scenario.strategies:
            for seed in scenario.seeds[:2]:
                yield pytest.param(scenario, cfg, seed, id=f"{path.stem}-{cfg.label}-{seed}")


@pytest.mark.parametrize("scenario, strategy_cfg, seed", _drain_cases())
def test_every_run_ends_drained(scenario, strategy_cfg, seed):
    # The run's last keep-alive timers expire every idle container, so the
    # cluster ends empty; check_invariants then sees only empty pools.
    sim = simulate(Simulation, scenario, strategy_cfg, seed)[0]
    for node in sim.cluster.nodes:
        assert node.mem_used == node.busy_count == len(node.run_queue) == 0, node.id
        assert not any(node.warm_pool.values()), node.id


CLUSTER_CHANGES = [  # (ClusterParams attribute, value, the ConfigError's text)
    ("keep_alive_ms", -5, "cluster.keep_alive_ms: must be non-negative"),
    ("nodes", 0, "cluster.nodes: needs at least one node"),
    ("code_store", 5, "cluster.code_store: must be external or a node id below cluster.nodes"),
    ("result_store", 1,
     "cluster.result_store: must be external or a node id below cluster.nodes"),
]


@pytest.mark.parametrize("attribute, value, line", CLUSTER_CHANGES,
                         ids=[f"{a}={v}" for a, v, _ in CLUSTER_CHANGES])
def test_a_cluster_changed_after_preparing_the_workload_is_refused_naming_its_key(
        monkeypatch, attribute, value, line):
    # Regression: run_one given a prepared catalog and trace checked nothing
    # of the cluster; a keep-alive of -5 raised SchedulingInPastError mid-run
    # and no nodes raised SimulationError. It then checked only the table's
    # rules, so a store naming no node ran as if the store were external.
    scenario = load_scenario(MINIMAL)
    catalog, trace = prepare_workload(scenario, 1)
    setattr(scenario.cluster, attribute, value)
    monkeypatch.setattr(Engine, "run", lambda self: pytest.fail("the run started"))
    with pytest.raises(ConfigError) as excinfo:
        runner.run_one(scenario, scenario.strategies[0], 1, catalog, trace)
    assert str(excinfo.value) == line


EVENT_CAP = 200_000


def capped_engine():
    """An engine that fails past EVENT_CAP fired events, so that a run that
    would never end fails the test instead of stalling it. Its log counts
    what it is given, so it sees every event, whichever way it entered."""
    return Engine(log=CappedLog())


class CappedLog(list):
    """An engine log that keeps no entry: it counts them, and fails past
    EVENT_CAP."""

    fired = 0

    def append(self, entry):
        self.fired += 1
        if self.fired > EVENT_CAP:
            pytest.fail(f"the run fired more than {EVENT_CAP} events")


def test_the_hang_guard_counts_pushed_events():
    # A handler that pushes itself at the clock, as the runner pushes its
    # offers, completions and keep-alive timers, never ends the run.
    engine = capped_engine()

    def again():
        seq = engine._seq
        engine._seq = seq + 1
        heappush(engine._heap, (engine.now, seq, again, ()))

    engine.schedule(0, again)
    with pytest.raises(pytest.fail.Exception, match="more than"):
        engine.run()
    assert engine.log.fired == EVENT_CAP + 1


# (record, attribute, a value that breaks a rule): record is "cluster",
# "workload", "strategy" (the strategy block that runs) or a dotted path
# below them, or "function" (the first function's spec).
BREAKS = [
    ("cluster", "nodes", 0), ("cluster", "mem_capacity", 0), ("cluster", "store_capacity", -1.0),
    ("cluster", "flavors", ()), ("cluster", "flavors", (0, 128)),
    ("cluster.network", "latency_ms", -1), ("cluster.network", "bandwidth_mb_per_s", 0.0),
    ("cluster", "container_boot_ms", -1), ("cluster", "keep_alive_ms", -5),
    ("cluster", "billing_granularity_ms", 0), ("cluster", "max_execution_ms", 0),
    ("cluster", "code_store", 5), ("cluster", "result_store", -1),
    ("workload", "horizon_ms", 0), ("workload.arrival", "kind", "burst"),
    ("workload.arrival", "interval_ms", 0), ("workload", "functions", ()),
    ("workload.objects", "count", -1), ("workload.objects", "size", 0.0),
    ("workload.objects", "size", (0.2, 0.7)), ("workload.objects", "size", (1.5, 2.5)),
    ("workload.objects", "size", (9, 3)), ("workload.objects.popularity", "kind", "bogus"),
    ("workload", "refs_per_invocation", (3, 1)), ("workload", "refs_per_invocation", (-1, 0)),
    ("function", "compute_ms", 0), ("function", "code_size", -1.0),
    ("function", "write_back", -1.0), ("strategy", "name", "bogus"),
    ("strategy", "steal_poll_ms", 0), ("strategy", "dispatch_latency_ms", -5),
    ("strategy.replication", "period_ms", 0), ("strategy.replication", "threshold", -1.0),
    ("strategy.replication", "decay", 1.5),
]


@st.composite
def _scenarios(draw) -> tuple[Scenario, StrategyConfig]:
    """A small scenario built in code, of at most 100 invocations, and a
    strategy block to run it under, with up to two values of BREAKS."""
    cluster = ClusterParams(
        nodes=draw(st.integers(1, 3)), mem_capacity=draw(st.sampled_from([256, 1024])),
        store_capacity=draw(st.floats(50, 2000)),
        network=NetworkModel(draw(st.integers(0, 5)), draw(st.floats(50, 500))),
        container_boot_ms=draw(st.integers(0, 50)), keep_alive_ms=draw(st.integers(0, 500)),
        billing_granularity_ms=draw(st.integers(1, 100)),
        max_execution_ms=draw(st.integers(50, 2000)),
        code_store=draw(st.sampled_from([EXTERNAL_STORE, 0])),
        result_store=draw(st.sampled_from([EXTERNAL_STORE, 0])))
    functions = tuple(FunctionSpec(f"f{i}", draw(st.floats(0, 20)),
                                   draw(st.sampled_from([128, 256])), draw(st.integers(1, 50)),
                                   draw(st.floats(0, 5)), draw(st.floats(0.1, 5)))
                      for i in range(draw(st.integers(1, 2))))
    lo = draw(st.integers(0, 2))
    workload = WorkloadSpec(
        horizon_ms=draw(st.integers(1, 500)),
        arrival=ArrivalSpec(draw(st.sampled_from(["fixed_interval", "poisson"])),
                            draw(st.floats(1, 200)), draw(st.integers(5, 50))),
        functions=functions,
        objects=ObjectSpec(draw(st.integers(0, 6)),
                           draw(st.floats(1, 20) | st.tuples(st.integers(1, 5),
                                                             st.integers(5, 20).map(float))),
                           PopularitySpec(draw(st.sampled_from(["zipf", "uniform"])),
                                          draw(st.floats(0.5, 2)))),
        refs_per_invocation=(lo, draw(st.integers(lo, 3))))
    strategy_cfg = StrategyConfig(
        draw(st.sampled_from(STRATEGY_NAMES)), work_stealing=draw(st.booleans()),
        steal_poll_ms=draw(st.integers(5, 20)),
        dispatch_latency_ms=draw(st.none() | st.integers(0, 5)),
        replication=ReplicationConfig(draw(st.integers(5, 200)), draw(st.floats(0.5, 20)),
                                      draw(st.floats(0.1, 1))))
    records = {"cluster": cluster, "workload": workload, "function": functions[0],
               "strategy": strategy_cfg}
    for path, attribute, value in draw(st.lists(st.sampled_from(BREAKS), max_size=2)):
        owner, *rest = path.split(".")
        setattr(reduce(getattr, rest, records[owner]), attribute, value)
    return Scenario(cluster, workload, [strategy_cfg]), strategy_cfg


def _bogus_name_beside_a_store_warning() -> tuple[Scenario, StrategyConfig]:
    """validate refuses strategy.name and warns that node 0 cannot hold its
    six origin replicas; the run refuses cluster.store_capacity first."""
    strategy_cfg = StrategyConfig("bogus")
    workload = WorkloadSpec(functions=(FunctionSpec("f0"),), objects=ObjectSpec(6, 20.0),
                            refs_per_invocation=(1, 1))
    return Scenario(ClusterParams(store_capacity=50.0), workload, [strategy_cfg]), strategy_cfg


@settings(max_examples=150, deadline=None)
@given(drawn=_scenarios())
@example(drawn=_bogus_name_beside_a_store_warning())
def test_a_scenario_built_in_code_is_refused_naming_a_key_or_runs_to_the_end(drawn):
    # validate checks the records, whoever built them; the run checks its
    # strategy block itself, so it takes one validate has not seen here.
    scenario, strategy_cfg = drawn
    diags = validate(scenario)
    errors = {d.key for d in diags if d.severity == "error"}
    warnings = {d.key for d in diags if d.severity == "warning"}
    scenario.strategies = [StrategyConfig()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Engine", capped_engine)
        try:
            catalog, trace = prepare_workload(scenario, 1)
            result = runner.run_one(scenario, strategy_cfg, 1, catalog, trace)
        except ConfigError as exc:
            # an origin replica that does not fit is only a warning in validate
            key = str(exc).partition(": ")[0]
            assert key in errors or key == "cluster.store_capacity" and key in warnings
        else:
            assert not errors
            assert result.tasks == len(trace)
