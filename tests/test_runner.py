"""End-to-end run mechanics on small scenarios."""

import pytest

from dispatchsim.config import parse_scenario
from dispatchsim.engine import Engine
from dispatchsim.metrics import COMPLETED
from dispatchsim.runner import (
    Simulation,
    build_cluster,
    compare_scenario,
    prepare_workload,
    run_one,
    run_scenario,
)
from dispatchsim.strategies import make_strategy
from dispatchsim.workload import Trace

from conftest import scenario_dict
from reference import phase_sum


def run_first(raw):
    scenario = parse_scenario(raw)
    return run_one(scenario, scenario.strategies[0], scenario.seeds[0])


def test_minimal_run_completes_all_tasks():
    result = run_first(scenario_dict())
    assert len(result.records) == 10
    assert all(r.status == COMPLETED for r in result.records)
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
    result = run_one(scenario, scenario.strategies[0], 1)
    assert sorted(r.invocation_id for r in result.records) == sorted(i.id for i in trace)


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
    result = run_first(raw)
    for r in result.records:
        assert r.timeline.actual_ms() == phase_sum(r.timeline)


def test_first_task_cold_second_task_warm_on_one_node():
    raw = scenario_dict(
        workload={"horizon_ms": 2000, "arrival": {"kind": "fixed_interval", "interval_ms": 1000}},
    )
    result = run_first(raw)
    first, second = result.records[0].timeline, result.records[1].timeline
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
    result = run_one(scenario, scenario.strategies[0], 1)
    waits = [r.timeline.queue_wait_ms for r in result.records]
    assert waits[0] == 0
    assert any(w > 0 for w in waits[1:])
    # strict FIFO: waiting tasks start in arrival order
    starts = [(r.timeline.started_at + r.timeline.dispatch_ms + r.timeline.queue_wait_ms)
              for r in result.records]
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
    result = run_first(raw)
    assert len(result.records) == 2
    assert all(r.status == COMPLETED for r in result.records)


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
    assert run_first(raw).row() == run_first(raw).row()


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
    plain = run_one(base, base.strategies[0], 1)
    stolen = run_one(stealing, stealing.strategies[0], 1)
    assert plain.steals == 0
    assert stolen.steals > 0
    assert stolen.makespan_ms < plain.makespan_ms
    assert (sorted(r.invocation_id for r in stolen.records)
            == sorted(r.invocation_id for r in plain.records))


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
    result = run_first(raw)
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
    row = run_first(raw).row()
    assert 0.0 <= row["efficiency"] <= 1.0
    assert 0.0 <= row["utilization"] <= 1.0
    assert 0.0 < row["mean_quality"] <= 1.0


def test_run_scenario_covers_all_seeds():
    scenario = parse_scenario(scenario_dict(seeds=[1, 2, 3]))
    results = run_scenario(scenario)
    assert [r.seed for r in results] == [1, 2, 3]


def test_compare_pairs_strategies_on_identical_traces():
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
    results, rows = compare_scenario(scenario)
    assert len(results) == 6
    assert len(rows) == 8  # 6 detail rows + 2 aggregates
    by_strategy = {}
    for r in results:
        by_strategy.setdefault(r.strategy, []).append(sorted(x.invocation_id for x in r.records))
    assert by_strategy["round_robin"] == by_strategy["data_aware"]
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

    def simulate(t):
        sim = Simulation(Engine(), build_cluster(scenario, catalog), make_strategy("round_robin"),
                         t, horizon_ms=scenario.workload.horizon_ms,
                         strategy_cfg=scenario.strategies[0], seed=1)
        sim.run()
        return sim

    assert isinstance(trace, Trace)
    in_order = simulate(trace)
    assert in_order.trace is trace  # no per-run copy
    reversed_run = simulate(trace[::-1])  # a list, latest arrival first
    assert isinstance(reversed_run.trace, Trace)
    assert list(reversed_run.trace) == list(trace)
    assert list(reversed_run.records) == list(in_order.records)
