"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import resource
import time
from collections import Counter

import pytest
import yaml

from dispatchsim.cli import main
from dispatchsim.cluster import PhaseTimeline
from dispatchsim.config import parse_scenario
from dispatchsim.metrics import COMPLETED, billed_gb_seconds, quality
from dispatchsim.runner import compare_scenario, prepare_workload, run_one

from conftest import scenario_dict
from reference import cluster_key, phase_sum


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# The data-intensive comparison scenario: 8 nodes, skewed references over
# 50 objects with one initial replica each, ~2000 Poisson arrivals.
DATA_INTENSIVE = {
    "cluster": {
        "nodes": 8,
        "mem_capacity": 4096,
        "store_capacity": 4000,
    },
    "workload": {
        "horizon_ms": 20_000,
        "arrival": {"kind": "poisson", "rate_per_s": 100},
        "functions": [
            {"name": "f1", "code_size": 10, "flavor": 128, "compute_ms": 50},
        ],
        "objects": {"count": 50, "size": 100, "popularity": {"kind": "zipf", "s": 1.1}},
        "refs_per_invocation": [1, 3],
    },
    "seeds": [1, 2, 3, 4, 5],
}


def test_criterion_1_determinism_and_replay(tmp_path):
    cfg = tmp_path / "minimal.yaml"
    cfg.write_text(yaml.safe_dump(scenario_dict()))
    started = time.perf_counter()
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    first_run_s = time.perf_counter() - started
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    identical = ((tmp_path / "a" / "report.csv").read_bytes()
                 == (tmp_path / "b" / "report.csv").read_bytes())
    report(1, "determinism/replay", identical and first_run_s < 1.0)


def test_criterion_2_phase_conservation_at_10k():
    raw = scenario_dict(
        cluster={"nodes": 8, "mem_capacity": 2048, "store_capacity": 1500},
        workload={
            "horizon_ms": 20_000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 2},  # 10,000 events
            "functions": [
                {"name": "etl", "code_size": 10, "flavor": 128, "compute_ms": 30,
                 "write_back": 5, "weight": 3},
                {"name": "crunch", "code_size": 25, "flavor": 256, "compute_ms": 80,
                 "weight": 1},
            ],
            "objects": {"count": 30, "size": 20, "popularity": {"kind": "zipf", "s": 1.1}},
            "refs_per_invocation": [0, 2],
        },
        strategy={"name": "data_aware"},
    )
    scenario = parse_scenario(raw)
    result = run_one(scenario, scenario.strategies[0], 1)
    ok = (len(result.records) == 10_000
          and all(r.timeline.actual_ms() == phase_sum(r.timeline)
                  for r in result.records))
    report(2, "phase conservation (10k tasks, zero tolerance)", ok)


def test_criterion_3_round_robin_exact_balance():
    raw = scenario_dict(
        cluster={"nodes": 4, "mem_capacity": 1 << 20, "store_capacity": 1 << 20},
        workload={
            "horizon_ms": 4000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 1},  # 4,000 events
            "functions": [{"name": "f1", "code_size": 1, "flavor": 64, "compute_ms": 5}],
        },
    )
    scenario = parse_scenario(raw)
    result = run_one(scenario, scenario.strategies[0], 1)
    assert result.steals == 0  # so each record's node is where it was dispatched
    report(3, "round-robin balance (exactly 1000 per node)",
           Counter(r.node for r in result.records) == {0: 1000, 1: 1000, 2: 1000, 3: 1000})


def overhead_free_scenario():
    # Containers boot for free and code is weightless, so even the first
    # execution matches the zero-overhead ideal: the all-warm-all-local case.
    return parse_scenario(scenario_dict(
        cluster={"container_boot_ms": 0},
        workload={
            "horizon_ms": 2000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 200},
            "functions": [{"name": "f1", "code_size": 0, "flavor": 128, "compute_ms": 80}],
        },
        strategy={"name": "round_robin", "dispatch_latency_ms": 0},
    ))


def test_criterion_4_quality_and_efficiency_bounds():
    rows = []
    per_task_ok = True
    for raw in (
        scenario_dict(),
        scenario_dict(cluster=dict(DATA_INTENSIVE["cluster"]),
                      workload=dict(DATA_INTENSIVE["workload"]),
                      strategy={"name": "data_aware"}),
        scenario_dict(cluster=dict(DATA_INTENSIVE["cluster"]),
                      workload=dict(DATA_INTENSIVE["workload"]),
                      strategy={"name": "proactive_cluster", "work_stealing": True}),
    ):
        scenario = parse_scenario(raw)
        result = run_one(scenario, scenario.strategies[0], 1)
        rows.append(result.row())
        per_task_ok &= all(0.0 < quality(r) <= 1.0
                           for r in result.records if r.status == COMPLETED)
    warm_local = run_one(overhead_free_scenario(),
                         overhead_free_scenario().strategies[0], 1)
    warm_row = warm_local.row()
    exact_one = (warm_row["mean_quality"] == 1.0
                 and all(quality(r) == 1.0 for r in warm_local.records))
    bounds_ok = all(0.0 <= row["efficiency"] <= 1.0
                    and 0.0 <= row["utilization"] <= 1.0
                    for row in rows + [warm_row])
    report(4, "quality/efficiency bounds", per_task_ok and exact_one and bounds_ok)


def test_criterion_5_warm_reuse_and_visible_cold_start():
    # Pick a function name that hash-routes to node 1 so the only object's
    # origin (node 0) is remote on first execution.
    from dispatchsim.strategies import stable_hash
    name = next(n for n in ("f1", "f2", "f3", "g1") if stable_hash(n) % 2 == 1)
    raw = scenario_dict(
        cluster={"nodes": 2},
        workload={
            "horizon_ms": 8000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 3000},  # two arrivals
            "functions": [{"name": name, "code_size": 10, "flavor": 128, "compute_ms": 50}],
            "objects": {"count": 1, "size": 20},
            "refs_per_invocation": 1,
        },
        strategy={"name": "hash_affinity"},
    )
    scenario = parse_scenario(raw)
    result = run_one(scenario, scenario.strategies[0], 1)
    first, second = (r.timeline for r in sorted(result.records,
                                                key=lambda r: r.timeline.started_at)[:2])
    ok = (first.boot_ms == 100                      # cold-start constant, visible
          and first.code_fetch_ms == 101
          and first.data_fetch_ms == 201
          and second.boot_ms == 0
          and second.code_fetch_ms == 0
          and second.data_fetch_ms == 0)            # refs were cached
    report(5, "warm reuse within keep-alive", ok)


def test_criterion_6_billing_oracle():
    def active(ms):
        return PhaseTimeline(compute_ms=ms, started_at=0, finished_at=ms)

    ok = (billed_gb_seconds(active(130), 128) == 0.025
          and billed_gb_seconds(active(482), 128) == 0.0625
          and billed_gb_seconds(active(100), 128) == 0.0125)
    report(6, "billing oracle (exact GB-seconds)", ok)


def test_criterion_7_data_aware_beats_round_robin():
    raw = scenario_dict(**DATA_INTENSIVE)
    raw["strategies"] = [{"name": "round_robin"}, {"name": "data_aware"}]
    del raw["strategy"]
    scenario = parse_scenario(raw)
    started = time.perf_counter()
    _, rows = compare_scenario(scenario)
    elapsed = time.perf_counter() - started
    per_seed = {}
    for row in rows:
        if row["seed"] != "mean":
            per_seed.setdefault(row["seed"], {})[row["strategy"]] = row["mean_actual_ms"]
    ratios = {seed: pair["data_aware"] / pair["round_robin"]
              for seed, pair in per_seed.items()}
    print(f"  data_aware/round_robin mean actual ratios: "
          f"{ {s: round(r, 3) for s, r in ratios.items()} }, runtime {elapsed:.2f}s")
    report(7, "data-aware benefit (<= 0.8x on every seed, < 10s)",
           all(r <= 0.8 for r in ratios.values()) and elapsed < 10.0)


def test_criterion_8_proactive_stickiness_and_replication():
    raw = scenario_dict(
        cluster=dict(DATA_INTENSIVE["cluster"]),
        workload=dict(DATA_INTENSIVE["workload"]),
        strategy={"name": "proactive_cluster"},
        seeds=[1],
    )
    scenario = parse_scenario(raw)
    _, trace = prepare_workload(scenario, 1)
    result = run_one(scenario, scenario.strategies[0], 1)
    refs_by_id = {inv.id: inv for inv in trace}
    key_nodes = {}
    sticky = True
    for record in result.records:
        key = cluster_key(refs_by_id[record.invocation_id])
        sticky &= key_nodes.setdefault(key, record.node) == record.node
    early_replication = any(at <= 5000 and action.placed
                            for at, action in result.replication_log)
    print(f"  distinct keys: {len(key_nodes)}, replications: {result.replications}, "
          f"first actions: {[(at, a.object_id, a.node) for at, a in result.replication_log[:3]]}")
    report(8, "proactive stickiness + replication within 5s",
           sticky and early_replication)


def test_criterion_9_stealing_conserves_work_and_cuts_makespan():
    hot = {
        "cluster": {"nodes": 4, "mem_capacity": 128},
        "workload": {
            "horizon_ms": 2000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 4},  # 500 events
            "functions": [{"name": "f1", "code_size": 1, "flavor": 128, "compute_ms": 60}],
        },
    }
    base = parse_scenario(scenario_dict(strategy={"name": "hash_affinity"}, **hot))
    steal = parse_scenario(scenario_dict(
        strategy={"name": "hash_affinity", "work_stealing": True}, **hot))
    plain = run_one(base, base.strategies[0], 1)
    stolen = run_one(steal, steal.strategies[0], 1)
    conserved = (sorted(r.invocation_id for r in stolen.records)
                 == sorted(r.invocation_id for r in plain.records))
    print(f"  makespan with stealing {stolen.makespan_ms}ms vs without "
          f"{plain.makespan_ms}ms, {stolen.steals} tasks stolen")
    report(9, "stealing conservation + makespan win",
           conserved and stolen.steals > 0
           and stolen.makespan_ms < plain.makespan_ms)


@pytest.mark.parametrize("strategy", ["round_robin", "least_loaded", "hash_affinity",
                                      "mcgrath_queues", "data_aware", "proactive_cluster"])
def test_criterion_10_scale_100k_invocations_64_nodes(strategy):
    raw = scenario_dict(
        cluster={"nodes": 64, "mem_capacity": 4096, "store_capacity": 4000},
        workload={
            "horizon_ms": 100_000,
            "arrival": {"kind": "fixed_interval", "interval_ms": 1},  # 100,000 events
            "functions": [{"name": "f1", "code_size": 5, "flavor": 128, "compute_ms": 20}],
            "objects": {"count": 64, "size": 10, "popularity": {"kind": "uniform"}},
            "refs_per_invocation": 1,
        },
        strategy={"name": strategy},
    )
    scenario = parse_scenario(raw)
    started = time.perf_counter()
    result = run_one(scenario, scenario.strategies[0], 1)
    elapsed = time.perf_counter() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)
    print(f"  {len(result.records)} tasks in {elapsed:.2f}s, peak rss {peak_gb:.2f}GB")
    report(10, f"scale (100k invocations, 64 nodes, <10s, <1GB), {strategy}",
           len(result.records) == 100_000 and elapsed < 10.0 and peak_gb < 1.0)
