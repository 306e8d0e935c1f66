"""Columnar run records against the per-invocation objects they replace.

A run asked to keep its task records keeps them as columns (RecordStore),
and the reference summarize_run reads the columns, run totals included.
The reference here is the object-based path: a Simulation that appends one
TaskRecord per completion and keeps the run totals as separate bookkeeping,
and the summary that walks those objects. Rows and every record must be
identical, bit for bit, and so must the row the run's account gives.
"""

import statistics
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import metrics, runner
from dispatchsim.cluster import PhaseTimeline
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.errors import SimulationError
from dispatchsim.metrics import (
    COMPLETED,
    FAILED,
    RecordStore,
    TaskRecord,
    billed_gb_seconds,
    efficiency,
    percentile_nearest_rank,
    quality,
    utilization,
)
from dispatchsim.workload import Trace

from conftest import scenario_dict
from reference import (
    billed_total, phase_sum, reference_makespan_ms, store_from_records, summarize_run,
)
from test_acceptance import DATA_INTENSIVE

DEMO_SCENARIOS = sorted((Path(__file__).parent.parent / "demos" / "scenarios").glob("*.yaml"))

# ---- object-based references ----------------------------------------------------


def reference_summarize_run(strategy, seed, records, compute_ms_total, busy_ms_total,
                            occupied_ms_total, node_count, elapsed_ms, replications, steals):
    """The summary over a list of TaskRecord objects that summarize_run replaced."""
    completed = [r for r in records if r.status == COMPLETED]
    actuals = sorted(r.timeline.actual_ms() for r in completed)
    return {
        "strategy": strategy,
        "seed": seed,
        "tasks": len(records),
        "failures": len(records) - len(completed),
        "mean_actual_ms": statistics.fmean(actuals) if actuals else 0.0,
        "median_actual_ms": float(statistics.median(actuals)) if actuals else 0.0,
        "p95_actual_ms": float(percentile_nearest_rank(actuals, 0.95)),
        "mean_quality": statistics.fmean(quality(r) for r in completed) if completed else 0.0,
        "efficiency": efficiency(compute_ms_total, busy_ms_total),
        "utilization": utilization(occupied_ms_total, node_count, elapsed_ms),
        "gb_seconds": billed_total(r.billed_gb_s for r in completed),
        "invocations_billed": len(completed),
        "dispatch_ms_total": sum(r.timeline.dispatch_ms for r in records),
        "queue_ms_total": sum(r.timeline.queue_wait_ms for r in records),
        "boot_ms_total": sum(r.timeline.boot_ms for r in records),
        "code_fetch_ms_total": sum(r.timeline.code_fetch_ms for r in records),
        "data_fetch_ms_total": sum(r.timeline.data_fetch_ms for r in records),
        "compute_ms_total": sum(r.timeline.compute_ms for r in records),
        "write_back_ms_total": sum(r.timeline.write_back_ms for r in records),
        "replications": replications,
        "steals": steals,
    }


@dataclass
class ReferenceResult:
    strategy: str
    seed: int
    records: list
    # compute, busy and occupied ms, node count, elapsed ms, replications, steals
    totals: tuple


class ReferenceSimulation(runner.Simulation):
    """Simulation that keeps one TaskRecord object per completion, and the
    run totals as separate bookkeeping: per-node compute and busy time added
    at each start, the last completion, and a count of placed replicas."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.task_records = []
        self.compute_ms = [0] * len(self.cluster.node_ids)
        self.busy_ms = [0] * len(self.cluster.node_ids)
        self.last_completion = 0
        self.replications = 0
        simulate = self.cluster.simulate_invocation

        def start(function, data_refs, node_id, cold):
            phases, failed = simulate(function, data_refs, node_id, cold)
            boot, code_fetch, data_fetch, compute, write_back = phases
            # busy from the start of execution to the finish
            self.busy_ms[node_id] += boot + code_fetch + data_fetch + compute + write_back
            self.compute_ms[node_id] += compute
            return phases, failed

        self.cluster.simulate_invocation = start

    def _complete(self, index, container, phases, billed, failed):
        # The runner's billed GB-s is ignored: billed_gb_seconds recomputes it.
        # The runner's own completion then releases, drains and counts.
        inv = self.trace[index]
        now = self.engine.now()
        timeline = PhaseTimeline(*phases, started_at=inv.arrival, finished_at=now)
        if timeline.actual_ms() != phase_sum(timeline):
            raise SimulationError(f"phase accounting broken for {inv.id}")
        spec = self.cluster.functions[inv.function]
        self.task_records.append(TaskRecord(
            invocation_id=inv.id,
            function=inv.function,
            node=container.node,
            timeline=timeline,
            ideal_ms=spec.compute_ms,
            billed_gb_s=(
                billed_gb_seconds(timeline, spec.flavor,
                                  self.cluster.params.billing_granularity_ms)
                if not failed else 0.0
            ),
            status=FAILED if failed else COMPLETED,
        ))
        self.last_completion = max(self.last_completion, timeline.finished_at)
        super()._complete(index, container, phases, billed, failed)

    def _replication_tick(self):
        actions = runner.replication_tick(
            self.strategy.counters, self.cluster, self.cfg.replication_threshold
        )
        for action in actions:
            self.replication_log.append((self.engine.now(), action))
            if action.placed:
                self.replications += 1
        if self._work_remaining():
            self.engine.schedule(self.engine.now() + self.cfg.replication_period_ms,
                                 self._replication_tick, "replication-tick")

    def result(self, strategy_label, seed):
        nodes = self.cluster.nodes.values()
        return ReferenceResult(strategy_label, seed, self.task_records, (
            sum(self.compute_ms), sum(self.busy_ms), sum(n.occupied_ms_accum for n in nodes),
            len(nodes), max(self.horizon_ms, self.last_completion), self.replications,
            self.steals,
        ))


def reference_row(result):
    return reference_summarize_run(result.strategy, result.seed, result.records, *result.totals)


# ---- whole runs -----------------------------------------------------------------------


def _whole_run_cases():
    for path in DEMO_SCENARIOS:
        scenario = load_scenario(path)
        for cfg in scenario.strategies:
            for seed in scenario.seeds:
                yield pytest.param(scenario, cfg, seed, id=f"{path.stem}-{cfg.label}-{seed}")
    strategies = [{"name": name} for name in (
        "round_robin", "least_loaded", "hash_affinity",
        "mcgrath_queues", "data_aware", "proactive_cluster",
    )] + [{"name": "least_loaded", "work_stealing": True}]
    # A 900 ms execution cap fails every task that fetches much data, so
    # FAILED records sit between completed ones. There every task also
    # writes its result back, so efficiency counts that phase too.
    for tag, cluster, write_back in (("acceptance", {}, 0),
                                     ("capped", {"max_execution_ms": 900}, 5)):
        raw = scenario_dict(**DATA_INTENSIVE)
        raw["cluster"].update(cluster)
        raw["workload"]["functions"][0]["write_back"] = write_back
        raw["strategies"] = strategies
        scenario = parse_scenario(raw)
        for cfg in scenario.strategies:
            yield pytest.param(scenario, cfg, 1, id=f"{tag}-{cfg.label}")


@pytest.mark.parametrize("scenario, strategy_cfg, seed", _whole_run_cases())
def test_whole_run_matches_object_records(monkeypatch, scenario, strategy_cfg, seed):
    result = runner.run_one(scenario, strategy_cfg, seed, keep_records=True)
    monkeypatch.setattr(runner, "Simulation", ReferenceSimulation)
    ref = runner.run_one(scenario, strategy_cfg, seed)
    assert isinstance(result.records, RecordStore) and isinstance(ref, ReferenceResult)
    assert isinstance(ref.records, list)
    assert repr(result.row()) == repr(reference_row(ref))
    assert repr(result.row()) == repr(summarize_run(
        result.strategy, result.seed, result.records, result.occupied_ms_total,
        result.node_count, result.horizon_ms, result.replications, result.steals))
    assert len(result.records) == len(ref.records)
    for i, (record, ref_record) in enumerate(zip(result.records, ref.records)):
        assert repr(record) == repr(ref_record), i
    assert result.makespan_ms == reference_makespan_ms(ref.records)
    assert result.makespan_ms == reference_makespan_ms(result.records)


def test_capped_case_records_failures():
    raw = scenario_dict(**DATA_INTENSIVE)
    raw["cluster"]["max_execution_ms"] = 900
    scenario = parse_scenario(raw)
    row = runner.run_one(scenario, scenario.strategies[0], 1).row()
    assert 0 < row["failures"] < row["tasks"]


# ---- random record sets -----------------------------------------------------------------

IDEAL_MS = {"f1": 80, "f2": 1, "f3": 1500}


@st.composite
def task_records(draw):
    phases = [draw(st.integers(0, 10**6)) for _ in range(7)]
    phases[5] = draw(st.integers(1, 10**6))  # compute > 0, so actual time > 0
    started = draw(st.integers(0, 10**9))
    function = draw(st.sampled_from(sorted(IDEAL_MS)))
    timeline = PhaseTimeline(*phases, started_at=started, finished_at=started + sum(phases))
    return TaskRecord(
        invocation_id=f"inv-{draw(st.integers(0, 999))}",
        function=function,
        node=draw(st.integers(0, 1000)),
        timeline=timeline,
        ideal_ms=IDEAL_MS[function],
        billed_gb_s=draw(st.floats(0.0, 1e6, allow_nan=False)),
        status=draw(st.sampled_from([COMPLETED, FAILED])),
    )


def _all_failed(count):
    timeline = PhaseTimeline(1, 2, 3, 4, 5, 6, 7, started_at=10, finished_at=38)
    return [TaskRecord(f"i{i}", "f1", i, timeline, 80, 0.1, FAILED) for i in range(count)]


# occupied ms, node count, horizon ms, replications, steals
TOTALS = st.tuples(st.integers(0, 10**9), st.integers(0, 64), st.integers(0, 10**9),
                   st.integers(0, 100), st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(st.lists(task_records(), max_size=60), TOTALS)
@example([], (0, 1, 1000, 0, 0))
@example(_all_failed(5), (20, 1, 30, 0, 0))  # the last finish, 38, is past the horizon
def test_columnar_summary_matches_object_summary(records, totals):
    store = store_from_records(records)
    occupied, node_count, horizon, replications, steals = totals
    compute = sum(r.timeline.compute_ms for r in records)
    busy = sum(r.timeline.active_ms() for r in records)
    elapsed = max([horizon] + [r.timeline.finished_at for r in records])
    assert repr(summarize_run("s", 7, store, *totals)) == repr(reference_summarize_run(
        "s", 7, records, compute, busy, occupied, node_count, elapsed, replications, steals))
    assert [repr(r) for r in store] == [repr(r) for r in records]


def test_empty_and_all_failed_rows():
    empty = summarize_run("s", 1, RecordStore({}, Trace()), 0, 1, 1000, 0, 0)
    assert empty["tasks"] == 0 and empty["gb_seconds"] == 0
    assert empty["mean_actual_ms"] == empty["p95_actual_ms"] == 0.0
    failed = summarize_run("s", 1, store_from_records(_all_failed(3)), 0, 1, 1000, 0, 0)
    assert failed["failures"] == 3 and failed["invocations_billed"] == 0
    assert failed["mean_quality"] == 0.0 and failed["boot_ms_total"] == 9


def test_store_indexing_matches_a_list():
    records = [
        TaskRecord("a", "f1", 0, PhaseTimeline(1, 0, 0, 0, 0, 80, 0, 5, 86), 80, 0.0125,
                   COMPLETED),
        TaskRecord("b", "f2", 3, PhaseTimeline(1, 9, 100, 0, 0, 1, 0, 7, 118), 1, 0.0,
                   FAILED),
    ]
    store = store_from_records(records)
    assert store[0] == records[0] and store[-1] == records[1]
    assert store[::-1] == records[::-1] and store[5:] == []
    assert list(reversed(store)) == records[::-1]
    assert records[1] in store
    with pytest.raises(IndexError):
        store[2]
    with pytest.raises(IndexError):
        store[-3]


def test_store_rejects_records_it_cannot_represent():
    odd_finish = PhaseTimeline(1, 0, 0, 0, 0, 80, 0, started_at=0, finished_at=90)
    with pytest.raises(ValueError, match="phase sum"):
        store_from_records([TaskRecord("a", "f1", 0, odd_finish, 80, 0.0, COMPLETED)])
    timeline = PhaseTimeline(0, 0, 0, 0, 0, 80, 0, started_at=0, finished_at=80)
    with pytest.raises(ValueError, match="ideal_ms"):
        store_from_records([TaskRecord("a", "f1", 0, timeline, 80, 0.0, COMPLETED),
                                  TaskRecord("b", "f1", 0, timeline, 70, 0.0, COMPLETED)])


# ---- memory -----------------------------------------------------------------------------


def test_record_store_retains_at_most_100_bytes_per_record():
    scenario = parse_scenario(scenario_dict(
        cluster={"nodes": 8},
        workload={"horizon_ms": 20_000, "arrival": {"kind": "fixed_interval", "interval_ms": 1}},
    ))
    catalog, trace = runner.prepare_workload(scenario, 1)
    assert len(trace) == 20_000
    tracemalloc.start()
    try:
        result = runner.run_one(scenario, scenario.strategies[0], 1, catalog, trace,
                                keep_records=True)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Every column grows inside RecordStore's own methods, so its memory is
    # what the traced run still holds from allocations made in metrics.py.
    store_file = metrics.RecordStore.append.__code__.co_filename
    held = snapshot.filter_traces([tracemalloc.Filter(True, store_file)])
    retained = sum(stat.size for stat in held.statistics("filename"))
    assert len(result.records) == 20_000
    per_record = retained / len(result.records)
    assert 56 < per_record <= 100, per_record
