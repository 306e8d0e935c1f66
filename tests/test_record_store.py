"""Per-task records, collected through the completion hook, against the
per-invocation objects a run used to keep.

A run keeps no task records; a test that wants them passes
Simulation's ``on_complete`` a collector (``record_collector`` in
tests/reference.py) that builds one TaskRecord per completion from the
hook's (index, node, phases, billed, failed) and the trace. The reference
here is the object-based path: a Simulation that builds one TaskRecord per
completion from the engine's clock and the cost model, and keeps the run
totals as separate bookkeeping. Every record must be identical, bit for bit
and in completion order, and so must the row the run's RunResult gives and
the object summary over the records.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.errors import SimulationError

from conftest import scenario_dict
from reference import (
    COMPLETED, FAILED, IDEAL_MS, PhaseTimeline, TaskRecord, as_task, complete_all,
    invocation_at, phase_sum, reference_billed_gb_seconds, reference_makespan_ms,
    reference_summarize_run, row_with_totals, run_with_records, summarize_records,
)
from test_acceptance import DATA_INTENSIVE

DEMO_SCENARIOS = sorted((Path(__file__).parent.parent / "demos" / "scenarios").glob("*.yaml"))

# ---- the object-based reference run --------------------------------------------------


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
        self.compute_ms = [0] * len(self.cluster.nodes)
        self.busy_ms = [0] * len(self.cluster.nodes)
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

    def _complete(self, index, container, wait, active, billed, failed):
        # The runner's billed GB-s is ignored: the float-division reference
        # recomputes it. Dispatch is the strategy's latency. The runner's own
        # completion then releases, drains and counts.
        inv = invocation_at(self.trace, index)
        now = self.engine.now
        timeline = PhaseTimeline(self.strategy.dispatch_latency_ms, wait, *active,
                                 started_at=inv.arrival, finished_at=now)
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
                reference_billed_gb_seconds(timeline.active_ms(), spec.flavor,
                                            self.cluster.params.billing_granularity_ms)
                if not failed else 0.0
            ),
            status=FAILED if failed else COMPLETED,
        ))
        self.last_completion = max(self.last_completion, timeline.finished_at)
        super()._complete(index, container, wait, active, billed, failed)

    def _replication_tick(self):
        actions = runner.replication_tick(
            self.strategy.counters, self.cluster, self.cfg.replication.threshold
        )
        for action in actions:
            self.result.replication_log.append((self.engine.now, action))
            if action.placed:
                self.replications += 1
        if self._work_remaining():
            self.engine.schedule(self.engine.now + self.cfg.replication.period_ms,
                                 self._replication_tick)

    def run(self):
        # run_one returns what run returns: the reference's result, here.
        result, nodes = super().run(), self.cluster.nodes
        return ReferenceResult(result.strategy, result.seed, self.task_records, (
            sum(self.compute_ms), sum(self.busy_ms), sum(n.occupied_ms_accum for n in nodes),
            len(nodes), max(result.horizon_ms, self.last_completion), self.replications,
            result.steals,
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
        del raw["strategy"]
        scenario = parse_scenario(raw)
        for cfg in scenario.strategies:
            yield pytest.param(scenario, cfg, 1, id=f"{tag}-{cfg.label}")


@pytest.mark.parametrize("scenario, strategy_cfg, seed", _whole_run_cases())
def test_whole_run_matches_object_records(monkeypatch, scenario, strategy_cfg, seed):
    result, records = run_with_records(scenario, strategy_cfg, seed)
    monkeypatch.setattr(runner, "Simulation", ReferenceSimulation)
    ref = runner.run_one(scenario, strategy_cfg, seed)
    assert isinstance(ref, ReferenceResult)
    assert repr(result.row()) == repr(reference_row(ref))
    assert repr(result.row()) == repr(summarize_records(
        result.strategy, result.seed, records, result.occupied_ms_total,
        result.node_count, result.horizon_ms, result.replications, result.steals))
    assert len(records) == len(ref.records)
    for i, (record, ref_record) in enumerate(zip(records, ref.records)):
        assert repr(record) == repr(ref_record), i
    assert result.makespan_ms == reference_makespan_ms(ref.records)


def test_capped_case_records_failures():
    raw = scenario_dict(**DATA_INTENSIVE)
    raw["cluster"]["max_execution_ms"] = 900
    scenario = parse_scenario(raw)
    row = runner.run_one(scenario, scenario.strategies[0], 1).row()
    assert 0 < row["failures"] < row["tasks"]


# ---- the hook ----------------------------------------------------------------------------


@pytest.mark.parametrize("scenario, strategy_cfg, seed",
                         [case for case in _whole_run_cases() if case.id.startswith("capped-")])
def test_hook_is_called_once_per_trace_index(scenario, strategy_cfg, seed):
    catalog, trace = runner.prepare_workload(scenario, seed)
    calls = []
    result = runner.run_one(scenario, strategy_cfg, seed, catalog, trace,
                            on_complete=lambda *args: calls.append(args))
    assert len(calls) == len(trace) == result.row()["tasks"]
    assert sorted(index for index, *_ in calls) == list(range(len(trace)))


def _called_from_complete(on_complete) -> set[str]:
    """The names of the functions Simulation._complete calls, Python and
    builtin, over one run with the given hook."""
    complete = runner.Simulation._complete.__code__
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is complete:
            seen.add(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is complete:
            seen.add(arg.__name__)

    # One 128 MB container per node, so invocations queue and completions drain.
    scenario = parse_scenario(scenario_dict(
        cluster={"nodes": 2, "mem_capacity": 128},
        workload={"arrival": {"kind": "fixed_interval", "interval_ms": 10}}))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        runner.run_one(scenario, scenario.strategies[0], 1, on_complete=on_complete)
    finally:
        sys.setprofile(previous)
    return seen


def test_a_run_without_a_hook_calls_no_callback():
    def spy(index, node, phases, billed, failed):
        pass

    without, with_spy = _called_from_complete(None), _called_from_complete(spy)
    assert {"release_container", "_drain"} <= without
    assert with_spy == without | {"spy"} and "spy" not in without


# ---- random record sets -----------------------------------------------------------------


@st.composite
def task_records(draw, dispatch):
    phases = [dispatch] + [draw(st.integers(0, 10**6)) for _ in range(6)]
    phases[5] = draw(st.integers(1, 10**6))  # compute > 0, so actual time > 0
    started = draw(st.integers(0, 10**9))
    function = draw(st.sampled_from(sorted(IDEAL_MS)))
    timeline = PhaseTimeline(*phases, started_at=started, finished_at=started + sum(phases))
    return TaskRecord(
        invocation_id="",  # complete_all names each task by its position
        function=function,
        node=0,  # and runs every task on node 0
        timeline=timeline,
        ideal_ms=IDEAL_MS[function],
        billed_gb_s=draw(st.floats(0.0, 1e6, allow_nan=False)),
        status=draw(st.sampled_from([COMPLETED, FAILED])),
    )


def _all_failed(count):
    timeline = PhaseTimeline(1, 2, 3, 4, 5, 6, 7, started_at=10, finished_at=38)
    return [TaskRecord("", "f1", 0, timeline, 80, 0.1, FAILED) for _ in range(count)]


# occupied ms, node count, horizon ms, replications, steals
TOTALS = st.tuples(st.integers(0, 10**9), st.integers(0, 64), st.integers(0, 10**9),
                   st.integers(0, 100), st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6).flatmap(  # the tasks of one run share its dispatch latency
    lambda dispatch: st.lists(task_records(dispatch), max_size=60)), TOTALS)
@example([], (0, 1, 1000, 0, 0))
@example(_all_failed(5), (20, 1, 30, 0, 0))  # the last finish, 38, is past the horizon
def test_columnar_summary_matches_object_summary(records, totals):
    # The hook builds the given records in finish order, each named by its
    # position; the account's row equals the object summary over them.
    sim, collected = complete_all(map(as_task, records))
    order = sorted(range(len(records)), key=lambda k: records[k].timeline.finished_at)
    assert [r.invocation_id for r in collected] == [f"inv-{k}" for k in order]
    for r in collected:
        r.invocation_id = ""
    assert collected == [records[k] for k in order]
    assert repr(row_with_totals(sim.result, "s", 7, *totals)) == repr(
        summarize_records("s", 7, collected, *totals))


def test_empty_and_all_failed_rows():
    empty = row_with_totals(complete_all([])[0].result, "s", 1, 0, 1, 1000, 0, 0)
    assert empty["tasks"] == 0 and empty["gb_seconds"] == 0
    assert empty["mean_actual_ms"] == empty["p95_actual_ms"] == 0.0
    assert repr(empty) == repr(summarize_records("s", 1, [], 0, 1, 1000, 0, 0))
    sim, records = complete_all(map(as_task, _all_failed(3)))
    failed = row_with_totals(sim.result, "s", 1, 0, 1, 1000, 0, 0)
    assert failed["failures"] == 3 and failed["invocations_billed"] == 0
    assert failed["mean_quality"] == 0.0 and failed["boot_ms_total"] == 9
    assert repr(failed) == repr(summarize_records("s", 1, records, 0, 1, 1000, 0, 0))
