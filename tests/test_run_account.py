"""The run's account against the kept records it replaces.

A run keeps what its report row reads in a RunAccount, which
Simulation._complete updates in place; the per-task RecordStore is kept only
when a run is asked for it. The reference is summarize_run over that store
(tests/reference.py): the account's row must equal it bit for bit, in every
completion order, with tasks failing at the execution cap and with no tasks
at all.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import parse_scenario
from dispatchsim.metrics import RecordStore
from dispatchsim.strategies import make_strategy
from dispatchsim.workload import Invocation, Trace

from conftest import scenario_dict
from reference import reference_makespan_ms, summarize_run

IDEAL_MS = {"f1": 80, "f2": 1, "f3": 1500}
SCENARIO = parse_scenario(scenario_dict(workload={"functions": [
    {"name": name, "code_size": 1, "flavor": 128, "compute_ms": ideal}
    for name, ideal in IDEAL_MS.items()]}))


class Clock:
    """The one thing _complete asks of its engine: the time."""

    record_log = False

    def __init__(self):
        self.time = 0

    def now(self):
        return self.time


class Container:
    node = 0


def complete_all(tasks, fold_every=None):
    """A kept-records Simulation of the given tasks, each passed to
    _complete at its finish (arrival plus phase sum) in finish order, ties
    in the order given. A task is (arrival, function, phases, billed,
    failed). ``fold_every`` folds the phase buffer after that many tasks."""
    trace = Trace.from_invocations(
        Invocation(f"inv-{i}", function, (), "", arrival)
        for i, (arrival, function, *_) in enumerate(tasks))
    catalog, _ = runner.prepare_workload(SCENARIO, 1)
    clock = Clock()
    sim = runner.Simulation(clock, runner.build_cluster(SCENARIO, catalog),
                            make_strategy("round_robin"), trace, horizon_ms=1000,
                            strategy_cfg=SCENARIO.strategies[0], seed=1, keep_records=True)
    sim._release = lambda container, now: None
    index = {inv_id: i for i, inv_id in enumerate(trace.ids)}  # trace order is sorted
    finish_order = sorted(range(len(tasks)), key=lambda k: tasks[k][0] + sum(tasks[k][2]))
    with pytest.MonkeyPatch.context() as patch:
        if fold_every is not None:
            patch.setattr(runner, "PHASE_BUFFER_LIMIT", 7 * fold_every)
        for k in finish_order:
            arrival, _, phases, billed, failed = tasks[k]
            clock.time = arrival + sum(phases)
            sim._complete(index[f"inv-{k}"], Container(), phases, billed, failed)
    return sim


@st.composite
def completed_tasks(draw):
    phases = tuple(draw(st.integers(0, 10**6)) for _ in range(7))
    phases = phases[:5] + (draw(st.integers(1, 10**6)),) + phases[6:]  # compute > 0
    failed = draw(st.booleans())
    billed = 0.0 if failed else draw(st.floats(0.0, 1e6, allow_nan=False))
    return (draw(st.integers(0, 10**9)), draw(st.sampled_from(sorted(IDEAL_MS))),
            phases, billed, failed)


# occupied ms, node count, horizon ms, replications, steals
TOTALS = st.tuples(st.integers(0, 10**9), st.integers(0, 64), st.integers(0, 10**9),
                   st.integers(0, 100), st.integers(0, 100))
TENTHS = [(0, "f1", (1, 0, 0, 0, 0, 100, 0), 0.1, False)] * 10
ALL_FAILED = [(10, "f2", (1, 2, 3, 4, 5, 6, 7), 0.0, True)] * 3


@settings(max_examples=300, deadline=None)
@given(st.lists(completed_tasks(), max_size=40), st.none() | st.integers(1, 8), TOTALS)
@example([], None, (0, 1, 1000, 0, 0))
@example(ALL_FAILED, 2, (20, 1, 30, 0, 0))  # the last finish, 38, is past the horizon
@example(TENTHS, 3, (0, 1, 1000, 0, 0))
def test_account_row_matches_the_reference_summary(tasks, fold_every, totals):
    sim = complete_all(tasks, fold_every)
    assert len(sim.records) == sim.account.tasks == len(tasks)
    assert repr(sim.account.row("s", 7, *totals)) == repr(
        summarize_run("s", 7, sim.records, *totals))
    assert sim.account.makespan_ms() == reference_makespan_ms(list(sim.records))


def test_gb_seconds_adds_left_to_right_in_completion_order():
    # Builtin sum gives 1.0 here on 3.12 and later, which compensate.
    assert complete_all(TENTHS).account.row("s", 1, 0, 1, 1000, 0, 0)[
        "gb_seconds"] == 0.9999999999999999
    raw = scenario_dict(
        cluster={"container_boot_ms": 0},
        workload={"functions": [{"name": "f1", "code_size": 0, "flavor": 1024,
                                 "compute_ms": 100}]})  # ten arrivals, each billed 0.1 GB-s
    scenario = parse_scenario(raw)
    result = runner.run_one(scenario, scenario.strategies[0], 1, keep_records=True)
    assert [r.billed_gb_s for r in result.records] == [0.1] * 10
    assert result.row()["gb_seconds"] == 0.9999999999999999


def test_all_failed_run_bills_the_int_zero():
    row = complete_all(ALL_FAILED).account.row("s", 1, 0, 1, 1000, 0, 0)
    assert row["failures"] == 3 and repr(row["gb_seconds"]) == "0"


def test_records_are_kept_only_when_asked():
    scenario = parse_scenario(scenario_dict())
    assert runner.run_one(scenario, scenario.strategies[0], 1).records is None
    kept = runner.run_one(scenario, scenario.strategies[0], 1, keep_records=True)
    assert isinstance(kept.records, RecordStore) and len(kept.records) == 10


def test_account_retains_at_most_16_bytes_per_invocation():
    scenario = parse_scenario(scenario_dict(
        cluster={"nodes": 8},
        workload={"horizon_ms": 20_000, "arrival": {"kind": "fixed_interval", "interval_ms": 1}},
    ))
    catalog, trace = runner.prepare_workload(scenario, 1)
    assert len(trace) == 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = runner.run_one(scenario, scenario.strategies[0], 1, catalog, trace)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.records is None and result.row()["tasks"] == 20_000
    # Each completed task keeps its 8-byte actual time.
    assert 8 <= held / len(trace) <= 16, held / len(trace)
