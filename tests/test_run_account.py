"""The run's account against the per-task records it replaces.

A run keeps what its report row reads in its RunResult, which
Simulation._complete updates in place; it keeps no per-task record. The
reference is the summary over the TaskRecords that a completion hook builds
(summarize_records in tests/reference.py): the result's row must equal it
bit for bit, in every completion order, with tasks failing at the execution
cap and with no tasks at all. Its phase totals are derived from counts of
the cost model's outcomes, which must add up to the phases each completion
reports, and whose number must not grow with the run.
"""

import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import load_scenario, parse_scenario

from conftest import scenario_dict
from reference import (
    IDEAL_MS, complete_all, reference_makespan_ms, row_with_totals, run_with_records,
    summarize_records,
)


@st.composite
def completed_tasks(draw, dispatch):
    phases = (dispatch,) + tuple(draw(st.integers(0, 10**6)) for _ in range(6))
    phases = phases[:5] + (draw(st.integers(1, 10**6)),) + phases[6:]  # compute > 0
    failed = draw(st.booleans())
    billed = 0.0 if failed else draw(st.floats(0.0, 1e6, allow_nan=False))
    return (draw(st.integers(0, 10**9)), draw(st.sampled_from(sorted(IDEAL_MS))),
            phases, billed, failed)


# occupied ms, node count, horizon ms, replications, steals
TOTALS = st.tuples(st.integers(0, 10**9), st.integers(0, 64), st.integers(0, 10**9),
                   st.integers(0, 100), st.integers(0, 100))
# The tasks of one run, which share its one dispatch latency.
RUNS = st.integers(0, 10**6).flatmap(lambda dispatch: st.lists(completed_tasks(dispatch),
                                                               max_size=40))
TENTHS = [(0, "f1", (1, 0, 0, 0, 0, 100, 0), 0.1, False)] * 10
ALL_FAILED = [(10, "f2", (1, 2, 3, 4, 5, 6, 7), 0.0, True)] * 3


@settings(max_examples=300, deadline=None)
@given(RUNS, TOTALS)
@example([], (0, 1, 1000, 0, 0))
@example(ALL_FAILED, (20, 1, 30, 0, 0))  # the last finish, 38, is past the horizon
@example(TENTHS, (0, 1, 1000, 0, 0))
def test_account_row_matches_the_reference_summary(tasks, totals):
    sim, records = complete_all(tasks)
    assert len(records) == sim.result.tasks == len(tasks)
    assert repr(row_with_totals(sim.result, "s", 7, *totals)) == repr(
        summarize_records("s", 7, records, *totals))
    assert sim.result.makespan_ms == reference_makespan_ms(records)


def test_gb_seconds_adds_left_to_right_in_completion_order():
    # Builtin sum gives 1.0 here on 3.12 and later, which compensate.
    assert row_with_totals(complete_all(TENTHS)[0].result, "s", 1, 0, 1, 1000, 0, 0)[
        "gb_seconds"] == 0.9999999999999999
    raw = scenario_dict(
        cluster={"container_boot_ms": 0},
        workload={"functions": [{"name": "f1", "code_size": 0, "flavor": 1024,
                                 "compute_ms": 100}]})  # ten arrivals, each billed 0.1 GB-s
    scenario = parse_scenario(raw)
    result, records = run_with_records(scenario, scenario.strategies[0], 1)
    assert [r.billed_gb_s for r in records] == [0.1] * 10
    assert result.row()["gb_seconds"] == 0.9999999999999999


def test_all_failed_run_bills_the_int_zero():
    row = row_with_totals(complete_all(ALL_FAILED)[0].result, "s", 1, 0, 1, 1000, 0, 0)
    assert row["failures"] == 3 and repr(row["gb_seconds"]) == "0"


def test_records_are_kept_only_when_asked():
    # A run keeps no per-task record; a completion hook sees every task.
    scenario = parse_scenario(scenario_dict())
    assert not hasattr(runner.run_one(scenario, scenario.strategies[0], 1), "records")
    result, records = run_with_records(scenario, scenario.strategies[0], 1)
    assert len(records) == result.row()["tasks"] == 10


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
    assert result.row()["tasks"] == 20_000
    # Each completed task keeps its 8-byte actual time.
    assert 8 <= held / len(trace) <= 16, held / len(trace)


ROOT = Path(__file__).parent.parent
RUN_SCENARIOS = [*sorted(ROOT.glob("demos/scenarios/*.yaml")), ROOT / "tests/fixtures/mixed.yaml"]


@pytest.mark.parametrize("path", RUN_SCENARIOS, ids=lambda path: path.stem)
def test_phase_totals_are_the_column_sums_of_the_completed_phases(path):
    # Every strategy of the scenario, on its first two seeds.
    scenario = load_scenario(path)
    for seed in scenario.seeds[:2]:
        catalog, trace = runner.prepare_workload(scenario, seed)
        for cfg in scenario.strategies:
            phases = []
            result = runner.run_one(scenario, cfg, seed, catalog, trace,
                                    on_complete=lambda index, node, p, *rest: phases.append(p))
            assert len(phases) == sum(result.active_counts.values()) == len(trace) > 0
            assert result.phase_totals == list(map(sum, zip(*phases))), (cfg.label, seed)


def test_outcome_counts_do_not_grow_with_the_run():
    # The scale_rr benchmark's shape at twice the horizon holds no new outcome.
    sizes = []
    for horizon_ms in (10_000, 20_000):
        scenario = load_scenario(ROOT / "perfbench/scenarios/scale_rr.yaml",
                                 [f"workload.horizon_ms={horizon_ms}"])
        result = runner.run_one(scenario, scenario.strategies[0], 1)
        assert result.tasks == horizon_ms
        sizes.append(len(result.active_counts))
    assert sizes[0] == sizes[1], sizes
