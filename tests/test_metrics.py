"""Metrics: quality, efficiency, utilization, billing and report emission."""

import csv
import json

import pytest
from hypothesis import given, strategies as st

from dispatchsim.cluster import PhaseTimeline
from dispatchsim.metrics import (
    COMPLETED,
    CSV_COLUMNS,
    FAILED,
    TaskRecord,
    billed_gb_seconds,
    efficiency,
    emit_csv,
    emit_json,
    percentile_nearest_rank,
    quality,
    summarize_run,
    utilization,
)

from reference import store_from_records


def timeline(dispatch=0, queue=0, boot=0, code=0, data=0, compute=80, wb=0, started=0):
    total = dispatch + queue + boot + code + data + compute + wb
    return PhaseTimeline(dispatch, queue, boot, code, data, compute, wb,
                         started_at=started, finished_at=started + total)


def record(tl, ideal=80, status=COMPLETED, ident="i0", flavor=128):
    return TaskRecord(ident, "f1", 0, tl, ideal,
                      billed_gb_seconds(tl, flavor), status)


# ---- quality -------------------------------------------------------------------


def test_quality_is_one_without_overhead():
    assert quality(record(timeline())) == 1.0


def test_quality_hand_division():
    # ideal 80 over actual 482 = 0.1660 at 4 decimal places
    r = record(timeline(boot=100, code=101, data=201, compute=80))
    assert r.timeline.actual_ms() == 482
    assert quality(r) == pytest.approx(0.1660, abs=5e-5)


def test_quality_undefined_for_failed_tasks():
    with pytest.raises(ValueError):
        quality(record(timeline(), status=FAILED))


@given(
    overheads=st.tuples(*(st.integers(min_value=0, max_value=500) for _ in range(5))),
    compute=st.integers(min_value=1, max_value=1000),
)
def test_quality_never_exceeds_one(overheads, compute):
    d, q, b, c, f = overheads
    r = record(timeline(d, q, b, c, f, compute), ideal=compute)
    assert 0.0 < quality(r) <= 1.0


# ---- efficiency / utilization -----------------------------------------------------


def test_efficiency_is_one_when_busy_is_all_compute():
    assert efficiency(400, 400) == 1.0


def test_efficiency_single_task_hand_division():
    assert efficiency(80, 482) == pytest.approx(0.1660, abs=5e-5)


def test_efficiency_of_zero_busy_run_is_zero():
    assert efficiency(0, 0) == 0.0


def test_utilization_idle_cluster_is_zero():
    assert utilization(0, 4, 1000) == 0.0


def test_utilization_hand_arithmetic():
    assert utilization(482, 1, 1000) == pytest.approx(0.482)


# ---- billing ------------------------------------------------------------------------


def test_billing_rounds_active_time_up_to_granularity():
    # 130ms active at 128MB: 0.2s * 0.125GB
    assert billed_gb_seconds(timeline(compute=130), 128) == 0.025


def test_billing_case_482ms():
    assert billed_gb_seconds(timeline(boot=100, code=101, data=201, compute=80), 128) == 0.0625


def test_billing_exact_boundary_does_not_round_up():
    assert billed_gb_seconds(timeline(compute=100), 128) == 0.0125


def test_billing_excludes_dispatch_and_queue_wait():
    with_wait = timeline(dispatch=40, queue=500, compute=130)
    assert billed_gb_seconds(with_wait, 128) == 0.025


def test_billing_scales_with_flavor():
    assert billed_gb_seconds(timeline(compute=100), 256) == 0.025


@given(
    base=st.tuples(*(st.integers(min_value=0, max_value=300) for _ in range(5))),
    compute=st.integers(min_value=1, max_value=500),
    phase=st.integers(min_value=0, max_value=6),
    bump=st.integers(min_value=1, max_value=250),
)
def test_billing_is_monotone_in_every_phase(base, compute, phase, bump):
    d, q, b, c, f = base
    args = [d, q, b, c, 0, compute, f]
    before = billed_gb_seconds(timeline(*args), 128)
    args[phase] += bump
    after = billed_gb_seconds(timeline(*args), 128)
    assert after >= before


# ---- percentiles -----------------------------------------------------------------------


def test_p95_nearest_rank_no_interpolation():
    values = sorted(range(1, 101))
    assert percentile_nearest_rank(values, 0.95) == 95
    assert percentile_nearest_rank([7], 0.95) == 7
    assert percentile_nearest_rank([1, 2, 3], 0.95) == 3


# ---- summaries and emission ------------------------------------------------------------


def sample_rows():
    records = [
        record(timeline(dispatch=1, compute=80), ident="a"),
        record(timeline(dispatch=1, boot=100, code=101, data=201, compute=80), ident="b"),
    ]
    row = summarize_run("round_robin", 1, store_from_records(records),
                        compute_ms_total=160, busy_ms_total=562,
                        occupied_ms_total=562, node_count=1, elapsed_ms=1000,
                        replications=0, steals=0)
    return records, row


def test_summary_phase_totals_equal_per_task_sums():
    records, row = sample_rows()
    for column, attr in (
        ("dispatch_ms_total", "dispatch_ms"),
        ("boot_ms_total", "boot_ms"),
        ("code_fetch_ms_total", "code_fetch_ms"),
        ("data_fetch_ms_total", "data_fetch_ms"),
        ("compute_ms_total", "compute_ms"),
        ("write_back_ms_total", "write_back_ms"),
    ):
        assert row[column] == sum(getattr(r.timeline, attr) for r in records)


def test_summary_efficiency_cross_check():
    _, row = sample_rows()
    assert row["efficiency"] * 562 == pytest.approx(160)
    assert row["tasks"] == 2 and row["failures"] == 0
    assert row["invocations_billed"] == 2


def test_failed_tasks_counted_but_not_billed_or_scored():
    records = [
        record(timeline(compute=80), ident="ok"),
        TaskRecord("bad", "f1", 0, timeline(compute=300_000), 80, 0.0, FAILED),
    ]
    row = summarize_run("s", 1, store_from_records(records), 80, 380, 380, 1, 1000, 0, 0)
    assert row["tasks"] == 2 and row["failures"] == 1
    assert row["invocations_billed"] == 1
    assert row["mean_quality"] == 1.0
    assert row["mean_actual_ms"] == 80.0


def test_empty_emission_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], {}, path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_has_fixed_column_order_and_meta_header(tmp_path):
    _, row = sample_rows()
    path = tmp_path / "report.csv"
    emit_csv([row], {"cluster.nodes": 1}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# cluster.nodes=1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_two_rows_share_one_column_set(tmp_path):
    _, row1 = sample_rows()
    row2 = dict(row1, strategy="data_aware")
    path = tmp_path / "two.csv"
    emit_csv([row1, row2], {}, path)
    with open(path) as fh:
        parsed = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(parsed) == 2
    assert set(parsed[0]) == set(parsed[1]) == set(CSV_COLUMNS)


def test_csv_and_json_agree_field_by_field(tmp_path):
    _, row = sample_rows()
    emit_csv([row], {"k": "v"}, tmp_path / "r.csv")
    emit_json([row], {"k": "v"}, tmp_path / "r.json")
    with open(tmp_path / "r.csv") as fh:
        parsed = list(csv.DictReader(line for line in fh if not line.startswith("#")))[0]
    jrow = json.loads((tmp_path / "r.json").read_text())["rows"][0]
    for column in CSV_COLUMNS:
        jvalue = jrow[column]
        if isinstance(jvalue, str):
            assert parsed[column] == jvalue
        else:
            assert float(parsed[column]) == pytest.approx(float(jvalue))
