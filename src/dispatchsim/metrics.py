"""Per-task records and run-level evaluation metrics.

quality      ideal / actual execution time of a task (1.0 means no overhead)
efficiency   share of node busy time spent in pure compute
utilization  share of total node-time the cluster spends busy
billing      GB-seconds: allocated memory times active time rounded up to
             the accounting granularity, plus one charge per invocation
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

from .cluster import PhaseTimeline

COMPLETED = "completed"
FAILED = "failed"

CSV_COLUMNS = (
    "strategy", "seed", "tasks", "failures",
    "mean_actual_ms", "median_actual_ms", "p95_actual_ms",
    "mean_quality", "efficiency", "utilization",
    "gb_seconds", "invocations_billed",
    "dispatch_ms_total", "queue_ms_total", "boot_ms_total",
    "code_fetch_ms_total", "data_fetch_ms_total", "compute_ms_total",
    "write_back_ms_total", "replications", "steals",
)


@dataclass(slots=True)
class TaskRecord:
    invocation_id: str
    function: str
    node: int
    timeline: PhaseTimeline
    ideal_ms: int
    billed_gb_s: float
    status: str  # COMPLETED or FAILED


def quality(record: TaskRecord) -> float:
    """ideal / actual for a completed task; undefined for failed tasks."""
    if record.status != COMPLETED:
        raise ValueError(f"quality undefined for {record.status} task {record.invocation_id}")
    return record.ideal_ms / record.timeline.actual_ms()


def billed_gb_seconds(timeline: PhaseTimeline, flavor_mb: int,
                      granularity_ms: int = 100) -> float:
    """Charge for one execution: active time (dispatch and queue wait are
    not billed; no container is held then) rounded up to the granularity,
    times the memory flavor in GB."""
    active = timeline.active_ms()
    rounded_ms = math.ceil(active / granularity_ms) * granularity_ms
    return (rounded_ms / 1000.0) * (flavor_mb / 1024.0)


def efficiency(compute_ms_total: int, busy_ms_total: int) -> float:
    """compute / busy over the whole run; 0.0 for a run with no busy time."""
    if busy_ms_total == 0:
        return 0.0
    return compute_ms_total / busy_ms_total


def utilization(occupied_ms_total: int, node_count: int, elapsed_ms: int) -> float:
    """Occupied node-time over total node-time. The numerator is wall-clock
    time a node had at least one busy container (not container-time summed
    over concurrent containers), so the value cannot exceed 1."""
    if node_count == 0 or elapsed_ms == 0:
        return 0.0
    return occupied_ms_total / (node_count * elapsed_ms)


def percentile_nearest_rank(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample (no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize_run(strategy: str, seed, records: list[TaskRecord],
                  compute_ms_total: int, busy_ms_total: int,
                  occupied_ms_total: int, node_count: int, elapsed_ms: int,
                  replications: int, steals: int) -> dict:
    """One report row (see CSV_COLUMNS). Latency statistics and quality are
    over completed tasks; phase totals cover every recorded task."""
    completed = [r for r in records if r.status == COMPLETED]
    actuals = sorted(r.timeline.actual_ms() for r in completed)
    row = {
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
        "gb_seconds": sum(r.billed_gb_s for r in completed),
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
    return row


def aggregate_rows(strategy: str, rows: list[dict]) -> dict:
    """Mean over per-seed rows for one strategy; the seed column reads 'mean'."""
    out: dict = {"strategy": strategy, "seed": "mean"}
    for col in CSV_COLUMNS[2:]:
        out[col] = statistics.fmean(row[col] for row in rows)
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return str(round(value, 6))
    return str(value)


def _rounded(row: dict) -> dict:
    return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in row.items()}


def emit_csv(rows: list[dict], meta: dict, path) -> None:
    """Write rows in the fixed column order, preceded by '#' metadata lines
    echoing every cost-model constant (reports are self-describing)."""
    lines = [f"# {key}={meta[key]}" for key in meta]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_COLUMNS))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(rows: list[dict], meta: dict, path) -> None:
    payload = {"meta": meta, "rows": [_rounded(row) for row in rows]}
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def emit_report(rows: list[dict], meta: dict, fmt: str, path) -> None:
    if fmt == "csv":
        emit_csv(rows, meta, path)
    elif fmt == "json":
        emit_json(rows, meta, path)
    else:
        raise ValueError(f"unknown report format: {fmt}")
