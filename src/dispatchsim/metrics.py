"""Per-task records and run-level evaluation metrics.

ideal time   the function's compute_ms: its execution time with zero
             dispatch latency, a warm container and all data local
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
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import add, not_, truediv

from .cluster import PhaseTimeline
from .workload import Trace

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


_STRIDE = 7  # phase durations per record, in PhaseTimeline field order


class RecordStore(Sequence[TaskRecord]):
    """A run's task records as columns, in completion order.

    Per record it keeps the invocation's index into the run's trace, the
    node, the seven phase durations (strided in one ``array('q')``), the
    billed GB-s and a failure flag: about 77 bytes, where a TaskRecord with
    its PhaseTimeline takes about 250. It reads as a sequence of
    TaskRecords, each built when it is accessed: the trace gives the id, the
    function (whose ideal time is looked up in ``ideal_ms``) and
    ``started_at`` (the arrival), and ``finished_at`` is ``started_at`` plus
    the phase sum, which the cost model guarantees for every timeline.
    """

    __slots__ = ("_ideal_ms", "_trace", "_index", "_nodes", "_phases", "_billed", "_failed")

    def __init__(self, ideal_ms: Mapping[str, int], trace: Trace | None = None):
        self._ideal_ms = ideal_ms
        self._trace = Trace() if trace is None else trace
        self._index = array("i")
        self._nodes = array("i")
        self._phases = array("q")
        self._billed = array("d")
        self._failed = array("b")

    def append(self, index: int, node: int, timeline: PhaseTimeline,
               billed_gb_s: float, failed: bool) -> None:
        """Record the completion of trace[index]."""
        self._index.append(index)
        self._nodes.append(node)
        self._phases.extend((
            timeline.dispatch_ms, timeline.queue_wait_ms, timeline.boot_ms,
            timeline.code_fetch_ms, timeline.data_fetch_ms, timeline.compute_ms,
            timeline.write_back_ms,
        ))
        self._billed.append(billed_gb_s)
        self._failed.append(failed)

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        count = len(self)
        i = index + count if index < 0 else index
        if not 0 <= i < count:
            raise IndexError("record index out of range")
        return self._record(i)

    def __iter__(self):
        return map(self._record, range(len(self)))

    def _record(self, i: int) -> TaskRecord:
        inv = self._trace.view(self._index[i])
        phases = self._phases[i * _STRIDE:(i + 1) * _STRIDE]
        started_at = inv.arrival
        failed = self._failed[i]
        return TaskRecord(
            invocation_id=inv.id,
            function=inv.function,
            node=self._nodes[i],
            timeline=PhaseTimeline(*phases, started_at=started_at,
                                   finished_at=started_at + sum(phases)),
            ideal_ms=self._ideal_ms[inv.function],
            billed_gb_s=self._billed[i],
            status=FAILED if failed else COMPLETED,
        )

    def _phase_columns(self) -> list[memoryview]:
        """The seven phase columns as strided views (no copies)."""
        phases = memoryview(self._phases)
        return [phases[k::_STRIDE] for k in range(_STRIDE)]

    def makespan_ms(self) -> int:
        """Last finish minus first start over the records; 0 when empty."""
        if not self._index:
            return 0
        starts = list(map(self._trace.arrivals.__getitem__, self._index))
        finishes = map(add, starts, map(sum, zip(*self._phase_columns())))
        return max(finishes) - min(starts)


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


def summarize_run(strategy: str, seed, records: RecordStore,
                  compute_ms_total: int, busy_ms_total: int,
                  occupied_ms_total: int, node_count: int, elapsed_ms: int,
                  replications: int, steals: int) -> dict:
    """One report row (see CSV_COLUMNS). Latency statistics and quality are
    over completed tasks; phase totals cover every recorded task."""
    columns = records._phase_columns()
    dispatch, queue_wait, boot, code_fetch, data_fetch, compute, write_back = columns
    failed = records._failed
    # A task's actual time is its phase sum; see RecordStore.
    actuals = list(compress(map(sum, zip(*columns)), map(not_, failed)))
    trace = records._trace
    ideal_by_code = [records._ideal_ms[name] for name in trace.functions]
    ideals = map(ideal_by_code.__getitem__, map(
        trace.function_codes.__getitem__, compress(records._index, map(not_, failed))))
    mean_quality = statistics.fmean(map(truediv, ideals, actuals)) if actuals else 0.0
    actuals.sort()
    tasks = len(records)
    return {
        "strategy": strategy,
        "seed": seed,
        "tasks": tasks,
        "failures": tasks - len(actuals),
        "mean_actual_ms": statistics.fmean(actuals) if actuals else 0.0,
        "median_actual_ms": float(statistics.median(actuals)) if actuals else 0.0,
        "p95_actual_ms": float(percentile_nearest_rank(actuals, 0.95)),
        "mean_quality": mean_quality,
        "efficiency": efficiency(compute_ms_total, busy_ms_total),
        "utilization": utilization(occupied_ms_total, node_count, elapsed_ms),
        # Builtin sum in completion order: another order or fsum changes last bits.
        "gb_seconds": sum(compress(records._billed, map(not_, failed))),
        "invocations_billed": len(actuals),
        "dispatch_ms_total": sum(dispatch),
        "queue_ms_total": sum(queue_wait),
        "boot_ms_total": sum(boot),
        "code_fetch_ms_total": sum(code_fetch),
        "data_fetch_ms_total": sum(data_fetch),
        "compute_ms_total": sum(compute),
        "write_back_ms_total": sum(write_back),
        "replications": replications,
        "steals": steals,
    }


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
