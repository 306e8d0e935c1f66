"""A run's result (RunResult, the account its report row reads), the
run-level evaluation metrics and report emission.

ideal time   the function's compute_ms: its execution time with zero
             dispatch latency, a warm container and all data local
quality      ideal / actual execution time of a task (1.0 means no overhead)
efficiency   compute phase total over the total of the five active phases
utilization  occupied node-time over node count times the run's elapsed time
billing      GB-seconds: allocated memory times active time rounded up to
             the accounting granularity, plus one charge per invocation
"""

from __future__ import annotations

import json
import math
from array import array
from collections import defaultdict
from collections.abc import Sequence
from itertools import chain

# The seven phases of a task, in the order a run passes and totals them. The
# last five are active (the container is held); dispatch and queue wait are not.
PHASES = ("dispatch", "queue", "boot", "code_fetch", "data_fetch", "compute", "write_back")

CSV_COLUMNS = (
    "strategy", "seed", "tasks", "failures",
    "mean_actual_ms", "median_actual_ms", "p95_actual_ms",
    "mean_quality", "efficiency", "utilization",
    "gb_seconds", "invocations_billed",
    *(f"{phase}_ms_total" for phase in PHASES),
    "replications", "steals",
)


def billed_gb_seconds(active_ms: int, flavor_mb: int, granularity_ms: int) -> float:
    """Charge for one execution: its active ms (dispatch and queue wait are
    not billed; no container is held then) rounded up to the granularity,
    times the memory flavor in GB. The ceiling is integer division, so it
    is exact for every int."""
    rounded_ms = -(-active_ms // granularity_ms) * granularity_ms
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


class RunResult:
    """One (strategy, seed) run: its settings and the account its report
    row reads, which ``Simulation`` writes as the run goes (no per-task
    record is kept; see its ``on_complete``). A steal adds to ``steals``,
    a replication pass extends ``replication_log`` with (time, action)
    pairs, the end of the run sets ``occupied_ms_total`` and
    ``dispatch_ms_total`` (the run's one dispatch latency times its task
    count), and ``Simulation._complete`` updates the account in place, with
    no method call:
    - every task adds one to ``active_counts[active]``, keyed by its five
      active phase durations (the tuple the cost model returned), and adds
      its queue wait to ``queue_ms_total``;
    - a failed task adds one to ``failures``;
    - a completed task appends its actual ms to ``actual_ms[code]``, one
      ``array('q')`` per trace function code, and adds its billed GB-s to
      ``gb_seconds``;
    - ``last_finish`` takes the time of each completion, so it ends at the
      last one.

    ``active_counts`` holds one entry per distinct outcome of the cost
    model, not one per task; ``phase_totals`` is derived from it. ``gb_seconds`` is left-to-right float addition over the
    completed tasks in completion order, from the int 0: what builtin
    ``sum`` gives on 3.10 and 3.11 (3.12 compensates its float sums), and 0
    when no task completed. A completed task is retained as its 8-byte
    actual time; ``first_arrival`` is the trace's earliest arrival, which
    the makespan starts from because a run completes every invocation of
    its trace.
    """

    __slots__ = ("strategy", "seed", "horizon_ms", "node_count", "occupied_ms_total",
                 "steals", "replication_log", "dispatch_ms_total", "queue_ms_total",
                 "active_counts", "failures", "actual_ms", "_ideal_ms", "gb_seconds",
                 "first_arrival", "last_finish")

    def __init__(self, strategy: str, seed: int, ideal_ms: Sequence[int], first_arrival: int,
                 horizon_ms: int, node_count: int):
        """``ideal_ms`` holds the ideal time of each trace function code."""
        self.strategy = strategy
        self.seed = seed
        self.horizon_ms = horizon_ms
        self.node_count = node_count
        self.occupied_ms_total = self.steals = self.failures = 0
        self.replication_log: list = []
        self.dispatch_ms_total = self.queue_ms_total = 0
        self.active_counts: defaultdict[tuple, int] = defaultdict(int)
        self.actual_ms = [array("q") for _ in ideal_ms]
        self._ideal_ms = list(ideal_ms)
        self.gb_seconds = 0
        self.first_arrival = first_arrival
        self.last_finish = 0

    @property
    def phase_totals(self) -> list[int]:
        """The seven phase totals over every task, in PHASES order: exact
        int sums of each active phase times its outcome's count."""
        counts = self.active_counts.items()
        return [self.dispatch_ms_total, self.queue_ms_total,
                *(sum(active[i] * count for active, count in counts) for i in range(5))]

    @property
    def tasks(self) -> int:
        """Tasks completed or failed so far."""
        return self.failures + sum(map(len, self.actual_ms))

    @property
    def makespan_ms(self) -> int:
        """Last finish minus first arrival; 0 when no task ran."""
        return self.last_finish - self.first_arrival if self.tasks else 0

    @property
    def replications(self) -> int:
        """Replicas placed: the placed actions in ``replication_log``."""
        return sum(action.placed for _, action in self.replication_log)

    def row(self) -> dict:
        """One report row (see CSV_COLUMNS). Latency statistics and quality
        are over completed tasks; phase totals, efficiency and the elapsed
        time (the horizon, or the last finish if later) cover every task."""
        totals = self.phase_totals
        compute, active = totals[5], sum(totals[2:])  # see PHASES
        actuals = sorted(chain.from_iterable(self.actual_ms))
        completed = len(actuals)
        # Each mean is an exactly rounded fsum over the count, as
        # statistics.fmean computes it, so the order of the terms is free.
        if completed:
            mean_actual = math.fsum(actuals) / completed
            middle = completed // 2
            median_actual = float(actuals[middle] if completed % 2
                                  else (actuals[middle - 1] + actuals[middle]) / 2)
            mean_quality = math.fsum(chain.from_iterable(
                map(ideal.__truediv__, column)
                for ideal, column in zip(self._ideal_ms, self.actual_ms))) / completed
        else:
            mean_actual = median_actual = mean_quality = 0.0
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "tasks": self.failures + completed,
            "failures": self.failures,
            "mean_actual_ms": mean_actual,
            "median_actual_ms": median_actual,
            "p95_actual_ms": float(percentile_nearest_rank(actuals, 0.95)),
            "mean_quality": mean_quality,
            "efficiency": efficiency(compute, active),
            "utilization": utilization(self.occupied_ms_total, self.node_count,
                                       max(self.horizon_ms, self.last_finish)),
            "gb_seconds": self.gb_seconds,
            "invocations_billed": completed,
            **{f"{phase}_ms_total": total for phase, total in zip(PHASES, totals)},
            "replications": self.replications,
            "steals": self.steals,
        }


def aggregate_rows(strategy: str, rows: list[dict]) -> dict:
    """Mean over per-seed rows for one strategy; the seed column reads 'mean'."""
    out: dict = {"strategy": strategy, "seed": "mean"}
    for col in CSV_COLUMNS[2:]:
        out[col] = math.fsum(row[col] for row in rows) / len(rows)  # statistics.fmean
    return out


def _rounded(row: dict) -> dict:
    return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in row.items()}


def emit_csv(rows: list[dict], meta: dict, path) -> None:
    """Write rows in the fixed column order, preceded by '#' metadata lines
    echoing every cost-model constant (reports are self-describing)."""
    lines = [f"# {key}={meta[key]}" for key in meta]
    lines.append(",".join(CSV_COLUMNS))
    for row in map(_rounded, rows):
        lines.append(",".join(str(row[col]) for col in CSV_COLUMNS))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(rows: list[dict], meta: dict, path) -> None:
    payload = {"meta": meta, "rows": [_rounded(row) for row in rows]}
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


# Every report format, with its writer: the one list that output.formats,
# the CLI's --format and emit_report read.
REPORT_WRITERS = {"csv": emit_csv, "json": emit_json}


def emit_report(rows: list[dict], meta: dict, fmt: str, path) -> None:
    if fmt not in REPORT_WRITERS:
        raise ValueError(f"unknown report format: {fmt}")
    REPORT_WRITERS[fmt](rows, meta, path)
