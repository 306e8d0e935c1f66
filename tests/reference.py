"""Test-side builders for objects the package itself never builds this way,
and the reference definitions the package's faster paths are checked
against."""

import math
import statistics
from functools import reduce
from operator import add
from typing import NamedTuple

from dispatchsim import runner
from dispatchsim.cluster import Cluster, _code_key, _truncate_at
from dispatchsim.config import StrategyConfig, parse_scenario
from dispatchsim.errors import UnknownObjectError
from dispatchsim.metrics import efficiency, percentile_nearest_rank, utilization
from dispatchsim.slotted import Slotted
from dispatchsim.strategies import ReplicationAction, data_signature
from dispatchsim.workload import Trace

from conftest import scenario_dict

COMPLETED = "completed"
FAILED = "failed"


# ---- invocations as objects ------------------------------------------------------------


class Invocation(NamedTuple):
    """One dispatchable event, as a test builds, reads and compares it."""

    id: str
    function: str
    data_refs: tuple[str, ...]
    origin: str
    arrival: int


def trace_of(invs) -> Trace:
    """A Trace of the given invocations, stably sorted by arrival, built as
    load_trace builds one: through Trace._adder and Trace._sort."""
    trace = Trace(ids=[])
    add_one = trace._adder()
    for inv in invs:
        add_one(inv.id, inv.function, tuple(inv.data_refs), inv.origin, inv.arrival)
    trace._sort()
    return trace


def invocation_at(trace: Trace, i: int) -> Invocation:
    """The invocation at index i of a trace, read from its columns."""
    return Invocation(trace.invocation_id(i), trace.functions[trace.function_codes[i]],
                      trace.ref_sets[trace.ref_codes[i]], trace.origins[trace.origin_codes[i]],
                      trace.arrivals[i])


def invocations(trace: Trace) -> list[Invocation]:
    """A trace's invocations in trace order."""
    return [invocation_at(trace, i) for i in range(len(trace))]


def reference_billed_gb_seconds(active_ms: int, flavor_mb: int, granularity_ms: int) -> float:
    """The billing rule by float division: active ms rounded up to the
    granularity with math.ceil(active / granularity), times the flavor in
    GB. metrics.billed_gb_seconds is checked against it."""
    rounded_ms = math.ceil(active_ms / granularity_ms) * granularity_ms
    return (rounded_ms / 1000.0) * (flavor_mb / 1024.0)


class PhaseTimeline(Slotted):
    """Per-invocation time breakdown; all phases are integer ms."""

    __slots__ = ("dispatch_ms", "queue_wait_ms", "boot_ms", "code_fetch_ms",
                 "data_fetch_ms", "compute_ms", "write_back_ms", "started_at", "finished_at")

    def __init__(self, dispatch_ms: int = 0, queue_wait_ms: int = 0, boot_ms: int = 0,
                 code_fetch_ms: int = 0, data_fetch_ms: int = 0, compute_ms: int = 0,
                 write_back_ms: int = 0, started_at: int = 0, finished_at: int = 0):
        self.dispatch_ms = dispatch_ms
        self.queue_wait_ms = queue_wait_ms
        self.boot_ms = boot_ms
        self.code_fetch_ms = code_fetch_ms
        self.data_fetch_ms = data_fetch_ms
        self.compute_ms = compute_ms
        self.write_back_ms = write_back_ms
        self.started_at = started_at
        self.finished_at = finished_at

    def actual_ms(self) -> int:
        return self.finished_at - self.started_at

    def active_ms(self) -> int:
        """Time the container is occupied (everything but dispatch and queue)."""
        return (
            self.boot_ms
            + self.code_fetch_ms
            + self.data_fetch_ms
            + self.compute_ms
            + self.write_back_ms
        )


class TaskRecord(Slotted):
    """One task's record: the per-invocation object a run used to keep."""

    __slots__ = ("invocation_id", "function", "node", "timeline", "ideal_ms", "billed_gb_s",
                 "status")

    def __init__(self, invocation_id: str, function: str, node: int, timeline: PhaseTimeline,
                 ideal_ms: int, billed_gb_s: float, status: str):
        self.invocation_id = invocation_id
        self.function = function
        self.node = node
        self.timeline = timeline
        self.ideal_ms = ideal_ms
        self.billed_gb_s = billed_gb_s
        self.status = status  # COMPLETED or FAILED


def quality(record: TaskRecord) -> float:
    """ideal / actual for a completed task; undefined for failed tasks."""
    if record.status != COMPLETED:
        raise ValueError(f"quality undefined for {record.status} task {record.invocation_id}")
    return record.ideal_ms / record.timeline.actual_ms()


def phase_sum(timeline) -> int:
    """The sum of a PhaseTimeline's seven phases, which a consistent
    timeline's actual time (finished_at - started_at) equals."""
    t = timeline
    return (t.dispatch_ms + t.queue_wait_ms + t.boot_ms + t.code_fetch_ms
            + t.data_fetch_ms + t.compute_ms + t.write_back_ms)


def active_phases(timeline) -> tuple[int, int, int, int, int]:
    """A PhaseTimeline's five active phases, in field order: what
    Cluster.simulate_invocation returns."""
    t = timeline
    return (t.boot_ms, t.code_fetch_ms, t.data_fetch_ms, t.compute_ms, t.write_back_ms)


def record_collector(trace: Trace, functions, records: list):
    """An on_complete hook that appends each completion of a run of
    ``trace`` to ``records`` as a TaskRecord, built at once. ``functions``
    maps a function name to its FunctionSpec (the run's cluster.functions);
    the task starts at its arrival and finishes after its phase sum."""
    append = records.append

    def on_complete(index, node, phases, billed, failed):
        function = trace.functions[trace.function_codes[index]]
        started_at = trace.arrivals[index]
        append(TaskRecord(
            trace.invocation_id(index), function, node,
            PhaseTimeline(*phases, started_at=started_at, finished_at=started_at + sum(phases)),
            functions[function].compute_ms, billed, FAILED if failed else COMPLETED))

    return on_complete


def run_with_records(scenario, strategy_cfg, seed, catalog=None, trace=None, label=None):
    """runner.run_one with a record_collector hook: (RunResult, its
    TaskRecords in completion order)."""
    if catalog is None and trace is None:
        catalog, trace = runner.prepare_workload(scenario, seed)
    records: list = []
    result = runner.run_one(scenario, strategy_cfg, seed, catalog, trace, label,
                            on_complete=record_collector(trace, catalog.functions, records))
    return result, records


def simulate(simulation_cls, scenario, strategy_cfg, seed, log=lambda engine: []):
    """Run ``simulation_cls`` (Simulation or a subclass) on the seed's
    workload, its engine logging into ``log(engine)``: (simulation, result,
    the hook's completions in completion order)."""
    catalog, trace = runner.prepare_workload(scenario, seed)
    completions = []
    sim = simulation_cls(scenario, strategy_cfg, seed, catalog, trace,
                         on_complete=lambda *completion: completions.append(completion))
    sim.engine.log = log(sim.engine)
    return sim, sim.run(), completions


# ---- the engine log of a run -------------------------------------------------------

_EVENT_NAMES = {"_arrive": "arrival", "_try_start": "offer", "_complete": "completion",
                "_keep_alive": "keep-alive", "_steal_tick": "steal-tick",
                "_replication_tick": "replication-tick"}


def event_label(sim, action, args) -> str:
    """The name of one fired occurrence of a Simulation's run, from its
    engine log entry's handler and arguments: arrival, offer:<id>,
    completion:<id>, keep-alive:<node>, steal-tick or replication-tick,
    where <id> is the invocation's id in the run's trace. Logs of two runs
    compare through these names: handlers and containers compare by identity."""
    name = _EVENT_NAMES[action.__name__]
    if name in ("offer", "completion"):
        return f"{name}:{sim.trace.invocation_id(args[0])}"
    if name == "keep-alive":
        return f"{name}:{args[0]}"
    return name


# ---- a run's completions, one at a time ---------------------------------------------

IDEAL_MS = {"f1": 80, "f2": 1, "f3": 1500}
IDEAL_SCENARIO = parse_scenario(scenario_dict(workload={"functions": [
    {"name": name, "code_size": 1, "flavor": 128, "compute_ms": ideal}
    for name, ideal in IDEAL_MS.items()]}))


class _Container:
    node = 0


def as_task(record: TaskRecord) -> tuple:
    """A TaskRecord as complete_all takes it."""
    t = record.timeline
    return (t.started_at, record.function, (t.dispatch_ms, t.queue_wait_ms, *active_phases(t)),
            record.billed_gb_s, record.status == FAILED)


def complete_all(tasks):
    """A Simulation of the given tasks on one node, each passed to
    _complete at its finish (arrival plus phase sum) in finish order, ties
    in the order given, and the TaskRecords its record_collector hook
    built, as (simulation, records). A task is (arrival, function, phases,
    billed, failed), its function one of IDEAL_MS; it is inv-<position>.
    A run has one dispatch latency, so every task's dispatch phase must be
    the same: the run is built with it, and its account is closed as the
    end of a run closes it, with the dispatch total that latency times the
    task count."""
    tasks = list(tasks)
    latencies = {phases[0] for _, _, phases, *_ in tasks}
    assert len(latencies) <= 1, f"tasks of one run with dispatch phases {latencies}"
    latency = latencies.pop() if latencies else 0
    trace = trace_of(
        Invocation(f"inv-{i}", function, (), "", arrival)
        for i, (arrival, function, *_) in enumerate(tasks))
    catalog, _ = runner.prepare_workload(IDEAL_SCENARIO, 1)
    records: list = []
    sim = runner.Simulation(IDEAL_SCENARIO, StrategyConfig(dispatch_latency_ms=latency), 1,
                            catalog, trace,
                            on_complete=record_collector(trace, catalog.functions, records))
    engine = sim.engine  # never run: the loop below sets its clock
    sim.cluster.release_container = lambda container, now: None
    index = {inv_id: i for i, inv_id in enumerate(trace.ids)}  # trace order is sorted
    finish_order = sorted(range(len(tasks)), key=lambda k: tasks[k][0] + sum(tasks[k][2]))
    for k in finish_order:
        arrival, _, (_, wait, *active), billed, failed = tasks[k]
        engine.now = arrival + latency + wait + sum(active)
        sim._complete(index[f"inv-{k}"], _Container(), wait, tuple(active), billed, failed)
    sim.result.dispatch_ms_total = latency * sim.result.tasks
    return sim, records


# ---- the summary over TaskRecords -----------------------------------------------------


def billed_total(values):
    """GB-s billed over ``values`` by left-to-right float addition from the
    int 0, in the order given: builtin ``sum`` on 3.10 and 3.11, which 3.12
    replaced by a compensated sum."""
    return reduce(add, values, 0)


def reference_summarize_run(strategy, seed, records, compute_ms_total, busy_ms_total,
                            occupied_ms_total, node_count, elapsed_ms, replications, steals):
    """The report row over a list of TaskRecords, the run totals given:
    what a run's account is checked against. Latency statistics and
    quality are over completed tasks; phase totals cover every task."""
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


def summarize_records(strategy, seed, records, occupied_ms_total, node_count, horizon_ms,
                      replications, steals):
    """reference_summarize_run with the compute and busy totals summed over
    the records, and the elapsed time the horizon or the last finish if
    that is later: the totals a RunResult's row reads."""
    return reference_summarize_run(
        strategy, seed, records,
        sum(r.timeline.compute_ms for r in records),
        sum(r.timeline.active_ms() for r in records),
        occupied_ms_total, node_count,
        max([horizon_ms] + [r.timeline.finished_at for r in records]),
        replications, steals)


def row_with_totals(result, strategy, seed, occupied_ms_total, node_count, horizon_ms,
                    replications, steals) -> dict:
    """result.row() with the run totals set on the RunResult first, the
    arguments summarize_records takes after the records: ``replications``
    becomes that many placed ReplicationActions in its replication log."""
    result.strategy, result.seed = strategy, seed
    result.occupied_ms_total, result.node_count = occupied_ms_total, node_count
    result.horizon_ms, result.steals = horizon_ms, steals
    result.replication_log = [(0, ReplicationAction("o", 0, True, "placed"))] * replications
    return result.row()


def reference_makespan_ms(records) -> int:
    """Last finish minus first start over TaskRecords; 0 when there are
    none: the makespan RunResult.makespan_ms is checked against."""
    if not records:
        return 0
    return (max(r.timeline.finished_at for r in records)
            - min(r.timeline.started_at for r in records))


def cluster_key(inv) -> tuple[str, str, str]:
    """The key proactive_cluster pins an invocation's node under: triggered
    code, referenced data and origin tag."""
    return (inv.function, data_signature(inv.data_refs), inv.origin)


def decide(strategy, inv, cluster) -> int:
    """strategy's node for one invocation, decided as the invocation at
    index 0 of a trace holding only it."""
    return strategy.decide(trace_of([inv]), 0, cluster)


class ReferenceCluster(Cluster):
    """A Cluster whose cost model builds the whole PhaseTimeline of an
    invocation view, dispatch and queue wait included: the definition
    Cluster.simulate_invocation's phase tuple is checked against."""

    def simulate_invocation(self, inv, node_id: int, cold: bool, dispatch_ms: int,
                            queue_wait_ms: int) -> tuple[PhaseTimeline, bool]:
        """Compute the phase timeline for an invocation that has just
        acquired a container on ``node_id``.

        Overheads: boot and code fetch apply only to cold starts (code is
        pulled from the code store unless already cached on the node); each
        referenced object without a local replica is fetched sequentially
        and written through into the node store. Returns (timeline, failed)
        where failed means the active time hit the execution cap; capped
        executions occupy the node for exactly the cap.
        """
        node = self.nodes[node_id]
        spec = self.functions[inv.function]

        boot = 0 if not cold else self.params.container_boot_ms
        code_fetch = 0
        if cold and spec.code_size > 0:
            code_local = (
                _code_key(inv.function) in node.store_entries
                or self.params.code_store == node_id
            )
            code_fetch = self.network.transfer_time(spec.code_size, remote=not code_local)
            if not code_local:
                self._cache_code(inv.function, spec.code_size, node)

        data_fetch = 0
        for ref in inv.data_refs:
            obj = self.objects.get(ref)
            if obj is None:
                raise UnknownObjectError(ref)
            if node_id not in obj.placements:
                data_fetch += self.network.transfer_time(obj.size, remote=True)
                self.cache_object(ref, node_id)

        compute = spec.compute_ms
        write_back = 0
        if spec.write_back > 0:
            write_back = self.network.transfer_time(
                spec.write_back, remote=self.params.result_store != node_id
            )

        cap = self.params.max_execution_ms
        active = boot + code_fetch + data_fetch + compute + write_back
        failed = active > cap
        if failed:
            boot, code_fetch, data_fetch, compute, write_back = _truncate_at(
                (boot, code_fetch, data_fetch, compute, write_back), cap
            )
            active = cap

        started_at = inv.arrival
        exec_start = started_at + dispatch_ms + queue_wait_ms
        timeline = PhaseTimeline(  # positional, in field order
            dispatch_ms, queue_wait_ms, boot, code_fetch, data_fetch, compute, write_back,
            started_at, exec_start + active,
        )
        return timeline, failed
