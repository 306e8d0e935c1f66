"""Test-side builders for objects the package itself never builds this way,
and the reference definitions the package's faster paths are checked
against."""

import statistics
from functools import reduce
from itertools import compress
from operator import add, not_, truediv

from dispatchsim.cluster import Cluster, PhaseTimeline, _code_key, _truncate_at
from dispatchsim.errors import UnknownObjectError
from dispatchsim.metrics import (
    FAILED, RecordStore, efficiency, percentile_nearest_rank, utilization,
)
from dispatchsim.strategies import data_signature
from dispatchsim.workload import Invocation, Trace


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


def store_from_records(records) -> RecordStore:
    """A store holding the given TaskRecords. Raises ValueError for a
    record it cannot represent: a finished_at other than started_at plus
    the phase sum, or a second ideal_ms for one function."""
    records = list(records)
    ideal_ms: dict[str, int] = {}
    for r in records:
        t = r.timeline
        if t.actual_ms() != phase_sum(t):
            raise ValueError(f"record {r.invocation_id}: actual time is not the phase sum")
        if ideal_ms.setdefault(r.function, r.ideal_ms) != r.ideal_ms:
            raise ValueError(f"record {r.invocation_id}: second ideal_ms for {r.function}")
    # The trace is in arrival order; record k is its entry position[k].
    order = sorted(range(len(records)), key=lambda k: records[k].timeline.started_at)
    trace = Trace.from_invocations(
        Invocation(records[k].invocation_id, records[k].function, (), "",
                   records[k].timeline.started_at) for k in order)
    position = [0] * len(records)
    for p, k in enumerate(order):
        position[k] = p
    store = RecordStore(ideal_ms, trace)
    for r, p in zip(records, position):
        t = r.timeline
        store.append(p, r.node, (t.dispatch_ms, t.queue_wait_ms, *active_phases(t)),
                     r.billed_gb_s, r.status == FAILED)
    return store


def billed_total(values):
    """GB-s billed over ``values`` by left-to-right float addition from the
    int 0, in the order given: builtin ``sum`` on 3.10 and 3.11, which 3.12
    replaced by a compensated sum."""
    return reduce(add, values, 0)


def summarize_run(strategy: str, seed, records: RecordStore, occupied_ms_total: int,
                  node_count: int, horizon_ms: int, replications: int, steals: int) -> dict:
    """The report row over a kept store's columns: the summary RunResult.row
    computed before a run kept a RunAccount, and the reference the account
    is checked against. Latency statistics and quality are over completed
    tasks; phase totals, efficiency and the elapsed time (the horizon, or
    the last finish if later) cover every recorded task."""
    phases = memoryview(records._phases)
    columns = [phases[k::7] for k in range(7)]
    dispatch, queue_wait, boot, code_fetch, data_fetch, compute, write_back = map(sum, columns)
    failed = records._failed
    # A task's actual time is its phase sum, and it finishes at arrival + sum.
    sums = list(map(sum, zip(*columns)))
    actuals = list(compress(sums, map(not_, failed)))
    trace = records._trace
    arrivals = map(trace.arrivals.__getitem__, records._index)
    last_finish = max(map(add, arrivals, sums), default=0)
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
        "efficiency": efficiency(compute, boot + code_fetch + data_fetch + compute + write_back),
        "utilization": utilization(occupied_ms_total, node_count, max(horizon_ms, last_finish)),
        "gb_seconds": billed_total(compress(records._billed, map(not_, failed))),
        "invocations_billed": len(actuals),
        "dispatch_ms_total": dispatch,
        "queue_ms_total": queue_wait,
        "boot_ms_total": boot,
        "code_fetch_ms_total": code_fetch,
        "data_fetch_ms_total": data_fetch,
        "compute_ms_total": compute,
        "write_back_ms_total": write_back,
        "replications": replications,
        "steals": steals,
    }


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
    return strategy.decide(Trace.from_invocations([inv]), 0, cluster)


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
