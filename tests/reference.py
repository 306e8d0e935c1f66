"""Test-side builders for objects the package itself never builds this way,
and the reference definitions the package's faster paths are checked
against."""

from dispatchsim.cluster import Cluster, PhaseTimeline, _code_key, _truncate_at
from dispatchsim.errors import UnknownObjectError
from dispatchsim.metrics import FAILED, RecordStore
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
