"""Test-side builders for objects the package itself never builds this way."""

from dispatchsim.metrics import FAILED, RecordStore
from dispatchsim.strategies import data_signature
from dispatchsim.workload import Invocation, Trace


def phase_sum(timeline) -> int:
    """The sum of a PhaseTimeline's seven phases, which a consistent
    timeline's actual time (finished_at - started_at) equals."""
    t = timeline
    return (t.dispatch_ms + t.queue_wait_ms + t.boot_ms + t.code_fetch_ms
            + t.data_fetch_ms + t.compute_ms + t.write_back_ms)


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
        store.append(p, r.node, r.timeline, r.billed_gb_s, r.status == FAILED)
    return store


def cluster_key(inv) -> tuple[str, str, str]:
    """The key proactive_cluster pins an invocation's node under: triggered
    code, referenced data and origin tag."""
    return (inv.function, data_signature(inv.data_refs), inv.origin)
