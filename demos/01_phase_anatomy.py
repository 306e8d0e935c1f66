"""Anatomy of a single invocation: where the milliseconds go.

Runs the same function three times against one node and prints the phase
timeline of each execution: a cold start that fetches code and data over
the network, a warm re-run that finds everything cached, and a run on a
second node that still pays the data penalty. Ends with what each run
costs in GB-seconds.
"""

from dispatchsim.cluster import Cluster, ClusterParams, DataObject, FunctionSpec, PhaseTimeline
from dispatchsim.metrics import billed_gb_seconds

cluster = Cluster(
    ClusterParams(nodes=2, mem_capacity=1024, store_capacity=1000),
    functions={"thumbnail": FunctionSpec("thumbnail", code_size=10, flavor=128,
                                         compute_ms=80)},
    objects=[DataObject("photos", 50.0)],
)
cluster.ingest_origin("photos", 1)  # the data starts on node 1

PHASES = ("boot_ms", "code_fetch_ms", "data_fetch_ms", "compute_ms", "write_back_ms")
DISPATCH_MS = 1


def run(node_id, cold, arrival):
    """The timeline of a thumbnail run on node_id that arrived at arrival and
    started after one dispatch millisecond: the cost model's active phases
    behind the dispatch and a queue wait of zero."""
    active, _ = cluster.simulate_invocation("thumbnail", ("photos",), node_id, cold)
    return PhaseTimeline(DISPATCH_MS, 0, *active, started_at=arrival,
                         finished_at=arrival + DISPATCH_MS + sum(active))


def show(title, timeline):
    print(f"\n{title}")
    for phase in PHASES:
        print(f"  {phase:<15} {getattr(timeline, phase):>6} ms")
    print(f"  {'total':<15} {timeline.actual_ms():>6} ms"
          f"   -> {billed_gb_seconds(timeline, 128):.4f} GB-s billed")


# 1. Cold start on node 0: boot the container, pull 10MB of code from the
#    code store, pull 50MB of data from node 1. Everything is overhead.
outcome, container = cluster.acquire_container(0, "thumbnail")
timeline = run(0, cold=True, arrival=0)
show(f"cold start on node 0 ({outcome.value})", timeline)
cluster.release_container(container, timeline.finished_at)

# 2. Same event again: the container is warm and the fetched data was
#    written through into node 0's store, so only compute remains.
outcome, container = cluster.acquire_container(0, "thumbnail")
timeline = run(0, cold=False, arrival=1000)
show(f"warm re-run on node 0 ({outcome.value})", timeline)
cluster.release_container(container, timeline.finished_at)

# 3. Node 1 owns the data but has no container yet: cold, but data is free.
outcome, container = cluster.acquire_container(1, "thumbnail")
timeline = run(1, cold=True, arrival=2000)
show(f"cold start on node 1, data already local ({outcome.value})", timeline)

print("\nThe 80ms of useful compute is the same every time; dispatching to"
      "\nthe wrong node multiplies the rest.")
