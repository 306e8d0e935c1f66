"""Anatomy of a single invocation: where the milliseconds go.

Runs the same function three times against one node and prints the phases
of each execution: a cold start that fetches code and data over
the network, a warm re-run that finds everything cached, and a run on a
second node that still pays the data penalty. Ends with what each run
costs in GB-seconds.
"""

from dispatchsim.cluster import Cluster, ClusterParams, DataObject, FunctionSpec
from dispatchsim.metrics import PHASES, billed_gb_seconds

cluster = Cluster(
    ClusterParams(nodes=2, mem_capacity=1024, store_capacity=1000),
    functions={"thumbnail": FunctionSpec("thumbnail", code_size=10, flavor=128,
                                         compute_ms=80)},
    objects=[DataObject("photos", 50.0)],
)
cluster.place_object("photos", 1, origin=True)  # the data starts on node 1

DISPATCH_MS = 1


def run(node_id, cold):
    """The phases, in PHASES order, of a thumbnail run on node_id that
    started after one dispatch millisecond: the dispatch, a queue wait of
    zero and the cost model's five active phases."""
    active, _ = cluster.simulate_invocation("thumbnail", ("photos",), node_id, cold)
    return (DISPATCH_MS, 0) + active


def show(title, phases):
    print(f"\n{title}")
    for phase, ms in zip(PHASES[2:], phases[2:]):
        print(f"  {phase + '_ms':<15} {ms:>6} ms")
    billed = billed_gb_seconds(sum(phases[2:]), 128, cluster.params.billing_granularity_ms)
    print(f"  {'total':<15} {sum(phases):>6} ms   -> {billed:.4f} GB-s billed")


# 1. Cold start on node 0: boot the container, pull 10MB of code from the
#    code store, pull 50MB of data from node 1. Everything is overhead.
outcome, container = cluster.acquire_container(0, "thumbnail")
phases = run(0, cold=True)
show(f"cold start on node 0 ({outcome.value})", phases)
cluster.release_container(container, sum(phases))  # it arrived at 0

# 2. Same event again: the container is warm and the fetched data was
#    written through into node 0's store, so only compute remains.
outcome, container = cluster.acquire_container(0, "thumbnail")
phases = run(0, cold=False)
show(f"warm re-run on node 0 ({outcome.value})", phases)
cluster.release_container(container, 1000 + sum(phases))  # it arrived at 1000

# 3. Node 1 owns the data but has no container yet: cold, but data is free.
outcome, container = cluster.acquire_container(1, "thumbnail")
phases = run(1, cold=True)
show(f"cold start on node 1, data already local ({outcome.value})", phases)

print("\nThe 80ms of useful compute is the same every time; dispatching to"
      "\nthe wrong node multiplies the rest.")
