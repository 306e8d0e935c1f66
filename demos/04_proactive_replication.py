"""Proactive clustering plus popularity-driven replication.

The proactive strategy pins each recurring event cluster (function +
referenced data + origin) to one node and counts which objects are in
demand where. A replication pass runs every second: any object whose
decayed access count crosses the threshold gets copied to the node that
wants it most among those lacking a replica.

Two container slots per node and 1.5s of compute keep queues long, so
popular objects are wanted on nodes that have not fetched them yet; the
replication pass closes that gap before the queued work runs. Watch
replicas spread and the share of all-local tasks climb over the run.
"""

from dispatchsim.config import parse_scenario
from dispatchsim.runner import prepare_workload, run_one

scenario = parse_scenario({
    "cluster": {"nodes": 4, "mem_capacity": 256, "store_capacity": 2000},
    "workload": {
        "horizon_ms": 10_000,
        "arrival": {"kind": "poisson", "rate_per_s": 80},
        "functions": [
            {"name": "score", "code_size": 5, "flavor": 128, "compute_ms": 1500},
        ],
        "objects": {"count": 12, "size": 60, "popularity": {"kind": "zipf", "s": 1.2}},
        "refs_per_invocation": [1, 2],
    },
    "strategy": {
        "name": "proactive_cluster",
        "replication": {"period_ms": 1000, "threshold": 10, "decay": 0.5},
    },
    "seeds": [1],
})

catalog, trace = prepare_workload(scenario, 1)
with_refs = []  # (arrival, data fetch ms) of each task that references data


def note_fetch(index, node, phases, billed, failed):
    if trace.ref_sets[trace.ref_codes[index]]:
        with_refs.append((trace.arrivals[index], phases[4]))  # phases[4]: data fetch


result = run_one(scenario, scenario.strategies[0], 1, catalog, trace, on_complete=note_fetch)

print(f"{len(trace)} invocations, {result.replications} replicas created\n")
print("replication actions (first ten):")
for at, action in result.replication_log[:10]:
    status = "placed" if action.placed else f"skipped ({action.note})"
    print(f"  t={at:>5} ms  {action.object_id} -> node {action.node}  {status}")

# Locality trend: the share of tasks that found every referenced byte
# already local, by quarter of the run (tasks ordered by arrival).
with_refs.sort(key=lambda task: task[0])
quarter = max(1, len(with_refs) // 4)
print("\nshare of tasks finding all referenced bytes local:")
for i in range(0, len(with_refs), quarter):
    chunk = with_refs[i:i + quarter]
    all_local = sum(1 for _, data_fetch_ms in chunk if data_fetch_ms == 0) / len(chunk)
    print(f"  tasks {i + 1:>4}-{i + len(chunk):<4} {all_local:>6.1%} all-local")
