"""Cluster model: placement, locality, transfer costs, container lifecycle
and phase timelines."""

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim.cluster import (
    EXTERNAL_STORE,
    AcquireOutcome,
    Cluster,
    ClusterParams,
    DataObject,
    FunctionSpec,
    NetworkModel,
    PlacementOutcome,
)
from dispatchsim.engine import RandomSource
from dispatchsim.errors import UnknownNodeError, UnknownObjectError

from reference import Invocation, ReferenceCluster, active_phases, phase_sum

F1 = FunctionSpec("f1", code_size=10, flavor=128, compute_ms=80)


def make_cluster(nodes=2, mem=1024, store=1000, objects=(), functions=(F1,), cls=Cluster,
                 **params):
    return cls(
        ClusterParams(nodes=nodes, mem_capacity=mem, store_capacity=store, **params),
        {f.name: f for f in functions},
        [DataObject(oid, size) for oid, size in objects],
    )


def inv(function="f1", refs=(), arrival=0, ident="inv-000000"):
    return Invocation(ident, function, tuple(refs), "default", arrival)


# ---- placement ---------------------------------------------------------------


def test_place_object_consumes_store_capacity():
    c = make_cluster(objects=[("a", 100)])
    assert c.place_object("a", 0) is PlacementOutcome.PLACED
    assert c.nodes[0].store_free() == 900


def test_place_object_is_idempotent():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 0)
    assert c.place_object("a", 0) is PlacementOutcome.ALREADY_PRESENT
    assert c.nodes[0].store_free() == 900


def test_place_object_rejects_when_store_is_full():
    c = make_cluster(store=150, objects=[("a", 200)])
    assert c.place_object("a", 0) is PlacementOutcome.NO_CAPACITY
    assert 0 not in c.objects["a"].placements


def test_place_object_unknown_ids_raise():
    c = make_cluster(objects=[("a", 100)])
    with pytest.raises(UnknownObjectError):
        c.place_object("nope", 0)
    for node_id in (99, -1, len(c.nodes)):  # a list index would take -1 as the last node
        with pytest.raises(UnknownNodeError):
            c.place_object("a", node_id)
    assert c.objects["a"].placements == set()


def test_cache_evicts_fifo_but_never_origin_replicas():
    c = make_cluster(nodes=1, store=250, objects=[("keep", 100), ("x", 100), ("y", 100)])
    c.place_object("keep", 0, origin=True)
    assert c.cache_object("x", 0)
    assert c.cache_object("y", 0)  # evicts x (oldest non-origin), keeps origin
    assert 0 in c.objects["y"].placements
    assert 0 not in c.objects["x"].placements
    assert 0 in c.objects["keep"].placements


def test_cache_fails_when_only_origins_occupy_store():
    c = make_cluster(nodes=1, store=150, objects=[("keep", 100), ("x", 100)])
    c.place_object("keep", 0, origin=True)
    assert not c.cache_object("x", 0)


# ---- locality ----------------------------------------------------------------


def test_locality_of_empty_refs_is_one():
    c = make_cluster()
    assert c.locality_fraction((), 0) == 1.0


def test_locality_is_byte_weighted():
    # Oracle: local bytes over total bytes, summed by hand: 100 / (100+300).
    c = make_cluster(objects=[("a", 100), ("b", 300)])
    c.place_object("a", 0)
    c.place_object("b", 1)
    assert c.locality_fraction(("a", "b"), 0) == pytest.approx(0.25)


def test_locality_is_one_when_all_refs_local():
    c = make_cluster(objects=[("a", 100), ("b", 300)])
    c.place_object("a", 0)
    c.place_object("b", 0)
    assert c.locality_fraction(("a", "b"), 0) == 1.0


def test_locality_unknown_ref_raises():
    c = make_cluster()
    with pytest.raises(UnknownObjectError):
        c.locality_fraction(("ghost",), 0)


def test_locality_unknown_node_raises():
    c = make_cluster(objects=[("a", 100)])
    for node_id in (99, -1, len(c.nodes)):
        with pytest.raises(UnknownNodeError):
            c.locality_fraction(("a",), node_id)


# ---- transfer costs ----------------------------------------------------------


def test_transfer_time_local_is_free():
    assert NetworkModel().transfer_time(0, remote=False) == 0
    assert NetworkModel().transfer_time(500, remote=False) == 0


def test_transfer_time_remote_hand_arithmetic():
    net = NetworkModel(latency_ms=1, bandwidth_mb_per_s=100)
    assert net.transfer_time(100, remote=True) == 1001  # 1 + 100/100*1000
    assert net.transfer_time(10, remote=True) == 101
    assert net.transfer_time(20, remote=True) == 201


# ---- container lifecycle -------------------------------------------------------


def test_acquire_prefers_warm_container():
    c = make_cluster()
    outcome, container = c.acquire_container(0, "f1")
    assert outcome is AcquireOutcome.COLD_START
    c.release_container(container)
    outcome, again = c.acquire_container(0, "f1")
    assert outcome is AcquireOutcome.WARM_HIT
    assert again is container


def test_acquire_cold_start_needs_free_memory():
    c = make_cluster(mem=500)
    outcome, _ = c.acquire_container(0, "f1")
    assert outcome is AcquireOutcome.COLD_START
    assert c.nodes[0].free_mem() == 372


def test_acquire_rejected_when_memory_short():
    c = make_cluster(mem=64)  # flavor is 128
    outcome, container = c.acquire_container(0, "f1")
    assert outcome is AcquireOutcome.REJECTED
    assert container is None


def test_expire_frees_flavor_memory():
    c = make_cluster()
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    assert c.nodes[0].mem_used == 128
    assert c.expire_container(container) == 128
    assert c.nodes[0].mem_used == 0


def test_expire_after_reuse_frees_nothing():
    c = make_cluster()
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    c.acquire_container(0, "f1")  # warm reuse: busy again, so not expirable
    assert c.expire_container(container) == 0
    assert c.nodes[0].mem_used == 128


def test_expiry_removes_exactly_one_of_two_idle_containers():
    c = make_cluster()
    _, c1 = c.acquire_container(0, "f1")
    _, c2 = c.acquire_container(0, "f1")
    c.release_container(c1)
    c.release_container(c2)
    assert c.expire_container(c1) == 128
    assert len(c.nodes[0].warm_pool["f1"]) == 1
    assert c.nodes[0].mem_used == 128


def test_memory_never_exceeds_capacity_under_random_churn():
    c = make_cluster(mem=300)
    rng = RandomSource(5, "churn")
    live = []
    for _ in range(500):
        if live and rng.random() < 0.4:
            action = rng.randint(0, 1)
            container = live.pop(rng.randint(0, len(live) - 1))
            c.release_container(container)
            if action:
                c.expire_container(container)
        else:
            outcome, container = c.acquire_container(0, "f1")
            if outcome is not AcquireOutcome.REJECTED:
                live.append(container)
        assert c.nodes[0].mem_used <= c.nodes[0].mem_capacity
    c.check_invariants()


# ---- phase timelines -----------------------------------------------------------
# simulate_invocation returns the active phases (boot, code fetch, data fetch,
# compute, write-back) and whether the cap failed the execution.


def test_warm_local_invocation_has_zero_overhead():
    c = make_cluster(objects=[("a", 20)])
    c.place_object("a", 0)
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    c.acquire_container(0, "f1")
    phases, failed = c.simulate_invocation("f1", ("a",), 0, cold=False)
    assert not failed
    assert sum(phases) == 80
    boot, code_fetch, data_fetch, _, write_back = phases
    assert (boot, code_fetch, data_fetch, write_back) == (0, 0, 0, 0)


def test_cold_remote_invocation_phase_sum():
    # Phase-sum oracle: 100 boot + 101 code + 201 data + 80 compute = 482.
    c = make_cluster(objects=[("a", 20)])
    c.place_object("a", 1)
    c.acquire_container(0, "f1")
    phases, failed = c.simulate_invocation("f1", ("a",), 0, cold=True)
    assert not failed
    boot, code_fetch, data_fetch, compute, write_back = phases
    assert boot == 100
    assert code_fetch == 101
    assert data_fetch == 201
    assert compute == 80
    assert sum(phases) == 482
    assert write_back == 0


def test_second_run_on_same_node_reuses_container_and_cache():
    c = make_cluster(objects=[("a", 20)])
    c.place_object("a", 1)
    _, container = c.acquire_container(0, "f1")
    first, _ = c.simulate_invocation("f1", ("a",), 0, cold=True)
    c.release_container(container)
    outcome, _ = c.acquire_container(0, "f1")
    assert outcome is AcquireOutcome.WARM_HIT
    second, _ = c.simulate_invocation("f1", ("a",), 0, cold=False)
    assert first[2] == 201
    assert second[:3] == (0, 0, 0)
    assert sum(second) == 80


def test_cached_code_makes_later_cold_start_cheaper():
    c = make_cluster()
    c.acquire_container(0, "f1")
    first, _ = c.simulate_invocation("f1", (), 0, cold=True)
    c.acquire_container(0, "f1")  # second cold container on the same node
    second, _ = c.simulate_invocation("f1", (), 0, cold=True)
    assert first[1] == 101
    assert second[1] == 0  # code already in the node store
    assert second[0] == 100


def test_repeat_invocation_data_fetch_never_grows():
    c = make_cluster(objects=[("a", 50), ("b", 30)])
    c.place_object("a", 1)
    c.place_object("b", 1)
    c.acquire_container(0, "f1")
    first, _ = c.simulate_invocation("f1", ("a", "b"), 0, cold=True)
    second, _ = c.simulate_invocation("f1", ("a", "b"), 0, cold=False)
    assert second[2] <= first[2]
    assert second[2] == 0


def test_warm_total_never_exceeds_cold_total():
    for refs, store in (((), 1000), (("a",), 1000), (("a",), 0)):
        objects = [("a", 40)] if refs else []
        cold_cluster = make_cluster(objects=objects, store=store)
        warm_cluster = make_cluster(objects=objects, store=store)
        for cl in (cold_cluster, warm_cluster):
            if refs:
                cl.place_object("a", 1)
        cold_phases, _ = cold_cluster.simulate_invocation("f1", refs, 0, cold=True)
        warm_phases, _ = warm_cluster.simulate_invocation("f1", refs, 0, cold=False)
        assert sum(warm_phases) <= sum(cold_phases)


def test_write_back_costs_transfer_to_external_store():
    f = FunctionSpec("wb", code_size=0, flavor=128, compute_ms=10, write_back=10)
    c = make_cluster(functions=(f,))
    c.acquire_container(0, "wb")
    (boot, code_fetch, _, _, write_back), _ = c.simulate_invocation("wb", (), 0, cold=True)
    assert write_back == 101
    assert boot == 100
    assert code_fetch == 0  # nothing to fetch for zero-size code


def test_execution_cap_truncates_and_fails_task():
    f = FunctionSpec("big", code_size=0, flavor=128, compute_ms=250)
    c = make_cluster(functions=(f,), max_execution_ms=300)
    c.acquire_container(0, "big")
    phases, failed = c.simulate_invocation("big", (), 0, cold=True)
    assert failed
    assert sum(phases) == 300  # node occupied for exactly the cap
    assert phases[0] == 100 and phases[3] == 200
    # Behind 3 ms of dispatch and 2 of queue wait, the task takes 305 ms.
    ref = make_cluster(functions=(f,), max_execution_ms=300, cls=ReferenceCluster)
    ref.acquire_container(0, "big")
    timeline, ref_failed = ref.simulate_invocation(inv(function="big"), 0, cold=True,
                                                   dispatch_ms=3, queue_wait_ms=2)
    assert ref_failed and active_phases(timeline) == phases
    assert timeline.actual_ms() == phase_sum(timeline) == 305


def test_phase_conservation_holds_with_dispatch_and_queue():
    # The reference cost model builds the whole timeline of an invocation
    # that arrived at 40 and waited 2 ms of dispatch and 17 of queue: it
    # starts at the arrival and ends the phase sum later, and its active
    # phases are the ones the cost model returns.
    c, ref = make_cluster(), make_cluster(cls=ReferenceCluster)
    for cl in (c, ref):
        cl.acquire_container(0, "f1")
    phases, _ = c.simulate_invocation("f1", (), 0, cold=True)
    timeline, _ = ref.simulate_invocation(inv(arrival=40), 0, cold=True,
                                          dispatch_ms=2, queue_wait_ms=17)
    assert timeline.started_at == 40
    assert timeline.finished_at == 40 + phase_sum(timeline)
    assert phase_sum(timeline) == 2 + 17 + sum(phases)
    assert active_phases(timeline) == phases


# ---- the cost model against the timeline-building reference ----------------------

COST_FUNCTIONS = {
    "f0": FunctionSpec("f0", code_size=0, flavor=128, compute_ms=20),
    "f1": FunctionSpec("f1", code_size=10, flavor=128, compute_ms=80, write_back=5),
    "f2": FunctionSpec("f2", code_size=30, flavor=256, compute_ms=1, write_back=0.5),
}
COST_OBJECTS = {"a": 0.0, "b": 1.0, "c": 15.0, "d": 40.0, "e": 90.0}


def store_state(cluster):
    """Everything the cost model may change: each node's store entries in
    insertion order, its eviction order and use, and every replica set."""
    nodes = [(list(n.store_entries.items()), list(n.cache_order), n.store_used)
             for n in cluster.nodes]
    return nodes, {oid: sorted(o.placements) for oid, o in cluster.objects.items()}


def paired_clusters(nodes, store, origins, **params):
    """A Cluster and a ReferenceCluster in the same state: one origin
    replica per (object, node) of origins that fits."""
    pair = []
    for cls in (Cluster, ReferenceCluster):
        c = cls(ClusterParams(nodes=nodes, mem_capacity=1 << 20, store_capacity=store, **params),
                COST_FUNCTIONS, [DataObject(oid, size) for oid, size in COST_OBJECTS.items()])
        for oid, nid in origins:
            c.place_object(oid, nid % nodes, origin=True)
        pair.append(c)
    return pair


def run_both(c, ref, steps):
    """Run each (function, refs, node, cold, dispatch, queue wait, arrival)
    step on both clusters; check the phase tuple and failure against the
    reference timeline, and the stores and replica sets after every step.
    Returns the reference timelines and failures."""
    out = []
    for function, refs, node, cold, dispatch_ms, queue_wait_ms, arrival in steps:
        node %= len(c.nodes)
        phases, failed = c.simulate_invocation(function, tuple(refs), node, cold)
        timeline, ref_failed = ref.simulate_invocation(
            Invocation("i", function, tuple(refs), "web", arrival), node, cold,
            dispatch_ms, queue_wait_ms)
        assert (phases, failed) == (active_phases(timeline), ref_failed)
        assert (timeline.dispatch_ms, timeline.queue_wait_ms) == (dispatch_ms, queue_wait_ms)
        assert timeline.started_at == arrival
        assert timeline.finished_at == arrival + dispatch_ms + queue_wait_ms + sum(phases)
        assert store_state(c) == store_state(ref)
        out.append((timeline, failed))
    return out


cost_steps = st.lists(st.tuples(
    st.sampled_from(sorted(COST_FUNCTIONS)),
    st.lists(st.sampled_from(sorted(COST_OBJECTS)), max_size=4),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 5),
    st.integers(0, 50),
    st.integers(0, 10_000),
), max_size=25)
stores = st.sampled_from((EXTERNAL_STORE, 0, 1))


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(1, 3),
    store=st.sampled_from((60.0, 150.0, 1000.0)),
    origins=st.lists(st.tuples(st.sampled_from(sorted(COST_OBJECTS)), st.integers(0, 2)),
                     max_size=6),
    code_store=stores,
    result_store=stores,
    cap=st.sampled_from((20, 150, 400, 300_000)),  # f0 warm without data takes 20
    steps=cost_steps,
)
def test_phase_tuple_equals_the_reference_timeline(nodes, store, origins, code_store,
                                                   result_store, cap, steps):
    c, ref = paired_clusters(nodes, store, origins, code_store=code_store,
                             result_store=result_store, max_execution_ms=cap)
    run_both(c, ref, steps)


def test_reference_differential_covers_every_cost_state():
    # Node 1 is the code store and node 0 the result store. Objects d (40 MB)
    # and e (90 MB) start on node 1; node 0's 120 MB store cannot cache both
    # next to f1's code, so caching one evicts the other.
    c, ref = paired_clusters(2, 120.0, [("d", 1), ("e", 1)], code_store=1, result_store=0,
                             max_execution_ms=1000)
    steps = [
        ("f1", ["d"], 0, True, 1, 0, 0),         # cold, code and data remote
        ("f1", ["d"], 0, True, 1, 0, 10),        # cold, code cached on the node
        ("f2", ["d"], 1, True, 2, 5, 20),        # cold on the code store, data local
        ("f1", ["e"], 0, False, 1, 9, 30),       # warm; caching e evicts the code and d
        ("f1", ["d", "e"], 0, False, 1, 0, 40),  # each fetch evicts the other: over the cap
        ("f0", ["a", "b"], 1, False, 0, 0, 50),  # objects with no replica anywhere
    ]
    runs = run_both(c, ref, steps)
    (t1, _), (t2, _), (t3, _), (t4, _), (t5, failed5), (t6, _) = runs
    assert t1.boot_ms and t1.code_fetch_ms and t1.data_fetch_ms
    assert t2.boot_ms and t2.code_fetch_ms == 0 and t2.data_fetch_ms == 0
    assert t3.boot_ms and t3.code_fetch_ms == 0 and t3.data_fetch_ms == 0
    assert t1.write_back_ms == 0 and t3.write_back_ms > 0  # local, then remote result store
    assert t4.boot_ms == 0 and t4.data_fetch_ms == 901
    assert ref.objects["d"].placements == {1} and "code:f1" not in ref.nodes[0].store_entries
    assert failed5 and sum(active_phases(t5)) == 1000 and t5.compute_ms < 80
    assert t6.data_fetch_ms == 1 + 11 and t6.write_back_ms == 0
    assert not any(failed for _, failed in runs[:4] + runs[5:])


def test_an_execution_exactly_at_the_cap_does_not_fail():
    c, ref = paired_clusters(1, 1000.0, [], max_execution_ms=20)
    [(timeline, failed)] = run_both(c, ref, [("f0", [], 0, False, 1, 0, 0)])
    assert not failed and sum(active_phases(timeline)) == 20
