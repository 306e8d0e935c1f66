"""Cluster model: placement, locality, transfer costs, container lifecycle
and phase timelines."""

import pytest

from dispatchsim.cluster import (
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
from dispatchsim.workload import Invocation

from reference import phase_sum

F1 = FunctionSpec("f1", code_size=10, flavor=128, compute_ms=80)


def make_cluster(nodes=2, mem=1024, store=1000, objects=(), functions=(F1,), **params):
    return Cluster(
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
    with pytest.raises(UnknownNodeError):
        c.place_object("a", 99)


def test_cache_evicts_fifo_but_never_origin_replicas():
    c = make_cluster(nodes=1, store=250, objects=[("keep", 100), ("x", 100), ("y", 100)])
    c.ingest_origin("keep", 0)
    assert c.cache_object("x", 0)
    assert c.cache_object("y", 0)  # evicts x (oldest non-origin), keeps origin
    assert 0 in c.objects["y"].placements
    assert 0 not in c.objects["x"].placements
    assert 0 in c.objects["keep"].placements


def test_cache_fails_when_only_origins_occupy_store():
    c = make_cluster(nodes=1, store=150, objects=[("keep", 100), ("x", 100)])
    c.ingest_origin("keep", 0)
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


def test_warm_local_invocation_has_zero_overhead():
    c = make_cluster(objects=[("a", 20)])
    c.place_object("a", 0)
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    c.acquire_container(0, "f1")
    timeline, failed = c.simulate_invocation(inv(refs=("a",)), 0, cold=False,
                                             dispatch_ms=0, queue_wait_ms=0)
    assert not failed
    assert timeline.actual_ms() == 80
    assert (timeline.boot_ms, timeline.code_fetch_ms, timeline.data_fetch_ms,
            timeline.write_back_ms) == (0, 0, 0, 0)


def test_cold_remote_invocation_phase_sum():
    # Phase-sum oracle: 100 boot + 101 code + 201 data + 80 compute = 482.
    c = make_cluster(objects=[("a", 20)])
    c.place_object("a", 1)
    c.acquire_container(0, "f1")
    timeline, failed = c.simulate_invocation(inv(refs=("a",)), 0, cold=True,
                                             dispatch_ms=0, queue_wait_ms=0)
    assert not failed
    assert timeline.boot_ms == 100
    assert timeline.code_fetch_ms == 101
    assert timeline.data_fetch_ms == 201
    assert timeline.compute_ms == 80
    assert timeline.actual_ms() == 482
    assert phase_sum(timeline) == 482


def test_second_run_on_same_node_reuses_container_and_cache():
    c = make_cluster(objects=[("a", 20)])
    c.place_object("a", 1)
    _, container = c.acquire_container(0, "f1")
    first, _ = c.simulate_invocation(inv(refs=("a",)), 0, cold=True,
                                     dispatch_ms=0, queue_wait_ms=0)
    c.release_container(container)
    outcome, _ = c.acquire_container(0, "f1")
    assert outcome is AcquireOutcome.WARM_HIT
    second, _ = c.simulate_invocation(inv(refs=("a",), arrival=1000), 0, cold=False,
                                      dispatch_ms=0, queue_wait_ms=0)
    assert first.data_fetch_ms == 201
    assert (second.boot_ms, second.code_fetch_ms, second.data_fetch_ms) == (0, 0, 0)
    assert second.actual_ms() == 80


def test_cached_code_makes_later_cold_start_cheaper():
    c = make_cluster()
    c.acquire_container(0, "f1")
    first, _ = c.simulate_invocation(inv(), 0, cold=True, dispatch_ms=0, queue_wait_ms=0)
    c.acquire_container(0, "f1")  # second cold container on the same node
    second, _ = c.simulate_invocation(inv(arrival=10), 0, cold=True,
                                      dispatch_ms=0, queue_wait_ms=0)
    assert first.code_fetch_ms == 101
    assert second.code_fetch_ms == 0  # code already in the node store
    assert second.boot_ms == 100


def test_repeat_invocation_data_fetch_never_grows():
    c = make_cluster(objects=[("a", 50), ("b", 30)])
    c.place_object("a", 1)
    c.place_object("b", 1)
    c.acquire_container(0, "f1")
    first, _ = c.simulate_invocation(inv(refs=("a", "b")), 0, cold=True,
                                     dispatch_ms=0, queue_wait_ms=0)
    second, _ = c.simulate_invocation(inv(refs=("a", "b"), arrival=5), 0, cold=False,
                                      dispatch_ms=0, queue_wait_ms=0)
    assert second.data_fetch_ms <= first.data_fetch_ms
    assert second.data_fetch_ms == 0


def test_warm_total_never_exceeds_cold_total():
    for refs, store in (((), 1000), (("a",), 1000), (("a",), 0)):
        objects = [("a", 40)] if refs else []
        cold_cluster = make_cluster(objects=objects, store=store)
        warm_cluster = make_cluster(objects=objects, store=store)
        for cl in (cold_cluster, warm_cluster):
            if refs:
                cl.place_object("a", 1)
        cold_t, _ = cold_cluster.simulate_invocation(inv(refs=refs), 0, cold=True,
                                                     dispatch_ms=0, queue_wait_ms=0)
        warm_t, _ = warm_cluster.simulate_invocation(inv(refs=refs), 0, cold=False,
                                                     dispatch_ms=0, queue_wait_ms=0)
        assert warm_t.actual_ms() <= cold_t.actual_ms()


def test_write_back_costs_transfer_to_external_store():
    f = FunctionSpec("wb", code_size=0, flavor=128, compute_ms=10, write_back=10)
    c = make_cluster(functions=(f,))
    c.acquire_container(0, "wb")
    timeline, _ = c.simulate_invocation(inv(function="wb"), 0, cold=True,
                                        dispatch_ms=0, queue_wait_ms=0)
    assert timeline.write_back_ms == 101
    assert timeline.boot_ms == 100
    assert timeline.code_fetch_ms == 0  # nothing to fetch for zero-size code


def test_execution_cap_truncates_and_fails_task():
    f = FunctionSpec("big", code_size=0, flavor=128, compute_ms=250)
    c = make_cluster(functions=(f,), max_execution_ms=300)
    c.acquire_container(0, "big")
    timeline, failed = c.simulate_invocation(inv(function="big"), 0, cold=True,
                                             dispatch_ms=3, queue_wait_ms=2)
    assert failed
    assert timeline.active_ms() == 300  # node occupied for exactly the cap
    assert timeline.boot_ms == 100 and timeline.compute_ms == 200
    assert timeline.actual_ms() == phase_sum(timeline) == 305


def test_phase_conservation_holds_with_dispatch_and_queue():
    c = make_cluster()
    c.acquire_container(0, "f1")
    timeline, _ = c.simulate_invocation(inv(arrival=40), 0, cold=True,
                                        dispatch_ms=2, queue_wait_ms=17)
    assert timeline.started_at == 40
    assert timeline.finished_at == 40 + phase_sum(timeline)
