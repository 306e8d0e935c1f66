"""Dispatch strategies: baselines, scoring, stickiness, replication, stealing."""

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim.cluster import Cluster, ClusterParams, DataObject, FunctionSpec
from dispatchsim.config import parse_scenario
from dispatchsim.engine import RandomSource
from dispatchsim.runner import run_one
from dispatchsim.strategies import (
    STRATEGIES,
    STRATEGY_NAMES,
    PopularityCounter,
    locality_score,
    make_strategy,
    replication_tick,
    stable_hash,
    steal_work,
)
from dispatchsim.errors import ConfigError
from dispatchsim.workload import Invocation

from conftest import scenario_dict
from reference import cluster_key

F1 = FunctionSpec("f1", code_size=10, flavor=128, compute_ms=50)


def make_cluster(nodes=3, mem=1024, store=1000, objects=()):
    return Cluster(
        ClusterParams(nodes=nodes, mem_capacity=mem, store_capacity=store),
        {"f1": F1},
        [DataObject(oid, size) for oid, size in objects],
    )


def inv(function="f1", refs=(), origin="web", arrival=0, ident="i0"):
    return Invocation(ident, function, tuple(refs), origin, arrival)


# ---- baselines -----------------------------------------------------------------


def test_round_robin_single_node():
    view = make_cluster(nodes=1)
    rr = make_strategy("round_robin")
    assert [rr.decide(inv(), view) for _ in range(4)] == [0, 0, 0, 0]


def test_round_robin_cycles_in_node_order():
    view = make_cluster(nodes=3)
    rr = make_strategy("round_robin")
    assert [rr.decide(inv(), view) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


def test_round_robin_exact_balance():
    # Counting oracle: 4k decisions over 4 nodes land exactly k per node.
    view = make_cluster(nodes=4)
    rr = make_strategy("round_robin")
    counts = {n: 0 for n in range(4)}
    for _ in range(4 * 250):
        counts[rr.decide(inv(), view)] += 1
    assert counts == {0: 250, 1: 250, 2: 250, 3: 250}


def test_least_loaded_picks_shortest_queue():
    c = make_cluster(nodes=3)
    c.nodes[0].run_queue.extend([("x", 1)] * 3)
    c.nodes[2].run_queue.extend([("x", 1)] * 2)
    assert make_strategy("least_loaded").decide(inv(), c) == 1


def test_least_loaded_ties_break_to_lowest_id():
    c = make_cluster(nodes=3)
    assert make_strategy("least_loaded").decide(inv(), c) == 0


def test_least_loaded_sees_queue_growth():
    c = make_cluster(nodes=3)
    c.nodes[0].run_queue.append(("x", 1))
    c.nodes[1].run_queue.append(("x", 1))
    strategy = make_strategy("least_loaded")
    view = c
    chosen = strategy.decide(inv(), view)
    assert chosen == 2
    c.nodes[chosen].run_queue.append(("x", 1))  # dispatch enqueues on the target
    assert len(view.nodes[chosen].run_queue) == 1
    assert strategy.decide(inv(), view) == 0


def test_hash_affinity_is_sticky_per_function():
    view = make_cluster(nodes=4)
    strategy = make_strategy("hash_affinity")
    first = strategy.decide(inv("f1"), view)
    assert all(strategy.decide(inv("f1"), view) == first for _ in range(5))


def test_hash_affinity_single_node():
    view = make_cluster(nodes=1)
    assert make_strategy("hash_affinity").decide(inv("whatever"), view) == 0


def test_hash_affinity_spreads_distinct_names():
    # Counting oracle on the fixed hash: 1000 names over 4 nodes.
    counts = {n: 0 for n in range(4)}
    for i in range(1000):
        counts[stable_hash(f"fn{i}") % 4] += 1
    assert all(150 <= c <= 350 for c in counts.values())


# ---- locality score --------------------------------------------------------------


def test_score_is_one_for_warm_local_idle():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 0)
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    score = locality_score(c, inv(refs=("a",)), 0)
    assert score == pytest.approx(1.0)


def test_score_is_zero_for_cold_remote_full_queue():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 1)
    c.nodes[0].run_queue.extend([("x", 1)] * 16)  # at queue_cap
    score = locality_score(c, inv(refs=("a",)), 0)
    assert score == pytest.approx(0.0)


def test_score_hand_arithmetic():
    # warm=1, locality=0.25, queue 5 of cap 10: 0.3 + 0.125 + 0.1 = 0.525
    c = make_cluster(objects=[("a", 100), ("b", 300)])
    c.place_object("a", 0)
    c.place_object("b", 1)
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    c.nodes[0].run_queue.extend([("x", 1)] * 5)
    score = locality_score(c, inv(refs=("a", "b")), 0, queue_cap=10)
    assert score == pytest.approx(0.525)


# ---- data-aware (reactive) --------------------------------------------------------


def test_data_aware_follows_the_bytes():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 2)
    assert make_strategy("data_aware").decide(inv(refs=("a",)), c) == 2


def test_data_aware_empty_refs_reduces_to_load_term():
    c = make_cluster(nodes=3)
    c.nodes[0].run_queue.append(("x", 1))
    c.nodes[1].run_queue.append(("x", 1))
    assert make_strategy("data_aware").decide(inv(), c) == 2


def test_data_aware_argmax_matches_brute_force_oracle():
    c = make_cluster(nodes=3, objects=[("a", 100), ("b", 50), ("c", 10)])
    c.place_object("a", 1)
    c.place_object("b", 2)
    c.place_object("c", 0)
    c.nodes[1].run_queue.extend([("x", 1)] * 4)
    _, container = c.acquire_container(2, "f1")
    c.release_container(container)
    view = c
    event = inv(refs=("a", "b"))
    strategy = make_strategy("data_aware")
    scores = {n: locality_score(view, event, n) for n in view.node_ids}
    best = max(sorted(scores), key=lambda n: (scores[n], -n))
    assert strategy.decide(event, view) == best


@settings(max_examples=50, deadline=None)
@given(
    queues=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=6),
    warm=st.lists(st.booleans(), min_size=2, max_size=6),
    scale=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
def test_weight_scaling_leaves_argmax_unchanged(queues, warm, scale):
    n = min(len(queues), len(warm))
    c = make_cluster(nodes=n, objects=[("a", 100)])
    c.place_object("a", n - 1)
    for nid in range(n):
        c.nodes[nid].run_queue.extend([("x", 1)] * queues[nid])
        if warm[nid]:
            _, container = c.acquire_container(nid, "f1")
            c.release_container(container)
    view = c
    event = inv(refs=("a",))
    base = make_strategy("data_aware").decide(event, view)
    scaled = make_strategy(
        "data_aware", {"w_code": 0.3 * scale, "w_data": 0.5 * scale, "w_load": 0.2 * scale}
    ).decide(event, view)
    assert base == scaled


def test_every_strategy_returns_a_live_node():
    c = make_cluster(nodes=5, objects=[("a", 10)])
    c.place_object("a", 3)
    view = c
    for name in STRATEGY_NAMES:
        assert make_strategy(name).decide(inv(refs=("a",)), view) in view.node_ids


def test_mcgrath_prefers_warm_then_short_queue():
    c = make_cluster(nodes=3, objects=[("a", 100)])
    c.place_object("a", 0)  # data would pull to 0, but this policy ignores bytes
    _, container = c.acquire_container(2, "f1")
    c.release_container(container)
    strategy = make_strategy("mcgrath_queues")
    assert strategy.decide(inv(refs=("a",)), c) == 2
    # without any warm container, ties fall to the shortest queue
    cold = make_cluster(nodes=3)
    cold.nodes[0].run_queue.append(("x", 1))
    assert make_strategy("mcgrath_queues").decide(inv(), cold) == 1


def test_unknown_strategy_errors_with_registry():
    with pytest.raises(ConfigError, match="round_robin"):
        make_strategy("definitely_not_real")


@pytest.mark.parametrize("name, params", [
    ("round_robin", {"w_code": 1.0}),  # was silently ignored
    ("least_loaded", {"queue_cap": 4}),
    ("hash_affinity", {"anything": 1}),
    ("data_aware", {"decay": 0.5}),
    ("mcgrath_queues", {"w_cod": 1.0}),
])
def test_make_strategy_rejects_params_it_does_not_take(name, params):
    with pytest.raises(ConfigError, match=f"{next(iter(params))} is not a parameter of {name}"):
        make_strategy(name, params)
    assert STRATEGY_NAMES == tuple(STRATEGIES)


def test_memoized_hashes_and_signatures_match_the_direct_ones():
    # hash_affinity keeps stable_hash per function and proactive_cluster the
    # data signature per reference set; decisions must not change.
    c = make_cluster(nodes=5, objects=[("a", 10), ("b", 10)])
    hashing = make_strategy("hash_affinity")
    sticky = make_strategy("proactive_cluster")
    for function, refs, origin in [("f1", ("a",), "web"), ("f1", ("b", "a"), "web"),
                                   ("f1", ("a", "b"), "web"), ("f1", ("a",), "web")] * 2:
        event = inv(function, refs, origin)
        assert hashing.decide(event, c) == stable_hash(function) % 5
        node = sticky.decide(event, c)
        assert sticky.assignments[cluster_key(event)] == node
    assert len(sticky.assignments) == 2  # ("a", "b") and ("b", "a") share a signature


# ---- dispatch latency ---------------------------------------------------------------


def test_default_dispatch_latencies():
    assert make_strategy("round_robin").dispatch_latency_ms == 1
    assert make_strategy("least_loaded").dispatch_latency_ms == 1
    assert make_strategy("hash_affinity").dispatch_latency_ms == 1
    assert make_strategy("mcgrath_queues").dispatch_latency_ms == 1
    assert make_strategy("data_aware").dispatch_latency_ms == 2
    assert make_strategy("proactive_cluster").dispatch_latency_ms == 2


def test_latency_override_applies_to_every_decision():
    assert make_strategy("data_aware", latency_ms=5).dispatch_latency_ms == 5
    raw = scenario_dict(strategy={"name": "data_aware", "dispatch_latency_ms": 5})
    scenario = parse_scenario(raw)
    result = run_one(scenario, scenario.strategies[0], 1)
    assert len(result.records) == 10
    assert all(r.timeline.dispatch_ms == 5 for r in result.records)


# ---- proactive clustering -------------------------------------------------------------


def test_cluster_key_equality_and_stability():
    a = cluster_key(inv(refs=("x", "y"), ident="a"))
    b = cluster_key(inv(refs=("y", "x"), ident="b"))  # set semantics via sorting
    assert a == b
    assert a != cluster_key(inv(refs=("x",), ident="c"))
    assert a != cluster_key(inv(refs=("x", "y"), origin="iot", ident="d"))


def test_proactive_is_sticky_for_equal_keys():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 1)
    strategy = make_strategy("proactive_cluster")
    view = c
    first = strategy.decide(inv(refs=("a",), ident="i1"), view)
    # shift load and warmth elsewhere; the key still pins the node
    c.nodes[first].run_queue.extend([("x", 1)] * 10)
    assert strategy.decide(inv(refs=("a",), ident="i2"), view) == first
    assert len(strategy.assignments) == 1


def test_proactive_disjoint_refs_form_distinct_keys():
    c = make_cluster(objects=[("a", 100), ("b", 100)])
    c.place_object("a", 1)
    c.place_object("b", 2)
    strategy = make_strategy("proactive_cluster")
    view = c
    assert strategy.decide(inv(refs=("a",), ident="i1"), view) == 1
    assert strategy.decide(inv(refs=("b",), ident="i2"), view) == 2
    assert len(strategy.assignments) == 2


def test_proactive_first_assignment_matches_data_aware():
    c1 = make_cluster(objects=[("a", 100)])
    c1.place_object("a", 2)
    c2 = make_cluster(objects=[("a", 100)])
    c2.place_object("a", 2)
    event = inv(refs=("a",))
    assert (make_strategy("proactive_cluster").decide(event, c1)
            == make_strategy("data_aware").decide(event, c2))


def test_proactive_records_demand_at_chosen_node():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 1)
    strategy = make_strategy("proactive_cluster")
    view = c
    for i in range(3):
        strategy.decide(inv(refs=("a",), ident=f"i{i}"), view)
    assert strategy.counters.counts["a"] == 3.0
    assert strategy.counters.demand[("a", 1)] == 3


# ---- replication ---------------------------------------------------------------------


def test_replication_noop_below_threshold():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 0)
    counters = PopularityCounter()
    counters.counts["a"] = 9.0
    assert replication_tick(counters, c, threshold=10.0) == []


def test_replication_targets_highest_demand_node_lacking_replica():
    # Threshold/argmax oracle: count 12, demand mostly from node 2.
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 0)
    counters = PopularityCounter()
    counters.counts["a"] = 12.0
    counters.demand[("a", 0)] = 20  # already has the replica; not a candidate
    counters.demand[("a", 1)] = 2
    counters.demand[("a", 2)] = 7
    actions = replication_tick(counters, c, threshold=10.0)
    assert len(actions) == 1
    assert actions[0].node == 2 and actions[0].placed
    assert 2 in c.objects["a"].placements


def test_replication_decays_counts_and_resets_demand():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 0)
    counters = PopularityCounter(decay=0.5)
    counters.counts["a"] = 12.0
    counters.demand[("a", 1)] = 4
    replication_tick(counters, c, threshold=10.0)
    assert counters.counts["a"] == 6.0
    assert counters.demand == {}


def test_replication_skips_capacity_exceeded_and_reports():
    c = make_cluster(store=50, objects=[("a", 100)])
    counters = PopularityCounter()
    counters.counts["a"] = 15.0
    counters.demand[("a", 1)] = 5
    actions = replication_tick(counters, c, threshold=10.0)
    assert len(actions) == 1
    assert not actions[0].placed and actions[0].note == "no_capacity"


def test_replication_ignores_objects_without_unserved_demand():
    c = make_cluster(objects=[("a", 100)])
    c.place_object("a", 0)
    counters = PopularityCounter()
    counters.counts["a"] = 50.0
    counters.demand[("a", 0)] = 50  # all demand already local
    assert replication_tick(counters, c, threshold=10.0) == []


# ---- work stealing ---------------------------------------------------------------------


class ForcedVictim:
    """rng stub that always selects the first candidate."""

    def randint(self, lo, hi):
        return lo

    def random(self):
        return 0.0


def test_steal_from_empty_cluster_is_empty():
    c = make_cluster(nodes=3)
    assert steal_work(c, 0, RandomSource(1, "steal")) == []


def test_steal_single_node_has_no_neighbor():
    c = make_cluster(nodes=1)
    assert steal_work(c, 0, RandomSource(1, "steal")) == []


def test_forced_victim_transfers_back_half():
    # ceil(5/2) = 3 stolen from the tail; victim keeps the first two.
    c = make_cluster(nodes=2)
    c.nodes[1].run_queue.extend((f"t{i}", 1) for i in range(5))
    batch = steal_work(c, 0, ForcedVictim())
    assert [item[0] for item in batch] == ["t2", "t3", "t4"]
    assert [item[0] for item in c.nodes[1].run_queue] == ["t0", "t1"]
    assert [item[0] for item in c.nodes[0].run_queue] == ["t2", "t3", "t4"]


def test_steal_leaves_single_item_queues_alone():
    c = make_cluster(nodes=2)
    c.nodes[1].run_queue.append(("only", 1))
    assert steal_work(c, 0, ForcedVictim()) == []
    assert len(c.nodes[1].run_queue) == 1


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=5),
    seed=st.integers(min_value=0, max_value=999),
)
def test_stealing_conserves_the_queued_multiset(lengths, seed):
    c = make_cluster(nodes=len(lengths))
    expected = []
    for nid, qlen in enumerate(lengths):
        for i in range(qlen):
            item = (f"n{nid}-t{i}", 1)
            c.nodes[nid].run_queue.append(item)
            expected.append(item[0])
    rng = RandomSource(seed, "steal")
    for _ in range(10):
        for nid in c.node_ids:
            if not c.nodes[nid].run_queue:
                steal_work(c, nid, rng)
    remaining = [item[0] for node in c.nodes.values() for item in node.run_queue]
    assert sorted(remaining) == sorted(expected)


def reference_steal_victim(cluster, idle_node_id, rng):
    """The list-based victim draw steal_work used to make."""
    others = [nid for nid in cluster.node_ids if nid != idle_node_id]
    return others[rng.randint(0, len(others) - 1)] if others else None


class VictimLog(dict):
    """A cluster's node table that logs the first node each steal reads."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.reads = []

    def __getitem__(self, node_id):
        self.reads.append(node_id)
        return super().__getitem__(node_id)


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=12),
    idle=st.lists(st.integers(min_value=0, max_value=11), max_size=30),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_steal_victims_match_the_list_based_draw(nodes, idle, seed):
    # Empty queues: every attempt reads its victim and nothing else.
    c = make_cluster(nodes=nodes)
    c.nodes = VictimLog(c.nodes)
    rng, ref_rng = RandomSource(seed, "steal"), RandomSource(seed, "steal")
    victims, expected = [], []
    for node_id in idle:
        node_id %= nodes
        c.nodes.reads.clear()
        assert steal_work(c, node_id, rng) == []
        victims.append(c.nodes.reads[0] if c.nodes.reads else None)
        expected.append(reference_steal_victim(c, node_id, ref_rng))
    assert victims == expected
    assert rng.random() == ref_rng.random()  # the same number of draws


def test_repeated_polls_eventually_steal_from_a_loaded_victim():
    # With one loaded node and one idle node, a handful of polls must move work.
    c = make_cluster(nodes=4)
    c.nodes[3].run_queue.extend((f"t{i}", 1) for i in range(6))
    rng = RandomSource(123, "steal")
    moved = 0
    for _ in range(len(c.node_ids)):
        moved += len(steal_work(c, 0, rng))
        if moved:
            break
    assert moved >= 1
