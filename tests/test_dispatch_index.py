"""Indexed dispatch against the all-node scan it replaces.

The data-aware family scores the replica holders of the references, then,
at each queue length from the shortest, the representative of each class
of non-holders: the lowest warm id and the lowest cold id there. It reads a
node only for a holder. least_loaded reads the lowest queue-length bucket.
Both must pick the node that scoring every node in ascending id picks.
"""

import copy
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import runner, strategies
from dispatchsim.cluster import Cluster, ClusterParams, DataObject, FunctionSpec
from dispatchsim.config import parse_scenario
from dispatchsim.errors import ConfigError, SimulationError, UnknownObjectError
from dispatchsim.strategies import (
    DataAwareStrategy,
    LeastLoadedStrategy,
    ProactiveClusterStrategy,
    locality_score,
    make_strategy,
)

from reference import Invocation, decide, invocation_at, run_with_records

FUNCTIONS = ("f1", "f2", "f3")
OBJECT_SIZES = {"a": 0.0, "b": 10.0, "c": 40.0, "d": 70.0, "z": 0.0}

# ---- brute-force references -----------------------------------------------------


def brute_force_best(strategy, inv, cluster):
    """The original scorer: every node, ascending id, ties keep the lowest."""
    best_node = -1
    best_score = float("-inf")
    for nid in range(len(cluster.nodes)):
        score = locality_score(cluster, inv.function, inv.data_refs, nid, strategy.weights,
                               strategy.queue_cap)
        if score > best_score:
            best_score = score
            best_node = nid
    return best_node, best_score


def brute_force_least_loaded(cluster):
    return min(range(len(cluster.nodes)), key=lambda n: (len(cluster.nodes[n].run_queue), n))


class BruteDataAware(DataAwareStrategy):
    def decide(self, trace, index, cluster):
        return brute_force_best(self, invocation_at(trace, index), cluster)[0]


class BruteProactive(ProactiveClusterStrategy, BruteDataAware):
    """proactive_cluster scoring a new key through BruteDataAware.decide,
    the next class after ProactiveClusterStrategy in this one's MRO."""


class BruteLeastLoaded(LeastLoadedStrategy):
    def decide(self, trace, index, cluster):
        return brute_force_least_loaded(cluster)


BRUTE = {
    DataAwareStrategy: BruteDataAware,
    ProactiveClusterStrategy: BruteProactive,
    LeastLoadedStrategy: BruteLeastLoaded,
}


def brute_make_strategy(*args, **kwargs):
    """make_strategy, with the indexed decision swapped for the scan."""
    strategy = make_strategy(*args, **kwargs)
    strategy.__class__ = BRUTE[type(strategy)]
    return strategy


# ---- random cluster states ---------------------------------------------------------


def build_state(nodes, store, queues, container_ops, placement_ops):
    """A cluster after the given queue lengths, container lifecycle steps
    (warm: acquire and release; take: acquire and keep; expire: reclaim
    one idle container) and replica steps (origin placement, or a cached
    copy that FIFO-evicts older copies)."""
    c = Cluster(
        ClusterParams(nodes=nodes, mem_capacity=1 << 20, store_capacity=store),
        {f: FunctionSpec(f, flavor=128) for f in FUNCTIONS},
        [DataObject(oid, size) for oid, size in OBJECT_SIZES.items()],
    )
    for nid, qlen in enumerate(queues[:nodes]):
        c.nodes[nid].run_queue.extend([0] * qlen)
    for kind, nid, function in container_ops:
        node = c.nodes[nid % nodes]
        if kind == "expire":
            pool = node.warm_pool.get(function)
            if pool:
                c.expire_container(pool[0])
            continue
        _, container = c.acquire_container(node.id, function)
        if kind == "warm":
            c.release_container(container)
    for origin, oid, nid in placement_ops:
        if origin:
            c.place_object(oid, nid % nodes, origin=True)
        else:
            c.cache_object(oid, nid % nodes)
    return c


node_ops = st.tuples(
    st.sampled_from(("warm", "warm", "take", "expire")),
    st.integers(0, 15),
    st.sampled_from(FUNCTIONS),
)
replica_ops = st.tuples(st.booleans(), st.sampled_from(sorted(OBJECT_SIZES)), st.integers(0, 15))
weights = st.sampled_from((0.0, -0.0, 1e-18, 0.1, 0.2, 0.3, 1.0, 1))


@settings(max_examples=300, deadline=None)
@given(
    nodes=st.integers(1, 16),
    queue_cap=st.integers(1, 4),
    queues=st.lists(st.integers(0, 6), min_size=16, max_size=16),
    container_ops=st.lists(node_ops, max_size=30),
    placement_ops=st.lists(replica_ops, max_size=12),
    store=st.sampled_from((80.0, 1000.0)),
    function=st.sampled_from(FUNCTIONS),
    refs=st.lists(st.sampled_from(sorted(OBJECT_SIZES)), max_size=3),
    custom=st.tuples(weights, weights, weights),
)
# Node 0 (cold, queue 0, 7/8 of the bytes) scores 1.875e-18 and node 1 (warm,
# queue 1, 1/8) one ulp more, but w_code * warm + (w_data * local + w_load *
# headroom) ties them and keeps node 0: the scorer must add as locality_score does.
@example(nodes=2, queue_cap=4, queues=[0, 1] + [0] * 14, container_ops=[("warm", 1, "f1")],
         placement_ops=[(True, "d", 0), (True, "b", 1)], store=1000.0, function="f1",
         refs=["b", "d"], custom=(1e-18, 1e-18, 1e-18))
def test_indexed_choice_equals_scan(nodes, queue_cap, queues, container_ops, placement_ops,
                                    store, function, refs, custom):
    c = build_state(nodes, store, queues, container_ops, placement_ops)
    c.check_invariants()
    event = Invocation("i", function, tuple(refs), "web", 0)
    w_code, w_data, w_load = custom
    for name, params in (
        ("data_aware", {}),
        ("mcgrath_queues", {}),
        ("data_aware", {"w_code": w_code, "w_data": w_data, "w_load": w_load}),
    ):
        strategy = make_strategy(name, dict(params, queue_cap=queue_cap))
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0]

    assert decide(make_strategy("least_loaded"), event, c) == brute_force_least_loaded(c)


@settings(max_examples=300, deadline=None)
@given(
    nodes=st.integers(1, 16),
    queue_cap=st.integers(1, 4),
    queues=st.lists(st.integers(0, 6), min_size=16, max_size=16),
    container_ops=st.lists(node_ops, max_size=30),
    function=st.sampled_from(FUNCTIONS),
    refs=st.sampled_from(((), ("b",))),
    custom=st.tuples(weights, weights, weights),
)
def test_choice_without_replica_holders_equals_scan(nodes, queue_cap, queues, container_ops,
                                                    function, refs, custom):
    # No object has a replica, so every node has byte locality 0 (or 1 with
    # no referenced byte) and only the representatives are scored.
    c = build_state(nodes, 1000.0, queues, container_ops, [])
    event = Invocation("i", function, refs, "web", 0)
    w_code, w_data, w_load = custom
    for name, params in (("data_aware", {}), ("mcgrath_queues", {}),
                         ("data_aware", {"w_code": w_code, "w_data": w_data, "w_load": w_load})):
        strategy = make_strategy(name, dict(params, queue_cap=queue_cap))
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0]


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(2, 16),
    queue_cap=st.integers(1, 4),
    past_cap=st.booleans(),
    extra=st.lists(st.integers(0, 4), min_size=16, max_size=16),
    container_ops=st.lists(node_ops, max_size=30),
    placement_ops=st.lists(replica_ops, max_size=12),
    function=st.sampled_from(FUNCTIONS),
    refs=st.lists(st.sampled_from(sorted(OBJECT_SIZES)), max_size=3),
    w_code=weights,
    w_data=weights,
    w_load=weights,
)
def test_ties_across_queue_lengths_keep_the_scan_choice(nodes, queue_cap, past_cap, extra,
                                                        container_ops, placement_ops,
                                                        function, refs, w_code, w_data,
                                                        w_load):
    # Every length ties: either all queues sit at or past queue_cap, where
    # headroom is 0, or the load term has no weight. The representative is
    # then the lowest id of a class over every length, not the lowest id at
    # the shortest length.
    if past_cap:
        queues = [queue_cap + e for e in extra]
    else:
        queues, w_load = extra, 0.0
    c = build_state(nodes, 1000.0, queues, container_ops, placement_ops)
    event = Invocation("i", function, tuple(refs), "web", 0)
    for params in ({}, {"w_code": w_code, "w_data": w_data, "w_load": w_load}):
        if not past_cap:
            params = dict(params, w_load=0.0)
        strategy = make_strategy("data_aware", dict(params, queue_cap=queue_cap))
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0]


def test_longer_queue_lengths_keep_the_scan_choice():
    # Cold nodes 2 (queue 0), 3 (queue 1) and 0 (queue 2), queue_cap 1: the
    # lengths 1 and 2 tie on headroom 0 but not length 0. For f1 the warm
    # node 1 wins; for f2 every node is cold and the tie at length 0 keeps
    # node 1.
    c = build_state(4, 1000.0, [2, 0, 0, 1], [("warm", 1, "f1")], [])
    strategy = make_strategy("data_aware", {"queue_cap": 1})
    for function in ("f1", "f2"):
        event = Invocation("i", function, (), "web", 0)
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0] == 1
    # With queue_cap 4, length 1 (node 1) scores below length 0 (node 3),
    # and length 2 (node 0) below length 1.
    c = build_state(4, 1000.0, [2, 1, 0, 0], [("warm", 2, "f1")], [])
    strategy = make_strategy("data_aware", {"queue_cap": 4})
    for function in ("f1", "f2"):
        event = Invocation("i", function, (), "web", 0)
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0] == 2


def test_representative_is_lowest_id_across_all_full_buckets():
    # Nodes 1 (queue 5) and 2 (queue 3) both sit past queue_cap 2, so they
    # tie on headroom 0 and node 1 is the cold representative; node 0 is
    # the warm one. Without a code weight node 0 scores as a cold node at
    # queue 0 and still wins.
    c = build_state(3, 1000.0, [0, 5, 3], [("warm", 0, "f1")], [])
    event = Invocation("i", "f1", ("b",), "web", 0)
    for params in ({}, {"w_code": 0.0}, {"w_load": 0.0}):
        strategy = make_strategy("data_aware", dict(params, queue_cap=2))
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0] == 0
    # With node 0 busy as well, all three tie past the cap: node 0 keeps
    # the pick on its code weight, and on its id without one.
    c.nodes[0].run_queue.extend([0] * 2)
    for params in ({}, {"w_code": 0.0}):
        strategy = make_strategy("data_aware", dict(params, queue_cap=2))
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0] == 0


def test_zero_load_weight_ties_fall_to_the_lowest_id():
    # Without a load term every cold node scores the same; the scan picks
    # node 0 even though node 2 has the shorter queue.
    c = build_state(3, 1000.0, [4, 2, 0], [], [])
    strategy = make_strategy("data_aware", {"w_load": 0.0})
    assert decide(strategy, Invocation("i", "f1", (), "web", 0), c) == 0


def test_zero_byte_refs_tie_through_rounding():
    # No referenced byte gives every node locality 1.0, and 1.0 absorbs the
    # tiny load term, so all nodes tie and the scan keeps node 0.
    c = build_state(3, 1000.0, [2, 0, 0], [], [])
    strategy = make_strategy("data_aware", {"w_code": 0.0, "w_data": 1.0, "w_load": 1e-18})
    for refs in ((), ("a", "z")):
        event = Invocation("i", "f1", refs, "web", 0)
        assert brute_force_best(strategy, event, c) == (0, 1.0)
        assert decide(strategy, event, c) == 0


def equal_holders_cluster(holders, size=10.0):
    """Eight idle nodes and one object of the given size per holder, held
    only there."""
    c = Cluster(ClusterParams(nodes=8, mem_capacity=1 << 20, store_capacity=1000.0),
                {"f1": FunctionSpec("f1", flavor=128)},
                [DataObject(f"o{nid}", size) for nid in holders])
    for nid in holders:
        c.place_object(f"o{nid}", nid, origin=True)
    return c


def test_tied_holders_met_in_descending_id_go_to_the_lower_id():
    # The reference walk meets node 5's bytes before node 2's, so the
    # holders are scored 5 first; both hold half the bytes at an empty
    # queue, and the tie must still go to node 2, as in the ascending scan.
    c = equal_holders_cluster([5, 2])
    event = Invocation("i", "f1", ("o5", "o2"), "web", 0)
    for name in ("data_aware", "proactive_cluster"):
        strategy = make_strategy(name)
        assert brute_force_best(strategy, event, c)[0] == 2
        assert decide(strategy, event, c) == 2


def test_a_holder_and_a_representative_tie_at_one_queue_length():
    # Every queue at length 1 and w_load > 0. With w_data = 1e-18 a
    # holder's data term is lost in the sum: the cold holder 5 ties the cold
    # representative 0, which is scored after it and takes the node on its
    # lower id.
    c = equal_holders_cluster([5])
    for nid in range(8):
        c.nodes[nid].run_queue.append(0)
    assert list(c.queue_buckets) == [1]
    strategy = make_strategy("data_aware", {"w_data": 1e-18})
    event = Invocation("i", "f1", ("o5",), "web", 0)
    assert brute_force_best(strategy, event, c)[0] == 0 == decide(strategy, event, c)
    # A holder below the representative keeps the node: with no code
    # weight, the warm holder 0 of zero bytes ties the cold representative
    # 1, the lowest cold id once holder 0 is masked out.
    c = equal_holders_cluster([0], size=0.0)
    for nid in range(8):
        c.nodes[nid].run_queue.append(0)
    _, container = c.acquire_container(0, "f1")
    c.release_container(container)
    strategy = make_strategy("data_aware", {"w_code": 0.0})
    event = Invocation("i", "f1", ("o0",), "web", 0)
    assert brute_force_best(strategy, event, c)[0] == 0 == decide(strategy, event, c)


@pytest.mark.parametrize("queue_cap", [1, 2, 3, 4, 16, strategies.LISTED_QUEUE_CAP + 1, 10**12])
@pytest.mark.parametrize("w_load", [0.0, -0.0, 1e-18, 0.1, 0.2, 0.3, 1.0, 1])
def test_load_terms_equal_the_load_term_of_locality_score(queue_cap, w_load):
    strategy = make_strategy("data_aware", {"w_load": w_load, "queue_cap": queue_cap})
    if queue_cap > strategies.LISTED_QUEUE_CAP:
        assert len(strategy._load_terms) == 0  # nothing is computed up front
        lengths = [*range(50), queue_cap - 1, queue_cap, queue_cap + 1, 3 * queue_cap]
    else:
        lengths = range(3 * queue_cap + 1)
    for q in lengths:
        want = w_load * (1.0 - min(1.0, q / queue_cap))
        assert strategy._load_terms[min(q, queue_cap)].hex() == want.hex(), q


def test_decide_past_the_listed_queue_cap_equals_the_scan():
    # Queue lengths 0-3 under a cap too large to list: the terms are computed
    # on first use and score as the scan's.
    c = build_state(8, 1000.0, [3, 0, 2, 1, 0, 3, 1, 2], [("warm", 4, "f1")],
                    [(True, "b", 5), (True, "c", 2)])
    event = Invocation("i", "f1", ("b", "c"), "web", 0)
    for queue_cap in (strategies.LISTED_QUEUE_CAP + 1, 10**12):
        strategy = make_strategy("data_aware", {"queue_cap": queue_cap, "w_load": 1.0})
        assert decide(strategy, event, c) == brute_force_best(strategy, event, c)[0]
        assert set(strategy._load_terms) <= {0, 1, 2, 3}


class NodeReadLog(list):
    """A cluster's node table that logs each node read; the scorer reads a
    node once per replica holder, for its queue length."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.reads = []

    def __getitem__(self, node_id):
        self.reads.append(node_id)
        return super().__getitem__(node_id)


def test_mcgrath_decide_scores_only_the_representatives():
    # w_data = 0: the replica holders of the references (every node here)
    # are not scored, so one decide scores only representatives, from the
    # masks, and reads no node.
    nodes = 16
    c = build_state(nodes, 1000.0, [i % 3 for i in range(nodes)],
                    [("warm", 5, "f1"), ("warm", 9, "f1")],
                    [(True, oid, nid) for oid in "bcd" for nid in range(nodes)])
    strategy = make_strategy("mcgrath_queues")
    event = Invocation("i", "f1", ("b", "c", "d"), "web", 0)
    want = brute_force_best(strategy, event, c)[0]
    c.nodes = NodeReadLog(c.nodes)
    node = decide(strategy, event, c)
    assert len(c.nodes.reads) == 0
    assert node == want


@pytest.mark.parametrize("queues", ([0] * 8, [1, 0, 2, 0, 1, 0, 2, 3]),
                         ids=("one_length", "several_lengths"))
def test_data_aware_decide_reads_each_holder_once(queues):
    # Holders none, node 5, and nodes 5 and 2: a decide reads exactly those
    # nodes, at one queue length or several, and picks as the scan does.
    c = build_state(8, 1000.0, queues, [("warm", 3, "f1"), ("warm", 6, "f2")],
                    [(True, "b", 5), (True, "c", 2)])
    for refs, holders in (((), []), (("b",), [5]), (("b", "c"), [5, 2])):
        event = Invocation("i", "f1", refs, "web", 0)
        for name in ("data_aware", "proactive_cluster", "mcgrath_queues"):
            strategy = make_strategy(name)
            want = brute_force_best(strategy, event, c)[0]
            c.nodes, table = NodeReadLog(c.nodes), c.nodes
            assert decide(strategy, event, c) == want
            assert c.nodes.reads == ([] if name == "mcgrath_queues" else holders)
            c.nodes = table


def test_a_holder_at_the_lowest_id_of_its_class_is_masked_out():
    # Node 0 is the lowest cold id at the shortest length, and it holds the
    # zero-byte "a" of 10 referenced bytes: locality 0, as a non-holder's.
    # It is scored as a holder, and the cold class's next id, node 1, as
    # its representative; they tie, and node 0 keeps the pick on its id.
    # Node 4 holds "b" behind a long queue; its bytes win without a load
    # weight, or at the default weights.
    c = build_state(5, 1000.0, [0, 0, 0, 1, 9], [("warm", 3, "f1")],
                    [(True, "a", 0), (True, "b", 4)])
    event = Invocation("i", "f1", ("a", "b"), "web", 0)
    for params, want in (({"w_code": 0.0, "w_data": 0.1}, 0),
                         ({"w_code": 0.0, "w_data": 0.1, "w_load": 0.0}, 4),
                         ({}, 4)):
        strategy = make_strategy("data_aware", params)
        assert brute_force_best(strategy, event, c)[0] == want
        assert decide(strategy, event, c) == want


@pytest.mark.parametrize("name", ("data_aware", "mcgrath_queues", "proactive_cluster"))
def test_a_missing_reference_is_refused_with_or_without_a_data_term(name):
    # The scan raises from locality_fraction whatever w_data is; so does the
    # one-pass scorer, naming the first missing reference.
    c = build_state(3, 1000.0, [0, 0, 0], [], [(True, "b", 1)])
    strategy = make_strategy(name)
    with pytest.raises(UnknownObjectError, match="nope"):
        decide(strategy, Invocation("i", "f1", ("b", "nope", "gone"), "web", 0), c)


def test_negative_weight_and_bad_queue_cap_are_refused():
    with pytest.raises(ConfigError, match="w_data"):
        make_strategy("data_aware", {"w_data": -1.0})
    with pytest.raises(ConfigError, match="w_code: must be a finite number"):
        make_strategy("data_aware", {"w_code": 10**400})  # an int too large for a float
    with pytest.raises(ConfigError, match="queue_cap"):
        make_strategy("mcgrath_queues", {"queue_cap": 0})


# ---- whole runs against the brute-force strategies -----------------------------------

RUN_SCENARIO = {
    "cluster": {"mem_capacity": 512, "keep_alive_ms": 300},
    "workload": {
        "horizon_ms": 800,
        "arrival": {"kind": "poisson", "rate_per_s": 300},
        "functions": [
            {"name": "f1", "code_size": 10, "flavor": 128, "compute_ms": 50},
            {"name": "f2", "code_size": 5, "flavor": 256, "compute_ms": 120, "weight": 0.5},
        ],
        "objects": {"count": 12, "size": [5, 60], "popularity": {"kind": "zipf", "s": 1.1}},
        "refs_per_invocation": [0, 3],
    },
    "seeds": [1],
}


def run_records(nodes, queue_cap, stealing, name):
    raw = copy.deepcopy(RUN_SCENARIO)
    raw["cluster"]["nodes"] = nodes
    raw["cluster"]["store_capacity"] = 200 + 600 // nodes  # origins fit, copies evict
    raw["strategy"] = {"name": name, "work_stealing": stealing,
                       "replication": {"period_ms": 100, "threshold": 3}}
    if name != "least_loaded":
        raw["strategy"]["params"] = {"queue_cap": queue_cap}
    scenario = parse_scenario(raw)
    result, records = run_with_records(scenario, scenario.strategies[0], 1)
    return result.row(), [(r.invocation_id, r.node, r.timeline.finished_at)
                          for r in records]


@pytest.mark.parametrize("name", ["least_loaded", "data_aware", "proactive_cluster",
                                  "mcgrath_queues"])
@pytest.mark.parametrize("stealing", [False, True])
@pytest.mark.parametrize("queue_cap", [1, 2, 16])
@pytest.mark.parametrize("nodes", [1, 3, 16])
def test_run_equals_brute_force_run(monkeypatch, nodes, queue_cap, stealing, name):
    indexed = run_records(nodes, queue_cap, stealing, name)
    monkeypatch.setattr(runner, "make_strategy", brute_make_strategy)
    assert run_records(nodes, queue_cap, stealing, name) == indexed


# ---- index consistency ----------------------------------------------------------------


def corrupt_warm_add(c):
    c.warm_nodes["f2"] = c.warm_nodes.get("f2", 0) | 1 << 1


def corrupt_warm_drop(c):
    c.warm_nodes["f1"] &= ~(1 << 0)


def corrupt_queue_bucket(c):
    c.queue_buckets[0] &= ~(1 << 2)


def corrupt_queue_bypass(c):
    deque.append(c.nodes[2].run_queue, 0)  # length changes, index does not


@pytest.mark.parametrize("corrupt", [corrupt_warm_add, corrupt_warm_drop,
                                     corrupt_queue_bucket, corrupt_queue_bypass])
def test_check_invariants_detects_a_stale_index(corrupt):
    c = build_state(3, 1000.0, [0, 2, 0], [("warm", 0, "f1")], [])
    c.check_invariants()
    corrupt(c)
    with pytest.raises(SimulationError, match="index"):
        c.check_invariants()


# ---- every length-changing operation the simulator uses keeps the queue-length index ---


RUN_QUEUE_MUTATORS = {
    "append": (lambda q: q.append(7), 3),
    "extend": (lambda q: q.extend([7] * 2), 4),
    "pop": (lambda q: q.pop(), 1),
    "popleft": (lambda q: q.popleft(), 1),
}


@pytest.mark.parametrize("name", sorted(RUN_QUEUE_MUTATORS))
def test_run_queue_mutator_keeps_the_index(name):
    mutate, length = RUN_QUEUE_MUTATORS[name]
    c = build_state(3, 1000.0, [0, 2, 2], [], [])
    queue = c.nodes[1].run_queue
    mutate(queue)
    assert len(queue) == length
    c.check_invariants()
    assert c.queue_buckets[length] >> 1 & 1 and c.queue_buckets[2] >> 2 & 1
    queue.append(8)  # a later append starts from the right bucket
    c.check_invariants()
