"""Indexed dispatch against the all-node scan it replaces.

The data-aware family scores only replica holders plus one warm and one
cold representative, and least_loaded reads the lowest queue-length
bucket. Both must pick the node that scoring every node in ascending id
picks.
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
from dispatchsim.workload import Invocation

FUNCTIONS = ("f1", "f2", "f3")
OBJECT_SIZES = {"a": 0.0, "b": 10.0, "c": 40.0, "d": 70.0, "z": 0.0}

# ---- brute-force references -----------------------------------------------------


def brute_force_best(strategy, inv, cluster):
    """The original scorer: every node, ascending id, ties keep the lowest."""
    best_node = -1
    best_score = float("-inf")
    for nid in cluster.node_ids:
        score = locality_score(cluster, inv, nid, strategy.weights, strategy.queue_cap)
        if score > best_score:
            best_score = score
            best_node = nid
    return best_node, best_score


def brute_force_least_loaded(cluster):
    return min(cluster.node_ids, key=lambda n: (len(cluster.nodes[n].run_queue), n))


class BruteDataAware(DataAwareStrategy):
    def decide(self, inv, cluster):
        return brute_force_best(self, inv, cluster)[0]


class BruteProactive(ProactiveClusterStrategy, BruteDataAware):
    """proactive_cluster scoring a new key through BruteDataAware.decide,
    the next class after ProactiveClusterStrategy in this one's MRO."""


class BruteLeastLoaded(LeastLoadedStrategy):
    def decide(self, inv, cluster):
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
        c.nodes[nid].run_queue.extend([("x", 1)] * qlen)
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
        assert strategy.decide(event, c) == brute_force_best(strategy, event, c)[0]

    assert make_strategy("least_loaded").decide(event, c) == brute_force_least_loaded(c)


def set_representatives(strategy, cluster, function, data_local):
    """_representatives as it was over node sets: the warm nodes and each
    queue-length bucket as sets of ids, min() for the lowest id."""
    warm = {n for n in cluster.node_ids if cluster.warm_nodes.get(function, 0) >> n & 1}
    levels = sorted((qlen, {n for n in cluster.node_ids if mask >> n & 1})
                    for qlen, mask in cluster.queue_buckets.items())
    reps = []
    for code_warm in (1.0, 0.0):
        top = rep = None
        for qlen, nodes in levels:
            members = nodes & warm if code_warm else nodes - warm
            if not members:
                continue
            score = strategies._weighted(strategy.weights, code_warm, data_local, qlen,
                                         strategy.queue_cap)
            if top is None:
                top, rep = score, min(members)
            elif score == top:
                rep = min(rep, min(members))
            else:
                break
        if rep is not None:
            reps.append(rep)
    return reps


@settings(max_examples=300, deadline=None)
@given(
    nodes=st.integers(1, 16),
    queue_cap=st.integers(1, 4),
    queues=st.lists(st.integers(0, 6), min_size=16, max_size=16),
    container_ops=st.lists(node_ops, max_size=30),
    function=st.sampled_from(FUNCTIONS),
    data_local=st.sampled_from((0.0, 1.0)),
    custom=st.tuples(weights, weights, weights),
)
def test_mask_representatives_equal_set_representatives(nodes, queue_cap, queues, container_ops,
                                                        function, data_local, custom):
    c = build_state(nodes, 1000.0, queues, container_ops, [])
    w_code, w_data, w_load = custom
    for name, params in (("data_aware", {}), ("mcgrath_queues", {}),
                         ("data_aware", {"w_code": w_code, "w_data": w_data, "w_load": w_load})):
        strategy = make_strategy(name, dict(params, queue_cap=queue_cap))
        assert (strategy._representatives(c, function, data_local)
                == set_representatives(strategy, c, function, data_local))


def test_representative_is_lowest_id_across_all_full_buckets():
    # Nodes 1 (queue 5) and 2 (queue 3) both sit past queue_cap 2, so they
    # tie on headroom 0 and node 1 wins on id; node 0 is the warm class.
    c = build_state(3, 1000.0, [0, 5, 3], [("warm", 0, "f1")], [])
    strategy = make_strategy("data_aware", {"queue_cap": 2})
    assert strategy._representatives(c, "f1", 0.0) == [0, 1]


def test_zero_load_weight_ties_fall_to_the_lowest_id():
    # Without a load term every cold node scores the same; the scan picks
    # node 0 even though node 2 has the shorter queue.
    c = build_state(3, 1000.0, [4, 2, 0], [], [])
    strategy = make_strategy("data_aware", {"w_load": 0.0})
    assert strategy.decide(Invocation("i", "f1", (), "web", 0), c) == 0


def test_zero_byte_refs_tie_through_rounding():
    # No referenced byte gives every node locality 1.0, and 1.0 absorbs the
    # tiny load term, so all nodes tie and the scan keeps node 0.
    c = build_state(3, 1000.0, [2, 0, 0], [], [])
    strategy = make_strategy("data_aware", {"w_code": 0.0, "w_data": 1.0, "w_load": 1e-18})
    for refs in ((), ("a", "z")):
        event = Invocation("i", "f1", refs, "web", 0)
        assert brute_force_best(strategy, event, c) == (0, 1.0)
        assert strategy.decide(event, c) == 0


class NodeReadLog(dict):
    """A cluster's node table that logs each node read; the scorer reads a
    node once per candidate, for its queue length."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.reads = []

    def __getitem__(self, node_id):
        self.reads.append(node_id)
        return super().__getitem__(node_id)


def test_mcgrath_decide_scores_only_the_representatives():
    # w_data = 0: the replica holders of the references (every node here)
    # are not scored, so one decide scores at most the warm and the cold
    # representative.
    nodes = 16
    c = build_state(nodes, 1000.0, [i % 3 for i in range(nodes)],
                    [("warm", 5, "f1"), ("warm", 9, "f1")],
                    [(True, oid, nid) for oid in "bcd" for nid in range(nodes)])
    strategy = make_strategy("mcgrath_queues")
    event = Invocation("i", "f1", ("b", "c", "d"), "web", 0)
    want = brute_force_best(strategy, event, c)[0]
    c.nodes = NodeReadLog(c.nodes)
    node = strategy.decide(event, c)
    assert 0 < len(c.nodes.reads) <= 2
    assert node == want


@pytest.mark.parametrize("name", ("data_aware", "mcgrath_queues", "proactive_cluster"))
def test_a_missing_reference_is_refused_with_or_without_a_data_term(name):
    # The scan raises from locality_fraction whatever w_data is; so does the
    # one-pass scorer, naming the first missing reference.
    c = build_state(3, 1000.0, [0, 0, 0], [], [(True, "b", 1)])
    strategy = make_strategy(name)
    with pytest.raises(UnknownObjectError, match="nope"):
        strategy.decide(Invocation("i", "f1", ("b", "nope", "gone"), "web", 0), c)


def test_negative_weight_and_bad_queue_cap_are_refused():
    with pytest.raises(ConfigError, match="w_data"):
        make_strategy("data_aware", {"w_data": -1.0})
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
    result = runner.run_one(scenario, scenario.strategies[0], 1)
    return result.row(), [(r.invocation_id, r.node, r.timeline.finished_at)
                          for r in result.records]


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
    deque.append(c.nodes[2].run_queue, ("x", 1))  # length changes, index does not


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
    "append": (lambda q: q.append(("y", 1)), 3),
    "extend": (lambda q: q.extend([("y", 1)] * 2), 4),
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
    queue.append(("w", 1))  # a later append starts from the right bucket
    c.check_invariants()
