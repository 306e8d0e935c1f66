"""Event dispatching strategies.

All strategies share one interface: decide(invocation, cluster) -> node id.
Baselines ignore data placement (round robin, least loaded, hash
affinity); the data-aware family scores nodes by a weighted mix of warm
code, byte locality and queue headroom; the proactive variant pins
recurring event clusters to nodes and feeds a popularity counter that a
periodic replication pass uses to copy hot objects toward demand. Work
stealing is a composable add-on that lets idle nodes pull queued work from
random victims.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

from .cluster import Cluster, PlacementOutcome
from .engine import RandomSource
from .errors import ConfigError, UnknownObjectError

DEFAULT_WEIGHTS = (0.3, 0.5, 0.2)  # warm code, data locality, queue headroom
DEFAULT_QUEUE_CAP = 16
DEFAULT_DECAY = 0.5  # per replication pass, of the popularity counts


def stable_hash(text: str) -> int:
    """Platform-stable string hash (md5); Python's built-in hash is salted."""
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest(), "big")


def data_signature(data_refs) -> str:
    """Order-independent digest of a reference set."""
    return hashlib.md5(";".join(sorted(data_refs)).encode("utf-8")).hexdigest()[:16]


def locality_score(cluster: Cluster, inv, node_id: int,
                   weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                   queue_cap: int = DEFAULT_QUEUE_CAP) -> float:
    """How good a node is for an invocation, in [0, 1] for weights summing
    to 1: warm code present, byte locality of the references, and queue
    headroom. The definition the data-aware family's one-pass scorer
    (DataAwareStrategy.decide) reproduces float for float."""
    node = cluster.nodes[node_id]
    code_warm = 1.0 if node.warm_pool.get(inv.function) else 0.0
    data_local = cluster.locality_fraction(inv.data_refs, node_id)
    return _weighted(weights, code_warm, data_local, len(node.run_queue), queue_cap)


def _weighted(weights: tuple[float, float, float], code_warm: float, data_local: float,
              qlen: int, queue_cap: int) -> float:
    w_code, w_data, w_load = weights
    headroom = 1.0 - min(1.0, qlen / queue_cap)
    return w_code * code_warm + w_data * data_local + w_load * headroom


class DispatchStrategy:
    """Base class; subclasses implement decide(), which returns the chosen
    node id; every dispatch takes dispatch_latency_ms. Instances come from
    make_strategy, which supplies the registered latency and parameters."""

    needs_replication = False

    def __init__(self, latency_ms: int):
        self.dispatch_latency_ms = latency_ms

    def decide(self, inv, cluster: Cluster) -> int:
        raise NotImplementedError


class RoundRobinStrategy(DispatchStrategy):
    def __init__(self, latency_ms: int):
        super().__init__(latency_ms)
        self.cursor = 0

    def decide(self, inv, cluster: Cluster) -> int:
        ids = cluster.node_ids
        node = ids[self.cursor % len(ids)]
        self.cursor += 1
        return node


class LeastLoadedStrategy(DispatchStrategy):
    def decide(self, inv, cluster: Cluster) -> int:
        buckets = cluster.queue_buckets
        mask = buckets[min(buckets)]  # the lowest set bit is the lowest node id
        return (mask & -mask).bit_length() - 1


class HashAffinityStrategy(DispatchStrategy):
    def __init__(self, latency_ms: int):
        super().__init__(latency_ms)
        self._hashes: dict[str, int] = {}  # function -> stable_hash(function)

    def decide(self, inv, cluster: Cluster) -> int:
        ids = cluster.node_ids
        digest = self._hashes.get(inv.function)
        if digest is None:
            digest = self._hashes[inv.function] = stable_hash(inv.function)
        return ids[digest % len(ids)]


class DataAwareStrategy(DispatchStrategy):
    """Reactive localization: send each event to the highest-scoring node."""

    def __init__(self, latency_ms: int, w_code: float, w_data: float, w_load: float,
                 queue_cap: int):
        super().__init__(latency_ms)
        self.weights = (w_code, w_data, w_load)
        self.queue_cap = queue_cap

    def decide(self, inv, cluster: Cluster) -> int:
        """The argmax of locality_score over all nodes, ties to the lowest
        id, from scoring only the replica holders of the references and
        the best warm and cold representatives of everyone else. With no
        data term, a replica holder scores as any node does, so the
        representatives alone decide.

        One pass over the references gives every holder's local bytes, by
        the same additions in the same order as Cluster.locality_fraction,
        and each candidate is scored with the expression locality_score
        evaluates, so every score is the same float."""
        w_code, w_data, w_load = self.weights
        objects = cluster.objects
        total = 0.0
        local: dict[int, float] = {}  # replica holder -> referenced bytes it holds
        for ref in inv.data_refs:
            obj = objects.get(ref)
            if obj is None:
                raise UnknownObjectError(ref)
            size = obj.size
            total += size
            if w_data:
                for nid in obj.placements:
                    local[nid] = local.get(nid, 0.0) + size
        # A node without a replica has byte locality 0, or 1 when no byte is referenced.
        candidates = set(local)
        candidates.update(self._representatives(cluster, inv.function, 0.0 if total else 1.0))
        warm = cluster.warm_nodes.get(inv.function, 0)
        nodes = cluster.nodes
        queue_cap = self.queue_cap
        best_node = -1
        best_score = float("-inf")
        for nid in sorted(candidates):  # ascending ids: ties keep the lowest
            code_warm = 1.0 if warm >> nid & 1 else 0.0
            data_local = local.get(nid, 0.0) / total if total else 1.0
            headroom = 1.0 - min(1.0, len(nodes[nid].run_queue) / queue_cap)
            score = w_code * code_warm + w_data * data_local + w_load * headroom
            if score > best_score:
                best_score = score
                best_node = nid
        return best_node

    def _representatives(self, cluster: Cluster, function: str,
                         data_local: float) -> list[int]:
        """For the warm and the cold class, the node a scan of all nodes
        would pick if no node held a referenced byte.

        Within a class the score only falls as the queue grows (the weights
        are non-negative), so the best sit at the shortest queue length.
        A longer length can tie it (every length past queue_cap, w_load = 0,
        or a load term lost to rounding); its nodes then compete on id too,
        so the class's tied nodes are ORed into one mask.
        """
        warm = cluster.warm_nodes.get(function, 0)
        levels = sorted(cluster.queue_buckets.items())
        reps = []
        for code_warm, keep in ((1.0, warm), (0.0, ~warm)):
            top = None
            tied = 0
            for qlen, nodes in levels:
                members = nodes & keep
                if not members:
                    continue
                score = _weighted(self.weights, code_warm, data_local, qlen, self.queue_cap)
                if top is None:
                    top = score
                elif score != top:
                    break
                tied |= members
            if tied:
                reps.append((tied & -tied).bit_length() - 1)
        return reps


class PopularityCounter:
    """Decayed per-object access counts plus per-(object, node) demand
    accumulated since the last replication pass."""

    def __init__(self, decay: float = DEFAULT_DECAY):
        if not 0.0 < decay <= 1.0:
            raise ConfigError("decay must be in (0, 1]")
        self.decay = decay
        self.counts: dict[str, float] = {}
        self.demand: dict[tuple[str, int], int] = {}

    def record(self, data_refs, node_id: int) -> None:
        for ref in data_refs:
            self.counts[ref] = self.counts.get(ref, 0.0) + 1.0
            key = (ref, node_id)
            self.demand[key] = self.demand.get(key, 0) + 1

    def tick_decay(self) -> None:
        self.counts = {
            k: v * self.decay for k, v in self.counts.items() if v * self.decay > 1e-9
        }
        self.demand.clear()


class ProactiveClusterStrategy(DataAwareStrategy):
    """Proactive localization: equal cluster keys stick to one node, and
    reference popularity is tracked for the replication pass."""

    needs_replication = True

    def __init__(self, latency_ms: int, decay: float, **scoring):
        super().__init__(latency_ms, **scoring)
        self.assignments: dict[tuple, int] = {}  # (function, data_signature, origin) -> node
        self.counters = PopularityCounter(decay)
        self._signatures: dict[tuple[str, ...], str] = {}  # reference set -> data_signature

    def decide(self, inv, cluster: Cluster) -> int:
        refs = inv.data_refs
        sig = self._signatures.get(refs)
        if sig is None:
            sig = self._signatures[refs] = data_signature(refs)
        key = (inv.function, sig, inv.origin)
        node = self.assignments.get(key)
        if node is None:
            node = self.assignments[key] = super().decide(inv, cluster)
        self.counters.record(refs, node)
        return node


@dataclass(frozen=True, slots=True)
class ReplicationAction:
    object_id: str
    node: int
    placed: bool
    note: str


def replication_tick(counters: PopularityCounter, cluster: Cluster,
                     threshold: float) -> list[ReplicationAction]:
    """Copy each sufficiently popular object to the node demanding it most
    among those lacking a replica, then decay all counts.

    Capacity-exceeded placements are skipped and reported, not retried.
    """
    actions: list[ReplicationAction] = []
    for object_id in sorted(counters.counts):
        if counters.counts[object_id] < threshold:
            continue
        obj = cluster.objects[object_id]
        best_node = -1
        best_demand = 0
        for nid in cluster.node_ids:
            if nid in obj.placements:
                continue
            demand = counters.demand.get((object_id, nid), 0)
            if demand > best_demand:  # ties keep the lowest node id
                best_demand = demand
                best_node = nid
        if best_node < 0:
            continue
        outcome = cluster.place_object(object_id, best_node)
        placed = outcome is PlacementOutcome.PLACED
        actions.append(ReplicationAction(
            object_id, best_node, placed,
            "placed" if placed else outcome.value,
        ))
    counters.tick_decay()
    return actions


def steal_work(cluster: Cluster, idle_node_id: int, rng: RandomSource) -> list:
    """One steal attempt for an idle node: pick a uniformly random other
    node; if its queue holds at least two items, move the back half
    (ceil(len/2)) to the idle node. Returns the moved queue items."""
    n = len(cluster.node_ids)  # the ids are 0..n-1
    if n < 2:
        return []
    r = rng.randint(0, n - 2)
    victim = cluster.nodes[r + (r >= idle_node_id)]  # the r-th id other than the idle one
    qlen = len(victim.run_queue)
    if qlen < 2:
        return []
    batch = [victim.run_queue.pop() for _ in range((qlen + 1) // 2)]
    batch.reverse()  # preserve original queue order at the thief
    cluster.nodes[idle_node_id].run_queue.extend(batch)
    return batch


def _weight(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0)


def _queue_cap(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# Every strategy parameter: the check its value must pass, and the problem otherwise.
PARAM_CHECKS = {
    "w_code": (_weight, "must be a finite number >= 0"),
    "w_data": (_weight, "must be a finite number >= 0"),
    "w_load": (_weight, "must be a finite number >= 0"),
    "queue_cap": (_queue_cap, "must be an integer >= 1"),
}


class Preset(NamedTuple):
    """A registered strategy: its class, default dispatch latency, and every
    parameter it takes with its default."""

    cls: type
    latency_ms: int
    params: dict


_SCORING = dict(zip(("w_code", "w_data", "w_load"), DEFAULT_WEIGHTS), queue_cap=DEFAULT_QUEUE_CAP)

STRATEGIES: dict[str, Preset] = {
    "round_robin": Preset(RoundRobinStrategy, 1, {}),
    "least_loaded": Preset(LeastLoadedStrategy, 1, {}),
    "hash_affinity": Preset(HashAffinityStrategy, 1, {}),
    # Warm-first matching: full weight on warm code and a small load term
    # so ties fall to the shortest queue.
    "mcgrath_queues": Preset(DataAwareStrategy, 1,
                             dict(_SCORING, w_code=1.0, w_data=0.0, w_load=0.1)),
    "data_aware": Preset(DataAwareStrategy, 2, _SCORING),  # placement lookup is not free
    "proactive_cluster": Preset(ProactiveClusterStrategy, 2, _SCORING),
}
STRATEGY_NAMES = tuple(STRATEGIES)


def param_errors(name: str, params: dict) -> list[tuple[str, str]]:
    """(parameter, problem) for each of params that the registered strategy
    name does not take or whose value fails its check."""
    taken = STRATEGIES[name].params
    errors = []
    for key, value in params.items():
        if key not in taken:
            errors.append((key, f"is not a parameter of {name} "
                                f"(it takes: {', '.join(taken) or 'none'})"))
        elif not PARAM_CHECKS[key][0](value):
            errors.append((key, PARAM_CHECKS[key][1]))
    return errors


def make_strategy(name: str, params: dict | None = None, latency_ms: int | None = None,
                  replication_decay: float = DEFAULT_DECAY) -> DispatchStrategy:
    """Instantiate a registered strategy: its preset, with params replacing
    preset values and latency_ms the preset latency. replication_decay is
    the popularity decay of a strategy that replicates."""
    preset = STRATEGIES.get(name)
    if preset is None:
        raise ConfigError(
            f"unknown strategy {name!r}; registered strategies: {', '.join(STRATEGY_NAMES)}"
        )
    params = params or {}
    errors = param_errors(name, params)
    if errors:
        raise ConfigError(f"bad parameters for strategy {name!r}: "
                          + "; ".join(f"{key} {problem}" for key, problem in errors))
    params = {**preset.params, **params}
    if preset.cls.needs_replication:
        params["decay"] = replication_decay
    return preset.cls(preset.latency_ms if latency_ms is None else latency_ms, **params)
