"""Event dispatching strategies.

All strategies share one interface: decide(trace, index, cluster) -> node
id, for the invocation at ``index`` of the run's trace; each reads only the
trace columns it needs.
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
import sys
from typing import NamedTuple

from .cluster import Cluster, PlacementOutcome
from .engine import RandomSource
from .errors import ConfigError, UnknownObjectError
from .workload import Trace

DEFAULT_WEIGHTS = (0.3, 0.5, 0.2)  # warm code, data locality, queue headroom
DEFAULT_QUEUE_CAP = 16
DEFAULT_DECAY = 0.5  # per replication pass, of the popularity counts


def stable_hash(text: str) -> int:
    """Platform-stable string hash (md5); Python's built-in hash is salted."""
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest(), "big")


def data_signature(data_refs) -> str:
    """Order-independent digest of a reference set."""
    return hashlib.md5(";".join(sorted(data_refs)).encode("utf-8")).hexdigest()[:16]


def locality_score(cluster: Cluster, function: str, data_refs, node_id: int,
                   weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                   queue_cap: int = DEFAULT_QUEUE_CAP) -> float:
    """How good a node is for an invocation of ``function`` referencing
    ``data_refs``, in [0, 1] for weights summing to 1: warm code present, byte
    locality of the references, and queue headroom. The definition the
    data-aware family's one-pass scorer (DataAwareStrategy.decide) reproduces
    float for float."""
    w_code, w_data, w_load = weights
    node = cluster.nodes[node_id]
    code_warm = 1.0 if node.warm_pool.get(function) else 0.0
    data_local = cluster.locality_fraction(data_refs, node_id)
    return (w_code * code_warm + w_data * data_local
            + _load_term(w_load, len(node.run_queue), queue_cap))


def _load_term(w_load: float, qlen: int, queue_cap: int) -> float:
    """w_load * queue headroom, the last term of locality_score."""
    return w_load * (1.0 - min(1.0, qlen / queue_cap))


# A DataAwareStrategy lists its load term for every queue length up to a
# queue_cap this large. A scenario may set any queue_cap >= 1, so past this
# one the terms are computed on first use, and a huge cap allocates nothing.
LISTED_QUEUE_CAP = 4096


class _LoadTerms(dict):
    """Load terms by queue length, each computed on first use."""

    def __init__(self, w_load: float, queue_cap: int):
        super().__init__()
        self.w_load = w_load
        self.queue_cap = queue_cap

    def __missing__(self, qlen: int) -> float:
        term = self[qlen] = _load_term(self.w_load, qlen, self.queue_cap)
        return term


class DispatchStrategy:
    """Base class; subclasses implement decide(), which returns the node id
    chosen for the invocation at trace index ``index``; every dispatch
    takes dispatch_latency_ms.
    Instances come from make_strategy, which supplies the registered latency
    and parameters."""

    needs_replication = False

    def __init__(self, latency_ms: int):
        self.dispatch_latency_ms = latency_ms

    def decide(self, trace: Trace, index: int, cluster: Cluster) -> int:
        raise NotImplementedError


class RoundRobinStrategy(DispatchStrategy):
    def __init__(self, latency_ms: int):
        super().__init__(latency_ms)
        self.cursor = 0

    def decide(self, trace: Trace, index: int, cluster: Cluster) -> int:
        node = self.cursor % len(cluster.nodes)
        self.cursor += 1
        return node


class LeastLoadedStrategy(DispatchStrategy):
    def decide(self, trace: Trace, index: int, cluster: Cluster) -> int:
        buckets = cluster.queue_buckets
        mask = buckets[min(buckets)]  # the lowest set bit is the lowest node id
        return (mask & -mask).bit_length() - 1


class HashAffinityStrategy(DispatchStrategy):
    def __init__(self, latency_ms: int):
        super().__init__(latency_ms)
        self._hashes: dict[str, int] = {}  # function -> stable_hash(function)

    def decide(self, trace: Trace, index: int, cluster: Cluster) -> int:
        function = trace.functions[trace.function_codes[index]]
        digest = self._hashes.get(function)
        if digest is None:
            digest = self._hashes[function] = stable_hash(function)
        return digest % len(cluster.nodes)


class DataAwareStrategy(DispatchStrategy):
    """Reactive localization: send each event to the highest-scoring node."""

    def __init__(self, latency_ms: int, w_code: float, w_data: float, w_load: float,
                 queue_cap: int):
        super().__init__(latency_ms)
        self.weights = (w_code, w_data, w_load)
        self.queue_cap = queue_cap
        # w_load * headroom for each queue length up to queue_cap; every
        # longer queue has headroom 0 and reads the entry of queue_cap.
        if queue_cap <= LISTED_QUEUE_CAP:
            self._load_terms = [_load_term(w_load, q, queue_cap) for q in range(queue_cap + 1)]
        else:
            self._load_terms = _LoadTerms(w_load, queue_cap)

    def decide(self, trace: Trace, index: int, cluster: Cluster) -> int:
        """The argmax of locality_score over all nodes, ties to the lowest id,
        in two loops. The first scores the replica holders of the references,
        whose local bytes one walk over the references sums by the additions of
        Cluster.locality_fraction, in the order it met them. The second scores
        every other node, with the holders masked out of the queue-length
        index, shortest length first, and reads no node: at one length every
        warm non-holder scores alike, as does every cold one, so only each
        class's lowest id is scored. A class's score never rises with the
        length and a cold score never exceeds the warm one, so the loop stops
        at the first length whose warm score is below the best. A score above
        the best, or equal to it at a lower id, takes the lead, as in an
        ascending-id scan. Each score is locality_score's float: the code term
        w_code or 0.0 (w_code * 1.0 or w_code * 0.0 for a finite weight >= 0),
        the data term, and the load term read from _load_terms, added left to
        right as there."""
        w_code, w_data, _ = self.weights
        function = trace.functions[trace.function_codes[index]]
        objects = cluster.objects
        total = 0.0
        local: dict[int, float] = {}  # replica holder -> referenced bytes it holds
        for ref in trace.ref_sets[trace.ref_codes[index]]:
            obj = objects.get(ref)
            if obj is None:
                raise UnknownObjectError(ref)
            size = obj.size
            total += size
            if w_data:
                for nid in obj.placements:
                    local[nid] = local.get(nid, 0.0) + size
        warm = cluster.warm_nodes.get(function, 0)
        nodes = cluster.nodes
        load_terms = self._load_terms
        queue_cap = self.queue_cap
        best_node = -1
        best_score = -math.inf
        held = 0  # the holders' bits
        for nid, nbytes in local.items():
            held |= 1 << nid
            qlen = len(nodes[nid].run_queue)
            score = ((w_code if warm >> nid & 1 else 0.0)
                     + w_data * (nbytes / total if total else 1.0)
                     + load_terms[qlen if qlen < queue_cap else queue_cap])
            if score > best_score or (score == best_score and nid < best_node):
                best_score = score
                best_node = nid
        data_term = w_data * (0.0 if total else 1.0)  # a non-holder's
        cold = ~(warm | held)  # the cold non-holders
        warm &= ~held
        buckets = cluster.queue_buckets
        for qlen, mask in buckets.items() if len(buckets) == 1 else sorted(buckets.items()):
            load = load_terms[qlen if qlen < queue_cap else queue_cap]
            if w_code + data_term + load < best_score:
                break
            for code_term, members in ((w_code, mask & warm), (0.0, mask & cold)):
                if members:
                    score = code_term + data_term + load
                    nid = (members & -members).bit_length() - 1
                    if score > best_score or (score == best_score and nid < best_node):
                        best_score = score
                        best_node = nid
        return best_node


class PopularityCounter:
    """Decayed per-object access counts plus per-(object, node) demand
    accumulated since the last replication pass."""

    def __init__(self, decay: float = DEFAULT_DECAY):
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

    def decide(self, trace: Trace, index: int, cluster: Cluster) -> int:
        refs = trace.ref_sets[trace.ref_codes[index]]
        sig = self._signatures.get(refs)
        if sig is None:
            sig = self._signatures[refs] = data_signature(refs)
        key = (trace.functions[trace.function_codes[index]], sig,
               trace.origins[trace.origin_codes[index]])
        node = self.assignments.get(key)
        if node is None:
            node = self.assignments[key] = super().decide(trace, index, cluster)
        self.counters.record(refs, node)
        return node


class ReplicationAction:
    __slots__ = ("object_id", "node", "placed", "note")

    def __init__(self, object_id: str, node: int, placed: bool, note: str):
        self.object_id = object_id
        self.node = node
        self.placed = placed
        self.note = note


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
        for nid in range(len(cluster.nodes)):
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
    n = len(cluster.nodes)  # the ids are 0..n-1
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
    # Compared, not converted: an int too large for a float fails, and NaN fails both bounds.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value <= sys.float_info.max)


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


def strategy_problems(name: str, params: dict, decay: float) -> list[tuple[str, str]]:
    """(key, problem) for each rule that a strategy block breaks, with key
    relative to the block: a name that is not registered, each of params
    that the strategy does not take or whose value fails its check, and a
    popularity decay outside (0, 1]. make_strategy refuses the first, and
    validate reports them all."""
    problems = []
    preset = STRATEGIES.get(name)
    if preset is None:
        problems.append(("name", f"unknown strategy {name!r}; "
                                 f"registered strategies: {', '.join(STRATEGY_NAMES)}"))
    for key, value in params.items() if preset else ():
        if key not in preset.params:
            taken = ", ".join(preset.params) or "none"
            problems.append((f"params.{key}", f"is not a parameter of {name} (it takes: {taken})"))
        elif not PARAM_CHECKS[key][0](value):
            problems.append((f"params.{key}", PARAM_CHECKS[key][1]))
    if not 0.0 < decay <= 1.0:
        problems.append(("replication.decay", "must be in (0, 1]"))
    return problems


def make_strategy(name: str, params: dict | None = None, latency_ms: int | None = None,
                  replication_decay: float = DEFAULT_DECAY) -> DispatchStrategy:
    """Instantiate a registered strategy: its preset, with params replacing
    preset values and latency_ms the preset latency. replication_decay is
    the popularity decay of a strategy that replicates. A block that breaks
    a rule of strategy_problems is a ConfigError naming the first one, as
    ``strategy.<key>: <problem>``."""
    params = params or {}
    problems = strategy_problems(name, params, replication_decay)
    if problems:
        raise ConfigError("strategy.%s: %s" % problems[0])
    preset = STRATEGIES[name]
    params = {**preset.params, **params}
    if preset.cls.needs_replication:
        params["decay"] = replication_decay
    return preset.cls(preset.latency_ms if latency_ms is None else latency_ms, **params)
