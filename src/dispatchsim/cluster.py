"""Cluster state and cost model.

Nodes host memory-flavored containers with a warm/cold lifecycle and a
local data store. Every invocation has a phase timeline:

    dispatch -> queue wait -> boot -> code fetch -> data fetch -> compute -> write-back

The runner accounts dispatch and queue wait; the cost model
(Cluster.simulate_invocation) returns the five active phases from boot on.
Overhead phases are zero for a warm container with locally cached data;
remote bytes pay a latency plus serialized bandwidth cost. Fetched data is
written through into the executing node's store (FIFO eviction of
non-origin replicas under capacity pressure; origin replicas are never
evicted), so repeated work against the same data gets cheaper.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum

from .errors import SimulationError, UnknownNodeError, UnknownObjectError
from .slotted import Slotted

DEFAULT_FLAVORS = (64, 128, 256, 512, 1024)
MAX_MS = 10**12  # about 31 years; keeps every time and phase sum inside 64 bits

# Code and result backends default to an external store that is remote to
# every node (a database-like service off the compute cluster).
EXTERNAL_STORE = "external"


class FunctionSpec:
    """A deployed function: sizes in MB, pure compute time in ms, and its
    weight in the workload's function mix."""

    __slots__ = ("name", "code_size", "flavor", "compute_ms", "write_back", "weight")

    def __init__(self, name: str, code_size: float = 0.0, flavor: int = 128,
                 compute_ms: int = 1, write_back: float = 0.0, weight: float = 1.0):
        self.name = name
        self.code_size = code_size
        self.flavor = flavor
        self.compute_ms = compute_ms
        self.write_back = write_back
        self.weight = weight


class DataObject:
    """A shared data object and the node ids currently holding a replica."""

    __slots__ = ("id", "size", "placements")

    def __init__(self, id: str, size: float, placements: set[int] | None = None):
        self.id = id
        self.size = size
        self.placements = set() if placements is None else placements


class Container:
    """One container, busy with one invocation or idle in its node's warm
    pool. Containers compare by identity. ``expiry`` is the (fire_at, seq)
    at which its keep-alive runs out, set by the runner on each release."""

    __slots__ = ("function", "node", "flavor", "expiry")

    def __init__(self, function: str, node: int, flavor: int,
                 expiry: tuple[int, int] | None = None):
        self.function = function
        self.node = node
        self.flavor = flavor
        self.expiry = expiry


class NetworkModel(Slotted):
    """Uniform node-to-node transfer cost: fixed latency plus bandwidth."""

    __slots__ = ("latency_ms", "bandwidth_mb_per_s")

    def __init__(self, latency_ms: int = 1, bandwidth_mb_per_s: float = 100.0):
        self.latency_ms = latency_ms
        self.bandwidth_mb_per_s = bandwidth_mb_per_s

    def transfer_time(self, size_mb: float, remote: bool) -> int:
        """Milliseconds to move size_mb; local access is free. A transfer
        longer than MAX_MS, even one too long for a float, takes MAX_MS + 1:
        longer than any execution cap, which the cap then truncates."""
        if not remote:
            return 0
        ms = size_mb * 1000.0 / self.bandwidth_mb_per_s
        return self.latency_ms + (math.ceil(ms) if ms <= MAX_MS else MAX_MS + 1)


class AcquireOutcome(Enum):
    WARM_HIT = "warm_hit"
    COLD_START = "cold_start"
    REJECTED = "rejected"


class PlacementOutcome(Enum):
    PLACED = "placed"
    ALREADY_PRESENT = "already_present"
    NO_CAPACITY = "no_capacity"


# Enum member lookups cost about 0.1 us each; the per-invocation paths use these.
_WARM_HIT, _COLD_START, _REJECTED = (
    AcquireOutcome.WARM_HIT, AcquireOutcome.COLD_START, AcquireOutcome.REJECTED)


class ClusterParams(Slotted):
    """Static cluster configuration; capacities in MB, times in ms."""

    __slots__ = ("nodes", "mem_capacity", "store_capacity", "flavors", "network",
                 "container_boot_ms", "keep_alive_ms", "billing_granularity_ms",
                 "max_execution_ms", "code_store", "result_store")

    def __init__(self, nodes: int = 1, mem_capacity: int = 4096, store_capacity: float = 4000.0,
                 flavors: tuple[int, ...] = DEFAULT_FLAVORS,
                 network: NetworkModel | None = None, container_boot_ms: int = 100,
                 keep_alive_ms: int = 600_000, billing_granularity_ms: int = 100,
                 max_execution_ms: int = 300_000, code_store: int | str = EXTERNAL_STORE,
                 result_store: int | str = EXTERNAL_STORE):
        self.nodes = nodes
        self.mem_capacity = mem_capacity
        self.store_capacity = store_capacity
        self.flavors = flavors
        self.network = NetworkModel() if network is None else network
        self.container_boot_ms = container_boot_ms
        self.keep_alive_ms = keep_alive_ms
        self.billing_granularity_ms = billing_granularity_ms
        self.max_execution_ms = max_execution_ms
        self.code_store = code_store
        self.result_store = result_store


class RunQueue(deque):
    """A node's FIFO run queue of trace indices.

    Every length change moves the node's bit between the node masks of the
    cluster's queue-length index. Only ``append``, ``extend``, ``pop`` and
    ``popleft`` keep the index current; they are the four length-changing
    operations the simulator uses, and ``Cluster.check_invariants`` catches
    a length changed any other way.
    """

    __slots__ = ("_bit", "_buckets")

    def __init__(self, node_id: int, buckets: dict[int, int]):
        super().__init__()
        self._bit = 1 << node_id
        self._buckets = buckets
        buckets[0] = buckets.get(0, 0) | self._bit

    def _moved_from(self, old: int) -> None:
        new = len(self)
        if new == old:
            return
        buckets = self._buckets
        bit = self._bit
        mask = buckets[old] ^ bit  # the bit is set: clear it
        if mask:
            buckets[old] = mask
        else:
            del buckets[old]
        buckets[new] = buckets.get(new, 0) | bit

    def append(self, item) -> None:
        deque.append(self, item)
        self._moved_from(len(self) - 1)

    def extend(self, items) -> None:
        old = len(self)
        deque.extend(self, items)
        self._moved_from(old)

    def pop(self):
        item = deque.pop(self)
        self._moved_from(len(self) + 1)
        return item

    def popleft(self):
        item = deque.popleft(self)
        self._moved_from(len(self) + 1)
        return item


class Node:
    """Mutable per-node state: containers, local store, run queue, accumulators."""

    def __init__(self, node_id: int, mem_capacity: int, store_capacity: float,
                 queue_buckets: dict[int, int]):
        self.id = node_id
        self.mem_capacity = mem_capacity
        self.store_capacity = store_capacity
        self.mem_used = 0
        self.store_used = 0.0
        self.warm_pool: dict[str, list[Container]] = {}
        self.busy_count = 0
        self.store_entries: dict[str, float] = {}  # entry id -> size MB
        self.cache_order: deque[str] = deque()  # evictable entries, FIFO
        self.run_queue = RunQueue(node_id, queue_buckets)
        self.occupied_ms_accum = 0  # wall-clock time with >= 1 busy container
        self._occupied_since = 0

    def free_mem(self) -> int:
        return self.mem_capacity - self.mem_used

    def store_free(self) -> float:
        return self.store_capacity - self.store_used


def _code_key(function: str) -> str:
    return f"code:{function}"


class Cluster:
    """Owns the nodes, a list indexed by node id (the ids are 0..n-1), the
    live object replica map, and the cost model.

    Two indices let strategies skip scanning every node. Both hold node
    masks, int bitmasks with bit ``1 << i`` for node ``i``: ``warm_nodes``
    maps a function to the nodes holding an idle warm container for it,
    and ``queue_buckets`` maps each run-queue length to the nodes with
    that length. A mask that reaches 0 is deleted. The container lifecycle
    methods and the nodes' run queues keep both current.
    """

    def __init__(self, params: ClusterParams, functions: dict[str, FunctionSpec],
                 objects: list[DataObject] | None = None):
        if params.nodes < 1:
            raise SimulationError("cluster needs at least one node")
        self.params = params
        self.network = params.network
        self.functions = functions
        self.warm_nodes: dict[str, int] = {}
        self.queue_buckets: dict[int, int] = {}
        self.nodes = [Node(i, params.mem_capacity, params.store_capacity, self.queue_buckets)
                      for i in range(params.nodes)]
        # Fresh replica state per run: catalog objects are cloned without placements.
        self.objects: dict[str, DataObject] = {
            o.id: DataObject(o.id, o.size) for o in (objects or [])
        }

    # ---- data placement -------------------------------------------------

    def place_object(self, object_id: str, node_id: int, origin: bool = False) -> PlacementOutcome:
        """Add a replica if store capacity permits; never evicts.

        Idempotent for an already-present replica. NO_CAPACITY tells the
        caller (replication) to skip or evict on its own terms.
        """
        obj = self.objects.get(object_id)
        if obj is None:
            raise UnknownObjectError(object_id)
        if node_id not in range(len(self.nodes)):  # a list index would wrap -1
            raise UnknownNodeError(str(node_id))
        node = self.nodes[node_id]
        if object_id in node.store_entries:
            return PlacementOutcome.ALREADY_PRESENT
        if node.store_used + obj.size > node.store_capacity:
            return PlacementOutcome.NO_CAPACITY
        self._store_add(node, object_id, obj.size, evictable=not origin)
        obj.placements.add(node_id)
        return PlacementOutcome.PLACED

    def cache_object(self, object_id: str, node_id: int) -> bool:
        """Write-through cache of a fetched object, FIFO-evicting non-origin
        replicas to make room. Returns False when it cannot fit."""
        obj = self.objects[object_id]
        node = self.nodes[node_id]
        if object_id in node.store_entries:
            return True
        if not self._make_room(node, obj.size):
            return False
        self._store_add(node, object_id, obj.size, evictable=True)
        obj.placements.add(node_id)
        return True

    def _cache_code(self, function: str, size: float, node: Node) -> None:
        key = _code_key(function)
        if key in node.store_entries or size <= 0:
            return
        if self._make_room(node, size):
            self._store_add(node, key, size, evictable=True)

    def _store_add(self, node: Node, entry_id: str, size: float, evictable: bool) -> None:
        node.store_entries[entry_id] = size
        node.store_used += size
        if evictable:
            node.cache_order.append(entry_id)

    def _make_room(self, node: Node, size: float) -> bool:
        while node.store_free() < size and node.cache_order:
            victim = node.cache_order.popleft()
            node.store_used -= node.store_entries.pop(victim)
            obj = self.objects.get(victim)
            if obj is not None:
                obj.placements.discard(node.id)
        return node.store_free() >= size

    # ---- locality and transfer costs ------------------------------------

    def locality_fraction(self, data_refs, node_id: int) -> float:
        """Fraction of referenced bytes with a replica on the node; 1.0 for
        an empty reference set."""
        if node_id not in range(len(self.nodes)):
            raise UnknownNodeError(str(node_id))
        total = 0.0
        local = 0.0
        for ref in data_refs:
            obj = self.objects.get(ref)
            if obj is None:
                raise UnknownObjectError(ref)
            total += obj.size
            if node_id in obj.placements:
                local += obj.size
        if total == 0.0:
            return 1.0
        return local / total

    # ---- container lifecycle --------------------------------------------

    def acquire_container(self, node_id: int, function: str, now: int = 0):
        """Warm hit if an idle container exists, else cold start if memory
        permits, else rejection (the invocation stays queued). A warm hit
        takes the most recently released container, so a pool's oldest
        container stays at its head until it expires or is the last one."""
        node = self.nodes[node_id]
        pool = node.warm_pool.get(function)
        if pool:
            container = pool.pop()
            if not pool:
                self._clear_warm(function, node_id)
            outcome = _WARM_HIT
        else:
            flavor = self.functions[function].flavor
            if flavor > node.free_mem():
                return _REJECTED, None
            node.mem_used += flavor
            container = Container(function, node_id, flavor)
            outcome = _COLD_START
        if node.busy_count == 0:
            node._occupied_since = now
        node.busy_count += 1
        return outcome, container

    def release_container(self, container: Container, now: int = 0) -> None:
        """Busy -> warm-idle, at the back of its pool; the caller sets the
        container's expiry and keeps a keep-alive timer pending for the
        node."""
        node = self.nodes[container.node]
        node.busy_count -= 1
        if node.busy_count == 0:
            node.occupied_ms_accum += now - node._occupied_since
        function = container.function
        pool = node.warm_pool.get(function)
        if pool is None:
            pool = node.warm_pool[function] = []
        if not pool:
            warm = self.warm_nodes
            warm[function] = warm.get(function, 0) | (1 << node.id)
        pool.append(container)

    def _clear_warm(self, function: str, node_id: int) -> None:
        mask = self.warm_nodes[function] & ~(1 << node_id)
        if mask:
            self.warm_nodes[function] = mask
        else:
            del self.warm_nodes[function]

    def oldest_idle(self, node_id: int) -> Container | None:
        """The node's idle container with the earliest expiry: the smallest
        expiry among the heads of its pools, or None with none idle."""
        oldest = None
        for pool in self.nodes[node_id].warm_pool.values():
            if pool and (oldest is None or pool[0].expiry < oldest.expiry):
                oldest = pool[0]
        return oldest

    def expire_container(self, container: Container) -> int:
        """Reclaim an idle container's memory at keep-alive expiry; frees
        nothing for a container that is no longer idle."""
        node = self.nodes[container.node]
        pool = node.warm_pool.get(container.function)
        if not pool or container not in pool:
            return 0
        pool.remove(container)
        if not pool:
            self._clear_warm(container.function, node.id)
        node.mem_used -= container.flavor
        return container.flavor

    # ---- invocation execution -------------------------------------------

    def simulate_invocation(self, function: str, data_refs, node_id: int,
                            cold: bool) -> tuple[tuple[int, int, int, int, int], bool]:
        """The active phases of an invocation of ``function`` that has just
        acquired a container on ``node_id``: (boot, code fetch, data fetch,
        compute, write-back) ms, the last five of metrics.PHASES, and whether
        it failed. Dispatch and queue wait are the runner's to add.

        Overheads: boot and code fetch apply only to cold starts (code is
        pulled from the code store unless already cached on the node); each
        referenced object without a local replica is fetched sequentially
        and written through into the node store. Failed means the active
        time passed the execution cap; the phases of a capped execution are
        cut off there, so it occupies the node for exactly the cap.
        """
        node = self.nodes[node_id]
        spec = self.functions[function]
        params = self.params

        boot = code_fetch = 0
        if cold:
            boot = params.container_boot_ms
            if spec.code_size > 0:
                code_local = (_code_key(function) in node.store_entries
                              or params.code_store == node_id)
                code_fetch = self.network.transfer_time(spec.code_size, remote=not code_local)
                if not code_local:
                    self._cache_code(function, spec.code_size, node)

        data_fetch = 0
        for ref in data_refs:
            obj = self.objects.get(ref)
            if obj is None:
                raise UnknownObjectError(ref)
            if node_id not in obj.placements:
                data_fetch += self.network.transfer_time(obj.size, remote=True)
                self.cache_object(ref, node_id)

        write_back = 0
        if spec.write_back > 0:
            write_back = self.network.transfer_time(
                spec.write_back, remote=params.result_store != node_id
            )

        phases = (boot, code_fetch, data_fetch, spec.compute_ms, write_back)
        cap = params.max_execution_ms
        if boot + code_fetch + data_fetch + spec.compute_ms + write_back > cap:
            return _truncate_at(phases, cap), True
        return phases, False

    # ---- diagnostics -----------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if per-node capacity accounting is inconsistent, or if an
        index disagrees with the node state it is derived from."""
        warm_nodes: dict[str, int] = {}
        queue_buckets: dict[int, int] = {}
        for node in self.nodes:
            bit = 1 << node.id
            for function, pool in node.warm_pool.items():
                if pool:
                    warm_nodes[function] = warm_nodes.get(function, 0) | bit
                # Keep-alive expires a pool from its head: expiries rise along it.
                expiries = [c.expiry for c in pool if c.expiry is not None]
                if expiries != sorted(expiries):
                    raise SimulationError(
                        f"warm pool of {function} on node {node.id} is out of expiry order")
            qlen = len(node.run_queue)
            queue_buckets[qlen] = queue_buckets.get(qlen, 0) | bit
            warm_sum = sum(
                c.flavor for pool in node.warm_pool.values() for c in pool
            )
            busy_flavor = node.mem_used - warm_sum
            if node.mem_used > node.mem_capacity or busy_flavor < 0:
                raise SimulationError(f"memory accounting broken on node {node.id}")
            if node.store_used - sum(node.store_entries.values()) > 1e-9:
                raise SimulationError(f"store accounting broken on node {node.id}")
            if node.store_used > node.store_capacity + 1e-9:
                raise SimulationError(f"store over capacity on node {node.id}")
        if self.warm_nodes != warm_nodes:
            raise SimulationError("warm-container index disagrees with the warm pools")
        if self.queue_buckets != queue_buckets:
            raise SimulationError("queue-length index disagrees with the run queues")


def _truncate_at(phases: tuple[int, ...], cap: int) -> tuple[int, ...]:
    """Cut a phase sequence off once the running total reaches the cap."""
    out = []
    left = cap
    for p in phases:
        take = min(p, left)
        out.append(take)
        left -= take
    return tuple(out)
