"""Cluster state and cost model.

Nodes host memory-flavored containers with a warm/cold lifecycle and a
local data store. Every invocation produces a phase timeline:

    dispatch -> queue wait -> boot -> code fetch -> data fetch -> compute -> write-back

Overhead phases are zero for a warm container with locally cached data;
remote bytes pay a latency plus serialized bandwidth cost. Fetched data is
written through into the executing node's store (FIFO eviction of
non-origin replicas under capacity pressure; origin replicas are never
evicted), so repeated work against the same data gets cheaper.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import SimulationError, UnknownNodeError, UnknownObjectError

DEFAULT_FLAVORS = (64, 128, 256, 512, 1024)
MAX_MS = 10**12  # about 31 years; keeps every time and phase sum inside 64 bits

# Code and result backends default to an external store that is remote to
# every node (a database-like service off the compute cluster).
EXTERNAL_STORE = "external"


@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """A deployed function: sizes in MB, pure compute time in ms."""

    name: str
    code_size: float = 0.0
    flavor: int = 128
    compute_ms: int = 1
    write_back: float = 0.0


@dataclass(slots=True)
class DataObject:
    """A shared data object and the node ids currently holding a replica."""

    id: str
    size: float
    placements: set[int] = field(default_factory=set)


@dataclass(slots=True, eq=False)
class Container:
    """One container, busy with one invocation or idle in its node's warm
    pool. Containers compare by identity. ``expiry`` is the (fire_at, seq)
    at which its keep-alive runs out, set by the runner on each release."""

    function: str
    node: int
    flavor: int
    expiry: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """Uniform node-to-node transfer cost: fixed latency plus bandwidth."""

    latency_ms: int = 1
    bandwidth_mb_per_s: float = 100.0

    def transfer_time(self, size_mb: float, remote: bool) -> int:
        """Milliseconds to move size_mb; local access is free. A transfer
        longer than MAX_MS, even one too long for a float, takes MAX_MS + 1:
        longer than any execution cap, which the cap then truncates."""
        if not remote:
            return 0
        ms = size_mb * 1000.0 / self.bandwidth_mb_per_s
        return self.latency_ms + (math.ceil(ms) if ms <= MAX_MS else MAX_MS + 1)


@dataclass(slots=True)
class PhaseTimeline:
    """Per-invocation time breakdown; all phases are integer ms."""

    dispatch_ms: int = 0
    queue_wait_ms: int = 0
    boot_ms: int = 0
    code_fetch_ms: int = 0
    data_fetch_ms: int = 0
    compute_ms: int = 0
    write_back_ms: int = 0
    started_at: int = 0
    finished_at: int = 0

    def actual_ms(self) -> int:
        return self.finished_at - self.started_at

    def active_ms(self) -> int:
        """Time the container is occupied (everything but dispatch and queue)."""
        return (
            self.boot_ms
            + self.code_fetch_ms
            + self.data_fetch_ms
            + self.compute_ms
            + self.write_back_ms
        )


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


@dataclass(frozen=True)
class ClusterParams:
    """Static cluster configuration; capacities in MB, times in ms."""

    nodes: int = 1
    mem_capacity: int = 4096
    store_capacity: float = 4000.0
    flavors: tuple[int, ...] = DEFAULT_FLAVORS
    network: NetworkModel = NetworkModel()
    container_boot_ms: int = 100
    keep_alive_ms: int = 600_000
    billing_granularity_ms: int = 100
    max_execution_ms: int = 300_000
    code_store: int | str = EXTERNAL_STORE
    result_store: int | str = EXTERNAL_STORE


class RunQueue(deque):
    """A node's FIFO run queue of (trace index, invocation) entries.

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
        self.busy_ms_accum = 0  # container-time: summed active phases
        self.compute_ms_accum = 0
        self.occupied_ms_accum = 0  # wall-clock time with >= 1 busy container
        self._occupied_since = 0

    def free_mem(self) -> int:
        return self.mem_capacity - self.mem_used

    def store_free(self) -> float:
        return self.store_capacity - self.store_used


def _code_key(function: str) -> str:
    return f"code:{function}"


class Cluster:
    """Owns nodes, the live object replica map, and the cost model.

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
        self.node_ids = list(range(params.nodes))
        self.warm_nodes: dict[str, int] = {}
        self.queue_buckets: dict[int, int] = {}
        self.nodes = {
            i: Node(i, params.mem_capacity, params.store_capacity, self.queue_buckets)
            for i in self.node_ids
        }
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
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(str(node_id))
        if object_id in node.store_entries:
            return PlacementOutcome.ALREADY_PRESENT
        if node.store_used + obj.size > node.store_capacity:
            return PlacementOutcome.NO_CAPACITY
        self._store_add(node, object_id, obj.size, evictable=not origin)
        obj.placements.add(node_id)
        return PlacementOutcome.PLACED

    def ingest_origin(self, object_id: str, node_id: int) -> None:
        """Place the origin replica; failure to fit is a setup error."""
        outcome = self.place_object(object_id, node_id, origin=True)
        if outcome is PlacementOutcome.NO_CAPACITY:
            raise SimulationError(
                f"origin replica of {object_id} does not fit on node {node_id}"
            )

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
        if node_id not in self.nodes:
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
            self._mark_busy(node, now)
            return _WARM_HIT, container
        spec = self.functions[function]
        if spec.flavor <= node.free_mem():
            node.mem_used += spec.flavor
            self._mark_busy(node, now)
            if node.mem_used > node.mem_capacity:
                raise SimulationError(f"memory over-commit on node {node_id}")
            return _COLD_START, Container(function, node_id, spec.flavor)
        return _REJECTED, None

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

    @staticmethod
    def _mark_busy(node: Node, now: int) -> None:
        if node.busy_count == 0:
            node._occupied_since = now
        node.busy_count += 1

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

    def simulate_invocation(self, inv, node_id: int, cold: bool, dispatch_ms: int,
                            queue_wait_ms: int) -> tuple[PhaseTimeline, bool]:
        """Compute the phase timeline for an invocation that has just
        acquired a container on ``node_id``.

        Overheads: boot and code fetch apply only to cold starts (code is
        pulled from the code store unless already cached on the node); each
        referenced object without a local replica is fetched sequentially
        and written through into the node store. Returns (timeline, failed)
        where failed means the active time hit the execution cap; capped
        executions occupy the node for exactly the cap.
        """
        node = self.nodes[node_id]
        spec = self.functions[inv.function]

        boot = 0 if not cold else self.params.container_boot_ms
        code_fetch = 0
        if cold and spec.code_size > 0:
            code_local = (
                _code_key(inv.function) in node.store_entries
                or self.params.code_store == node_id
            )
            code_fetch = self.network.transfer_time(spec.code_size, remote=not code_local)
            if not code_local:
                self._cache_code(inv.function, spec.code_size, node)

        data_fetch = 0
        for ref in inv.data_refs:
            obj = self.objects.get(ref)
            if obj is None:
                raise UnknownObjectError(ref)
            if node_id not in obj.placements:
                data_fetch += self.network.transfer_time(obj.size, remote=True)
                self.cache_object(ref, node_id)

        compute = spec.compute_ms
        write_back = 0
        if spec.write_back > 0:
            write_back = self.network.transfer_time(
                spec.write_back, remote=self.params.result_store != node_id
            )

        cap = self.params.max_execution_ms
        active = boot + code_fetch + data_fetch + compute + write_back
        failed = active > cap
        if failed:
            boot, code_fetch, data_fetch, compute, write_back = _truncate_at(
                (boot, code_fetch, data_fetch, compute, write_back), cap
            )
            active = cap

        started_at = inv.arrival
        exec_start = started_at + dispatch_ms + queue_wait_ms
        timeline = PhaseTimeline(  # positional, in field order
            dispatch_ms, queue_wait_ms, boot, code_fetch, data_fetch, compute, write_back,
            started_at, exec_start + active,
        )
        node.busy_ms_accum += active
        node.compute_ms_accum += compute
        return timeline, failed

    # ---- diagnostics -----------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if per-node capacity accounting is inconsistent, or if an
        index disagrees with the node state it is derived from."""
        warm_nodes: dict[str, int] = {}
        queue_buckets: dict[int, int] = {}
        for node in self.nodes.values():
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
