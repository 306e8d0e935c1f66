"""Deterministic discrete-event engine.

Virtual time is integer milliseconds. Occurrences fire in strict
(fire_at, seq) order, where seq is assigned at scheduling time, so ties at
the same instant resolve in scheduling order.

Pending occurrences live in three kinds of queue, merged on every pop:

- a binary heap for occurrences whose delay varies (``schedule``);
- one FIFO lane per fixed delay (``after``). ``now + delay`` never
  decreases, so appending keeps a lane in (fire_at, seq) order, and
  cancelling deletes the entry at once instead of leaving a tombstone;
- sorted batches (``schedule_sorted``), which reserve a block of seqs up
  front and create each occurrence only when it fires, so a trace of
  arrivals costs no memory per pending item.

The merge picks the smallest (fire_at, seq) among the heap top, the lane
heads and the batch cursors, so the firing order and every seq are those a
single heap holding all occurrences would give. A cancelled heap entry is
skipped when popped.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from operator import gt
from typing import Callable, Sequence

from .errors import SchedulingInPastError


class RandomSource:
    """Seeded pseudo-random source with named, non-interleaving streams.

    Backed by CPython's Mersenne Twister (mt19937), seeded from the string
    "<seed>/<stream>" (hashed with SHA-512 by the stdlib seeder), so an
    identical (seed, stream) pair yields an identical draw sequence on
    every platform. Components that draw independently (trace generation,
    steal victim selection) get distinct stream names to keep their
    sequences from interleaving.
    """

    def __init__(self, seed: int, stream: str = "main"):
        self.seed = seed
        self.stream = stream
        self._rng = random.Random(f"{seed}/{stream}")

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        return self._rng.randint(lo, hi)

    def expovariate(self, mean: float) -> float:
        """Exponential draw with the given mean (> 0)."""
        return self._rng.expovariate(1.0 / mean)


@dataclass(slots=True, eq=False)
class Occurrence:
    """A scheduled occurrence; also serves as its own cancellation handle.

    ``lane`` is the FIFO lane holding it, or None for a heap entry."""

    fire_at: int
    seq: int
    action: Callable[[], None]
    label: str
    cancelled: bool = False
    lane: OrderedDict | None = None

    def cancel(self) -> None:
        if self.lane is None:
            self.cancelled = True
        else:
            self.lane.pop(self.seq, None)  # a no-op once it has fired


@dataclass(slots=True, eq=False)
class _Batch:
    """Cursor over a schedule_sorted block: item i fires at times[i] with
    seq base + i."""

    times: Sequence[int]
    action: Callable[[int], None]
    label: str
    base: int
    index: int = 0


class Engine:
    """Single-owner event loop; state is mutated only from handlers.

    When ``record_log`` is set, every processed occurrence is appended to
    ``log`` as (fire_at, seq, label), which makes replay comparisons exact.
    """

    def __init__(self, record_log: bool = False):
        self._heap: list[tuple[int, int, Occurrence]] = []
        self._lanes: dict[int, OrderedDict[int, Occurrence]] = {}
        self._batches: list[_Batch] = []
        self._seq = 0
        self._now = 0
        self.record_log = record_log
        self.log: list[tuple[int, int, str]] = []

    def now(self) -> int:
        return self._now

    def schedule(self, at: int, action: Callable[[], None], label: str = "") -> Occurrence:
        """Enqueue an occurrence at virtual time ``at`` (>= now)."""
        if at < self._now:
            raise SchedulingInPastError(
                f"cannot schedule at t={at}; clock is already at t={self._now}"
            )
        occ = Occurrence(at, self._seq, action, label)
        self._seq += 1
        heapq.heappush(self._heap, (at, occ.seq, occ))
        return occ

    def after(self, delay: int, action: Callable[[], None], label: str = "") -> Occurrence:
        """Enqueue an occurrence ``delay`` ms from now; the same as
        ``schedule(now() + delay, ...)``. Each distinct delay gets its own
        lane, scanned on every pop, so use this for a handful of fixed
        delays and ``schedule`` for delays that vary."""
        if delay < 0:
            raise SchedulingInPastError(f"cannot schedule after a negative delay {delay}")
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = OrderedDict()
        seq = self._seq
        self._seq = seq + 1
        occ = lane[seq] = Occurrence(self._now + delay, seq, action, label, False, lane)
        return occ

    def schedule_sorted(self, times: Sequence[int], action: Callable[[int], None],
                        label: str = "") -> None:
        """Enqueue ``action(i)`` at ``times[i]`` for every i; the same as
        calling ``schedule`` once per item, in order. ``times`` must be
        non-decreasing, start no earlier than now and stay unchanged until
        the batch has fired. The items cannot be cancelled."""
        if not times:
            return
        if times[0] < self._now:
            raise SchedulingInPastError(
                f"cannot schedule at t={times[0]}; clock is already at t={self._now}"
            )
        if any(map(gt, times, islice(times, 1, None))):
            raise ValueError("schedule_sorted needs non-decreasing times")
        self._batches.append(_Batch(times, action, label, self._seq))
        self._seq += len(times)

    def _process(self, horizon: float) -> int:
        """Fire occurrences in (fire_at, seq) order while fire_at <= horizon;
        returns the number fired (cancelled heap entries are not counted)."""
        heap = self._heap
        lanes = self._lanes.values()
        batches = self._batches
        log = self.log if self.record_log else None
        heappop, inf, batch_class = heapq.heappop, math.inf, _Batch
        processed = 0
        while True:
            # Smallest (at, seq) with at <= horizon; seqs are unique.
            source = None
            at, seq = horizon, inf
            if heap:
                top = heap[0]
                if top[0] <= horizon:
                    at, seq = top[0], top[1]
                    source = heap
            for lane in lanes:
                for head in lane.values():  # the head only
                    if head.fire_at < at or (head.fire_at == at and head.seq < seq):
                        at, seq = head.fire_at, head.seq
                        source = lane
                    break
            for batch in batches:
                t = batch.times[batch.index]
                if t < at or (t == at and batch.base + batch.index < seq):
                    at, seq = t, batch.base + batch.index
                    source = batch
            if source is None:
                return processed
            if source.__class__ is batch_class:
                occ = None
                i = source.index
                source.index = i + 1
                if source.index == len(source.times):
                    batches.remove(source)
                label = source.label
            else:
                occ = heappop(heap)[2] if source is heap else source.popitem(False)[1]
                if occ.cancelled:
                    continue
                label = occ.label
            self._now = at
            if log is not None:
                log.append((at, seq, label))
            if occ is None:
                source.action(i)
            else:
                occ.action()
            processed += 1

    def run_until(self, horizon: int) -> int:
        """Process every occurrence with fire_at <= horizon, then advance
        the clock to the horizon. Returns the number processed (cancelled
        heap entries are skipped and not counted)."""
        if horizon < self._now:
            raise SchedulingInPastError(
                f"horizon t={horizon} is behind the clock t={self._now}"
            )
        processed = self._process(horizon)
        self._now = horizon
        return processed

    def run(self) -> int:
        """Drain the queue completely; the clock ends at the last fire time."""
        return self._process(math.inf)

    def pending(self) -> int:
        """Occurrences held in the heap (cancelled ones included) and the
        lanes; batch items not yet fired are not counted."""
        return len(self._heap) + sum(len(lane) for lane in self._lanes.values())
