"""Deterministic discrete-event engine.

Virtual time is integer milliseconds. Occurrences fire in strict
(fire_at, seq) order, where seq is assigned at scheduling time, so ties at
the same instant resolve in scheduling order. An occurrence carries its
handler and the handler's arguments, so scheduling a bound method needs no
closure. It is a plain tuple (fire_at, seq, owner, action, args, label),
which is also its handle for ``Engine.cancel``; ``owner`` is the dict that
holds it until it fires.

Pending occurrences come from three kinds of source:

- occurrences whose delay varies (``schedule``), each with its own entry
  in the main heap;
- one FIFO lane per fixed delay (``after``). ``now + delay`` never
  decreases, so appending keeps a lane in (fire_at, seq) order, and
  cancelling deletes the entry at once instead of leaving a tombstone;
- sorted batches (``schedule_sorted``), which reserve a block of seqs up
  front and create each occurrence only when it fires, so a trace of
  arrivals costs no memory per pending item.

One binary heap merges them. Each non-empty lane and each unfinished batch
keeps exactly one key in it, its head's (fire_at, seq); firing the head
replaces that key with the source's next head. A lane whose head was
cancelled keeps the old key, which is never later than its current head;
when the old key comes up, the current head takes its place. So the firing
order and every seq are those a single heap holding all occurrences would
give. A cancelled ``schedule`` entry is skipped when popped.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import OrderedDict
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


# An occurrence: (fire_at, seq, owner, action, args, label).
Occurrence = tuple


class _Lane(OrderedDict):
    """The occurrences of one ``after`` delay, by seq, in firing order.
    ``queued`` says whether the lane has a key in the main heap."""

    __slots__ = ("queued",)


class Engine:
    """Single-owner event loop; state is mutated only from handlers.

    When ``record_log`` is set, every processed occurrence is appended to
    ``log`` as (fire_at, seq, label), which makes replay comparisons exact.
    """

    def __init__(self, record_log: bool = False):
        # Keys (fire_at, seq, source, action, args, label): an occurrence of
        # _timed, a lane's head occurrence (source is the lane), or a batch's
        # next item (source is the batch's times, args the item's index).
        self._heap: list[tuple] = []
        self._timed: dict[int, Occurrence] = {}  # live schedule() entries by seq
        self._lanes: dict[int, _Lane] = {}
        self._seq = 0
        self._now = 0
        self.record_log = record_log
        self.log: list[tuple[int, int, str]] = []

    def now(self) -> int:
        return self._now

    def schedule(self, at: int, action: Callable[..., None], label: str = "",
                 args: tuple = ()) -> Occurrence:
        """Enqueue ``action(*args)`` at virtual time ``at`` (>= now); returns
        the occurrence, which ``cancel`` takes."""
        if at < self._now:
            raise SchedulingInPastError(
                f"cannot schedule at t={at}; clock is already at t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        timed = self._timed
        occ = timed[seq] = (at, seq, timed, action, args, label)
        heapq.heappush(self._heap, occ)
        return occ

    def after(self, delay: int, action: Callable[..., None], label: str = "",
              args: tuple = ()) -> Occurrence:
        """Enqueue ``action(*args)`` ``delay`` ms from now; the same as
        ``schedule(now() + delay, ...)``. Each distinct delay gets its own
        lane, which costs one key in the heap however long it is, so use
        this for fixed delays and ``schedule`` for delays that vary."""
        if delay < 0:
            raise SchedulingInPastError(f"cannot schedule after a negative delay {delay}")
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _Lane()
            lane.queued = False
        seq = self._seq
        self._seq = seq + 1
        occ = lane[seq] = (self._now + delay, seq, lane, action, args, label)
        if not lane.queued:  # a queued lane's key is no later than occ
            lane.queued = True
            heapq.heappush(self._heap, occ)
        return occ

    @staticmethod
    def cancel(occurrence: Occurrence) -> None:
        """Drop an occurrence from ``schedule`` or ``after``. Cancelling it
        again, or after it has fired, does nothing. A lane entry goes at
        once; a heap entry stays in the heap until popped, then is
        skipped."""
        occurrence[2].pop(occurrence[1], None)

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
        heapq.heappush(self._heap, (times[0], self._seq, times, action, 0, label))
        self._seq += len(times)

    def _process(self, horizon: float) -> int:
        """Fire occurrences in (fire_at, seq) order while fire_at <= horizon;
        returns the number fired (cancelled entries are not counted)."""
        heap = self._heap
        log = self.log if self.record_log else None
        heappop, heapreplace, lane_class = heapq.heappop, heapq.heapreplace, _Lane
        processed = 0
        while heap:
            at, seq, source, action, args, label = heap[0]
            if at > horizon:
                break
            if source.__class__ is lane_class:
                fired = source.pop(seq, None)  # None: the head was cancelled
                for head in source.values():
                    heapreplace(heap, head)
                    break
                else:
                    heappop(heap)
                    source.queued = False
                if fired is None:
                    continue
            elif source.__class__ is dict:
                heappop(heap)
                if source.pop(seq, None) is None:
                    continue  # cancelled
            else:  # batch item: source is the times, args its index
                if args + 1 < len(source):
                    heapreplace(heap, (source[args + 1], seq + 1, source, action, args + 1, label))
                else:
                    heappop(heap)
                args = (args,)
            self._now = at
            if log is not None:
                log.append((at, seq, label))
            action(*args)
            processed += 1
        return processed

    def run_until(self, horizon: int) -> int:
        """Process every occurrence with fire_at <= horizon, then advance
        the clock to the horizon. Returns the number processed (cancelled
        entries are skipped and not counted)."""
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
        """Live occurrences from ``schedule`` and ``after``; cancelled ones
        and batch items not yet fired are not counted."""
        return len(self._timed) + sum(map(len, self._lanes.values()))
