"""Deterministic discrete-event engine.

Virtual time is integer milliseconds. Occurrences fire in strict
(fire_at, seq) order, where seq is assigned at scheduling time, so ties at
the same instant resolve in scheduling order. The owner can also take a seq
(see Engine) and push an occurrence at it later: the occurrence then fires
where it would have fired had it been scheduled when the seq was taken. An
occurrence carries its handler and the handler's arguments, so scheduling a
bound method needs no closure. Nothing is ever cancelled: every scheduled
occurrence fires.

Two binary heaps hold what is pending: the event heap, each occurrence
from ``schedule`` or the owner's push (see Engine) as (fire_at, seq,
action, args), and the batch heap, one key per unfinished sorted batch
(``schedule_sorted``) as (fire_at, seq, times, action, index). A batch
reserves a block of seqs up front and creates each item only when it
fires, as ``action(index)``, so a trace of arrivals costs no memory per
pending item. Firing an item replaces its batch's key with the
next item's, a sift through one key per batch, not through every pending
occurrence. ``run`` fires the earlier top; seqs are unique across both
heaps, so the firing order and every seq are those one heap holding every
item would give.
"""

from __future__ import annotations

import heapq
import random
from itertools import islice
from operator import gt
from typing import Callable, Sequence

from .errors import SchedulingInPastError


class RandomSource(random.Random):
    """Seeded pseudo-random source with named, non-interleaving streams.

    A ``random.Random`` (CPython's Mersenne Twister, mt19937) seeded from
    the string "<seed>/<stream>" (hashed with SHA-512 by the stdlib
    seeder), so an identical (seed, stream) pair yields an identical draw
    sequence on every platform. Components that draw independently (trace
    generation, steal victim selection) get distinct stream names to keep
    their sequences from interleaving. Float draws are the stdlib's own
    ``random()``. Trace generation takes no ``expovariate`` call: it
    computes the stdlib formula, ``-log(1 - random()) / rate``, inline.

    Integer draws are defined here rather than left to the stdlib: a draw
    in a range of width n takes ``getrandbits(n.bit_length())`` until the
    value is below n. That is the rejection sampling CPython's
    ``randrange`` does on 3.10 to 3.13, and the tests check every value
    and the stream position left behind against ``random.Random.randint``.
    Defining it here lets ``skip_randint`` advance the stream by whole
    draws without computing their values, and lets trace generation make
    the same draws inline.
    """

    def __new__(cls, seed: int, stream: str = "main"):
        return super().__new__(cls)  # Random.__new__ on 3.10 takes at most one argument

    def __init__(self, seed: int, stream: str = "main"):
        super().__init__(f"{seed}/{stream}")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        n, k = _width_bits(lo, hi)
        getrandbits = self.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    def skip_randint(self, lo: int, hi: int, count: int) -> None:
        """Advance the stream as ``count`` calls of ``randint(lo, hi)``
        would, without returning their values."""
        n, k = _width_bits(lo, hi)
        getrandbits = self.getrandbits
        for _ in range(count):
            while getrandbits(k) >= n:
                pass


def _width_bits(lo: int, hi: int) -> tuple[int, int]:
    """The width n of [lo, hi] and the bits a draw below n takes."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    return n, n.bit_length()


class Engine:
    """Single-owner event loop; state is mutated only from handlers.

    ``now`` is the clock: the fire time of the occurrence firing, or of the
    last one fired. The owner takes the next seq by reading ``_seq`` and
    advancing it by one, and pushes an occurrence with no call:
    ``heappush(engine._heap, (fire_at, seq, action, args))``. A push is
    unchecked, so its (fire_at, seq) must come after the occurrence firing
    now, as a fresh seq at ``now`` or later does. The runner pushes its
    offers, completions and keep-alive timers so.

    ``log``, when not None, is any object with ``append``: it gets
    (fire_at, seq, action, args) for each fired occurrence, args (index,)
    for a batch item, just before the occurrence fires. Handlers and
    arguments compare by identity, so two logs compare by names derived
    from their entries; tests/reference.py names the runner's events.
    """

    def __init__(self, log=None):
        self._heap: list[tuple] = []  # (fire_at, seq, action, args)
        self._batch_heap: list[tuple] = []  # (fire_at, seq, times, action, index)
        self._seq = 0
        self.now = 0
        self.log = log

    def schedule(self, at: int, action: Callable[..., None], args: tuple = ()) -> None:
        """Enqueue ``action(*args)`` at virtual time ``at`` (>= now), next seq."""
        if at < self.now:
            raise SchedulingInPastError(
                f"cannot schedule at t={at}; clock is already at t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (at, seq, action, args))

    def schedule_sorted(self, times: Sequence[int], action: Callable[[int], None]) -> None:
        """Enqueue ``action(i)`` at ``times[i]`` for every i; the same as
        calling ``schedule`` once per item, in order. ``times`` must be
        non-decreasing, start no earlier than now and stay unchanged until
        the batch has fired."""
        if not times:
            return
        if times[0] < self.now:
            raise SchedulingInPastError(
                f"cannot schedule at t={times[0]}; clock is already at t={self.now}"
            )
        if any(map(gt, times, islice(times, 1, None))):
            raise ValueError("schedule_sorted needs non-decreasing times")
        heapq.heappush(self._batch_heap, (times[0], self._seq, times, action, 0))
        self._seq += len(times)

    def run(self) -> int:
        """Fire every occurrence and batch item in (fire_at, seq) order,
        each time the earlier of the two heaps' tops, until none is pending;
        the clock ends at the last fire time. Returns the number fired."""
        heap, batches = self._heap, self._batch_heap
        log = self.log
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        processed = 0
        while True:
            if batches and (not heap or batches[0] < heap[0]):  # decided by (fire_at, seq)
                at, seq, times, action, index = batches[0]
                if index + 1 < len(times):
                    heapreplace(batches, (times[index + 1], seq + 1, times, action, index + 1))
                else:
                    heappop(batches)
                self.now = at
                if log is not None:
                    log.append((at, seq, action, (index,)))
                action(index)
            elif heap:
                at, seq, action, args = heappop(heap)
                self.now = at
                if log is not None:
                    log.append((at, seq, action, args))
                action(*args)
            else:
                return processed
            processed += 1

    def pending(self) -> int:
        """Occurrences in the event heap not yet fired: those from
        ``schedule`` and the owner's push. Batch items are not counted."""
        return len(self._heap)
