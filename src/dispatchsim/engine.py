"""Deterministic discrete-event engine.

Virtual time is integer milliseconds. Occurrences fire in strict
(fire_at, seq) order, where seq is assigned at scheduling time, so ties at
the same instant resolve in scheduling order. A caller can also take a seq
with ``reserve`` and schedule at it later: the occurrence then fires where
it would have fired had it been scheduled when the seq was taken. An
occurrence carries its handler and the handler's arguments, so scheduling a
bound method needs no closure. It is a plain tuple
(fire_at, seq, source, action, args, label). Nothing is ever cancelled:
every scheduled occurrence fires.

Pending occurrences come from three kinds of source:

- occurrences whose delay varies (``schedule``), each with its own entry
  in the main heap;
- one FIFO lane per fixed delay (``after``). ``now + delay`` never
  decreases, so appending keeps a lane in (fire_at, seq) order;
- sorted batches (``schedule_sorted``), which reserve a block of seqs up
  front and create each occurrence only when it fires, so a trace of
  arrivals costs no memory per pending item.

One binary heap merges them. Each non-empty lane and each unfinished batch
keeps exactly one key in it, its head's (fire_at, seq); firing the head
replaces that key with the source's next head. So the firing order and
every seq are those a single heap holding all occurrences would give.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
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

    Integer draws are defined here rather than left to the stdlib: a draw
    in a range of width n takes ``getrandbits(n.bit_length())`` until the
    value is below n. That is the rejection sampling CPython's
    ``randrange`` does on 3.10 to 3.13, and the tests check every value
    and the stream position left behind against ``random.Random.randint``.
    Defining it here lets ``skip_randint`` advance the stream by whole
    draws without computing their values.
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
        n, k = _width_bits(lo, hi)
        getrandbits = self._rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    def skip_randint(self, lo: int, hi: int, count: int) -> None:
        """Advance the stream as ``count`` calls of ``randint(lo, hi)``
        would, without returning their values."""
        n, k = _width_bits(lo, hi)
        getrandbits = self._rng.getrandbits
        for _ in range(count):
            while getrandbits(k) >= n:
                pass

    def expovariate(self, mean: float) -> float:
        """Exponential draw with the given mean (> 0)."""
        return self._rng.expovariate(1.0 / mean)


def _width_bits(lo: int, hi: int) -> tuple[int, int]:
    """The width n of [lo, hi] and the bits a draw below n takes."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    return n, n.bit_length()


class _Lane(deque):
    """The pending occurrences of one ``after`` delay, in firing order."""

    __slots__ = ()


class Engine:
    """Single-owner event loop; state is mutated only from handlers.

    When ``record_log`` is set, every processed occurrence is appended to
    ``log`` as (fire_at, seq, label), which makes replay comparisons exact.
    """

    def __init__(self, record_log: bool = False):
        # Keys (fire_at, seq, source, action, args, label): a ``schedule``
        # occurrence (source None), a lane's head occurrence (source is the
        # lane), or a batch's next item (source is the batch's times, args
        # the item's index).
        self._heap: list[tuple] = []
        self._lanes: dict[int, _Lane] = {}
        self._batches = 0  # unfinished batches, each holding one heap key
        self._seq = 0
        self._now = 0
        self._fired_seq = -1  # seq of the last occurrence fired at _now, else -1
        self.record_log = record_log
        self.log: list[tuple[int, int, str]] = []

    def now(self) -> int:
        return self._now

    def reserve(self) -> int:
        """Take the next seq without scheduling anything, for one later
        ``schedule(..., seq=)``."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule(self, at: int, action: Callable[..., None], label: str = "",
                 args: tuple = (), seq: int | None = None) -> None:
        """Enqueue ``action(*args)`` at virtual time ``at`` (>= now). Given
        ``seq``, a seq from ``reserve``, the occurrence takes that place in
        the order instead of the next seq; (at, seq) must then come after
        the occurrence firing now."""
        if seq is None:
            if at < self._now:
                raise SchedulingInPastError(
                    f"cannot schedule at t={at}; clock is already at t={self._now}"
                )
            seq = self._seq
            self._seq = seq + 1
        elif at < self._now or (at == self._now and seq <= self._fired_seq):
            raise SchedulingInPastError(
                f"cannot schedule at (t={at}, seq={seq}); the engine has fired "
                f"(t={self._now}, seq={self._fired_seq})"
            )
        elif seq >= self._seq:
            raise ValueError(f"seq {seq} has not been reserved")
        heapq.heappush(self._heap, (at, seq, None, action, args, label))

    def after(self, delay: int, action: Callable[..., None], label: str = "",
              args: tuple = ()) -> None:
        """Enqueue ``action(*args)`` ``delay`` ms from now; the same as
        ``schedule(now() + delay, ...)``. Each distinct delay gets its own
        lane, which costs one key in the heap however long it is, so use
        this for fixed delays and ``schedule`` for delays that vary."""
        if delay < 0:
            raise SchedulingInPastError(f"cannot schedule after a negative delay {delay}")
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = _Lane()
        seq = self._seq
        self._seq = seq + 1
        occ = (self._now + delay, seq, lane, action, args, label)
        if not lane:  # a non-empty lane's key is its head, which fires first
            heapq.heappush(self._heap, occ)
        lane.append(occ)

    def schedule_sorted(self, times: Sequence[int], action: Callable[[int], None],
                        label: str = "") -> None:
        """Enqueue ``action(i)`` at ``times[i]`` for every i; the same as
        calling ``schedule`` once per item, in order. ``times`` must be
        non-decreasing, start no earlier than now and stay unchanged until
        the batch has fired."""
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
        self._batches += 1

    def _process(self, horizon: float) -> int:
        """Fire occurrences in (fire_at, seq) order while fire_at <= horizon;
        returns the number fired."""
        heap = self._heap
        log = self.log if self.record_log else None
        heappop, heapreplace, lane_class = heapq.heappop, heapq.heapreplace, _Lane
        processed = 0
        while heap:
            at, seq, source, action, args, label = heap[0]
            if at > horizon:
                break
            if source is None:
                heappop(heap)
            elif source.__class__ is lane_class:
                source.popleft()
                if source:
                    heapreplace(heap, source[0])
                else:
                    heappop(heap)
            else:  # batch item: source is the times, args its index
                if args + 1 < len(source):
                    heapreplace(heap, (source[args + 1], seq + 1, source, action, args + 1, label))
                else:
                    heappop(heap)
                    self._batches -= 1
                args = (args,)
            self._now = at
            self._fired_seq = seq
            if log is not None:
                log.append((at, seq, label))
            action(*args)
            processed += 1
        return processed

    def run_until(self, horizon: int) -> int:
        """Process every occurrence with fire_at <= horizon, then advance
        the clock to the horizon. Returns the number processed."""
        if horizon < self._now:
            raise SchedulingInPastError(
                f"horizon t={horizon} is behind the clock t={self._now}"
            )
        processed = self._process(horizon)
        if horizon > self._now:
            self._now = horizon
            self._fired_seq = -1
        return processed

    def run(self) -> int:
        """Drain the queue completely; the clock ends at the last fire time."""
        return self._process(math.inf)

    def pending(self) -> int:
        """Occurrences from ``schedule`` and ``after`` not yet fired; batch
        items are not counted."""
        lanes = self._lanes.values()  # a non-empty lane holds one heap key
        return len(self._heap) - self._batches + sum(map(len, lanes)) - sum(map(bool, lanes))
