"""Deterministic discrete-event engine.

Virtual time is integer milliseconds. Occurrences fire in strict
(fire_at, seq) order, where seq is assigned at scheduling time, so ties at
the same instant resolve in scheduling order. A caller can also take a seq
with ``reserve`` and schedule at it later: the occurrence then fires where
it would have fired had it been scheduled when the seq was taken. An
occurrence carries its handler and the handler's arguments, so scheduling a
bound method needs no closure. It is a plain tuple
(fire_at, seq, batch, action, args, label). Nothing is ever cancelled:
every scheduled occurrence fires.

One binary heap holds every pending occurrence from ``schedule``, plus one
key per unfinished sorted batch (``schedule_sorted``). A batch reserves a
block of seqs up front and creates each occurrence only when it fires, so
a trace of arrivals costs no memory per pending item; firing a batch's
head replaces its key with the next item's (fire_at, seq). So the firing
order and every seq are those a heap holding every item would give.
"""

from __future__ import annotations

import heapq
import random
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


class Engine:
    """Single-owner event loop; state is mutated only from handlers.

    When ``record_log`` is set, every processed occurrence is appended to
    ``log`` as (fire_at, seq, label), which makes replay comparisons exact.
    """

    def __init__(self, record_log: bool = False):
        # Keys (fire_at, seq, batch, action, args, label): a ``schedule``
        # occurrence (batch None) or a batch's next item (batch is the
        # batch's times, args the item's index).
        self._heap: list[tuple] = []
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

    def run(self) -> int:
        """Fire every occurrence in (fire_at, seq) order until none is
        pending; the clock ends at the last fire time. Returns the number
        fired."""
        heap = self._heap
        log = self.log if self.record_log else None
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        processed = 0
        while heap:
            at, seq, batch, action, args, label = heap[0]
            if batch is None:
                heappop(heap)
            else:  # batch item: args is its index
                if args + 1 < len(batch):
                    heapreplace(heap, (batch[args + 1], seq + 1, batch, action, args + 1, label))
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

    def pending(self) -> int:
        """Occurrences from ``schedule`` not yet fired; batch items are not
        counted."""
        return len(self._heap) - self._batches
