"""A fixed pure-Python kernel that measures how fast the host runs right now.

A shared virtual machine runs any code 20-30% faster or slower from one
few seconds to the next, differently on each CPU. run.py times this kernel
on the CPU its workload repetitions run on, before the first and after each
(about every 2 s), and scales each repetition's times by REFERENCE_S / (the
mean kernel time around it): the result is what the time would have been
at the host's nominal speed. The kernel does what the simulator does most
(heap pushes and pops, dict counters, small-object allocation, a FIFO deque,
retained records) and imports nothing from dispatchsim, so no change to the
program can change it.
"""

import heapq
import time
from collections import deque

REFERENCE_S = 0.2  # the kernel's typical time on the host where this was set
EVENTS = 50_000


class _Event:
    __slots__ = ("at", "key", "payload")

    def __init__(self, at: int, key: str, payload: int):
        self.at = at
        self.key = key
        self.payload = payload


def reference_work(events: int = EVENTS) -> int:
    """A discrete-event loop over a heap of `events` pre-scheduled events
    that retains one record per event, as a simulation run does; returns a
    checksum so nothing is skipped."""
    heap: list = []
    counts: dict[str, int] = {}
    window: deque = deque()
    records: list = []
    seq = 0
    for i in range(events):
        heapq.heappush(heap, (i, seq, _Event(i, f"k{i % 512}", i * 3)))
        seq += 1
    total = 0
    while heap:
        at, _, event = heapq.heappop(heap)
        counts[event.key] = counts.get(event.key, 0) + 1
        window.append(event)
        if len(window) > 64:
            total += window.popleft().payload
        if at % 4 == 0 and at < events:
            heapq.heappush(heap, (at + events, seq, _Event(at + events, event.key, 1)))
            seq += 1
        records.append((at, event.key, total))
    return total + len(counts) + len(records)


def reference_seconds() -> float:
    """Host seconds one run of the kernel takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
