"""Engine contract: ordering, clock semantics, reserved seqs, determinism,
and equivalence with the heap-only engine it replaced."""

import functools
import heapq
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.engine import Engine, RandomSource
from dispatchsim.errors import SchedulingInPastError

from conftest import scenario_dict
from test_acceptance import DATA_INTENSIVE

DEMO_SCENARIOS = sorted((Path(__file__).parent.parent / "demos" / "scenarios").glob("*.yaml"))


def record_into(log, tag):
    return lambda: log.append(tag)


def test_zero_delay_fires_at_current_time():
    eng = Engine()
    log = []
    eng.schedule(eng.now(), record_into(log, "x"))
    eng.run()
    assert log == ["x"]
    assert eng.now() == 0


def test_equal_time_ties_fire_in_scheduling_order():
    eng = Engine()
    log = []
    eng.schedule(5, record_into(log, "a"))
    eng.schedule(5, record_into(log, "b"))
    eng.run()
    assert log == ["a", "b"]


def test_firing_order_is_time_sorted():
    eng = Engine()
    log = []
    eng.schedule(3, record_into(log, "a"))
    eng.schedule(1, record_into(log, "b"))
    eng.schedule(2, record_into(log, "c"))
    eng.run()
    assert log == ["b", "c", "a"]


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_firing_order_matches_sort_oracle(times):
    # Oracle: expected order is a stable sort over (fire_at, scheduling seq).
    eng = Engine()
    log = []
    for i, t in enumerate(times):
        eng.schedule(t, record_into(log, i))
    eng.run()
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert log == expected


def test_run_on_empty_queue_processes_nothing():
    eng = Engine()
    assert eng.run() == 0
    assert eng.now() == 0


def test_now_starts_at_zero_and_ends_at_last_fire_time():
    eng = Engine()
    assert eng.now() == 0
    eng.schedule(400, lambda: None)
    eng.schedule(300, lambda: None)
    assert eng.run() == 2
    assert eng.now() == 400


def test_now_inside_handler_is_fire_time():
    eng = Engine()
    seen = []
    eng.schedule(123, lambda: seen.append(eng.now()))
    eng.run()
    assert seen == [123]


def test_scheduling_in_the_past_fails_loudly():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SchedulingInPastError):
        eng.schedule(5, lambda: None)


def test_handlers_can_schedule_followups():
    eng = Engine()
    log = []

    def first():
        log.append(("first", eng.now()))
        eng.schedule(eng.now() + 5, lambda: log.append(("second", eng.now())))

    eng.schedule(10, first)
    eng.run()
    assert log == [("first", 10), ("second", 15)]


def _seeded_scenario(seed):
    """A small self-scheduling workload driven entirely by the random source."""
    eng = Engine(record_log=True)
    rng = RandomSource(seed, "engine-test")

    def spawn(depth):
        def handler():
            if depth < 3:
                for _ in range(rng.randint(1, 2)):
                    eng.schedule(eng.now() + rng.randint(1, 9),
                                 spawn(depth + 1), f"d{depth + 1}")
        return handler

    for i in range(5):
        eng.schedule(rng.randint(0, 20), spawn(0), f"root{i}")
    eng.run()
    return eng.log


def test_seeded_scenarios_replay_identically():
    assert _seeded_scenario(42) == _seeded_scenario(42)
    assert _seeded_scenario(42) != _seeded_scenario(43)


def test_processed_fire_times_never_decrease():
    log = _seeded_scenario(7)
    times = [t for t, _, _ in log]
    assert times == sorted(times)


def test_random_source_streams_are_independent_and_stable():
    a1 = [RandomSource(9, "a").random() for _ in range(4)]
    a2 = [RandomSource(9, "a").random() for _ in range(4)]
    b = [RandomSource(9, "b").random() for _ in range(4)]
    assert a1 == a2
    assert a1 != b


# Range widths: 1, each power of two up to 2**70 and its two neighbours (past
# 2**32 a draw spans several 32-bit words), and anything in between.
draw_widths = st.one_of(
    st.just(1),
    st.builds(lambda e, d: max(1, 2**e + d), st.integers(0, 70), st.sampled_from((-1, 0, 1))),
    st.integers(1, 2**80),
)
draw_ranges = st.tuples(st.integers(-10**9, 10**9), draw_widths).map(
    lambda r: (r[0], r[0] + r[1] - 1))
draw_seeds = st.integers(0, 10**9)
draw_streams = st.sampled_from(("steal", "trace", "catalog", "main"))


@settings(max_examples=200, deadline=None)
@given(seed=draw_seeds, stream=draw_streams, ranges=st.lists(draw_ranges, max_size=20))
def test_randint_equals_cpython_randint(seed, stream, ranges):
    rng = RandomSource(seed, stream)
    ref = random.Random(f"{seed}/{stream}")
    assert [rng.randint(lo, hi) for lo, hi in ranges] == [ref.randint(lo, hi)
                                                          for lo, hi in ranges]
    assert rng.random() == ref.random()  # and the stream stands at the same place


@settings(max_examples=200, deadline=None)
@given(seed=draw_seeds, stream=draw_streams, bounds=draw_ranges, count=st.integers(0, 40),
       after=draw_ranges)
def test_skip_randint_advances_as_randint_calls_do(seed, stream, bounds, count, after):
    rng, ref = RandomSource(seed, stream), RandomSource(seed, stream)
    rng.skip_randint(*bounds, count)
    for _ in range(count):
        ref.randint(*bounds)
    assert rng.randint(*after) == ref.randint(*after)
    assert rng.random() == ref.random()


def test_randint_refuses_an_empty_range():
    rng = RandomSource(1)
    with pytest.raises(ValueError):
        rng.randint(3, 2)
    with pytest.raises(ValueError):
        rng.skip_randint(3, 2, 1)


def test_handlers_receive_their_arguments():
    eng = Engine()
    seen = []
    eng.schedule(2, lambda *args: seen.append(args), "", (1, "x"))
    eng.schedule(1, lambda *args: seen.append(args), "", ("y",))
    eng.run()
    assert seen == [("y",), (1, "x")]


def test_a_batch_keeps_one_heap_key_however_long():
    eng = Engine()
    eng.schedule_sorted(range(100), lambda i: None)
    eng.schedule(5, lambda: None)
    assert len(eng._heap) == 2
    assert eng.pending() == 1
    assert eng.run() == 101
    assert eng._heap == []
    assert eng.pending() == 0


def test_reserved_seq_fires_where_it_was_taken():
    eng = Engine(record_log=True)
    seq = eng.reserve()
    eng.schedule(3, lambda: eng.schedule(5, lambda: None, "reserved", seq=seq), "arm")
    eng.schedule(5, lambda: None, "second")
    eng.schedule(5, lambda: None, "third")
    assert eng.pending() == 3  # a reserved seq is pending only once scheduled
    assert eng.run() == 4
    assert eng.log == [(3, 1, "arm"), (5, 0, "reserved"), (5, 2, "second"), (5, 3, "third")]


def test_schedule_at_a_reserved_seq_rejects_a_key_in_the_past():
    eng = Engine(record_log=True)
    early = eng.reserve()  # seq 0
    outcomes = []

    def at_five():  # fires at (5, 1)
        for at, seq in ((5, early), (4, late), (5, late)):
            try:
                eng.schedule(at, lambda: None, f"reserved@{at}", seq=seq)
                outcomes.append(("scheduled", at, seq))
            except SchedulingInPastError:
                outcomes.append(("rejected", at, seq))

    eng.schedule(5, at_five, "at-five")
    late = eng.reserve()  # seq 2
    assert eng.run() == 2
    assert outcomes == [("rejected", 5, 0), ("rejected", 4, 2), ("scheduled", 5, 2)]
    assert eng.log == [(5, 1, "at-five"), (5, 2, "reserved@5")]
    with pytest.raises(ValueError, match="not been reserved"):
        eng.schedule(9, lambda: None, seq=3)
    eng.schedule(7, lambda: None, "reserved@7", seq=early)  # past the clock, any seq is open
    assert eng.run() == 1
    assert eng.log[-1] == (7, 0, "reserved@7")


def test_schedule_sorted_fires_lazily_with_reserved_seqs():
    eng = Engine(record_log=True)
    seen = []
    eng.schedule_sorted([0, 4, 4, 9], lambda i: seen.append((i, eng.now())), "batch")
    eng.schedule(4, lambda: seen.append(("heap", eng.now())), "heap")
    assert eng.pending() == 1  # batch items are not materialised
    assert eng.run() == 5
    assert seen == [(0, 0), (1, 4), (2, 4), ("heap", 4), (3, 9)]
    assert [seq for _, seq, _ in eng.log] == [0, 1, 2, 4, 3]


def test_schedule_sorted_rejects_unsorted_or_past_times():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule_sorted([3, 1], lambda i: None)
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SchedulingInPastError):
        eng.schedule_sorted([5, 12], lambda i: None)


# ---- differential check against the heap-only engine -----------------------------


@dataclass(eq=False)
class HeapOccurrence:
    fire_at: int
    seq: int
    action: Callable
    args: tuple
    label: str
    batch_item: bool = False


class HeapEngine:
    """The engine before sorted batches: one binary heap holding every
    occurrence. ``schedule_sorted`` is plain ``schedule`` calls here, so it
    is the reference for batches. A reserved seq must come after the last
    occurrence fired, found from the clock and that occurrence's key."""

    def __init__(self, record_log: bool = False):
        self._heap = []
        self._seq = 0
        self._now = 0
        self._last = (-1, -1)  # (fire_at, seq) of the last occurrence fired
        self.record_log = record_log
        self.log = []

    def now(self):
        return self._now

    def reserve(self):
        self._seq += 1
        return self._seq - 1

    def schedule(self, at, action, label="", args=(), batch_item=False, seq=None):
        if at < self._now or (seq is not None and (at, seq) <= self._last):
            raise SchedulingInPastError(f"(t={at}, seq={seq}) is behind {self._last}")
        if seq is None:
            seq = self.reserve()
        elif seq >= self._seq:
            raise ValueError(f"seq {seq} has not been reserved")
        occ = HeapOccurrence(at, seq, action, args, label, batch_item)
        heapq.heappush(self._heap, (at, seq, occ))

    def schedule_sorted(self, times, action, label=""):
        for i, at in enumerate(times):
            self.schedule(at, action, label, (i,), batch_item=True)

    def pending(self):
        """Entries not yet fired, batch items not counted."""
        return sum(1 for _, _, occ in self._heap if not occ.batch_item)

    def _fire(self, occ):
        self._now = occ.fire_at
        self._last = (occ.fire_at, occ.seq)
        if self.record_log:
            self.log.append((occ.fire_at, occ.seq, occ.label))
        occ.action(*occ.args)

    def run(self):
        processed = 0
        while self._heap:
            self._fire(heapq.heappop(self._heap)[2])
            processed += 1
        return processed


# An op schedules something (``schedule`` passes the handler its arguments),
# schedules a sorted batch, reserves a seq for a time some delay ahead, or
# schedules at an earlier reservation (which the engine may reject as in the
# past). The top-level ops run at t=0, before ``run``; every firing handler
# applies the next follow-up op.
_delay = st.integers(min_value=0, max_value=30)
_op = st.one_of(
    st.tuples(st.just("schedule"), _delay),
    st.tuples(st.just("sorted"), st.lists(st.integers(min_value=0, max_value=6), max_size=6)),
    st.tuples(st.just("reserve"), _delay),
    st.tuples(st.just("at_reserved"), st.integers(min_value=0, max_value=50)),
)


def _drive(engine, top_ops, followups):
    """Run a program; returns the log, the handler calls, the count run
    returned, the clock, and pending() after every top-level op."""
    fired = []
    reserved = []  # (fire_at, seq) reserved and not yet scheduled
    script = iter(followups)
    counter = itertools.count()

    def handler(name, *args):
        fired.append((name, args, engine.now()))
        op = next(script, None)
        if op is not None:
            apply(op)

    def apply(op):
        kind, arg = op
        name = f"{kind}{next(counter)}"
        if kind == "schedule":
            engine.schedule(engine.now() + arg, handler, name, (name, arg))
        elif kind == "sorted":
            times, t = [], engine.now()
            for step in arg:
                t += step
                times.append(t)
            engine.schedule_sorted(times, functools.partial(handler, name), name)
        elif kind == "reserve":
            reserved.append((engine.now() + arg, engine.reserve()))
        elif reserved:
            at, seq = reserved.pop(arg % len(reserved))
            try:
                engine.schedule(at, handler, name, (name, at), seq=seq)
            except SchedulingInPastError:
                fired.append((name, "rejected", engine.now()))

    pending = []
    for op in top_ops:
        apply(op)
        pending.append(engine.pending())
    processed = engine.run()
    pending.append(engine.pending())
    return engine.log, fired, processed, engine.now(), pending


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, max_size=25), st.lists(_op, max_size=40))
def test_engine_matches_heap_engine_on_random_programs(top_ops, followups):
    assert (_drive(Engine(record_log=True), top_ops, followups)
            == _drive(HeapEngine(record_log=True), top_ops, followups))


def _run_logged(monkeypatch, engine_cls, scenario, strategy_cfg, seed):
    engines = []

    def make_engine():
        engines.append(engine_cls(record_log=True))
        return engines[-1]

    monkeypatch.setattr(runner, "Engine", make_engine)
    result = runner.run_one(scenario, strategy_cfg, seed)
    return engines[0].log, result.row()


def _whole_run_cases():
    for path in DEMO_SCENARIOS:
        scenario = load_scenario(path)
        for cfg in scenario.strategies:
            for seed in scenario.seeds:
                yield pytest.param(scenario, cfg, seed, id=f"{path.stem}-{cfg.label}-{seed}")
    strategies = [{"name": name} for name in (
        "round_robin", "least_loaded", "hash_affinity",
        "mcgrath_queues", "data_aware", "proactive_cluster",
    )] + [{"name": "least_loaded", "work_stealing": True}]
    # Three functions competing for two containers' worth of memory, with a
    # short keep-alive: expiries fire mid-run and unblock queued work.
    tight_cluster = {"mem_capacity": 256, "keep_alive_ms": 40}
    tight_workload = {"functions": [
        {"name": f"f{i}", "code_size": 10, "flavor": 128, "compute_ms": 10 * i}
        for i in (1, 2, 3)
    ]}
    for tag, cluster, workload in (("acceptance", {}, {}),
                                   ("tight", tight_cluster, tight_workload)):
        raw = scenario_dict(**DATA_INTENSIVE)
        raw["cluster"].update(cluster)
        raw["workload"].update(workload)
        raw["strategies"] = strategies
        scenario = parse_scenario(raw)
        for cfg in scenario.strategies:
            yield pytest.param(scenario, cfg, 1, id=f"{tag}-{cfg.label}")


@pytest.mark.parametrize("scenario, strategy_cfg, seed", _whole_run_cases())
def test_whole_run_matches_heap_engine(monkeypatch, scenario, strategy_cfg, seed):
    log, row = _run_logged(monkeypatch, Engine, scenario, strategy_cfg, seed)
    ref_log, ref_row = _run_logged(monkeypatch, HeapEngine, scenario, strategy_cfg, seed)
    assert [(t, seq) for t, seq, _ in log] == [(t, seq) for t, seq, _ in ref_log]
    assert row == ref_row
