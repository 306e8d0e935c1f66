"""Engine contract: ordering, clock semantics, reserved seqs, determinism,
and equivalence with the heap-only engine it replaced."""

import bisect
import functools
import heapq
import itertools
import random
from pathlib import Path

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


def _noop(*args):
    pass


def _named(eng):
    """The engine's log, each entry named by its handler's arguments: a
    batch item by its index."""
    return [(at, seq, *args) for at, seq, _, args in eng.log]


def reserve(eng):
    """Take the next seq as the engine's owner does (see Engine)."""
    seq = eng._seq
    eng._seq = seq + 1
    return seq


def push(eng, at, seq, action, args=()):
    """Push an occurrence at (at, seq) as the engine's owner does (see Engine)."""
    heapq.heappush(eng._heap, (at, seq, action, args))


def test_zero_delay_fires_at_current_time():
    eng = Engine()
    log = []
    eng.schedule(eng.now, record_into(log, "x"))
    eng.run()
    assert log == ["x"]
    assert eng.now == 0


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
    assert eng.now == 0


def test_now_starts_at_zero_and_ends_at_last_fire_time():
    eng = Engine()
    assert eng.now == 0
    eng.schedule(400, lambda: None)
    eng.schedule(300, lambda: None)
    assert eng.run() == 2
    assert eng.now == 400


def test_now_inside_handler_is_fire_time():
    eng = Engine()
    seen = []
    eng.schedule(123, lambda: seen.append(eng.now))
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
        log.append(("first", eng.now))
        eng.schedule(eng.now + 5, lambda: log.append(("second", eng.now)))

    eng.schedule(10, first)
    eng.run()
    assert log == [("first", 10), ("second", 15)]


def _seeded_scenario(seed):
    """A small self-scheduling workload driven entirely by the random
    source; its log, each entry named by its (root, depth)."""
    eng = Engine(log=[])
    rng = RandomSource(seed, "engine-test")

    def spawn(root, depth):
        if depth < 3:
            for _ in range(rng.randint(1, 2)):
                eng.schedule(eng.now + rng.randint(1, 9), spawn, (root, depth + 1))

    for i in range(5):
        eng.schedule(rng.randint(0, 20), spawn, (i, 0))
    eng.run()
    return _named(eng)


def test_seeded_scenarios_replay_identically():
    assert _seeded_scenario(42) == _seeded_scenario(42)
    assert _seeded_scenario(42) != _seeded_scenario(43)


def test_processed_fire_times_never_decrease():
    log = _seeded_scenario(7)
    times = [t for t, *_ in log]
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
    eng.schedule(2, lambda *args: seen.append(args), (1, "x"))
    eng.schedule(1, lambda *args: seen.append(args), ("y",))
    eng.run()
    assert seen == [("y",), (1, "x")]


def test_a_batch_never_enters_the_event_heap():
    eng = Engine()
    eng.schedule_sorted(range(100), lambda i: None)
    eng.schedule(5, lambda: None)
    assert len(eng._heap) == 1
    assert eng.pending() == 1
    assert eng.run() == 101
    assert eng._heap == []
    assert eng.pending() == 0


def test_the_log_holds_each_fired_occurrence_as_scheduled():
    eng = Engine(log=[])

    def handler(*args):
        pass

    def item(index):
        pass

    reserved = reserve(eng)  # seq 0
    eng.schedule(2, handler, ("x", 1))  # seq 1
    eng.schedule_sorted([1, 3], item)  # seqs 2 and 3
    push(eng, 3, reserved, handler)
    assert eng.run() == 4
    assert eng.log == [(1, 2, item, (0,)), (2, 1, handler, ("x", 1)), (3, 0, handler, ()),
                       (3, 3, item, (1,))]


def test_a_batch_item_fires_as_action_of_its_index():
    eng = Engine(log=[])
    seen = []

    def item(*args):  # every argument the item is called with
        seen.append((args, eng.pending()))

    eng.schedule_sorted([1, 2, 2], item)  # seqs 0 to 2
    eng.schedule(1, _noop, ("heap",))  # seq 3
    assert eng.pending() == 1  # the schedule occurrence alone
    assert eng.run() == 4
    assert seen == [((0,), 1), ((1,), 0), ((2,), 0)]
    assert eng.log == [(1, 0, item, (0,)), (1, 3, _noop, ("heap",)), (2, 1, item, (1,)),
                       (2, 2, item, (2,))]


def test_reserved_seq_fires_where_it_was_taken():
    eng = Engine(log=[])
    seq = reserve(eng)
    eng.schedule(3, lambda _: push(eng, 5, seq, _noop, ("reserved",)), ("arm",))
    eng.schedule(5, _noop, ("second",))
    eng.schedule(5, _noop, ("third",))
    assert eng.pending() == 3  # a reserved seq is pending only once pushed
    assert eng.run() == 4
    assert _named(eng) == [(3, 1, "arm"), (5, 0, "reserved"), (5, 2, "second"),
                           (5, 3, "third")]


def test_schedule_sorted_fires_lazily_with_reserved_seqs():
    eng = Engine(log=[])
    seen = []
    eng.schedule_sorted([0, 4, 4, 9], lambda i: seen.append((i, eng.now)))
    eng.schedule(4, lambda: seen.append(("heap", eng.now)))
    assert eng.pending() == 1  # batch items are not materialised
    assert eng.run() == 5
    assert seen == [(0, 0), (1, 4), (2, 4), ("heap", 4), (3, 9)]
    assert [seq for _, seq, *_ in eng.log] == [0, 1, 2, 4, 3]


# A batch item and a ``schedule`` occurrence at the same ms sit in different
# heaps; their seqs alone must order them.


def test_a_tie_fires_an_occurrence_scheduled_before_the_batch_first():
    eng = Engine(log=[])
    eng.schedule(4, _noop, ("before",))
    early = reserve(eng)
    eng.schedule_sorted([4, 4, 6], _noop)
    push(eng, 4, early, _noop, ("reserved",))
    assert eng.run() == 5
    assert _named(eng) == [(4, 0, "before"), (4, 1, "reserved"), (4, 2, 0), (4, 3, 1),
                           (6, 4, 2)]


def test_a_tie_fires_an_occurrence_scheduled_after_the_batch_last():
    eng = Engine(log=[])
    eng.schedule_sorted([2, 4, 4], _noop)
    eng.schedule(4, _noop, ("after",))
    eng.schedule(2, _noop, ("after",))
    assert eng.run() == 5
    assert _named(eng) == [(2, 0, 0), (2, 4, "after"), (4, 1, 1), (4, 2, 2), (4, 3, "after")]


def test_a_batch_scheduled_by_a_handler_at_its_own_time_fires_in_seq_order():
    eng = Engine(log=[])
    seen = []

    def at_five(_name):
        eng.schedule(5, seen.append, ("x",))
        eng.schedule_sorted([5, 5, 7], seen.append)
        eng.schedule(5, seen.append, ("y",))

    eng.schedule(5, at_five, ("at-five",))
    eng.schedule(6, seen.append, ("z",))
    assert eng.run() == 7
    assert seen == ["x", 0, 1, "y", "z", 2]
    assert _named(eng) == [(5, 0, "at-five"), (5, 2, "x"), (5, 3, 0), (5, 4, 1), (5, 6, "y"),
                           (6, 1, "z"), (7, 5, 2)]


def test_schedule_sorted_rejects_unsorted_or_past_times():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule_sorted([3, 1], lambda i: None)
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SchedulingInPastError):
        eng.schedule_sorted([5, 12], lambda i: None)


# ---- differential check against the heap-only engine -----------------------------


class HeapEngine:
    """The engine before sorted batches: one binary heap holding every
    occurrence. ``schedule_sorted`` is plain ``schedule`` calls here, so it
    is the reference for batches. The heap holds (fire_at, seq, action,
    args), so it takes the owner's pushes (see Engine) as they are."""

    def __init__(self, log=None):
        self._heap = []
        self._batch_seqs = set()  # seqs of batch items, which pending() leaves out
        self._seq = 0
        self.now = 0
        self.log = log

    def reserve(self):
        self._seq += 1
        return self._seq - 1

    def schedule(self, at, action, args=()):
        if at < self.now:
            raise SchedulingInPastError(f"t={at} is behind the clock, t={self.now}")
        heapq.heappush(self._heap, (at, self.reserve(), action, args))

    def schedule_sorted(self, times, action):
        for i, at in enumerate(times):
            self._batch_seqs.add(self._seq)
            self.schedule(at, action, (i,))

    def pending(self):
        """Entries not yet fired, batch items not counted."""
        return sum(1 for _, seq, _, _ in self._heap if seq not in self._batch_seqs)

    def run(self):
        processed = 0
        while self._heap:
            at, seq, action, args = heapq.heappop(self._heap)
            self.now = at
            if self.log is not None:
                self.log.append((at, seq, action, args))
            action(*args)
            processed += 1
        return processed


# An op schedules something (``schedule`` passes the handler its arguments),
# schedules a sorted batch, reserves a seq for a time some delay ahead, or
# pushes at an earlier reservation. A push must come after the occurrence
# firing now, a rule the owner keeps, so the driver skips a reservation
# that has fallen behind it. The top-level ops run at t=0, before ``run``;
# every firing handler applies the next follow-up op.
_delay = st.integers(min_value=0, max_value=30)
_op = st.one_of(
    st.tuples(st.just("schedule"), _delay),
    st.tuples(st.just("sorted"), st.lists(st.integers(min_value=0, max_value=6), max_size=6)),
    st.tuples(st.just("reserve"), _delay),
    st.tuples(st.just("at_reserved"), st.integers(min_value=0, max_value=50)),
)


def _drive(engine, top_ops, followups):
    """Run a program; returns the log, each entry named by its op, the
    handler calls, the count run returned, the clock, and pending() after
    every top-level op."""
    fired = []
    reserved = []  # (fire_at, seq) reserved and not yet pushed
    script = iter(followups)
    counter = itertools.count()

    def handler(name, *args):
        fired.append((name, args, engine.now))
        op = next(script, None)
        if op is not None:
            apply(op)

    def apply(op):
        kind, arg = op
        name = f"{kind}{next(counter)}"
        if kind == "schedule":
            engine.schedule(engine.now + arg, handler, (name, arg))
        elif kind == "sorted":
            times, t = [], engine.now
            for step in arg:
                t += step
                times.append(t)
            engine.schedule_sorted(times, functools.partial(handler, name))
        elif kind == "reserve":
            reserved.append((engine.now + arg, reserve(engine)))
        elif reserved:
            at, seq = reserved.pop(arg % len(reserved))
            if engine.log and (at, seq) <= engine.log[-1][:2]:  # behind the occurrence firing
                fired.append((name, "skipped", engine.now))
            else:
                push(engine, at, seq, handler, (name, at))

    pending = []
    for op in top_ops:
        apply(op)
        pending.append(engine.pending())
    processed = engine.run()
    pending.append(engine.pending())
    # A batch's handler is a partial holding its op's name; any other takes it as args[0].
    log = [(at, seq, *getattr(action, "args", ()), *args) for at, seq, action, args in engine.log]
    return log, fired, processed, engine.now, pending


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, max_size=25), st.lists(_op, max_size=40))
def test_engine_matches_heap_engine_on_random_programs(top_ops, followups):
    assert (_drive(Engine(log=[]), top_ops, followups)
            == _drive(HeapEngine(log=[]), top_ops, followups))


def _run_logged(monkeypatch, engine_cls, scenario, strategy_cfg, seed):
    engines = []

    def make_engine():
        engines.append(engine_cls(log=[]))
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
        del raw["strategy"]
        scenario = parse_scenario(raw)
        for cfg in scenario.strategies:
            yield pytest.param(scenario, cfg, 1, id=f"{tag}-{cfg.label}")


@pytest.mark.parametrize("scenario, strategy_cfg, seed", _whole_run_cases())
def test_whole_run_matches_heap_engine(monkeypatch, scenario, strategy_cfg, seed):
    log, row = _run_logged(monkeypatch, Engine, scenario, strategy_cfg, seed)
    ref_log, ref_row = _run_logged(monkeypatch, HeapEngine, scenario, strategy_cfg, seed)
    assert ([(t, seq, action.__name__) for t, seq, action, _ in log]
            == [(t, seq, action.__name__) for t, seq, action, _ in ref_log])
    assert row == ref_row


# ---- the runner's own pushes ---------------------------------------------------------


class SeqsAtFire(list):
    """An engine log that also keeps, for each entry, how many seqs the
    engine had handed out when the entry was appended, just before its
    occurrence fired: entry k took the seqs from taken[k] to taken[k + 1]."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.taken = []

    def append(self, entry):
        self.taken.append(self.engine._seq)
        super().append(entry)


MIXED = Path(__file__).parent / "fixtures" / "mixed.yaml"


@pytest.mark.parametrize("latency_ms", [None, 0], ids=["preset-latency", "latency-0"])
@pytest.mark.parametrize("path", DEMO_SCENARIOS + [MIXED], ids=lambda path: path.stem)
def test_pushed_offers_and_completions_fire_in_order_after_their_pusher(monkeypatch, path,
                                                                        latency_ms):
    # Offers, completions and keep-alive timers skip schedule's check that
    # an occurrence is not in the past (the owner's push, see Engine); this
    # stands in for it. An event pushed behind the one firing would be the
    # heap's next pop, so the strict order below catches it.
    scenario = load_scenario(path)
    engines = []

    def make_engine():
        engines.append(Engine())
        engines[-1].log = SeqsAtFire(engines[-1])
        return engines[-1]

    monkeypatch.setattr(runner, "Engine", make_engine)
    for strategy_cfg in scenario.strategies:
        if latency_ms is not None:
            strategy_cfg.dispatch_latency_ms = latency_ms
        result = runner.run_one(scenario, strategy_cfg, scenario.seeds[0])
        log = engines[-1].log
        keys = [(at, seq) for at, seq, _, _ in log]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # fired in strict (fire_at, seq) order
        pushed = timers = 0
        for j, (at, seq, action, args) in enumerate(log):
            if action.__name__ not in ("_try_start", "_complete", "_keep_alive"):
                continue
            k = bisect.bisect_right(log.taken, seq) - 1  # the entry firing when seq was taken
            assert 0 <= k < j
            if action.__name__ == "_keep_alive":  # at the key a release reserved
                timers += 1
                assert (log[k][2].__name__, args[1]) == ("_complete", (at, seq))
                continue
            pushed += 1
            if action.__name__ == "_try_start":  # an offer, pushed by its arrival
                assert (log[k][2].__name__, log[k][3]) == ("_arrive", args[:1])
        assert pushed == 2 * result.tasks
        assert timers >= min(result.tasks, 1)  # a release arms a timer when none is pending
