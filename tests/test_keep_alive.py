"""Per-node keep-alive timers against the eager expiry they replaced.

The runner keeps at most one keep-alive timer pending per node, never later
than the expiry of the node's oldest idle container; a timer whose container
was reused only re-arms when it fires, and a warm hit does no timer work.
The reference here is the eager scheme: one expiry event per release, at the
expiry key that release set. Its engine has no cancel, so an expiry is
skipped when no idle container holds its key any more, its container having
been reused since; those skipped expiries are the ones the eager scheme used
to cancel. Records must be identical, and the reference's (time, seq) log
without them must be the runner's log without its extra entries, each of
which is a keep-alive timer.
"""

from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import load_scenario, parse_scenario

from conftest import scenario_dict
from reference import event_label, simulate

TIGHT_MEMORY = Path(__file__).parent.parent / "demos" / "scenarios" / "tight_memory.yaml"
STRATEGIES = [{"name": name} for name in (
    "round_robin", "least_loaded", "hash_affinity",
    "mcgrath_queues", "data_aware", "proactive_cluster",
)] + [{"name": "least_loaded", "work_stealing": True}]


class _NeverArmed:
    """Per-node timer flags that always read unarmed, so the runner
    schedules its keep-alive handler at every release's expiry key."""

    def __getitem__(self, node_id):
        return False

    def __setitem__(self, node_id, armed):
        pass


class EagerKeepAlive(runner.Simulation):
    """One expiry event per release; an expiry whose container was reused
    since is skipped, and its (time, seq) kept in ``skipped``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._timer_armed = _NeverArmed()
        self.skipped: set = set()
        self.drained_by_expiry = 0

    def _keep_alive(self, node_id, key):
        pools = self.cluster.nodes[node_id].warm_pool.values()
        container = next((c for pool in pools for c in pool if c.expiry == key), None)
        if container is None or not self.cluster.expire_container(container):
            self.skipped.add(self.engine.log[-1][:2])
        elif self.cluster.nodes[node_id].run_queue:
            self.drained_by_expiry += 1
            self._drain(node_id)


class TimersPending(list):
    """An engine log that, as each entry is appended, counts the keep-alive
    timers pending per node: those in the event heap and the entry itself,
    just popped. That is the pending set each handler left behind, so the
    log fails if a node ever has two keep-alive timers pending."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine

    def append(self, entry):
        timers = Counter(args[0] for _, _, action, args in (*self.engine._heap, entry)
                         if getattr(action, "__func__", None) is runner.Simulation._keep_alive)
        for node_id, pending in timers.items():
            assert pending == 1, f"two timers pending for node {node_id}"
        super().append(entry)


def assert_matches_eager(scenario, strategy_cfg, seed):
    """Run both schemes; return the eager reference's simulation."""
    sim, result, completions = simulate(runner.Simulation, scenario, strategy_cfg, seed,
                                        log=TimersPending)
    eager, eager_result, eager_completions = simulate(EagerKeepAlive, scenario, strategy_cfg, seed)
    assert result.row() == eager_result.row()
    assert completions == eager_completions

    log = sim.engine.log
    offers = [action for _, _, action, _ in log
              if getattr(action, "__func__", None) is runner.Simulation._try_start]
    assert len(offers) == len(sim.trace)  # one dispatch offer per invocation
    kept = [(t, seq) for t, seq, *_ in eager.engine.log if (t, seq) not in eager.skipped]
    kept_set = set(kept)
    assert [(t, seq) for t, seq, *_ in log if (t, seq) in kept_set] == kept
    extra = [event_label(sim, action, args) for t, seq, action, args in log
             if (t, seq) not in kept_set]
    assert all(label.startswith("keep-alive:") for label in extra)
    return eager


functions = st.lists(
    st.fixed_dictionaries({
        "flavor": st.sampled_from((64, 128, 256)),
        "compute_ms": st.integers(1, 60),
        "weight": st.sampled_from((0.5, 1.0, 2.0)),
    }),
    min_size=2, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(1, 3),
    mem_capacity=st.sampled_from((256, 384)),
    keep_alive_ms=st.integers(0, 60),
    specs=functions,
    rate_per_s=st.sampled_from((50, 150, 300)),
    objects=st.integers(0, 6),
    seed=st.integers(1, 1000),
)
def test_per_node_timers_match_eager_expiry(nodes, mem_capacity, keep_alive_ms, specs,
                                            rate_per_s, objects, seed):
    raw = scenario_dict(
        cluster={"nodes": nodes, "mem_capacity": mem_capacity, "keep_alive_ms": keep_alive_ms},
        workload={
            "horizon_ms": 600,
            "arrival": {"kind": "poisson", "rate_per_s": rate_per_s},
            "functions": [dict(spec, name=f"f{i}", code_size=10)
                          for i, spec in enumerate(specs)],
            "objects": {"count": objects, "size": [5, 40]},
            "refs_per_invocation": [0, 2] if objects else 0,
        },
        strategies=STRATEGIES,
    )
    scenario = parse_scenario(raw)
    for strategy_cfg in scenario.strategies:
        assert_matches_eager(scenario, strategy_cfg, seed)


def test_tight_memory_demo_matches_eager_expiry():
    # The shipped tight-memory scenario, every strategy and seed. Expiries
    # fire mid-run and unblock queued work, so the timer's drain path runs.
    scenario = load_scenario(TIGHT_MEMORY)
    drained = 0
    for strategy_cfg in scenario.strategies:
        for seed in scenario.seeds:
            drained += assert_matches_eager(scenario, strategy_cfg, seed).drained_by_expiry
    assert drained > 0
