"""Per-node keep-alive timers against the eager expiry they replaced.

The runner keeps at most one keep-alive timer pending per node, never later
than the expiry of the node's oldest idle container; a timer whose container
was reused only re-arms when it fires, and a warm hit does no timer work.
The reference here is the eager scheme: one expiry event per release,
``keep_alive_ms`` after it. Its engine has no cancel, so a generation count per
container skips the expiry of a container reused since its release; those
skipped expiries are the ones the eager scheme used to cancel. Records must
be identical, and the reference's (time, seq) log without them must be the
runner's log without its extra entries, each of which is a keep-alive timer.
"""

from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.engine import Engine
from dispatchsim.strategies import make_strategy

from conftest import scenario_dict

TIGHT_MEMORY = Path(__file__).parent.parent / "demos" / "scenarios" / "tight_memory.yaml"
STRATEGIES = [{"name": name} for name in (
    "round_robin", "least_loaded", "hash_affinity",
    "mcgrath_queues", "data_aware", "proactive_cluster",
)] + [{"name": "least_loaded", "work_stealing": True}]


class EagerKeepAlive(runner.Simulation):
    """One expiry event per release; an expiry whose container was reused
    since is skipped, and its (time, seq) kept in ``skipped``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.generation: dict = {}  # container -> releases so far
        self.skipped: set = set()
        self.drained_by_expiry = 0

    def _release(self, container, now):
        self.cluster.release_container(container, now)
        generation = self.generation[container] = self.generation.get(container, 0) + 1
        self.engine.schedule(now + self._keep_alive_ms, self._expire, "expiry",
                             (container, generation))

    def _expire(self, container, generation):
        freed = (generation == self.generation[container]
                 and self.cluster.expire_container(container))
        if not freed:
            self.skipped.add(self.engine.log[-1][:2])
        elif self.cluster.nodes[container.node].run_queue:
            self.drained_by_expiry += 1
            self._drain(container.node)


class CheckedEngine(Engine):
    """Logs, counts dispatch offers, and fails if a node ever has two
    keep-alive timers pending."""

    def __init__(self):
        super().__init__(record_log=True)
        self.offers = 0
        self.timers = Counter()  # pending keep-alive timers by label

    def schedule(self, at, action, label="", args=(), seq=None):
        if label.startswith("offer:"):
            self.offers += 1
        if label.startswith("keep-alive:"):
            self.timers[label] += 1
            assert self.timers[label] == 1, f"two timers pending for {label}"

            def fire(*fired_args):
                self.timers[label] -= 1
                action(*fired_args)

            super().schedule(at, fire, label, args, seq=seq)
        else:
            super().schedule(at, action, label, args, seq=seq)


def simulate(simulation_cls, engine, scenario, strategy_cfg, seed):
    catalog, trace = runner.prepare_workload(scenario, seed)
    cluster = runner.build_cluster(scenario, catalog)
    strategy = make_strategy(strategy_cfg.name, strategy_cfg.params,
                             strategy_cfg.dispatch_latency_ms, strategy_cfg.replication_decay)
    sim = simulation_cls(engine, cluster, strategy, trace,
                         horizon_ms=scenario.workload.horizon_ms,
                         strategy_cfg=strategy_cfg, seed=seed)
    sim.run()
    cluster.check_invariants()
    return sim, sim.result(strategy_cfg.label, seed)


def assert_matches_eager(scenario, strategy_cfg, seed):
    """Run both schemes; return the eager reference's simulation."""
    engine = CheckedEngine()
    sim, result = simulate(runner.Simulation, engine, scenario, strategy_cfg, seed)
    eager, eager_result = simulate(EagerKeepAlive, Engine(record_log=True),
                                   scenario, strategy_cfg, seed)
    assert result.row() == eager_result.row()
    assert list(result.records) == list(eager_result.records)

    assert engine.offers == len(sim.trace)  # one dispatch offer per invocation
    assert not +engine.timers  # every timer fired
    kept = [(t, seq) for t, seq, _ in eager.engine.log if (t, seq) not in eager.skipped]
    kept_set = set(kept)
    assert [(t, seq) for t, seq, _ in engine.log if (t, seq) in kept_set] == kept
    extra = [label for t, seq, label in engine.log if (t, seq) not in kept_set]
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
