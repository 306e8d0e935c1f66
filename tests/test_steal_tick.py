"""Steal ticks that only draw, against the per-node loop they replace.

When no run queue holds two entries at the start of a steal tick, no
attempt in it can take work, so the runner only advances the steal stream
by one victim draw per node with an empty queue. The reference here is the
plain loop: one steal_work call per such node. Records, steals, the
replication log, the engine's event log and the next draw of the steal
stream must all be identical.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from dispatchsim import runner
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.engine import RandomSource
from dispatchsim.strategies import steal_work

from conftest import scenario_dict
from reference import event_label, simulate

DATA_INTENSIVE = Path(__file__).parent.parent / "demos" / "scenarios" / "data_intensive.yaml"


class PerNodeStealTick(runner.Simulation):
    """The steal tick as one steal_work call per node with an empty queue."""

    def _steal_tick(self):
        for node_id in range(len(self.cluster.nodes)):
            if self.cluster.nodes[node_id].run_queue:
                continue
            batch = steal_work(self.cluster, node_id, self.steal_rng)
            if batch:
                self.result.steals += len(batch)
                self._drain(node_id)
        if self._work_remaining():
            self.engine.schedule(self.engine.now + self.cfg.steal_poll_ms, self._steal_tick)


class CountedTicks(runner.Simulation):
    """The runner's steal tick, counting the ticks that only drew."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = self.draw_only_ticks = 0

    def _steal_tick(self):
        self.ticks += 1
        self.draw_only_ticks += max(self.cluster.queue_buckets) < 2
        super()._steal_tick()


def assert_matches_per_node_loop(scenario, strategy_cfg, seed):
    """Run both ticks; return the runner's simulation and result."""
    sim, result, completions = simulate(CountedTicks, scenario, strategy_cfg, seed)
    ref, ref_result, ref_completions = simulate(PerNodeStealTick, scenario, strategy_cfg, seed)
    assert result.row() == ref_result.row()
    assert completions == ref_completions
    assert result.steals == ref_result.steals
    assert result.replication_log == ref_result.replication_log
    assert ([(t, seq, event_label(sim, *entry)) for t, seq, *entry in sim.engine.log]
            == [(t, seq, event_label(ref, *entry)) for t, seq, *entry in ref.engine.log])
    next_draw = sim.steal_rng.random()
    assert next_draw == ref.steal_rng.random()  # the same draws so far
    if scenario.cluster.nodes == 1:  # no victim: nothing is ever drawn
        assert next_draw == RandomSource(seed, "steal").random()
    return sim, result


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(1, 12),
    poll_ms=st.sampled_from((1, 3, 10, 25)),
    mem_capacity=st.sampled_from((256, 512, 4096)),
    compute_ms=st.integers(5, 80),
    functions=st.integers(1, 4),
    rate_per_s=st.sampled_from((50, 200, 600)),
    name=st.sampled_from(("round_robin", "least_loaded", "hash_affinity")),
    seed=st.integers(1, 1000),
)
def test_draw_only_ticks_match_the_per_node_loop(nodes, poll_ms, mem_capacity, compute_ms,
                                                 functions, rate_per_s, name, seed):
    # Tight memory queues work behind blocked cold starts; hash affinity
    # with few functions sends all of them to a few hot nodes.
    raw = scenario_dict(
        cluster={"nodes": nodes, "mem_capacity": mem_capacity, "keep_alive_ms": 50},
        workload={
            "horizon_ms": 400,
            "arrival": {"kind": "poisson", "rate_per_s": rate_per_s},
            "functions": [{"name": f"f{i}", "code_size": 10, "flavor": 128,
                           "compute_ms": compute_ms * (i + 1)} for i in range(functions)],
            "objects": {"count": 6, "size": [5, 40]},
            "refs_per_invocation": [0, 2],
        },
        strategy={"name": name, "work_stealing": True, "steal_poll_ms": poll_ms},
    )
    scenario = parse_scenario(raw)
    assert_matches_per_node_loop(scenario, scenario.strategies[0], seed)


def test_data_intensive_demo_takes_both_tick_paths():
    # The shipped demo's stealing strategy: most ticks only draw, a few steal.
    scenario = load_scenario(DATA_INTENSIVE)
    strategy_cfg = next(s for s in scenario.strategies if s.work_stealing)
    sim, result = assert_matches_per_node_loop(scenario, strategy_cfg, 1)
    assert 0 < sim.draw_only_ticks < sim.ticks
    assert result.steals > 0
