"""Binds engine, cluster, workload and strategy into one deterministic run.
Simulation builds its cluster, strategy and engine from the run's records,
in one place, so what runs is what the records say.

Event flow per invocation: at arrival the strategy picks a node; after the
strategy's dispatch latency the invocation is offered to that node, where
it either acquires a container (warm or cold) and starts, or waits in the
node's FIFO run queue until a completion or keep-alive expiry frees
resources. Each node has at most one keep-alive timer pending, never later
than the expiry of its oldest idle container; a timer whose container was
reused only re-arms when it fires. Optional periodic passes drive work
stealing and popularity replication. A run drains completely, so every
dispatched invocation completes exactly once: into the run's RunResult,
which keeps what the report row reads, and, when one is given, into an
``on_complete`` callback, which sees each completion as it happens.

From arrival to completion an invocation travels as its trace index alone:
the strategy and the cost model read the trace's columns, and its active
phases are the one tuple of ints the cost model returns, which the run's
account counts as one outcome.

Events at one millisecond fire in seq order (engine.py). The arrival batch,
which fires straight from the trace's arrival column and holds no pending
event, reserves one seq per invocation first; the first steal tick, then
the first replication tick, take the next, and a later tick takes its seq
when the one before it fires. An offer takes its seq when its arrival
fires, a completion when its start runs, and a keep-alive timer fires at
the key reserved when its container was released. The ENGINE_LOGS digests
in tests/test_golden_reports.py pin this order. Only ticks go through
``Engine.schedule``. The rest are pushed (the owner's push, engine.py):
offers and completions at the clock plus a non-negative duration, and a
keep-alive timer at the key reserved at its container's release.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappush

from .cluster import AcquireOutcome, Cluster, Container, PlacementOutcome
from .config import Scenario, StrategyConfig, record_diagnostics, validate
from .engine import Engine, RandomSource
from .errors import (
    ConfigError, SimulationError, TraceFormatError, UnknownFunctionError, UnknownObjectError,
)
from .metrics import RunResult, aggregate_rows, billed_gb_seconds
from .strategies import make_strategy, replication_tick, steal_work
from .workload import Catalog, Trace, build_catalog, generate_trace, load_trace

_REJECTED, _COLD_START = AcquireOutcome.REJECTED, AcquireOutcome.COLD_START  # see cluster.py


class Simulation:
    """One engine run of ``trace`` under ``strategy_cfg``, on the cluster
    ``scenario`` describes, holding ``catalog``'s functions and objects.

    It builds its cluster and strategy through build_cluster and
    make_strategy, so a cluster or strategy block with a problem of
    record_diagnostics, built in code or not, is a ConfigError naming its
    key before the run starts. The seed starts the random stream work
    stealing draws its victims from. ``run`` returns ``result``, a RunResult.

    ``on_complete``, when given, is called once per invocation as it
    completes, in completion order: ``on_complete(index, node, phases,
    billed, failed)`` with its index into the run's trace, the node it ran
    on, its seven phase durations in metrics.PHASES order (they sum to
    its finish minus its arrival), the GB-s billed for it (0.0 when it
    failed) and whether it hit the execution cap."""

    def __init__(self, scenario: Scenario, strategy_cfg: StrategyConfig, seed: int,
                 catalog: Catalog, trace: Trace, *,
                 on_complete: Callable[[int, int, tuple, float, bool], None] | None = None):
        cluster = self.cluster = build_cluster(scenario, catalog)
        strategy = self.strategy = make_strategy(
            strategy_cfg.name, strategy_cfg.params, strategy_cfg.dispatch_latency_ms,
            strategy_cfg.replication.decay)
        # offers are pushed unchecked, so a negative latency must not run, nor a 0 ms tick
        for diag in record_diagnostics(strategy_cfg, "strategy"):
            raise ConfigError(f"{diag.key}: {diag.message}")
        engine = self.engine = Engine()
        self._dispatch_ms = strategy.dispatch_latency_ms
        self.trace = trace
        self.cfg = strategy_cfg
        self.steal_rng = RandomSource(seed, "steal")
        self.result = RunResult(strategy_cfg.label, seed,
                                [cluster.functions[name].compute_ms for name in trace.functions],
                                trace.arrivals[0] if trace else 0, scenario.workload.horizon_ms,
                                len(cluster.nodes))
        self.on_complete = on_complete
        self._billing_step = cluster.params.billing_granularity_ms
        self._keep_alive_ms = cluster.params.keep_alive_ms
        self._timer_armed = [False] * len(cluster.nodes)  # per node id
        # Bound once, not at every arrival and start that pushes them.
        self._try_start = self._try_start
        self._complete = self._complete
        self._events = engine._heap

    # ---- run loop ---------------------------------------------------------

    def run(self) -> RunResult:
        self.engine.schedule_sorted(self.trace.arrivals, self._arrive)
        if self.cfg.work_stealing and self.trace:
            self.engine.schedule(self.cfg.steal_poll_ms, self._steal_tick)
        if self.strategy.needs_replication and self.trace:
            self.engine.schedule(self.cfg.replication.period_ms, self._replication_tick)
        self.engine.run()
        result = self.result
        result.occupied_ms_total = sum(n.occupied_ms_accum for n in self.cluster.nodes)
        result.dispatch_ms_total = self._dispatch_ms * result.tasks
        if result.tasks != len(self.trace):
            raise SimulationError(
                f"run ended with {len(self.trace) - result.tasks} invocations unaccounted"
            )
        self.cluster.check_invariants()
        return result

    def _work_remaining(self) -> bool:
        return self.result.tasks < len(self.trace)

    # ---- handlers ---------------------------------------------------------
    # An invocation travels as its trace index: an offer carries (index,
    # node id, True), a run queue holds indices, and a completion carries
    # (index, container, queue wait, the five active phases as the cost
    # model returned them, billed GB-s, failure flag); dispatch is the run's
    # one latency.

    def _arrive(self, index: int) -> None:
        trace = self.trace
        node_id = self.strategy.decide(trace, index, self.cluster)
        engine = self.engine
        seq = engine._seq  # pushed, not scheduled: see the module docstring
        engine._seq = seq + 1
        heappush(self._events, (engine.now + self._dispatch_ms, seq,
                                self._try_start, (index, node_id, True)))

    def _try_start(self, index: int, node_id: int, offered: bool = False) -> bool:
        """Start the invocation if the node can give it a container; an offer queues if not."""
        engine = self.engine
        now = engine.now
        trace = self.trace
        function = trace.functions[trace.function_codes[index]]
        outcome, container = self.cluster.acquire_container(node_id, function, now)
        if outcome is _REJECTED:
            if offered:
                self.cluster.nodes[node_id].run_queue.append(index)
            return False
        active, failed = self.cluster.simulate_invocation(
            function, trace.ref_sets[trace.ref_codes[index]], node_id, outcome is _COLD_START)
        busy = sum(active)
        billed = 0.0 if failed else billed_gb_seconds(busy, container.flavor, self._billing_step)
        # an offer fires at its arrival plus the dispatch latency, so it waited 0 ms
        wait = 0 if offered else now - trace.arrivals[index] - self._dispatch_ms
        seq = engine._seq  # pushed, not scheduled: see the module docstring
        engine._seq = seq + 1
        heappush(self._events, (now + busy, seq, self._complete,
                                (index, container, wait, active, billed, failed)))
        return True

    def _complete(self, index: int, container: Container, wait: int, active: tuple,
                  billed: float, failed: bool) -> None:
        """Account for a finished invocation and return its container to its
        warm pool until its expiry: the (time, seq) an expiry event scheduled
        now would take. Arm the node's keep-alive timer at that key unless one
        is pending; a pending timer's key is no later, since keys only grow."""
        engine = self.engine
        now = engine.now
        trace = self.trace
        actual = now - trace.arrivals[index]
        if actual != self._dispatch_ms + wait + sum(active):
            raise SimulationError(f"phase accounting broken for {trace.invocation_id(index)}")
        self.cluster.release_container(container, now)
        seq = engine._seq  # reserved for the expiry
        engine._seq = seq + 1
        key = container.expiry = (now + self._keep_alive_ms, seq)
        node_id = container.node
        if not self._timer_armed[node_id]:
            self._timer_armed[node_id] = True
            heappush(self._events, (key[0], seq, self._keep_alive, (node_id, key)))
        result = self.result  # see RunResult for what each field holds
        if failed:
            result.failures += 1
        else:
            result.actual_ms[trace.function_codes[index]].append(actual)
            result.gb_seconds += billed
        result.active_counts[active] += 1
        result.queue_ms_total += wait
        result.last_finish = now
        if self.on_complete is not None:
            self.on_complete(index, node_id, (self._dispatch_ms, wait) + active, billed, failed)
        if self.cluster.nodes[node_id].run_queue:
            self._drain(node_id)

    def _keep_alive(self, node_id: int, key: tuple[int, int]) -> None:
        """A node's keep-alive timer, firing at ``key``. Its oldest idle
        container expires if ``key`` is that container's expiry; if the
        container it was armed for has been reused, nothing expires. Either
        way the timer re-arms at the next oldest container's expiry, or
        disarms when no container is idle. A warm hit reuses the most
        recently released container, so it needs no timer work."""
        cluster = self.cluster
        oldest = cluster.oldest_idle(node_id)
        if oldest is not None and oldest.expiry == key:
            if cluster.expire_container(oldest) and cluster.nodes[node_id].run_queue:
                self._drain(node_id)
            oldest = cluster.oldest_idle(node_id)
        if oldest is None:
            self._timer_armed[node_id] = False
        else:
            key = oldest.expiry
            heappush(self._events, (*key, self._keep_alive, (node_id, key)))

    def _drain(self, node_id: int) -> None:
        queue = self.cluster.nodes[node_id].run_queue
        while queue:
            if not self._try_start(queue[0], node_id):
                break  # strict FIFO: the head blocks until resources free up
            queue.popleft()

    def _steal_tick(self) -> None:
        """One steal attempt per node with an empty queue, in id order.
        Queues change within a tick only through a steal and the thief's
        drain, so when no queue holds two entries at the start, no attempt
        can take work: each would only draw its victim, and the tick just
        advances the steal stream by those draws."""
        cluster = self.cluster
        buckets = cluster.queue_buckets
        if max(buckets) >= 2:
            for node_id, node in enumerate(cluster.nodes):
                if node.run_queue:
                    continue
                batch = steal_work(cluster, node_id, self.steal_rng)
                if batch:
                    self.result.steals += len(batch)
                    self._drain(node_id)
        elif len(cluster.nodes) > 1:  # one node has no victim and draws nothing
            self.steal_rng.skip_randint(0, len(cluster.nodes) - 2,
                                        buckets.get(0, 0).bit_count())
        if self._work_remaining():
            self.engine.schedule(self.engine.now + self.cfg.steal_poll_ms, self._steal_tick)

    def _replication_tick(self) -> None:
        now = self.engine.now
        actions = replication_tick(self.strategy.counters, self.cluster,
                                   self.cfg.replication.threshold)
        self.result.replication_log.extend((now, action) for action in actions)
        if self._work_remaining():
            self.engine.schedule(now + self.cfg.replication.period_ms, self._replication_tick)


# ---- scenario-level entry points --------------------------------------------


def prepare_workload(scenario: Scenario, seed: int) -> tuple[Catalog, Trace]:
    """Build the catalogs and the invocation trace for one seed. Catalog
    draws and trace draws use distinct streams of the same seed, so every
    strategy compared under that seed sees the identical workload. A
    scenario that validate refuses is a ConfigError naming the key of its
    first error, and so is a trace file that cannot be read, or is
    malformed, naming the file too."""
    for diag in validate(scenario):
        if diag.severity == "error":
            raise ConfigError(f"{diag.key}: {diag.message}")
    catalog = build_catalog(scenario.workload, RandomSource(seed, "catalog"))
    path = scenario.workload.trace_path
    if path:
        try:
            trace = load_trace(path, catalog)
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"workload.trace_path: {path}: {exc.strerror or exc}") from exc
        except (TraceFormatError, UnknownFunctionError, UnknownObjectError) as exc:
            raise ConfigError(f"workload.trace_path: {path}: {exc}") from exc
    else:
        trace = generate_trace(scenario.workload, catalog, RandomSource(seed, "trace"))
    return catalog, trace


def build_cluster(scenario: Scenario, catalog: Catalog) -> Cluster:
    """Fresh cluster with one origin replica per object, assigned round robin
    over the nodes in object id order; a record_diagnostics problem of the
    cluster, or an origin replica that does not fit, is a ConfigError."""
    for diag in record_diagnostics(scenario.cluster, "cluster"):
        raise ConfigError(f"{diag.key}: {diag.message}")
    cluster = Cluster(scenario.cluster, catalog.functions, list(catalog.objects.values()))
    for i, object_id in enumerate(catalog.objects):
        node_id = i % len(cluster.nodes)
        if cluster.place_object(object_id, node_id, origin=True) is PlacementOutcome.NO_CAPACITY:
            raise ConfigError(f"cluster.store_capacity: origin replica of {object_id} "
                              f"does not fit on node {node_id}")
    return cluster


def run_one(scenario: Scenario, strategy_cfg: StrategyConfig, seed: int,
            catalog: Catalog | None = None,
            trace: Trace | None = None,
            label: str | None = None, *,
            on_complete: Callable[[int, int, tuple, float, bool], None] | None = None,
            ) -> RunResult:
    """Run one (strategy, seed) pair to completion and collect results,
    calling ``on_complete`` at every completion (see Simulation), on
    ``catalog`` and ``trace`` given together, or on the seed's workload."""
    if (catalog is None) != (trace is None):
        raise TypeError("run_one takes a catalog and its trace together, or neither")
    if catalog is None:
        catalog, trace = prepare_workload(scenario, seed)
    result = Simulation(scenario, strategy_cfg, seed, catalog, trace,
                        on_complete=on_complete).run()
    if label is not None:
        result.strategy = label
    return result


def _unique_labels(strategies: list[StrategyConfig]) -> list[str]:
    labels, seen = [], {}
    for cfg in strategies:
        base = cfg.label
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return labels


def run_scenario(scenario: Scenario) -> list[RunResult]:
    """One engine run per (strategy, seed); strategies within a seed share
    the identical trace, so multi-strategy scenarios are paired."""
    labels = _unique_labels(scenario.strategies)
    results: list[RunResult] = []
    for seed in scenario.seeds:
        catalog, trace = prepare_workload(scenario, seed)
        for strategy_cfg, label in zip(scenario.strategies, labels):
            results.append(run_one(scenario, strategy_cfg, seed, catalog, trace, label))
    return results


def compare_scenario(scenario: Scenario) -> tuple[list[RunResult], list[dict]]:
    """run_scenario plus one mean row per strategy over its seeds."""
    results = run_scenario(scenario)
    rows = [r.row() for r in results]
    aggregates = [
        aggregate_rows(label, [row for row in rows if row["strategy"] == label])
        for label in _unique_labels(scenario.strategies)
    ]
    return results, rows + aggregates
