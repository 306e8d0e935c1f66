"""Binds engine, cluster, workload and strategy into one deterministic run.

Event flow per invocation: at arrival the strategy picks a node; after the
strategy's dispatch latency the invocation is offered to that node, where
it either acquires a container (warm or cold) and starts, or waits in the
node's FIFO run queue until a completion or keep-alive expiry frees
resources. Each node has at most one keep-alive timer pending, never later
than the expiry of its oldest idle container; a timer whose container was
reused only re-arms when it fires. Optional periodic passes drive work
stealing and popularity replication. A run drains completely, so every
dispatched invocation is recorded exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import AcquireOutcome, Cluster, Container
from .config import Scenario, StrategyConfig
from .engine import Engine, RandomSource
from .errors import (
    ConfigError, SimulationError, TraceFormatError, UnknownFunctionError, UnknownObjectError,
)
from .metrics import RecordStore, aggregate_rows, summarize_run
from .strategies import DispatchStrategy, make_strategy, replication_tick, steal_work
from .workload import Catalog, Invocation, Trace, build_catalog, generate_trace, load_trace

_REJECTED, _COLD_START = AcquireOutcome.REJECTED, AcquireOutcome.COLD_START  # see cluster.py


@dataclass
class RunResult:
    """Everything one (strategy, seed) run produced. ``records`` is a
    columnar view that builds each TaskRecord when it is read."""

    strategy: str
    seed: int
    records: RecordStore
    elapsed_ms: int
    compute_ms_total: int
    busy_ms_total: int
    occupied_ms_total: int
    node_count: int
    replications: int
    steals: int
    replication_log: list

    @property
    def makespan_ms(self) -> int:
        return self.records.makespan_ms()

    def row(self) -> dict:
        return summarize_run(
            self.strategy, self.seed, self.records,
            self.compute_ms_total, self.busy_ms_total,
            self.occupied_ms_total, self.node_count, self.elapsed_ms,
            self.replications, self.steals,
        )


class Simulation:
    """One engine run of a trace against a cluster under a strategy. A
    trace given as a list of invocations is converted to a Trace once; its
    functions are looked up in the cluster's function specs.

    The run's settings come from two places, which hold their defaults:
    the cluster's ClusterParams (keep-alive, billing step) and the
    strategy's StrategyConfig (work stealing and its poll period, the
    replication period and threshold). The seed starts the random stream
    work stealing draws its victims from."""

    def __init__(self, engine: Engine, cluster: Cluster, strategy: DispatchStrategy,
                 trace: Trace | list[Invocation], *,
                 horizon_ms: int, strategy_cfg: StrategyConfig, seed: int):
        if not isinstance(trace, Trace):
            trace = Trace.from_invocations(trace)
        self.engine = engine
        self.cluster = cluster
        self.strategy = strategy
        self._dispatch_ms = strategy.dispatch_latency_ms
        self.trace = trace
        self.horizon_ms = horizon_ms
        self.cfg = strategy_cfg
        self.steal_rng = RandomSource(seed, "steal")
        functions = cluster.functions
        self.records = RecordStore(
            {name: spec.compute_ms for name, spec in functions.items()}, trace
        )
        self.steals = 0
        self.replications = 0
        self.replication_log: list = []
        self.done = 0
        self.last_completion = 0
        self._labels = engine.record_log  # build event labels only for the log
        self._view = trace.view
        # Billing per trace function code: the flavor in GB, and the step.
        self._flavor_gb = [functions[name].flavor / 1024.0 for name in trace.functions]
        self._billing_step = cluster.params.billing_granularity_ms
        self._keep_alive_ms = cluster.params.keep_alive_ms
        self._timer_armed = [False] * len(cluster.node_ids)  # per node id

    # ---- run loop ---------------------------------------------------------

    def run(self) -> None:
        # Arrivals fire straight from the trace's arrival column; none is
        # held as a pending event.
        self.engine.schedule_sorted(self.trace.arrivals, self._arrive, "arrival")
        if self.cfg.work_stealing and self.trace:
            self.engine.schedule(self.cfg.steal_poll_ms, self._steal_tick, "steal-tick")
        if self.strategy.needs_replication and self.trace:
            self.engine.schedule(
                self.cfg.replication_period_ms, self._replication_tick, "replication-tick"
            )
        self.engine.run()
        if self.done != len(self.trace):
            raise SimulationError(
                f"run ended with {len(self.trace) - self.done} invocations unaccounted"
            )

    def _work_remaining(self) -> bool:
        return self.done < len(self.trace)

    # ---- handlers ---------------------------------------------------------
    # An invocation travels as (index, inv): its trace index, for the
    # records, and the view built at arrival, for the strategy and the
    # cost model. A run queue holds (index, inv) entries.

    def _arrive(self, index: int) -> None:
        inv = self._view(index)
        node_id = self.strategy.decide(inv, self.cluster)
        self.engine.schedule(inv.arrival + self._dispatch_ms, self._offer,
                             f"offer:{inv.id}" if self._labels else "", (index, inv, node_id))

    def _offer(self, index: int, inv: Invocation, node_id: int) -> None:
        if not self._try_start(index, inv, node_id):
            self.cluster.nodes[node_id].run_queue.append((index, inv))

    def _try_start(self, index: int, inv: Invocation, node_id: int) -> bool:
        now = self.engine.now()
        outcome, container = self.cluster.acquire_container(node_id, inv.function, now)
        if outcome is _REJECTED:
            return False
        dispatch_ms = self._dispatch_ms
        timeline, failed = self.cluster.simulate_invocation(
            inv, node_id, outcome is _COLD_START, dispatch_ms, now - (inv.arrival + dispatch_ms),
        )
        self.engine.schedule(timeline.finished_at, self._complete,
                             f"completion:{inv.id}" if self._labels else "",
                             (index, container, timeline, failed))
        return True

    def _complete(self, index: int, container: Container, timeline, failed: bool) -> None:
        t = timeline
        active = t.boot_ms + t.code_fetch_ms + t.data_fetch_ms + t.compute_ms + t.write_back_ms
        if t.finished_at - t.started_at != t.dispatch_ms + t.queue_wait_ms + active:
            raise SimulationError(f"phase accounting broken for {self._view(index).id}")
        self._release(container, t.finished_at)  # the completion fires then
        if failed:
            billed = 0.0
        else:  # billed_gb_seconds, with the flavor and step looked up once per run
            step = self._billing_step
            billed = (-(-active // step) * step / 1000.0) * self._flavor_gb[
                self.trace.function_codes[index]]
        self.records.append(index, container.node, t, billed, failed)
        self.done += 1
        if t.finished_at > self.last_completion:
            self.last_completion = t.finished_at
        if self.cluster.nodes[container.node].run_queue:
            self._drain(container.node)

    def _release(self, container: Container, now: int) -> None:
        """Return a container to its warm pool, idle until its expiry: the
        (time, seq) that an expiry event scheduled now would take. Arm the
        node's keep-alive timer at that key unless one is pending; a pending
        timer's key is no later, since keys only grow."""
        self.cluster.release_container(container, now)
        key = container.expiry = (now + self._keep_alive_ms, self.engine.reserve())
        node_id = container.node
        if not self._timer_armed[node_id]:
            self._timer_armed[node_id] = True
            self._arm(node_id, key)

    def _arm(self, node_id: int, key: tuple[int, int]) -> None:
        self.engine.schedule(key[0], self._keep_alive,
                             f"keep-alive:{node_id}" if self._labels else "",
                             (node_id, key), seq=key[1])

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
            self._arm(node_id, oldest.expiry)

    def _drain(self, node_id: int) -> None:
        queue = self.cluster.nodes[node_id].run_queue
        while queue:
            index, inv = queue[0]
            if not self._try_start(index, inv, node_id):
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
            for node_id in cluster.node_ids:
                if cluster.nodes[node_id].run_queue:
                    continue
                batch = steal_work(cluster, node_id, self.steal_rng)
                if batch:
                    self.steals += len(batch)
                    self._drain(node_id)
        elif len(cluster.node_ids) > 1:  # one node has no victim and draws nothing
            self.steal_rng.skip_randint(0, len(cluster.node_ids) - 2,
                                        buckets.get(0, 0).bit_count())
        if self._work_remaining():
            self.engine.schedule(
                self.engine.now() + self.cfg.steal_poll_ms, self._steal_tick, "steal-tick"
            )

    def _replication_tick(self) -> None:
        actions = replication_tick(
            self.strategy.counters, self.cluster, self.cfg.replication_threshold
        )
        for action in actions:
            self.replication_log.append((self.engine.now(), action))
            if action.placed:
                self.replications += 1
        if self._work_remaining():
            self.engine.schedule(
                self.engine.now() + self.cfg.replication_period_ms,
                self._replication_tick, "replication-tick",
            )

    # ---- results ----------------------------------------------------------

    def result(self, strategy_label: str, seed: int) -> RunResult:
        nodes = self.cluster.nodes.values()
        return RunResult(
            strategy=strategy_label,
            seed=seed,
            records=self.records,
            elapsed_ms=max(self.horizon_ms, self.last_completion),
            compute_ms_total=sum(n.compute_ms_accum for n in nodes),
            busy_ms_total=sum(n.busy_ms_accum for n in nodes),
            occupied_ms_total=sum(n.occupied_ms_accum for n in nodes),
            node_count=len(nodes),
            replications=self.replications,
            steals=self.steals,
            replication_log=self.replication_log,
        )


# ---- scenario-level entry points --------------------------------------------


def prepare_workload(scenario: Scenario, seed: int) -> tuple[Catalog, Trace]:
    """Build the catalogs and the invocation trace for one seed. Catalog
    draws and trace draws use distinct streams of the same seed, so every
    strategy compared under that seed sees the identical workload. A
    malformed trace file is a ConfigError naming the key and the file."""
    catalog = build_catalog(scenario.workload, RandomSource(seed, "catalog"))
    path = scenario.workload.trace_path
    if path:
        try:
            trace = load_trace(path, catalog)
        except (TraceFormatError, UnknownFunctionError, UnknownObjectError) as exc:
            raise ConfigError(f"workload.trace_path: {path}: {exc}") from exc
    else:
        trace = generate_trace(scenario.workload, catalog, RandomSource(seed, "trace"))
    return catalog, trace


def build_cluster(scenario: Scenario, catalog: Catalog) -> Cluster:
    """Fresh cluster with one origin replica per object, assigned round
    robin over the nodes in object id order."""
    cluster = Cluster(scenario.cluster, catalog.functions, list(catalog.objects.values()))
    for i, object_id in enumerate(catalog.objects):
        cluster.ingest_origin(object_id, cluster.node_ids[i % len(cluster.node_ids)])
    return cluster


def run_one(scenario: Scenario, strategy_cfg: StrategyConfig, seed: int,
            catalog: Catalog | None = None,
            trace: Trace | list[Invocation] | None = None,
            label: str | None = None) -> RunResult:
    """Run one (strategy, seed) pair to completion and collect results."""
    if catalog is None or trace is None:
        catalog, trace = prepare_workload(scenario, seed)
    cluster = build_cluster(scenario, catalog)
    strategy = make_strategy(strategy_cfg.name, strategy_cfg.params,
                             strategy_cfg.dispatch_latency_ms, strategy_cfg.replication_decay)
    sim = Simulation(Engine(), cluster, strategy, trace,
                     horizon_ms=scenario.workload.horizon_ms,
                     strategy_cfg=strategy_cfg, seed=seed)
    sim.run()
    cluster.check_invariants()
    return sim.result(strategy_cfg.label if label is None else label, seed)


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
