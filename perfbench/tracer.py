"""Per-layer tracing of dispatchsim from outside the package.

The tracer replaces public entry points of each dispatchsim module with
wrappers that count calls and time spans, and puts every original back on
``restore()``. Time is booked as self time: a span's duration minus the
time of the traced spans it encloses, so the self times of the spans inside
``run_one`` add up to the ``run_one`` time.

Nothing here is imported by dispatchsim; an untraced run executes the
package unmodified.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter, defaultdict

# Spans timed inside run_one, by metric name. Their self times plus
# runner.self_s (event loop, handler bodies, cluster build, results) make up
# the run_one time.
RUN_ONE_CHILDREN = (
    "engine.schedule_s",
    "strategies.decide_s",
    "strategies.steal_work_s",
    "strategies.replication_tick_s",
    "cluster.acquire_s",
    "cluster.simulate_invocation_s",
    "cluster.release_s",
    "cluster.expire_s",
)


def _metric_label(label: str) -> str:
    """Strategy label as a metric name part ('hash_affinity+steal' ->
    'hash_affinity_steal')."""
    return label.replace("+", "_")


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of a sorted sequence; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Counts and self times for one traced process."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.run_one_s: defaultdict[str, float] = defaultdict(float)
        self.decide_samples = array("d")
        self.pending_peak = 0
        self._frames = [0.0]  # enclosed traced time of each open span
        self._patched: list[tuple[object, str, object]] = []

    # ---- patching ------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_function(self, modules, home, name: str, make_wrapper) -> None:
        """Wrap a module-level function in its home module and in every
        module that imported it by name, so calls through either resolve
        to the wrapper."""
        original = getattr(home, name)
        wrapper = make_wrapper(original)
        for module in modules:
            if module.__dict__.get(name) is original:
                self._patch(module, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # ---- span wrappers ------------------------------------------------

    def _timed(self, key: str, fn, after=None, samples=None):
        """Wrap fn in a span booked to self_s[key]; after(result, args)
        records counts from the call, inside the span, and samples collects
        each call's duration."""
        frames = self._frames
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - frames.pop()
                frames[-1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- installation -------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public entry points of every dispatchsim layer."""
        from dispatchsim import cluster, config, engine, metrics, runner, strategies, workload

        modules = (package, cluster, config, engine, metrics, runner, strategies, workload)
        counts = self.counts

        # config
        self._patch_function(modules, config, "load_scenario",
                             lambda fn: self._timed("config.load_scenario_s", fn))
        self._patch_function(modules, config, "validate",
                             lambda fn: self._timed("config.validate_s", fn))

        # workload
        self._patch_function(modules, workload, "generate_trace",
                             lambda fn: self._timed("workload.generate_trace_s", fn))

        # engine
        def after_schedule(_occ, args):
            counts["engine.schedule_calls"] += 1
            pending = args[0].pending()
            if pending > self.pending_peak:
                self.pending_peak = pending

        def after_run(processed, _args):
            counts["engine.events_processed"] += processed

        Engine = engine.Engine
        self._patch(Engine, "schedule",
                    self._timed("engine.schedule_s", Engine.schedule, after_schedule))
        self._patch(Engine, "run", self._wrap_plain(Engine.run, after_run))

        # strategies
        self._patch_function(modules, strategies, "make_strategy", self._wrap_make_strategy)
        self._patch_function(modules, strategies, "locality_score",
                             lambda fn: self._counted("strategies.locality_score_calls", fn))

        def after_steal(batch, _args):
            counts["strategies.steal_attempts"] += 1
            if batch:
                counts["strategies.steal_hits"] += 1

        def after_replication(actions, _args):
            counts["strategies.replication_actions"] += len(actions)
            counts["strategies.replication_placed"] += sum(1 for a in actions if a.placed)

        self._patch_function(modules, strategies, "steal_work",
                             lambda fn: self._timed("strategies.steal_work_s", fn, after_steal))
        self._patch_function(
            modules, strategies, "replication_tick",
            lambda fn: self._timed("strategies.replication_tick_s", fn, after_replication),
        )

        # cluster
        Cluster = cluster.Cluster

        def after_acquire(result, _args):
            counts["cluster.acquire_calls"] += 1
            counts[f"cluster.acquire.{result[0].value}"] += 1

        self._patch(Cluster, "acquire_container",
                    self._timed("cluster.acquire_s", Cluster.acquire_container, after_acquire))
        self._patch(Cluster, "simulate_invocation",
                    self._timed("cluster.simulate_invocation_s", Cluster.simulate_invocation))
        self._patch(Cluster, "cache_object", self._wrap_cache_object(Cluster.cache_object))
        self._patch(Cluster, "release_container",
                    self._timed("cluster.release_s", Cluster.release_container))
        self._patch(Cluster, "expire_container",
                    self._timed("cluster.expire_s", Cluster.expire_container))

        # runner
        self._patch_function(modules, runner, "run_one", self._wrap_run_one)

        # metrics
        def after_row(row, _args):
            counts["metrics.records"] += row["tasks"]

        RunResult = runner.RunResult
        self._patch(RunResult, "row",
                    self._timed("metrics.summarize_s", RunResult.row, after_row))
        self._patch_function(modules, metrics, "aggregate_rows",
                             lambda fn: self._timed("metrics.summarize_s", fn))
        self._patch_function(modules, metrics, "emit_report",
                             lambda fn: self._timed("metrics.emit_s", fn))

    @staticmethod
    def _wrap_plain(fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    def _wrap_cache_object(self, cache_object):
        """Count calls, and the store entries evicted to make room for the
        fetched object (the write-through path that evicts)."""
        counts = self.counts

        def wrapper(cluster, object_id, node_id):
            counts["cluster.cache_object_calls"] += 1
            entries = cluster.nodes[node_id].store_entries
            before = len(entries)
            stored = object_id not in entries
            cached = cache_object(cluster, object_id, node_id)
            counts["cluster.evictions"] += before + (stored and cached) - len(entries)
            return cached

        return wrapper

    def _wrap_make_strategy(self, make_strategy):
        """Time decide on every strategy instance the runner creates."""
        counts = self.counts

        def after_decide(_decision, _args):
            counts["strategies.decide_calls"] += 1

        def wrapper(*args, **kwargs):
            strategy = make_strategy(*args, **kwargs)
            strategy.decide = self._timed("strategies.decide_s", strategy.decide,
                                          after_decide, self.decide_samples)
            return strategy

        return wrapper

    def _wrap_run_one(self, run_one):
        frames = self._frames
        clock = time.perf_counter

        def wrapper(scenario, strategy_cfg, seed, catalog=None, trace=None, label=None):
            frames.append(0.0)
            start = clock()
            try:
                return run_one(scenario, strategy_cfg, seed, catalog, trace, label)
            finally:
                elapsed = clock() - start
                self.self_s["runner.self_s"] += elapsed - frames.pop()
                frames[-1] += elapsed
                name = strategy_cfg.label if label is None else label
                self.run_one_s[_metric_label(name)] += elapsed

        return wrapper

    # ---- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of everything traced so far."""
        c = self.counts
        s = self.self_s
        decide = sorted(self.decide_samples)
        acquired = c["cluster.acquire.warm_hit"] + c["cluster.acquire.cold_start"]
        out = {
            "config.load_scenario_s": s["config.load_scenario_s"],
            "config.validate_s": s["config.validate_s"],
            "workload.generate_trace_s": s["workload.generate_trace_s"],
            "engine.schedule_calls": c["engine.schedule_calls"],
            "engine.events_processed": c["engine.events_processed"],
            "engine.tombstones": c["engine.schedule_calls"] - c["engine.events_processed"],
            "engine.schedule_s": s["engine.schedule_s"],
            "engine.pending_peak": self.pending_peak,
            "strategies.decide_calls": c["strategies.decide_calls"],
            "strategies.decide_s": s["strategies.decide_s"],
            "strategies.decide_p50_us": percentile(decide, 0.50) * 1e6,
            "strategies.decide_p99_us": percentile(decide, 0.99) * 1e6,
            "strategies.locality_score_calls": c["strategies.locality_score_calls"],
            "strategies.steal_attempts": c["strategies.steal_attempts"],
            "strategies.steal_hit_ratio": _ratio(c["strategies.steal_hits"],
                                                 c["strategies.steal_attempts"]),
            "strategies.steal_work_s": s["strategies.steal_work_s"],
            "strategies.replication_tick_s": s["strategies.replication_tick_s"],
            "strategies.replication_placed_ratio": _ratio(
                c["strategies.replication_placed"], c["strategies.replication_actions"]),
            "cluster.simulate_invocation_s": s["cluster.simulate_invocation_s"],
            "cluster.acquire_calls": c["cluster.acquire_calls"],
            "cluster.acquire_s": s["cluster.acquire_s"],
            "cluster.warm_hit_ratio": _ratio(c["cluster.acquire.warm_hit"], acquired),
            "cluster.rejected_ratio": _ratio(c["cluster.acquire.rejected"],
                                             c["cluster.acquire_calls"]),
            "cluster.cache_object_calls": c["cluster.cache_object_calls"],
            "cluster.evictions": c["cluster.evictions"],
            "cluster.release_s": s["cluster.release_s"],
            "cluster.expire_s": s["cluster.expire_s"],
            "runner.self_s": s["runner.self_s"],
            "metrics.records": c["metrics.records"],
            "metrics.summarize_s": s["metrics.summarize_s"],
            "metrics.emit_s": s["metrics.emit_s"],
        }
        for label, seconds in self.run_one_s.items():
            out[f"runner.run_one_s.{label}"] = seconds
        return out

    def run_one_total(self) -> float:
        return sum(self.run_one_s.values())

    def layer_sum(self) -> float:
        """runner.self_s plus the self time of every span inside run_one."""
        return self.self_s["runner.self_s"] + sum(self.self_s[k] for k in RUN_ONE_CHILDREN)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
