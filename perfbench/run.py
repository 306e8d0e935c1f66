"""dispatchsim benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload scale_rr --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes, as a table

Run from the root of a checkout; dispatchsim is imported from its src/.
Each repetition runs the whole workload in a fresh process (child.py), one
at a time, so its peak RSS is that workload's own. The process pins itself
and its children to one CPU and times the reference kernel (reference.py)
before the first child and after each; end-to-end times are scaled by that
measured host speed (see end_to_end).

--trace 0 repeats untraced runs for --seconds seconds (at least MIN_RUNS)
and reports the end-to-end metrics over all of them. --trace 1 makes one
untraced run, then traced runs for the rest of --seconds (at least two),
and reports per-layer metrics: medians of times, and counts, which must
repeat exactly. Either mode checks every run's reports against the digest
recorded in expected.json when the seed has one, and against each other
always; a run that raises or fails a check counts in "failed". The last
line of output is one JSON object; the exit code is 1 when a check failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
from reference import REFERENCE_S, reference_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
RUN_BUDGET_S = 170.0  # the whole invocation must end within 180 s


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json") as fh:
        return json.load(fh)["digests"]


def runs_per_child(workload: str) -> int:
    import yaml

    scenario_file, _, seed_count = child.WORKLOADS[workload]
    with open(BENCH_DIR / "scenarios" / scenario_file) as fh:
        raw = yaml.safe_load(fh)
    return len(raw.get("strategies") or [raw.get("strategy")]) * seed_count


class Measurement:
    """The child processes of one benchmark invocation and their checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.runs_each = runs_per_child(workload)
        entry = load_expected().get(workload, {})
        self.expected = entry.get("files") if entry.get("seed") == seed else None
        self.out = OUT_DIR / f"{workload}-{os.getpid()}"
        self.started = time.monotonic()
        self.results: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.refs = [reference_seconds()]  # timed before the first child and after each

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, traced: bool) -> dict | None:
        """Run the workload once in a fresh process; None if it failed."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(self.out)]
        if traced:
            cmd.append("--trace")
        self.attempted += self.runs_each
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, RUN_BUDGET_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return self._fail(self.runs_each, "timed out")
        finally:
            self.refs.append(reference_seconds())
        if proc.returncode != 0:
            return self._fail(self.runs_each,
                              f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = result["report_done_monotonic"] - spawned
        result["speed"] = REFERENCE_S / statistics.fmean(self.refs[-2:])
        result["traced"] = traced
        self._check(result)
        self.results.append(result)
        return result

    def _fail(self, runs: int, why: str):
        self.failed += runs
        self.errors.append(f"{self.workload} seed {self.seed}: {why}")
        return None

    def _check(self, result: dict) -> None:
        bad_runs = [r for r in result["runs"] if r["tasks"] != r["invocations"]]
        if bad_runs:
            self._fail(len(bad_runs), f"tasks != trace length in {bad_runs}")
        reference = self.expected or (self.results[0]["digests"] if self.results else None)
        if reference is not None and result["digests"] != reference:
            what = "recorded digest" if self.expected else "the first run"
            self._fail(len(result["runs"]) - len(bad_runs),
                       f"reports differ from {what}: {result['digests']}")
        if result["traced"] and abs(result["layer_sum_s"] - result["traced_run_one_s"]) > 1e-6:
            self.errors.append(f"layer self times sum to {result['layer_sum_s']}, "
                               f"run_one took {result['traced_run_one_s']}")

    def repeat(self, seconds: float, traced: bool, minimum: int) -> list[dict]:
        """Run children until the next one would end past `seconds`, and
        at least `minimum` times."""
        done = []
        while True:
            typical = (statistics.median(r["wall_s"] for r in done) + self.refs[-1]
                       if done else 0.0)
            if len(done) >= minimum and self.elapsed() + typical > seconds:
                return done
            if self.elapsed() > RUN_BUDGET_S:
                return done
            result = self.spawn(traced)
            if result is None:
                return done
            done.append(result)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """Times are host-speed adjusted: each repetition's seconds are scaled
    by its speed factor (see reference.py), which removes the host's drift
    of a quarter or more over minutes. They pool every repetition (mean
    wall time; invocations over run_one seconds, summed), because speed
    also drifts within a run; set-up and memory take the median."""
    return {
        "wall_s": statistics.fmean(r["wall_s"] * r["speed"] for r in runs),
        "invocations_per_s": (sum(r["invocations"] for r in runs)
                              / sum(r["run_one_s"] * r["speed"] for r in runs)),
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(m: Measurement, untraced: dict, traced: list[dict],
              names: list[str]) -> dict[str, float]:
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, value in other["layers"].items():
            if isinstance(value, int) and value != first[name]:
                m.errors.append(f"count {name} differs between traced runs: "
                                f"{first[name]} != {value}")
    out = {}
    for name in names:
        if name == "bench.trace_overhead":
            out[name] = (statistics.median(r["traced_run_one_s"] * r["speed"] for r in traced)
                         / (untraced["run_one_s"] * untraced["speed"]))
        elif name == "bench.host_speed":
            out[name] = statistics.median(r["speed"] for r in [untraced, *traced])
        elif isinstance(first.get(name), int):
            out[name] = first[name]
        elif name in first or name.startswith("runner.run_one_s."):
            # A strategy this workload does not run reads 0.0.
            out[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        else:
            raise KeyError(f"BENCHMARK.json names {name}, which the tracer does not produce")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    m = Measurement(workload, seed)
    by_strategy_s = {}
    try:
        if trace:
            # Every child's reports are checked against the first (untraced)
            # child's, so traced rows must equal untraced rows.
            untraced = m.spawn(traced=False)
            traced = m.repeat(seconds, traced=True, minimum=MIN_TRACED_RUNS) if untraced else []
            names = [x["name"] for x in spec["per_layer"]]
            metrics = per_layer(m, untraced, traced, names) if traced else {}
            units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        else:
            runs = m.repeat(seconds, traced=False, minimum=MIN_RUNS)
            metrics = end_to_end(runs) if runs else {}
            units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
            by_strategy = {}
            for r in runs:
                for run in r["runs"]:
                    by_strategy.setdefault(run["strategy"], []).append(run["run_s"])
            by_strategy_s = {k: statistics.median(v) for k, v in by_strategy.items()}
    finally:
        m.close()
    correct = not m.errors and m.failed == 0 and bool(metrics)
    return {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "errors": m.errors,
        "run_one_by_strategy_s": by_strategy_s,  # untraced median per strategy label
    }


def print_table(workload: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_run_ratio={ratio:g}")
    for name, entry in result["metrics"].items():
        print(f"  {name:42s} {entry['value']:>16.6g} {entry['unit']}")
    for label, seconds in result["run_one_by_strategy_s"].items():
        print(f"  {'untraced run_one ' + label:42s} {seconds:>16.6g} s (median per run)")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(child.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dispatchsim" / "__init__.py").is_file():
        print(f"error: no dispatchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Host speed drifts per CPU, so the speed probe and the children it
    # adjusts must share one; children inherit this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        del result["run_one_by_strategy_s"]
        for error in result.pop("errors"):
            print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {}
    for workload in child.WORKLOADS:
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {},
                  "run_one_by_strategy_s": {}}
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace, spec)
            for error in result.pop("errors"):
                print(f"check failed: {error}", file=sys.stderr)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
            merged["run_one_by_strategy_s"].update(result["run_one_by_strategy_s"])
        print_table(workload, merged)
        combined[workload] = merged
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
