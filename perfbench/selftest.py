"""Self-test of the benchmark's own machinery, on shrunken workloads.

    python3 perfbench/selftest.py

Checks that:
- the tracer patches attributes and, on restore, leaves every attribute of
  every dispatchsim module and class exactly as it found it;
- the exact counts of a traced run repeat across two fresh processes with
  different string-hash seeds, and tracing leaves the reports unchanged;
- the layer self times add up to the run_one time;
- every per-layer metric in BENCHMARK.json is produced, and design.json
  states for each which end-to-end metric it should move, and where.
Exits 1 on the first failed check.
"""

import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import child
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHRINK = {  # small enough to run in a few seconds, large enough to steal and evict
    "scale_rr": ["workload.horizon_ms=5000"],
    "scoring_64": ["workload.horizon_ms=2000"],
    "data_intensive": ["workload.horizon_ms=8000"],
}


def snapshot(modules) -> dict:
    """Every attribute of every module and of every class they define."""
    out = {}
    for module in modules:
        out[module.__name__] = dict(vars(module))
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = dict(vars(value))
    return out


def check_restore() -> None:
    dispatchsim = child.import_dispatchsim()
    from dispatchsim import cluster, config, engine, metrics, runner, strategies, workload

    modules = (dispatchsim, cluster, config, engine, metrics, runner, strategies, workload)
    before = snapshot(modules)
    tracer = Tracer()
    tracer.install(dispatchsim)
    patched = tracer.patched()
    assert patched, "tracer patched nothing"
    unchanged = [n for owner, n, orig in patched if vars(owner)[n] is orig]
    assert not unchanged, f"patch did not take effect: {unchanged}"
    tracer.restore()
    after = snapshot(modules)
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        changed = [n for n in attrs.keys() | after[key].keys()
                   if attrs.get(n) is not after[key].get(n)]
        assert not changed, f"{key}: not restored: {changed}"
    print(f"ok  tracer restores all {len(patched)} patched attributes")


def traced_child(workload: str, hash_seed: str, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
               "--seed", "1", "--out", out, *SHRINK[workload]]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts_repeat() -> set[str]:
    produced = set()
    for workload in child.WORKLOADS:
        first = traced_child(workload, "1", trace=True)
        second = traced_child(workload, "2", trace=True)
        plain = traced_child(workload, "3", trace=False)
        counts = {k: v for k, v in first["layers"].items() if isinstance(v, int)}
        again = {k: v for k, v in second["layers"].items() if isinstance(v, int)}
        assert counts == again, f"{workload}: counts differ: {counts} != {again}"
        assert first["digests"] == second["digests"] == plain["digests"], \
            f"{workload}: tracing changed the reports"
        assert abs(first["layer_sum_s"] - first["traced_run_one_s"]) < 1e-6, \
            f"{workload}: layer self times do not add up to run_one"
        produced |= first["layers"].keys()
        print(f"ok  {workload}: {len(counts)} counts repeat, reports identical")
    return produced


def check_declared(produced: set[str]) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    with open(BENCH_DIR / "design.json") as fh:
        described = {row["metric"] for row in json.load(fh)["layers"]}
    derived = {"bench.trace_overhead", "bench.host_speed"}  # computed by run.py
    missing = [n for n in declared if n not in produced | derived]
    assert not missing, f"declared but not produced: {missing}"
    undescribed = [n for n in declared if n not in described]
    assert not undescribed, f"no design.json row for: {undescribed}"
    print(f"ok  all {len(declared)} per-layer metrics produced and described")


def main() -> int:
    try:
        check_restore()
        check_declared(check_counts_repeat())
    except (AssertionError, subprocess.CalledProcessError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
