"""Run one benchmark workload once, in this process, the way the CLI would.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace] [key.path=value ...]

Loads the workload's scenario, validates it, prepares the trace of every
seed, runs every (seed, strategy) pair with run_one, builds the report rows
(plus per-strategy means for a compare), and writes the reports that
``dispatchsim run|compare`` would write for the same scenario and seeds.
Trailing dotted overrides apply to the scenario as on the dispatchsim
command line (the self-test uses them to shrink workloads). Prints one JSON
line: timings, peak RSS, report digests, per-run checks and, with --trace,
the per-layer metrics.

run.py starts one fresh process of this script per repetition, so
``ru_maxrss`` is the peak of a single workload run.
"""

import time

PROCESS_START = time.perf_counter()  # before any dispatchsim import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# name -> (scenario file, CLI command, number of consecutive seeds)
WORKLOADS = {
    "scale_rr": ("scale_rr.yaml", "run", 1),
    "scoring_64": ("scoring_64.yaml", "compare", 1),
    "data_intensive": ("data_intensive.yaml", "compare", 5),
}


def workload_seeds(name: str, seed: int) -> list[int]:
    """The seed list a workload runs for a benchmark seed: seed, seed+1, ..."""
    return [seed + i for i in range(WORKLOADS[name][2])]


def import_dispatchsim():
    """Import dispatchsim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dispatchsim

    if Path(dispatchsim.__file__).resolve().parent != src / "dispatchsim":
        raise ImportError(f"dispatchsim imported from {dispatchsim.__file__}, not {src}")
    return dispatchsim


def digest_files(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_workload(name: str, seed: int, out_dir: Path, trace: bool, overrides=()) -> dict:
    scenario_file, command, _ = WORKLOADS[name]
    dispatchsim = import_dispatchsim()
    tracer = None
    if trace:
        sys.path.insert(0, str(BENCH_DIR))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(dispatchsim)
    from dispatchsim import config, metrics, runner

    try:
        scenario = config.load_scenario(BENCH_DIR / "scenarios" / scenario_file, list(overrides))
        scenario.seeds = workload_seeds(name, seed)
        errors = [d for d in config.validate(scenario) if d.severity == "error"]
        if errors:
            raise SystemExit(f"invalid scenario {scenario_file}: {errors}")
        prepared = [(s, *runner.prepare_workload(scenario, s)) for s in scenario.seeds]
        setup_s = time.perf_counter() - PROCESS_START

        labels = [cfg.label for cfg in scenario.strategies]
        if len(set(labels)) != len(labels):
            raise SystemExit(f"{scenario_file}: strategy labels must be unique")
        results, runs = [], []
        for s, catalog, trace_list in prepared:
            for cfg in scenario.strategies:
                started = time.perf_counter()
                result = runner.run_one(scenario, cfg, s, catalog, trace_list, cfg.label)
                run_s = time.perf_counter() - started
                results.append(result)
                runs.append({"strategy": cfg.label, "seed": s,
                             "invocations": len(trace_list), "run_s": run_s})

        rows = [r.row() for r in results]
        for run, row in zip(runs, rows):
            run["tasks"] = row["tasks"]
        if command == "compare":
            rows += [metrics.aggregate_rows(label, [r for r in rows if r["strategy"] == label])
                     for label in labels]
        stem = "compare" if command == "compare" else "report"
        out_dir.mkdir(parents=True, exist_ok=True)
        meta = scenario.constants()
        paths = []
        for fmt in scenario.output.formats:
            path = out_dir / f"{stem}.{fmt}"
            metrics.emit_report(rows, meta, fmt, path)
            paths.append(path)
        report_done = time.monotonic()
    finally:
        if tracer is not None:
            patched = tracer.patched()
            tracer.restore()
            leftover = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in patched
                        if o.__dict__[n] is not orig]
            if leftover:
                raise SystemExit(f"tracer left patched: {', '.join(leftover)}")

    out = {
        "report_done_monotonic": report_done,
        "setup_s": setup_s,
        "run_one_s": sum(r["run_s"] for r in runs),
        "invocations": sum(r["invocations"] for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digest_files(paths),
        "runs": runs,
    }
    if tracer is not None:
        layers = tracer.metrics()
        out["layers"] = layers
        out["layer_sum_s"] = tracer.layer_sum()
        out["traced_run_one_s"] = tracer.run_one_total()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the reports")
    parser.add_argument("--trace", action="store_true", help="wrap every layer")
    args, overrides = parser.parse_known_args(argv)
    result = run_workload(args.workload, args.seed, Path(args.out), args.trace, overrides)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
