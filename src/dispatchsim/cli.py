"""Command-line entry point.

    dispatchsim run <config>            one strategy across the configured seeds
    dispatchsim compare <config>        every configured strategy, paired per seed
    dispatchsim validate <config>       report configuration problems, run nothing
    dispatchsim generate-trace <config> --out <path>   write a synthetic trace

Common flags: --seed N, --out-dir DIR, --format csv|json, plus trailing
dotted overrides such as cluster.nodes=8. Exit codes: 0 success, 2 invalid
configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import Scenario, load_scenario, validate
from .errors import ConfigError, SimulatorError
from .metrics import emit_report
from .runner import compare_scenario, prepare_workload, run_scenario
from .workload import save_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispatchsim",
        description="Discrete-event simulator for serverless event dispatching strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="scenario configuration file (YAML)")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the configured seed list with this single seed")
        p.add_argument("--out-dir", default=None, help="report output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="report format (overrides output.formats)")

    run_p = sub.add_parser("run", help="run the configured strategy across seeds")
    common(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run all configured strategies, paired per seed")
    common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    val_p = sub.add_parser("validate", help="validate the configuration without running")
    common(val_p)
    val_p.set_defaults(func=cmd_validate)

    gen_p = sub.add_parser("generate-trace", help="write the synthetic trace to a file")
    common(gen_p)
    gen_p.add_argument("--out", required=True, help="trace output path (JSON lines)")
    gen_p.set_defaults(func=cmd_generate_trace)
    return parser


def _load(args) -> Scenario:
    """The scenario with its overrides; --seed and --format are two more."""
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seeds={args.seed}")
    if args.format is not None:
        overrides.append(f"output.formats={args.format}")
    scenario = load_scenario(args.config, overrides)
    if args.out_dir is not None:
        scenario.output.dir = args.out_dir
    return scenario


def _check(scenario: Scenario) -> list:
    diags = validate(scenario)
    for diag in diags:
        print(diag, file=sys.stderr)
    return [d for d in diags if d.severity == "error"]


def _write_reports(scenario: Scenario, rows: list[dict], stem: str) -> list[Path]:
    out_dir = Path(scenario.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = scenario.constants()
    written = []
    for fmt in scenario.output.formats:
        path = out_dir / f"{stem}.{fmt}"
        emit_report(rows, meta, fmt, path)
        written.append(path)
    return written


def cmd_run(args) -> int:
    scenario = _load(args)
    if _check(scenario):
        return EXIT_CONFIG
    results = run_scenario(scenario)
    rows = [r.row() for r in results]
    for path in _write_reports(scenario, rows, "report"):
        print(f"wrote {path}")
    for row in rows:
        print(f"{row['strategy']} seed={row['seed']}: {row['tasks']} tasks, "
              f"mean_actual={row['mean_actual_ms']:.1f}ms, "
              f"quality={row['mean_quality']:.4f}, "
              f"gb_s={row['gb_seconds']:.4f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args)
    if len(scenario.strategies) < 2:
        print("error: compare needs a 'strategies' list with at least two entries",
              file=sys.stderr)
        return EXIT_CONFIG
    if _check(scenario):
        return EXIT_CONFIG
    _, rows = compare_scenario(scenario)
    for path in _write_reports(scenario, rows, "compare"):
        print(f"wrote {path}")
    for row in rows:
        if row["seed"] == "mean":
            print(f"{row['strategy']}: mean_actual={row['mean_actual_ms']:.1f}ms, "
                  f"quality={row['mean_quality']:.4f}, "
                  f"efficiency={row['efficiency']:.4f}, "
                  f"gb_s={row['gb_seconds']:.4f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load(args)
    errors = _check(scenario)
    if errors:
        return EXIT_CONFIG
    print("configuration valid")
    return EXIT_OK


def cmd_generate_trace(args) -> int:
    scenario = _load(args)
    if _check(scenario):
        return EXIT_CONFIG
    seed = scenario.seeds[0]
    _, trace = prepare_workload(scenario, seed)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} invocations to {args.out} (seed {seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    args.overrides = extras  # trailing key.path=value pairs
    try:
        for extra in extras:
            if "=" not in extra:
                raise ConfigError(f"unrecognized argument {extra!r} "
                                  "(overrides look like key.path=value)")
        return args.func(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # a named path that is missing or a directory
        return EXIT_CONFIG
    except (SimulatorError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("runtime failure: out of memory", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
