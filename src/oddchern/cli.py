"""Command-line front end for scenario-driven runs.

Subcommands mirror the library's report-producing operations; every
subcommand accepts a scenario file via --config plus overrides. Exit codes:
0 all checks pass, 2 an oracle mismatched, 3 a computation failed to
converge, 64 the configuration is invalid or its map is singular at a node.
"""

from __future__ import annotations

import argparse
import sys

from .chern import SingularMapError
from .scenarios import (EXIT_CONFIG_ERROR, EXIT_UNCONVERGED, ScenarioError,
                        UnconvergedError, emit_report, load_scenario, run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddchern",
        description="Odd Chern character degrees, transgression forms, and "
                    "index localization on spheres and product spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("deg", "normalized odd-Chern degree on an odd sphere"),
        ("deg-star", "normalized degree on a product sphere"),
        ("gamma-limit", "boundary transgression integral and its limit"),
        ("localize", "localized relative Chern number, both paths"),
        ("flz-point", "point-singularity contribution on S^(2n-1)"),
        ("index-report", "(-1)^n sum of model degrees"),
        ("verify", "run the acceptance check suite"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="scenario file (key = value lines)",
                       required=(name != "verify"))
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--resolution-scale", type=float, default=1.0,
                       help="multiply all per-angle node counts")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed as effective.seed; no check reads it, "
                            "since each randomized check pins its own generator")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config) if args.config else {}
        cfg.setdefault("scenario", args.command)
        if cfg["scenario"] != args.command:
            raise ScenarioError(
                f"scenario file says {cfg['scenario']!r} but the "
                f"subcommand is {args.command!r}")
        report = run(cfg, resolution_scale=args.resolution_scale,
                     seed=args.seed)
    except (ScenarioError, SingularMapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (UnconvergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED
    text = emit_report(report, out_path=args.out, fmt=args.format)
    if not args.out:
        sys.stdout.write(text)
    else:
        for check in report.checks:
            status = "ok" if check["passed"] else "FAIL"
            print(f"{status:4s} {check['name']}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
