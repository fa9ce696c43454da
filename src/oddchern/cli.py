"""Command-line front end for scenario-driven runs.

One subcommand per kind in the scenarios dispatch table; each accepts a
scenario file via --config plus overrides. The report's exit_code is the exit
code: 0 all checks pass, 2 an oracle mismatched, 3 a computation failed to
converge (the report is still printed). 64: the configuration is invalid (a
key its kind does not read included) or its map is singular at a node. A
library ValueError (a non-unitary polar part, numpy's LinAlgError) exits 3
without a report.
"""

from __future__ import annotations

import argparse
import sys

from .chern import SingularMapError
from .scenarios import (_DISPATCH, EXIT_CONFIG_ERROR, EXIT_UNCONVERGED, ScenarioError,
                        emit_report, load_scenario, run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddchern",
        description="Odd Chern character degrees, transgression forms, and "
                    "index localization on spheres and product spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, summary) in _DISPATCH.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="scenario file (key = value lines)",
                       required=(name != "verify"))
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--resolution-scale", type=float, default=1.0,
                       help="the charts' resolution: every default node count "
                            "(nodes per angle, and the ball chart's nodes per "
                            "radial panel) becomes max(4, round(n * scale)) "
                            "(verify accepts only 1.0)")
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
        report = run(cfg, resolution_scale=args.resolution_scale)
    except (ScenarioError, SingularMapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED
    text = emit_report(report, out_path=args.out, fmt=args.format)
    if not args.out:
        sys.stdout.write(text)
    else:
        for check in report.checks:
            # A check that passed on an unconverged ladder is no "ok".
            status = ("ok" if check["converged"] else "UNCONVERGED") if check["passed"] else "FAIL"
            print(f"{status:4s} {check['name']}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
