"""Command-line front end.

Subcommands: ``score``, ``compare``, ``simulate``, ``check-bounds``, and
``report`` (everything at once).  Exit codes: 0 on success, 1 on any
validation or usage error or an ``--out`` that cannot be written, 2 when
``--assert`` is set and a gated bound check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexity import Estimator
from .config import ExperimentConfig, default_config_path, ingest_config
from .errors import ValidationError
from .report import build_metadata, compare_section, model_sections, score_section, write_bundle


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as validation errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    score = sub.add_parser("score", help="intelligence scores and phi per trace")
    compare = sub.add_parser("compare", help="rank substrates by phi at fixed algorithm")
    simulate = sub.add_parser("simulate", help="sample Markov trajectories")
    check = sub.add_parser("check-bounds", help="fluctuation and efficiency bound checks")
    full = sub.add_parser("report", help="full bundle: score, compare, simulate, bounds")

    for p in (score, compare, simulate, check, full):
        p.add_argument("--config", type=Path, default=None,
                       help="experiment config JSON (default: packaged demo config)")
        p.add_argument("--out", type=Path, default=Path("wpi-out"),
                       help="output directory (default: wpi-out)")
        p.add_argument("--format", choices=["json", "tsv"], default=None,
                       help="restrict output to one format (default: both)")
    for p in (simulate, check, full):
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override the config sample count")
        p.add_argument("--delta", type=float, default=None,
                       help="override the config confidence parameter")
        p.add_argument("--estimator", choices=[e.value for e in Estimator],
                       default=None, help="override the config estimator")
    for p in (simulate, full):
        p.add_argument("--steps", type=int, default=1,
                       help="transitions per trajectory (default: 1)")
    for p in (check, full):
        p.add_argument("--assert", dest="assert_mode", action="store_true",
                       help="exit 2 if a gated check fails its 3-sigma allowance")
    return parser


def _load(args) -> ExperimentConfig:
    path = args.config if args.config is not None else default_config_path()
    flags = ("seed", "samples", "delta", "estimator")
    overrides = {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}
    return ingest_config(path, **overrides)


def _empty_bundle(config) -> dict:
    return {
        "metadata": build_metadata(config),
        "scores": None,
        "wpi_reports": None,
        "comparison": None,
        "simulations": None,
        "bound_checks": None,
        "gates": None,
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _load(args)
        bundle = _empty_bundle(config)

        if args.command in ("score", "report"):
            section = score_section(config)
            bundle["scores"] = section["suites"]
            bundle["wpi_reports"] = section["wpi_reports"]
        if args.command in ("compare", "report"):
            bundle["comparison"] = compare_section(config)
            if args.command == "compare" and not bundle["comparison"]:
                raise ValidationError("comparison requires at least 2 traces sharing one suite")
        if args.command in ("simulate", "check-bounds", "report"):
            # one sample per model serves both sections; each model's paths
            # stream through the run's one chunk buffer and are never held
            bundle["simulations"], bundle["bound_checks"], bundle["gates"] = model_sections(
                config, getattr(args, "steps", 1),
                simulate=args.command != "check-bounds", check=args.command != "simulate")

        try:
            written = write_bundle(args.out, bundle, fmt=args.format)
        except OSError as exc:
            print(f"error: cannot write output to {args.out}: {exc}", file=sys.stderr)
            return 1
        for path in written:
            print(path)

        if getattr(args, "assert_mode", False):
            failed = [g for g in bundle["gates"] if not g["passed"]]
            for gate in failed:
                print(f"GATE FAIL {gate['model']}/{gate['gate']}: {gate['detail']}",
                      file=sys.stderr)
            if failed:
                return 2
        return 0
    except ValidationError as exc:
        _print_validation_error(exc)
        return 1


def _print_validation_error(exc: ValidationError) -> None:
    issues = getattr(exc, "issues", None)
    if issues:
        print(f"error: {len(issues)} validation problem(s):", file=sys.stderr)
        for where, message in issues:
            print(f"  {where or '<config>'}: {message}", file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
