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
from .report import build_bundle, write_bundle


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as validation errors (exit 1), an argument
    that the named subcommand does not take with that subcommand's usage."""

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            commands = next((action.choices for action in self._actions
                             if isinstance(action, argparse._SubParsersAction)), {})
            parser = commands.get(getattr(namespace, "command", None), self)
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


#: Each subcommand's help and its options, in the order its help lists them.
_IO = ("--config", "--out")
_TABLES = _IO + ("--format",)  # for the subcommands that write a TSV table
_SAMPLING = ("--seed", "--samples", "--delta", "--estimator")
_COMMANDS = {
    "score": ("intelligence scores and phi per trace", _IO),
    "compare": ("rank substrates by phi at fixed algorithm", _TABLES),
    "simulate": ("sample Markov trajectories", _IO + _SAMPLING + ("--steps",)),
    "check-bounds": ("fluctuation and efficiency bound checks", _TABLES + _SAMPLING + ("--assert",)),
    "report": ("full bundle: score, compare, simulate, bounds",
               _TABLES + _SAMPLING + ("--steps", "--assert")),
}
_OPTIONS = {
    "--config": dict(type=Path, default=None,
                     help="experiment config JSON (default: packaged demo config)"),
    "--out": dict(type=Path, default=Path("wpi-out"), help="output directory (default: wpi-out)"),
    "--format": dict(choices=["json", "tsv"], default=None,
                     help="restrict output to one format (default: both)"),
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--samples": dict(type=int, default=None, help="override the config sample count"),
    "--delta": dict(type=float, default=None, help="override the config confidence parameter"),
    "--estimator": dict(choices=[e.value for e in Estimator], default=None,
                        help="override the config estimator"),
    "--steps": dict(type=int, default=1, help="transitions per trajectory (default: 1)"),
    "--assert": dict(dest="assert_mode", action="store_true",
                     help="exit 2 if a gated check fails its 3-sigma allowance"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``wpi`` parser, or with ``command`` only that subcommand's: its usage still lists
    them all, and as ``command`` parses first, no message can differ from the full parser's."""
    parser = _Parser(prog="wpi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name][0])
        for flag in _COMMANDS[name][1]:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _load(args) -> ExperimentConfig:
    path = args.config if args.config is not None else default_config_path()
    flags = ("seed", "samples", "delta", "estimator")
    overrides = {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}
    return ingest_config(path, **overrides)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        bundle = build_bundle(_load(args), args.command, getattr(args, "steps", 1))
    except ValidationError as exc:
        _print_validation_error(exc)
        return 1
    try:
        written = write_bundle(args.out, bundle, fmt=getattr(args, "format", None))
    except OSError as exc:
        print(f"error: cannot write output to {args.out}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)

    if getattr(args, "assert_mode", False):
        failed = [g for g in bundle["gates"] if not g["passed"]]
        for gate in failed:
            print(f"GATE FAIL {gate['model']}/{gate['gate']}: {gate['detail']}", file=sys.stderr)
        if failed:
            return 2
    return 0


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
