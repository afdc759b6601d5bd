"""Command-line interface: ``repro-batchsim <command> [flags]``.

One subcommand per table or figure of the paper, campaign, observability
view and service demo.  ``repro-batchsim --help`` lists them and
``repro-batchsim <command> --help`` says what one does.  Each command
declares exactly the flags it reads, so any other flag is an argparse
error (exit 2).
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.cli import artifacts, observe, service
from repro.cli.common import CliInputError, Commands

__all__ = ["build_parser", "main", "CliInputError"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-batchsim",
        description=(
            "Reproduce the tables and figures of 'A Batch System with Fair "
            "Scheduling for Evolving Applications' (ICPP 2014)."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="component logging on stderr (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="artifact", required=True, metavar="command")
    commands = Commands(sub)
    for family in (artifacts, observe, service):
        family.register(commands)
    # bench-trend needs explicit snapshot paths; everything else renders
    every = [cmd for name, cmd in sub.choices.items() if name != "bench-trend"]
    commands.add("all", _cmd_all, commands.seed).set_defaults(commands=every)
    return parser


def _cmd_all(args) -> str:
    """Every command but bench-trend, each at its defaults and --seed."""
    outputs = []
    for command in args.commands:
        run = command.parse_args([])
        if hasattr(run, "seed"):
            run.seed = args.seed
        outputs.append(run.func(run))
    return ("\n\n" + "=" * 72 + "\n\n").join(outputs)


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger tree.

    Library code only emits records; handlers are the application's call —
    this is the application.
    """
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    logger.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    try:
        print(args.func(args))
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
