"""What the command families share: input loading, validators, flag groups."""

from __future__ import annotations

import argparse
import inspect


class CliInputError(Exception):
    """A user-supplied input file is missing or unparsable.

    Raised by the subcommands that read JSONL/JSON artifacts; ``main``
    catches it and exits 2 with a one-line error naming the file instead
    of dumping a traceback.
    """


def load_input(path: str, loader, what: str):
    """Run ``loader(path)`` and normalise failures into CliInputError."""
    try:
        return loader(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliInputError(f"cannot read {what} {path!r}: {reason}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        # json.JSONDecodeError is a ValueError; schema/shape errors land
        # here too (missing keys, wrong field types, bad enum values)
        raise CliInputError(f"malformed {what} {path!r}: {exc}") from exc


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def jobs_count(text: str) -> int:
    """Worker-count validator: N >= 1, or 0 meaning "use every CPU"."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 1 (or 0 for all CPUs): {text}"
        )
    return value


def _group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


class Commands:
    """Declares subcommands, and the flag groups several of them own.

    Each group is a parent parser declared once; a command lists the
    groups it reads and declares its own flags on the parser ``add``
    returns.  No other flag parses for it.
    """

    def __init__(self, sub) -> None:
        self._sub = sub
        self.verbose = _group()
        # SUPPRESS: after the command, -v only overrides the value parsed
        # before it when given, so both positions work
        self.verbose.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=argparse.SUPPRESS,
            help="component logging on stderr (-v INFO, -vv DEBUG)",
        )
        self.seed = _group()
        self.seed.add_argument(
            "--seed", type=int, default=2014, help="workload-order seed (default 2014)"
        )
        self.trace_maxlen = _group()
        self.trace_maxlen.add_argument(
            "--trace-maxlen",
            type=positive_int,
            default=None,
            help="bound the event trace to a ring of N events (default unbounded)",
        )
        self.live = _group(self.seed, self.trace_maxlen)
        self.live.add_argument(
            "--sample-interval",
            type=positive_float,
            default=60.0,
            help="telemetry sampling period in sim seconds (default 60)",
        )
        self.jobs = _group()
        self.jobs.add_argument(
            "-j",
            "--jobs",
            type=jobs_count,
            default=None,
            metavar="N",
            help="worker processes (0 = all CPUs; default: serial)",
        )
        self.faults = _group()
        fault = self.faults.add_argument
        fault("--fault-seed", type=int, default=2014,
              help="failure-trace seed (default 2014)")
        fault("--mtbf", type=positive_float, default=6000.0,
              help="per-node mean time between failures [s] (default 6000)")
        fault("--mttr", type=positive_float, default=900.0,
              help="mean time to repair [s] (default 900)")
        fault("--fault-dist", choices=["exponential", "weibull"],
              default="exponential", help="failure inter-arrival distribution")
        fault("--burst-probability", type=float, default=0.0,
              help="chance a failure takes neighbours down too (default 0)")
        fault("--delivery-failure-rate", type=float, default=0.05,
              help="transient grant-delivery drop rate (default 0.05)")

    def add(self, name: str, func, *groups) -> argparse.ArgumentParser:
        """Declare command ``name`` run by ``func``; its docstring is the help."""
        doc = inspect.getdoc(func)
        parser = self._sub.add_parser(
            name,
            parents=[self.verbose, *groups],
            help=doc.splitlines()[0],
            description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            allow_abbrev=False,
        )
        parser.set_defaults(func=func)
        return parser
