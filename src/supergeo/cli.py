"""Command line entry point: ``supergeo run <scenario> [--report p] [--seed s]``."""

from __future__ import annotations

import argparse
import os
import sys

from .parsing import MAX_DIGITS, read_int
from .scenario import _DIGITS, run_scenario


def _seed(text: str) -> int:
    """A ``--seed`` value: a u64 in ASCII digits, read as the scenario
    format reads its ints; anything else is a usage error."""
    if _DIGITS.fullmatch(text) and len(text) <= MAX_DIGITS and (value := read_int(text)) < 2**64:
        return value
    raise argparse.ArgumentTypeError(f"must be a u64 in ASCII digits, not {text!r}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="supergeo")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("scenario", help="path to the scenario file")
    runp.add_argument("--report", default=None, help="write the report here")
    runp.add_argument("--seed", type=_seed, default=0, help="recorded in the report")
    return parser


# built once: main() runs once per scenario, many times in one process
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"supergeo: cannot read scenario: {exc}", file=sys.stderr)
        return 2

    report = run_scenario(text, name=os.path.basename(args.scenario), seed=args.seed)
    rendered = report.render()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"supergeo: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
