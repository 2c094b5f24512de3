"""Command line entry point: ``supergeo run <scenario> [--report p] [--seed s]``."""

from __future__ import annotations

import argparse
import os
import stat
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


def _write_in_place(path: str, data: bytes) -> None:
    """Write ``data`` over ``path`` from its start and, for a regular file,
    cut it to ``len(data)``: no truncating open, which frees every block of
    the old report before the same number are allocated again. A device,
    FIFO or terminal is only written, since it cannot be truncated."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))


def _write_stdout(data: bytes) -> None:
    """Write ``data`` to stdout's byte stream, whatever its text encoding,
    after anything its text layer still holds. After a broken pipe
    stdout's descriptor points at the null device, so that the
    interpreter's flush at exit has nowhere to fail."""
    try:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"supergeo: cannot read scenario: {exc}", file=sys.stderr)
        return 2

    # a name that is not UTF-8 (bytes kept by surrogateescape) is escaped
    # with backslashes, so the report always encodes
    name = os.fsencode(os.path.basename(args.scenario)).decode("utf-8", "backslashreplace")
    report = run_scenario(text, name=name, seed=args.seed)
    data = report.render().encode("utf-8")
    try:
        if args.report:
            _write_in_place(args.report, data)
        else:
            _write_stdout(data)
    except OSError as exc:
        print(f"supergeo: cannot write report: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
