"""Command line entry point.

    redop <command> <file> [--field NAME] [--family NAME] [--ansatz NAME]
                           [--xi 0|u] [--json] [--samples N] [--seed N]

Exit codes: 0 success, 1 verification failed, 2 input error, 3 undecidable.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import RedopError
from .problems import parse_problem
from .report import FAILED, UNDECIDABLE, emit_report
from .runner import COMMANDS, run


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by later ones."""
    p = argparse.ArgumentParser(
        prog="redop",
        description="Singularity co-orders and reduction operators for PDEs "
        "in two independent variables.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("file", help="problem file")
    p.add_argument("--field", help="vector field name declared in the file")
    p.add_argument("--family", help="solution family name declared in the file")
    p.add_argument("--ansatz", help="ansatz name declared in the file")
    p.add_argument("--xi", choices=("0", "u"), default="0",
                   help="first coefficient of the reduced operator set")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--samples", type=int, help="sample count for numeric checks")
    p.add_argument("--seed", type=int, help="seed for numeric checks")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        problem = parse_problem(Path(args.file).read_text(encoding="utf-8"))
        report = run(
            args.command,
            problem,
            field=args.field,
            family=args.family,
            ansatz=args.ansatz,
            xi=args.xi,
            samples=args.samples,
            seed=args.seed,
            problem_name=Path(args.file).stem,
        )
    except UnicodeDecodeError as e:
        print("error: %s is not UTF-8 text: %s" % (args.file, e), file=sys.stderr)
        return 2
    except (OSError, RedopError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print(emit_report(report, "json" if args.json else "text"))
    worst = report.worst_status
    if worst == FAILED:
        return 1
    if worst == UNDECIDABLE:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
