"""Command line entry point: `modcore run <session-file>`.

Exit codes: 0 all tasks ok, 2 at least one inconclusive, 3 at least one
failed hypothesis, 4 at least one error (error wins over the others).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ModcoreError, ParseError
from .session import emit_report, parse_session, run_session


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modcore", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a session file and emit its report")
    run.add_argument("session", help="path to the session file")
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.add_argument("--char", type=int, default=None, help="override the ring characteristic")
    run.add_argument("--max-t-degree", type=int, default=6, dest="t_cap")
    run.add_argument("--max-x-degree", type=int, default=10, dest="x_cap")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            with open(args.session, encoding="utf-8") as fh:
                src = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"modcore: cannot read {args.session}: {exc}", file=sys.stderr)
            return 4
        try:
            session = parse_session(src, char_override=args.char, t_cap=args.t_cap, x_cap=args.x_cap)
        except (ParseError, ModcoreError) as exc:
            print(f"modcore: {exc}", file=sys.stderr)
            return 4
        report = run_session(session)
        sys.stdout.buffer.write(emit_report(report, args.format))
        return report.exit_code()
    return 4


if __name__ == "__main__":
    raise SystemExit(main())
