"""Command-line front door.

Subcommands: pairs, cascade, orbits, centralizer, model, verify-all.
Exit codes: 0 all assertions pass, 1 assertion failure or internal error
(one `error: <Type>: <message>` line on stderr), 2 usage error: bad
arguments, or a `UsageError` raised where input is validated.
With --json the full verification report is emitted as JSON (exact
values only: ints and "a/b" strings, never floats).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import report as rp
from .errors import UsageError


def _print_table(rows, columns):
    if not rows:
        print("(no rows)")
        return
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(columns)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _finish(rep, rows, args, columns=None):
    if args.json:
        doc = dict(rep)
        if rows is not None:
            doc["rows"] = rows
        print(json.dumps(doc, indent=2))
    else:
        if rows is not None and columns:
            _print_table(rows, columns)
        elif rows is not None:
            print(json.dumps(rows, indent=2))
        for it in rep["items"]:
            print(f"[{it['status']}] {it['name']}")
    return 0 if rep["ok"] else 1


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="liepairs",
        description="Exact verification toolkit for symmetric pairs with "
                    "abelian Cartan subspaces and so(p,2) nilpotent orbits.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairs", help="catalog of parabolic symmetric pairs")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cascade", help="Kostant cascade of a root system")
    p.add_argument("type", help="A,B,C,D,E6,E7,E8,F4,G2")
    p.add_argument("rank", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("orbits", help="nilpotent orbit diagrams")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--signed", action="store_true",
                   help="real so(p,2) orbits instead of complex so_(p+2)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("centralizer",
                       help="nonregular locus and subpairs of a catalog pair")
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--root", type=int, default=None,
                   help="1-based omitted simple root (default: first row)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("model", help="matrix-model orbit verification")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--orbit", required=True,
                   help="shape[:signs][:numerals], e.g. 3,1,1:+++, 2,2,1:I "
                        "or 2,2:++:II:I")
    p.add_argument("--verify", required=True,
                   choices=["triple", "characteristic", "sheet",
                            "distinguished"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-all", help="full verification battery")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return ap


def run(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "pairs":
            rep, rows = rp.pairs_report(args.max_rank)
            return _finish(rep, rows, args,
                           ["type", "rank_g", "omitted_root", "pair",
                            "rank", "dim_p"])
        if args.command == "cascade":
            rep, rows = rp.cascade_report(args.type, args.rank)
            return _finish(rep, rows, args, ["K", "epsilon_K", "gamma_size"])
        if args.command == "orbits":
            rep, rows = rp.orbits_report(args.p, args.signed)
            cols = (["shape", "signs", "numerals"] if args.signed
                    else ["shape", "numeral"])
            return _finish(rep, rows, args, cols)
        if args.command == "centralizer":
            rep, rows = rp.centralizer_report(args.type, args.rank, args.root)
            return _finish(rep, [rows], args, None)
        if args.command == "model":
            rep = rp.model_report(args.p, args.orbit, args.verify, args.seed)
            return _finish(rep, None, args)
        if args.command == "verify-all":
            rep = rp.verify_all_report(args.max_rank, args.seed)
            return _finish(rep, None, args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
