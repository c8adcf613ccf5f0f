"""Command-line interface producing deterministic JSON/CSV reports.

Exit codes: 0 success, 1 usage or invalid input, 2 domain failure (such as
an unsolvable Pell equation).  Large integers are serialized as decimal
strings; identical inputs produce byte-identical output regardless of the
parallelism degree.
"""

import argparse
import csv
import io
import json
import sys

from . import __version__, pell
from .fm_lattices import InvalidPolarization as FMInvalidPolarization
from .fm_lattices import build as fm_build
from .isometry_search import (
    classify_order,
    compute_aut_d2,
    replacement_config,
    search,
    standard_config,
)
from .kummer_structures import NoPellSolution, decide, scan
from .ns_lattice import InvalidPolarization, build_ns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

SCAN_COLUMNS = ("L2", "case", "x0", "y0", "modulus", "residue",
                "two_structures", "search_agrees")


def _tool_block():
    return {"name": "genkummer", "version": __version__}


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_pell(args):
    try:
        fund = pell.fundamental_solution(args.D)
    except pell.NoSolution:
        _emit(_json_text({
            "tool": _tool_block(), "D": args.D, "error": "perfect square",
        }), args.out)
        return EXIT_DOMAIN
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    _emit(_json_text({
        "tool": _tool_block(),
        "D": args.D,
        "x0": str(fund.x0),
        "y0": str(fund.y0),
    }), args.out)
    return EXIT_OK


def cmd_ns(args):
    ns = build_ns(args.L2)
    payload = ns.to_json_dict()
    payload["tool"] = _tool_block()
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_decide(args):
    ns = build_ns(args.L2)
    try:
        report = decide(ns)
    except NoPellSolution as exc:
        _emit(_json_text({
            "tool": _tool_block(), "L2": args.L2, "case": ns.case,
            "error": str(exc),
        }), args.out)
        return EXIT_DOMAIN
    payload = report.to_json_dict()
    payload["tool"] = _tool_block()
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _scan_row(report):
    agrees = report.search_agrees
    return {
        "L2": str(report.L2),
        "case": report.case,
        "x0": str(report.pell.x0) if report.pell else "",
        "y0": str(report.pell.y0) if report.pell else "",
        "modulus": str(report.modulus),
        "residue": str(report.residue) if report.residue is not None else "",
        "two_structures": str(report.two_structures),
        "search_agrees": "" if agrees is None else str(agrees),
    }


def cmd_scan(args):
    if args.L2_min > args.L2_max:
        sys.stderr.write("error: empty scan range\n")
        return EXIT_USAGE
    rows = [_scan_row(r) for r in scan(args.L2_min, args.L2_max, jobs=args.jobs,
                                       with_search=args.with_search)]
    if args.format == "json":
        _emit(_json_text({"tool": _tool_block(), "rows": rows}), args.out)
        return EXIT_OK
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SCAN_COLUMNS,
                            quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_search(args):
    ns = build_ns(args.L2)
    try:
        target = replacement_config(ns)
    except NoPellSolution as exc:
        _emit(_json_text({
            "tool": _tool_block(), "L2": args.L2, "case": ns.case,
            "error": str(exc),
        }), args.out)
        return EXIT_DOMAIN
    result = search(ns, standard_config(ns), target)
    payload = result.to_json_dict()
    for cand, blob in zip(result.accepted, payload["accepted"]):
        blob["order"] = classify_order(cand)
    payload["tool"] = _tool_block()
    payload["L2"] = args.L2
    payload["case"] = ns.case
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_aut20(args):
    ns = build_ns(20)
    group = compute_aut_d2(ns)
    payload = group.to_json_dict()
    payload["tool"] = _tool_block()
    payload["case"] = ns.case
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_fm(args):
    try:
        model = fm_build((args.n1, args.n2, args.n3, args.n4))
    except FMInvalidPolarization as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    payload = model.to_json_dict()
    payload["tool"] = _tool_block()
    _emit(_json_text(payload), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _common_flags(defaults):
    common = argparse.ArgumentParser(add_help=False)
    kw = {} if defaults else {"default": argparse.SUPPRESS}
    common.add_argument("--format", choices=("json", "csv"),
                        **({"default": None} if defaults else kw),
                        help="output format (csv only for scan)")
    common.add_argument("--jobs", type=int,
                        **({"default": 1} if defaults else kw),
                        help="worker processes for scan (other commands "
                             "accept it and ignore it)")
    common.add_argument("--out", **({"default": None} if defaults else kw),
                        help="write output to a file")
    return common


def _build_parser():
    # the flags live on the root parser and on every subparser (with
    # suppressed defaults), so both orderings work on the command line
    root_common = _common_flags(defaults=True)
    sub_common = _common_flags(defaults=False)
    parser = _Parser(prog="genkummer", description=__doc__,
                     parents=[root_common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pell", parents=[sub_common],
                       help="fundamental Pell solution for D")
    p.add_argument("D", type=int)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("ns", parents=[sub_common],
                       help="Neron-Severi model for L^2")
    p.add_argument("L2", type=int)
    p.set_defaults(func=cmd_ns)

    p = sub.add_parser("decide", parents=[sub_common],
                       help="two-structures criterion for L^2")
    p.add_argument("L2", type=int)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("scan", parents=[sub_common],
                       help="criterion table over a range of L^2")
    p.add_argument("L2_min", type=int)
    p.add_argument("L2_max", type=int)
    p.add_argument("--with-search", action="store_true",
                   help="cross-check each row with the isometry search")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("search", parents=[sub_common],
                       help="isometry search between the two configurations")
    p.add_argument("L2", type=int)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("aut20", parents=[sub_common],
                       help="polarized automorphism group for L^2=20")
    p.set_defaults(func=cmd_aut20)

    p = sub.add_parser("fm", parents=[sub_common],
                       help="rank-4 pushforward/pullback lattice report")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("n4", type=int)
    p.set_defaults(func=cmd_fm)
    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.jobs < 1:
        sys.stderr.write("error: --jobs must be at least 1\n")
        return EXIT_USAGE
    if args.format == "csv" and args.command != "scan":
        sys.stderr.write("error: csv output is only available for scan\n")
        return EXIT_USAGE
    if args.format is None:
        args.format = "csv" if args.command == "scan" else "json"
    try:
        return args.func(args)
    except (InvalidPolarization, ValueError) as exc:
        if isinstance(exc, NoPellSolution):
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_DOMAIN
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main(argv=None):
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
