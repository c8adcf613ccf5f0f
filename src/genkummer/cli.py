"""Command-line interface producing deterministic JSON/CSV reports.

Exit codes: 0 success, 1 usage or invalid input (an unwritable --out too),
2 domain failure (such as an unsolvable Pell equation), 3 internal error (a
failed invariant or any other exception of the library).  Large integers
are serialized as decimal strings; identical inputs produce byte-identical
output regardless of the parallelism degree.

The argument parser is built once per process, on the first run, and
every later run reuses it.  --help prints the paragraphs above this one.
"""

import argparse
import csv
import io
import json
import sys
from functools import lru_cache

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
from .kummer_structures import ROWS_PER_WORKER, NoPellSolution, decide, scan
from .ns_lattice import InvalidPolarization, build_ns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

SCAN_COLUMNS = ("L2", "case", "x0", "y0", "modulus", "residue",
                "two_structures", "search_agrees")


def _emit(text, out_path, code):
    """Write the report to out_path (stdout when unset) and return code, or
    EXIT_USAGE when the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out_path}: {exc.strerror}\n")
        return EXIT_USAGE
    return code


def _emit_json(payload, args, code=EXIT_OK):
    """Write payload, with the tool block added, as the JSON report."""
    payload["tool"] = {"name": "genkummer", "version": __version__}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _emit(text, args.out, code)


def _emit_no_pell(ns, exc, args):
    """The report of an L^2 whose Pell equation has no solution."""
    return _emit_json({"L2": ns.L2, "case": ns.case, "error": str(exc)}, args,
                      EXIT_DOMAIN)


def cmd_pell(args):
    try:
        fund = pell.fundamental_solution(args.D)
    except pell.NoSolution:
        return _emit_json({"D": args.D, "error": "perfect square"}, args,
                          EXIT_DOMAIN)
    except ValueError as exc:
        if args.D >= 2:   # D < 2 is the user's error, anything else ours
            raise
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return _emit_json({"D": args.D, "x0": str(fund.x0), "y0": str(fund.y0)}, args)


def cmd_ns(args):
    return _emit_json(build_ns(args.L2).to_json_dict(), args)


def cmd_decide(args):
    ns = build_ns(args.L2)
    try:
        report = decide(ns)
    except NoPellSolution as exc:
        return _emit_no_pell(ns, exc, args)
    return _emit_json(report.to_json_dict(), args)


def _scan_row(report):
    blob = report.to_json_dict()
    return {k: "" if blob[k] is None else str(blob[k]) for k in SCAN_COLUMNS}


def cmd_scan(args):
    if args.L2_min > args.L2_max:
        sys.stderr.write("error: empty scan range\n")
        return EXIT_USAGE
    rows = [_scan_row(r) for r in scan(args.L2_min, args.L2_max, jobs=args.jobs,
                                       with_search=args.with_search)]
    if args.format == "json":
        return _emit_json({"rows": rows}, args)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SCAN_COLUMNS,
                            quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return _emit(buf.getvalue(), args.out, EXIT_OK)


def cmd_search(args):
    ns = build_ns(args.L2)
    try:
        target = replacement_config(ns)
    except NoPellSolution as exc:
        return _emit_no_pell(ns, exc, args)
    result = search(ns, standard_config(ns), target)
    payload = result.to_json_dict()
    for cand, blob in zip(result.accepted, payload["accepted"]):
        blob["order"] = classify_order(cand)
    payload["L2"] = args.L2
    payload["case"] = ns.case
    return _emit_json(payload, args)


def cmd_aut20(args):
    ns = build_ns(20)
    payload = compute_aut_d2(ns).to_json_dict()
    payload["case"] = ns.case
    return _emit_json(payload, args)


def cmd_fm(args):
    model = fm_build((args.n1, args.n2, args.n3, args.n4))
    return _emit_json(model.to_json_dict(), args)


# name, integer positionals, help text, handler
_COMMANDS = (
    ("pell", ("D",), "fundamental Pell solution for D", cmd_pell),
    ("ns", ("L2",), "Neron-Severi model for L^2", cmd_ns),
    ("decide", ("L2",), "two-structures criterion for L^2", cmd_decide),
    ("scan", ("L2_min", "L2_max"), "criterion table over a range of L^2",
     cmd_scan),
    ("search", ("L2",), "isometry search between the two configurations",
     cmd_search),
    ("aut20", (), "polarized automorphism group for L^2=20", cmd_aut20),
    ("fm", ("n1", "n2", "n3", "n4"),
     "rank-4 pushforward/pullback lattice report", cmd_fm),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _common_flags(defaults):
    common = argparse.ArgumentParser(add_help=False)
    unset = None if defaults else argparse.SUPPRESS
    common.add_argument("--format", choices=("json", "csv"), default=unset,
                        help="output format (csv only for scan)")
    common.add_argument("--jobs", type=int, default=1 if defaults else unset,
                        help=f"worker processes for scan, at most one per {ROWS_PER_WORKER} "
                             f"rows; fewer than {2 * ROWS_PER_WORKER} plain rows run "
                             "in-process (other commands accept it and ignore it)")
    common.add_argument("--out", default=unset, help="write output to a file")
    return common


@lru_cache(maxsize=None)
def _build_parser():
    """Built on the first run and reused: set_defaults binds the cmd_*
    handlers now, so a later monkeypatch of one does not reach run.  The
    flags live on the root parser and (default suppressed) on every
    subparser, so both orderings work on the command line."""
    root_common = _common_flags(defaults=True)
    sub_common = _common_flags(defaults=False)
    parser = _Parser(prog="genkummer", description=__doc__.rpartition("\n\n")[0],
                     parents=[root_common])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, positionals, help_text, func in _COMMANDS:
        p = sub.add_parser(name, parents=[sub_common], help=help_text)
        for dest in positionals:
            p.add_argument(dest, type=int)
        if name == "scan":
            p.add_argument("--with-search", action="store_true",
                           help="cross-check each row with the isometry search")
        p.set_defaults(func=func)
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
    # argv was parsed under the str(int) digit cap; x0 can be far longer
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (InvalidPolarization, FMInvalidPolarization) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NoPellSolution as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except (ValueError, AssertionError) as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(cap)


def main(argv=None):
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
