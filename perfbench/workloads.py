"""Workload inputs, the operation each input drives, and its traced replay.

A workload turns a seed into a fixed list of inputs.  An operation runs one
input through genkummer the way a user would; the caller times it, then
asks the oracle (oracle.py, which never imports genkummer) whether the
output is right.  A replay runs the same input as direct calls into each
layer's public functions, one span per call, and counts what the layers
report.

Import this module only after genkummer's source directory is on sys.path
(run.py arranges that).
"""

import json
import random
from math import sqrt

from genkummer import cli, pell
from genkummer.exact_linalg import charpoly, enumerate_norm_vectors, has_norm_vector
from genkummer.isometry_search import (
    block_sets,
    classify_order,
    prune,
    replacement_config,
    search,
    standard_config,
)
from genkummer.kummer_structures import construct, decide, resolve_swap, scan
from genkummer.ns_lattice import L_class, build_ns, curve_a, curve_b

import oracle

WORKLOADS = ("scan", "search", "roots")
L2_MAX = 10_000
N_INPUTS = 256
# Inputs at the head of every list whose counts are recorded; a run always
# completes them, so the counts repeat exactly for one seed.
N_COUNTED = {"scan": 4, "search": 6, "roots": 6}
# Inputs of the other workloads that a traced run replays, so that every
# per-layer metric has a value on every workload: a flagged window, a search
# that accepts maps (L^2 = 0 mod 6, one structure), and one polarization of
# each band.  rank_draw puts each at the same place for every seed.
PROBES = {"scan": (1,), "search": (1,), "roots": (0, 1)}

_GOLDEN = (sqrt(5) - 1) / 2


def rank_draw(rng, ranked, i, width=2):
    """The i-th draw from a list sorted by cost.

    The seed picks one of the entries within `width` ranks of the fixed
    quantile frac(0.5 + i * golden ratio), so every prefix of a run covers
    the cost range evenly and two seeds differ only in which entries fill
    each rank band.
    """
    k = int(((0.5 + i * _GOLDEN) % 1.0) * len(ranked))
    return ranked[rng.randrange(max(0, k - width), min(len(ranked), k + width + 1))]


def _window_around(rng, v):
    """A seeded 18-wide scan window holding v, the only multiple of 18 in it."""
    shift = rng.randrange(max(0, v + 17 - L2_MAX), min(17, v - 8) + 1)
    return v - shift, v - shift + 17


# The search population falls into four cost groups, keyed (L^2 = 2 mod 6,
# two structures): with two structures nothing is accepted, without them 18
# maps are accepted and classified, and L^2 = 0 mod 6 builds far fewer
# integral candidates than L^2 = 2 mod 6.  Cheapest first, as measured on
# the seed code (2 cores): about 0.3 s, 0.6 s, 0.7 s and 1.0 s per search.
SEARCH_GROUPS = ((False, True), (True, True), (False, False), (True, False))
# roots: two small-band polarizations for each large-band one.
ROOTS_PATTERN = ("small", "large", "small")


def search_groups():
    """The search population, L^2 <= 10^4 admissible, not 0 mod 18 and with
    6 L^2 not a square, split into SEARCH_GROUPS."""
    groups = {g: [] for g in SEARCH_GROUPS}
    for v in range(8, L2_MAX + 1):
        if oracle.admissible(v) and v % 18:
            crit = oracle.criterion(v)
            if crit["pell"] is not None:
                groups[(v % 6 == 2, crit["two_structures"])].append(v)
    return groups


def _in_seed_order(rng, groups):
    """The groups concatenated in the order given, each shuffled by the seed."""
    out = []
    for members in groups:
        members = list(members)
        rng.shuffle(members)
        out += members
    return out


def make_inputs(workload, seed, ranks):
    """The seed's input list for a workload, N_INPUTS long.

    scan and search draw from their whole population, so every part of it
    comes in at its natural share: rank_draw over the population sorted by
    cost, where the seed orders each group of similar cost.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        # the published window, then 18-wide windows around a multiple v of
        # 18: unflagged v (cheap) and flagged v ranked by swap-resolution cost
        flagged = ranks["scan_flagged"]
        flagged_set = set(flagged)
        plain = [v for v in range(18, L2_MAX - 8, 18) if v not in flagged_set]
        population = _in_seed_order(rng, [plain]) + flagged
        return [("scan", 8, 198)] + [
            ("scan",) + _window_around(rng, rank_draw(rng, population, i))
            for i in range(N_INPUTS - 1)]
    if workload == "search":
        # L^2 = 20 (the aut20 input), then the search population
        groups = search_groups()
        population = _in_seed_order(rng, [groups[g] for g in SEARCH_GROUPS])
        return [("search", 20)] + [("search", rank_draw(rng, population, i))
                                   for i in range(N_INPUTS - 1)]
    if workload == "roots":
        # the small band (L^2 <= 200) and the large band (2000..10^4), each
        # rank-drawn by the cost of the whole operation
        out = []
        drawn = {"small": 0, "large": 0}
        while len(out) < N_INPUTS:
            band = ROOTS_PATTERN[len(out) % len(ROOTS_PATTERN)]
            out.append(("roots", rank_draw(rng, ranks[f"roots_{band}"], drawn[band]), band))
            drawn[band] += 1
        return out
    raise ValueError(f"unknown workload {workload!r}")


def load_ranks(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {key: [v for v, _ in data[key]]
            for key in ("scan_flagged", "roots_small", "roots_large")}


# ---------------------------------------------------------------------------
# operations: the user's path, timed by the caller


def scan_argv(lo, hi, jobs, out_path):
    return ["scan", str(lo), str(hi), "--jobs", str(jobs), "--format", "json",
            "--out", out_path]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv):
    rc = cli.run(argv)
    if rc != 0:
        raise RuntimeError(f"genkummer {' '.join(argv)} exited {rc}")


def direct(name, fn, *args, **kwargs):
    """Call fn untraced; the name is for a tracer's call of the same shape."""
    return fn(*args, **kwargs)


def run_op(inp, out_path, call=direct):
    """Run one input the user's way; returns the state check_op needs.

    Every call into genkummer goes through call(name, fn, *args), so a
    tracer can put a span around each.
    """
    if inp[0] == "scan":
        call("cli.scan_jobs2", _cli, scan_argv(inp[1], inp[2], 2, out_path))
        return None
    if inp[0] == "search":
        call("cli.search", _cli, ["search", str(inp[1]), "--jobs", "1", "--out", out_path])
        return None
    ns = call("ns_lattice.build_ns", build_ns, inp[1])
    swap = call("kummer_structures.resolve_swap", resolve_swap, ns)
    b1p, lp = call("kummer_structures.construct", construct, ns, swap=swap)
    rs = call("ns_lattice.root_system", ns.root_system_of_orthogonal, lp)
    return swap, b1p, lp, rs, call("ns_lattice.min_ample_u", ns.min_ample_u)


def check_op(inp, state, out_path):
    """(work units, problems, counts) for one finished operation."""
    if inp[0] == "scan":
        _, lo, hi = inp
        rows = _read_json(out_path)["rows"]
        crit = [oracle.criterion(int(r["L2"])) for r in rows]
        counts = {"scan.rows": len(rows),
                  "scan.flagged_rows": sum(c["flagged"] for c in crit),
                  "scan.no_pell_rows": sum(c["pell"] is None for c in crit)}
        return len(rows), oracle.check_scan(lo, hi, rows), counts
    if inp[0] == "search":
        report = _read_json(out_path)
        sc = report["status_counts"]
        counts = {"isometry_search.prune_count": report["prune_count"],
                  "isometry_search.accepted": sc["accepted"],
                  "isometry_search.disc_fail": sc["disc_fail"],
                  "isometry_search.non_integral": sc["non_integral"]}
        return 1, oracle.check_search(inp[1], report), counts
    swap, b1p, lp, rs, u = state
    problems = oracle.check_roots(inp[1], swap, b1p.num, lp.num,
                                  [r.num for r in rs.roots], rs.component_labels, u)
    return 1, problems, {"roots.roots_found": len(rs.roots), "roots.swapped": int(swap)}


# ---------------------------------------------------------------------------
# traced replays: direct calls into each layer, one span per call


def _scan_rows(reports):
    """Library DecisionReports formatted as the CLI writes scan rows."""
    return [{
        "L2": str(r.L2),
        "case": r.case,
        "x0": str(r.pell.x0) if r.pell else "",
        "y0": str(r.pell.y0) if r.pell else "",
        "modulus": str(r.modulus),
        "residue": str(r.residue) if r.residue is not None else "",
        "two_structures": str(r.two_structures),
        "search_agrees": "",
    } for r in reports]


def replay_scan(inp, tracer, out_path):
    _, lo, hi = inp
    problems = []
    flagged = no_pell = 0
    for L2 in range(lo, hi + 1):
        if not oracle.admissible(L2):
            continue
        crit = oracle.criterion(L2)
        solvable = crit["pell"] is not None
        if solvable:
            tracer.call("pell.fundamental_solution", pell.fundamental_solution,
                        oracle.pell_setup(L2)[0])
        ns = tracer.call("ns_lattice.build_ns", build_ns, L2)
        if solvable:
            tracer.call("kummer_structures.decide", decide, ns)
        else:
            no_pell += 1
        if crit["flagged"]:
            flagged += 1
            tracer.call("kummer_structures.resolve_swap", resolve_swap, ns)
    library = _scan_rows(tracer.call("kummer_structures.scan", scan, lo, hi))
    tracer.call("cli.scan_jobs1", _cli, scan_argv(lo, hi, 1, out_path))
    rows1 = _read_json(out_path)["rows"]
    tracer.call("cli.scan_jobs2", _cli, scan_argv(lo, hi, 2, out_path))
    rows2 = _read_json(out_path)["rows"]
    if rows2 != library or rows1 != library:
        problems.append(f"scan {lo}..{hi}: --jobs 2 / --jobs 1 rows differ "
                        "from the serial library scan")
    counts = {"scan.rows": len(library), "scan.flagged_rows": flagged,
              "scan.no_pell_rows": no_pell}
    return problems, counts


def replay_search(inp, tracer, out_path):
    L2 = inp[1]
    problems = []
    tracer.call("pell.fundamental_solution", pell.fundamental_solution,
                oracle.pell_setup(L2)[0])
    ns = tracer.call("ns_lattice.build_ns", build_ns, L2)
    target = tracer.call("isometry_search.replacement_config", replacement_config, ns)
    source = standard_config(ns)
    bl = tracer.call("isometry_search.block_sets", block_sets, ns, source)
    t_blocks = tracer.last
    bl_prime = tracer.call("isometry_search.block_sets", block_sets, ns, target)
    t_blocks += tracer.last
    sigmas = tracer.call("isometry_search.prune", prune, bl, bl_prime)
    t_prune = tracer.last
    result = tracer.call("isometry_search.search", search, ns, source, target)
    # search() validates both configurations, builds both block sets and
    # prunes before it filters candidates; what remains is the filter
    tracer.record("isometry_search.filter", tracer.last - t_blocks - t_prune)
    for cand in result.accepted:
        tracer.call("isometry_search.classify_order", classify_order, cand)
        tracer.call("exact_linalg.charpoly", charpoly, [list(r) for r in cand.matrix])
    tracer.call("cli.search", _cli, ["search", str(L2), "--jobs", "1", "--out", out_path])
    problems += oracle.check_search(L2, _read_json(out_path))
    if len(sigmas) != result.prune_count:
        problems.append(f"search {L2}: prune kept {len(sigmas)}, search reports "
                        f"{result.prune_count}")
    sc = result.status_counts
    counts = {"isometry_search.prune_count": result.prune_count,
              "isometry_search.accepted": sc["accepted"],
              "isometry_search.disc_fail": sc["disc_fail"],
              "isometry_search.non_integral": sc["non_integral"]}
    return problems, counts


def _ample_test_class(u):
    base = u * L_class()
    for j in range(1, 10):
        base = base - curve_a(j) - curve_b(j)
    return base


def replay_roots(inp, tracer, out_path):
    _, L2, band = inp
    flagged = oracle.criterion(L2)["flagged"]
    tracer.call("pell.fundamental_solution", pell.fundamental_solution,
                oracle.pell_setup(L2)[0])
    ns = tracer.call("ns_lattice.build_ns", build_ns, L2)
    # swap resolution is timed on flagged rows only; elsewhere it returns at once
    if flagged:
        swap = tracer.call("kummer_structures.resolve_swap", resolve_swap, ns)
    else:
        swap = resolve_swap(ns)
    b1p, lp = tracer.call("kummer_structures.construct", construct, ns, swap=swap)
    rs = tracer.call("ns_lattice.root_system", ns.root_system_of_orthogonal, lp)
    u = tracer.call("ns_lattice.min_ample_u", ns.min_ample_u)
    problems = oracle.check_roots(L2, swap, b1p.num, lp.num,
                                  [r.num for r in rs.roots], rs.component_labels, u)
    _, sub_gram = tracer.call("ns_lattice.orthogonal_sublattice",
                              ns.orthogonal_sublattice, lp)
    sols = tracer.call(f"exact_linalg.enumerate_norm_vectors.{band}",
                       enumerate_norm_vectors, sub_gram, -2)
    _, ample_gram = tracer.call("ns_lattice.orthogonal_sublattice",
                                ns.orthogonal_sublattice, _ample_test_class(u))
    if tracer.call(f"exact_linalg.has_norm_vector.{band}", has_norm_vector, ample_gram, -2):
        problems.append(f"roots {L2}: a root is orthogonal to the ample class")
    if len(sols) != 54:
        problems.append(f"roots {L2}: enumeration found {len(sols)} vectors, not 54")
    counts = {"exact_linalg.vectors_found": len(sols),
              "exact_linalg.gram_bits": max(abs(x).bit_length()
                                            for row in sub_gram for x in row)}
    return problems, counts


REPLAYS = {"scan": replay_scan, "search": replay_search, "roots": replay_roots}
