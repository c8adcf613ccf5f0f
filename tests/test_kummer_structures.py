import multiprocessing
import os

import pytest

from families import b1_class, ramare_family, verify_uniqueness
from genkummer import cli, kummer_structures, ns_lattice, pell
from genkummer.exact_linalg import hnf, hnf_pivots
from genkummer.kummer_structures import (
    pell_data,
    NoPellSolution,
    admissible_values,
    check_hypotheses,
    construct,
    decide,
    resolve_swap,
    scan,
)
from genkummer.ns_lattice import NSModel, L_class, build_ns, curve_a, curve_b

PUBLISHED = [20, 44, 68, 84, 92, 104, 110, 116, 120,
             126, 132, 140, 164, 168, 176, 188]


def test_construct_degree_two():
    ns = build_ns(2)
    b1p, lp = construct(ns)
    assert b1p.num == (6 * L_class() - (4 * curve_a(1) + 7 * curve_b(1))).num
    assert ns.pairing(L_class(), b1p) == 12
    assert lp.num == (7 * L_class() - 4 * (curve_a(1) + 2 * curve_b(1))).num


def test_construct_twenty():
    ns = build_ns(20)
    b1p, lp = construct(ns)
    assert b1p.num == (3 * L_class() - (6 * curve_a(1) + 11 * curve_b(1))).num
    assert lp.num == (11 * L_class() - 20 * (curve_a(1) + 2 * curve_b(1))).num
    assert ns.square(lp) == 20


def test_construct_unsolvable():
    with pytest.raises(NoPellSolution):
        construct(build_ns(6))
    with pytest.raises(NoPellSolution):
        construct(build_ns(24))


def test_construct_relations_over_small_range():
    for L2 in admissible_values(2, 100):
        if pell.is_square(6 * L2):
            continue
        ns = build_ns(L2)
        b1p, lp = construct(ns)
        assert ns.square(b1p) == -2
        assert ns.pairing(b1p, curve_a(1)) == 1
        assert ns.square(lp) == L2
        assert ns.pairing(lp, curve_a(1)) == 0
        assert ns.pairing(lp, b1p) == 0
        assert ns.pairing(lp, L_class()) > 0


def construct_by_classes(ns, swap=False):
    """The reference for construct: the same classes by DivisorClass
    arithmetic on all 19 numerators, each relation checked by NSModel."""
    fund = pell_data(ns)
    x0, y0 = fund.x0, fund.y0
    assert x0 % 2 == 1
    _, m, _ = kummer_structures._pell_modulus(ns)
    a_cls, b_cls = (curve_b(1), curve_a(1)) if swap else (curve_a(1), curve_b(1))
    b1p = b1_class(ns, x0, y0, a_cls, b_cls)
    lp = x0 * L_class() - (m * y0) * (a_cls + 2 * b_cls)
    assert ns.square(lp) == ns.L2 and ns.pairing(lp, a_cls) == 0
    assert ns.pairing(lp, b1p) == 0 and ns.pairing(lp, L_class()) > 0
    assert ns.contains(b1p) and ns.contains(lp)
    return b1p, lp


def test_construct_matches_the_class_arithmetic():
    for L2 in admissible_values(2, 1999):
        if pell.is_square(6 * L2):
            continue
        ns = build_ns(L2)
        for swap in (False, True):
            assert construct(ns, swap=swap) == construct_by_classes(ns, swap=swap), L2


@pytest.mark.parametrize("corrupt, message", [
    # a wrong L-factor c breaks b1p^2 = -2
    (lambda d, m, c: (d, m, c + 3), "replacement class fails its defining relations"),
    # D = 3 has x0 = 2: with x0 even, b1p.A_1 = 0
    (lambda d, m, c: (3, m, c), "replacement class fails its defining relations"),
    # a wrong modulus m breaks lp^2 = L^2 and lp.b1p = 0
    (lambda d, m, c: (d, m + 1, c), "new orthogonal generator fails its relations"),
], ids=["c", "D", "m"])
def test_a_corrupt_pell_modulus_is_an_internal_error(corrupt, message, monkeypatch,
                                                      capsys):
    modulus = kummer_structures._pell_modulus
    monkeypatch.setattr(kummer_structures, "_pell_modulus",
                        lambda ns: corrupt(*modulus(ns)))
    for L2 in (20, 36):
        with pytest.raises(AssertionError, match=message):
            construct(build_ns(L2))
    assert cli.run(["decide", "20"]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err == f"error: internal: {message}\n"


def test_a_class_outside_the_lattice_is_an_internal_error(monkeypatch, capsys):
    # integer combinations of L, A_1 and B_1 lie in NS whatever the Pell
    # data, so only a broken membership test can fire this check
    monkeypatch.setattr(NSModel, "contains", lambda self, c: False)
    with pytest.raises(AssertionError, match="must lie in the lattice"):
        construct(build_ns(20))
    assert cli.run(["decide", "20"]) == 3
    assert capsys.readouterr().err == (
        "error: internal: constructed classes must lie in the lattice\n")


def test_construct_swapped_roles():
    ns = build_ns(36)
    a1p, lp = construct(ns, swap=True)
    assert ns.square(a1p) == -2
    assert ns.pairing(a1p, curve_b(1)) == 1
    assert ns.pairing(lp, curve_b(1)) == 0
    assert ns.pairing(lp, a1p) == 0


def test_swap_repairs_reducible_cases():
    # for 0 mod 18 with 3 not dividing y0 exactly one exchange side works;
    # on the bad side extra roots (an E6 worth) appear orthogonal to the
    # new generator, flagging the replacement class as reducible
    ns = build_ns(72)
    _, lp_raw = construct(ns)
    raw = ns.root_system_of_orthogonal(lp_raw)
    assert len(raw.roots) == 108
    assert sorted(raw.component_labels) == ["A2"] * 6 + ["E6"]
    _, lp = construct(ns, swap=True)
    fixed = ns.root_system_of_orthogonal(lp)
    assert len(fixed.roots) == 54
    assert fixed.component_labels == ("A2",) * 9


def _decompose_all_pairs(L2, reps):
    """Oracle for ns_lattice._decompose_roots: the union-find over every
    pair of representatives, whatever blocks they meet."""
    n = len(reps)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if ns_lattice.pairing_times_nine(L2, reps[i].num, reps[j].num):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    components = []
    for members in groups.values():
        h, _ = hnf([list(reps[i].num) for i in members])
        label = ns_lattice._ade_label(len(hnf_pivots(h)), len(members))
        roots = tuple(c for i in members for c in (reps[i], -reps[i]))
        components.append(ns_lattice.RootComponent(label, roots))
    components.sort(key=lambda comp: comp.roots[0].num)
    return tuple(components)


def _assert_decomposition_matches_all_pairs(L2, rs):
    reps = rs.roots[::2]
    oracle = _decompose_all_pairs(L2, reps)
    assert ns_lattice._decompose_roots(L2, rs.roots) == oracle == rs.components


def test_decompose_roots_matches_all_pairs():
    # lp-perp (the 54 roots of nine A2) for every admissible L^2 < 1000 with
    # a Pell solution, the unexchanged side at 72 (108 roots with an E6), and
    # L-perp in the four cases
    for L2 in admissible_values(2, 999):
        if pell.is_square(6 * L2):
            continue
        ns = build_ns(L2)
        _, lp = construct(ns, swap=resolve_swap(ns))
        rs = ns.root_system_of_orthogonal(lp)
        assert len(rs.roots) == 54
        _assert_decomposition_matches_all_pairs(L2, rs)
    ns = build_ns(72)
    _, lp_raw = construct(ns)
    rs = ns.root_system_of_orthogonal(lp_raw)
    assert len(rs.roots) == 108
    _assert_decomposition_matches_all_pairs(72, rs)
    for L2 in (20, 24, 30, 36):   # 2 mod 6, 6, 12 and 0 mod 18
        rs = build_ns(L2).root_system_of_orthogonal(L_class())
        _assert_decomposition_matches_all_pairs(L2, rs)


def test_resolve_swap_picks_the_clean_side():
    # which side is clean varies case by case
    assert resolve_swap(build_ns(72)) is True
    assert resolve_swap(build_ns(36)) is False
    assert resolve_swap(build_ns(180)) is False
    assert resolve_swap(build_ns(90)) is True
    assert resolve_swap(build_ns(126)) is False   # 3 | y0: flag never set
    assert resolve_swap(build_ns(20)) is False
    report = decide(build_ns(72))
    assert report.note == "criterion-only; roles exchanged"
    assert build_ns(72).pairing(report.b1prime, curve_b(1)) == 1
    report = decide(build_ns(36))
    assert report.note == "criterion-only"
    assert build_ns(36).pairing(report.b1prime, curve_a(1)) == 1


def _no_enumeration(*args, **kwargs):
    raise AssertionError("lattice enumeration on the decide path")


def _forbid_enumeration(monkeypatch):
    monkeypatch.setattr(NSModel, "root_system_of_orthogonal", _no_enumeration)
    monkeypatch.setattr(ns_lattice, "enumerate_norm_vectors", _no_enumeration)


@pytest.mark.parametrize("bound", [
    999, pytest.param(10000, marks=pytest.mark.slow)])
def test_swap_rule_matches_the_root_count(bound, monkeypatch):
    # the oracle for resolve_swap's closed form: on every flagged L^2 the
    # chosen side's complement holds only the 54 roots of the nine blocks
    # and the other side's holds 108; the rule itself enumerates nothing
    rows = [build_ns(L2) for L2 in range(18, bound + 1, 18)
            if not pell.is_square(6 * L2)]
    rows = [ns for ns in rows if check_hypotheses(ns).swapped_A1_B1]
    assert {ns.basis for ns in rows} == {rows[0].basis}
    residues = set()
    for ns in rows:
        fund = pell_data(ns)
        residues.add((fund.x0 % 3, fund.y0 % 3))
        with monkeypatch.context() as m:
            _forbid_enumeration(m)
            swap = resolve_swap(ns)
        counts = [len(ns.root_system_of_orthogonal(construct(ns, swap=s)[1]).roots)
                  for s in (swap, not swap)]
        assert counts == [54, 108], ns.L2
    assert residues == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_decide_and_scan_enumerate_nothing(monkeypatch):
    _forbid_enumeration(monkeypatch)
    positives = [r.L2 for r in scan(8, 198) if r.two_structures]
    assert positives == PUBLISHED
    report = decide(build_ns(72))
    assert report.note == "criterion-only; roles exchanged"


def test_scan_pool_is_bounded_by_the_rows(monkeypatch):
    sizes = []

    class SerialPool:
        """Records its size and maps in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return [fn(v) for v in values]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    rows = scan(8, 20, jobs=100000)
    assert [r.L2 for r in rows] == [8, 12, 14, 18, 20]
    assert scan(8, 198, jobs=3) == scan(8, 198)
    assert sizes == []
    # no pool below 2 * ROWS_PER_WORKER plain rows, then one per that many
    per = kummer_structures.ROWS_PER_WORKER
    ends = admissible_values(8, 10 ** 4)
    assert len(scan(8, ends[2 * per - 2], jobs=100000)) == 2 * per - 1
    assert sizes == []
    assert len(scan(8, ends[2 * per - 1], jobs=100000)) == 2 * per
    assert scan(8, ends[3 * per - 1], jobs=100000) == scan(8, ends[3 * per - 1], jobs=2)
    assert sizes == [2, 3, 2]
    # with the search, one worker per row up to jobs
    del sizes[:]
    assert scan(8, 20, jobs=100000, with_search=True) == scan(8, 20, jobs=3,
                                                              with_search=True)
    assert sizes == [5, 3]


_SCAN_REPORT = kummer_structures._scan_report


def _row_and_misses(L2, with_search):
    """_scan_report's row, with the worker's pid and the cache misses of
    build_k3 and _case_template that the row caused."""
    def misses():
        return (ns_lattice.build_k3.cache_info().misses,
                ns_lattice._case_template.cache_info().misses)

    before = misses()
    report = _SCAN_REPORT(L2, with_search)
    return report, os.getpid(), tuple(b - a for a, b in zip(before, misses()))


def test_pool_workers_inherit_the_case_tables(monkeypatch):
    # 2 * ROWS_PER_WORKER rows from 8 hold all four cases and make a pool of
    # two; it forks after scan has built the case tables
    L2_max = admissible_values(8, 10 ** 4)[2 * kummer_structures.ROWS_PER_WORKER - 1]
    serial = scan(8, L2_max)
    assert len({r.case for r in serial}) == 4
    ns_lattice.build_k3.cache_clear()
    ns_lattice._case_template.cache_clear()
    monkeypatch.setattr(kummer_structures, "_scan_report", _row_and_misses)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    pooled = scan(8, L2_max, jobs=2)
    assert [row for row, _, _ in pooled] == serial
    assert os.getpid() not in {pid for _, pid, _ in pooled}
    assert {misses for _, _, misses in pooled} == {(0, 0)}


def test_replacement_shares_a_block_with_a1():
    # in the complement of the new generator, the component through A_1
    # pairs it with the replacement class
    ns = build_ns(20)
    b1p, lp = construct(ns)
    rs = ns.root_system_of_orthogonal(lp)
    comp = next(c for c in rs.components
                if curve_a(1).num in {r.num for r in c.roots})
    assert comp.label == "A2"
    assert b1p.num in {r.num for r in comp.roots}


def test_new_generator_residue_shape():
    # x0*L - L' is an integral combination of the block-1 curves, so the
    # image of L/L^2 in the discriminant group is multiplied by exactly x0
    for L2 in (8, 20, 44, 30):
        ns = build_ns(L2)
        fund = pell_data(ns)
        _, lp = construct(ns)
        diff = fund.x0 * L_class() - lp
        assert diff.num[0] == 0
        assert all(x % 3 == 0 for x in diff.num)
        assert all(diff.num[i] == 0 for i in range(3, 19))


def _count_pell_solves(monkeypatch):
    """Start from an empty Pell memo and record every solve from now on."""
    kummer_structures._fundamental_solution.cache_clear()
    calls = []
    solve = pell.fundamental_solution

    def counted(D):
        calls.append(D)
        return solve(D)

    monkeypatch.setattr(pell, "fundamental_solution", counted)
    return calls


@pytest.mark.parametrize("L2", [20, 36, 126])
def test_decide_solves_pell_once(L2, monkeypatch):
    # 36 also resolves the A_1/B_1 exchange
    calls = _count_pell_solves(monkeypatch)
    decide(build_ns(L2))
    assert len(calls) == 1


@pytest.mark.parametrize("L2", [20, 36, 72, 126])
def test_decide_evaluates_the_hypotheses_once(L2, monkeypatch):
    # 36 and 72 are flagged, and 72 exchanges A_1 and B_1: the exchange is
    # read from the row's flags and Pell solution, not from a second pass
    calls = []
    check = kummer_structures.check_hypotheses

    def counted(ns):
        calls.append(ns.L2)
        return check(ns)

    monkeypatch.setattr(kummer_structures, "check_hypotheses", counted)
    report = decide(build_ns(L2))
    assert calls == [L2]
    assert report.hypotheses == check(build_ns(L2))
    assert report.note.endswith("roles exchanged") == (L2 == 72)


@pytest.mark.parametrize("L2", [20, 36, 72])
def test_resolve_swap_then_construct_solves_pell_once(L2, monkeypatch):
    # the library pattern of criterion 7; 36 and 72 carry the exchange flag
    calls = _count_pell_solves(monkeypatch)
    ns = build_ns(L2)
    construct(ns, swap=resolve_swap(ns))
    assert len(calls) == 1


def test_check_hypotheses():
    flags = check_hypotheses(build_ns(20))
    assert flags.six_L2_nonsquare and flags.irreducibility_ok
    assert not flags.swapped_A1_B1

    flags = check_hypotheses(build_ns(6))
    assert not flags.six_L2_nonsquare

    # D = 24 has fundamental solution (5, 1); 3 does not divide y0
    flags = check_hypotheses(build_ns(36))
    assert flags.six_L2_nonsquare and not flags.irreducibility_ok
    assert flags.swapped_A1_B1

    # D = 84 has fundamental solution (55, 6); 3 divides y0
    flags = check_hypotheses(build_ns(126))
    assert flags.irreducibility_ok and not flags.swapped_A1_B1


def test_decide_fixtures():
    r = decide(build_ns(20))
    assert (r.pell.x0, r.pell.y0, r.modulus) == (11, 1, 20)
    assert r.residue == 11 and r.two_structures

    r = decide(build_ns(8))
    assert (r.pell.x0, r.pell.y0, r.modulus) == (7, 1, 8)
    assert r.residue == 7 and not r.two_structures

    r = decide(build_ns(42))
    assert (r.pell.x0, r.pell.y0, r.modulus) == (127, 24, 14)
    assert r.residue == 1 and not r.two_structures

    r = decide(build_ns(36))
    assert r.criterion_ok and r.criterion_only and not r.two_structures
    assert r.hypotheses.swapped_A1_B1
    assert r.note == "criterion-only"


def test_scan_reproduces_published_list():
    reports = scan(8, 198)
    positives = [r.L2 for r in reports if r.two_structures]
    assert positives == PUBLISHED


def test_scan_endpoints():
    reports = scan(2, 2)
    assert len(reports) == 1 and not reports[0].two_structures
    reports = scan(44, 44)
    assert len(reports) == 1 and reports[0].two_structures


def test_scan_covers_unsolvable_rows():
    rows = {r.L2: r for r in scan(2, 30)}
    assert sorted(rows) == [2, 6, 8, 12, 14, 18, 20, 24, 26, 30]
    assert rows[6].pell is None and rows[6].note == "no-pell-solution"
    assert rows[24].pell is None
    assert rows[24].b1prime is None


def test_report_serialization():
    blob = decide(build_ns(20)).to_json_dict()
    assert blob["x0"] == "11" and blob["y0"] == "1"
    assert blob["two_structures"] is True
    assert blob["b1prime"] == [9, -18, -33] + [0] * 16
    blob2 = decide(build_ns(20)).to_json_dict()
    assert blob == blob2


def test_verify_uniqueness():
    assert verify_uniqueness(build_ns(2), 3)
    assert verify_uniqueness(build_ns(20), 3)
    assert verify_uniqueness(build_ns(24 + 6), 2)  # L^2 = 30, 0 mod 6 branch


def test_ramare_family_through_k20():
    entries = ramare_family(20)
    assert len(entries) == 21
    for e in entries:
        assert e.identity_ok and e.is_fundamental and e.residue_ok
    by_k = {e.k: e for e in entries}
    assert by_k[0].t == 6 and by_k[0].L2 == 12 and not by_k[0].case_matches
    assert by_k[1].t == 35 and not by_k[1].admissible
    assert by_k[2].t == 88 and by_k[2].asserts_two_structures
    assert by_k[2].L2 == 176 and by_k[2].L2 in PUBLISHED
    for e in entries:
        assert e.admissible == (e.L2 % 6 in (0, 2))
        if e.k % 3 == 1:
            assert not e.admissible
        if e.asserts_two_structures:
            assert e.t % 3 == 1 and e.admissible
