import pytest

from genkummer import kummer_structures, pell
from genkummer.kummer_structures import (
    pell_data,
    HypothesisViolated,
    NoPellSolution,
    admissible_values,
    check_hypotheses,
    construct,
    decide,
    ramare_family,
    resolve_swap,
    scan,
    verify_uniqueness,
)
from genkummer.ns_lattice import L_class, build_ns, curve_a, curve_b

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
    with pytest.raises(HypothesisViolated):
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
    # 36 also runs the A_1/B_1 exchange, which constructs twice more
    calls = _count_pell_solves(monkeypatch)
    decide(build_ns(L2))
    assert len(calls) == 1


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
