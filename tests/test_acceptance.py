"""Acceptance suite.

Each test prints one PASS/FAIL line; run with -s (or read the pytest
summary) to see the per-criterion outcome.  Every tolerance is exact.
"""

from fractions import Fraction

import pytest

from genkummer import pell
from genkummer.exact_linalg import det_bareiss
from genkummer.fm_lattices import build as fm_build
from genkummer.fm_lattices import transcendental_index
from genkummer.isometry_search import (
    _divisibility_words,
    block_sets,
    classify_order,
    compute_aut_d2,
    prune,
    replacement_config,
    search,
    standard_config,
)
from genkummer.kummer_structures import (
    admissible_values,
    construct,
    decide,
    ramare_family,
    scan,
)
from genkummer.ns_lattice import (
    build_k3,
    build_ns,
    curve_a,
    curve_b,
    dual_generator,
    fractional_generator,
    pairing_of,
)

PUBLISHED = [20, 44, 68, 84, 92, 104, 110, 116, 120,
             126, 132, 140, 164, 168, 176, 188]


def _report(number, ok, text):
    print(f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def _searchable_values(lo, hi):
    return [v for v in admissible_values(lo, hi)
            if not pell.is_square(6 * v) and v % 18 != 0]


def test_criterion_1_published_list():
    positives = [r.L2 for r in scan(8, 198) if r.two_structures]
    _report(1, positives == PUBLISHED,
            f"scan 8..198 positives = {positives}")


def test_criterion_2_search_criterion_equivalence():
    mismatches = []
    values = _searchable_values(2, 199)
    for L2 in values:
        ns = build_ns(L2)
        result = search(ns, standard_config(ns), replacement_config(ns))
        if bool(result.accepted) != (L2 not in PUBLISHED):
            mismatches.append(L2)
    _report(2, not mismatches,
            f"search nonempty iff not in list, {len(values)} cases, "
            f"mismatches = {mismatches}")


@pytest.mark.slow
def test_criterion_2_sweep_below_1000():
    # every admissible L^2 < 1000 with a Pell solution, 0 mod 18 included:
    # the search finds no isometry exactly when the residue criterion holds
    mismatches = []
    values = [v for v in admissible_values(2, 999) if not pell.is_square(6 * v)]
    for L2 in values:
        ns = build_ns(L2)
        result = search(ns, standard_config(ns), replacement_config(ns))
        if (not result.accepted) != decide(ns).criterion_ok:
            mismatches.append(L2)
    _report(2, not mismatches,
            f"search empty iff criterion_ok, {len(values)} cases below 1000, "
            f"mismatches = {mismatches}")


def test_criterion_3_prune_count():
    ns = build_ns(20)
    bl = block_sets(ns, standard_config(ns))
    bl_prime = block_sets(ns, replacement_config(ns))
    count = len(prune(bl, bl_prime))
    _report(3, count == 432, f"prune for L^2 = 20 keeps {count} permutations")


def test_criterion_4_ample_table():
    table = {2: 4, 8: 2, 14: 2, 20: 1, 6: 3, 12: 2, 18: 2, 24: 1, 30: 1, 36: 1}
    got = {L2: build_ns(L2).min_ample_u() for L2 in table}
    _report(4, got == table, f"minimal ample multiples {got}")


def test_criterion_5_pell_fixtures():
    ok = (fundamental := pell.fundamental_solution(12)) and \
        (fundamental.x0, fundamental.y0) == (7, 2)
    f120 = pell.fundamental_solution(120)
    ok = ok and (f120.x0, f120.y0) == (11, 1)
    try:
        pell.fundamental_solution(4)
        ok = False
    except pell.NoSolution:
        pass
    _report(5, bool(ok), "D=12 -> (7,2), D=120 -> (11,1), D=4 unsolvable")


def test_criterion_6_lattice_fixtures():
    ts = [fractional_generator(i) for i in (1, 2, 3)]
    t_gram = [[pairing_of(20, a, b) for b in ts] for a in ts]
    ws = [dual_generator(i) for i in (1, 2, 3)]
    w_gram = [[pairing_of(20, a, b) for b in ws] for a in ws]
    k3 = build_k3()
    ns20 = build_ns(20)
    words, _ = _divisibility_words(ns20, standard_config(ns20))
    hist = {0: 0, 6: 0, 9: 0}
    for word in words:
        hist[sum(1 for w in word if w)] += 1
    ok = (t_gram == [[-6, -6, -6], [-6, -10, -6], [-6, -6, -10]]
          and w_gram == [[-2, -2, Fraction(-2, 3)],
                         [-2, Fraction(-20, 3), Fraction(-2, 3)],
                         [Fraction(-2, 3), Fraction(-2, 3), -2]]
          and det_bareiss([list(r) for r in k3.gram]) == 27
          and len(words) == 27
          and hist == {0: 1, 6: 24, 9: 2})
    _report(6, ok, f"generator Grams exact, det 27, coset histogram {hist}")


def test_criterion_7_configuration_identities():
    from genkummer.kummer_structures import resolve_swap

    bad = []
    values = [v for v in admissible_values(2, 200)
              if not pell.is_square(6 * v)]
    for L2 in values:
        ns = build_ns(L2)
        # the construction exchanges A_1 and B_1 exactly where the unswapped
        # class is the reducible side (some of the 0 mod 18 polarizations)
        swap = resolve_swap(ns)
        kept = curve_b(1) if swap else curve_a(1)
        b1p, lp = construct(ns, swap=swap)
        ok = (ns.square(b1p) == -2
              and ns.pairing(kept, b1p) == 1
              and ns.square(lp) == L2
              and ns.pairing(lp, kept) == 0
              and ns.pairing(lp, b1p) == 0)
        rs = ns.root_system_of_orthogonal(lp)
        ok = ok and rs.component_labels == ("A2",) * 9 and len(rs.roots) == 54
        root_set = {r.num for r in rs.roots}
        wanted = [kept, b1p] + [c for j in range(2, 10)
                                for c in (curve_a(j), curve_b(j))]
        ok = ok and all(c.num in root_set or (-c).num in root_set
                        for c in wanted)
        if not ok:
            bad.append(L2)
    _report(7, not bad,
            f"replacement identities and nine A2 components, "
            f"{len(values)} cases, failures = {bad}")


def test_criterion_8_orders():
    ok = True
    detail = []
    for L2 in (42, 48):
        ns = build_ns(L2)
        result = search(ns, standard_config(ns), replacement_config(ns))
        orders = {classify_order(c) for c in result.accepted}
        detail.append(f"L2={L2}: {len(result.accepted)} maps, orders {orders}")
        ok = ok and result.accepted and orders == {"infinite"}
    ns8 = build_ns(8)
    res8 = search(ns8, standard_config(ns8), replacement_config(ns8))
    orders8 = [classify_order(c) for c in res8.accepted]
    detail.append(f"L2=8: order 2 present = {2 in orders8}")
    ok = ok and 2 in orders8
    _report(8, bool(ok), "; ".join(detail))


def test_criterion_9_aut_d2():
    grp = compute_aut_d2(build_ns(20))
    sigma = grp.elements[grp.sigma_index]
    ok = (grp.order == 36
          and grp.structure == "Z2 x (Z3 : S3)"
          and sigma.order == 2
          and grp.sigma_index in grp.center_indices
          and all(sigma.perm[k] == 18 + k for k in range(9))
          and len(grp.orbit_a1) == 18
          and len(grp.orbit_b1) == 18)
    _report(9, ok, f"group order {grp.order}, structure {grp.structure}, "
                   f"orbits {len(grp.orbit_a1)}/{len(grp.orbit_b1)}")


def test_criterion_10_fm_lattices():
    from genkummer.exact_linalg import mat_mul
    from genkummer.fm_lattices import PULL, PUSH

    three = [[3 if i == j else 0 for j in range(4)] for i in range(4)]
    ok = mat_mul([list(r) for r in PUSH], [list(r) for r in PULL]) == three
    ok = ok and abs(det_bareiss([list(r) for r in PUSH])) == 3
    m20 = fm_build((1, 1, 1, 1))
    m6 = fm_build((1, 1, 0, 0))
    ok = ok and m20.lx2 == 20 and transcendental_index(m20) == 1
    ok = ok and m6.lx2 == 6 and transcendental_index(m6) == 3
    _report(10, bool(ok),
            "push/pull compose to 3*Id, index 3, transcendental indices 1 and 3")


def test_criterion_11_ramare_family():
    entries = ramare_family(20)
    verified = all(e.identity_ok and e.is_fundamental and e.residue_ok
                   for e in entries)
    flagged = [e.k for e in entries if not e.admissible]
    asserted = [e.k for e in entries if e.asserts_two_structures]
    ok = (verified and len(entries) == 21
          and flagged == [k for k in range(21) if k % 3 == 1]
          and all(e.admissible for e in entries if e.asserts_two_structures))
    _report(11, ok, f"all 21 entries verified; inadmissible k = {flagged}; "
                    f"asserted k = {asserted}")
