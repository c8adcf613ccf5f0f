from collections import Counter
from math import factorial, lcm

import pytest

from genkummer import cli, isometry_search, pell
from genkummer.exact_linalg import (
    _cyclotomic,
    _poly_div_exact,
    _small_totients,
    charpoly,
    identity_matrix,
    snf,
    solve_hnf,
    vec_mat,
)
from genkummer.isometry_search import (
    BlockDivisibilitySet,
    _MatrixFreeFilter,
    _backtrack,
    _block_set,
    _common_sign,
    _disc_sign,
    _divisibility_words,
    _is_isometry,
    _m_coords,
    _q_basis_gram,
    _row_selection,
    _self_maps,
    _target_gram,
    _target_rows,
    _word_candidates,
    NotAConfiguration,
    WrongPolarization,
    basis_matrix,
    block_sets,
    classify_order,
    compute_aut_d2,
    d2_configuration,
    orthogonal_generator,
    prune,
    replacement_config,
    search,
    standard_config,
    validate_config,
)
from genkummer.kummer_structures import admissible_values, construct
from genkummer.ns_lattice import (
    DIM,
    DivisorClass,
    L_class,
    N_BLOCKS,
    NSModel,
    build_ns,
    curve_a,
    curve_b,
    pairing_times_nine,
)


def _candidate_matrix(l_target, target, sigma, swaps):
    """Reference candidate matrix, built class by class. Rows: image of L,
    then images of A_1, B_1, ..., A_9, B_9."""
    rows = [_m_coords(l_target)]
    for k in range(N_BLOCKS):
        c, d = target[sigma[k] - 1]
        first, second = (d, c) if swaps[k] else (c, d)
        rows.append(_m_coords(first))
        rows.append(_m_coords(second))
    return rows


def _words(ns, config):
    return _divisibility_words(validate_config(ns, config))


def _generator(ns, config):
    return orthogonal_generator(ns, validate_config(ns, config))


def _filter(ns, target):
    return _MatrixFreeFilter(ns, _generator(ns, target), target)


def _pairwise_isometry(L2, mtilde):
    """Reference form check: pair the 19 rows with each other one by one."""
    gram = _q_basis_gram(L2)
    return all(pairing_times_nine(L2, mtilde[i], mtilde[j]) == gram[i][j]
               for i in range(DIM) for j in range(i, DIM))


def _dense_basis_matrix(ns, mtilde):
    """Reference basis matrix: dense products and the shared HNF solver."""
    x_mat = []
    for row in ns.basis:
        x = solve_hnf(ns.basis, range(DIM), vec_mat(row, mtilde))
        if x is None:
            return None
        x_mat.append(x)
    return x_mat


def test_block_sets_standard():
    ns = build_ns(20)
    bl = block_sets(ns, standard_config(ns))
    assert len(bl.subsets) == 12
    assert frozenset({2, 3, 6, 7, 8, 9}) in set(bl.subsets)
    assert frozenset({4, 5, 6, 7, 8, 9}) in set(bl.subsets)


def test_block_sets_replacement():
    ns = build_ns(20)
    bl = block_sets(ns, replacement_config(ns))
    assert len(bl.subsets) == 12


def test_block_sets_rejects_junk():
    ns = build_ns(20)
    broken = ((curve_a(1), curve_a(2)),) + standard_config(ns)[1:]
    with pytest.raises(NotAConfiguration):
        block_sets(ns, broken)
    with pytest.raises(NotAConfiguration):
        validate_config(ns, standard_config(ns)[:5])


@pytest.mark.parametrize("case, message", [
    # two standard curves: the pair is read from the curve Gram
    ("curves in the wrong block", "classes 0 and 1 pair to the wrong value"),
    # A_1 against b1': the pair touches a dense class
    ("b1' in block 2", "classes 0 and 3 pair to the wrong value"),
    ("a class outside NS", "a configuration class is outside NS"),
    ("a short configuration", "expected nine pairs of classes"),
])
def test_validate_config_messages(case, message):
    ns = build_ns(20)
    std = standard_config(ns)
    b1p, _ = construct(ns)
    third_of_l = DivisorClass((1,) + (0,) * 18)   # not in NS at L^2 = 2 mod 6
    config = {
        "curves in the wrong block": ((curve_a(1), curve_a(2)),) + std[1:],
        "b1' in block 2": (std[0], (curve_a(2), b1p)) + std[2:],
        "a class outside NS": ((third_of_l, curve_b(1)),) + std[1:],
        "a short configuration": std[:5],
    }[case]
    with pytest.raises(NotAConfiguration) as exc:
        validate_config(ns, config)
    assert str(exc.value) == message


def test_orthogonal_generators():
    ns = build_ns(20)
    assert _generator(ns, standard_config(ns)).num == L_class().num
    b1p, lp = construct(ns)
    assert _generator(ns, replacement_config(ns)).num == lp.num


def test_replacement_config_applies_swap_automatically():
    # 0 mod 18 with 3 not dividing y0: block 1 keeps B_1, not A_1
    ns = build_ns(72)
    cfg = replacement_config(ns)
    assert cfg[0][0].num == curve_b(1).num
    b1p, _ = construct(ns, swap=True)
    assert cfg[0][1].num == b1p.num
    validate_config(ns, cfg)


def test_prune_counts():
    ns = build_ns(20)
    src = standard_config(ns)
    bl = block_sets(ns, src)
    blp = block_sets(ns, replacement_config(ns))
    assert len(prune(bl, bl)) == 432
    assert len(prune(bl, blp)) == 432
    sigmas = prune(bl, bl)
    assert tuple(range(1, 10)) in {tuple(s) for s in sigmas}
    assert sigmas == sorted(sigmas)


def _tweaked(bl):
    # break one support: no valid configuration has {1..6} 3-divisible here
    subsets = list(bl.subsets)
    subsets[0] = frozenset({1, 2, 3, 4, 5, 6})
    return BlockDivisibilitySet(tuple(subsets))


def test_prune_monotonicity():
    ns = build_ns(20)
    bl = block_sets(ns, standard_config(ns))
    assert len(prune(bl, _tweaked(bl))) < 432


@pytest.mark.parametrize("L2", [20, 36])
def test_prune_is_the_backtracking(L2):
    # the coset tau * Aut(bl) against the plain backtracking, in order
    ns = build_ns(L2)
    bl = block_sets(ns, standard_config(ns))
    rep = block_sets(ns, replacement_config(ns))
    for a, b in [(bl, bl), (bl, rep), (rep, bl), (rep, rep),
                 (bl, _tweaked(bl)), (_tweaked(bl), bl),
                 (_tweaked(bl), _tweaked(bl))]:
        assert prune(a, b) == list(_backtrack(a, b))


def test_block_sets_need_twelve_distinct_supports():
    # prune's coset tau * Aut(bl) needs both sets to hold twelve supports
    ns = build_ns(20)
    bl = block_sets(ns, standard_config(ns))
    with pytest.raises(NotAConfiguration):
        BlockDivisibilitySet(bl.subsets[:11])
    with pytest.raises(NotAConfiguration):
        BlockDivisibilitySet(bl.subsets[:11] + bl.subsets[:1])


@pytest.mark.parametrize("L2", [20, 24, 30, 36])
def test_matrix_free_verdicts_match_the_basis_matrix(L2):
    # one L^2 per case: 2 mod 6, then 6, 12 and 0 mod 18; L^2 = 24 has no
    # Pell solution, so only its standard configuration is a target
    ns = build_ns(L2)
    source = standard_config(ns)
    targets = [source]
    if not pell.is_square(6 * L2):
        targets.append(replacement_config(ns))
    for target in targets:
        sigmas = prune(block_sets(ns, source), block_sets(ns, target))
        check = _filter(ns, target)
        src_words = _words(ns, source)
        tgt_words = _words(ns, target)
        verdicts = Counter()
        for sigma, swaps in _word_candidates(src_words, tgt_words, sigmas):
            mtilde = _candidate_matrix(check.l_target, target, sigma, swaps)
            x_mat = basis_matrix(ns, mtilde)
            want = (False, None) if x_mat is None else (True, _disc_sign(ns, x_mat))
            assert check.verdict(sigma, swaps) == want, (sigma, swaps)
            verdicts[want] += 1
        assert sum(verdicts.values()) == 2 * len(sigmas)
        assert verdicts[(True, None)] > 0
        # with a gluing class, most candidates fail integrality on it alone
        assert (verdicts[(False, None)] > 0) == (ns.gluing is not None)


def _enumerated(ns, target):
    """The search with one verdict per candidate (864 of them), on the plain
    backtracking prune: prune_count, status_counts and the accepted
    (sigma, swaps, disc_sign), to compare with the coset search."""
    source = standard_config(ns)
    src_words = _words(ns, source)
    tgt_words = _words(ns, target)
    sigmas = list(_backtrack(_block_set(src_words), _block_set(tgt_words)))
    check = _filter(ns, target)
    integral, accepted = 0, []
    for sigma, swaps in _word_candidates(src_words, tgt_words, sigmas):
        preserves, sign = check.verdict(sigma, swaps)
        integral += preserves
        if sign is not None:
            accepted.append((sigma, swaps, sign))
    counts = {
        "pruned": (factorial(9) - len(sigmas)) * 2 ** 9,
        "non_integral": len(sigmas) * 2 ** 9 - integral,
        "disc_fail": integral - len(accepted),
        "accepted": len(accepted),
    }
    return len(sigmas), counts, sorted(accepted)


def _searched(ns, target):
    result = search(ns, standard_config(ns), target)
    return (result.prune_count, result.status_counts,
            [(c.sigma, c.swaps, c.disc_sign) for c in result.accepted])


def _targets(ns):
    """The standard configuration, and the replacement one if Pell is
    solvable."""
    targets = [standard_config(ns)]
    if not pell.is_square(6 * ns.L2):
        targets.append(replacement_config(ns))
    return targets


@pytest.mark.parametrize("L2", [8, 20, 24, 30, 36, 42, 48])
def test_coset_search_matches_the_enumeration(L2):
    ns = build_ns(L2)
    for target in _targets(ns):
        assert _searched(ns, target) == _enumerated(ns, target)


@pytest.mark.slow
def test_coset_search_matches_the_enumeration_below_1000():
    # every admissible L^2 < 1000, 0 mod 18 included; the standard target
    # also where Pell has no solution
    mismatches = []
    for L2 in admissible_values(2, 999):
        ns = build_ns(L2)
        for target in _targets(ns):
            if _searched(ns, target) != _enumerated(ns, target):
                mismatches.append(L2)
    assert mismatches == []


def _disc_sign_mismatches(bound):
    """The L^2 <= bound where _disc_sign, read through the model's lifts,
    differs from the sign read through lifts from the Smith normal form of
    the 19 x 19 Gram matrix.  The maps are the Stab / H representatives
    onto the standard configuration and the maps accepted onto the
    replacement configuration."""
    mismatches = []
    for L2 in admissible_values(2, bound):
        ns = build_ns(L2)
        factors, u, _ = snf([list(r) for r in ns.gram])
        lifts = [(d, row) for d, row in zip(factors, u) if d != 1]
        source = standard_config(ns)
        _, _, stab_reps, _, _ = _self_maps(ns)
        l_source = _generator(ns, source)
        maps = [_candidate_matrix(l_source, source, *g) for g in stab_reps]
        if not pell.is_square(6 * L2):
            result = search(ns, source, replacement_config(ns))
            maps += [[list(r) for r in c.matrix] for c in result.accepted]
        for mtilde in maps:
            x = basis_matrix(ns, mtilde)
            oracle = _common_sign((d, row, vec_mat(row, x)) for d, row in lifts)
            if _disc_sign(ns, x) != oracle:
                mismatches.append(L2)
    return mismatches


@pytest.mark.parametrize("bound", [
    299, pytest.param(2000, marks=pytest.mark.slow)])
def test_disc_sign_matches_the_full_smith_form(bound):
    assert _disc_sign_mismatches(bound) == []


@pytest.mark.parametrize("L2, cosets", [(8, (1, 48)), (24, (12, 4)),
                                        (30, (6, 8)), (36, (8, 6))])
def test_search_runs_a_verdict_per_coset(L2, cosets, monkeypatch):
    # once the cached cosets of Stab and H are built, a search tests one
    # candidate per coset of Stab until one preserves NS, one per coset of
    # H in Stab, and the (at most three) generators of H
    ns = build_ns(L2)
    source = standard_config(ns)
    search(ns, source, source)
    _, g_reps, stab_reps, h, gens = isometry_search._SELF_MAPS[(ns.basis, ns.gluing)]
    assert (len(g_reps), len(stab_reps), len(h)) == cosets + (18,)
    assert len(gens) <= 3
    calls = Counter()
    verdict = _MatrixFreeFilter.verdict

    def counted(self, *cand):
        calls["verdict"] += 1
        return verdict(self, *cand)

    monkeypatch.setattr(_MatrixFreeFilter, "verdict", counted)
    for target in _targets(ns):
        calls.clear()
        search(ns, source, target)
        assert calls["verdict"] <= len(g_reps) + len(stab_reps) + len(gens) <= 60


def test_a_corrupt_cached_h_is_an_internal_error(monkeypatch, capsys):
    # at L^2 = 2 some NS-preserving self-maps act on A_NS by -1; with one
    # of them among the generators of the cached H, search must refuse
    ns = build_ns(2)
    source = standard_config(ns)
    words = _words(ns, source)
    sigmas = prune(_block_set(words), _block_set(words))
    check = _filter(ns, source)
    minus = next(c for c in _word_candidates(words, words, sigmas)
                 if check.verdict(*c) == (True, -1))
    search(ns, source, source)
    key = (ns.basis, ns.gluing)
    words, g_reps, stab_reps, h, gens = isometry_search._SELF_MAPS[key]
    monkeypatch.setitem(isometry_search._SELF_MAPS, key,
                        (words, g_reps, stab_reps, h, gens + (minus,)))
    with pytest.raises(AssertionError):
        search(ns, source, replacement_config(ns))
    assert cli.run(["search", "2"]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err.startswith("error: internal: ")


def test_search_identity_present():
    ns = build_ns(20)
    src = standard_config(ns)
    result = search(ns, src, src)
    assert len(result.accepted) == 18
    ident = [c for c in result.accepted
             if c.sigma == tuple(range(1, 10)) and not any(c.swaps)]
    assert len(ident) == 1
    assert classify_order(ident[0]) == 1
    assert [list(r) for r in ident[0].matrix] == identity_matrix(DIM)


def test_search_rejects_a_nonstandard_source():
    # the candidate maps are built on the standard basis, so searching from
    # any other configuration would miss maps such as the identity
    ns = build_ns(8)
    rep = replacement_config(ns)
    with pytest.raises(NotAConfiguration):
        search(ns, rep, rep)


@pytest.mark.parametrize("L2", [20, 36])
def test_search_builds_each_configuration_once(L2, monkeypatch):
    # on a warm case the standard source's words and self-maps are cached
    # and its generator is L, so only the target enters NS: 18 coordinate
    # solves, one set of 3-divisible words and one orthogonal complement
    ns = build_ns(L2)
    source, target = standard_config(ns), replacement_config(ns)
    search(ns, source, target)
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("validate_config", "_divisibility_words"):
        count(isometry_search, name)
    for name in ("coords", "complement"):
        count(NSModel, name)
    search(ns, source, target)
    assert calls == {"validate_config": 1, "_divisibility_words": 1,
                     "coords": 18, "complement": 1}


@pytest.mark.parametrize("L2, accepted, pairings", [(9996, 0, 18), (9998, 18, 74)])
def test_a_warm_search_pairs_only_the_classes_that_move(L2, accepted, pairings,
                                                         monkeypatch):
    # pairs of two standard curves are read from the curve Gram: the target's
    # 18 classes hold one dense class (b1'), so validate_config makes 18
    # pairings; with maps accepted, the 19 target rows add 37 (two dense
    # rows) and the Q-basis Gram of a new L^2 another 19 (its row of L)
    ns = build_ns(L2)
    source, target = standard_config(ns), replacement_config(ns)
    search(ns, source, target)
    _q_basis_gram.cache_clear()
    calls = Counter()
    pairing = isometry_search.pairing_times_nine

    def counted(*args):
        calls["pairing_times_nine"] += 1
        return pairing(*args)

    monkeypatch.setattr(isometry_search, "pairing_times_nine", counted)
    assert len(search(ns, source, target).accepted) == accepted
    assert calls["pairing_times_nine"] == pairings


def test_target_gram_matches_the_pairwise_form():
    # the curve Gram path against pairing_times_nine on every pair, for
    # rows mixing curves, curve multiples, L and dense classes
    ns = build_ns(9998)
    _, lp = construct(ns)
    rows = [c.num for pair in replacement_config(ns) for c in pair]
    rows += [lp.num, (-2 * curve_b(4)).num, [0] * DIM, identity_matrix(DIM)[0]]
    gram = _target_gram(ns.L2, rows)
    assert gram == [[pairing_times_nine(ns.L2, a, b) for b in rows] for a in rows]
    assert _q_basis_gram(ns.L2) == _target_gram(ns.L2, identity_matrix(DIM)) == [
        [pairing_times_nine(ns.L2, a, b) for b in identity_matrix(DIM)]
        for a in identity_matrix(DIM)]


def test_m_coords_rejects_a_fractional_class():
    # an accepted matrix is stored as integers, so a third may not be
    # truncated on the way
    assert _m_coords(L_class()) == [1] + [0] * 18
    with pytest.raises(AssertionError):
        _m_coords(DivisorClass((1,) + (0,) * 18))


def test_search_twenty_is_empty():
    ns = build_ns(20)
    result = search(ns, standard_config(ns), replacement_config(ns))
    assert result.accepted == ()
    assert result.prune_count == 432
    total = sum(result.status_counts.values())
    assert total == 362880 * 512


def test_search_eight_has_order_two_element():
    ns = build_ns(8)
    result = search(ns, standard_config(ns), replacement_config(ns))
    assert result.accepted
    orders = [classify_order(c) for c in result.accepted]
    assert 2 in orders


def test_accepted_candidates_satisfy_invariants():
    ns = build_ns(8)
    result = search(ns, standard_config(ns), replacement_config(ns))
    for cand in result.accepted:
        x = basis_matrix(ns, [list(r) for r in cand.matrix])
        assert x is not None
        assert cand.disc_sign in (1, -1)
        # the square of the discriminant action is the identity action
        for d, urow in ns.disc_transform_rows:
            once = [sum(urow[i] * x[i][j] for i in range(DIM)) for j in range(DIM)]
            twice = [sum(once[i] * x[i][j] for i in range(DIM)) for j in range(DIM)]
            assert all((a - b) % d == 0 for a, b in zip(twice, urow))


def _accepted_searches(bound):
    """(ns, target, accepted maps) for every admissible L^2 <= bound with a
    Pell solution and maps accepted onto the replacement configuration."""
    for L2 in admissible_values(2, bound):
        ns = build_ns(L2)
        for target in _targets(ns)[1:]:
            accepted = search(ns, standard_config(ns), target).accepted
            if accepted:
                yield ns, target, accepted


def test_is_isometry_matches_the_pairwise_check():
    # every accepted map, L^2 < 200: the target Gram read through the row
    # selection against the 190 pairings of the matrix's rows; with the
    # image of L swapped with A_1's, or A_1's crossed with A_2's, both fail
    checked = 0
    for ns, target, accepted in _accepted_searches(199):
        l_target = _generator(ns, target)
        rows = _target_rows(l_target, target)
        gram = _target_gram(ns.L2, rows)
        for cand in accepted:
            sel = _row_selection(cand.sigma, cand.swaps)
            mtilde = _candidate_matrix(l_target, target, cand.sigma, cand.swaps)
            assert [rows[i] for i in sel] == mtilde == [list(r) for r in cand.matrix]
            assert _is_isometry(ns.L2, gram, sel)
            assert _pairwise_isometry(ns.L2, mtilde)
            for a, b in ((0, 1), (1, 3)):
                bad = list(sel)
                bad[a], bad[b] = bad[b], bad[a]
                assert not _is_isometry(ns.L2, gram, bad)
                assert not _pairwise_isometry(ns.L2, [rows[i] for i in bad])
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("L2", [20, 24, 30, 36])
def test_basis_matrix_matches_the_dense_solve_on_the_self_maps(L2):
    # all 864 self-maps of the standard configuration, one L^2 per case:
    # every one preserves NS for 2 mod 6, most leave it otherwise (None)
    ns = build_ns(L2)
    source = standard_config(ns)
    words = _words(ns, source)
    sigmas = prune(_block_set(words), _block_set(words))
    group = list(_word_candidates(words, words, sigmas))
    assert len(group) == 864
    l_source = _generator(ns, source)
    left = 0
    for g in group:
        mtilde = _candidate_matrix(l_source, source, *g)
        x_mat = basis_matrix(ns, mtilde)
        assert x_mat == _dense_basis_matrix(ns, mtilde), g
        left += x_mat is None
    assert left == {20: 0, 24: 864 - 72, 30: 864 - 144, 36: 864 - 108}[L2]


def test_basis_matrix_matches_the_dense_solve_on_the_accepted_maps():
    # every accepted map, L^2 < 300, all four cases among them
    cases = set()
    for ns, _, accepted in _accepted_searches(299):
        for cand in accepted:
            mtilde = [list(r) for r in cand.matrix]
            x_mat = basis_matrix(ns, mtilde)
            assert x_mat is not None
            assert x_mat == _dense_basis_matrix(ns, mtilde), (ns.L2, cand.sigma)
        cases.add(ns.case)
    assert len(cases) == 4


def test_candidate_serialization():
    ns = build_ns(8)
    result = search(ns, standard_config(ns), replacement_config(ns))
    blob = result.to_json_dict()
    assert blob["prune_count"] == result.prune_count
    first = blob["accepted"][0]
    assert len(first["sigma"]) == 9
    assert set(first["swaps"]) <= {"0", "1"}
    assert first["status"] == "accepted"


def test_infinite_order_cases():
    for L2 in (42, 48):
        ns = build_ns(L2)
        result = search(ns, standard_config(ns), replacement_config(ns))
        assert result.accepted
        for cand in result.accepted:
            assert classify_order(cand) == "infinite"


def _is_cyclotomic_product(poly):
    for d, _ in _small_totients(len(poly) - 1):
        while (quotient := _poly_div_exact(poly, _cyclotomic(d))) is not None:
            poly = quotient
    return poly == [1]


def test_trace_bound_agrees_with_the_charpoly():
    # every map accepted onto the replacement configuration, L^2 < 200:
    # where |trace| > 19 rules out finite order, the charpoly is not a
    # product of cyclotomic polynomials either
    misses, decided = [], 0
    for L2 in admissible_values(2, 199):
        ns = build_ns(L2)
        for target in _targets(ns)[1:]:
            for cand in search(ns, standard_config(ns), target).accepted:
                mat = [list(r) for r in cand.matrix]
                if abs(sum(mat[i][i] for i in range(DIM))) > DIM:
                    decided += 1
                    if _is_cyclotomic_product(charpoly(mat)):
                        misses.append((L2, cand.sigma, cand.swaps))
    assert misses == []
    assert decided > 0


def test_d2_configuration_values():
    ns = build_ns(20)
    cfg = d2_configuration(ns)
    assert ns.square(cfg.d2) == 2
    assert ns.pairing(cfg.e[0], cfg.f[0]) == 1
    assert ns.pairing(cfg.e[0], cfg.b[0]) == 0
    assert ns.pairing(cfg.e[0], cfg.a[0]) == 3
    for c in cfg.a + cfg.b + cfg.e + cfg.f:
        assert ns.pairing(cfg.d2, c) == 1
    with pytest.raises(WrongPolarization):
        d2_configuration(build_ns(8))


def test_aut_d2_group():
    grp = compute_aut_d2(build_ns(20))
    assert grp.order == 36
    assert grp.structure == "Z2 x (Z3 : S3)"
    sigma = grp.elements[grp.sigma_index]
    assert sigma.order == 2
    assert sigma.disc_sign == -1
    assert grp.sigma_index in grp.center_indices
    assert len(grp.center_indices) == 2
    assert all(sigma.perm[k] == 18 + k for k in range(9))
    assert all(sigma.perm[9 + k] == 27 + k for k in range(9))
    assert len(grp.orbit_a1) == 18 and len(grp.orbit_b1) == 18
    assert grp.orbit_a1 == tuple(list(range(9)) + list(range(18, 27)))
    assert grp.orbit_b1 == tuple(list(range(9, 18)) + list(range(27, 36)))
    plus = [e for e in grp.elements if e.disc_sign == 1]
    assert len(plus) == 18


def _cycle_lcm(perm):
    order, seen = 1, set()
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def test_aut_d2_orders_are_the_lcm_of_the_cycle_lengths():
    # the orders come from the Cayley table; the cycle structure of each
    # permutation is an independent reference
    grp = compute_aut_d2(build_ns(20))
    assert tuple(range(36)) in {e.perm for e in grp.elements}
    assert [e.order for e in grp.elements] == [
        _cycle_lcm(e.perm) for e in grp.elements]
