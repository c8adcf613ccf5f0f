from collections import Counter

import pytest

from genkummer import isometry_search, pell
from genkummer.exact_linalg import identity_matrix
from genkummer.isometry_search import (
    BlockDivisibilitySet,
    _MatrixFreeFilter,
    _candidate_matrix,
    _disc_sign,
    _divisibility_words,
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
from genkummer.kummer_structures import construct
from genkummer.ns_lattice import DIM, L_class, build_ns, curve_a, curve_b


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


def test_orthogonal_generators():
    ns = build_ns(20)
    assert orthogonal_generator(ns, standard_config(ns)).num == L_class().num
    b1p, lp = construct(ns)
    assert orthogonal_generator(ns, replacement_config(ns)).num == lp.num


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


def test_prune_monotonicity():
    ns = build_ns(20)
    bl = block_sets(ns, standard_config(ns))
    subsets = list(bl.subsets)
    # break one support: no valid configuration has {1..6} 3-divisible here
    subsets[0] = frozenset({1, 2, 3, 4, 5, 6})
    tweaked = BlockDivisibilitySet(tuple(subsets))
    assert len(prune(bl, tweaked)) < 432


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
        check = _MatrixFreeFilter(ns, target)
        src_words, src_basis = _divisibility_words(ns, source)
        tgt_words, _ = _divisibility_words(ns, target)
        verdicts = Counter()
        for sigma, swaps in _word_candidates(src_words, src_basis, tgt_words, sigmas):
            mtilde = _candidate_matrix(check.l_target, target, sigma, swaps)
            x_mat = basis_matrix(ns, mtilde)
            want = (False, None) if x_mat is None else (True, _disc_sign(ns, x_mat))
            assert check.verdict(sigma, swaps) == want, (sigma, swaps)
            verdicts[want] += 1
        assert sum(verdicts.values()) == 2 * len(sigmas)
        assert verdicts[(True, None)] > 0
        # with a gluing class, most candidates fail integrality on it alone
        assert (verdicts[(False, None)] > 0) == (ns.gluing is not None)


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


@pytest.mark.parametrize("L2", [20, 36])
def test_search_builds_each_configuration_once(L2, monkeypatch):
    # one validation and one set of 3-divisible words per configuration
    ns = build_ns(L2)
    source, target = standard_config(ns), replacement_config(ns)
    calls = Counter()
    for name in ("validate_config", "_divisibility_words"):
        fn = getattr(isometry_search, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(isometry_search, name, counted)
    search(ns, source, target)
    assert calls == {"validate_config": 2, "_divisibility_words": 2}


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


def test_candidate_serialization():
    ns = build_ns(8)
    result = search(ns, standard_config(ns), replacement_config(ns))
    blob = result.to_json_dict()
    assert blob["prune_count"] == result.prune_count
    first = blob["accepted"][0]
    assert len(first["sigma"]) == 9
    assert set(first["swaps"]) <= {"0", "1"}
    assert first["status"] == "accepted"


def test_classify_order_directly():
    assert classify_order([[0, -1], [1, -1]]) == 3
    assert classify_order([[-1, 0], [0, -1]]) == 2
    assert classify_order([[0, 1], [-1, 0]]) == 4
    assert classify_order([[1, 1], [0, 1]]) == "infinite"
    assert classify_order([[2, 0], [0, 1]]) == "infinite"


def test_infinite_order_cases():
    for L2 in (42, 48):
        ns = build_ns(L2)
        result = search(ns, standard_config(ns), replacement_config(ns))
        assert result.accepted
        for cand in result.accepted:
            assert classify_order(cand) == "infinite"


def test_d2_configuration_values():
    ns = build_ns(20)
    cfg = d2_configuration(ns)
    assert ns.square(cfg.d2) == 2
    assert ns.pairing(cfg.e[0], cfg.f[0]) == 1
    assert ns.pairing(cfg.e[0], cfg.b[0]) == 0
    assert ns.pairing(cfg.e[0], cfg.a[0]) == 3
    for c in cfg.classes:
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
