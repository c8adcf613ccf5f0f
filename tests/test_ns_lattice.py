from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genkummer.exact_linalg import det_bareiss
from genkummer.isometry_search import _divisibility_words, standard_config
from genkummer.ns_lattice import (
    CASE_SIX_MOD18,
    CASE_TWELVE_MOD18,
    CASE_TWO_MOD6,
    CASE_ZERO_MOD18,
    DivisorClass,
    InvalidPolarization,
    L_class,
    NotInLattice,
    NotRepresentable,
    build_k3,
    build_ns,
    curve_a,
    curve_b,
    dual_generator,
    fractional_generator,
    gluing_class,
    pairing_of,
    uv_decompose,
    zero_class,
)


def _sum_curves():
    total = zero_class()
    for j in range(1, 10):
        total = total + curve_a(j) + curve_b(j)
    return total


# ---------------------------------------------------------------------------
# the curve-block lattice and its generators


def test_fractional_generator_gram():
    gens = [fractional_generator(i) for i in (1, 2, 3)]
    gram = [[pairing_of(20, a, b) for b in gens] for a in gens]
    assert gram == [[-6, -6, -6], [-6, -10, -6], [-6, -6, -10]]


def test_dual_generator_pairings():
    gens = [dual_generator(i) for i in (1, 2, 3)]
    gram = [[pairing_of(20, a, b) for b in gens] for a in gens]
    assert gram == [
        [-2, -2, Fraction(-2, 3)],
        [-2, Fraction(-20, 3), Fraction(-2, 3)],
        [Fraction(-2, 3), Fraction(-2, 3), -2],
    ]


def test_k3_discriminant_is_27():
    k3 = build_k3()
    assert det_bareiss([list(r) for r in k3.gram]) == 27


def test_fractional_generator_supports():
    t1 = fractional_generator(1)
    blocks1 = [j for j in range(1, 10) if t1.num[2 * j - 1] or t1.num[2 * j]]
    assert blocks1 == list(range(1, 10))
    t2 = fractional_generator(2)
    blocks2 = [j for j in range(1, 10) if t2.num[2 * j - 1] or t2.num[2 * j]]
    assert blocks2 == [2, 3, 6, 7, 8, 9]


# ---------------------------------------------------------------------------
# building the rank-19 lattice


def test_case_tags_and_determinants():
    cases = {
        20: (CASE_TWO_MOD6, 540),
        2: (CASE_TWO_MOD6, 54),
        8: (CASE_TWO_MOD6, 216),
        18: (CASE_ZERO_MOD18, 54),
        36: (CASE_ZERO_MOD18, 108),
        6: (CASE_SIX_MOD18, 18),
        24: (CASE_SIX_MOD18, 72),
        12: (CASE_TWELVE_MOD18, 36),
        30: (CASE_TWELVE_MOD18, 90),
    }
    for L2, (case, det) in cases.items():
        ns = build_ns(L2)
        assert ns.case == case
        assert det_bareiss([list(r) for r in ns.gram]) == det
        assert len(ns.disc_factors) <= 3


def test_ns20_discriminant_group():
    assert build_ns(20).disc_factors == (3, 3, 60)


def test_invalid_polarizations():
    for bad in (0, 1, -6, 4, 10, 16, 9, 15):
        with pytest.raises(InvalidPolarization):
            build_ns(bad)
    with pytest.raises(InvalidPolarization):
        gluing_class(20)


def test_gluing_class_membership_by_case():
    ns24 = build_ns(24)
    ns20 = build_ns(20)
    glue24 = gluing_class(24)
    assert ns24.contains(glue24)
    assert not ns20.contains(glue24)
    # (L + 3*w2)/3 is precisely the adjoined class for L^2 = 24
    w2 = dual_generator(2)
    explicit = DivisorClass(tuple(
        (L_class() + 3 * w2).num[i] // 3 for i in range(19)))
    assert explicit.num == glue24.num


def test_membership_basics():
    for L2 in (2, 8, 12, 18, 20, 24, 30, 36):
        ns = build_ns(L2)
        for i in (1, 2, 3):
            assert ns.contains(fractional_generator(i))
        assert ns.contains(L_class())
    third = DivisorClass((0, 1, -1) + (0,) * 16)
    assert not build_ns(20).contains(third)
    assert not build_ns(24).contains(third)


def test_coords_round_trip():
    ns = build_ns(24)
    for c in (L_class(), fractional_generator(2), gluing_class(24),
              curve_a(5), 3 * L_class() - curve_b(1)):
        y = ns.coords(c)
        assert y is not None
        assert ns.class_from_coords(y).num == c.num
    assert ns.coords(DivisorClass((1,) + (0,) * 18)) is None


# ---------------------------------------------------------------------------
# pairings


def test_pairing_fixtures():
    ns = build_ns(20)
    A1, B1, A2 = curve_a(1), curve_b(1), curve_a(2)
    assert ns.pairing(L_class(), L_class()) == 20
    assert ns.pairing(A1, B1) == 1
    assert ns.pairing(A1, A2) == 0
    assert ns.pairing(L_class(), A1) == 0
    F1 = A1 + 2 * B1
    G1 = 2 * A1 + B1
    assert ns.pairing(F1, G1) == -3
    assert ns.square(F1) == -6
    assert ns.square(G1) == -6


@st.composite
def lattice_elements(draw):
    coeffs = [draw(st.integers(-3, 3)) for _ in range(19)]
    return tuple(coeffs)


@given(lattice_elements(), lattice_elements(), st.sampled_from([2, 20, 24, 36]))
@settings(max_examples=100, deadline=None)
def test_pairing_symmetric_integral_even(ca, cb, L2):
    ns = build_ns(L2)
    x = ns.class_from_coords(list(ca))
    y = ns.class_from_coords(list(cb))
    assert ns.pairing(x, y) == ns.pairing(y, x)
    assert ns.pairing(x, y).denominator == 1
    assert ns.square(x) % 2 == 0


# ---------------------------------------------------------------------------
# u/v decomposition


def test_uv_decompose_fixtures():
    b1p = 3 * L_class() - (6 * curve_a(1) + 11 * curve_b(1))
    a, pairs = uv_decompose(b1p)
    assert a == 3
    assert pairs[0] == (16, 1)
    assert all(p == (0, 0) for p in pairs[1:])

    a, pairs = uv_decompose(L_class())
    assert a == 1 and all(p == (0, 0) for p in pairs)

    # u_j and v_j are the intersections with B_j and A_j
    a, pairs = uv_decompose(curve_a(1))
    assert a == 0 and pairs[0] == (1, -2)
    a, pairs = uv_decompose(-(curve_a(1) + 2 * curve_b(1)))
    assert pairs[0] == (3, 0)


def test_uv_decompose_rejects_fractional():
    with pytest.raises(NotRepresentable):
        uv_decompose(DivisorClass((0, 1) + (0,) * 17))


@given(lattice_elements(), st.sampled_from([20, 24]))
@settings(max_examples=60, deadline=None)
def test_uv_decompose_inverts(coeffs, L2):
    ns = build_ns(L2)
    c = ns.class_from_coords(list(coeffs))
    a, pairs = uv_decompose(c)
    rebuilt = [0] * 19
    rebuilt[0] = int(3 * a)
    for j, (u, v) in enumerate(pairs, start=1):
        rebuilt[2 * j - 1] = -(u + 2 * v)
        rebuilt[2 * j] = -(2 * u + v)
    assert tuple(rebuilt) == c.num
    for j, (u, v) in enumerate(pairs, start=1):
        assert ns.pairing(c, curve_b(j)) == u
        assert ns.pairing(c, curve_a(j)) == v


# ---------------------------------------------------------------------------
# 3-divisible cosets


def _divisible_words(ns):
    words, _ = _divisibility_words(ns, standard_config(ns))
    return words


def _word_class(word):
    """The class (1/3) sum_j w_j (A_j - B_j)."""
    num = [0] * 19
    for j, w in enumerate(word, start=1):
        num[2 * j - 1], num[2 * j] = w, -w
    return DivisorClass(tuple(num))


def _word_support(word):
    return {j for j, w in enumerate(word, start=1) if w}


def test_three_divisible_histogram():
    words = _divisible_words(build_ns(20))
    assert len(words) == 27 == len(set(words))
    hist = Counter(len(_word_support(w)) for w in words)
    assert hist == {0: 1, 6: 24, 9: 2}


def test_three_divisible_known_supports():
    words = set(_divisible_words(build_ns(20)))
    supports = []
    for i in (1, 2, 3):
        t = fractional_generator(i)
        word = tuple(t.num[2 * j - 1] % 3 for j in range(1, 10))
        assert word in words and _word_class(word).num == t.num
        supports.append(_word_support(word))
    assert supports == [set(range(1, 10)), {2, 3, 6, 7, 8, 9}, {4, 5, 6, 7, 8, 9}]


def test_fractional_coefficient_counts():
    # any nonzero coset has 12 or 18 curve coefficients off the integers
    ns = build_ns(20)
    for word in _divisible_words(ns):
        rep = _word_class(word)
        assert ns.contains(rep)
        frac = sum(1 for i in range(1, 19) if rep.num[i] % 3)
        assert frac in (0, 12, 18)
        assert frac == 2 * len(_word_support(word))


def test_fractional_polarization_coefficient_bounds():
    # classes whose L-coefficient is a strict third-integer carry at least
    # 6, 8 or 10 fractional curve coefficients, and the bound is attained
    bounds = {18: 6, 24: 8, 30: 10}
    for L2, bound in bounds.items():
        ns = build_ns(L2)
        glue = gluing_class(L2)
        counts = []
        for s in (1, 2):
            for a1 in range(3):
                for a2 in range(3):
                    for a3 in range(3):
                        rep = s * glue + a1 * fractional_generator(1) \
                            + a2 * fractional_generator(2) \
                            + a3 * fractional_generator(3)
                        assert rep.num[0] % 3 != 0
                        counts.append(
                            sum(1 for i in range(1, 19) if rep.num[i] % 3))
        assert min(counts) == bound


# ---------------------------------------------------------------------------
# chamber-ampleness


def test_chamber_ample_fixtures():
    ns20 = build_ns(20)
    d2 = L_class() - _sum_curves()
    assert ns20.square(d2) == 2
    assert ns20.is_chamber_ample(d2)

    ns2 = build_ns(2)
    flat = 3 * L_class() - _sum_curves()
    assert ns2.square(flat) == 0
    assert not ns2.is_chamber_ample(flat)

    ns8 = build_ns(8)
    neg = L_class() - _sum_curves()
    assert ns8.square(neg) == -10
    assert not ns8.is_chamber_ample(neg)


def test_chamber_ample_requires_membership():
    ns = build_ns(20)
    with pytest.raises(NotInLattice):
        ns.is_chamber_ample(DivisorClass((1,) + (0,) * 18))


def test_min_ample_u_table():
    expected = {2: 4, 8: 2, 14: 2, 20: 1,
                18: 2, 36: 1,
                6: 3, 24: 1,
                12: 2, 30: 1}
    for L2, u0 in expected.items():
        assert build_ns(L2).min_ample_u() == u0


# ---------------------------------------------------------------------------
# root systems


def test_root_system_of_l_perp():
    ns = build_ns(20)
    rs = ns.root_system_of_orthogonal(L_class())
    assert len(rs.roots) == 54
    assert rs.component_labels == ("A2",) * 9
    root_set = {r.num for r in rs.roots}
    for j in range(1, 10):
        assert curve_a(j).num in root_set
        assert curve_b(j).num in root_set
        assert (curve_a(j) + curve_b(j)).num in root_set


def test_root_system_zero_mod_six_case():
    ns = build_ns(24)
    rs = ns.root_system_of_orthogonal(L_class())
    assert len(rs.roots) == 54
    assert rs.component_labels == ("A2",) * 9


def test_root_system_of_l_perp_across_cases():
    for L2 in (2, 8, 12, 18, 30, 36, 44, 126, 198):
        rs = build_ns(L2).root_system_of_orthogonal(L_class())
        assert rs.component_labels == ("A2",) * 9


def test_root_system_of_ample_class_is_empty():
    ns = build_ns(20)
    d2 = L_class() - _sum_curves()
    rs = ns.root_system_of_orthogonal(d2)
    assert rs.roots == ()
    assert rs.components == ()


def test_root_system_requires_positive_square():
    ns = build_ns(20)
    with pytest.raises(ValueError):
        ns.root_system_of_orthogonal(curve_a(1))
    with pytest.raises(NotInLattice):
        ns.root_system_of_orthogonal(DivisorClass((1,) + (0,) * 18))


def test_serialization_shape():
    ns = build_ns(20)
    blob = ns.to_json_dict()
    assert blob["L2"] == 20 and blob["case"] == "TWO_MOD6"
    assert len(blob["basis"]) == 19 and len(blob["basis"][0]) == 19
    assert blob["disc"] == [3, 3, 60]
    assert curve_a(1).to_json() == [0, 3] + [0] * 17
