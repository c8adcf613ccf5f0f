from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dual_lattice import dual_generator, pairing_of
from genkummer import cli, ns_lattice
from genkummer.exact_linalg import det_bareiss, hnf, snf, vec_mat
from genkummer.isometry_search import (
    _divisibility_words,
    standard_config,
    validate_config,
)
from genkummer.kummer_structures import scan
from genkummer.ns_lattice import (
    CASE_SIX_MOD18,
    CASE_TWELVE_MOD18,
    CASE_TWO_MOD6,
    CASE_ZERO_MOD18,
    DivisorClass,
    InvalidPolarization,
    L_class,
    NotInLattice,
    NSModel,
    build_k3,
    build_ns,
    curve_a,
    curve_b,
    curve_sum,
    fractional_generator,
    gluing_class,
    pairing_times_nine,
)


def _curves():
    return [curve(j) for j in range(1, 10) for curve in (curve_a, curve_b)]


def _sum_curves():
    total = DivisorClass((0,) * 19)
    for c in _curves():
        total = total + c
    return total


def test_curve_sum():
    assert curve_sum() == _sum_curves()


@pytest.mark.parametrize("L2", [20, 24, 30, 36])
def test_complement_of_the_curves_is_L(L2):
    ns = build_ns(L2)
    rows, gram = ns.orthogonal_sublattice(*_curves())
    delta = ns.coords(L_class())
    assert rows in ([delta], [[-x for x in delta]])
    assert gram == [[L2]]


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


def _ns_from_all_generators(L2):
    """The construction NSModel replaced: the HNF of all 23 generators (L,
    the 18 curves, t_1..t_3 and the gluing class) and all 361 pairings."""
    gens = [L_class()]
    for j in range(1, 10):
        gens += [curve_a(j), curve_b(j)]
    gens += [fractional_generator(i) for i in (1, 2, 3)]
    if L2 % 6 == 0:
        gens.append(gluing_class(L2))
    h, _ = hnf([list(c.num) for c in gens])
    return _with_gram(L2, h[:19])


def _with_gram(L2, rows):
    """The basis rows with all 361 pairings, each checked integral."""
    basis = tuple(tuple(r) for r in rows)
    gram = []
    for n in basis:
        nine = [pairing_times_nine(L2, n, m) for m in basis]
        assert all(x % 9 == 0 for x in nine)
        gram.append(tuple(x // 9 for x in nine))
    return basis, tuple(gram)


@pytest.mark.parametrize("bound", [
    999, pytest.param(10000, marks=pytest.mark.slow)])
def test_ns_model_matches_the_generator_hnf(bound):
    # K plus one row gives the same basis and Gram as all 23 generators
    for L2 in range(2, bound + 1):
        if L2 % 6 in (0, 2):
            ns = build_ns(L2)
            assert (ns.basis, ns.gram) == _ns_from_all_generators(L2), L2


def test_case_template_matches_the_19_row_hnf():
    # per L^2 the model takes a 4 x 4 Smith form of a case template; the
    # direct path is the HNF of 19 rows (L or the gluing class over K's
    # rows), all pairings, and the Smith form of the 19 x 19 Gram matrix
    k3_rows = [[0] + list(r) for r in build_k3().basis]
    for L2 in range(2, 2001):
        if L2 % 6 not in (0, 2):
            continue
        ns = build_ns(L2)
        extra = L_class() if L2 % 6 == 2 else gluing_class(L2)
        h, _ = hnf([list(extra.num)] + k3_rows)
        assert (ns.basis, ns.gram) == _with_gram(L2, h), L2
        factors, _, _ = snf([list(r) for r in ns.gram])
        assert ns.disc_factors == tuple(f for f in factors if f != 1), L2
        assert [d for d, _ in ns.disc_transform_rows] == list(ns.disc_factors)
        for d, u in ns.disc_transform_rows:
            assert all(x % d == 0 for x in vec_mat(u, ns.gram)), L2


def test_ns20_discriminant_group():
    assert build_ns(20).disc_factors == (3, 3, 60)


def test_only_the_discriminant_group_takes_a_smith_form(monkeypatch, capsys):
    # a plain scan row checks the discriminant as a determinant affine in
    # g00; ns and search take the 4 x 4 Smith form once per L^2
    build_k3()
    real, sizes = ns_lattice.snf, []

    def counted(mat):
        sizes.append(len(mat))
        return real(mat)

    monkeypatch.setattr(ns_lattice, "snf", counted)
    scan(8, 198)
    assert sizes == []
    for command in ("ns", "search"):
        for L2 in (20, 30, 36, 42):   # 2 mod 6, 12, 0 and 6 mod 18
            assert cli.run([command, str(L2)]) == cli.EXIT_OK
    capsys.readouterr()
    assert sizes == [4] * 8


@pytest.mark.parametrize("L2, message", [
    (20, "discriminant 541 != 540"), (24, "discriminant 73 != 72")])
def test_a_corrupt_determinant_form_is_an_internal_error(L2, message, monkeypatch,
                                                         capsys):
    # the case template's (a, b), with the block's determinant a + b * corner
    real = ns_lattice._case_template

    def corrupt(extra):
        *template, (a, b) = real(extra)
        return (*template, (a + 1, b))

    monkeypatch.setattr(ns_lattice, "_case_template", corrupt)
    assert cli.run(["decide", str(L2)]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err == f"error: internal: {message}\n"


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


@pytest.mark.parametrize("L2", [18, 24, 30])
def test_gluing_table_by_residue(L2):
    # the gluing class is (L + 3v)/3 for v = w_1, w_2 or w_3 - w_2, and it
    # lies in its own case's NS and in neither of the other two
    w1, w2, w3 = (dual_generator(i) for i in (1, 2, 3))
    v = {18: w1, 24: w2, 30: w3 - w2}[L2]
    scaled = (L_class() + 3 * v).num
    assert all(x % 3 == 0 for x in scaled)
    glue = gluing_class(L2)
    assert glue.num == tuple(x // 3 for x in scaled)
    for other in (18, 24, 30):
        assert build_ns(other).contains(glue) == (other == L2), other


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
# 3-divisible cosets


def _divisible_words(ns):
    return _divisibility_words(validate_config(ns, standard_config(ns)))


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


@pytest.mark.parametrize("L2", [8, 20])
def test_min_ample_u_solves_each_class_once(L2, monkeypatch):
    # one coordinate solve per tested class u*L - sum of the curves, for the
    # membership check and the orthogonal complement together
    ns = build_ns(L2)
    solved = []
    coords = NSModel.coords

    def counted(self, c):
        solved.append(c)
        return coords(self, c)

    monkeypatch.setattr(NSModel, "coords", counted)
    u = ns.min_ample_u()
    assert len(solved) == u
    assert [c.num[0] for c in solved] == [3 * k for k in range(1, u + 1)]


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


@pytest.mark.parametrize("make", [
    lambda: 0.5 * curve_a(1),
    lambda: DivisorClass((Fraction(7, 3),) + (0,) * 18),
    lambda: DivisorClass((0,) * 18),
], ids=["float_multiple", "fraction_numerator", "eighteen_numerators"])
def test_divisor_class_needs_19_integer_numerators(make):
    # exactness: a fractional numerator is an error, not truncated to int
    with pytest.raises(ValueError):
        make()


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
