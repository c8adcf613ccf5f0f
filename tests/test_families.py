"""The y0 = 1 families of tests/families.py: every member carries two
structures by the criterion (symbolically in the family parameter, and by
decide on the first twenty), and the isometry search finds no map."""

import pytest

from families import Y0_ONE_FAMILIES, family_members
from genkummer.isometry_search import replacement_config, search, standard_config
from genkummer.kummer_structures import _pell_modulus, decide
from genkummer.ns_lattice import build_ns

CLASS_OF = {"12 mod 18": (18, 12), "2 mod 6": (6, 2)}


@pytest.mark.parametrize("name", sorted(Y0_ONE_FAMILIES))
def test_first_twenty_members_carry_two_structures(name):
    members = family_members(name, 20)
    assert len(members) == 20
    modulus, residue = CLASS_OF[name]
    for x, L2 in members:
        assert L2 % modulus == residue
        report = decide(build_ns(L2))
        assert (report.pell.x0, report.pell.y0) == (x, 1), L2
        assert report.two_structures, L2


@pytest.mark.parametrize("name, x, L2", [
    ("12 mod 18", 9, 120),
    ("2 mod 6", 11, 20),
    ("12 mod 18", 15, 336),
    ("2 mod 6", 25, 104),
    ("12 mod 18", 1_000_005, 1_500_015_000_036),
    ("2 mod 6", 1_000_001, 166_667_000_000),
])
def test_search_accepts_no_map_on_the_families(name, x, L2):
    is_member, l2_of = Y0_ONE_FAMILIES[name]
    assert is_member(x) and l2_of(x) == L2
    ns = build_ns(L2)
    result = search(ns, standard_config(ns), replacement_config(ns))
    assert result.accepted == ()
    assert result.prune_count == 432


# x as a polynomial in a parameter n >= 0, with the residue class of L^2:
# 6j + 3 for j >= 1, then 18i + 7 for i >= 1 and 18i + 11 for i >= 0
PARAMETRIZATIONS = [
    ("12 mod 18", lambda n: 6 * (n + 1) + 3),
    ("2 mod 6", lambda n: 18 * (n + 1) + 7),
    ("2 mod 6", lambda n: 18 * n + 11),
]


def _pell_setup(name, L2):
    """(D, modulus) for the family's case: D = 6L^2 and modulus L^2 for
    2 mod 6, D = 2L^2/3 and modulus L^2/3 for 0 mod 6."""
    return (6 * L2, L2) if name == "2 mod 6" else (2 * L2 / 3, L2 / 3)


def test_parametrizations_cover_the_families():
    for name, (is_member, _) in Y0_ONE_FAMILIES.items():
        xs = sorted(f(n) for fam, f in PARAMETRIZATIONS if fam == name
                    for n in range(200))
        assert [x for x in xs if x < 1000] == [
            x for x in range(1000) if is_member(x)], name


@pytest.mark.parametrize("name, param", PARAMETRIZATIONS,
                         ids=["x=6j+3", "x=18i+7", "x=18i+11"])
def test_every_member_symbolically(name, param):
    # for all n >= 0 at once: L^2 is an integer polynomial in n in its
    # residue class, D = x^2 - 1, and modulus - (x + 1) has positive
    # coefficients, so x0 = x is not +-1 modulo the modulus
    sympy = pytest.importorskip("sympy")
    n = sympy.Symbol("n")
    x = param(n)
    L2 = sympy.expand((x**2 - 1) * (sympy.Rational(3, 2) if name == "12 mod 18"
                                    else sympy.Rational(1, 6)))
    poly = sympy.Poly(L2, n)
    modulus, residue = CLASS_OF[name]
    assert all(c.is_integer for c in poly.all_coeffs())
    assert all(c % modulus == 0 for c in (poly - residue).all_coeffs())
    D, m = _pell_setup(name, L2)
    assert sympy.expand(D - (x**2 - 1)) == 0
    gap = sympy.Poly(sympy.expand(m - (x + 1)), n)
    assert all(c >= 0 for c in gap.all_coeffs()) and gap.eval(0) > 0
    # the same polynomials as the family's L^2 and the package's Pell setup
    for value in (0, 1, 7):
        xv, L2v = int(x.subs(n, value)), int(L2.subs(n, value))
        assert Y0_ONE_FAMILIES[name][0](xv)
        assert Y0_ONE_FAMILIES[name][1](xv) == L2v
        d, mv, _ = _pell_modulus(build_ns(L2v))
        assert (d, mv) == (D.subs(n, value), m.subs(n, value))
