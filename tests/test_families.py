"""The y0 = 1 families of tests/families.py: every member carries two
structures by the criterion, and the isometry search finds no map."""

import pytest

from families import Y0_ONE_FAMILIES, family_members
from genkummer.isometry_search import replacement_config, search, standard_config
from genkummer.kummer_structures import decide
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
