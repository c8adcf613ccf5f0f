import itertools
from math import gcd

import pytest

from genkummer.exact_linalg import det_bareiss, mat_mul, orthogonal_complement
from genkummer.fm_lattices import (
    GRAM_ABELIAN,
    GRAM_SURFACE,
    PULL,
    PUSH,
    InvalidPolarization,
    build,
    transcendental_index,
)


def _lattice_det(gram, rows):
    n = len(rows)
    g = [[sum(rows[i][a] * gram[a][b] * rows[j][b]
              for a in range(4) for b in range(4)) for j in range(n)]
         for i in range(n)]
    return det_bareiss(g)


def test_compositions_are_multiplication_by_three():
    three = [[3 if i == j else 0 for j in range(4)] for i in range(4)]
    assert mat_mul([list(r) for r in PUSH], [list(r) for r in PULL]) == three
    assert mat_mul([list(r) for r in PULL], [list(r) for r in PUSH]) == three


def test_push_scales_form_by_three():
    p = [list(r) for r in PUSH]
    gs = [list(r) for r in GRAM_SURFACE]
    assert mat_mul(mat_mul(p, gs), p) == [[3 * x for x in row]
                                          for row in GRAM_ABELIAN]


def test_push_image_has_index_three():
    assert abs(det_bareiss([list(r) for r in PUSH])) == 3


def test_build_two_mod_six():
    m = build((1, 1, 1, 1))
    assert m.lx2 == 20 and m.case == "TWO_MOD6" and m.nu == 1
    assert m.la == (3, 3, 3, 1)
    assert transcendental_index(m) == 1


def test_build_zero_mod_six():
    m = build((1, 1, 0, 0))
    assert m.lx2 == 6 and m.case == "ZERO_MOD6" and m.nu == 3
    assert m.la == (1, 1, 0, 0)
    assert transcendental_index(m) == 3
    for k in range(2, 6):
        mk = build((1, k, 0, 0))
        assert mk.lx2 == 6 * k
        assert transcendental_index(mk) == 3


def test_polarization_squares():
    # L_A^2 is 3 * L_X^2 when nu = 1 and L_X^2 / 3 when nu = 3
    m = build((1, 1, 1, 1))
    la2 = _lattice_det(GRAM_ABELIAN, [list(m.la)])
    assert la2 == 3 * m.lx2
    m = build((1, 1, 0, 0))
    la2 = _lattice_det(GRAM_ABELIAN, [list(m.la)])
    assert 3 * la2 == m.lx2


def test_invalid_polarizations():
    with pytest.raises(InvalidPolarization):
        build((2, 2, 0, 0))
    with pytest.raises(InvalidPolarization):
        build((1, 0, 0, 0))       # isotropic
    with pytest.raises(InvalidPolarization):
        build((1, 0, 0))


def test_transcendental_rank_and_det_ratio():
    m = build((1, 1, 1, 1))
    tx = orthogonal_complement(GRAM_SURFACE, [m.polarization])
    ta = orthogonal_complement(GRAM_ABELIAN, [m.la])
    assert len(tx) == 3 and len(ta) == 3
    # index 1 means the pushed lattice IS T(X), whose form is 3x the
    # abelian one in rank 3
    assert _lattice_det(GRAM_SURFACE, tx) == 27 * _lattice_det(GRAM_ABELIAN, ta)


def test_index_matches_case_exhaustively():
    checked = 0
    for n in itertools.product(range(-2, 3), repeat=4):
        g = 0
        for x in n:
            g = gcd(g, x)
        if g != 1:
            continue
        try:
            m = build(n)
        except InvalidPolarization:
            continue
        want = 1 if m.lx2 % 6 == 2 else 3
        assert transcendental_index(m) == want
        checked += 1
    assert checked > 400


def test_index_matches_case_sampled_wider():
    import random

    rng = random.Random(20260809)
    checked = 0
    while checked < 300:
        n = tuple(rng.randint(-5, 5) for _ in range(4))
        g = 0
        for x in n:
            g = gcd(g, x)
        if g != 1:
            continue
        try:
            m = build(n)
        except InvalidPolarization:
            continue
        want = 1 if m.lx2 % 6 == 2 else 3
        assert transcendental_index(m) == want
        checked += 1


def test_report_shape():
    blob = build((1, 1, 1, 1)).to_json_dict()
    assert blob["LX2"] == 20 and blob["nu"] == 1
    assert blob["transcendental_index"] == 1
    assert blob["push_index"] == 3
    assert blob["gram_surface"][0] == [0, 3, 0, 0]
