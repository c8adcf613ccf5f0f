from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from families import next_solution
from genkummer.kummer_structures import _pell_modulus, admissible_values
from genkummer.ns_lattice import build_ns
from genkummer.pell import (
    InvalidSolution,
    NoSolution,
    PellFundamental,
    fundamental_solution,
    is_square,
)


def chakravala(D):
    """Independent fundamental-solution oracle (Chakravala cycle method)."""
    a0 = isqrt(D)
    a = a0 if D - a0 * a0 <= (a0 + 1) ** 2 - D else a0 + 1
    b, k = 1, a * a - D
    while k != 1:
        ak = abs(k)
        if ak == 1:
            r = 0
        else:
            r = (-a * pow(b % ak, -1, ak)) % ak
        base = (a0 - r) // ak
        cands = [r + t * ak for t in (base - 1, base, base + 1, base + 2)
                 if r + t * ak > 0]
        if not cands:
            cands = [r if r > 0 else r + ak]
        m = min(cands, key=lambda x: abs(x * x - D))
        a, b, k = (abs(a * m + D * b) // ak,
                   abs(a + b * m) // ak,
                   (m * m - D) // k)
    return a, b


def convergent_walk(D):
    """The reference for fundamental_solution: every convergent of sqrt(D)
    in turn, each squared, until one satisfies x^2 - D*y^2 = 1."""
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - D * q * q != 1:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q


@pytest.mark.parametrize("bound, step", [
    (10**4, 1), pytest.param(10**6, 97, marks=pytest.mark.slow)])
def test_period_end_walk_matches_the_convergent_walk(bound, step):
    # on the D of every admissible L^2 <= bound (every step-th of them)
    for L2 in admissible_values(2, bound)[::step]:
        D, _, _ = _pell_modulus(build_ns(L2))
        if not is_square(D):
            f = fundamental_solution(D)
            assert (f.x0, f.y0) == convergent_walk(D), L2


def test_is_square():
    assert is_square(0) and is_square(1) and is_square(36)
    assert not is_square(120)
    assert is_square(6 * 6)  # the L^2 = 6 trigger
    with pytest.raises(ValueError):
        is_square(-1)


def test_fixture_solutions():
    assert fundamental_solution(12) == PellFundamental(12, 7, 2)
    assert fundamental_solution(120) == PellFundamental(120, 11, 1)
    assert fundamental_solution(28) == PellFundamental(28, 127, 24)
    assert fundamental_solution(48) == PellFundamental(48, 7, 1)


def test_square_discriminant_rejected():
    for d in (4, 9, 16, 10000):
        with pytest.raises(NoSolution):
            fundamental_solution(d)
    with pytest.raises(ValueError):
        fundamental_solution(1)


def test_fundamental_invariant_rejected():
    with pytest.raises(InvalidSolution):
        PellFundamental(12, 7, 3)


def test_next_solution_fixtures():
    f12 = fundamental_solution(12)
    assert next_solution(f12, (1, 0)) == (7, 2)
    assert next_solution(f12, (7, 2)) == (97, 28)
    assert 97 * 97 - 12 * 28 * 28 == 1
    f120 = fundamental_solution(120)
    assert next_solution(f120, (11, 1)) == (241, 22)
    assert 241 * 241 - 120 * 22 * 22 == 1
    with pytest.raises(InvalidSolution):
        next_solution(f12, (7, 3))


def test_agrees_with_chakravala_up_to_10000():
    for d in range(2, 10001):
        if is_square(d):
            continue
        f = fundamental_solution(d)
        assert f.x0 * f.x0 - d * f.y0 * f.y0 == 1
        assert f.x0 > 0 and f.y0 > 0
        assert gcd(f.x0, f.y0) == 1
        assert chakravala(d) == (f.x0, f.y0)


def test_minimality_by_brute_force_where_feasible():
    # full brute force below a cap; the cycle-method agreement above covers
    # the discriminants whose fundamental y0 is astronomically large
    for d in range(2, 500):
        if is_square(d):
            continue
        f = fundamental_solution(d)
        if f.y0 > 3000:
            continue
        for y in range(1, f.y0):
            assert not is_square(1 + d * y * y)


def test_x0_odd_for_relevant_discriminants():
    for d in range(4, 2000, 4):
        if is_square(d):
            continue
        assert fundamental_solution(d).x0 % 2 == 1
    for t in range(1, 200, 3):
        d = 12 * t
        if is_square(d):
            continue
        assert fundamental_solution(d).x0 % 2 == 1


@given(st.integers(2, 300))
@settings(max_examples=60, deadline=None)
def test_iterated_solutions_stay_on_curve(d):
    if is_square(d):
        return
    f = fundamental_solution(d)
    sol = (f.x0, f.y0)
    prev_y = 0
    for _ in range(10):
        assert sol[0] * sol[0] - d * sol[1] * sol[1] == 1
        assert sol[1] > prev_y
        prev_y = sol[1]
        sol = next_solution(f, sol)
