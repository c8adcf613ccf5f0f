import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from genkummer import exact_linalg
from genkummer.exact_linalg import (
    IndefiniteForm,
    SingularMatrix,
    _enumerate_pos_def,
    _ldl_integral,
    _lll_reduce_gram,
    _small_totients,
    charpoly,
    det_bareiss,
    enumerate_norm_vectors,
    gf3_echelon,
    gf3_kernel,
    has_norm_vector,
    hnf,
    hnf_pivots,
    kernel_basis,
    mat_mul,
    identity_matrix,
    matrix_order,
    orthogonal_complement,
    snf,
    solve_hnf,
    transpose,
)
from genkummer.ns_lattice import L_class, build_k3, build_ns, fractional_generator


# ---------------------------------------------------------------------------
# HNF


def test_hnf_identity():
    h, u = hnf(identity_matrix(2))
    assert h == identity_matrix(2)
    assert u == identity_matrix(2)


def test_hnf_diagonal_already_reduced():
    m = [[2, 0], [0, 2]]
    h, u = hnf(m)
    assert h == m
    assert mat_mul(u, m) == h


def test_hnf_ns_generator_matrix():
    # generator matrix of the rank-19 lattice for L^2 = 20: full rank, and
    # every generator solves integrally against the HNF rows
    ns = build_ns(20)
    gens = [list(L_class().num)]
    for j in range(1, 19):
        row = [0] * 19
        row[j] = 3
        gens.append(row)
    for i in (1, 2, 3):
        gens.append(list(fractional_generator(i).num))
    h, u = hnf(gens)
    assert len(hnf_pivots(h)) == 19
    assert mat_mul(u, gens) == h
    basis = h[:19]
    for g in gens:
        x = solve_hnf(basis, hnf_pivots(basis), g)
        assert [sum(x[i] * basis[i][j] for i in range(19)) for j in range(19)] == g
    # and the rows agree with the lattice's own basis
    assert [list(r) for r in ns.basis] == basis


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    return [[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)]


@given(small_matrices())
@settings(max_examples=150, deadline=None)
def test_hnf_transform_and_idempotence(m):
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert abs(det_bareiss(u)) == 1
    h2, _ = hnf(h)
    assert h2 == h


# ---------------------------------------------------------------------------
# SNF


def test_snf_identity():
    factors, u, v = snf(identity_matrix(4))
    assert factors == [1, 1, 1, 1]


def test_snf_k3_gram():
    k3 = build_k3()
    factors, u, v = snf([list(r) for r in k3.gram])
    assert factors[-3:] == [3, 3, 3]
    prod = 1
    for f in factors:
        prod *= f
    assert prod == 27
    d = mat_mul(mat_mul(u, [list(r) for r in k3.gram]), v)
    assert all(d[i][j] == (factors[i] if i == j else 0)
               for i in range(18) for j in range(18))


def test_snf_ns20_gram():
    ns = build_ns(20)
    factors, _, _ = snf([list(r) for r in ns.gram])
    prod = 1
    for f in factors:
        prod *= f
    assert prod == 540


def test_snf_singular_rejected():
    for m in ([[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(SingularMatrix):
            snf(m)


@st.composite
def nonsingular_matrices(draw):
    n = draw(st.integers(2, 4))
    m = [[draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    assume(det_bareiss(m) != 0)
    return m


@given(nonsingular_matrices())
@settings(max_examples=100, deadline=None)
def test_snf_divisibility_and_determinant(m):
    factors, u, v = snf(m)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    prod = 1
    for f in factors:
        prod *= f
    assert prod == abs(det_bareiss(m))
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1


# ---------------------------------------------------------------------------
# integral solving


def test_solve_hnf_identity():
    assert solve_hnf(identity_matrix(3), [0, 1, 2], [4, -5, 6]) == [4, -5, 6]


def test_solve_hnf_no_solution():
    assert solve_hnf([[2, 0], [0, 2]], [0, 1], [1, 0]) is None
    assert solve_hnf([[1, 0]], [0], [0, 1]) is None


def test_solve_hnf_fractional_generator_membership():
    # the first fractional generator lies in the span of the curve-block
    # lattice basis by construction
    k3 = build_k3()
    t1 = [0] * 18
    for j in range(0, 18, 2):
        t1[j], t1[j + 1] = 1, -1
    x = solve_hnf(k3.basis, hnf_pivots(k3.basis), t1)
    assert [sum(x[i] * k3.basis[i][j] for i in range(18)) for j in range(18)] == t1


def test_kernel_basis_saturated():
    rows = kernel_basis([[2], [4], [6]])
    assert len(rows) == 2
    for r in rows:
        assert 2 * r[0] + 4 * r[1] + 6 * r[2] == 0


@st.composite
def grams_and_vectors(draw):
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    k = draw(st.integers(1, 3))
    vectors = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
    return gram, vectors


@given(grams_and_vectors())
@settings(max_examples=150, deadline=None)
def test_orthogonal_complement_is_the_saturated_complement(case):
    gram, vectors = case
    n = len(gram)

    def form(x, v):
        return sum(x[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    rows = orthogonal_complement(gram, vectors)
    assert all(form(r, v) == 0 for r in rows for v in vectors)
    h, _ = hnf([[sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
                for v in vectors])
    assert len(rows) == n - len(hnf_pivots(h))
    # every complement vector in a small box is an integer combination
    box = [x for x in itertools.product(range(-2, 3), repeat=n)
           if any(x) and all(form(x, v) == 0 for v in vectors)]
    if box:
        assert rows
        span, _ = hnf(rows)
        pivots = hnf_pivots(span)
        assert all(solve_hnf(span, pivots, list(x)) is not None for x in box)


# ---------------------------------------------------------------------------
# GF(3)


@st.composite
def small_matrices(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    return [[draw(st.integers(-7, 7)) for _ in range(k)] for _ in range(m)]


@given(small_matrices())
@settings(max_examples=200, deadline=None)
def test_gf3_kernel_is_the_kernel(mat):
    m, k = len(mat), len(mat[0])
    basis = gf3_kernel(mat)
    for x in basis:
        assert all(sum(x[i] * mat[i][j] for i in range(m)) % 3 == 0
                   for j in range(k))
    rank = len(gf3_echelon(mat))
    assert len(basis) == m - rank
    # the span of the basis is the whole kernel, found by brute force
    brute = {x for x in itertools.product(range(3), repeat=m)
             if all(sum(x[i] * mat[i][j] for i in range(m)) % 3 == 0
                    for j in range(k))}
    span = {tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) % 3
                  for i in range(m))
            for coeffs in itertools.product(range(3), repeat=len(basis))}
    assert span == brute


# ---------------------------------------------------------------------------
# short-vector enumeration


def _quad(gram, v):
    n = len(gram)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def brute_norm_vectors(gram, target):
    """Independent box-bound oracle: v_i^2 <= |target| * (A^-1)_ii for the
    positive form A = -gram, with the inverse diagonal taken exactly via
    cofactors."""
    n = len(gram)
    a = [[-x for x in row] for row in gram]
    det = det_bareiss(a)
    assert det > 0
    m = -target
    bounds = []
    for i in range(n):
        if n == 1:
            adj = 1
        else:
            minor = [[a[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != i]
            adj = det_bareiss(minor)
        bounds.append(isqrt(m * adj // det) + 1)
    found = set()
    for v in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if _quad(gram, list(v)) == target:
            found.add(v)
    return found


def test_enumerate_a2_block():
    got = enumerate_norm_vectors([[-2, 1], [1, -2]], -2)
    assert len(got) == 6
    assert {tuple(v) for v in got} == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


def test_enumerate_scaled_odd_norm_empty():
    assert enumerate_norm_vectors([[-4]], -2) == []
    assert not has_norm_vector([[-4]], -2)


def test_enumerate_l_perp_has_54_roots():
    ns = build_ns(20)
    _, gram = ns.orthogonal_sublattice(L_class())
    got = enumerate_norm_vectors(gram, -2)
    assert len(got) == 54


def test_enumerate_rejects_indefinite():
    with pytest.raises(IndefiniteForm):
        enumerate_norm_vectors([[2, 0], [0, -2]], -2)


BASE_FORMS = [
    [[-2]],
    [[-4]],
    [[-2, 1], [1, -2]],
    [[-2, 0], [0, -2]],
    [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],
    [[-4, 2], [2, -4]],
    [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]],
]


@st.composite
def conjugated_forms(draw):
    base = draw(st.sampled_from(BASE_FORMS))
    n = len(base)
    g = [row[:] for row in base]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(st.integers(-2, 2))
        # g <- E^T g E for the elementary transvection E = I + c * e_ij
        for k in range(n):
            g[k][j] += c * g[k][i]
        for k in range(n):
            g[j][k] += c * g[i][k]
    return base, g


@given(conjugated_forms(), st.sampled_from([-2, -4, -6]))
@settings(max_examples=120, deadline=None)
def test_enumerate_matches_brute_force_and_is_closed(data, target):
    base, g = data
    got = enumerate_norm_vectors(g, target)
    assert {tuple(v) for v in got} == brute_norm_vectors(g, target)
    vs = {tuple(v) for v in got}
    for v in vs:
        assert tuple(-x for x in v) in vs
        assert _quad(g, v) == target
    # a change of basis never changes the number of vectors
    assert len(got) == len(enumerate_norm_vectors(base, target))


@given(conjugated_forms())
@settings(max_examples=60, deadline=None)
def test_enumerate_roots_pair_within_bounds(data):
    _, g = data
    got = enumerate_norm_vectors(g, -2)
    for v in got:
        for w in got:
            p = sum(v[i] * g[i][j] * w[j]
                    for i in range(len(g)) for j in range(len(g)))
            assert -2 <= p <= 2


def _negated_cartan_a(n):
    return [[-2 if i == j else (1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def _negated_cartan_d(n):
    g = _negated_cartan_a(n)
    g[n - 1][n - 2] = g[n - 2][n - 1] = 0
    g[n - 1][n - 3] = g[n - 3][n - 1] = 1
    return g


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    ofs = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                g[ofs + i][ofs + j] = b[i][j]
        ofs += len(b)
    return g


# known root counts of the ADE lattices up to rank 6
RANK6_FORMS = [
    (_negated_cartan_a(5), 30),
    (_negated_cartan_a(6), 42),
    (_negated_cartan_d(4), 24),
    (_negated_cartan_d(5), 40),
    (_block_diag(_negated_cartan_a(2), _negated_cartan_a(2),
                 _negated_cartan_a(2)), 18),
    (_block_diag(_negated_cartan_a(4), [[-4]], [[-6]]), 20),
]


@st.composite
def conjugated_rank6(draw):
    base, count = draw(st.sampled_from(RANK6_FORMS))
    n = len(base)
    g = [row[:] for row in base]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(st.integers(-3, 3))
        for k in range(n):
            g[k][j] += c * g[k][i]
        for k in range(n):
            g[j][k] += c * g[i][k]
    return g, count


@given(conjugated_rank6())
@settings(max_examples=80, deadline=None)
def test_enumerate_rank6_known_root_counts(data):
    g, count = data
    got = enumerate_norm_vectors(g, -2)
    assert len(got) == count
    vs = {tuple(v) for v in got}
    assert len(vs) == count
    for v in vs:
        assert tuple(-x for x in v) in vs
        assert _quad(g, v) == -2


# ---------------------------------------------------------------------------
# integral LDL and LLL


@st.composite
def positive_definite_forms(draw):
    """Gram matrices m * m^T of nonsingular integer matrices m."""
    n = draw(st.integers(1, 6))
    m = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    assume(det_bareiss(m) != 0)
    return mat_mul(m, transpose(m))


@given(positive_definite_forms(), st.data())
@settings(max_examples=150, deadline=None)
def test_ldl_integral_minors_and_form(a, data):
    n = len(a)
    d, u = _ldl_integral(a)
    assert d == [det_bareiss([row[:i] for row in a[:i]]) for i in range(n + 1)]
    for i in range(n):
        assert u[i][:i] == [0] * i and u[i][i] == d[i + 1]
    v = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    q = sum(Fraction(sum(u[i][j] * v[j] for j in range(i, n)) ** 2,
                     d[i] * d[i + 1]) for i in range(n))
    assert q == _quad(a, v)


def test_ldl_integral_rejects_nonpositive_minors():
    for a in ([[0]], [[-2]], [[1, 2], [2, 1]], [[2, 2], [2, 2]]):
        with pytest.raises(IndefiniteForm):
            _ldl_integral(a)


def _assert_lll_reduced(a, reduced, u):
    n = len(a)
    assert abs(det_bareiss(u)) == 1
    assert mat_mul(mat_mul(u, a), transpose(u)) == reduced
    d, lam = _ldl_integral(reduced)
    for k in range(n):
        for j in range(k):
            assert 2 * abs(lam[j][k]) <= d[j + 1]
    for k in range(1, n):
        # Lovasz condition with delta = 3/4, cleared of denominators
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k - 1][k] ** 2


@given(positive_definite_forms())
@settings(max_examples=150, deadline=None)
def test_lll_reduce_gram_is_unimodular_and_reduced(a):
    reduced, u, _ = _lll_reduce_gram(a)
    _assert_lll_reduced(a, reduced, u)


def test_lll_reduces_a_badly_skewed_form():
    # A_8 conjugated by large transvections: the reduction terminates (there
    # is no step budget), is LLL-reduced, and the 72 roots survive
    a = [[-x for x in row] for row in _negated_cartan_a(8)]
    for i, j, c in [(0, 7, 10 ** 9), (7, 1, -(10 ** 8)), (3, 5, 10 ** 9),
                    (1, 6, 77777777), (5, 0, -(10 ** 9)), (6, 2, 10 ** 7)]:
        for k in range(8):
            a[k][j] += c * a[k][i]
        for k in range(8):
            a[j][k] += c * a[i][k]
    assert max(abs(x) for row in a for x in row) > 10 ** 30
    reduced, u, _ = _lll_reduce_gram(a)
    _assert_lll_reduced(a, reduced, u)
    assert max(abs(x) for row in reduced for x in row) <= 2
    assert len(enumerate_norm_vectors([[-x for x in row] for row in a], -2)) == 72


def test_lll_check_fires_on_a_corrupt_ldl(monkeypatch):
    # the second LDL of a reduction is the reduced form's; corrupt its lam
    real = exact_linalg._ldl_integral
    calls = []

    def corrupt_second(a):
        d, lam = real(a)
        calls.append(a)
        if len(calls) == 2:
            lam[0][1] += 1
        return d, lam

    monkeypatch.setattr(exact_linalg, "_ldl_integral", corrupt_second)
    with pytest.raises(AssertionError,
                       match="^reduction transform lost the Gram matrix$"):
        _lll_reduce_gram([[2, 1], [1, 5]])
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Fincke-Pohst on one vector of each +/- pair


def test_enumerate_pos_def_walks_half_the_a2_roots():
    got = list(_enumerate_pos_def(_ldl_integral([[2, -1], [-1, 2]]), 2))
    assert len(got) == 3
    assert set(got) | {tuple(-x for x in v) for v in got} == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


@given(positive_definite_forms(), st.data())
@settings(max_examples=150, deadline=None)
def test_enumerate_pos_def_yields_each_pair_once(a, data):
    n = len(a)
    reduced, _, ldl = _lll_reduce_gram(a)
    # the norm of a reduced basis vector, or close to it: often no solution;
    # small enough targets keep the brute-force box small
    k = data.draw(st.integers(0, n - 1))
    target = reduced[k][k] + data.draw(st.integers(-1, 2))
    assume(target > 0)
    got = list(_enumerate_pos_def(ldl, target))
    halves = set(got)
    negated = {tuple(-x for x in v) for v in got}
    assert len(halves) == len(got)
    assert not halves & negated
    assert all(any(v) for v in got)
    brute = brute_norm_vectors([[-x for x in row] for row in reduced], -target)
    assert halves | negated == brute
    g = [[-x for x in row] for row in a]
    assert has_norm_vector(g, -target) == bool(enumerate_norm_vectors(g, -target))


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_charpoly_rotation():
    assert charpoly([[0, 1], [-1, 0]]) == [1, 0, 1]


def test_charpoly_companion_cubic():
    # companion matrix of x^3 - 2x - 5
    m = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert charpoly(m) == [1, 0, -2, -5]


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_charpoly_triangular(diag):
    n = len(diag)
    m = [[diag[i] if i == j else (1 if j > i else 0) for j in range(n)]
         for i in range(n)]
    poly = [1]
    for d in diag:
        poly = [a - d * b for a, b in
                zip(poly + [0], [0] + poly)]
    assert charpoly(m) == poly


# ---------------------------------------------------------------------------
# multiplicative order


def test_matrix_order_directly():
    assert matrix_order([[0, -1], [1, -1]]) == 3
    assert matrix_order([[-1, 0], [0, -1]]) == 2
    assert matrix_order([[0, 1], [-1, 0]]) == 4
    assert matrix_order([[1, 1], [0, 1]]) == "infinite"
    assert matrix_order([[2, 0], [0, 1]]) == "infinite"


def test_matrix_order_at_the_trace_bound():
    # 19 x 19 finite-order matrices with |trace| up to n keep their orders
    n = 19
    assert matrix_order(identity_matrix(n)) == 1
    assert matrix_order([[-x for x in row] for row in identity_matrix(n)]) == 2
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    assert matrix_order(cycle) == 19
    # rotations of orders 3, 4, 6, 3, 4, 6, 3, 2 and 1, then [-1]
    r3, r4, r6 = [[0, -1], [1, -1]], [[0, -1], [1, 0]], [[0, -1], [1, 1]]
    m = _block_diag(r3, r4, r6, r3, r4, r6, r3, [[-1, 0], [0, -1]],
                    identity_matrix(2), [[-1]])
    assert len(m) == n
    assert matrix_order(m) == lcm(3, 4, 6, 2) == 12


def test_matrix_order_passes_the_bound_and_is_still_infinite():
    # |trace| = n: the characteristic polynomial (x - 1)^2 is cyclotomic,
    # and exact powering rules the unipotent matrix out
    assert matrix_order([[1, 1], [0, 1]]) == "infinite"
    assert matrix_order([[-1, 1], [0, -1]]) == "infinite"


def test_matrix_order_past_the_bound_skips_the_charpoly(monkeypatch):
    def no_charpoly(mat):
        raise AssertionError("charpoly called past the trace bound")

    monkeypatch.setattr(exact_linalg, "charpoly", no_charpoly)
    assert matrix_order([[2, 0], [0, 1]]) == "infinite"
    for sign in (1, -1):
        m = [[sign * x for x in row] for row in identity_matrix(19)]
        m[7][7] = 2 * sign
        assert matrix_order(m) == "infinite"


def test_matrix_order_decides_by_the_square_without_the_charpoly(monkeypatch):
    # |trace M| <= n in each case; M^2 = I gives 1 or 2, |trace M^2| > n
    # gives "infinite", and neither reaches the characteristic polynomial
    def no_charpoly(mat):
        raise AssertionError("charpoly called where M^2 decides")

    monkeypatch.setattr(exact_linalg, "charpoly", no_charpoly)
    n = 19
    assert matrix_order(identity_matrix(n)) == 1
    assert matrix_order([[-x for x in row] for row in identity_matrix(n)]) == 2
    # a signed involution D conjugated by a unimodular U
    d = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    u, u_inv = [[1, 2, 0], [0, 1, 3], [0, 0, 1]], [[1, -2, 6], [0, 1, -3], [0, 0, 1]]
    assert mat_mul(u, u_inv) == identity_matrix(3)
    m = mat_mul(mat_mul(u, d), u_inv)
    assert m != d and abs(sum(m[i][i] for i in range(3))) <= 3
    assert matrix_order(m) == 2
    # Fibonacci: trace 1 <= 2, trace of the square 3 > 2
    assert matrix_order([[1, 1], [1, 0]]) == "infinite"


# ---------------------------------------------------------------------------
# differential checks against sympy


@st.composite
def square_integer_matrices(draw, n=None):
    """Dense draws, or mostly unit rows like an accepted isometry's matrix."""
    if n is None:
        n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 3)):
            row = [0] * n
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1, -1]))
        else:
            row = [draw(st.integers(-50, 50)) for _ in range(n)]
        rows.append(row)
    return rows


@given(square_integer_matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_charpoly_and_mat_mul_match_sympy(m, data):
    sympy = pytest.importorskip("sympy")
    n = len(m)
    other = data.draw(square_integer_matrices(n))
    x = sympy.Symbol("x")
    assert charpoly(m) == [int(c) for c in sympy.Matrix(m).charpoly(x).all_coeffs()]
    want = sympy.Matrix(m) * sympy.Matrix(other)
    assert mat_mul(m, other) == [[int(want[i, j]) for j in range(n)] for i in range(n)]


@given(nonsingular_matrices())
@settings(max_examples=100, deadline=None)
def test_hnf_and_snf_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    n = len(m)
    sm = sympy.Matrix(m)
    smith = smith_normal_form(sm, domain=sympy.ZZ)
    factors, _, _ = snf(m)
    assert factors == [int(smith[i, i]) for i in range(n)]
    h, u = hnf(m)
    assert sympy.Matrix(u) * sm == sympy.Matrix(h)
    assert abs(sympy.Matrix(u).det()) == 1
    pivots = 1
    for i, c in enumerate(hnf_pivots(h)):
        pivots *= h[i][c]
    assert pivots == abs(sm.det())


def _sympy_order(m):
    """Order of an integer matrix by powering in sympy alone: an eigenvalue
    of an n x n finite-order matrix is a primitive d-th root of unity with
    phi(d) <= n (and so d <= 2 n^2), so the order divides the lcm B of those
    d; finite iff m^B = I, and then divide B down by its primes."""
    sympy = pytest.importorskip("sympy")
    n = len(m)
    mat, eye = sympy.Matrix(m), sympy.eye(n)
    bound = reduce(lcm, (d for d in range(1, 2 * n * n + 1) if sympy.totient(d) <= n))
    if mat ** bound != eye:
        return "infinite"
    order = bound
    for p in sympy.primefactors(bound):
        while order % p == 0 and mat ** (order // p) == eye:
            order //= p
    return order


@st.composite
def conjugated_signed_permutations(draw):
    """(U D U^-1, order of D): D a signed permutation matrix, U a product of
    integer transvections, applied as row and inverse column operations."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    m = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    order, seen = 1, set()
    for start in range(n):
        if start in seen:
            continue
        length, sign, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            sign *= signs[i]
            length += 1
            i = perm[i]
        order = lcm(order, length if sign == 1 else 2 * length)
    if n > 1:
        for _ in range(draw(st.integers(0, 12))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            c = draw(st.integers(-5, 5))
            for k in range(n):
                m[i][k] += c * m[j][k]
            for k in range(n):
                m[k][j] -= c * m[k][i]
    return m, order


@given(square_integer_matrices())
@settings(max_examples=100, deadline=None)
def test_matrix_order_matches_sympy(m):
    assert matrix_order(m) == _sympy_order(m)


@given(conjugated_signed_permutations())
@settings(max_examples=100, deadline=None)
def test_matrix_order_of_conjugated_signed_permutations(case):
    m, order = case
    assert matrix_order(m) == order == _sympy_order(m)


def test_small_totients_match_a_counted_phi():
    # phi(d) = #{1 <= k <= d : gcd(k, d) = 1}, counted on twice the range
    # the sieve covers, so a d with phi(d) <= n beyond 2 n^2 would show
    top = 4 * 20 ** 2
    phi = [0] + [sum(gcd(k, d) == 1 for k in range(1, d + 1))
                 for d in range(1, top + 1)]
    for n in range(1, 21):
        assert _small_totients(n) == tuple(
            (d, phi[d]) for d in range(1, top + 1) if phi[d] <= n)
