import itertools
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from genkummer.exact_linalg import (
    IndefiniteForm,
    NoSolution,
    SingularMatrix,
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
    snf,
    solve_integral,
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
        x = solve_integral(basis, g)
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
    with pytest.raises(SingularMatrix):
        snf([[1, 2], [2, 4]])


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


def test_solve_integral_identity():
    assert solve_integral(identity_matrix(3), [4, -5, 6]) == [4, -5, 6]


def test_solve_integral_no_solution():
    with pytest.raises(NoSolution):
        solve_integral([[2, 0], [0, 2]], [1, 0])
    with pytest.raises(NoSolution):
        solve_integral([[1, 0]], [0, 1])


def test_solve_integral_fractional_generator_membership():
    # the first fractional generator lies in the span of the curve-block
    # lattice basis by construction
    k3 = build_k3()
    t1 = [0] * 18
    for j in range(0, 18, 2):
        t1[j], t1[j + 1] = 1, -1
    x = solve_integral([list(r) for r in k3.basis], t1)
    assert [sum(x[i] * k3.basis[i][j] for i in range(18)) for j in range(18)] == t1


def test_kernel_basis_saturated():
    rows = kernel_basis([[2], [4], [6]])
    assert len(rows) == 2
    for r in rows:
        assert 2 * r[0] + 4 * r[1] + 6 * r[2] == 0


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
