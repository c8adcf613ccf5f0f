"""Exact integer/rational linear algebra, short-vector enumeration, and the
characteristic polynomial and multiplicative order of integer matrices.

Matrices are plain lists of rows; entries are Python ints (arbitrary
precision) or fractions.Fraction.  Nothing here ever touches a float:
every bound used by the short-vector search is rounded conservatively
and every candidate is verified with exact arithmetic.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class SingularMatrix(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


class IndefiniteForm(ValueError):
    """Raised when a quadratic form is not definite of the expected sign."""


class NoSolution(ValueError):
    """Raised when an integral linear system has no integer solution."""


# ---------------------------------------------------------------------------
# basic matrix helpers


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(mat):
    return [row[:] for row in mat]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    """Matrix product; zero entries of a are skipped, so sparse rows are cheap."""
    return [vec_mat(row, b) for row in a]


def vec_mat(v, mat):
    """Row vector times matrix."""
    n = len(mat[0])
    out = [0] * n
    for vi, row in zip(v, mat):
        if vi:
            for j in range(n):
                out[j] += vi * row[j]
    return out


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(mat):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*mat = H, H in row HNF: pivots are
    positive, strictly to the right as the row index grows, entries above a
    pivot are reduced into [0, pivot), zero rows are at the bottom.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    h = copy_matrix(mat)
    u = identity_matrix(m)
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if h[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if not h[i][c]:
                continue
            a, b = h[r][c], h[i][c]
            g, x, y = xgcd(a, b)
            p, q = a // g, b // g
            hr, hi = h[r], h[i]
            ur, ui = u[r], u[i]
            h[r] = [x * s + y * t for s, t in zip(hr, hi)]
            h[i] = [p * t - q * s for s, t in zip(hr, hi)]
            u[r] = [x * s + y * t for s, t in zip(ur, ui)]
            u[i] = [p * t - q * s for s, t in zip(ur, ui)]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        d = h[r][c]
        for i in range(r):
            q = h[i][c] // d
            if q:
                h[i] = [s - q * t for s, t in zip(h[i], h[r])]
                u[i] = [s - q * t for s, t in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return h, u


def hnf_pivots(h):
    """Pivot column of each nonzero row of a row-HNF matrix."""
    pivots = []
    for row in h:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            break
        pivots.append(col)
    return pivots


def solve_hnf(h, pivots, b):
    """Solve y * H = b over the integers for H in row HNF, or return None.

    Only the first len(pivots) rows of H are used; y has that length.
    """
    rem = list(b)
    y = []
    for i, c in enumerate(pivots):
        q, r = divmod(rem[c], h[i][c])
        if r:
            return None
        y.append(q)
        if q:
            row = h[i]
            for j in range(c, len(rem)):
                rem[j] -= q * row[j]
    if any(rem):
        return None
    return y


def solve_integral(mat, b):
    """Solve x * mat = b over the integers.

    Raises NoSolution when b is not in the row lattice of mat.
    """
    h, u = hnf(mat)
    pivots = hnf_pivots(h)
    y = solve_hnf(h, pivots, b)
    if y is None:
        raise NoSolution("vector is not in the row lattice")
    x = [0] * len(mat)
    for yi, urow in zip(y, u):
        if yi:
            for j in range(len(urow)):
                x[j] += yi * urow[j]
    return x


def kernel_basis(mat):
    """Basis of the left kernel {x : x * mat = 0}, as rows.

    The kernel of an integer-linear map is saturated, so the rows span the
    full group of integer solutions.
    """
    h, u = hnf(mat)
    rank = len(hnf_pivots(h))
    return [row[:] for row in u[rank:]]


# ---------------------------------------------------------------------------
# linear algebra over GF(3)


def gf3_reduce(ech, vec):
    """Residue of an integer vector modulo 3 and modulo the span of an
    echelon basis from gf3_echelon; all zero iff vec lies in that span."""
    vec = [x % 3 for x in vec]
    for piv, erow in ech:
        c = vec[piv]
        if c:
            vec = [(a - c * b) % 3 for a, b in zip(vec, erow)]
    return vec


def gf3_echelon(rows):
    """Reduced row echelon basis over GF(3) of the span of integer rows.

    Returns (pivot, row) pairs sorted by pivot column; each row has entries
    in 0..2, is 1 at its own pivot and 0 at every other pivot.
    """
    ech = []
    for row in rows:
        vec = gf3_reduce(ech, row)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        if vec[piv] == 2:
            vec = [(2 * x) % 3 for x in vec]
        for _, erow in ech:
            c = erow[piv]
            if c:
                erow[:] = [(a - c * b) % 3 for a, b in zip(erow, vec)]
        ech.append((piv, vec))
    ech.sort()
    return ech


def gf3_kernel(mat):
    """Basis of the left kernel {x : x * mat = 0 mod 3}, as tuples.

    One vector per free column of the reduced transpose: 1 there, 0 at the
    other free columns.
    """
    ech = gf3_echelon(transpose(mat))
    pivots = {piv for piv, _ in ech}
    basis = []
    for free in range(len(mat)):
        if free in pivots:
            continue
        v = [0] * len(mat)
        v[free] = 1
        for piv, erow in ech:
            v[piv] = -erow[free] % 3
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# determinant and Smith normal form


def det_bareiss(mat):
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = copy_matrix(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf(mat):
    """Smith normal form of a square nonsingular integer matrix.

    Returns (factors, U, V) with U*mat*V diagonal, diagonal entries positive
    and forming a divisibility chain d1 | d2 | ... ; U, V unimodular.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("snf expects a square matrix")
    if det_bareiss(mat) == 0:
        raise SingularMatrix("snf expects a nonsingular matrix")
    a = copy_matrix(mat)
    u = identity_matrix(n)
    v = identity_matrix(n)

    def row_op(i, j, q):
        a[i] = [s - q * t for s, t in zip(a[i], a[j])]
        u[i] = [s - q * t for s, t in zip(u[i], u[j])]

    def col_op(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    for k in range(n):
        while True:
            # smallest nonzero entry of the trailing block moves to (k, k)
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    x = a[i][j]
                    if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            bi, bj = best
            if bi != k:
                a[k], a[bi] = a[bi], a[k]
                u[k], u[bi] = u[bi], u[k]
            if bj != k:
                for row in a:
                    row[k], row[bj] = row[bj], row[k]
                for row in v:
                    row[k], row[bj] = row[bj], row[k]
            piv = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    row_op(i, k, a[i][k] // piv)
                    dirty = dirty or bool(a[i][k])
            for j in range(k + 1, n):
                if a[k][j]:
                    col_op(j, k, a[k][j] // piv)
                    dirty = dirty or bool(a[k][j])
            if dirty:
                continue
            # pivot must divide the rest of the block
            off = next(
                ((i, j) for i in range(k + 1, n) for j in range(k + 1, n)
                 if a[i][j] % piv),
                None,
            )
            if off is None:
                break
            row_op(k, off[0], -1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    factors = [a[i][i] for i in range(n)]
    return factors, u, v


# ---------------------------------------------------------------------------
# short-vector enumeration (exact Fincke-Pohst)


def _lll_reduce_gram(a):
    """Exact LLL reduction (delta = 3/4) of a positive definite Gram matrix.

    Returns (reduced, U) with reduced = U * a * U^T, U unimodular; raises
    IndefiniteForm when a form of size two or more is not positive definite
    (the enumeration's LDL step rejects a 1 x 1 one).  Bad bases straight
    out of an HNF kernel would otherwise blow the enumeration tree up by
    many orders of magnitude.  All Gram-Schmidt data is kept as exact
    fractions; the enumeration does not depend on the reduction quality for
    correctness, so the loop simply stops early if the step budget runs out.
    """
    n = len(a)
    g = [row[:] for row in a]
    h = identity_matrix(n)
    if n <= 1:
        return g, h
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n

    def gs_row(k):
        for j in range(k):
            t = Fraction(g[k][j])
            for i in range(j):
                t -= mu[j][i] * mu[k][i] * b[i]
            mu[k][j] = t / b[j]
        t = Fraction(g[k][k])
        for i in range(k):
            t -= mu[k][i] * mu[k][i] * b[i]
        if t <= 0:
            raise IndefiniteForm("form is not positive definite")
        b[k] = t

    for k in range(n):
        gs_row(k)

    def size_reduce(k, l):
        if 2 * abs(mu[k][l]) <= 1:
            return
        q = (2 * mu[k][l] + 1).__floor__() // 2
        h[k] = [x - q * y for x, y in zip(h[k], h[l])]
        for j in range(n):
            g[k][j] -= q * g[l][j]
        for j in range(n):
            g[j][k] -= q * g[j][l]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    delta = Fraction(3, 4)
    k = 1
    budget = 20000 * n * n
    while k < n and budget:
        budget -= 1
        size_reduce(k, k - 1)
        if b[k] < (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            m = mu[k][k - 1]
            b_new = b[k] + m * m * b[k - 1]
            h[k], h[k - 1] = h[k - 1], h[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            mu[k][k - 1] = m * b[k - 1] / b_new
            b[k] = b[k - 1] * b[k] / b_new
            b[k - 1] = b_new
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    if mat_mul(mat_mul(h, a), transpose(h)) != g:
        raise AssertionError("reduction transform lost the Gram matrix")
    return g, h


def _cholesky_exact(a):
    """Exact LDL decomposition data for a positive definite matrix.

    Returns (d, r) with q(v) = sum_i d[i] * (v[i] + sum_{j>i} r[i][j]*v[j])^2.
    Raises IndefiniteForm when a pivot fails to be positive.
    """
    n = len(a)
    r = [[Fraction(x) for x in row] for row in a]
    d = [Fraction(0)] * n
    for i in range(n):
        di = r[i][i]
        if di <= 0:
            raise IndefiniteForm("form is not positive definite")
        d[i] = di
        for j in range(i + 1, n):
            t = r[i][j] / di
            for k in range(j, n):
                r[j][k] -= t * r[i][k]
            r[i][j] = t
    return d, r


def _floor_sqrt_frac(x):
    """floor(sqrt(x)) for a nonnegative Fraction x."""
    return isqrt(x.numerator // x.denominator)


def _enumerate_pos_def(a, target):
    """Yield every integer v (including both signs) with v^T a v = target."""
    n = len(a)
    d, r = _cholesky_exact(a)
    target = Fraction(target)
    v = [0] * n

    def rec(i, budget):
        if i < 0:
            if budget == 0:
                yield tuple(v)
            return
        c = Fraction(0)
        ri = r[i]
        for j in range(i + 1, n):
            if v[j]:
                c += ri[j] * v[j]
        # d[i]*(v_i + c)^2 <= budget; bound rounded up, candidates checked exactly
        s = _floor_sqrt_frac(budget / d[i]) + 1
        lo = -c - s
        first = lo.numerator // lo.denominator
        for vi in range(first, first + 2 * s + 2):
            term = d[i] * (vi + c) ** 2
            if term > budget:
                if vi + c > 0:
                    break
                continue
            v[i] = vi
            yield from rec(i - 1, budget - term)
        v[i] = 0

    yield from rec(n - 1, target)


def _canonical_pairs(vectors):
    """Deduplicate into +/- pairs, lexicographically sorted representatives."""
    reps = set()
    for vec in vectors:
        lead = next((x for x in vec if x), 0)
        reps.add(vec if lead > 0 else tuple(-x for x in vec))
    out = []
    for rep in sorted(reps):
        out.append(list(rep))
        out.append([-x for x in rep])
    return out


def _pos_def_form(gram, target):
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise ValueError("gram matrix must be symmetric")
    if target >= 0:
        raise ValueError("target must be negative")
    return [[-x for x in row] for row in gram]


def enumerate_norm_vectors(gram, target):
    """All integer vectors v with v^T gram v = target, for gram negative
    definite and target < 0.

    The result is closed under negation and returned as +/- pairs ordered
    lexicographically by the representative with positive leading entry.
    """
    pos = _pos_def_form(gram, target)
    red, u = _lll_reduce_gram(pos)
    sols = [vec_mat(v, u) for v in _enumerate_pos_def(red, -target)]
    return _canonical_pairs(tuple(s) for s in sols)


def has_norm_vector(gram, target):
    """True when some nonzero v satisfies v^T gram v = target (exact)."""
    red, _ = _lll_reduce_gram(_pos_def_form(gram, target))
    return next(iter(_enumerate_pos_def(red, -target)), None) is not None


# ---------------------------------------------------------------------------
# characteristic polynomial


def charpoly(mat):
    """Monic characteristic polynomial of an integer matrix.

    Returns [1, c1, ..., cn] with det(x*I - mat) = x^n + c1 x^(n-1) + ... + cn,
    computed by the Faddeev-LeVerrier recurrence; all divisions are exact for
    integer input and the Cayley-Hamilton identity is checked at the end.
    """
    n = len(mat)
    coeffs = [1]
    m = identity_matrix(n)
    for k in range(1, n + 1):
        am = mat_mul(mat, m)
        tr = sum(am[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ValueError("non-integer trace step; input was not integral")
        coeffs.append(q)
        m = am
        for i in range(n):
            m[i][i] += q
    if any(x for row in m for x in row):
        raise AssertionError("Cayley-Hamilton verification failed")
    return coeffs


# ---------------------------------------------------------------------------
# multiplicative order


def _totient(n):
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def _small_totients(n):
    """(d, phi(d)) for every d with phi(d) <= n, ascending in d.

    phi(d) >= sqrt(d/2), so every such d is at most 2*n^2.
    """
    return tuple((d, phi) for d in range(1, 2 * n * n + 1)
                 if (phi := _totient(d)) <= n)


_CYCLOTOMIC_CACHE = {}


def _cyclotomic(d):
    """Coefficients of the d-th cyclotomic polynomial, descending powers."""
    if d in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[d]
    poly = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_div_exact(poly, _cyclotomic(e))
            if poly is None:
                raise AssertionError("cyclotomic division must be exact")
    _CYCLOTOMIC_CACHE[d] = poly
    return poly


def _poly_div_exact(num, den):
    """Quotient of exact polynomial division (descending coefficients), or
    None when den does not divide num over Z.  den must be monic."""
    if den[0] != 1:
        raise ValueError("divisor must be monic")
    num = list(num)
    if len(num) < len(den):
        return None
    q = []
    while len(num) >= len(den):
        f = num[0]
        q.append(f)
        if f:
            for i in range(1, len(den)):
                num[i] -= f * den[i]
        num.pop(0)
    return q if not any(num) else None


def matrix_order(mat):
    """Exact multiplicative order of a square integer matrix.

    Returns an int when the matrix has finite order (verified by exact
    powering), "infinite" otherwise.  Finite order forces the characteristic
    polynomial to be a product of cyclotomic polynomials; when it is, the
    only possible order is the lcm of their indices.
    """
    n = len(mat)
    poly = charpoly(mat)
    indices = []
    for d, phi in _small_totients(n):
        while len(poly) - 1 >= phi:
            quotient = _poly_div_exact(poly, _cyclotomic(d))
            if quotient is None:
                break
            poly = quotient
            indices.append(d)
        if len(poly) == 1:
            break
    if poly != [1]:
        return "infinite"
    order = 1
    for d in indices:
        order = order * d // gcd(order, d)
    power = identity_matrix(n)
    base = mat
    e = order
    while e:
        if e & 1:
            power = mat_mul(power, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    if power == identity_matrix(n):
        return order
    return "infinite"
