"""Exact integer linear algebra, short-vector enumeration, and the
characteristic polynomial and multiplicative order of integer matrices.

Matrices are plain lists of rows; entries are Python ints (arbitrary
precision).  Nothing here ever touches a float.  The short-vector layer is integer only: LLL and
Fincke-Pohst read one fraction-free LDL decomposition, every bound of the
enumeration is an exact integer, and every division is exact.
"""

from functools import lru_cache
from math import gcd, isqrt


class SingularMatrix(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


class IndefiniteForm(ValueError):
    """Raised when a quadratic form is not definite of the expected sign."""


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


def vec_mat(v, mat, start=0):
    """Row vector times matrix, from column start on (the columns before stay 0)."""
    n = len(mat[0])
    out = [0] * n
    for vi, row in zip(v, mat):
        if vi:
            for j in range(start, n):
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


def kernel_basis(mat):
    """Basis of the left kernel {x : x * mat = 0}, as rows.

    The kernel of an integer-linear map is saturated, so the rows span the
    full group of integer solutions.
    """
    h, u = hnf(mat)
    rank = len(hnf_pivots(h))
    return [row[:] for row in u[rank:]]


def orthogonal_complement(gram, vectors):
    """Basis of the saturated orthogonal complement {x : x * gram * v = 0
    for every v in vectors}, as rows; vectors and rows are coordinates on
    the basis whose Gram matrix is gram."""
    return kernel_basis(transpose([vec_mat(v, gram) for v in vectors]))


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
    Raises SingularMatrix on singular input (a trailing block vanishes).
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("snf expects a square matrix")
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
            if best is None:
                raise SingularMatrix("snf expects a nonsingular matrix")
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


def _ldl_integral(a):
    """Fraction-free LDL data of a positive definite integer matrix.

    Bareiss elimination without pivoting.  Returns (d, u): d[i] is the
    leading i x i principal minor (d[0] = 1, d[n] = det a), and row i of u
    is zero left of the diagonal, u[i][i] = d[i + 1] and u[i][j] for j > i is
    the minor on rows 0..i and columns 0..i-1, j.  Every entry is an integer
    and q(v) = sum_i (sum_{j >= i} u[i][j] * v[j])^2 / (d[i] * d[i + 1]).
    Raises IndefiniteForm when a minor is not positive.
    """
    n = len(a)
    u = [[0] * i + list(row[i:]) for i, row in enumerate(a)]
    d = [1]
    for i, ui in enumerate(u):
        p = ui[i]
        if p <= 0:
            raise IndefiniteForm("form is not positive definite")
        for r in range(i + 1, n):
            # the trailing block stays symmetric, so u[i][r] stands for u[r][i]
            f, ur = ui[r], u[r]
            for j in range(r, n):
                ur[j] = (ur[j] * p - f * ui[j]) // d[i]
        d.append(p)
    return d, u


def _lll_reduce_gram(a):
    """Integral LLL reduction (delta = 3/4) of a positive definite Gram matrix.

    Returns (reduced, U, ldl) with reduced = U * a * U^T, U unimodular and
    ldl = _ldl_integral(reduced); raises IndefiniteForm when a is not
    positive definite.  Bad bases straight out of an HNF kernel would
    otherwise blow the enumeration tree up by many orders of magnitude.
    De Weger's variant (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7) keeps only the integers d and lam[j][k] =
    d[j + 1] * mu[k][j] of _ldl_integral, starting from the basis vectors
    stably sorted by norm; every division in its updates is exact.  Each
    swap multiplies the positive integer d[1] * ... * d[n] by less than 3/4,
    so the loop needs no step budget.  The check at the end asserts that the
    LDL of reduced is the d and the strictly upper lam the loop decided on.
    """
    n = len(a)
    order = sorted(range(n), key=lambda i: a[i][i])
    h = [[int(i == j) for j in range(n)] for i in order]
    d, lam = _ldl_integral([[a[i][j] for j in order] for i in order])

    def size_reduce(k, l):
        if 2 * abs(lam[l][k]) <= d[l + 1]:
            return
        # q = floor(mu + 1/2) for mu = lam[l][k] / d[l + 1]
        q = (2 * lam[l][k] + d[l + 1]) // (2 * d[l + 1])
        h[k] = [x - q * y for x, y in zip(h[k], h[l])]
        lam[l][k] -= q * d[l + 1]
        for i in range(l):
            lam[i][k] -= q * lam[i][l]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = lam[k - 1][k]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * m * m:
            h[k], h[k - 1] = h[k - 1], h[k]
            for j in range(k - 1):
                lam[j][k], lam[j][k - 1] = lam[j][k - 1], lam[j][k]
            b = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[k][i]
                lam[k][i] = (d[k + 1] * lam[k - 1][i] - m * t) // d[k]
                lam[k - 1][i] = (b * t + m * lam[k][i]) // d[k + 1]
            d[k] = b
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    ht = transpose(h)   # reduced = (h a) h^T is symmetric: upper rows, mirrored
    reduced = [vec_mat(row, ht, i) for i, row in enumerate(mat_mul(h, a))]
    for i in range(n):
        reduced[i][:i] = [reduced[j][i] for j in range(i)]
    ldl = _ldl_integral(reduced)
    if ldl[0] != d or any(x[i + 1:] != lam[i][i + 1:] for i, x in enumerate(ldl[1])):
        raise AssertionError("reduction transform lost the Gram matrix")
    return reduced, h, ldl


def _enumerate_pos_def(ldl, target):
    """Yield one v of each +/- pair of integer vectors with v^T a v =
    target > 0, for the form a with ldl = _ldl_integral(a).

    Coordinate i spends x_i^2 / (d[i] * d[i + 1]) of the target, where
    x_i = sum_{j >= i} u[i][j] * v[j] (see _ldl_integral).  Level i carries
    s = d[i + 1] times the budget left for coordinates 0..i, an integer since
    d[i + 1] times a Schur complement of a is integral.  The bound
    |x_i| <= isqrt(s * d[i]) is exact, as is (s * d[i] - x_i^2) // d[i + 1].
    While every coordinate above i is 0 the centre x_i - d[i + 1] * v[i] is
    0, so v[i] starts at 0: the last nonzero coordinate of v is positive.
    """
    d, u = ldl
    n = len(u)
    v = [0] * n

    def rec(i, s, top):
        if i < 0:
            if s == 0:
                yield tuple(v)
            return
        ui, p = u[i], d[i + 1]
        c = 0
        for j in range(i + 1, n):
            if v[j]:
                c += ui[j] * v[j]
        r = isqrt(s * d[i])
        for vi in range(0 if top else -((r + c) // p), (r - c) // p + 1):
            x = p * vi + c
            v[i] = vi
            yield from rec(i - 1, (s * d[i] - x * x) // p, top and not vi)
        v[i] = 0

    yield from rec(n - 1, d[n] * target, True)


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
    _, u, ldl = _lll_reduce_gram(_pos_def_form(gram, target))
    return _canonical_pairs(tuple(vec_mat(v, u)) for v in _enumerate_pos_def(ldl, -target))


def has_norm_vector(gram, target):
    """True when some nonzero v satisfies v^T gram v = target (exact); the
    enumeration stops at its first vector."""
    _, _, ldl = _lll_reduce_gram(_pos_def_form(gram, target))
    return next(_enumerate_pos_def(ldl, -target), None) is not None


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


@lru_cache(maxsize=None)
def _small_totients(n):
    """(d, phi(d)) for every d with phi(d) <= n, ascending in d.

    phi(d) >= sqrt(d/2), so every such d is at most 2*n^2; phi is sieved up
    to that bound, each prime p scaling its multiples by (1 - 1/p).
    """
    top = 2 * n * n
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:   # untouched by a smaller prime, so p is prime
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    return tuple((d, phi[d]) for d in range(1, top + 1) if phi[d] <= n)


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Coefficients of the d-th cyclotomic polynomial, descending powers."""
    poly = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_div_exact(poly, _cyclotomic(e))
            if poly is None:
                raise AssertionError("cyclotomic division must be exact")
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
    powering), "infinite" otherwise.  The eigenvalues of a finite-order
    matrix are roots of unity, so |trace| > n already means "infinite",
    decided without the characteristic polynomial.  Past that bound, M^2 =
    I means order 2, or 1 when the trace is n (all eigenvalues +1); M^2 has
    finite order whenever M does, so |trace M^2| > n means "infinite".
    Past both, finite order forces the characteristic polynomial to be a
    product of cyclotomic polynomials; when it is, the only possible order
    is the lcm of their indices.
    """
    n = len(mat)
    trace = sum(mat[i][i] for i in range(n))
    if abs(trace) > n:
        return "infinite"
    square = mat_mul(mat, mat)
    if square == identity_matrix(n):
        return 1 if trace == n else 2
    if abs(sum(square[i][i] for i in range(n))) > n:
        return "infinite"
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
