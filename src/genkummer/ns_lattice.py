"""Neron-Severi lattice of a generalized Kummer surface.

Everything is expressed in the rank-19 Q-basis (L, A1, B1, ..., A9, B9),
where L is the positive generator orthogonal to the nine A2 blocks of
(-2)-curves (A_j, B_j).  A divisor class is stored as 19 integer numerators
n with the class equal to (1/3) * sum(n_i * basis_i); a class has integral
curve coefficients exactly when n_1..n_18 are all divisible by 3.

The curve span is indexed in blocks: coordinate 0 is L, block j occupies
coordinates 2j-1 (A_j) and 2j (B_j), for j = 1..9.  The block ordering of
the fractional and gluing patterns below is a fixed convention that the
isometry search relies on, so it is part of the wire format.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

from .exact_linalg import (
    det_bareiss,
    enumerate_norm_vectors,
    gf3_echelon,
    gf3_reduce,
    has_norm_vector,
    hnf,
    hnf_pivots,
    mat_mul,
    orthogonal_complement,
    snf,
    solve_hnf,
    transpose,
    vec_mat,
)

DIM = 19
N_BLOCKS = 9

CASE_TWO_MOD6 = "TWO_MOD6"
CASE_ZERO_MOD18 = "ZERO_MOD18"
CASE_SIX_MOD18 = "SIX_MOD18"
CASE_TWELVE_MOD18 = "TWELVE_MOD18"


class InvalidPolarization(ValueError):
    """The requested self-intersection L^2 is not 0 or 2 mod 6 (or < 2)."""


class NotInLattice(ValueError):
    """A divisor class is not integral on this Neron-Severi lattice."""


@dataclass(frozen=True)
class DivisorClass:
    """A class (1/3)(n0*L + n1*A1 + n2*B1 + ... + n17*A9 + n18*B9)."""

    num: tuple

    def __post_init__(self):
        num = tuple(self.num)
        if len(num) != DIM or any(type(x) is not int for x in num):
            raise ValueError(f"divisor class needs {DIM} integer numerators")
        object.__setattr__(self, "num", num)

    def __add__(self, other):
        return DivisorClass(tuple(a + b for a, b in zip(self.num, other.num)))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return DivisorClass(tuple(-a for a in self.num))

    def __rmul__(self, k):
        return DivisorClass(tuple(k * a for a in self.num))

    __mul__ = __rmul__

    def to_json(self):
        return list(self.num)


def L_class():
    return DivisorClass((3,) + (0,) * (DIM - 1))


def curve_a(j):
    """The curve A_j, j in 1..9."""
    num = [0] * DIM
    num[2 * j - 1] = 3
    return DivisorClass(tuple(num))


def curve_b(j):
    """The curve B_j, j in 1..9."""
    num = [0] * DIM
    num[2 * j] = 3
    return DivisorClass(tuple(num))


def curve_sum():
    """The sum of the 18 curves, sum_j (A_j + B_j)."""
    return DivisorClass((0,) + (3,) * (DIM - 1))


def _block_pattern(blocks):
    """Class (1/3) * sum_j c_j (A_j - B_j) for blocks = {j: c_j}."""
    num = [0] * DIM
    for j, c in blocks.items():
        num[2 * j - 1] = c
        num[2 * j] = -c
    return DivisorClass(tuple(num))


# One-third classes adjoined to the curve span to form the rank-18 sublattice
# generated by the nine A2 blocks; their block supports drive everything
# 3-divisible downstream.
_FRAC_BLOCKS = (
    {j: 1 for j in range(1, 10)},
    {2: 1, 3: 2, 6: 1, 7: 2, 8: 1, 9: 2},
    {4: 1, 5: 2, 6: 1, 7: 2, 8: 2, 9: 1},
)


def fractional_generator(i):
    """Generator t_i (i = 1..3) of the curve-block lattice over the curve span."""
    return _block_pattern(_FRAC_BLOCKS[i - 1])


def pairing_times_nine(L2, n, m):
    """9 * (intersection number), an integer for any two numerator vectors;
    shorter ones of one odd length are classes on (L, A_1, B_1, ...)."""
    total = L2 * n[0] * m[0]
    for j in range(1, len(n), 2):
        a, b = n[j], n[j + 1]
        ap, bp = m[j], m[j + 1]
        total += -2 * a * ap + a * bp + b * ap - 2 * b * bp
    return total


# ---------------------------------------------------------------------------
# the rank-18 curve-block lattice


@dataclass(frozen=True)
class K3Lattice:
    """The negative definite rank-18 lattice spanned by the nine A2 blocks
    together with the three one-third classes; discriminant 27."""

    basis: tuple   # 18 rows of 18 scaled curve coordinates (HNF)
    gram: tuple
    # U * gram * V = diag(factors), the Smith normal form (see _case_template)
    factors: tuple
    snf_u: tuple
    snf_v: tuple


def _pairing(L2, n, m):
    """Intersection number of two classes of the lattice, asserting it is
    integral."""
    q, r = divmod(pairing_times_nine(L2, n, m), 9)
    if r:
        raise AssertionError("non-integral pairing on an integral basis")
    return q


def _pairings(L2, n, rows):
    """Intersection numbers of n with each row, asserting each is integral."""
    return tuple(_pairing(L2, n, m) for m in rows)


@lru_cache(maxsize=None)
def build_k3():
    """Integral basis, Gram matrix and Smith normal form of the curve-block
    lattice."""
    gens = [curve(j) for j in range(1, N_BLOCKS + 1) for curve in (curve_a, curve_b)]
    gens += [fractional_generator(i) for i in (1, 2, 3)]
    # curve coordinates only: the L-coefficient of every generator is 0
    h, _ = hnf([list(c.num[1:]) for c in gens])
    basis = tuple(tuple(r) for r in h[:18])
    if len(hnf_pivots(h)) != 18:
        raise AssertionError("curve-block lattice must have rank 18")
    # curve coordinates only: prepend a zero L-coefficient
    rows = [(0,) + row for row in basis]
    gram = tuple(_pairings(0, n, rows) for n in rows)
    factors, u, v = snf([list(r) for r in gram])
    det = prod(factors)
    if det != 27:
        raise AssertionError(f"curve-block lattice has discriminant {det}, not 27")
    return K3Lattice(basis, gram, tuple(factors),
                     tuple(map(tuple, u)), tuple(map(tuple, v)))


# ---------------------------------------------------------------------------
# root systems


@dataclass(frozen=True)
class RootComponent:
    label: str
    roots: tuple


@dataclass(frozen=True)
class RootSystem:
    roots: tuple       # all norm -2 classes, closed under negation
    components: tuple  # orthogonal irreducible pieces, ADE-labelled

    @property
    def component_labels(self):
        return tuple(c.label for c in self.components)


def _ade_label(rank, pair_count):
    if pair_count == rank * (rank + 1) // 2:
        return f"A{rank}"
    if rank >= 4 and pair_count == rank * (rank - 1):
        return f"D{rank}"
    for name, r, pairs in (("E6", 6, 36), ("E7", 7, 63), ("E8", 8, 120)):
        if rank == r and pair_count == pairs:
            return name
    raise AssertionError(f"no ADE type with rank {rank} and {pair_count} root pairs")


def _decompose_roots(L2, roots):
    """Partition roots, listed as pairs rep, -rep, into irreducible components.

    The form is block diagonal on L (coordinate 0) and the blocks (A_j, B_j)
    (coordinates 2j - 1, 2j), so only two representatives that share L or a
    block are paired.
    """
    reps = roots[::2]
    n = len(reps)
    parent = list(range(n))
    supports = [{(k + 1) // 2 for k, x in enumerate(rep.num) if x} for rep in reps]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if (not supports[i].isdisjoint(supports[j])
                    and pairing_times_nine(L2, reps[i].num, reps[j].num)):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    components = []
    for members in groups.values():
        block = [list(reps[i].num) for i in members]
        h, _ = hnf(block)
        rank = len(hnf_pivots(h))
        label = _ade_label(rank, len(members))
        components.append(RootComponent(
            label, tuple(c for i in members for c in roots[2 * i:2 * i + 2])))
    components.sort(key=lambda comp: comp.roots[0].num)
    return tuple(components)


# ---------------------------------------------------------------------------
# the full rank-19 lattice


# Per L^2 mod 18: the case and the pattern v of the gluing class (L + v)/3,
# in the representatives w_1 = {5: 1, 7: 1, 8: 1}, w_2 = {4: 2, 6: 1, 7: 2,
# 8: 1} and w_3 = {3: 1, 5: 1, 6: 1} of the discriminant group of K.
_GLUING = {
    0: (CASE_ZERO_MOD18, {5: 1, 7: 1, 8: 1}),                    # w_1
    6: (CASE_SIX_MOD18, {4: 2, 6: 1, 7: 2, 8: 1}),               # w_2
    12: (CASE_TWELVE_MOD18, {3: 1, 4: -2, 5: 1, 7: -2, 8: -1}),  # w_3 - w_2
}


def gluing_class(L2):
    """The index-3 gluing vector (L + v)/3 adjoined in the 0 mod 6 cases,
    with v = w_1, w_2 or w_3 - w_2 for L^2 = 0, 6 or 12 mod 18."""
    if L2 % 18 not in _GLUING:
        raise InvalidPolarization(f"L^2 = {L2} has no gluing vector")
    num = list(_block_pattern(_GLUING[L2 % 18][1]).num)
    num[0] = 1
    return DivisorClass(tuple(num))


@lru_cache(maxsize=None)
def _case_template(extra):
    """What NSModel needs that depends only on the case, that is on the
    class `extra` (L or the gluing class) joined to K.

    NS meets L-perp in K, so by uniqueness of the HNF rows 1..18 of the
    basis are K's and only row 0 is reduced.  Only row 0 pairs with L, so
    the Gram matrix is G = [[g00, t], [t^T, K]] and only g00 depends on L^2.
    With U_K K V_K = diag(f), diag(1, U_K) G diag(1, V_K) is
    [[g00, a], [b^T, diag(f)]] for a = t V_K, b = t U_K^T.  Clearing a_i and
    b_i against each unit f_i leaves a unit diagonal and the block
    [[g00 - sum a_i b_i, a_J], [b_J^T, diag(f_J)]] on the other indices J,
    so G and the block share their non-unit invariant factors, and a row
    of the block's U lifts to one of G's as a row vector times `lift`.
    Rows 1..18 of G are checked even here, once per case; NSModel checks
    only g00, and the discriminant as the block's determinant a + b * corner.

    Returns (basis, GF(3) echelon, rows 1..18 of G, the block less g00, lift, (a, b)).
    """
    k3 = build_k3()
    h, _ = hnf([list(extra.num)] + [[0] + list(r) for r in k3.basis])
    if len(hnf_pivots(h)) != DIM:
        raise AssertionError("Neron-Severi basis must have rank 19")
    basis = tuple(tuple(r) for r in h)
    t = _pairings(0, basis[0], basis[1:])
    a = vec_mat(t, k3.snf_v)
    b = vec_mat(t, list(zip(*k3.snf_u)))
    n = k3.factors.count(1)  # the units come first in the divisibility chain
    rest = range(n, DIM - 1)
    block = ((-sum(x * y for x, y in zip(a[:n], b[:n])), *a[n:]),)
    block += tuple((b[i], *(k3.factors[i] if j == i else 0 for j in rest)) for i in rest)
    row0 = vec_mat(a[:n], k3.snf_u[:n])
    lift = ((1, *(-x for x in row0)),) + tuple((0,) + r for r in k3.snf_u[n:])
    lower = tuple((t[i],) + k3.gram[i] for i in range(DIM - 1))
    if any(row[i + 1] % 2 for i, row in enumerate(lower)):
        raise AssertionError("lattice is not even")
    det = [det_bareiss([[c, *block[0][1:]], *map(list, block[1:])]) for c in (0, 1)]
    return basis, gf3_echelon(basis), lower, block, lift, (det[0], det[1] - det[0])


class NSModel:
    """Immutable model of the rank-19 Neron-Severi lattice for a given L^2.

    For L^2 = 2 mod 6 the lattice is Z*L plus the curve-block lattice K; for
    L^2 = 0 mod 6 an extra gluing class (L + v)/3 is adjoined, giving an
    index-3 overlattice.  The basis, and all of the Gram matrix but its
    corner g00, depend only on the case and are built once per case
    (_case_template).  Per L^2 the model computes g00 and checks the
    discriminant, a determinant affine in g00; the discriminant group comes
    on first use, from the Smith form of a 4 x 4 block, not the 19 x 19 Gram
    matrix.  Queries are pure, so instances can be shared across threads or processes.
    """

    def __init__(self, L2):
        if L2 < 2 or L2 % 6 not in (0, 2):
            raise InvalidPolarization(f"L^2 = {L2} must be >= 2 and 0 or 2 mod 6")
        self.L2 = L2
        if L2 % 6 == 2:
            self.case, self.gluing = CASE_TWO_MOD6, None
        else:
            self.case, self.gluing = _GLUING[L2 % 18][0], gluing_class(L2)

        extra = L_class() if self.gluing is None else self.gluing
        self.basis, self._mod3, lower, block, self._lift, (a, b) = _case_template(extra)
        # rows 1..18 carry no L, so only g00 depends on L^2
        g00 = _pairing(L2, self.basis[0], self.basis[0])
        if g00 % 2:
            raise AssertionError("lattice is not even")
        self.gram = ((g00, *(row[0] for row in lower)),) + lower
        corner = block[0][0] + g00
        self._block = ((corner, *block[0][1:]),) + block[1:]
        self._disc = 27 * L2 if self.case == CASE_TWO_MOD6 else 3 * L2
        if a + b * corner != self._disc:
            raise AssertionError(f"discriminant {a + b * corner} != {self._disc}")

    @cached_property
    def disc_transform_rows(self):
        """(f, u) per non-unit factor f of the SNF of the Gram matrix, in order:
        u / f, a row of the block's U lifted to the basis, lifts a generator of
        the cyclic piece Z/f of the discriminant group (in basis coordinates)."""
        factors, u, _ = snf([list(r) for r in self._block])
        if prod(factors) != self._disc:
            raise AssertionError(f"discriminant {prod(factors)} != {self._disc}")
        return tuple((f, tuple(vec_mat(u[i], self._lift)))
                     for i, f in enumerate(factors) if f != 1)

    disc_factors = property(lambda self: tuple(f for f, _ in self.disc_transform_rows))

    # -- membership -------------------------------------------------------

    def contains(self, c):
        """True iff the class lies in the lattice."""
        return self.contains_numerators(c.num)

    def contains_numerators(self, num):
        """contains() for the class with these integer numerators: the
        lattice holds 3 * Z^19, so only their residues mod 3 matter."""
        return not any(gf3_reduce(self._mod3, num))

    def coords(self, c):
        """Integer coordinates of a class on the lattice basis, or None."""
        return solve_hnf(self.basis, list(range(DIM)), c.num)

    # -- pairing ----------------------------------------------------------

    def pairing(self, c, d):
        """Intersection number of two lattice classes, an integer (asserted)."""
        return _pairing(self.L2, c.num, d.num)

    def square(self, c):
        return self.pairing(c, c)

    # -- class from basis coordinates --------------------------------------

    def class_from_coords(self, y):
        return DivisorClass(tuple(vec_mat(y, self.basis)))

    # -- orthogonal complements and roots -----------------------------------

    def _lattice_coords(self, classes):
        deltas = [self.coords(d) for d in classes]
        if None in deltas:
            raise NotInLattice("class is not in the lattice")
        return deltas

    def orthogonal_sublattice(self, *classes):
        """Basis (in lattice coordinates) and Gram matrix of the sublattice
        orthogonal to every given class."""
        return self.complement(self._lattice_coords(classes))

    def complement(self, deltas):
        """orthogonal_sublattice() of classes given in lattice coordinates;
        mat_mul skips the zeros of the rows, which are mostly unit vectors."""
        rows = orthogonal_complement(self.gram, deltas)
        return rows, mat_mul(rows, transpose(mat_mul(rows, self.gram)))

    def is_chamber_ample(self, d):
        """True iff d^2 > 0 and d-perp contains no class of square -2.

        Such a class sits in the interior of a Weyl chamber; this is the
        testable content of ampleness used throughout.
        """
        delta = self._lattice_coords([d])
        if self.square(d) <= 0:
            return False
        _, sub_gram = self.complement(delta)
        return not has_norm_vector(sub_gram, -2)

    def min_ample_u(self):
        """Least u >= 1 making u*L - sum_j (A_j + B_j) chamber-ample."""
        for u in range(1, 65):
            if self.is_chamber_ample(u * L_class() - curve_sum()):
                return u
        raise AssertionError("no ample multiple found below the search cap")

    def root_system_of_orthogonal(self, d):
        """All square -2 classes orthogonal to d, split into ADE components."""
        delta = self._lattice_coords([d])
        if self.square(d) <= 0:
            raise ValueError("orthogonal root system needs d^2 > 0")
        rows, sub_gram = self.complement(delta)
        to_num = mat_mul(rows, self.basis)
        # the solutions come in pairs +-v with the representative first
        reps = [DivisorClass(tuple(vec_mat(v, to_num)))
                for v in enumerate_norm_vectors(sub_gram, -2)[::2]]
        roots = tuple(c for rep in reps for c in (rep, -rep))
        return RootSystem(roots, _decompose_roots(self.L2, roots))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "L2": self.L2,
            "case": self.case,
            "basis": [list(r) for r in self.basis],
            "gram": [list(r) for r in self.gram],
            "disc": list(self.disc_factors),
        }


def build_ns(L2):
    """Construct the Neron-Severi model for an admissible L^2."""
    return NSModel(L2)
