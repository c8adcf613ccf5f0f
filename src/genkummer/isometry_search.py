"""Exhaustive search for lattice isometries carrying one 9A2 configuration
to another, and the polarized automorphism group of the degree-2 model for
L^2 = 20.

A candidate map is a block permutation sigma together with a swap bit per
block (send A_k to either member of target block sigma(k)); with "orthogonal
generator goes to orthogonal generator" this pins down a linear map on the
rank-19 lattice.  Of the 9! * 2^9 candidates, the 3-divisibility block
supports keep 432 permutations (a coset of AGL(2,3)) with two swap masks
each: 864.  NS lies between M0 = Z*L + <curves> and (1/3)*M0, so a candidate
preserves NS exactly when it keeps the glue generators t_1, t_2, t_3 (and
the gluing class when L^2 = 0 mod 6) in NS, a GF(3) test on their images;
its action on the discriminant group A_NS is read off the images of the
generators' lifts.  This verdict builds no matrix.

Candidates compose as (sigma, s) o (sigma', s') = (sigma o sigma', s' xor
s o sigma'); those onto a target are c o G for any one of them, c, where G
is the group of the 864 onto the source itself.  Let Stab be its subgroup
preserving NS, H the one acting on A_NS by +1.  The NS-preserving
candidates are p o Stab or none, so one verdict per coset of Stab finds p;
p o q o H acts on A_NS as p o q does, so one sign test per coset of H in
Stab finds the accepted maps.  |Stab| is 864, 72, 144 or 108 (L^2 = 2 mod 6,
6, 12, 0 mod 18), |H| = 18: at most 1 + 48 verdicts, and three for H.

Stab reads only the NS basis, one per case; the first search on a basis in
a process computes it and H from 864 verdicts, and keeps them with the
standard configuration's words (its orthogonal generator is L).  For 2 mod
6, NS = Z*L + K and the self-maps fix L, so H is the kernel of Stab ->
O(A_K) for every L^2 (Nikulin 1979, discriminant forms); for 0 mod 6 this
is measured (every admissible L^2 < 1000, in the tests).  Each search
checks that H's generators act by +1 and raises AssertionError if not.
Only accepted maps get a 19 x 19 matrix, re-checked by the reference path
(its own sparse back-substitution, and one Gram matrix of the target's rows
per search).  Maps of this shape preserve ample classes.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .exact_linalg import (
    gf3_kernel,
    identity_matrix,
    matrix_order,
    solve_hnf,
    vec_mat,
)
from .kummer_structures import construct, resolve_swap
from .ns_lattice import (
    DIM,
    DivisorClass,
    L_class,
    N_BLOCKS,
    curve_a,
    curve_b,
    curve_sum,
    fractional_generator,
    pairing_times_nine,
)


class NotAConfiguration(ValueError):
    """The supplied curve classes do not form a 9A2 configuration in NS."""


class WrongPolarization(ValueError):
    """The operation is specific to a polarization this model does not have."""


# ---------------------------------------------------------------------------
# configurations


def standard_config(ns):
    """The configuration ((A_1, B_1), ..., (A_9, B_9))."""
    return tuple((curve_a(j), curve_b(j)) for j in range(1, N_BLOCKS + 1))


def replacement_config(ns):
    """The alternate configuration with B_1 replaced by the Pell class.

    The roles of A_1 and B_1 are exchanged where resolve_swap says so
    (L^2 = 0 mod 18 with 3 not dividing y0, when the unswapped class is the
    reducible side).
    """
    swap = resolve_swap(ns)
    b1p, _ = construct(ns, swap=swap)
    first = (curve_b(1), b1p) if swap else (curve_a(1), b1p)
    return (first,) + tuple(
        (curve_a(j), curve_b(j)) for j in range(2, N_BLOCKS + 1))


def validate_config(ns, config):
    """Lattice coordinates of the classes C_1, D_1, ..., C_9, D_9 of config;
    raise NotAConfiguration unless it is a 9A2 configuration in NS.  The
    pairings come from _target_gram; the form is symmetric, so the first
    wrong pair i <= j is also the first of all 324."""
    if len(config) != N_BLOCKS or any(len(pair) != 2 for pair in config):
        raise NotAConfiguration("expected nine pairs of classes")
    flat = [c for pair in config for c in pair]
    coords = [ns.coords(c) for c in flat]
    if None in coords:
        raise NotAConfiguration("a configuration class is outside NS")
    for i, row in enumerate(_target_gram(ns.L2, [c.num for c in flat])):
        for j in range(i, len(row)):
            want = -2 if i == j else (1 if i // 2 == j // 2 else 0)
            if row[j] != 9 * want:
                raise NotAConfiguration(
                    f"classes {i} and {j} pair to the wrong value")
    return coords


def orthogonal_generator(ns, coords):
    """Primitive generator, with positive L-coefficient, of the orthogonal
    complement (rank 1) of a configuration's validate_config rows."""
    rows, _ = ns.complement(coords)
    gen = ns.class_from_coords(rows[0])
    return gen if gen.num[0] > 0 else -gen


# ---------------------------------------------------------------------------
# 3-divisibility words


def _divisibility_words(coords):
    """All words w in (Z/3)^9 with (1/3) sum_j w_j (C_j - D_j) in NS, from
    the validate_config rows of the configuration."""
    diffs = [[x - y for x, y in zip(coords[2 * k], coords[2 * k + 1])]
             for k in range(N_BLOCKS)]
    # left kernel of the 9 x 19 matrix of differences, over GF(3)
    basis = gf3_kernel(diffs)
    if len(basis) != 3:
        raise NotAConfiguration("3-divisible words must form (Z/3)^3")
    words = set()
    for a1 in range(3):
        for a2 in range(3):
            for a3 in range(3):
                w = tuple(
                    (a1 * basis[0][j] + a2 * basis[1][j] + a3 * basis[2][j]) % 3
                    for j in range(N_BLOCKS))
                words.add(w)
    return sorted(words)


def _support(word):
    return frozenset(j + 1 for j, x in enumerate(word) if x)


@dataclass(frozen=True)
class BlockDivisibilitySet:
    """The twelve 6-element block supports of 3-divisible classes."""

    subsets: tuple

    def __post_init__(self):
        canonical = sorted((frozenset(s) for s in self.subsets),
                           key=lambda s: sorted(s))
        if len(set(canonical)) != 12:
            raise NotAConfiguration("expected twelve distinct block supports")
        object.__setattr__(self, "subsets", tuple(canonical))


def _block_set(words):
    """The twelve six-block supports among a configuration's 27 words."""
    supports = [_support(w) for w in words]
    if sorted(map(len, supports)) != [0] + [6] * 24 + [9] * 2:
        raise NotAConfiguration("support profile must be 1/24/2 over 0/6/9 blocks")
    return BlockDivisibilitySet(tuple({s for s in supports if len(s) == 6}))


def block_sets(ns, config):
    """Six-block supports of the 3-divisible classes of a configuration."""
    return _block_set(_divisibility_words(validate_config(ns, config)))


# ---------------------------------------------------------------------------
# permutation prune


def _backtrack(bl, bl_prime):
    """Generate, in lexicographic order, the permutations of the nine blocks
    mapping every support of bl to a support of bl_prime."""
    full = frozenset(range(9))
    src3 = [full - frozenset(x - 1 for x in s) for s in bl.subsets]
    tgt3 = {full - frozenset(x - 1 for x in s) for s in bl_prime.subsets}
    by_last = {p: [] for p in range(9)}
    for t in src3:
        by_last[max(t)].append(tuple(t))
    img = [None] * 9
    used = [False] * 9

    def rec(pos):
        if pos == 9:
            yield tuple(x + 1 for x in img)
            return
        for w in range(9):
            if used[w]:
                continue
            img[pos] = w
            if all(frozenset(img[x] for x in t) in tgt3 for t in by_last[pos]):
                used[w] = True
                yield from rec(pos + 1)
                used[w] = False

    return rec(0)


@lru_cache(maxsize=None)
def _automorphisms(bl):
    return tuple(_backtrack(bl, bl))


def prune(bl, bl_prime):
    """All permutations of the nine blocks mapping every support of bl to a
    support of bl_prime, in lexicographic order (images of blocks 1..9).
    Both hold twelve distinct supports, so these are tau * Aut(bl) for the
    first one, tau; a configuration's complements are the lines of AG(2,3),
    so its Aut(bl) is AGL(2,3)."""
    tau = next(_backtrack(bl, bl_prime), None)
    return [] if tau is None else sorted(
        tuple(tau[a - 1] for a in aut) for aut in _automorphisms(bl))


# ---------------------------------------------------------------------------
# candidate matrices


@dataclass(frozen=True)
class IsometryCandidate:
    """One candidate map: block permutation, swap bits, and its matrix on
    the Q-basis (rows are images of the basis vectors)."""

    sigma: tuple        # images of blocks 1..9 (values 1..9)
    swaps: tuple        # True: A_k goes to the second member of the block
    matrix: tuple       # 19 x 19, integral for every accepted candidate
    disc_sign: int

    def to_json_dict(self):
        # only accepted candidates are kept; the order is not classified here
        return {
            "sigma": list(self.sigma),
            "swaps": "".join("1" if s else "0" for s in self.swaps),
            "status": "accepted",
            "disc_sign": self.disc_sign,
            "order": None,
        }


def _m_coords(c):
    """Integer coordinates of a class over the Q-basis (numerators divided
    by 3); every target class and orthogonal generator has them."""
    if any(x % 3 for x in c.num):
        raise AssertionError("a target class has non-integral Q-basis coordinates")
    return [x // 3 for x in c.num]


def _target_rows(l_target, target):
    """Q-basis coordinates of the image of L, then of the target's classes
    C_1, D_1, ..., C_9, D_9: every candidate matrix's rows are a selection
    of these 19."""
    return [_m_coords(l_target)] + [_m_coords(c) for pair in target for c in pair]


def _row_selection(sigma, swaps):
    """Indices into _target_rows of a candidate matrix's rows: the image of
    L, then the images of A_1, B_1, ..., A_9, B_9."""
    sel = [0]
    for k in range(N_BLOCKS):
        c = 2 * sigma[k] - 1   # C of the target block, D follows it
        sel += (c + 1, c) if swaps[k] else (c, c + 1)
    return sel


@lru_cache(maxsize=None)
def _sparse_basis(basis):
    # an NS basis is a rank-19 row HNF: row i has its pivot in column i
    return tuple(_sparse(r) for r in basis)


def basis_matrix(ns, mtilde):
    """Matrix of the map on the lattice basis, or None when the map does not
    preserve the lattice.  Form-preserving maps have determinant +-1, so
    integrality of this matrix is the whole of the preservation condition.
    It back-substitutes through the basis's sparse rows, not solve_hnf: it
    is the reference path that re-checks the verdicts, so it shares no
    solver with them."""
    brows = _sparse_basis(ns.basis)
    mrows = [_sparse(r) for r in mtilde]
    x_mat = []
    for row in brows:
        rem = [0] * DIM
        for i, b in row:
            for j, m in mrows[i]:
                rem[j] += b * m
        x = [0] * DIM
        for i, pivot_row in enumerate(brows):
            if rem[i]:
                q, r = divmod(rem[i], pivot_row[0][1])
                if r:
                    return None
                x[i] = q
                for j, b in pivot_row:
                    rem[j] -= q * b
        x_mat.append(x)
    return x_mat


def _disc_sign(ns, x_mat):
    """+1 or -1 when the map acts on the discriminant group by that sign on
    every generator; None otherwise.  Each image urow * x_mat adds up only
    the nonzero entries of x_mat (most rows of an accepted map have one)."""
    images = []
    for d, urow in ns.disc_transform_rows:
        ux = [0] * DIM
        for u, row in zip(urow, x_mat):
            for j, x in enumerate(row):
                if x:
                    ux[j] += u * x
        images.append((d, urow, ux))
    return _common_sign(images)


def _common_sign(images):
    """+1 or -1 when every image ux of a discriminant generator's lift urow
    (given as (d, urow, ux), coordinates on the lattice basis) is that sign
    times urow modulo d; None otherwise."""
    signs = {1, -1}
    for d, urow, ux in images:
        ok = set()
        if all((a - b) % d == 0 for a, b in zip(ux, urow)):
            ok.add(1)
        if all((a + b) % d == 0 for a, b in zip(ux, urow)):
            ok.add(-1)
        signs &= ok
        if not signs:
            return None
    return 1 if 1 in signs else -1


@lru_cache(maxsize=1)
def _q_basis_gram(L2):
    """Gram matrix (times nine) of the Q-basis (L, A_1, B_1, ..., A_9, B_9),
    by _target_gram: 19 pairings with L, the rest from the curve Gram."""
    return _target_gram(L2, identity_matrix(DIM))


@lru_cache(maxsize=1)
def _curve_gram():
    """The Q-basis Gram (times nine) at L^2 = 0: between curves, every L^2's."""
    unit = identity_matrix(DIM)
    return tuple(tuple(pairing_times_nine(0, a, b) for b in unit) for a in unit)


def _target_gram(L2, rows):
    """Gram matrix (times nine) of rows of numerators on the Q-basis: those of
    _target_rows, a configuration's classes, the Q-basis.  Two curve rows
    c * e_k (k >= 1, as (k, c)) pair by _curve_gram; only a pair touching
    another row calls pairing_times_nine."""
    curves = [t[0] if len(t := _sparse(r)) == 1 and t[0][0] else None for r in rows]
    table, n = _curve_gram(), len(rows)
    gram = [[0] * n for _ in range(n)]
    for i, a in enumerate(curves):
        for j, b in enumerate(curves[i:], i):
            gram[i][j] = gram[j][i] = (a[1] * b[1] * table[a[0]][b[0]] if a and b
                                       else pairing_times_nine(L2, rows[i], rows[j]))
    return gram


def _is_isometry(L2, target_gram, sel):
    """True when the candidate matrix with rows sel of _target_rows (images
    of the Q-basis) pairs as the Q-basis itself does: all 190 entries of
    the target Gram, read through the selection."""
    gram = _q_basis_gram(L2)
    return all(target_gram[a][sel[j]] == gram[i][j]
               for i, a in enumerate(sel) for j in range(i, DIM))


def _sparse(num):
    return tuple((i, x) for i, x in enumerate(num) if x)


@lru_cache(maxsize=1)
def _glue_and_lifts(basis, gluing, disc_rows):
    """Sparse numerators of the glue generators (they generate NS over L and
    the curves) and of the discriminant lifts u * basis, for the last NS."""
    glue = [fractional_generator(i) for i in (1, 2, 3)] + ([gluing] if gluing else [])
    return (tuple(_sparse(g.num) for g in glue),
            tuple((d, u, _sparse(vec_mat(u, basis))) for d, u in disc_rows))


class _MatrixFreeFilter:
    """Integrality and discriminant verdicts for the candidate maps onto one
    target configuration, from the images of the glue and lift rows (one
    _glue_and_lifts per NS, shared by a search's two filters), not a matrix.

    A candidate sends the Q-basis vector i to (1/3) times the numerators of
    the target class in row _row_selection(sigma, swaps)[i] of _target_rows,
    so a class with numerators n goes to the class with numerators
    (1/9) sum_i n_i * target_i.  The target numerators are kept sparse: in
    a replacement configuration only L's image and block 1 are dense.
    """

    def __init__(self, ns, l_target, target):
        self.ns = ns
        self.l_target = l_target
        # numerators of L's image and the target classes, in _target_rows order
        self._targets = tuple(_sparse(c.num) for c in (
            self.l_target, *(c for pair in target for c in pair)))
        self._glue, self._lifts = _glue_and_lifts(
            ns.basis, ns.gluing, ns.disc_transform_rows)

    @staticmethod
    def _image(rows, terms):
        """Numerators of the image of the class with sparse numerators
        terms, or None when it leaves (1/3) * M0 (they are not integers)."""
        acc = [0] * DIM
        for i, c in terms:
            for j, x in rows[i]:
                acc[j] += c * x
        for x in acc:
            if x % 3:
                return None
        return [x // 3 for x in acc]

    def verdict(self, sigma, swaps):
        """(integral, sign): whether the map preserves NS, and then its
        discriminant sign, +1 or -1, or None when it acts by neither."""
        rows = [self._targets[i] for i in _row_selection(sigma, swaps)]
        for terms in self._glue:
            img = self._image(rows, terms)
            if img is None or not self.ns.contains_numerators(img):
                return False, None

        def images():
            for d, urow, lift in self._lifts:
                img = self._image(rows, lift)
                ux = None if img is None else solve_hnf(self.ns.basis, range(DIM), img)
                if ux is None:
                    raise AssertionError("an NS-preserving map left NS")
                yield d, urow, ux

        return True, _common_sign(images())


# ---------------------------------------------------------------------------
# the search itself


@dataclass(frozen=True)
class SearchResult:
    """Accepted maps and where the other candidates went.

    status_counts sums to 9! * 2^9: "pruned" counts the permutations the
    block supports rule out (times 2^9 masks), "disc_fail" the maps that
    preserve NS but act on the discriminant group by neither sign, and
    "accepted" the rest of the NS-preserving maps.  "non_integral" counts
    every other candidate: the maps that do not preserve NS, and also the
    swap masks that the fully-supported words rule out before any map is
    tested.  The counts follow from |Stab| and the accepted maps (module
    docstring), not from a verdict on each candidate.
    """

    accepted: tuple
    prune_count: int
    status_counts: dict

    def to_json_dict(self):
        return {
            "prune_count": self.prune_count,
            "status_counts": dict(self.status_counts),
            "accepted": [c.to_json_dict() for c in self.accepted],
        }


def _word_candidates(src_words, tgt_words, sigmas):
    """The (sigma, swaps) pairs over the given permutations whose swap mask
    sends a fully supported source word to a fully supported target word.

    The other 3-divisible words need no test here: a map that preserves NS
    sends them to words, and the glue-generator test rejects any map that
    does not preserve NS."""
    c9 = next(w for w in src_words if len(_support(w)) == 9)
    tgt_nine = [w for w in tgt_words if len(_support(w)) == 9]
    for sigma in sigmas:
        for w9 in tgt_nine:
            # the fully supported word pins the swap mask up to this choice;
            # its entries are nonzero, so each product is 1 or 2 mod 3
            yield sigma, tuple((w9[sigma[j] - 1] * c9[j]) % 3 == 2
                               for j in range(N_BLOCKS))


def _compose(a, b):
    """The candidate a o b: first b = (sigma', s'), then a = (sigma, s)."""
    (sigma, s), (sigma2, s2) = a, b
    return (tuple(sigma[k - 1] for k in sigma2),
            tuple(x != s[k - 1] for x, k in zip(s2, sigma2)))


def _coset_reps(group, subgroup):
    """The first member of each left coset g o subgroup."""
    reps, seen = [], set()
    for g in group:
        if g not in seen:
            reps.append(g)
            seen.update(_compose(g, h) for h in subgroup)
    return tuple(reps)


_SELF_MAPS = {}


def _self_maps(ns):
    """The standard configuration's 3-divisible words, representatives of
    G / Stab and Stab / H, H and generators of H for this NS basis, from
    864 verdicts on its first use."""
    key = (ns.basis, ns.gluing)
    if key not in _SELF_MAPS:
        source = standard_config(ns)
        words = _divisibility_words(validate_config(ns, source))
        check = _MatrixFreeFilter(ns, L_class(), source)
        sigmas = _automorphisms(_block_set(words))
        group = tuple(_word_candidates(words, words, sigmas))
        verdicts = [check.verdict(*g) for g in group]
        stab = [g for g, (ok, _) in zip(group, verdicts) if ok]
        h = [g for g, v in zip(group, verdicts) if v == (True, 1)]
        gens, span = [], {group[0]}  # group[0] is the identity
        for x in h:
            if x not in span:
                gens.append(x)
                while more := {_compose(a, g) for a in span for g in gens} - span:
                    span |= more
        _SELF_MAPS[key] = (words, _coset_reps(group, stab), _coset_reps(stab, h),
                           tuple(h), tuple(gens))
    return _SELF_MAPS[key]


def search(ns, source, target):
    """All isometries of NS sending the source configuration to the target
    one (blockwise, respecting incidence) and the source orthogonal
    generator to the target one, acting by +-identity on the discriminant
    group.  Empty result means no such isometry exists.

    The candidate maps are built on the Q-basis (L, A_1, B_1, ..., A_9,
    B_9), so the source must be standard_config(ns); any other source
    raises NotAConfiguration.  Its generator is L and its words are cached
    per case, so only the target enters NS.  Of the permutations tau o
    Aut(bl) (prune) only tau is built; one candidate per coset is tested
    (module docstring); unless H acts by +1 here, AssertionError is raised.
    """
    if tuple(map(tuple, source)) != standard_config(ns):
        raise NotAConfiguration("the source must be the standard configuration")
    tgt_coords = validate_config(ns, target)
    src_words, g_reps, stab_reps, h, h_gens = _self_maps(ns)
    tgt_words = _divisibility_words(tgt_coords)
    bl = _block_set(src_words)
    tau = next(_backtrack(bl, _block_set(tgt_words)), None)
    own = _MatrixFreeFilter(ns, L_class(), source)
    if any(own.verdict(*g) != (True, 1) for g in h_gens):
        raise AssertionError("a cached self-map does not act by +1 on A_NS")

    check = _MatrixFreeFilter(ns, orthogonal_generator(ns, tgt_coords), target)
    first = next(_word_candidates(src_words, tgt_words, [tau] if tau else []), None)
    cosets = [_compose(first, r) for r in g_reps] if first else []
    p = next((c for c in cosets if check.verdict(*c)[0]), None)
    accepted, rows = [], None
    for q in stab_reps if p else ():
        pq = _compose(p, q)
        _, sign = check.verdict(*pq)
        for sigma, swaps in (_compose(pq, x) for x in h) if sign else ():
            if rows is None:   # built here, so a search that accepts nothing skips it
                rows = _target_rows(check.l_target, target)
                gram = _target_gram(ns.L2, rows)
            sel = _row_selection(sigma, swaps)
            mtilde = [rows[i] for i in sel]
            x_mat = basis_matrix(ns, mtilde)
            if x_mat is None or _disc_sign(ns, x_mat) != sign:
                raise AssertionError("matrix-free verdict disagrees with the basis matrix")
            if not _is_isometry(ns.L2, gram, sel):
                raise AssertionError("accepted candidate must preserve the form")
            accepted.append(IsometryCandidate(
                sigma, swaps, tuple(map(tuple, mtilde)), disc_sign=sign))

    accepted.sort(key=lambda c: (c.sigma, c.swaps))
    prune_count = len(_automorphisms(bl)) if tau else 0
    integral = len(stab_reps) * len(h) if p else 0
    per_sigma = 2 ** 9
    counts = {
        "pruned": (factorial(9) - prune_count) * per_sigma,
        "non_integral": prune_count * per_sigma - integral,
        "disc_fail": integral - len(accepted),
        "accepted": len(accepted),
    }
    return SearchResult(tuple(accepted), prune_count, counts)


# ---------------------------------------------------------------------------
# the degree-2 model for L^2 = 20 and its polarized automorphisms


@dataclass(frozen=True)
class D2Configuration:
    """The 36 degree-1 rational curves of the double-plane model: the
    standard configuration plus its mirror under the covering involution."""

    d2: DivisorClass
    a: tuple
    b: tuple
    e: tuple
    f: tuple


def d2_configuration(ns):
    """Build and verify the 36-curve configuration attached to the ample
    square-2 class for L^2 = 20."""
    if ns.L2 != 20:
        raise WrongPolarization("the degree-2 model needs L^2 = 20")
    d2 = L_class() - curve_sum()
    if ns.square(d2) != 2 or not ns.is_chamber_ample(d2):
        raise AssertionError("the degree-2 class must be chamber-ample of square 2")
    a = tuple(curve_a(j) for j in range(1, N_BLOCKS + 1))
    b = tuple(curve_b(j) for j in range(1, N_BLOCKS + 1))
    e = tuple(d2 - c for c in a)
    f = tuple(d2 - c for c in b)
    for c in a + b + e + f:
        if ns.square(c) != -2 or ns.pairing(d2, c) != 1 or not ns.contains(c):
            raise AssertionError("every curve must be a degree-1 root")
    validate_config(ns, tuple(zip(e, f)))
    return D2Configuration(d2, a, b, e, f)


@dataclass(frozen=True)
class AutElement:
    perm: tuple          # images of the 36 curves (indices 0..35)
    disc_sign: int
    order: int


@dataclass(frozen=True)
class AutD2Group:
    """Automorphism group of the polarized degree-2 model, as permutations
    of the 36 curves."""

    elements: tuple
    sigma_index: int     # the central involution swapping the two mirrors
    orbit_a1: tuple
    orbit_b1: tuple
    center_indices: tuple
    structure: str

    @property
    def order(self):
        return len(self.elements)

    def to_json_dict(self):
        return {
            "order": self.order,
            "structure": self.structure,
            "center_size": len(self.center_indices),
            "sigma_order": self.elements[self.sigma_index].order,
            "orbit_sizes": [len(self.orbit_a1), len(self.orbit_b1)],
            "element_orders": sorted(e.order for e in self.elements),
            "disc_signs": sorted(e.disc_sign for e in self.elements),
        }


def compute_aut_d2(ns):
    """Polarized automorphism group of the degree-2 model for L^2 = 20.

    Any symmetry of the labelled intersection graph of the 36 curves fixing
    the degree-2 class sends mirror pairs to mirror pairs, so it is a block
    permutation combined with an optional global mirror swap; both halves
    are enumerated with the pruned configuration search (never a 36! scan),
    filtered by integrality and the +-identity discriminant action.  One
    Cayley table then checks closure and gives the element orders, the
    center and the group structure.
    """
    cfg = d2_configuration(ns)
    source = standard_config(ns)
    mirror_config = tuple(zip(cfg.e, cfg.f))

    pairs = []
    for shift, target in ((0, source), (18, mirror_config)):
        for cand in search(ns, source, target).accepted:
            perm = [None] * 36
            for k, block in enumerate(cand.sigma):
                first, second = shift + block - 1, shift + block + 8
                if cand.swaps[k]:
                    first, second = second, first
                perm[k] = first
                perm[9 + k] = second
            for v in range(18):
                perm[v + 18] = (perm[v] + 18) % 36   # the mirror partner
            pairs.append((tuple(perm), cand.disc_sign))
    pairs.sort()

    index = {perm: i for i, (perm, _) in enumerate(pairs)}
    table = [[index.get(tuple(p[x] for x in q)) for q, _ in pairs]
             for p, _ in pairs]
    if any(None in row for row in table):
        raise AssertionError("group is not closed under composition")
    # a finite set of permutations closed under composition is a group, so
    # it holds the identity, and stepping through g, g^2, ... reaches it
    identity = index[tuple(range(36))]

    def order(i):
        k, power = 1, i
        while power != identity:
            k, power = k + 1, table[power][i]
        return k

    elements = [AutElement(perm=perm, disc_sign=sign, order=order(i))
                for i, (perm, sign) in enumerate(pairs)]
    n = len(elements)
    center = tuple(i for i in range(n)
                   if all(table[i][j] == table[j][i] for j in range(n)))
    mirror = tuple(list(range(18, 36)) + list(range(18)))
    if mirror not in index:
        raise AssertionError("the mirror involution must be an automorphism")
    sigma_index = index[mirror]

    def orbit(start):
        # the elements are closed under composition, so they are the group
        return tuple(sorted({el.perm[start] for el in elements}))

    structure = _structure_name(elements, table, center, sigma_index)
    return AutD2Group(
        elements=tuple(elements),
        sigma_index=sigma_index,
        orbit_a1=orbit(0),
        orbit_b1=orbit(9),
        center_indices=center,
        structure=structure,
    )


def _structure_name(elements, table, center, sigma_index):
    """Identify the group from its multiplication table.

    The expected shape is the direct product of the order-2 center with a
    nonabelian order-18 subgroup whose Sylow 3-subgroup is elementary
    abelian and whose own center is trivial; that pins the order-18 factor
    uniquely among the five groups of order 18.
    """
    n = len(elements)
    if n != 36:
        return f"unrecognized order {n}"
    if len(center) != 2 or sigma_index not in center:
        return "unrecognized center"
    plus = [i for i in range(n) if elements[i].disc_sign == 1]
    if len(plus) != 18 or sigma_index in plus:
        return "unrecognized splitting"
    plus_set = set(plus)
    if any(table[i][j] not in plus_set for i in plus for j in plus):
        return "unrecognized splitting"
    orders = sorted(elements[i].order for i in plus)
    if orders != [1] + [2] * 9 + [3] * 8:
        return f"unrecognized element orders {orders}"
    h_center = [i for i in plus
                if all(table[i][j] == table[j][i] for j in plus)]
    if len(h_center) != 1:
        return "unrecognized order-18 factor"
    return "Z2 x (Z3 : S3)"


# ---------------------------------------------------------------------------
# order classification


def classify_order(candidate):
    """Exact multiplicative order of an accepted candidate's matrix: an int,
    or "infinite"; see matrix_order.

    Most accepted 19 x 19 maps have |trace| > 19 and are decided infinite
    by the trace bound alone, and most of the rest by M^2 (involutions, or
    |trace M^2| > 19); the few left go through the characteristic
    polynomial and exact powering.
    """
    return matrix_order([list(r) for r in candidate.matrix])
