"""Exhaustive search for lattice isometries carrying one 9A2 configuration
to another, and the polarized automorphism group of the degree-2 model for
L^2 = 20.

A candidate map is a block permutation sigma together with a swap bit per
block (send A_k to either member of target block sigma(k)); together with
"orthogonal generator goes to orthogonal generator" this pins down a linear
map on the whole rank-19 lattice.  Of the 9! * 2^9 = 185,794,560 candidates,
almost all die on the 3-divisibility block supports (the prune), and the
surviving permutations admit at most two swap masks compatible with the
fully-supported 3-divisible class.  Every (permutation, mask) pair that also
maps the 3-divisible words onto the target's (864 of them for L^2 = 8: 432
permutations times two masks) is tested without building its matrix.  NS
lies between M0 = Z*L + <curves> and (1/3)*M0, and the map sends L and the
curves into NS, so it preserves NS exactly when it keeps the glue generators
t_1, t_2, t_3 (and the gluing class when L^2 = 0 mod 6) in NS: a GF(3) test
on their images.  The +-identity action on the discriminant group is then
read off the images of the discriminant generators' lifts.  A 19 x 19 matrix
is built only for the candidates that pass both tests (18 of the 864 for
L^2 = 8), and the reference matrix path (basis coordinates from the shared
HNF solver) re-checks each of them.  Preservation of ample classes holds
automatically for maps of this shape and is not re-tested per candidate.

A search is one pass in one process: it validates each configuration and
builds its 3-divisible words once, and the block supports, the prune and
the word test all read those words.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

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
    fractional_generator,
    pairing_times_nine,
    zero_class,
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
    """Raise NotAConfiguration unless config is a 9A2 configuration in NS."""
    if len(config) != N_BLOCKS or any(len(pair) != 2 for pair in config):
        raise NotAConfiguration("expected nine pairs of classes")
    flat = [c for pair in config for c in pair]
    for c in flat:
        if not ns.contains(c):
            raise NotAConfiguration("a configuration class is outside NS")
    for i, c in enumerate(flat):
        for j, d in enumerate(flat):
            want = -2 if i == j else (1 if i // 2 == j // 2 else 0)
            if pairing_times_nine(ns.L2, c.num, d.num) != 9 * want:
                raise NotAConfiguration(
                    f"classes {i} and {j} pair to the wrong value")


def orthogonal_generator(ns, config):
    """Primitive generator of the orthogonal complement of a configuration,
    normalized to positive L-coefficient."""
    from .exact_linalg import kernel_basis

    gram = [list(r) for r in ns.gram]
    cols = []
    for pair in config:
        for c in pair:
            delta = ns.coords(c)
            if delta is None:
                raise NotAConfiguration("a configuration class is outside NS")
            cols.append(vec_mat(delta, gram))
    mat = [[col[i] for col in cols] for i in range(DIM)]
    rows = kernel_basis(mat)
    if len(rows) != 1:
        raise NotAConfiguration("orthogonal complement must have rank 1")
    gen = ns.class_from_coords(rows[0])
    if gen.num[0] == 0:
        raise AssertionError("orthogonal generator cannot avoid L")
    return gen if gen.num[0] > 0 else -gen


# ---------------------------------------------------------------------------
# 3-divisibility words


def _divisibility_words(ns, config):
    """All words w in (Z/3)^9 with (1/3) sum_j w_j (C_j - D_j) in NS."""
    diffs = []
    for c, d in config:
        delta = ns.coords(c - d)
        if delta is None:
            raise NotAConfiguration("difference class left the lattice")
        diffs.append(delta)
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
    if len(words) != 27:
        raise NotAConfiguration("expected 27 distinct 3-divisible words")
    return sorted(words), basis


def _support(word):
    return frozenset(j + 1 for j, x in enumerate(word) if x)


@dataclass(frozen=True)
class BlockDivisibilitySet:
    """The twelve 6-element block supports of 3-divisible classes."""

    subsets: tuple

    def __post_init__(self):
        canonical = sorted((frozenset(s) for s in self.subsets),
                           key=lambda s: sorted(s))
        object.__setattr__(self, "subsets", tuple(canonical))


def _block_set(words):
    """The twelve six-block supports among a configuration's 27 words."""
    supports = {_support(w) for w in words if len(_support(w)) == 6}
    sizes = sorted(len(_support(w)) for w in words)
    if sizes != [0] + [6] * 24 + [9] * 2:
        raise NotAConfiguration("support profile must be 1/24/2 over 0/6/9 blocks")
    if len(supports) != 12:
        raise NotAConfiguration("expected exactly 12 six-block supports")
    return BlockDivisibilitySet(tuple(supports))


def block_sets(ns, config):
    """Six-block supports of the 3-divisible classes of a configuration."""
    validate_config(ns, config)
    return _block_set(_divisibility_words(ns, config)[0])


# ---------------------------------------------------------------------------
# permutation prune


def prune(bl, bl_prime):
    """All permutations of the nine blocks mapping every support of bl to a
    support of bl_prime, in lexicographic order (images of blocks 1..9)."""
    full = frozenset(range(9))
    src3 = [full - frozenset(x - 1 for x in s) for s in bl.subsets]
    tgt3 = {full - frozenset(x - 1 for x in s) for s in bl_prime.subsets}
    by_last = {p: [] for p in range(9)}
    for t in src3:
        by_last[max(t)].append(tuple(t))
    img = [None] * 9
    used = [False] * 9
    out = []

    def rec(pos):
        if pos == 9:
            out.append(tuple(x + 1 for x in img))
            return
        for w in range(9):
            if used[w]:
                continue
            img[pos] = w
            if all(frozenset(img[x] for x in t) in tgt3 for t in by_last[pos]):
                used[w] = True
                rec(pos + 1)
                used[w] = False
        img[pos] = None

    rec(0)
    return out


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
    """Coordinates of a class over the Q-basis (numerators divided by 3)."""
    if all(x % 3 == 0 for x in c.num):
        return [x // 3 for x in c.num]
    return [Fraction(x, 3) for x in c.num]


def _candidate_matrix(l_target, target, sigma, swaps):
    """Rows: image of L, then images of A_1, B_1, ..., A_9, B_9."""
    rows = [_m_coords(l_target)]
    for k in range(N_BLOCKS):
        c, d = target[sigma[k] - 1]
        first, second = (d, c) if swaps[k] else (c, d)
        rows.append(_m_coords(first))
        rows.append(_m_coords(second))
    return rows


def basis_matrix(ns, mtilde):
    """Matrix of the map on the lattice basis, or None when the map does not
    preserve the lattice.  Form-preserving maps have determinant +-1, so
    integrality of this matrix is the whole of the preservation condition."""
    x_mat = []
    for row in ns.basis:
        x = solve_hnf(ns.basis, range(DIM), vec_mat(row, mtilde))
        if x is None:
            return None
        x_mat.append(x)
    return x_mat


def _disc_sign(ns, x_mat):
    """+1 or -1 when the map acts on the discriminant group by that sign on
    every generator; None otherwise."""
    return _common_sign((d, urow, vec_mat(urow, x_mat))
                        for d, urow in ns.disc_transform_rows)


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
    """Gram matrix of the Q-basis (L, A_1, B_1, ..., A_9, B_9)."""
    unit = identity_matrix(DIM)
    return tuple(tuple(pairing_times_nine(L2, unit[i], unit[j])
                       for j in range(DIM)) for i in range(DIM))


def _is_isometry(L2, mtilde):
    """True when the rows (images of the Q-basis) pair with each other as
    the Q-basis vectors themselves do."""
    gram = _q_basis_gram(L2)
    return all(pairing_times_nine(L2, mtilde[i], mtilde[j]) == gram[i][j]
               for i in range(DIM) for j in range(i, DIM))


def _sparse(num):
    return tuple((i, x) for i, x in enumerate(num) if x)


class _MatrixFreeFilter:
    """Integrality and discriminant verdicts for the candidate maps onto one
    target configuration, from the images of a few classes instead of the
    19 x 19 matrix.

    A candidate sends the Q-basis vector in row i of _candidate_matrix to
    (1/3) times the numerators of a target class, so a class with numerators
    n goes to the class with numerators (1/9) sum_i n_i * target_i.  The
    target numerators are kept sparse: in a replacement configuration only
    L's image and block 1 are dense.
    """

    def __init__(self, ns, target):
        self.ns = ns
        self.l_target = orthogonal_generator(ns, target)
        self._l_row = _sparse(self.l_target.num)
        self._blocks = tuple((_sparse(c.num), _sparse(d.num)) for c, d in target)
        # L and the curves go into NS by construction, so these generate NS
        # over what the map is already known to preserve
        glue = [fractional_generator(i) for i in (1, 2, 3)]
        if ns.gluing is not None:
            glue.append(ns.gluing)
        self._glue = tuple(_sparse(g.num) for g in glue)
        # lifts u * basis of the discriminant generators, as numerators
        self._lifts = tuple((d, urow, _sparse(vec_mat(urow, ns.basis)))
                            for d, urow in ns.disc_transform_rows)

    def _rows(self, sigma, swaps):
        rows = [self._l_row]
        for k in range(N_BLOCKS):
            c, d = self._blocks[sigma[k] - 1]
            rows.extend((d, c) if swaps[k] else (c, d))
        return rows

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
        rows = self._rows(sigma, swaps)
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
    swap masks rejected by the 3-divisible word test before any map is
    tested.
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


def _word_candidates(src_words, src_basis, tgt_words, sigmas):
    """The (sigma, swaps) pairs over the given permutations that map the
    3-divisible words of the source (with their GF(3) basis) onto those of
    the target."""
    tgt_set = set(tgt_words)
    src_nine = [w for w in src_words if len(_support(w)) == 9]
    tgt_nine = [w for w in tgt_words if len(_support(w)) == 9]
    if len(src_nine) != 2 or len(tgt_nine) != 2:
        raise NotAConfiguration("expected exactly two fully supported words")

    c9 = src_nine[0]
    for sigma in sigmas:
        for w9 in tgt_nine:
            # the fully supported word pins the swap mask up to this choice
            eps = tuple((w9[sigma[j] - 1] * c9[j]) % 3 for j in range(N_BLOCKS))
            if any(e == 0 for e in eps):
                continue
            ok = True
            for word in src_basis:
                moved = [0] * N_BLOCKS
                for j in range(N_BLOCKS):
                    if word[j]:
                        moved[sigma[j] - 1] = (word[j] * eps[j]) % 3
                if tuple(moved) not in tgt_set:
                    ok = False
                    break
            if ok:
                yield sigma, tuple(e == 2 for e in eps)


def search(ns, source, target):
    """All isometries of NS sending the source configuration to the target
    one (blockwise, respecting incidence) and the source orthogonal
    generator to the target one, acting by +-identity on the discriminant
    group.  Empty result means no such isometry exists.
    """
    validate_config(ns, source)
    validate_config(ns, target)
    src_words, src_basis = _divisibility_words(ns, source)
    tgt_words, _ = _divisibility_words(ns, target)
    sigmas = prune(_block_set(src_words), _block_set(tgt_words))

    check = _MatrixFreeFilter(ns, target)
    accepted = []
    integral = 0
    disc_fail = 0
    for sigma, swaps in _word_candidates(src_words, src_basis, tgt_words, sigmas):
        preserves, sign = check.verdict(sigma, swaps)
        if not preserves:
            continue
        integral += 1
        if sign is None:
            disc_fail += 1
            continue
        mtilde = _candidate_matrix(check.l_target, target, sigma, swaps)
        x_mat = basis_matrix(ns, mtilde)
        if x_mat is None or _disc_sign(ns, x_mat) != sign:
            raise AssertionError("matrix-free verdict disagrees with the basis matrix")
        if not _is_isometry(ns.L2, mtilde):
            raise AssertionError("accepted candidate must preserve the form")
        accepted.append(IsometryCandidate(
            sigma=sigma,
            swaps=swaps,
            matrix=tuple(tuple(int(x) for x in row) for row in mtilde),
            disc_sign=sign,
        ))

    accepted.sort(key=lambda c: (c.sigma, c.swaps))
    total = factorial(9) * 2 ** 9
    per_sigma = 2 ** 9
    counts = {
        "pruned": total - len(sigmas) * per_sigma,
        "non_integral": len(sigmas) * per_sigma - integral,
        "disc_fail": disc_fail,
        "accepted": len(accepted),
    }
    return SearchResult(tuple(accepted), len(sigmas), counts)


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

    @property
    def classes(self):
        return self.a + self.b + self.e + self.f


def d2_configuration(ns):
    """Build and verify the 36-curve configuration attached to the ample
    square-2 class for L^2 = 20."""
    if ns.L2 != 20:
        raise WrongPolarization("the degree-2 model needs L^2 = 20")
    total = zero_class()
    for j in range(1, N_BLOCKS + 1):
        total = total + curve_a(j) + curve_b(j)
    d2 = L_class() - total
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
    matrix: tuple        # 19 x 19 on the Q-basis
    disc_sign: int
    order: int


@dataclass(frozen=True)
class AutD2Group:
    """Automorphism group of the polarized degree-2 model, as permutations
    of the 36 curves with their induced lattice matrices."""

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


def _partner(i):
    return (i + 18) % 36


def _perm_order(perm):
    n = len(perm)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


def compute_aut_d2(ns):
    """Polarized automorphism group of the degree-2 model for L^2 = 20.

    Any symmetry of the labelled intersection graph of the 36 curves fixing
    the degree-2 class sends mirror pairs to mirror pairs, so it is a block
    permutation combined with an optional global mirror swap; both halves
    are enumerated with the pruned configuration search (never a 36! scan),
    filtered by integrality and the +-identity discriminant action, and the
    group structure is identified from the multiplication table.
    """
    cfg = d2_configuration(ns)
    source = standard_config(ns)
    mirror_config = tuple(zip(cfg.e, cfg.f))

    elements = []
    for mirrored, target in ((False, source), (True, mirror_config)):
        for cand in search(ns, source, target).accepted:
            perm = [None] * 36
            for k in range(9):
                block = cand.sigma[k] - 1
                first, second = (block, 9 + block)
                if mirrored:
                    first, second = (18 + block, 27 + block)
                if cand.swaps[k]:
                    first, second = second, first
                perm[k] = first
                perm[9 + k] = second
            for v in range(18):
                perm[_partner(v)] = _partner(perm[v])
            elements.append(AutElement(
                perm=tuple(perm),
                matrix=cand.matrix,
                disc_sign=cand.disc_sign,
                order=_perm_order(perm),
            ))

    elements.sort(key=lambda el: el.perm)
    index = {el.perm: i for i, el in enumerate(elements)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(36))

    n = len(elements)
    table = [[None] * n for _ in range(n)]
    for i, gi in enumerate(elements):
        for j, gj in enumerate(elements):
            prod = compose(gi.perm, gj.perm)
            if prod not in index:
                raise AssertionError("group is not closed under composition")
            table[i][j] = index[prod]

    center = tuple(i for i in range(n)
                   if all(table[i][j] == table[j][i] for j in range(n)))
    mirror = tuple(list(range(18, 36)) + list(range(18)))
    if mirror not in index:
        raise AssertionError("the mirror involution must be an automorphism")
    sigma_index = index[mirror]

    def orbit(start):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for el in elements:
                w = el.perm[v]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return tuple(sorted(seen))

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
    """Exact multiplicative order of an accepted candidate's matrix (or of a
    square integer matrix): an int, or "infinite"; see matrix_order."""
    mat = candidate.matrix if isinstance(candidate, IsometryCandidate) else candidate
    return matrix_order([list(r) for r in mat])
