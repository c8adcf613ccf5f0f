"""Rank-4 invariant lattices of the covering abelian surface and of the
Kummer surface, with the pushforward/pullback maps between them and the
transcendental-lattice index checks.

The surface-side lattice is spanned by zeta_1..zeta_4 and the abelian-side
lattice by g_1..g_4; pushforward sends g_i -> zeta_i for i <= 3 and
g_4 -> 3*zeta_4, pullback sends zeta_i -> 3*g_i for i <= 3 and zeta_4 -> g_4,
and the two compositions are multiplication by 3.
"""

from dataclasses import dataclass
from math import gcd

from .exact_linalg import (
    det_bareiss,
    hnf,
    hnf_pivots,
    mat_mul,
    orthogonal_complement,
    solve_hnf,
    vec_mat,
)

GRAM_ABELIAN = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 3), (0, 0, 3, 6))
GRAM_SURFACE = ((0, 3, 0, 0), (3, 0, 0, 0), (0, 0, 6, 3), (0, 0, 3, 2))

# Coordinate matrices of pushforward and pullback (row vector conventions).
PUSH = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))
PULL = ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1))


class InvalidPolarization(ValueError):
    """Polarization coefficients must be coprime and give L_X^2 != 0."""


def _form(gram, v, w):
    return sum(v[i] * gram[i][j] * w[j] for i in range(4) for j in range(4))


@dataclass(frozen=True)
class FMModel:
    """Both rank-4 lattices plus the polarization data tying them together."""

    polarization: tuple   # coefficients of L_X on zeta_1..zeta_4
    lx2: int
    case: str             # "TWO_MOD6" or "ZERO_MOD6"
    nu: int               # pullback of L_X equals nu * L_A
    la: tuple             # coefficients of L_A on g_1..g_4

    def to_json_dict(self):
        return {
            "polarization": list(self.polarization),
            "LX2": self.lx2,
            "case": self.case,
            "nu": self.nu,
            "LA": list(self.la),
            "LA2": _form(GRAM_ABELIAN, self.la, self.la),
            "gram_abelian": [list(r) for r in GRAM_ABELIAN],
            "gram_surface": [list(r) for r in GRAM_SURFACE],
            "push_pull_is_times_3": True,
            "push_index": 3,
            "transcendental_index": transcendental_index(self),
        }


def build(polarization):
    """Build the model for a primitive polarization L_X = sum n_i zeta_i.

    Verifies the composition identities and that the pushforward embeds the
    abelian-side lattice isometrically (after scaling the form by 3) with
    index 3.
    """
    n = tuple(int(x) for x in polarization)
    if len(n) != 4:
        raise InvalidPolarization("need four coefficients")
    if gcd(*n) != 1:
        raise InvalidPolarization("coefficients must be coprime")
    lx2 = _form(GRAM_SURFACE, n, n)
    if lx2 == 0:
        raise InvalidPolarization("polarization must have nonzero square")
    if lx2 % 6 not in (0, 2):
        raise AssertionError("square of a primitive class must be 0 or 2 mod 6")

    times_3 = [[3 if i == j else 0 for j in range(4)] for i in range(4)]
    for first, then in ((PUSH, PULL), (PULL, PUSH)):
        if mat_mul(first, then) != times_3:
            raise AssertionError("pushforward and pullback must compose to "
                                 "times 3")
    for i in range(4):
        for j in range(4):
            # row i of PUSH is the image of g_i
            if _form(GRAM_SURFACE, PUSH[i], PUSH[j]) != 3 * GRAM_ABELIAN[i][j]:
                raise AssertionError("pushforward must scale the form by 3")
    if abs(det_bareiss([list(r) for r in PUSH])) != 3:
        raise AssertionError("pushforward image must have index 3")

    if lx2 % 6 == 2:
        case = "TWO_MOD6"
        nu = 1
        la = tuple(vec_mat(n, PULL))
    else:
        case = "ZERO_MOD6"
        nu = 3
        pulled = vec_mat(n, PULL)
        if any(x % 3 for x in pulled[:3]) or n[3] % 3:
            raise AssertionError("0 mod 6 squares force 3 | n4")
        la = (n[0], n[1], n[2], n[3] // 3)
    return FMModel(polarization=n, lx2=lx2, case=case, nu=nu, la=la)


def transcendental_index(model):
    """Index of the pushed abelian transcendental lattice in the surface one.

    Equals 1 when L_X^2 = 2 mod 6 and 3 when L_X^2 = 0 mod 6.
    """
    tx = orthogonal_complement(GRAM_SURFACE, [model.polarization])
    ta = orthogonal_complement(GRAM_ABELIAN, [model.la])
    if len(tx) != 3 or len(ta) != 3:
        raise AssertionError("transcendental lattices must have rank 3")
    pushed = [vec_mat(row, PUSH) for row in ta]
    h, _ = hnf(tx)
    pivots = hnf_pivots(h)
    coeffs = []
    for vec in pushed:
        y = solve_hnf(h, pivots, vec)
        if y is None:
            raise AssertionError("pushed lattice must sit inside the surface one")
        coeffs.append(y)
    return abs(det_bareiss(coeffs))
