"""Infinite families of polarizations with two generalized Kummer structures,
and the later Pell solutions past the fundamental one.

The package decides one L^2 at a time; these are the paper's claims about
infinitely many L^2 at once, which the tests check on finite ranges.

Two families have y0 = 1.  When the Pell discriminant is D = x^2 - 1, the
pair (x, 1) solves x^2 - D*y^2 = 1 with the least possible y, so it is the
fundamental solution, and x is +-1 modulo the criterion modulus only when
that modulus is at most x + 1.

- 12 mod 18: x = 3 mod 6, x >= 9, L^2 = 3(x^2 - 1)/2.  Here L^2 = 6k with
  D = 4k = x^2 - 1 and modulus 2k = (x^2 - 1)/2 > x + 1.  Writing x = 6j + 3
  gives L^2 = 54j^2 + 54j + 12 = 12 mod 18, so the irreducibility hypothesis
  holds (only L^2 = 0 mod 18 is flagged).
- 2 mod 6: x odd, x = +-2 mod 9, x >= 11, L^2 = (x^2 - 1)/6.  Here D = 6 L^2
  = x^2 - 1 and the modulus is L^2 > x + 1; x^2 = 13 mod 36 makes L^2 = 2
  mod 6.

So every member carries two structures, and infinitely many L^2 do in
each of these two classes.  No L^2 = 6 mod 18 has y0 = 1 (that would need
x^2 = 5 mod 12), and at L^2 = 0 mod 18 the verdict is criterion-only.
"""

from dataclasses import dataclass
from itertools import count, islice

from genkummer import pell
from genkummer.kummer_structures import _pell_modulus, construct, pell_data
from genkummer.ns_lattice import L_class, curve_a, curve_b

# name: (whether x is a member, L^2 of the member x)
Y0_ONE_FAMILIES = {
    "12 mod 18": (lambda x: x >= 9 and x % 6 == 3,
                  lambda x: 3 * (x * x - 1) // 2),
    "2 mod 6": (lambda x: x >= 11 and x % 2 == 1 and x % 9 in (2, 7),
                lambda x: (x * x - 1) // 6),
}


def family_members(name, n):
    """The first n members (x, L^2) of a y0 = 1 family."""
    is_member, l2_of = Y0_ONE_FAMILIES[name]
    return [(x, l2_of(x)) for x in islice(filter(is_member, count(1)), n)]


def next_solution(fund, solution):
    """Step (x, y) -> (x0*x + D*y0*y, x0*y + y0*x) along the solution group."""
    x, y = solution
    if x * x - fund.D * y * y != 1:
        raise pell.InvalidSolution("input does not satisfy the Pell equation")
    return (fund.x0 * x + fund.D * fund.y0 * y, fund.x0 * y + fund.y0 * x)


def b1_class(ns, x, y, a, b):
    """The class c*y*L - ((x+1)/2 * a + x * b) built from a Pell solution
    (x, y), checked to have square -2 and pairing 1 with a."""
    _, _, c = _pell_modulus(ns)
    cls = (c * y) * L_class() - (((x + 1) // 2) * a + x * b)
    if ns.square(cls) != -2 or ns.pairing(cls, a) != 1:
        raise AssertionError("replacement class fails its defining relations")
    return cls


def verify_uniqueness(ns, n):
    """Check that later Pell solutions only give reducible replacements.

    For the next n solutions (x, y) past the fundamental one, the analogous
    class built from (x, y) must have strictly negative intersection with
    the fundamental replacement class, so it cannot be an irreducible curve.
    """
    fund = pell_data(ns)
    b1p, _ = construct(ns)
    sol = (fund.x0, fund.y0)
    for _ in range(n):
        sol = next_solution(fund, sol)
        cand = b1_class(ns, *sol, curve_a(1), curve_b(1))
        if ns.pairing(cand, b1p) >= 0:
            return False
    return True


@dataclass(frozen=True)
class RamareEntry:
    k: int
    a: int
    t: int
    L2: int
    identity_ok: bool
    is_fundamental: bool
    residue_ok: bool
    admissible: bool
    case_matches: bool

    @property
    def asserts_two_structures(self):
        return (self.identity_ok and self.is_fundamental and self.residue_ok
                and self.admissible and self.case_matches)


def ramare_family(k_max):
    """The infinite family a = 8 + 12k, t = 6 + 17k + 12k^2.

    For every k the pair (2a+1, 2) solves x^2 - 12t y^2 = 1, is fundamental,
    and has 2a+1 != +-1 mod 2t.  Entries whose polarization 2t is not 0 or 2
    mod 6 are flagged inadmissible rather than asserted; likewise entries
    with t = 0 mod 3, where the equation above is not the one attached to
    the 0 mod 6 construction.
    """
    entries = []
    for k in range(k_max + 1):
        a = 8 + 12 * k
        t = 6 + 17 * k + 12 * k * k
        x, y = 2 * a + 1, 2
        identity_ok = (a * a + a == 12 * t) and (x * x - 12 * t * y * y == 1)
        fund = pell.fundamental_solution(12 * t)
        is_fundamental = (fund.x0, fund.y0) == (x, y)
        residue = x % (2 * t)
        residue_ok = residue not in (1, 2 * t - 1)
        entries.append(RamareEntry(
            k=k, a=a, t=t, L2=2 * t,
            identity_ok=identity_ok,
            is_fundamental=is_fundamental,
            residue_ok=residue_ok,
            admissible=(2 * t) % 6 in (0, 2),
            case_matches=t % 3 == 1,
        ))
    return entries
