"""Alternate 9A2 configurations from Pell solutions and the modular
criterion deciding when a surface carries two generalized Kummer structures.

Writing L^2 = 2t, the replacement curve class paired with A_1 is built from
the fundamental solution (x0, y0) of

    x^2 - 12*t*y^2 = 1   when t = 1 mod 3,
    x^2 - 4*k*y^2 = 1    when t = 3*k,

and there is no automorphism carrying the standard configuration to the new
one exactly when x0 is not +-1 modulo 2t (respectively 2k).
"""

from dataclasses import dataclass, replace
from functools import lru_cache, partial

from . import pell
from .ns_lattice import (
    CASE_TWO_MOD6,
    CASE_ZERO_MOD18,
    L_class,
    build_ns,
    curve_a,
    curve_b,
)


class HypothesisViolated(ValueError):
    """A standing hypothesis of the construction fails (6*L^2 is a square)."""


class NoPellSolution(HypothesisViolated):
    """The relevant Pell equation is unsolvable, so no alternate
    configuration exists."""


def _pell_modulus(ns):
    """(D, modulus) for the Pell equation and criterion attached to L^2."""
    t = ns.L2 // 2
    if ns.case == CASE_TWO_MOD6:
        return 12 * t, 2 * t
    k = ns.L2 // 6
    return 4 * k, 2 * k


@lru_cache(maxsize=1)
def _fundamental_solution(d):
    """pell.fundamental_solution, kept for the latest D: deciding one L^2
    asks for it from several steps."""
    return pell.fundamental_solution(d)


def pell_data(ns):
    """Fundamental Pell solution for the lattice, or raise NoPellSolution."""
    d, _ = _pell_modulus(ns)
    if pell.is_square(d):
        raise NoPellSolution(
            f"x^2 - {d}*y^2 = 1 has no solution (6*L^2 = {6 * ns.L2} is a square)")
    return _fundamental_solution(d)


def construct(ns, swap=False):
    """Build the replacement curve class and the new orthogonal generator.

    Returns (b1p, lp) where b1p is the square -2 class with b1p.A_1 = 1
    replacing B_1, and lp generates the orthogonal complement of the new
    configuration {A_1, b1p, A_2, B_2, ..., A_9, B_9}.  With swap=True the
    roles of A_1 and B_1 are exchanged throughout.
    """
    fund = pell_data(ns)
    x0, y0 = fund.x0, fund.y0
    if x0 % 2 == 0:
        raise AssertionError("x0 must be odd for these discriminants")
    if ns.case == CASE_TWO_MOD6:
        lead = 3 * y0
        halfdeg = ns.L2 * y0          # 2*t*y0
    else:
        lead = y0
        halfdeg = (ns.L2 // 3) * y0   # 2*k*y0
    a_cls, b_cls = (curve_b(1), curve_a(1)) if swap else (curve_a(1), curve_b(1))
    b1p = lead * L_class() - (((x0 + 1) // 2) * a_cls + x0 * b_cls)
    lp = x0 * L_class() - halfdeg * (a_cls + 2 * b_cls)
    if ns.square(b1p) != -2 or ns.pairing(b1p, a_cls) != 1:
        raise AssertionError("replacement class fails its defining relations")
    if (ns.square(lp) != ns.L2 or ns.pairing(lp, a_cls) != 0
            or ns.pairing(lp, b1p) != 0 or ns.pairing(lp, L_class()) <= 0):
        raise AssertionError("new orthogonal generator fails its relations")
    if not (ns.contains(b1p) and ns.contains(lp)):
        raise AssertionError("constructed classes must lie in the lattice")
    return b1p, lp


@dataclass(frozen=True)
class HypothesisFlags:
    """Standing hypotheses of the two-structures criterion."""

    six_L2_nonsquare: bool
    irreducibility_ok: bool
    swapped_A1_B1: bool

    def to_json_dict(self):
        return {
            "six_L2_nonsquare": self.six_L2_nonsquare,
            "irreducibility_ok": self.irreducibility_ok,
            "swapped_A1_B1": self.swapped_A1_B1,
        }


def check_hypotheses(ns):
    """Evaluate the hypotheses guarding irreducibility of the new curve.

    The replacement class is known to be an irreducible curve when
    L^2 = 2 mod 6, or L^2 is not 0 mod 18, or 3 divides y0; in the remaining
    case the construction still works after exchanging A_1 and B_1 where
    necessary, which the swap flag records.
    """
    if pell.is_square(6 * ns.L2):
        return HypothesisFlags(False, False, False)
    fund = pell_data(ns)
    zero_mod18 = ns.case == CASE_ZERO_MOD18
    irreducible = (ns.case == CASE_TWO_MOD6) or (not zero_mod18) \
        or (fund.y0 % 3 == 0)
    swap = zero_mod18 and fund.y0 % 3 != 0
    return HypothesisFlags(True, irreducible, swap)


def resolve_swap(ns):
    """Pick the side of the A_1/B_1 exchange that actually works.

    Outside the flagged case nothing is exchanged.  When L^2 = 0 mod 18 and
    3 does not divide y0, exactly one of the two constructions has an
    orthogonal complement whose roots are the nine A2 blocks of the new
    configuration and nothing more; the other picks up extra roots (the
    replacement class is reducible there).  The root count decides.
    """
    if not check_hypotheses(ns).swapped_A1_B1:
        return False
    _, lp = construct(ns, swap=False)
    if len(ns.root_system_of_orthogonal(lp).roots) == 54:
        return False
    _, lp_swapped = construct(ns, swap=True)
    if len(ns.root_system_of_orthogonal(lp_swapped).roots) != 54:
        raise AssertionError("neither exchange side gives a clean complement")
    return True


@dataclass(frozen=True)
class DecisionReport:
    """Per-polarization verdict of the modular criterion."""

    L2: int
    case: str
    pell: object            # PellFundamental or None
    b1prime: object         # DivisorClass or None
    lprime: object          # DivisorClass or None
    modulus: int
    residue: object         # x0 mod modulus, or None
    hypotheses: HypothesisFlags
    criterion_ok: bool
    criterion_only: bool
    two_structures: bool
    # bool once a scan cross-checks the row: whether the search finding no
    # isometry matches criterion_ok
    search_agrees: object = None
    note: str = ""

    def to_json_dict(self):
        return {
            "L2": self.L2,
            "case": self.case,
            "x0": str(self.pell.x0) if self.pell else None,
            "y0": str(self.pell.y0) if self.pell else None,
            "modulus": self.modulus,
            "residue": str(self.residue) if self.residue is not None else None,
            "hypotheses": self.hypotheses.to_json_dict(),
            "criterion_ok": self.criterion_ok,
            "criterion_only": self.criterion_only,
            "two_structures": self.two_structures,
            "b1prime": self.b1prime.to_json() if self.b1prime else None,
            "lprime": self.lprime.to_json() if self.lprime else None,
            "search_agrees": self.search_agrees,
            "note": self.note,
        }


def decide(ns):
    """Apply the modular criterion to one lattice model.

    two_structures is asserted only when the irreducibility hypothesis holds
    and x0 is not +-1 modulo 2t (resp. 2k); when the hypothesis fails the
    report still carries the residue test, marked criterion-only.
    """
    _, modulus = _pell_modulus(ns)
    fund = pell_data(ns)
    flags = check_hypotheses(ns)
    swapped = resolve_swap(ns)
    b1p, lp = construct(ns, swap=swapped)
    residue = fund.x0 % modulus
    criterion = residue not in (1 % modulus, (-1) % modulus)
    note = ""
    if not flags.irreducibility_ok:
        note = "criterion-only; roles exchanged" if swapped else "criterion-only"
    return DecisionReport(
        L2=ns.L2,
        case=ns.case,
        pell=fund,
        b1prime=b1p,
        lprime=lp,
        modulus=modulus,
        residue=residue,
        hypotheses=flags,
        criterion_ok=criterion,
        criterion_only=not flags.irreducibility_ok,
        two_structures=flags.irreducibility_ok and criterion,
        note=note,
    )


def admissible_values(L2_min, L2_max):
    """All L^2 in range that are 0 or 2 mod 6."""
    return [v for v in range(L2_min, L2_max + 1) if v >= 2 and v % 6 in (0, 2)]


def _scan_report(L2, with_search):
    """The scan() report for one L^2."""
    ns = build_ns(L2)
    try:
        report = decide(ns)
    except NoPellSolution:
        return DecisionReport(
            L2=L2,
            case=ns.case,
            pell=None,
            b1prime=None,
            lprime=None,
            modulus=_pell_modulus(ns)[1],
            residue=None,
            hypotheses=HypothesisFlags(False, False, False),
            criterion_ok=False,
            criterion_only=False,
            two_structures=False,
            note="no-pell-solution",
        )
    if not with_search:
        return report
    from .isometry_search import replacement_config, search, standard_config

    result = search(ns, standard_config(ns), replacement_config(ns))
    return replace(report, search_agrees=(
        (len(result.accepted) == 0) == report.criterion_ok))


def scan(L2_min, L2_max, jobs=1, with_search=False):
    """One DecisionReport per admissible L^2 in [L2_min, L2_max].

    Polarizations whose Pell equation is unsolvable get a report with the
    construction fields empty and two_structures False.  with_search runs
    the isometry search on every other row, 0 mod 18 included, and
    search_agrees says whether finding no isometry matches criterion_ok
    (which equals two_structures outside 0 mod 18).  jobs > 1 computes the
    rows across processes; the result does not depend on jobs.
    """
    values = admissible_values(L2_min, L2_max)
    row = partial(_scan_report, with_search=with_search)
    if jobs > 1 and len(values) >= 2:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            return pool.map(row, values)
    return [row(L2) for L2 in values]


def verify_uniqueness(ns, n):
    """Check that later Pell solutions only give reducible replacements.

    For the next n solutions (x, y) past the fundamental one, the analogous
    class built from (x, y) must have strictly negative intersection with
    the fundamental replacement class, so it cannot be an irreducible curve.
    """
    fund = pell_data(ns)
    b1p, _ = construct(ns)
    lead_factor = 3 if ns.case == CASE_TWO_MOD6 else 1
    sol = (fund.x0, fund.y0)
    for _ in range(n):
        sol = pell.next_solution(fund, sol)
        x, y = sol
        cand = (lead_factor * y) * L_class() \
            - (((x + 1) // 2) * curve_a(1) + x * curve_b(1))
        if ns.square(cand) != -2 or ns.pairing(cand, curve_a(1)) != 1:
            raise AssertionError("iterated solution fails the class relations")
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

    def to_json_dict(self):
        return {
            "k": self.k, "a": self.a, "t": self.t, "L2": self.L2,
            "identity_ok": self.identity_ok,
            "is_fundamental": self.is_fundamental,
            "residue_ok": self.residue_ok,
            "admissible": self.admissible,
            "case_matches": self.case_matches,
            "asserts_two_structures": self.asserts_two_structures,
        }


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
