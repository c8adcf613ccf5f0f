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
    DIM,
    DivisorClass,
    build_ns,
    pairing_times_nine,
)


ROWS_PER_WORKER = 1024   # 2 workers tie one process at 1,000-4,000 plain rows (README)


class NoPellSolution(ValueError):
    """The relevant Pell equation is unsolvable (6*L^2 is a square), so no
    alternate configuration exists."""


def _pell_modulus(ns):
    """(D, m, c) attached to L^2: the Pell equation x^2 - D*y^2 = 1, the
    criterion modulus m (2t, resp. 2k) and the L-coefficient factor c of the
    replacement class; D = 2*c*m."""
    if ns.case == CASE_TWO_MOD6:
        m, c = ns.L2, 3
    else:
        m, c = ns.L2 // 3, 1
    return 2 * c * m, m, c


@lru_cache(maxsize=1)
def _fundamental_solution(d):
    """pell.fundamental_solution, kept for the latest D: deciding one L^2
    asks for it from several steps."""
    return pell.fundamental_solution(d)


def pell_data(ns):
    """Fundamental Pell solution for the lattice, or raise NoPellSolution."""
    d, _, _ = _pell_modulus(ns)
    try:
        return _fundamental_solution(d)
    except pell.NoSolution:
        raise NoPellSolution(f"x^2 - {d}*y^2 = 1 has no solution "
                             f"(6*L^2 = {6 * ns.L2} is a square)") from None


def construct(ns, swap=False):
    """Build the replacement curve class and the new orthogonal generator.

    Returns (b1p, lp) where b1p is the square -2 class with b1p.A_1 = 1
    replacing B_1, and lp generates the orthogonal complement of the new
    configuration {A_1, b1p, A_2, B_2, ..., A_9, B_9}.  With swap=True the
    roles of A_1 and B_1 are exchanged throughout.

    From the Pell solution (x0, y0), b1p = c*y0*L - ((x0+1)/2*A + x0*B) and
    lp = x0*L - m*y0*(A + 2B) for (A, B) = (A_1, B_1), or (B_1, A_1) with
    swap.  The Gram matrix of (L, A, B), [[L^2, 0, 0], [0, -2, 1], [0, 1, -2]],
    is the same either way, so the relations (b1p.A = 1 also says x0 is odd)
    are checked on numerator triples.
    """
    fund = pell_data(ns)
    x0, y0 = fund.x0, fund.y0
    _, m, c = _pell_modulus(ns)
    form = partial(pairing_times_nine, ns.L2)
    L, a = (3, 0, 0), (0, 3, 0)
    b1p = (3 * c * y0, -3 * ((x0 + 1) // 2), -3 * x0)
    lp = (3 * x0, -3 * m * y0, -6 * m * y0)
    if form(b1p, b1p) != -18 or form(b1p, a) != 9:
        raise AssertionError("replacement class fails its defining relations")
    if (form(lp, lp) != 9 * ns.L2 or form(lp, a) != 0
            or form(lp, b1p) != 0 or form(lp, L) <= 0):
        raise AssertionError("new orthogonal generator fails its relations")
    order = (0, 2, 1) if swap else (0, 1, 2)
    b1p, lp = (DivisorClass(tuple(u[i] for i in order) + (0,) * (DIM - 3))
               for u in (b1p, lp))
    if not (ns.contains(b1p) and ns.contains(lp)):
        raise AssertionError("constructed classes must lie in the lattice")
    return b1p, lp


@dataclass(frozen=True)
class HypothesisFlags:
    """Standing hypotheses of the two-structures criterion."""

    six_L2_nonsquare: bool
    irreducibility_ok: bool
    swapped_A1_B1: bool


def _flagged(ns, fund):
    """The case the hypotheses flag: L^2 = 0 mod 18, 3 not dividing y0."""
    return ns.case == CASE_ZERO_MOD18 and fund.y0 % 3 != 0


def check_hypotheses(ns):
    """Evaluate the hypotheses guarding irreducibility of the new curve.

    The replacement class is known to be an irreducible curve unless
    L^2 = 0 mod 18 and 3 does not divide y0; in that flagged case the
    construction still works after exchanging A_1 and B_1 where necessary,
    which the swap flag records.
    """
    try:
        flagged = _flagged(ns, pell_data(ns))
    except NoPellSolution:
        return HypothesisFlags(False, False, False)
    return HypothesisFlags(True, not flagged, flagged)


def resolve_swap(ns):
    """Pick the side of the A_1/B_1 exchange that actually works.

    Outside the flagged case, and without a Pell solution, nothing is
    exchanged.  When L^2 = 0 mod 18 and 3 does not divide y0, the
    complement of lp is the overlattice of the new 9A2 cut out by the
    configuration's 3-divisible words, and each word on three blocks adds
    27 roots (Conway-Sloane, SPLAG ch. 4).  All L^2 = 0 mod 18 share one NS
    basis (the gluing class depends only on L^2 mod 18), and mod 3 the
    block-1 classes of either side depend only on x0 and y0 mod 3.  So the
    words, and with them the side whose complement has only the 54 roots of
    the nine blocks, depend only on (x0, y0) mod 3: it is the exchanged
    side exactly when x0 = y0 mod 3.
    """
    try:
        fund = pell_data(ns)
    except NoPellSolution:
        return False
    return _flagged(ns, fund) and (fund.x0 - fund.y0) % 3 == 0


@dataclass(frozen=True, kw_only=True)
class DecisionReport:
    """Verdict of the modular criterion; the defaults describe a no-Pell row."""

    L2: int
    case: str
    pell: object = None     # PellFundamental
    b1prime: object = None  # DivisorClass
    lprime: object = None   # DivisorClass
    modulus: int
    residue: object = None  # x0 mod modulus
    hypotheses: HypothesisFlags
    criterion_ok: bool = False
    criterion_only: bool = False
    two_structures: bool = False
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
            "hypotheses": dict(vars(self.hypotheses)),
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
    _, modulus, _ = _pell_modulus(ns)
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
        return DecisionReport(L2=L2, case=ns.case, modulus=_pell_modulus(ns)[1],
                              hypotheses=check_hypotheses(ns), note="no-pell-solution")
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
    (which equals two_structures outside 0 mod 18).  jobs > 1 runs the rows
    in at most jobs processes: one per row with the search, else one per
    ROWS_PER_WORKER rows (fewer than twice that run in-process).  Forked
    workers inherit the per-case tables built first; rows do not depend on jobs.
    """
    values = admissible_values(L2_min, L2_max)
    row = partial(_scan_report, with_search=with_search)
    workers = min(jobs, len(values) // (1 if with_search else ROWS_PER_WORKER))
    if workers > 1:
        from multiprocessing import Pool

        # any six consecutive admissible L^2 meet every case of the range
        for L2 in values[:6]:
            build_ns(L2)
        with Pool(workers) as pool:
            return pool.map(row, values)
    return [row(L2) for L2 in values]
