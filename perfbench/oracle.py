"""Independent oracles for the benchmark's outputs.

Nothing here imports genkummer.  Every expected value comes from the
paper's statements and from elementary number theory, so a defect in the
package cannot pass its own check.

Divisor classes are numerator vectors over the Q-basis (L, A1, B1, ...,
A9, B9): the class is (1/3) * sum(n_i * basis_i), as in the package's wire
format.
"""

from math import isqrt

# Polarizations in 8..198 carrying two generalized Kummer structures, as
# published in the paper.
PUBLISHED = (20, 44, 68, 84, 92, 104, 110, 116, 120,
             126, 132, 140, 164, 168, 176, 188)

# Criterion 4 of the paper: least u with u*L - sum_j (A_j + B_j) ample.
AMPLE_TABLE = {2: 4, 8: 2, 14: 2, 20: 1, 6: 3, 12: 2, 18: 2, 24: 1, 30: 1, 36: 1}

DIM = 19


def admissible(L2):
    return L2 >= 2 and L2 % 6 in (0, 2)


def case_of(L2):
    if L2 % 6 == 2:
        return "TWO_MOD6"
    return {0: "ZERO_MOD18", 6: "SIX_MOD18", 12: "TWELVE_MOD18"}[L2 % 18]


def pell_setup(L2):
    """(D, modulus) of the Pell equation and residue test attached to L^2."""
    if L2 % 6 == 2:
        return 6 * L2, L2
    return 2 * L2 // 3, L2 // 3


def pell_fundamental(D):
    """Least positive (x, y) with x^2 - D y^2 = 1, or None for square D.

    Uses the period of the continued fraction of sqrt(D): the convergent
    before the end of the first period solves the equation when the period
    is even, the one before the end of the second period when it is odd.
    """
    a0 = isqrt(D)
    if a0 * a0 == D:
        return None
    m, d, a = 0, 1, a0
    partials = []
    while a != 2 * a0:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        partials.append(a)
    period = len(partials)
    terms = [a0] + (partials[:-1] if period % 2 == 0
                    else partials + partials[:-1])
    p_prev, p, q_prev, q = 1, terms[0], 0, 1
    for t in terms[1:]:
        p, p_prev = t * p + p_prev, p
        q, q_prev = t * q + q_prev, q
    if p * p - D * q * q != 1:
        raise AssertionError(f"continued fraction of sqrt({D}) gave no solution")
    return p, q


def criterion(L2):
    """Everything the residue criterion says about one polarization."""
    D, modulus = pell_setup(L2)
    sol = pell_fundamental(D)
    if sol is None:
        return {"pell": None, "modulus": modulus, "residue": None,
                "flagged": False, "two_structures": False}
    x0, y0 = sol
    residue = x0 % modulus
    residue_ok = residue not in (1 % modulus, (-1) % modulus)
    flagged = L2 % 18 == 0 and y0 % 3 != 0
    return {"pell": sol, "modulus": modulus, "residue": residue,
            "flagged": flagged, "two_structures": residue_ok and not flagged}


def expected_scan_row(L2):
    """The CLI scan row for L^2, every field as the report spells it."""
    c = criterion(L2)
    x0, y0 = c["pell"] if c["pell"] else ("", "")
    return {
        "L2": str(L2),
        "case": case_of(L2),
        "x0": str(x0),
        "y0": str(y0),
        "modulus": str(c["modulus"]),
        "residue": "" if c["residue"] is None else str(c["residue"]),
        "two_structures": str(c["two_structures"]),
        "search_agrees": "",
    }


def check_scan(lo, hi, rows):
    """Problems with a scan report over [lo, hi]; empty when it is right."""
    want = [expected_scan_row(v) for v in range(lo, hi + 1) if admissible(v)]
    problems = []
    if rows != want:
        got = {r.get("L2"): r for r in rows}
        bad = [w["L2"] for w in want if got.get(w["L2"]) != w]
        problems.append(f"scan {lo}..{hi}: rows differ at L2 {bad[:5]} "
                        f"({len(rows)} rows, {len(want)} expected)")
    if lo <= 8 and hi >= 198:
        positives = tuple(int(r["L2"]) for r in rows
                          if r["two_structures"] == "True" and 8 <= int(r["L2"]) <= 198)
        if positives != PUBLISHED:
            problems.append(f"published list differs: {positives}")
    return problems


def check_search(L2, report):
    """Problems with a CLI search report for L^2 (not 0 mod 18)."""
    problems = []
    two = criterion(L2)["two_structures"]
    if (len(report["accepted"]) == 0) != two:
        problems.append(f"search {L2}: {len(report['accepted'])} maps accepted, "
                        f"criterion says two_structures={two}")
    if sum(report["status_counts"].values()) != 362880 * 512:
        problems.append(f"search {L2}: status counts do not sum to 9!*2^9")
    return problems


# ---------------------------------------------------------------------------
# classes and the intersection form: L^2 = L2, A_j^2 = B_j^2 = -2, A_j.B_j = 1


def pairing9(L2, n, m):
    """Nine times the intersection number of two numerator vectors."""
    total = L2 * n[0] * m[0]
    for j in range(1, DIM, 2):
        total += (-2 * n[j] * m[j] + n[j] * m[j + 1] + n[j + 1] * m[j]
                  - 2 * n[j + 1] * m[j + 1])
    return total


def curve(j, second):
    """A_j (second=False) or B_j (second=True) as a numerator vector."""
    num = [0] * DIM
    num[2 * j - 1 + int(second)] = 3
    return tuple(num)


def _neg(n):
    return tuple(-x for x in n)


def _add(n, m):
    return tuple(a + b for a, b in zip(n, m))


def expected_min_ample_u(L2):
    """The least ample multiple of L - sum_j (A_j + B_j), or None.

    Below 30 the paper's table gives it.  Otherwise u = 1: a root r = a*L + c
    orthogonal to d = L - s, s = sum_j (A_j + B_j), has (c.s)^2 = (a L2)^2
    <= c^2 s^2 = 18 (2 + a^2 L2) by Cauchy-Schwarz on the negative definite
    curve span.  That forces a = 0 once L2 (L2 - 18) > 36 for integral a
    (L2 = 2 mod 6, L2 >= 20) or > 324 for a in Z/3 (L2 = 0 mod 6, L2 >= 30).
    Then r is one of the 54 curve roots, and each pairs to -1 or -2 with s,
    so d is ample; u - 1 = 0 gives d^2 = -18 < 0, which is not.
    """
    if L2 in AMPLE_TABLE:
        return AMPLE_TABLE[L2]
    if (L2 % 6 == 2 and L2 >= 20) or (L2 % 6 == 0 and L2 >= 30):
        return 1
    return None


def check_roots(L2, swap, b1p, lp, roots, labels, u):
    """Problems with the roots path for L^2: the replacement identities,
    the 54 roots of nine A2 blocks, and the least ample multiple."""
    problems = []
    flagged = criterion(L2)["flagged"]
    if swap and not flagged:
        problems.append(f"roots {L2}: A1/B1 exchanged outside the flagged case")
    kept = curve(1, swap)
    L = (3,) + (0,) * (DIM - 1)
    identities = (pairing9(L2, b1p, b1p) == -18 and pairing9(L2, b1p, kept) == 9
                  and pairing9(L2, lp, lp) == 9 * L2 and pairing9(L2, lp, kept) == 0
                  and pairing9(L2, lp, b1p) == 0 and pairing9(L2, lp, L) > 0)
    if not identities:
        problems.append(f"roots {L2}: replacement class identities fail")
    config = [(kept, b1p)] + [(curve(j, False), curve(j, True)) for j in range(2, 10)]
    want = set()
    for c, d in config:
        for r in (c, d, _add(c, d)):
            want.add(r)
            want.add(_neg(r))
    got = [tuple(r) for r in roots]
    if len(got) != 54 or set(got) != want:
        problems.append(f"roots {L2}: {len(got)} roots, not the 54 of the nine A2 blocks")
    if tuple(labels) != ("A2",) * 9:
        problems.append(f"roots {L2}: components {labels}")
    expected_u = expected_min_ample_u(L2)
    if expected_u is None or u != expected_u:
        problems.append(f"roots {L2}: min_ample_u {u}, expected {expected_u}")
    return problems
