"""Pell equation x^2 - D*y^2 = 1 over the integers.

Fundamental solutions come from one period of the continued-fraction
expansion of sqrt(D) (Lenstra, "Solving the Pell equation", Notices AMS 49,
2002); naive search is hopeless for many small D because the solutions grow
exponentially.  Only the +1 equation is provided.
"""

from dataclasses import dataclass
from math import gcd, isqrt


class NoSolution(ValueError):
    """x^2 - D*y^2 = 1 has no nontrivial solution (D is a perfect square)."""


class InvalidSolution(ValueError):
    """A claimed Pell solution does not satisfy the equation."""


def is_square(n):
    """True iff n is a perfect square (n >= 0 required)."""
    if n < 0:
        raise ValueError("is_square expects a nonnegative integer")
    return isqrt(n) ** 2 == n


@dataclass(frozen=True)
class PellFundamental:
    """Minimal positive solution of x^2 - D*y^2 = 1."""

    D: int
    x0: int
    y0: int

    def __post_init__(self):
        if self.x0 * self.x0 - self.D * self.y0 * self.y0 != 1:
            raise InvalidSolution("fundamental solution fails the Pell equation")
        if gcd(self.x0, self.y0) != 1:
            raise InvalidSolution("fundamental solution must be primitive")


def fundamental_solution(D):
    """Fundamental solution of x^2 - D*y^2 = 1 for a non-square D >= 2.

    Walks the continued fraction of sqrt(D) to the end of its first period,
    the first step whose denominator d is 1.  If the period has length k, the
    convergent p/q before that step has p^2 - D*q^2 = (-1)^k: for even k it
    is the minimal positive solution, for odd k its square
    (p^2 + D*q^2, 2*p*q) is (Lenstra, "Solving the Pell equation", Notices
    AMS 49, 2002).  No step of the walk squares a convergent.
    """
    if D < 2:
        raise ValueError("D must be at least 2")
    if is_square(D):
        raise NoSolution(f"{D} is a perfect square")
    a0 = isqrt(D)
    m, d, k = a0, D - a0 * a0, 1
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while d != 1:
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        m = d * a - m
        d = (D - m * m) // d
        k += 1
    if k % 2:
        p, q = p * p + D * q * q, 2 * p * q
    return PellFundamental(D, p, q)
