"""Rational pairings and the discriminant group of the curve-block lattice K.

The package pairs only lattice classes, as integers.  The representatives
w_1..w_3 of K*/K lie outside NS, so the tests that pin their Gram matrix
pair them here, exactly, as fractions.
"""

from fractions import Fraction

from genkummer.ns_lattice import _block_pattern, pairing_times_nine

_DUAL_BLOCKS = (
    {5: 1, 7: 1, 8: 1},
    {4: 2, 6: 1, 7: 2, 8: 1},
    {3: 1, 5: 1, 6: 1},
)


def dual_generator(i):
    """Representative w_i (i = 1..3) of the curve-block discriminant group."""
    return _block_pattern(_DUAL_BLOCKS[i - 1])


def pairing_of(L2, c, d):
    """Exact rational intersection number of any two classes."""
    return Fraction(pairing_times_nine(L2, c.num, d.num), 9)
