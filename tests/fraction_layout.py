"""The ``Fraction`` layout that ``exactnum``'s scalar boundary relies on.

``exactnum.divided`` builds each non-integral entry from its reduced pair
by filling its two slots, ``_numerator`` and ``_denominator``, and
``exactnum.numerators`` reads a ``Fraction`` from those slots.  ``check``
compares both with the public ``Fraction`` constructor in value, type, hash
and repr, over negative values, zero, denominator 1 and integers far past
64 bits.  It runs under pytest (tests/test_exactnum.py) and, with no pytest
installed, as

    PYTHONPATH=src python tests/fraction_layout.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

from orbifrob import exactnum as ex

BIG = 3 ** 200


def _cases() -> list[tuple[list, int]]:
    nums = [0, 1, -1, 2, -2, 3, 6, -6, 7, 12, -35, BIG, -BIG, BIG * 6, 2 ** 127 - 1]
    dens = [1, 2, 3, 6, 12, 35, BIG, 2 ** 64, 3 ** 150]
    return [(nums, d) for d in dens] + [([], 5), ([0, 0, 0], 7), ([BIG], BIG), ([-BIG], BIG * 2)]


def _seen(values: list) -> list:
    return [(type(x), x, hash(x), repr(x)) for x in values]


def check() -> int:
    """Number of (numerators, denominator) cases checked; raises on a mismatch."""
    cases = _cases()
    for nums, den in cases:
        got = ex.divided(nums, den)
        want = [ex.norm(Fraction(w, den)) for w in nums]
        assert _seen(got) == _seen(want), (nums, den)
        for x in got:   # reduced, with a positive denominator, as the constructor keeps it
            if type(x) is Fraction:
                assert x.denominator > 1 and x == Fraction(x.numerator, x.denominator)
        back, d = ex.numerators(got)
        assert [Fraction(w, d) for w in back] == [Fraction(x) for x in got], (nums, den)
    mixed = [Fraction(1, 2), 3, Fraction(-5, 6), 0]
    assert ex.numerators(mixed) == ([3, 18, -5, 0], 6)
    assert ex.numerators(mixed[1:]) == ([18, -5, 0], 6)
    assert ex.numerators([4, -2, 0]) == ([4, -2, 0], 1)
    return len(cases)


if __name__ == "__main__":
    count = check()
    print(f"fraction layout: {count} cases agree on Python {sys.version.split()[0]}")
