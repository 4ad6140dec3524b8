"""The ``Fraction`` layout that ``exactnum``'s scalar boundary relies on.

``exactnum.divided`` builds each non-integral entry from its reduced pair
by filling its two slots, ``_numerator`` and ``_denominator``, and
``exactnum.numerators`` reads a ``Fraction`` from those slots.  ``check``
compares both with the public ``Fraction`` constructor in value, type, hash
and repr, over negative values, zero, denominator 1 and integers far past
64 bits.  It reads back, through both of the reader's passes, vectors of
``Fraction``s over one denominator (numerators alone) and over several, and
``int``s mixed with ``Fraction``s (every entry scaled), and checks that a
bool and a ``Fraction`` subclass are refused.  It runs under pytest
(tests/test_exactnum.py) and, with no pytest installed, as

    PYTHONPATH=src python tests/fraction_layout.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from orbifrob import exactnum as ex

BIG = 3 ** 200


def _cases() -> list[tuple[list, int]]:
    nums = [0, 1, -1, 2, -2, 3, 6, -6, 7, 12, -35, BIG, -BIG, BIG * 6, 2 ** 127 - 1]
    dens = [1, 2, 3, 6, 12, 35, BIG, 2 ** 64, 3 ** 150]
    return [(nums, d) for d in dens] + [([], 5), ([0, 0, 0], 7), ([BIG], BIG), ([-BIG], BIG * 2)]


def _read_cases() -> list[list]:
    """Vectors for the reader: all-``Fraction`` over one denominator and over
    several, and ``int``s (negative, zero, past 64 bits) beside ``Fraction``s
    over one shared denominator and over several."""
    halves = [Fraction(1, 2), Fraction(-3, 2), Fraction(BIG, 2)]
    thirds = [Fraction(-1, 3), Fraction(2, 3)]
    ints = [0, -7, 5, BIG, -BIG, 2 ** 64 + 1]
    return [halves, thirds + [Fraction(1, BIG)], halves + thirds, [Fraction(0), Fraction(4)],
            ints[:2] + halves + ints[2:], thirds + ints, [3, Fraction(5, 2 ** 70), -2 ** 65],
            ints + halves + thirds + [Fraction(7, 3 ** 150)], [Fraction(0)] * 5 + [0] * 5]


class _Half(Fraction):
    pass


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
    for v in _read_cases():
        nums, d = ex.numerators(v)
        assert d > 0 and all(type(w) is int for w in nums), v
        assert [Fraction(w, d) for w in nums] == [Fraction(x) for x in v], v
        denominators = [Fraction(x).denominator for x in v]
        assert d == math.lcm(*denominators), v   # the lcm of the reduced ones, no larger
    for bad, name in ((True, "bool"), (_Half(1, 2), "_Half")):
        for v in ([Fraction(1, 2), bad], [1, bad], [bad]):
            try:
                ex.numerators(v)
            except TypeError as err:
                assert name in str(err), (v, err)
            else:
                raise AssertionError(f"{v!r} was read")
    mixed = [Fraction(1, 2), 3, Fraction(-5, 6), 0]
    assert ex.numerators(mixed) == ([3, 18, -5, 0], 6)
    assert ex.numerators(mixed[1:]) == ([18, -5, 0], 6)
    assert ex.numerators([4, -2, 0]) == ([4, -2, 0], 1)
    return len(cases) + len(_read_cases())


if __name__ == "__main__":
    count = check()
    print(f"fraction layout: {count} cases agree on Python {sys.version.split()[0]}")
