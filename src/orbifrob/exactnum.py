"""Exact rational scalars and the small sparse linear algebra kit.

Everything in this package runs over arbitrary-precision rationals; there is
no floating point anywhere.  Scalars are plain Python ``int`` where possible
and ``fractions.Fraction`` otherwise (``norm`` collapses integral fractions
back to ``int`` so the hot loops stay on machine integers as long as the
denominators allow).

The product kernels, the cocycle scan and the integer tables the algebras
build run on integer numerators over one denominator, and cross the
boundary between exact scalars and numerators in exactly two places, both
here; no other module reads a numerator or a denominator or takes an lcm
or a gcd.  ``numerators`` reads a vector into (integer
numerators, the lcm of its entries' denominators), and ``divided`` writes
numerators over a denominator back as exact scalars, ``int`` where
integral.  An all-int vector passes ``numerators`` untouched; any other
vector, ``Fraction`` entries mixed with ``int`` ones or not, is read by
comprehensions over the ``Fraction`` slots: one collects the denominators,
and one builds every numerator over their lcm, an ``int`` standing for its
own numerator over 1.  ``divided`` builds each entry in one loop with no
function call of its own: one ``gcd``, then an ``int`` where the
denominator divides the numerator, else a ``Fraction`` whose two slots are
filled with the reduced pair, as ``Fraction._from_coprime_ints`` of Python
3.12 does, without ``Fraction.__new__``'s generic dispatch.  Both rest on
CPython's ``Fraction`` layout (two slots, ``_numerator`` and
``_denominator``, that hold the reduced pair with a positive denominator)
on Python 3.10 to 3.13; ``tests/fraction_layout.py`` pins it (value, type,
hash and repr against ``norm(Fraction(n, d))``, and both of the reader's
passes back) and runs under pytest and as a plain script.

Linear maps are sparse ``{index: {index: value}}`` maps, reduced by
``echelon`` (``rank`` counts its rows), combined by ``sparse_kron`` and
composed by ``mat_mul``; the private helpers beside them clean, transpose
and sum such maps for both algebra layers.
Documents are read and written here too, in one canonical form: every
table of scalars is written by ``table_entries`` as ``[*indices, "p/q"]``
entries sorted by their indices, and every document by ``dump_json``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]
SparseMap = dict  # {index: {index: Rat}}, no zero value and no empty inner map stored
SparseVec = dict  # {index: Rat}


class SingularMatrixError(ValueError):
    """Raised when an exact solve/inversion hits a singular matrix."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


def norm(x: Rat) -> Rat:
    """Collapse a Fraction with denominator 1 to an int."""
    # an exact type test: isinstance would dispatch through the numbers ABCs
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


_RAT_RE = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")   # ASCII digits only


def rat(x) -> Rat:
    """Coerce ints, Fractions and strings ``p`` or ``p/q`` (ASCII digits, an
    optional sign on each part, surrounding white space) to a scalar; a bool
    is refused, and so is any other string, such as ``1_0`` or a non-ASCII
    digit, which ``int`` would read."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return norm(x)
    if isinstance(x, str):
        s = x.strip()
        m = _RAT_RE.fullmatch(s)
        if m is None:
            raise ValueError(f"{x!r} is not an exact rational p or p/q")
        num, den = m.groups()
        if den is None:
            return int(num)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return norm(Fraction(int(num), int(den)))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def fmt_rat(x: Rat) -> str:
    """Serialize a scalar as ``p`` or ``p/q`` (reduced, positive denominator)."""
    x = norm(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


# -- the boundary between exact scalars and integer numerators --------------

_INTS = {int}
_RATS = {int, Fraction}


def numerators(v, length: int | None = None) -> tuple[list, int]:
    """A vector of exact scalars as (integer numerators, denominator): the
    denominator is the lcm of the entries' reduced denominators, and each
    numerator is its entry times it.  A vector of ints alone is returned as
    it is (a list), over 1; callers read the numerators and never write them.
    Any other vector is read by two comprehensions over the ``Fraction``
    slots: one collects the denominators, and one scales every entry to
    their lcm, an ``int`` entry being its own numerator over 1.  When every
    entry is a ``Fraction`` over one denominator, the second reads the
    numerators alone.  A vector whose length is not ``length`` (when given),
    or with an entry neither ``int`` nor ``Fraction``, is refused."""
    if length is not None and len(v) != length:
        raise ValueError(f"operand must have length {length}")
    types = set(map(type, v))
    if types <= _INTS:
        return v if type(v) is list else list(v), 1
    if not types <= _RATS:
        other = sorted(t.__name__ for t in types - _RATS)
        raise TypeError(f"operand entries must be int or Fraction, not {', '.join(other)}")
    dens = {x._denominator for x in v if type(x) is Fraction}
    if len(dens) == 1 and int not in types:
        return [x._numerator for x in v], dens.pop()
    lcm = math.lcm(*dens)
    scale = {d: lcm // d for d in dens}
    return [x._numerator * scale[x._denominator] if type(x) is Fraction else x * lcm
            for x in v], lcm


def divided(nums, den: int) -> list:
    """Integer numerators over a positive ``den`` as exact scalars: ``int``
    where ``den`` divides the numerator, else the ``Fraction`` of the
    reduced pair, equal in value, type, hash and repr to ``norm(Fraction(w,
    den))``.  One loop builds each entry from one ``gcd``, filling a
    non-integral entry's two slots in place; ``nums`` itself (as a list)
    when ``den`` is 1."""
    if den == 1:
        return nums if type(nums) is list else list(nums)
    out: list = []
    append, gcd, new = out.append, math.gcd, object.__new__
    for w in nums:
        g = gcd(w, den)
        if g == den:
            append(w // den)
        else:
            x = new(Fraction)
            x._numerator = w // g
            x._denominator = den // g
            append(x)
    return out


def check_indices(what: str, indices, bounds) -> None:
    """Reject document indices outside 0 <= i < bound; negative ones would wrap."""
    for i, bound in zip(indices, bounds):
        if type(i) is not int or not 0 <= i < bound:
            raise ValueError(f"{what} index {i!r} is not in range({bound})")


def check_basis_data(what: str, degrees, parities, labels) -> None:
    """Reject a non-int degree (a bool too), a parity not 0 or 1, a label not a str or repeated."""
    for d in degrees:
        if type(d) is not int:
            raise ValueError(f"{what}: degree {d!r} is not an integer")
    for p in parities:
        if type(p) is not int or p not in (0, 1):
            raise ValueError(f"{what}: parity {p!r} is not 0 or 1")
    for label in labels:
        if type(label) is not str:
            raise ValueError(f"{what}: basis label {label!r} is not a string")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what}: basis labels {list(labels)} are not distinct")


def check_new(what: str, seen: set, key: tuple) -> None:
    """Reject a document entry whose indices repeat an earlier entry's in ``seen``."""
    if key in seen:
        raise ValueError(f"duplicate {what} entry at {list(key)}")
    seen.add(key)


def table_entries(table: dict) -> list:
    """A document table's entries from a nested sparse map: the keys of each
    level in turn, a tuple key spread into its indices, give an entry
    ``[*indices, fmt_rat(value)]``; entries come sorted by their indices,
    which are unique, so no two values are compared."""
    def flat(node, prefix):
        for key, value in node.items():
            index = (*prefix, *key) if type(key) is tuple else (*prefix, key)
            if type(value) is dict:
                yield from flat(value, index)
            else:
                yield index, value

    return [[*index, fmt_rat(value)] for index, value in sorted(flat(table, ()))]


def dump_json(payload) -> str:
    """A document's canonical text: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(payload))


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: document is nested too deeply to read") from None


# -- sparse linear maps ------------------------------------------------------

def echelon(m: SparseMap) -> SparseMap:
    """Reduced row echelon form of a sparse map's inner maps, as {pivot: row}.

    Each kept row is 1 at its pivot, 0 at every other pivot and 0 before its
    pivot, so the rows are the unique reduced row echelon form; the rank is
    their count.  Reducing a new row needs one pass over the pivots it
    touches.
    """
    kept: dict = {}
    for vec in m.values():
        row = dict(vec)
        for c in [c for c in row if c in kept]:
            f = row[c]
            for k, v in kept[c].items():
                row[k] = row.get(k, 0) - f * v
        row = {k: v for k, v in row.items() if v != 0}
        if row:
            c = min(row)
            pivot = {k: Fraction(v) / row[c] for k, v in row.items()}
            for other in kept.values():
                f = other.pop(c, 0)
                if f:
                    for k, v in pivot.items():
                        if k != c:
                            other[k] = other.get(k, 0) - f * v
            kept[c] = pivot
    return {c: {k: norm(v) for k, v in row.items() if v != 0} for c, row in kept.items()}


def rank(m: SparseMap) -> int:
    """The rank of a sparse map's inner maps: the row count of its ``echelon``."""
    return len(echelon(m))


def sparse_kron(a: SparseMap, b: SparseMap, outer: int, inner: int) -> SparseMap:
    """Kronecker product of sparse maps with row-major index fusion; ``outer``
    and ``inner`` bound the outer and inner indices of ``b``."""
    return {p * outer + r: {q * inner + s: norm(x * y) for q, x in ap.items() for s, y in br.items()}
            for p, ap in a.items() for r, br in b.items()}


def _clean(vec: SparseVec) -> SparseVec:
    """Drop the zeros of a sparse vector and normalize its values, in place."""
    for k in [k for k, v in vec.items() if v == 0]:
        del vec[k]
    for k, v in vec.items():
        vec[k] = norm(v)
    return vec


def _clean_map(block: SparseMap, outer: int, inner: int, what: str) -> None:
    """``_clean`` every vector of an {index: {index: value}} map and drop the
    empty ones, in place; the indices are checked first."""
    for p, vec in block.items():
        if not 0 <= p < outer or any(not 0 <= q < inner for q in vec):
            raise ValueError(f"{what} index out of range")
    for p in [p for p, vec in block.items() if not _clean(vec)]:
        del block[p]


def _transpose(block: SparseMap) -> SparseMap:
    out: dict = {}
    for i, row in block.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def _sum_rows(terms) -> SparseVec:
    """The cleaned sum of c * row over the (c, row) pairs of ``terms``."""
    out: SparseVec = {}
    for c, row in terms:
        for q, v in row.items():
            out[q] = out.get(q, 0) + c * v
    return _clean(out)


def mat_mul(a: SparseMap, b: SparseMap) -> SparseMap:
    """Column map of a after b."""
    return {j: out for j, col in b.items()
            if (out := _sum_rows((c, a.get(k, {})) for k, c in col.items()))}


def _bilinear(table: dict, a, b, size: int) -> list:
    """Dense vectors a and b multiplied through a table {(i, j): {k: c}}."""
    out = [0] * size
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            row = table.get((i, j)) if y != 0 else None
            if row:
                xy = x * y
                for k, c in row.items():
                    out[k] += xy * c
    return [norm(v) for v in out]
