"""Exact rational scalars and the small dense/sparse linear algebra kit.

Everything in this package runs over arbitrary-precision rationals; there is
no floating point anywhere.  Scalars are plain Python ``int`` where possible
and ``fractions.Fraction`` otherwise (``norm`` collapses integral fractions
back to ``int`` so the hot loops stay on machine integers as long as the
denominators allow).

Linear maps are sparse ``{index: {index: value}}`` maps, reduced by
``sparse_echelon`` and combined by ``sparse_kron``.  The dense ``echelon``,
``rank`` and ``mat_mul`` (with its ``mat_zero``) have no caller in the
package: they remain as the entry points the benchmark tracer patches by
name, and as references the tests check sparse results against.  Documents
are read and written here too, in one canonical JSON form (``dump_json``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]
Vector = list  # list[Rat]
Matrix = list  # list[list[Rat]]
SparseMap = dict  # {index: {index: Rat}}, no zero value and no empty inner map stored


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


def rat(x) -> Rat:
    """Coerce ints, Fractions and strings like ``-3/4`` to a scalar."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return norm(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            num, den = (int(part) for part in s.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator in {s!r}")
            return norm(Fraction(num, den))
        return int(s)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def fmt_rat(x: Rat) -> str:
    """Serialize a scalar as ``p`` or ``p/q`` (reduced, positive denominator)."""
    x = norm(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def check_indices(what: str, indices, bounds) -> None:
    """Reject document indices outside 0 <= i < bound; negative ones would wrap."""
    for i, bound in zip(indices, bounds):
        if type(i) is not int or not 0 <= i < bound:
            raise ValueError(f"{what} index {i!r} is not in range({bound})")


def check_basis_data(what: str, degrees, parities, labels) -> None:
    """Reject a degree that is not an int (nor a bool), a parity not 0 or 1, a label not a str."""
    for d in degrees:
        if type(d) is not int:
            raise ValueError(f"{what}: degree {d!r} is not an integer")
    for p in parities:
        if type(p) is not int or p not in (0, 1):
            raise ValueError(f"{what}: parity {p!r} is not 0 or 1")
    for label in labels:
        if type(label) is not str:
            raise ValueError(f"{what}: basis label {label!r} is not a string")


def check_new(what: str, seen: set, key: tuple) -> None:
    """Reject a document entry whose indices repeat an earlier entry's in ``seen``."""
    if key in seen:
        raise ValueError(f"duplicate {what} entry at {list(key)}")
    seen.add(key)


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


# -- dense vectors ---------------------------------------------------------

def vec_zero(n: int) -> Vector:
    return [0] * n


def basis_vector(n: int, i: int) -> Vector:
    v = [0] * n
    v[i] = 1
    return v


# -- dense matrices --------------------------------------------------------

def mat_zero(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch for matrix product: {len(a[0])} vs {len(b)}")
    cols = len(b[0]) if b else 0
    out = mat_zero(len(a), cols)
    for i, row in enumerate(a):
        oi = out[i]
        for k, c in enumerate(row):
            if c == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != 0:
                    oi[j] = norm(oi[j] + c * bk[j])
    return out


def echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (copy) plus pivot column list."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [[norm(x) for x in row] for row in a], pivots


def rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    _, pivots = echelon(m)
    return len(pivots)


def sparse_echelon(m: SparseMap) -> SparseMap:
    """Reduced row echelon form of a sparse map's inner maps, as {pivot: row}.

    Each kept row is 1 at its pivot, 0 at every other pivot and 0 before its
    pivot, so the rows are the unique RREF of the dense ``echelon``; the rank
    is their count.  Reducing a new row needs one pass over the pivots it
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


def sparse_kron(a: SparseMap, b: SparseMap, outer: int, inner: int) -> SparseMap:
    """Kronecker product of sparse maps with row-major index fusion; ``outer``
    and ``inner`` bound the outer and inner indices of ``b``."""
    return {p * outer + r: {q * inner + s: norm(x * y) for q, x in ap.items() for s, y in br.items()}
            for p, ap in a.items() for r, br in b.items()}
