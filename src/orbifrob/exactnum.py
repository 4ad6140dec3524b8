"""Exact rational scalars and the small dense/sparse linear algebra kit.

Everything in this package runs over arbitrary-precision rationals; there is
no floating point anywhere.  Scalars are plain Python ``int`` where possible
and ``fractions.Fraction`` otherwise (``norm`` collapses integral fractions
back to ``int`` so the hot loops stay on machine integers as long as the
denominators allow).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]
Vector = list  # list[Rat]
Matrix = list  # list[list[Rat]]


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


# -- dense vectors ---------------------------------------------------------

def vec_zero(n: int) -> Vector:
    return [0] * n


def vec_add(u: Sequence[Rat], v: Sequence[Rat]) -> Vector:
    return [norm(a + b) for a, b in zip(u, v)]


def vec_scale(c: Rat, u: Sequence[Rat]) -> Vector:
    return [norm(c * a) for a in u]


# -- dense matrices --------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zero(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


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


def mat_vec(m: Matrix, v: Sequence[Rat]) -> Vector:
    if m and len(m[0]) != len(v):
        raise ValueError(f"shape mismatch for matrix-vector product: {len(m[0])} vs {len(v)}")
    out = []
    for row in m:
        s = 0
        for c, x in zip(row, v):
            if c != 0 and x != 0:
                s += c * x
        out.append(norm(s))
    return out


def mat_scale(c: Rat, m: Matrix) -> Matrix:
    return [[norm(c * x) for x in row] for row in m]


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


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


def solve(m: Matrix, b: Sequence[Rat]) -> Vector:
    """Exact solution of ``m @ x = b``; raises SingularMatrixError if none/ambiguous."""
    n = len(m)
    if n != len(b):
        raise ValueError(f"solve: {n} rows vs {len(b)} right-hand entries")
    cols = len(m[0]) if n else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    ech, pivots = echelon(aug)
    if cols in pivots:
        raise SingularMatrixError("inconsistent linear system", rank=len(pivots) - 1)
    if len(pivots) < cols:
        raise SingularMatrixError(
            f"underdetermined system (rank {len(pivots)} < {cols})", rank=len(pivots)
        )
    x = vec_zero(cols)
    for r, c in enumerate(pivots):
        x[c] = ech[r][cols]
    return x


def invert(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert: matrix is not square")
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    ech, pivots = echelon(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(f"singular matrix (rank {rank(m)})", rank=rank(m))
    return [row[n:] for row in ech]


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the right kernel, deterministic (free columns in order)."""
    if not m:
        return []
    cols = len(m[0])
    ech, pivots = echelon(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = vec_zero(cols)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = norm(-ech[r][f])
        basis.append(v)
    return basis


def metric_adjoint(m: Matrix, eta_src: Matrix, eta_dst: Matrix) -> Matrix:
    """Adjoint of ``m: V_src -> V_dst`` for pairings on source and target.

    Returns the map ``m*: V_dst -> V_src`` with
    ``eta_src(m* y, x) = eta_dst(y, m x)``, i.e. ``eta_src^-1 m^T eta_dst``.
    Both pairings must be symmetric and nondegenerate.
    """
    for eta, tag in ((eta_src, "source"), (eta_dst, "target")):
        if not is_symmetric(eta):
            raise ValueError(f"metric_adjoint: {tag} pairing is not symmetric")
    try:
        src_inv = invert(eta_src)
    except SingularMatrixError as exc:
        raise SingularMatrixError("metric_adjoint: degenerate source pairing", exc.rank)
    return mat_mul(src_inv, mat_mul(mat_transpose(m), eta_dst))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major index convention."""
    if not a or not b:
        return []
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    out = mat_zero(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            x = a[i][j]
            if x == 0:
                continue
            for k in range(rb):
                row = out[i * rb + k]
                for l in range(cb):
                    if b[k][l] != 0:
                        row[j * cb + l] = norm(x * b[k][l])
    return out


class SparseTensor3:
    """Sparse 3-index tensor: structure constants c[i,j,k] with unique keys."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, int, int, Rat]] = ()):
        self.entries: dict[tuple[int, int, int], Rat] = {}
        for i, j, k, v in entries:
            v = norm(rat(v) if isinstance(v, str) else v)
            if v == 0:
                continue
            key = (i, j, k)
            if key in self.entries:
                raise ValueError(f"duplicate sparse entry at {key}")
            self.entries[key] = v

    def get(self, i: int, j: int, k: int) -> Rat:
        return self.entries.get((i, j, k), 0)

    def items(self):
        return self.entries.items()

    def rows(self, dim: int) -> dict[tuple[int, int], dict[int, Rat]]:
        """Reshape into (i, j) -> {k: value} lookup rows."""
        table: dict[tuple[int, int], dict[int, Rat]] = {}
        for (i, j, k), v in self.entries.items():
            table.setdefault((i, j), {})[k] = v
        return table

    def __eq__(self, other):
        return isinstance(other, SparseTensor3) and self.entries == other.entries

    def __len__(self):
        return len(self.entries)
