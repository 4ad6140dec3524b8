"""Finite-dimensional graded Frobenius algebras over exact rationals.

An algebra is given by structure constants ``e_i e_j = sum_k c[i,j,k] e_k``,
stored as rows ``{(i, j): {k: c[i,j,k]}}`` with no zero constant, a
distinguished unit vector and the pairing's rows ``{i: {j: eta(e_i, e_j)}}``
with no zero value, the form every G-algebra block takes.  Construction
checks only names, lengths, basis bookkeeping and metric indices; the laws
(associativity, unit, invariance, nondegeneracy, grading and parity) are
checked by ``verify``, one function per law that stops at its first
witness.  ``from_json_dict`` and ``load`` only parse: they range-check
indices and refuse repeated entries.  ``validated`` refuses any failure of
the laws; ``SymmetricProductAlgebra.__init__`` runs it on its base, the one
consumer that assumes the laws hold.

Every product inside a tensor power A^(x)m goes through one kernel,
``factorwise_product``.  It holds its operands' integer numerators by flat
index, split as A^(x)m = A^(x)p (x) A^(x)q with p = m // 2 into dense chunks
of the low factors A^(x)q, and runs them through ``_walk``, one two-level
loop: over the pair rows of A^(x)p, and per live pair of high indices one
call of the low table A^(x)q compiled into straight-line code.
``factorwise_multiply`` is its form on dense vectors, and the symmetric
products' chain route calls the kernel on its split numerators directly,
with its structurally unit factors leading, once per product: it multiplies
its copairing insertions in as linear maps, outside the kernel.  ``_walk``
only applies the rows it is given: the symmetric products' pushforward runs
it on rows composed from its own joint orbits' maps, which keeps the two
product routes independent.

One kernel is compiled per low table: ``_kernel`` writes a function that
unpacks both chunks into locals and returns every low output in one list
display, built from integer indices and integer numerators only (it
refuses any other entry), and compiles it.  The pair rows of A^(x)r are
built once per algebra and power, and the kernel of A^(x)r is compiled on
the first call that asks for r (the symmetric products' push plans keep
theirs per low half, its joint orbits' sizes and strides, and every plan
with that half holds the one kernel).  Both, like the inverse pairing and
every derived map of the symmetric products, are kept by ``memo``: a
function of its owner and a key, built on the first call for that key and
stored in the owner's ``_memo`` dict, so it lives and dies with the owner.
Compiling costs about 0.1, 0.3, 3, 25 and 370 ms of CPU for A^(x)q of
surface4 at q = 1..5 (9**q terms; q = 5 has a transient peak near 70 MB;
CPython 3.11, one core of a shared 2-core machine), so the low half stays
at m - m // 2 factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

from . import exactnum as ex
from ._report import Report, _as_product, _associator, _entries, _fmt_vec, _joins
from .exactnum import Rat, _bilinear, _clean, _clean_map, _sum_rows, _transpose


def memo(build):
    """``build(owner, *key)`` kept per owner and key: built on the first call
    for a key, returned by every later one.  The results live in the owner's
    ``_memo`` dict under the name of ``build``, so they go with the owner; a
    build that raises stores nothing."""
    name = build.__name__

    def cached(owner, *key):
        table = owner._memo.setdefault(name, {})
        if key not in table:
            table[key] = build(owner, *key)
        return table[key]

    cached.__name__, cached.__doc__ = name, build.__doc__
    return cached


@dataclass
class FrobeniusAlgebra:
    name: str
    labels: list[str]
    degrees: list[int]
    parities: list[int]
    unit: list
    rows: dict             # (i, j) -> {k: c[i,j,k]}
    metric: ex.SparseMap   # i -> {j: eta(e_i, e_j)}

    # derived, filled in __post_init__
    dim: int = field(init=False)
    _pairs: list = field(init=False, repr=False, compare=False)
    _pairs_den: int = field(init=False, repr=False, compare=False)
    top_degree: int = field(init=False)
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if type(self.name) is not str:
            raise ValueError(f"name {self.name!r} is not a string")
        self.dim = len(self.labels)
        if not (len(self.degrees) == len(self.parities) == len(self.unit) == self.dim):
            raise ValueError(f"{self.name}: field lengths disagree with dim {self.dim}")
        ex.check_basis_data(self.name, self.degrees, self.parities, self.labels)
        _clean_map(self.metric, self.dim, self.dim, f"{self.name}: metric")
        cleaned = ((key, _clean(dict(row))) for key, row in self.rows.items())
        self.rows = rows = {key: row for key, row in cleaned if row}
        # per left index x: (y, row items) for each y with e_x e_y != 0, as
        # integer numerators over one denominator
        nums, self._pairs_den = ex.numerators([c for row in rows.values() for c in row.values()])
        nums = iter(nums)
        self._pairs = [[] for _ in range(self.dim)]
        for (x, y), row in rows.items():
            self._pairs[x].append((y, [(k, next(nums)) for k in row]))
        pair_degrees = {self.degrees[i] + self.degrees[j]
                        for i, row in self.metric.items() for j in row}
        # uniformity of the pairing degree is a law checked by verify()
        self.top_degree = max(pair_degrees) if pair_degrees else 0

    @property
    @memo
    def metric_inv(self) -> ex.SparseMap:
        """The inverse pairing's rows: the right block of the echelon of [eta | I]."""
        n = self.dim
        ech = ex.echelon({i: {**self.metric.get(i, {}), n + i: 1} for i in range(n)})
        rank = sum(c < n for c in ech)
        if rank != n:
            raise ex.SingularMatrixError(f"singular matrix (rank {rank})", rank=rank)
        return {i: {j - n: v for j, v in ech[i].items() if j >= n} for i in range(n)}

    # -- algebra operations -------------------------------------------------

    def multiply(self, a, b):
        """Bilinear extension of the structure constants."""
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError(f"{self.name}: operand dimension mismatch")
        return _bilinear(self.rows, a, b, self.dim)

    def copairing(self) -> list[tuple[int, int, Rat]]:
        """Dual-basis tensor: triples (i, j, c) representing sum c e_i (x) e_j."""
        inv = self.metric_inv
        return [(i, j, inv[i][j]) for i in sorted(inv) for j in sorted(inv[i])]

    def euler_class(self):
        """Product of the copairing: sum over dual pairs of e_i e^i."""
        out = _sum_rows((c, self.rows.get((i, j), {})) for i, j, c in self.copairing())
        return [out.get(k, 0) for k in range(self.dim)]

    def power(self, v, exponent: int):
        """v^exponent with v^0 = unit."""
        if exponent < 0:
            raise ValueError("negative algebra powers are not defined")
        out = list(self.unit)
        for _ in range(exponent):
            out = self.multiply(out, v)
        return out

    def is_even(self) -> bool:
        return all(p == 0 for p in self.parities)

    def _constants(self):
        """Index triples (i, j, k) of the nonzero structure constants."""
        return [(i, j, k) for (i, j), row in self.rows.items() for k in row]

    # -- verification --------------------------------------------------------

    def verify(self) -> Report:
        """Exhaustive law check; failures are report entries, not exceptions."""
        entries = _entries(self.rows)   # x y of both associator laws; y z with one outer index
        yz = [(0, j, k, p, c) for j, k, p, c in entries]
        constants = sum(map(len, self.rows.values()))
        return Report().run([
            ("associativity", "(ab)c = a(bc)", self.dim ** 3, _associative, self, entries, yz),
            ("unit", "1 a = a 1 = a", self.dim, _unital, self),
            ("invariance", "eta(ab,c) = eta(a,bc)", self.dim ** 3, _invariant, self, entries, yz),
            ("nondegeneracy", "pairing invertible", 1, _nondegenerate, self),
            ("symmetry", "pairing symmetric", 1, _symmetric, self),
            ("metric-grading", "pairing concentrated in one degree",
             sum(map(len, self.metric.values())), _metric_graded, self),
            ("grading", "deg(ab) = deg a + deg b on nonzero products", constants, _graded, self),
            ("parity", "parity additive, unit even", constants + 1, _parity, self),
        ])


def _associative(A: FrobeniusAlgebra, entries: list, yz: list):
    found = _associator(entries, yz, *_joins(A.rows, 0))
    if found:
        (_, i, j, k), lhs, rhs = found
        return {"i": A.labels[i], "j": A.labels[j], "k": A.labels[k],
                "lhs": _fmt_vec(A.labels, lhs), "rhs": _fmt_vec(A.labels, rhs)}
    return None


def _unital(A: FrobeniusAlgebra):
    basis = ([int(j == i) for j in range(A.dim)] for i in range(A.dim))
    return next(({"i": A.labels[i]} for i, e in enumerate(basis)
                 if A.multiply(A.unit, e) != e or A.multiply(e, A.unit) != e), None)


def _invariant(A: FrobeniusAlgebra, entries: list, yz: list):
    found = _associator(entries, yz, *_joins(_as_product(A.metric), 0))
    if found:
        (_, i, j, k), lhs, rhs = found
        return {"i": A.labels[i], "j": A.labels[j], "k": A.labels[k],
                "eta(ij,k)": ex.fmt_rat(lhs.get(0, 0)), "eta(i,jk)": ex.fmt_rat(rhs.get(0, 0))}
    return None


def _nondegenerate(A: FrobeniusAlgebra):
    rank = ex.rank(A.metric)
    return None if rank == A.dim else {"rank": rank}


def _symmetric(A: FrobeniusAlgebra):
    return None if _transpose(A.metric) == A.metric else {}


def _metric_graded(A: FrobeniusAlgebra):
    d, top = A.degrees, A.top_degree
    pairs = ((i, j) for i in sorted(A.metric) for j in sorted(A.metric[i]))
    return next(({"i": A.labels[i], "j": A.labels[j], "degree": d[i] + d[j], "top": top}
                 for i, j in pairs if d[i] + d[j] != top), None)


def _graded(A: FrobeniusAlgebra):
    d = A.degrees
    return next(({"i": A.labels[i], "j": A.labels[j], "k": A.labels[k]}
                 for i, j, k in A._constants() if d[i] + d[j] != d[k]), None)


def _parity(A: FrobeniusAlgebra):
    p = A.parities
    for i, j, k in A._constants():
        if (p[i] + p[j] - p[k]) % 2:
            return {"i": A.labels[i], "j": A.labels[j], "k": A.labels[k]}
    if any(x != 0 and p[i] != 0 for i, x in enumerate(A.unit)):
        return {"unit": "odd component"}
    return None


def validated(algebra: FrobeniusAlgebra) -> FrobeniusAlgebra:
    report = algebra.verify()
    if not report.passed:
        first = report.failures()[0]
        raise ValueError(f"{algebra.name}: {first.key} fails, witness {first.witness}")
    return algebra


# -- tensor powers -----------------------------------------------------------

_FLAT_SUM = 256   # terms a kernel adds in one flat chain, far below the compiler's nesting limit


def _sum(terms: list) -> str:
    """Source of the sum of ``terms``, nested in halves past ``_FLAT_SUM``
    terms so that the compiler's recursion depth stays logarithmic."""
    if len(terms) <= _FLAT_SUM:
        return " + ".join(terms)
    half = len(terms) // 2
    return f"({_sum(terms[:half])}) + ({_sum(terms[half:])})"


def _kernel(rows: list, right: int, size: int):
    """The low table ``rows`` (x -> [(y, [(k, numerator)])] with x < len(rows),
    y < ``right`` and k < ``size``) compiled into one function of two dense
    integer chunks: it unpacks them into locals and returns the ``size``
    outputs in one list display, output k the sum over x of l_x * (c r_y +
    ...).  The source is built from integer indices and integer numerators
    only; any other entry is refused."""
    outputs = [{} for _ in range(size)]   # k -> x -> [(y, numerator)]
    for x, pairs in enumerate(rows):
        for y, row in pairs:
            for k, c in row:
                if not (type(y) is type(k) is type(c) is int and 0 <= y < right and 0 <= k < size):
                    raise TypeError(f"kernel entry {(x, y, k, c)!r} is not an integer in range")
                outputs[k].setdefault(x, []).append((y, c))

    def times(x, ys):
        terms = [f"r{y}" if c == 1 else f"{c} * r{y}" for y, c in ys]
        return f"l{x} * " + (terms[0] if len(terms) == 1 else f"({_sum(terms)})")

    lines = ["def kernel(L, R):"]
    for name, count, chunk in (("l", len(rows), "L"), ("r", right, "R")):
        if count:   # a 0-dimensional base has no entries to unpack
            lines.append(f"    {''.join(f'{name}{i}, ' for i in range(count))}= {chunk}")
    body = ", ".join(_sum([times(x, ys) for x, ys in xs.items()]) or "0" for xs in outputs)
    lines.append(f"    return [{body}]")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<product kernel>", "exec"), namespace)
    return namespace["kernel"]


@memo
def _pair_rows(algebra: FrobeniusAlgebra, r: int) -> list:
    """The pair rows of A^(x)r on flat indices over ``algebra._pairs_den **
    r``, x -> [(y, [(k, numerator)])] for each y with e_x e_y != 0: the
    Kronecker power of the base's, built from A^(x)0's 0 -> [(0, [(0, 1)])]."""
    if r == 0:
        return [[(0, [(0, 1)])]]
    D = algebra.dim
    return [[(Y * D + y, [(K * D + k, C * c) for K, C in row for k, c in pair_row])
             for Y, row in prev for y, pair_row in algebra._pairs[x]]
            for prev in _pair_rows(algebra, r - 1) for x in range(D)]


@memo
def _power_pairs(algebra: FrobeniusAlgebra, r: int) -> tuple:
    """(rows, kernel) of A^(x)r: its ``_pair_rows`` and their ``_kernel``."""
    rows = _pair_rows(algebra, r)
    return rows, _kernel(rows, algebra.dim ** r, algebra.dim ** r)


def _split(acc, size: int) -> dict:
    """Flat numerators whose low factors span ``size`` indices, keyed by the
    index on the high factors: per nonzero high index, the low factors'
    numerators as a dense slice."""
    out = {}
    for hi, start in enumerate(range(0, len(acc), size or 1)):   # size 0: a 0-dim base
        chunk = acc[start:start + size]
        if any(chunk):
            out[hi] = chunk
    return out


def _walk(lhs: dict, rhs: dict, high: list, kernel, size: int, length: int) -> list:
    """The two-level product loop on integer numerators, written to ``length``
    flat outputs at ``kh * size + k``: operands are ``_split`` by high index
    into dense low chunks.  Each high pair with a row in ``high`` (x -> [(y,
    [(kh, numerator)])]) multiplies its two low chunks once by the compiled
    low table ``kernel``, and the low product, times the row's numerator, is
    added into the output block of each high index kh of the row; a dead
    pair costs no multiplication, and a high index the right operand lacks
    is skipped once per high pair."""
    out = [0] * length
    for xh, left in lhs.items():
        for yh, high_row in high[xh]:
            right = rhs.get(yh)
            if right is None:
                continue
            prod = kernel(left, right)
            for kh, ch in high_row:
                start = kh * size
                out[start:start + size] = map(add, out[start:start + size],
                                              prod if ch == 1 else map(mul, prod, repeat(ch)))
    return out


def factorwise_product(algebra: FrobeniusAlgebra, m: int, left, right) -> tuple[list, int]:
    """Product on A^(x)m = A^(x)p (x) A^(x)q, p = m // 2, on integer numerators.

    Operands are (``_split`` numerators, denominator) with A^(x)q as the low
    factors.  ``_walk`` runs them through the pair rows of A^(x)p and the
    kernel of A^(x)q; a right operand whose high factors are mostly the unit
    has few high indices.  Returns (flat numerators, denominator).
    """
    p = m // 2
    size = algebra.dim ** (m - p)
    (lhs, d1), (rhs, d2) = left, right
    out = _walk(lhs, rhs, _power_pairs(algebra, p)[0], _power_pairs(algebra, m - p)[1], size,
                size * algebra.dim ** p)
    # one row constant per factor and product
    return out, d1 * d2 * algebra._pairs_den ** m


def factorwise_multiply(algebra: FrobeniusAlgebra, m: int, u, v):
    """Product on A^(x)m on dense vectors: ``factorwise_product`` of the
    operands' flat numerators, divided once.  A^(x)0 is the ground field,
    where the product is that of the two scalars."""
    size = algebra.dim ** m
    if len(u) != size or len(v) != size:
        raise ValueError(f"tensor power operands must have length {size}")
    operands, low = [], algebra.dim ** (m - m // 2)
    for vec in (u, v):
        nums, den = ex.numerators(vec)
        operands.append((_split(nums, low), den))
    return ex.divided(*factorwise_product(algebra, m, *operands))


def tensor_metric(algebra: FrobeniusAlgebra, m: int) -> ex.SparseMap:
    """The factorwise pairing eta^(x)m on A^(x)m, as rows."""
    D, out = algebra.dim, {0: {0: 1}}
    for _ in range(m):
        out = ex.sparse_kron(out, algebra.metric, D, D)
    return out


def tensor_unit(algebra: FrobeniusAlgebra, m: int):
    out = [1]
    for _ in range(m):
        out = [ex.norm(c * v) for c in out for v in algebra.unit]
    return out


# -- JSON document -----------------------------------------------------------

def to_json_dict(algebra: FrobeniusAlgebra) -> dict:
    return {
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": [
            {"label": algebra.labels[i], "degree": algebra.degrees[i], "parity": algebra.parities[i]}
            for i in range(algebra.dim)
        ],
        "unit": [ex.fmt_rat(x) for x in algebra.unit],
        "metric": ex.table_entries(algebra.metric),
        "structure": ex.table_entries(algebra.rows),
    }


def from_json_dict(doc: dict) -> FrobeniusAlgebra:
    dim = doc["dim"]
    basis = doc["basis"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"dim {dim!r} is not an integer >= 0")
    if len(basis) != dim:
        raise ValueError(f"declared dim {dim} but {len(basis)} basis entries")
    metric: dict = {}
    seen: set = set()
    for i, j, v in doc.get("metric", []):
        ex.check_indices("metric", (i, j), (dim, dim))
        ex.check_new("metric", seen, (i, j))
        metric.setdefault(i, {})[j] = ex.rat(v)
    rows: dict = {}
    seen = set()
    for i, j, k, v in doc.get("structure", []):
        ex.check_indices("structure", (i, j, k), (dim, dim, dim))
        ex.check_new("structure", seen, (i, j, k))
        rows.setdefault((i, j), {})[k] = ex.rat(v)
    return FrobeniusAlgebra(
        name=doc.get("name", "algebra"),
        labels=[b["label"] for b in basis],
        degrees=[b.get("degree", 0) for b in basis],
        parities=[b.get("parity", 0) for b in basis],
        unit=[ex.rat(v) for v in doc["unit"]],
        rows=rows,
        metric=metric,
    )


def load(path) -> FrobeniusAlgebra:
    return from_json_dict(ex.load_json(path))
