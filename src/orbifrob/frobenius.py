"""Finite-dimensional graded Frobenius algebras over exact rationals.

An algebra is given by structure constants ``e_i e_j = sum_k c[i,j,k] e_k``,
stored as rows ``{(i, j): {k: c[i,j,k]}}`` with no zero constant, a
distinguished unit vector and the pairing's rows ``{i: {j: eta(e_i, e_j)}}``
with no zero value, the form every G-algebra block takes.  Construction
checks only names, lengths, basis bookkeeping and metric indices; the laws
(associativity, unit, invariance, nondegeneracy, grading and parity) are
checked by ``verify``, which ``from_json_dict`` runs by default and
``SymmetricProductAlgebra`` runs again on its base, so code downstream of
those may assume the laws hold.

Every product inside a tensor power A^(x)m goes through one kernel,
``factorwise_product``.  It holds its operands' integer numerators by flat
index, split as A^(x)m = A^(x)p (x) A^(x)q with p = m // 2, and runs them
through ``_walk``, one two-level loop, over the pair rows of A^(x)p and
A^(x)q, which are built once per algebra and power; ``factorwise_multiply``
is its form on dense vectors, and the symmetric products' chain route calls
the kernel on its split numerators directly, with its structurally unit
factors leading.  ``_walk`` only applies the rows it is given: the
symmetric products' pushforward runs it on rows composed from its own joint
orbits' maps, which keeps the two product routes independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

from . import exactnum as ex
from ._report import Report
from .exactnum import Rat
from .gfrob import (_as_product, _associator, _bilinear, _clean_map, _entries, _fmt_vec, _joins,
                    _transpose)


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
    _metric_inv: ex.SparseMap | None = field(init=False, default=None, repr=False, compare=False)
    _pair_powers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.name) is not str:
            raise ValueError(f"name {self.name!r} is not a string")
        self.dim = len(self.labels)
        if not (len(self.degrees) == len(self.parities) == len(self.unit) == self.dim):
            raise ValueError(f"{self.name}: field lengths disagree with dim {self.dim}")
        ex.check_basis_data(self.name, self.degrees, self.parities, self.labels)
        _clean_map(self.metric, self.dim, self.dim, f"{self.name}: metric")
        rows = {}
        for key, row in self.rows.items():
            row = {k: ex.norm(v) for k, v in row.items() if v != 0}
            if row:
                rows[key] = row
        self.rows = rows
        # per left index x: (y, row items) for each y with e_x e_y != 0, as
        # integer numerators over one denominator
        den = math.lcm(*(c.denominator for row in rows.values() for c in row.values()))
        self._pairs_den = den
        self._pair_powers = [([[(0, [(0, 1)])]], [[(0, 0, 1)]])]   # ``_power_pairs`` by r
        self._pairs = [[] for _ in range(self.dim)]
        for (x, y), row in rows.items():
            self._pairs[x].append(
                (y, [(k, c.numerator * (den // c.denominator)) for k, c in row.items()]))
        pair_degrees = {self.degrees[i] + self.degrees[j]
                        for i, row in self.metric.items() for j in row}
        # uniformity of the pairing degree is a law checked by verify()
        self.top_degree = max(pair_degrees) if pair_degrees else 0

    @property
    def metric_inv(self) -> ex.SparseMap:
        """The inverse pairing's rows: the right block of the echelon of [eta | I]."""
        if self._metric_inv is None:
            n = self.dim
            ech = ex.sparse_echelon({i: {**self.metric.get(i, {}), n + i: 1} for i in range(n)})
            rank = sum(c < n for c in ech)
            if rank != n:
                raise ex.SingularMatrixError(f"singular matrix (rank {rank})", rank=rank)
            self._metric_inv = {i: {j - n: v for j, v in ech[i].items() if j >= n}
                                for i in range(n)}
        return self._metric_inv

    # -- algebra operations -------------------------------------------------

    def multiply(self, a, b):
        """Bilinear extension of the structure constants."""
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError(f"{self.name}: operand dimension mismatch")
        return _bilinear(self.rows, a, b, self.dim)

    def multiply_basis(self, i: int, j: int) -> dict:
        """Sparse product of two basis elements."""
        return dict(self.rows.get((i, j), {}))

    def copairing(self) -> list[tuple[int, int, Rat]]:
        """Dual-basis tensor: triples (i, j, c) representing sum c e_i (x) e_j."""
        inv = self.metric_inv
        return [(i, j, inv[i][j]) for i in sorted(inv) for j in sorted(inv[i])]

    def euler_class(self):
        """Product of the copairing: sum over dual pairs of e_i e^i."""
        out = ex.vec_zero(self.dim)
        for i, j, c in self.copairing():
            for k, v in self.rows.get((i, j), {}).items():
                out[k] += c * v
        return [ex.norm(v) for v in out]

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
        report = Report()
        dim = self.dim

        # the associator kernel with a single outer index
        entries = _entries(self.rows)
        yz = [(0, j, k, p, c) for j, k, p, c in entries]
        after, before = _joins(self.rows, 0)
        found = _associator(entries, after, yz, before)
        witness = None
        if found:
            (_, i, j, k), lhs, rhs = found
            witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k],
                       "lhs": _fmt_vec(self.labels, lhs), "rhs": _fmt_vec(self.labels, rhs)}
        report.add("associativity", "(ab)c = a(bc)", witness is None, dim ** 3, witness)

        witness = None
        for i in range(dim):
            e = ex.basis_vector(dim, i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                witness = {"i": self.labels[i]}
                break
        report.add("unit", "1 a = a 1 = a", witness is None, dim, witness)

        after, before = _joins(_as_product(self.metric), 0)
        found = _associator(entries, after, yz, before)
        witness = None
        if found:
            (_, i, j, k), lhs, rhs = found
            witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k],
                       "eta(ij,k)": ex.fmt_rat(lhs.get(0, 0)), "eta(i,jk)": ex.fmt_rat(rhs.get(0, 0))}
        report.add("invariance", "eta(ab,c) = eta(a,bc)", witness is None, dim ** 3, witness)

        rank = len(ex.sparse_echelon(self.metric))
        report.add("nondegeneracy", "pairing invertible", rank == dim, 1,
                   None if rank == dim else {"rank": rank})

        sym = _transpose(self.metric) == self.metric
        report.add("symmetry", "pairing symmetric", sym, 1, None if sym else {})

        witness = None
        count = 0
        for i in sorted(self.metric):
            for j in sorted(self.metric[i]):
                count += 1
                if self.degrees[i] + self.degrees[j] != self.top_degree and witness is None:
                    witness = {"i": self.labels[i], "j": self.labels[j],
                               "degree": self.degrees[i] + self.degrees[j],
                               "top": self.top_degree}
        report.add("metric-grading", "pairing concentrated in one degree",
                   witness is None, count, witness)

        witness = None
        count = 0
        for i, j, k in self._constants():
            count += 1
            if self.degrees[i] + self.degrees[j] != self.degrees[k] and witness is None:
                witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k]}
        report.add("grading", "deg(ab) = deg a + deg b on nonzero products", witness is None, count, witness)

        witness = None
        count = 0
        for i, j, k in self._constants():
            count += 1
            if (self.parities[i] + self.parities[j] - self.parities[k]) % 2 and witness is None:
                witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k]}
        unit_even = all(
            x == 0 or self.parities[i] == 0 for i, x in enumerate(self.unit)
        )
        if not unit_even and witness is None:
            witness = {"unit": "odd component"}
        report.add("parity", "parity additive, unit even", witness is None and unit_even, count + 1, witness)

        return report


def validated(algebra: FrobeniusAlgebra) -> FrobeniusAlgebra:
    report = algebra.verify()
    if not report.passed:
        first = report.failures()[0]
        raise ValueError(f"{algebra.name}: {first.key} fails, witness {first.witness}")
    return algebra


# -- tensor powers -----------------------------------------------------------

def tensor_tuple(index: int, dim: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(index % dim)
        index //= dim
    return tuple(reversed(out))


def _scaled(v, length: int) -> tuple[list, int]:
    """A dense vector of ``length`` entries as integer numerators over one
    denominator, the lcm of theirs: each entry's ratio is read once, and the
    numerators are rescaled only when the denominators differ."""
    if len(v) != length:
        raise ValueError(f"operand must have length {length}")
    ratios = [x.as_integer_ratio() for x in v]
    dens = {d for _, d in ratios}
    if len(dens) > 1:
        den = math.lcm(*dens)
        return [w * (den // d) for w, d in ratios], den
    return [w for w, _ in ratios], dens.pop() if dens else 1


def _numerators(v, keys) -> tuple[list, int]:
    """Nonzero terms (key, integer numerator) of a dense vector, over one
    denominator; ``keys`` name the entries in basis order (index tuples or
    flat indices)."""
    nums, den = _scaled(v, len(keys))
    return list(compress(zip(keys, nums), nums)), den


def _divided(acc: list, den: int) -> list:
    """Integer numerators over ``den`` as exact scalars (int when integral)."""
    if den == 1:
        return acc
    return [w // den if not w % den else Fraction(w, den) for w in acc]


def _power_pairs(algebra: FrobeniusAlgebra, r: int) -> tuple[list, list]:
    """The pair rows of A^(x)r on flat indices over ``algebra._pairs_den ** r``,
    x -> [(y, [(k, numerator)])] for each y with e_x e_y != 0, and the same
    rows flat, x -> [(y, k, numerator)]: the Kronecker power of the base's,
    built once per r and cached on the algebra, from A^(x)0's 0 -> [(0, [(0, 1)])]."""
    tables, D = algebra._pair_powers, algebra.dim
    while len(tables) <= r:
        rows = [[(Y * D + y, [(K * D + k, C * c) for K, C in row for k, c in pair_row])
                 for Y, row in prev for y, pair_row in algebra._pairs[x]]
                for prev in tables[-1][0] for x in range(D)]
        tables.append((rows, [[(y, k, c) for y, row in pairs for k, c in row] for pairs in rows]))
    return tables[r]


def _split(acc, size: int, dense: bool) -> dict:
    """Flat numerators whose low factors span ``size`` indices, keyed by the
    index on the high factors: per nonzero high index, the low factors'
    numerators as a dense slice, or as (low index, numerator) items."""
    out = {}
    for hi, start in enumerate(range(0, len(acc), size or 1)):   # size 0: a 0-dim base
        chunk = acc[start:start + size]
        if any(chunk):
            out[hi] = chunk if dense else list(compress(enumerate(chunk), chunk))
    return out


def _walk(lhs: dict, rhs: dict, high: list, low: list, size: int, length: int) -> list:
    """The two-level product loop on integer numerators, written to ``length``
    flat outputs at ``kh * size + k``: operands are ``_split`` by high index,
    items on the left and dense lists on the right.  Each high pair with a
    row in ``high`` (x -> [(y, [(kh, numerator)])]) multiplies the two low
    halves through the flat rows ``low`` (x -> [(y, k, numerator)]), and the
    low product spreads over the high pair's row, so a dead pair costs no
    multiplication and a high index the right operand lacks is skipped once
    per high pair."""
    out = [0] * length
    for xh, terms in lhs.items():
        for yh, high_row in high[xh]:
            dense = rhs.get(yh)
            if dense is None:
                continue
            prod = [0] * size
            for xl, c1 in terms:
                for yl, k, c in low[xl]:
                    c2 = dense[yl]
                    if c2:
                        prod[k] += c1 * c2 * c
            prod = list(compress(enumerate(prod), prod))
            for kh, ch in high_row:
                base = kh * size
                for k, w in prod:
                    out[base + k] += ch * w
    return out


def factorwise_product(algebra: FrobeniusAlgebra, m: int, left, right) -> tuple[list, int]:
    """Product on A^(x)m = A^(x)p (x) A^(x)q, p = m // 2, on integer numerators.

    Operands are (``_split`` numerators, denominator) with A^(x)q as the low
    factors: items on the left, dense lists on the right.  ``_walk`` runs
    them through the pair rows of A^(x)p and A^(x)q; a right operand whose
    high factors are mostly the unit has few high indices.  Returns (flat
    numerators, denominator).
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
    for vec, dense in ((u, False), (v, True)):
        nums, den = _scaled(vec, size)
        operands.append((_split(nums, low, dense), den))
    return _divided(*factorwise_product(algebra, m, *operands))


def tensor_metric(algebra: FrobeniusAlgebra, m: int) -> ex.SparseMap:
    """The factorwise pairing eta^(x)m on A^(x)m, as rows."""
    D, out = algebra.dim, {0: {0: 1}}
    for _ in range(m):
        out = ex.sparse_kron(out, algebra.metric, D, D)
    return out


def tensor_unit(algebra: FrobeniusAlgebra, m: int):
    out = [1]
    for _ in range(m):
        new = ex.vec_zero(len(out) * algebra.dim)
        for idx, c in enumerate(out):
            if c == 0:
                continue
            for k, v in enumerate(algebra.unit):
                if v != 0:
                    new[idx * algebra.dim + k] = ex.norm(c * v)
        out = new
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
        "metric": [[i, j, ex.fmt_rat(row[j])]
                   for i, row in sorted(algebra.metric.items()) for j in sorted(row)],
        "structure": [
            [i, j, k, ex.fmt_rat(algebra.rows[i, j][k])]
            for i, j, k in sorted(algebra._constants())
        ],
    }


def from_json_dict(doc: dict, validate: bool = True) -> FrobeniusAlgebra:
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
    algebra = FrobeniusAlgebra(
        name=doc.get("name", "algebra"),
        labels=[b["label"] for b in basis],
        degrees=[b.get("degree", 0) for b in basis],
        parities=[b.get("parity", 0) for b in basis],
        unit=[ex.rat(v) for v in doc["unit"]],
        rows=rows,
        metric=metric,
    )
    return validated(algebra) if validate else algebra


def load(path) -> FrobeniusAlgebra:
    return from_json_dict(ex.load_json(path))
