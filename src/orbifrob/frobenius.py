"""Finite-dimensional graded Frobenius algebras over exact rationals.

An algebra is given by structure constants ``e_i e_j = sum_k c[i,j,k] e_k``,
a distinguished unit vector and a pairing matrix.  Construction validates the
full law set (associativity, unit, invariance, nondegeneracy, grading and
parity bookkeeping) so downstream code may assume the laws hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactnum as ex
from ._report import Report
from .exactnum import Rat, SparseTensor3


@dataclass
class FrobeniusAlgebra:
    name: str
    labels: list[str]
    degrees: list[int]
    parities: list[int]
    unit: list
    structure: SparseTensor3
    metric: list

    # derived, filled in __post_init__
    dim: int = field(init=False)
    rows: dict = field(init=False, repr=False)
    _pairs: list = field(init=False, repr=False, compare=False)
    top_degree: int = field(init=False)
    _metric_inv: list | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.dim = len(self.labels)
        if not (len(self.degrees) == len(self.parities) == len(self.unit) == self.dim):
            raise ValueError(f"{self.name}: field lengths disagree with dim {self.dim}")
        if len(self.metric) != self.dim or any(len(r) != self.dim for r in self.metric):
            raise ValueError(f"{self.name}: metric must be {self.dim}x{self.dim}")
        self.rows = self.structure.rows(self.dim)
        # per left index x: (y, row items) for each y with e_x e_y != 0
        self._pairs = [[] for _ in range(self.dim)]
        for (x, y), row in self.rows.items():
            if row:
                self._pairs[x].append((y, list(row.items())))
        pair_degrees = {
            self.degrees[i] + self.degrees[j]
            for i in range(self.dim)
            for j in range(self.dim)
            if self.metric[i][j] != 0
        }
        # uniformity of the pairing degree is a law checked by verify()
        self.top_degree = max(pair_degrees) if pair_degrees else 0

    @property
    def metric_inv(self) -> list:
        if self._metric_inv is None:
            self._metric_inv = ex.invert(self.metric)
        return self._metric_inv

    # -- algebra operations -------------------------------------------------

    def multiply(self, a, b):
        """Bilinear extension of the structure constants."""
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError(f"{self.name}: operand dimension mismatch")
        out = ex.vec_zero(self.dim)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                row = self.rows.get((i, j))
                if not row:
                    continue
                xy = x * y
                for k, c in row.items():
                    out[k] += xy * c
        return [ex.norm(v) for v in out]

    def multiply_basis(self, i: int, j: int) -> dict:
        """Sparse product of two basis elements."""
        return dict(self.rows.get((i, j), {}))

    def pair(self, a, b) -> Rat:
        s = 0
        for i, x in enumerate(a):
            if x == 0:
                continue
            row = self.metric[i]
            for j, y in enumerate(b):
                if y != 0 and row[j] != 0:
                    s += x * row[j] * y
        return ex.norm(s)

    def copairing(self) -> list[tuple[int, int, Rat]]:
        """Dual-basis tensor: triples (i, j, c) representing sum c e_i (x) e_j."""
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                c = self.metric_inv[i][j]
                if c != 0:
                    out.append((i, j, c))
        return out

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

    def basis_vector(self, i: int):
        v = ex.vec_zero(self.dim)
        v[i] = 1
        return v

    def is_even(self) -> bool:
        return all(p == 0 for p in self.parities)

    # -- verification --------------------------------------------------------

    def verify(self) -> Report:
        """Exhaustive law check; failures are report entries, not exceptions."""
        report = Report()
        dim = self.dim

        witness = None
        count = 0
        for i in range(dim):
            for j in range(dim):
                ij = self.multiply_basis(i, j)
                for k in range(dim):
                    count += 1
                    lhs = _sparse_extend(self, ij, k, left=True)
                    jk = self.multiply_basis(j, k)
                    rhs = _sparse_extend(self, jk, i, left=False)
                    if lhs != rhs and witness is None:
                        witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k],
                                   "lhs": _fmt_sparse(self, lhs), "rhs": _fmt_sparse(self, rhs)}
        report.add("associativity", "(ab)c = a(bc)", witness is None, count, witness)

        witness = None
        for i in range(dim):
            e = self.basis_vector(i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                witness = {"i": self.labels[i]}
                break
        report.add("unit", "1 a = a 1 = a", witness is None, dim, witness)

        witness = None
        count = 0
        for i in range(dim):
            for j in range(dim):
                ij = self.multiply_basis(i, j)
                for k in range(dim):
                    count += 1
                    lhs = sum(c * self.metric[p][k] for p, c in ij.items())
                    jk = self.multiply_basis(j, k)
                    rhs = sum(c * self.metric[i][p] for p, c in jk.items())
                    if lhs != rhs and witness is None:
                        witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k],
                                   "eta(ij,k)": ex.fmt_rat(ex.norm(lhs)), "eta(i,jk)": ex.fmt_rat(ex.norm(rhs))}
        report.add("invariance", "eta(ab,c) = eta(a,bc)", witness is None, count, witness)

        nondeg = ex.rank(self.metric) == dim
        report.add("nondegeneracy", "pairing invertible", nondeg, 1,
                   None if nondeg else {"rank": ex.rank(self.metric)})

        sym = ex.is_symmetric(self.metric)
        report.add("symmetry", "pairing symmetric", sym, 1, None if sym else {})

        witness = None
        count = 0
        for i in range(dim):
            for j in range(dim):
                if self.metric[i][j] != 0:
                    count += 1
                    if self.degrees[i] + self.degrees[j] != self.top_degree and witness is None:
                        witness = {"i": self.labels[i], "j": self.labels[j],
                                   "degree": self.degrees[i] + self.degrees[j],
                                   "top": self.top_degree}
        report.add("metric-grading", "pairing concentrated in one degree",
                   witness is None, count, witness)

        witness = None
        count = 0
        for (i, j, k), _ in self.structure.items():
            count += 1
            if self.degrees[i] + self.degrees[j] != self.degrees[k] and witness is None:
                witness = {"i": self.labels[i], "j": self.labels[j], "k": self.labels[k]}
        report.add("grading", "deg(ab) = deg a + deg b on nonzero products", witness is None, count, witness)

        witness = None
        count = 0
        for (i, j, k), _ in self.structure.items():
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


def _sparse_extend(alg: FrobeniusAlgebra, sparse: dict, other: int, left: bool) -> dict:
    """Multiply a sparse combination by basis element `other` on one side."""
    out: dict[int, Rat] = {}
    for p, c in sparse.items():
        row = alg.rows.get((p, other) if left else (other, p), {})
        for k, v in row.items():
            out[k] = out.get(k, 0) + c * v
    return {k: ex.norm(v) for k, v in out.items() if v != 0}


def _fmt_sparse(alg: FrobeniusAlgebra, sparse: dict) -> str:
    if not sparse:
        return "0"
    return " + ".join(f"{ex.fmt_rat(c)}*{alg.labels[k]}" for k, c in sorted(sparse.items()))


def verify(algebra: FrobeniusAlgebra) -> Report:
    return algebra.verify()


def validated(algebra: FrobeniusAlgebra) -> FrobeniusAlgebra:
    report = algebra.verify()
    if not report.passed:
        first = report.failures()[0]
        raise ValueError(f"{algebra.name}: {first.key} fails, witness {first.witness}")
    return algebra


# -- tensor powers -----------------------------------------------------------

def tensor_index(indices, dim: int) -> int:
    """Row-major rank of a factor-index tuple in the lexicographic basis."""
    out = 0
    for i in indices:
        out = out * dim + i
    return out


def tensor_tuple(index: int, dim: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(index % dim)
        index //= dim
    return tuple(reversed(out))


def tensor_power_space(algebra: FrobeniusAlgebra, m: int) -> list[tuple[int, ...]]:
    """Basis index scheme of A^(x)m: all factor tuples in lexicographic order."""
    if m < 0:
        raise ValueError("tensor power exponent must be >= 0")
    dim = algebra.dim
    return [tensor_tuple(i, dim, m) for i in range(dim ** m)]


def factorwise_multiply(algebra: FrobeniusAlgebra, m: int, u, v):
    """Product on A^(x)m, factor by factor, on dense vectors.

    Walks the factors from the first, pairing the blocks of ``u`` and ``v``
    that share an index prefix; a factor pair with zero product or an all-zero
    block ends its branch before any coefficient is multiplied.  The operands
    are scaled to integer numerators over one denominator each, which divides
    the result once at the end.
    """
    D = algebra.dim
    size = D ** m
    if len(u) != size or len(v) != size:
        raise ValueError(f"tensor power operands must have length {size}")
    pairs = algebra._pairs

    def numerators(w):
        support = [(i, c) for i, c in enumerate(w) if c]
        den = math.lcm(*(c.denominator for _, c in support))
        nums = {i: c.numerator * (den // c.denominator) for i, c in support}
        # live[d]: the index prefixes of d factors whose block is not all zero
        live = [{i // D ** (m - d) for i in nums} for d in range(m)]
        live.append(nums)
        return nums, den, live

    U, du, live_u = numerators(u)
    V, dv, live_v = numerators(v)
    acc = [0] * size

    def walk(d, pu, pv, po, carry):
        # recurse by factor depth: a block of size 1 still owes its factors' constants
        if d == m:
            acc[po] += U[pu] * V[pv] * carry
            return
        lu, lv = live_u[d + 1], live_v[d + 1]
        bu, bv, bo = pu * D, pv * D, po * D
        for x in range(D):
            if bu + x in lu:
                for y, row in pairs[x]:
                    if bv + y in lv:
                        for k, c in row:
                            walk(d + 1, bu + x, bv + y, bo + k, carry * c)

    if U and V:
        walk(0, 0, 0, 0, 1)
    den = du * dv
    if den == 1:
        return [ex.norm(w) for w in acc]
    return [ex.norm(Fraction(w, den)) if w else 0 for w in acc]


def tensor_metric_entry(algebra: FrobeniusAlgebra, tu, tv) -> Rat:
    out = 1
    for a, b in zip(tu, tv):
        x = algebra.metric[a][b]
        if x == 0:
            return 0
        out *= x
    return ex.norm(out)


def tensor_metric(algebra: FrobeniusAlgebra, m: int) -> list:
    basis = tensor_power_space(algebra, m)
    return [[tensor_metric_entry(algebra, tu, tv) for tv in basis] for tu in basis]


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


# -- stock algebras ----------------------------------------------------------

def ground_field() -> FrobeniusAlgebra:
    """The one-dimensional algebra k with eta(1,1) = 1."""
    return validated(FrobeniusAlgebra(
        name="k",
        labels=["1"],
        degrees=[0],
        parities=[0],
        unit=[1],
        structure=SparseTensor3([(0, 0, 0, 1)]),
        metric=[[1]],
    ))


def dual_numbers() -> FrobeniusAlgebra:
    """Q[x]/(x^2) with deg x = 2 and eta(1,x) = 1."""
    return validated(FrobeniusAlgebra(
        name="Q[x]/(x^2)",
        labels=["1", "x"],
        degrees=[0, 2],
        parities=[0, 0],
        unit=[1, 0],
        structure=SparseTensor3([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]),
        metric=[[0, 1], [1, 0]],
    ))


def surface_model() -> FrobeniusAlgebra:
    """Even 4-dim model {1, a, b, t}: ab = ba = t, eta(1,t) = eta(a,b) = 1."""
    return validated(FrobeniusAlgebra(
        name="surface4",
        labels=["1", "a", "b", "t"],
        degrees=[0, 2, 2, 4],
        parities=[0, 0, 0, 0],
        unit=[1, 0, 0, 0],
        structure=SparseTensor3([
            (0, 0, 0, 1),
            (0, 1, 1, 1), (1, 0, 1, 1),
            (0, 2, 2, 1), (2, 0, 2, 1),
            (0, 3, 3, 1), (3, 0, 3, 1),
            (1, 2, 3, 1), (2, 1, 3, 1),
        ]),
        metric=[
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ],
    ))


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
        "metric": [
            [i, j, ex.fmt_rat(algebra.metric[i][j])]
            for i in range(algebra.dim)
            for j in range(algebra.dim)
            if algebra.metric[i][j] != 0
        ],
        "structure": [
            [i, j, k, ex.fmt_rat(v)]
            for (i, j, k), v in sorted(algebra.structure.items())
        ],
    }


def from_json_dict(doc: dict, validate: bool = True) -> FrobeniusAlgebra:
    dim = doc["dim"]
    basis = doc["basis"]
    if len(basis) != dim:
        raise ValueError(f"declared dim {dim} but {len(basis)} basis entries")
    metric = ex.mat_zero(dim, dim)
    for i, j, v in doc.get("metric", []):
        ex.check_indices("metric", (i, j), (dim, dim))
        metric[i][j] = ex.rat(v)
    structure = doc.get("structure", [])
    for i, j, k, _ in structure:
        ex.check_indices("structure", (i, j, k), (dim, dim, dim))
    algebra = FrobeniusAlgebra(
        name=doc.get("name", "algebra"),
        labels=[b["label"] for b in basis],
        degrees=[int(b.get("degree", 0)) for b in basis],
        parities=[int(b.get("parity", 0)) for b in basis],
        unit=[ex.rat(v) for v in doc["unit"]],
        structure=SparseTensor3([(i, j, k, ex.rat(v)) for i, j, k, v in structure]),
        metric=metric,
    )
    return validated(algebra) if validate else algebra


def save(algebra: FrobeniusAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path, validate: bool = True) -> FrobeniusAlgebra:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh), validate=validate)
