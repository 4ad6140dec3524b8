"""Group-graded Frobenius algebras: the axiom verifier, tensor product,
discrete-torsion / super twists, and invariant subalgebra extraction.

A structure is a family of sector spaces ``A_g`` (one per group element)
with a graded product ``A_g x A_h -> A_gh``, a pairing that couples ``A_g``
with ``A_{g^-1}`` only, a group action ``phi_g: A_h -> A_{ghg^-1}``, a
character ``chi`` and an optional supergrading.  All maps are stored as
sparse exact-rational tables over the sector bases, ``{index: {index:
value}}`` with no zero value stored; the verifier is exhaustive over basis
tuples, not randomized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exactnum as ex
from ._report import Report
from .groups import FiniteGroup, group_doc, group_from_doc, symmetric_order

if TYPE_CHECKING:  # pragma: no cover
    from .cocycles import Cocycle2, SuperTwist

# instance budget for the exhaustive verifier; roughly the number of basis
# tuples the associativity scan would touch
VERIFY_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


SparseVec = dict  # dict[int, Rat]


def _clean(vec: SparseVec) -> SparseVec:
    """Drop the zeros of a sparse vector and normalize its values, in place."""
    for k in [k for k, v in vec.items() if v == 0]:
        del vec[k]
    for k, v in vec.items():
        vec[k] = ex.norm(v)
    return vec


def _clean_map(block: ex.SparseMap, outer: int, inner: int, what: str) -> None:
    """``_clean`` every vector of an {index: {index: value}} map and drop the
    empty ones, in place; the indices are checked first."""
    for p, vec in block.items():
        if not 0 <= p < outer or any(not 0 <= q < inner for q in vec):
            raise ValueError(f"{what} index out of range")
    for p in [p for p, vec in block.items() if not _clean(vec)]:
        del block[p]


def _scalar_map(c, d: int) -> ex.SparseMap:
    """c times the identity of a d-dimensional sector."""
    return {j: {j: c} for j in range(d)}


def _scaled(c, block: ex.SparseMap) -> ex.SparseMap:
    return {p: {q: ex.norm(c * v) for q, v in vec.items()} for p, vec in block.items()}


def _transpose(block: ex.SparseMap) -> ex.SparseMap:
    out: dict = {}
    for i, row in block.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def _apply(block: ex.SparseMap, vec: SparseVec) -> SparseVec:
    """A column map applied to a sparse vector."""
    out: SparseVec = {}
    for k, c in vec.items():
        for i, v in block.get(k, {}).items():
            out[i] = out.get(i, 0) + c * v
    return _clean(out)


def _compose(a: ex.SparseMap, b: ex.SparseMap) -> ex.SparseMap:
    """Column map of a after b."""
    out = {j: _apply(a, col) for j, col in b.items()}
    return {j: col for j, col in out.items() if col}


@dataclass
class GFrobeniusAlgebra:
    name: str
    group: FiniteGroup
    sector_dims: list[int]
    sector_degrees: list[list[int]]
    sector_parities: list[list[int]]
    sector_labels: list[list[str]]
    product: dict          # (g, h) -> {(i, j): {k: coeff}}
    action: dict           # (g, h) -> phi_g|_{A_h}: A_h -> A_{ghg^-1} by columns, {j: {i: coeff}}
    metric: list           # per g: pairing A_g x A_{g^-1} by rows, {i: {j: eta(e_i, e_j)}}
    character: list
    unit: list             # vector in A_e

    def __post_init__(self):
        n = self.group.order
        if not (len(self.sector_dims) == len(self.sector_degrees) == len(self.sector_parities)
                == len(self.sector_labels) == len(self.metric) == len(self.character) == n):
            raise ValueError(f"{self.name}: sector data length does not match group order {n}")
        for g in range(n):
            d = self.sector_dims[g]
            if not (len(self.sector_degrees[g]) == len(self.sector_parities[g])
                    == len(self.sector_labels[g]) == d):
                raise ValueError(f"{self.name}: sector {self.group.labels[g]} bookkeeping length != {d}")
            ex.check_basis_data(f"{self.name}: sector {self.group.labels[g]}",
                                self.sector_degrees[g], self.sector_parities[g], self.sector_labels[g])
        if len(self.unit) != self.sector_dims[self.group.identity]:
            raise ValueError(f"{self.name}: unit length does not match the identity sector")
        dims, labels = self.sector_dims, self.group.labels
        # blocks are cleaned in place: a build holds no second copy of its tables
        for g, block in enumerate(self.metric):
            _clean_map(block, dims[g], dims[self.group.inv(g)],
                       f"{self.name}: metric block {labels[g]}")
        for (g, h), block in self.action.items():
            _clean_map(block, dims[h], dims[self.group.conj(g, h)],
                       f"{self.name}: action block ({labels[g]}, {labels[h]})")
        for (g, h), table in self.product.items():
            tgt_dim = self.sector_dims[self.group.mul(g, h)]
            for (i, j), vec in table.items():
                if i >= self.sector_dims[g] or j >= self.sector_dims[h]:
                    raise ValueError(f"{self.name}: product entry out of range in sector pair "
                                     f"({self.group.labels[g]}, {self.group.labels[h]})")
                if any(k >= tgt_dim for k in vec):
                    raise ValueError(f"{self.name}: product value out of range in sector pair "
                                     f"({self.group.labels[g]}, {self.group.labels[h]})")
            for key in [key for key, vec in table.items() if not _clean(vec)]:
                del table[key]

    # -- basic access --------------------------------------------------------

    def dim(self, g: int) -> int:
        return self.sector_dims[g]

    def multiply(self, g: int, h: int, a, b):
        """Product of dense vectors a in A_g, b in A_h; result in A_gh."""
        table = self.product.get((g, h), {})
        out = ex.vec_zero(self.sector_dims[self.group.mul(g, h)])
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                row = table.get((i, j))
                if not row:
                    continue
                xy = x * y
                for k, c in row.items():
                    out[k] += xy * c
        return [ex.norm(v) for v in out]

    def act(self, g: int, h: int, v):
        """phi_g applied to v in A_h; result in A_{ghg^-1}."""
        block = self.action[(g, h)]
        out = ex.vec_zero(self.sector_dims[self.group.conj(g, h)])
        for j, x in enumerate(v):
            if x != 0:
                for i, c in block.get(j, {}).items():
                    out[i] += c * x
        return [ex.norm(y) for y in out]

    def pair(self, g: int, a, b) -> ex.Rat:
        """eta(a, b) for a in A_g, b in A_{g^-1}."""
        s = 0
        for i, row in self.metric[g].items():
            if a[i] != 0:
                s += a[i] * sum(v * b[j] for j, v in row.items())
        return ex.norm(s)

    def is_super(self) -> bool:
        return any(any(p % 2 for p in ps) for ps in self.sector_parities)

    def basis_vector(self, g: int, i: int):
        v = ex.vec_zero(self.sector_dims[g])
        v[i] = 1
        return v

    def math_equal(self, other: "GFrobeniusAlgebra") -> bool:
        """Structure equality: identical tables, ignoring names and labels."""
        return (
            self.group == other.group
            and self.sector_dims == other.sector_dims
            and self.sector_parities == other.sector_parities
            and self.product == other.product
            and self.action == other.action
            and self.metric == other.metric
            and self.character == other.character
            and self.unit == other.unit
        )

    def __eq__(self, other):
        return isinstance(other, GFrobeniusAlgebra) and self.math_equal(other)


# -- verifier ----------------------------------------------------------------

def _verify_structure(X: GFrobeniusAlgebra, report: Report) -> bool:
    G = X.group
    witness = None
    count = 0
    for g in G.elements():
        count += 1
        ginv = G.inv(g)
        if _transpose(X.metric[g]) != X.metric[ginv] and witness is None:
            witness = {"g": G.labels[g], "issue": "metric block not the transpose of its partner"}
        rank = len(ex.sparse_echelon(X.metric[g]))
        if rank != X.sector_dims[g] and witness is None:
            witness = {"g": G.labels[g], "issue": "metric block degenerate", "rank": rank}
        if X.character[g] == 0 and witness is None:
            witness = {"g": G.labels[g], "issue": "character value zero"}
    missing = [(g, h) for g in G.elements() for h in G.elements() if (g, h) not in X.action]
    if missing:
        g, h = missing[0]
        report.add("structure", "shapes, metric blocks, action is a representation",
                   False, count,
                   {"g": G.labels[g], "h": G.labels[h], "issue": "missing action block"})
        return False
    e = G.identity
    for h in G.elements():
        count += 1
        if X.action[(e, h)] != _scalar_map(1, X.sector_dims[h]) and witness is None:
            witness = {"h": G.labels[h], "issue": "phi_e is not the identity"}
    for g in G.elements():
        for h in G.elements():
            for s in G.elements():
                count += 1
                left = _compose(X.action[(g, G.conj(h, s))], X.action[(h, s)])
                if left != X.action[(G.mul(g, h), s)] and witness is None:
                    witness = {"g": G.labels[g], "h": G.labels[h], "sector": G.labels[s],
                               "issue": "phi_g phi_h != phi_gh"}
    report.add("structure", "shapes, metric blocks, action is a representation",
               witness is None, count, witness)
    return witness is None


def verify_axioms(X: GFrobeniusAlgebra, super_mode: bool | None = None,
                  budget: int = VERIFY_BUDGET) -> Report:
    """Exhaustive exact check of the eight defining axioms.

    ``super_mode`` selects the supergraded variants of twisted commutativity
    and the trace axiom (signs from element parities, supertrace); by default
    it is on exactly when some basis element is odd.  For evenly graded input
    the super forms coincide with the plain ones.
    """
    report = Report()
    if super_mode is None:
        super_mode = X.is_super()
    G = X.group
    dims = X.sector_dims
    n = G.order

    total = sum(dims)
    estimate = total ** 3 + n * total ** 2
    if estimate > budget:
        raise BudgetExceededError(
            f"verification would touch ~{estimate} basis tuples (budget {budget})", estimate
        )

    if not _verify_structure(X, report):
        return report

    mul = G.mul
    inv = G.inv
    product = X.product

    # a) associativity over all basis triples
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            gh = mul(g, h)
            T1 = product.get((g, h), {})
            for k in G.elements():
                T2 = product.get((gh, k), {})
                T3 = product.get((h, k), {})
                T4 = product.get((g, mul(h, k)), {})
                dg, dh, dk = dims[g], dims[h], dims[k]
                count += dg * dh * dk
                for i in range(dg):
                    for j in range(dh):
                        row1 = T1.get((i, j))
                        for m in range(dk):
                            row3 = T3.get((j, m))
                            if not row1 and not row3:
                                continue
                            lhs: SparseVec = {}
                            if row1:
                                for p, c in row1.items():
                                    r2 = T2.get((p, m))
                                    if r2:
                                        for q, v in r2.items():
                                            lhs[q] = lhs.get(q, 0) + c * v
                            rhs: SparseVec = {}
                            if row3:
                                for p, c in row3.items():
                                    r4 = T4.get((i, p))
                                    if r4:
                                        for q, v in r4.items():
                                            rhs[q] = rhs.get(q, 0) + c * v
                            if _clean(lhs) != _clean(rhs) and witness is None:
                                witness = {"g": G.labels[g], "h": G.labels[h], "k": G.labels[k],
                                           "basis": (i, j, m),
                                           "lhs": _fmt_vec(X, mul(gh, k), _clean(lhs)),
                                           "rhs": _fmt_vec(X, mul(gh, k), _clean(rhs))}
    report.add("a", "associativity", witness is None, count, witness)

    # b) twisted (super-)commutativity
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            ghg = G.conj(g, h)
            T = product.get((g, h), {})
            Tb = product.get((ghg, g), {})
            act = X.action[(g, h)]
            par_g = X.sector_parities[g]
            par_h = X.sector_parities[h]
            for i in range(dims[g]):
                for j in range(dims[h]):
                    count += 1
                    lhs = _clean(dict(T.get((i, j), {})))
                    rhs: SparseVec = {}
                    for p, c in act.get(j, {}).items():
                        row = Tb.get((p, i))
                        if row:
                            for q, v in row.items():
                                rhs[q] = rhs.get(q, 0) + c * v
                    if super_mode and (par_g[i] * par_h[j]) % 2:
                        rhs = {q: -v for q, v in rhs.items()}
                    if lhs != _clean(rhs) and witness is None:
                        witness = {"g": G.labels[g], "h": G.labels[h], "basis": (i, j),
                                   "lhs": _fmt_vec(X, mul(g, h), lhs),
                                   "rhs": _fmt_vec(X, mul(g, h), _clean(rhs))}
    report.add("b", "twisted commutativity", witness is None, count, witness)

    # c) invariant unit
    witness = None
    count = 0
    e = G.identity
    for h in G.elements():
        for j in range(dims[h]):
            count += 1
            ej = X.basis_vector(h, j)
            if X.multiply(e, h, X.unit, ej) != ej or X.multiply(h, e, ej, X.unit) != ej:
                if witness is None:
                    witness = {"h": G.labels[h], "basis": j, "issue": "unit does not act as identity"}
    for g in G.elements():
        count += 1
        if X.act(g, e, X.unit) != X.unit and witness is None:
            witness = {"g": G.labels[g], "issue": "phi_g(1) != 1"}
    report.add("c", "invariant unit", witness is None, count, witness)

    # d) invariance of the metric
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            k = inv(mul(g, h))
            T1 = product.get((g, h), {})
            T3 = product.get((h, k), {})
            eta_g = X.metric[g]
            eta_gh = X.metric[mul(g, h)]
            for i in range(dims[g]):
                row_g = eta_g.get(i, {})
                for j in range(dims[h]):
                    row1 = T1.get((i, j))
                    for m in range(dims[k]):
                        count += 1
                        row3 = T3.get((j, m))
                        lhs = sum(row_g.get(p, 0) * c for p, c in row3.items()) if row3 else 0
                        rhs = sum(c * eta_gh.get(p, {}).get(m, 0) for p, c in row1.items()) if row1 else 0
                        if lhs != rhs and witness is None:
                            witness = {"g": G.labels[g], "h": G.labels[h], "k": G.labels[k],
                                       "basis": (i, j, m),
                                       "eta(a,bc)": ex.fmt_rat(ex.norm(lhs)),
                                       "eta(ab,c)": ex.fmt_rat(ex.norm(rhs))}
    report.add("d", "invariance of the metric", witness is None, count, witness)

    # i) projective self-invariance of the twisted sectors
    witness = None
    count = 0
    for g in G.elements():
        count += 1
        chi_inv = ex.norm(1 / Fraction(X.character[g]))
        if X.action[(g, g)] != _scalar_map(chi_inv, dims[g]) and witness is None:
            witness = {"g": G.labels[g], "issue": "phi_g|A_g != chi_g^-1 id"}
    report.add("i", "projective self-invariance", witness is None, count, witness)

    # ii) G-invariance of the multiplication
    witness = None
    count = 0
    for k in G.elements():
        for g in G.elements():
            for h in G.elements():
                T = product.get((g, h), {})
                Tc = product.get((G.conj(k, g), G.conj(k, h)), {})
                act_g = X.action[(k, g)]
                act_h = X.action[(k, h)]
                act_gh = X.action[(k, mul(g, h))]
                count += dims[g] * dims[h]
                for i in range(dims[g]):
                    for j in range(dims[h]):
                        lhs = _apply(act_gh, T.get((i, j), {}))
                        rhs: SparseVec = {}
                        for p, cg in act_g.get(i, {}).items():
                            for q, ch in act_h.get(j, {}).items():
                                row2 = Tc.get((p, q))
                                if row2:
                                    cgh = cg * ch
                                    for r, v in row2.items():
                                        rhs[r] = rhs.get(r, 0) + cgh * v
                        if lhs != _clean(rhs) and witness is None:
                            witness = {"k": G.labels[k], "g": G.labels[g], "h": G.labels[h],
                                       "basis": (i, j)}
    report.add("ii", "action multiplicative", witness is None, count, witness)

    # iii) projective G-invariance of the metric
    witness = None
    count = 0
    for g in G.elements():
        chi2_inv = ex.norm(1 / (Fraction(X.character[g]) ** 2))
        for h in G.elements():
            hinv = inv(h)
            act_h = X.action[(g, h)]
            act_hinv = X.action[(g, hinv)]
            tgt = G.conj(g, h)
            eta_tgt = X.metric[tgt]
            eta_h = X.metric[h]
            for i in range(dims[h]):
                for j in range(dims[hinv]):
                    count += 1
                    lhs = 0
                    for p, cp in act_h.get(i, {}).items():
                        row = eta_tgt.get(p, {})
                        for q, cq in act_hinv.get(j, {}).items():
                            if q in row:
                                lhs += cp * row[q] * cq
                    rhs = chi2_inv * eta_h.get(i, {}).get(j, 0)
                    if ex.norm(lhs) != ex.norm(rhs) and witness is None:
                        witness = {"g": G.labels[g], "h": G.labels[h], "basis": (i, j),
                                   "lhs": ex.fmt_rat(ex.norm(lhs)), "rhs": ex.fmt_rat(ex.norm(rhs))}
    report.add("iii", "projective invariance of the metric", witness is None, count, witness)

    # iv) projective (super-)trace axiom, over all pairs (g, h)
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            comm = G.commutator(g, h)
            hgh = G.conj(h, g)
            ghg = G.conj(g, h)
            T_left = product.get((comm, hgh), {})   # l_c : A_{hgh^-1} -> A_g
            T_right = product.get((comm, h), {})    # l_c : A_h -> A_{ghg^-1}
            act_h_on_g = X.action[(h, g)]
            act_ginv = X.action[(inv(g), ghg)]
            chi_h = Fraction(X.character[h])
            chi_ginv = Fraction(X.character[inv(g)])
            par_g = X.sector_parities[g]
            par_h = X.sector_parities[h]
            for c in range(dims[comm]):
                count += 1
                lhs = 0
                for v in range(dims[g]):
                    acc = 0
                    for p, cp in act_h_on_g.get(v, {}).items():
                        row = T_left.get((c, p))
                        if row and v in row:
                            acc += cp * row[v]
                    if acc != 0:
                        lhs += -acc if (super_mode and par_g[v] % 2) else acc
                rhs = 0
                for v in range(dims[h]):
                    row = T_right.get((c, v))
                    acc = 0
                    if row:
                        for p, cv in row.items():
                            acc += cv * act_ginv.get(p, {}).get(v, 0)
                    if acc != 0:
                        rhs += -acc if (super_mode and par_h[v] % 2) else acc
                if ex.norm(chi_h * lhs) != ex.norm(chi_ginv * rhs) and witness is None:
                    witness = {"g": G.labels[g], "h": G.labels[h], "c": c,
                               "lhs": ex.fmt_rat(ex.norm(chi_h * lhs)),
                               "rhs": ex.fmt_rat(ex.norm(chi_ginv * rhs))}
    report.add("iv", "projective trace axiom" + (" (supertrace)" if super_mode else ""),
               witness is None, count, witness)
    return report


def _fmt_vec(X: GFrobeniusAlgebra, g: int, vec: SparseVec) -> str:
    if not vec:
        return "0"
    labels = X.sector_labels[g]
    return " + ".join(f"{ex.fmt_rat(c)}*{labels[k]}" for k, c in sorted(vec.items()))


# -- graded tensor product ---------------------------------------------------

def tensor_hat(X: GFrobeniusAlgebra, Y: GFrobeniusAlgebra) -> GFrobeniusAlgebra:
    """Sectorwise tensor product over the same group.

    Products, metrics and actions multiply sector by sector, characters
    multiply, supergradings add.  (Sign bookkeeping for genuinely super
    factors lives entirely in the action/character data of the factors, so
    sectors of uniform parity compose correctly; see the twist notes.)
    """
    if X.group != Y.group:
        raise ValueError("tensor_hat requires both factors to share one group")
    G = X.group
    if X.is_super() and Y.is_super():
        # the sectorwise formula is only valid when the interchange signs
        # cancel, i.e. for matching sector-uniform supergradings
        def uniform(Z):
            out = []
            for ps in Z.sector_parities:
                vals = set(ps)
                if len(vals) > 1:
                    return None
                out.append(vals.pop() if vals else 0)
            return out
        px, py = uniform(X), uniform(Y)
        if px is None or py is None or px != py:
            raise ValueError(
                "tensor_hat of two differently supergraded factors is not supported"
            )
    dims = [X.sector_dims[g] * Y.sector_dims[g] for g in G.elements()]

    def fuse(g, i, a):
        return i * Y.sector_dims[g] + a

    degrees = []
    parities = []
    labels = []
    for g in G.elements():
        degrees.append([X.sector_degrees[g][i] + Y.sector_degrees[g][a]
                        for i in range(X.sector_dims[g]) for a in range(Y.sector_dims[g])])
        parities.append([(X.sector_parities[g][i] + Y.sector_parities[g][a]) % 2
                         for i in range(X.sector_dims[g]) for a in range(Y.sector_dims[g])])
        labels.append([f"{X.sector_labels[g][i]}|{Y.sector_labels[g][a]}"
                       for i in range(X.sector_dims[g]) for a in range(Y.sector_dims[g])])

    product = {}
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            TX = X.product.get((g, h), {})
            TY = Y.product.get((g, h), {})
            table = {}
            for (i, j), rx in TX.items():
                for (a, b), ry in TY.items():
                    vec = {}
                    for k, cx in rx.items():
                        for c2, cy in ry.items():
                            vec[fuse(gh, k, c2)] = ex.norm(cx * cy)
                    table[(fuse(g, i, a), fuse(h, j, b))] = vec
            product[(g, h)] = table

    dy = Y.sector_dims
    action = {(g, h): ex.sparse_kron(X.action[(g, h)], Y.action[(g, h)], dy[h], dy[G.conj(g, h)])
              for g in G.elements() for h in G.elements()}
    metric = [ex.sparse_kron(X.metric[g], Y.metric[g], dy[g], dy[G.inv(g)]) for g in G.elements()]
    character = [ex.norm(X.character[g] * Y.character[g]) for g in G.elements()]

    unit = ex.vec_zero(dims[G.identity])
    for i, x in enumerate(X.unit):
        if x == 0:
            continue
        for a, y in enumerate(Y.unit):
            if y != 0:
                unit[fuse(G.identity, i, a)] = ex.norm(x * y)

    return GFrobeniusAlgebra(
        name=f"{X.name} (x) {Y.name}",
        group=G,
        sector_dims=dims,
        sector_degrees=degrees,
        sector_parities=parities,
        sector_labels=labels,
        product=product,
        action=action,
        metric=metric,
        character=character,
        unit=unit,
    )


# -- twisting ----------------------------------------------------------------

def twist(X: GFrobeniusAlgebra, alpha: "Cocycle2 | None" = None,
          sigma: "SuperTwist | None" = None) -> GFrobeniusAlgebra:
    """Twist by a 2-cocycle and/or a parity homomorphism.

    Realized on the same sector spaces: the product picks up alpha(g,h), the
    metric alpha(g,g^-1), the action the conjugation scalar
    (-1)^{sigma(g)sigma(h)} alpha(g,h)/alpha(ghg^-1,g), the character
    (-1)^{sigma(g)}, and sector parities shift by sigma(g).  Twisting is an
    action: alpha-then-alpha^{-1} and sigma-twice restore the input exactly.
    """
    G = X.group
    if alpha is not None:
        if alpha.group != G:
            raise ValueError("cocycle group does not match the algebra group")
        rep = alpha.validate()
        if not rep.passed:
            raise ValueError(f"invalid cocycle: {rep.failures()[0].witness}")
    if sigma is not None:
        if sigma.group != G:
            raise ValueError("super twist group does not match the algebra group")
        sigma.validate_homomorphism()

    def a_val(g, h):
        return alpha.value(g, h) if alpha is not None else 1

    def s_val(g):
        return sigma.parity_of(g) if sigma is not None else 0

    product = {}
    for (g, h), table in X.product.items():
        c = a_val(g, h)
        product[(g, h)] = {
            key: {k: ex.norm(c * v) for k, v in vec.items()} for key, vec in table.items()
        }

    action = {}
    for (g, h), block in X.action.items():
        eps = ex.norm(Fraction(a_val(g, h)) / Fraction(a_val(G.conj(g, h), g)))
        if (s_val(g) * s_val(h)) % 2:
            eps = ex.norm(-eps)
        action[(g, h)] = _scaled(eps, block)

    metric = [_scaled(a_val(g, G.inv(g)), X.metric[g]) for g in G.elements()]
    character = [ex.norm(X.character[g] * (-1 if s_val(g) % 2 else 1)) for g in G.elements()]
    parities = [[(p + s_val(g)) % 2 for p in X.sector_parities[g]] for g in G.elements()]

    return GFrobeniusAlgebra(
        name=f"{X.name} twisted",
        group=G,
        sector_dims=list(X.sector_dims),
        sector_degrees=[list(d) for d in X.sector_degrees],
        sector_parities=parities,
        sector_labels=[list(l) for l in X.sector_labels],
        product=product,
        action=action,
        metric=metric,
        character=character,
        unit=list(X.unit),
    )


# -- invariants ---------------------------------------------------------------

@dataclass
class InvariantAlgebra:
    """G-invariant subalgebra, graded by conjugacy classes."""

    source: GFrobeniusAlgebra
    basis: list            # each element: dict g -> dense vector over A_g
    class_of: list         # class index per basis vector
    classes: list          # class index lists (group element indices)
    product: dict          # (i, j) -> {k: coeff} in the invariant basis
    pairing: dict          # rows {i: {j: eta(b_i, b_j)}}, no zero stored
    pairing_nondegenerate: bool
    commutative: bool

    @property
    def dim(self) -> int:
        return len(self.basis)

    def dims_by_class(self) -> dict:
        out = {}
        for ci, cls in enumerate(self.classes):
            label = self.source.group.labels[cls[0]]
            out[label] = sum(1 for c in self.class_of if c == ci)
        return out


def _invariant_basis(X: GFrobeniusAlgebra) -> tuple[list, list, list, list]:
    """RREF rows of the averaging projector, one sparse echelon per conjugacy class.

    Returns ``(classes, basis, class_of, pivot_at)``.  Basis vector r is 1 at
    its pivot ``pivot_at[r] = (g, k)`` (entry k of sector g) and 0 at every
    other pivot of its class; classes have disjoint sector support, so the
    coordinates of an invariant element are its entries at the pivots.
    Raises if the projector fails to be idempotent (the action data is then
    not a representation).
    """
    G = X.group
    classes = G.conjugacy_classes()

    basis = []
    class_of = []
    pivot_at = []
    for ci, cls in enumerate(classes):
        position = [(g, k) for g in cls for k in range(X.sector_dims[g])]
        if not position:
            continue
        index = {p: c for c, p in enumerate(position)}
        # rows of |G| times the projector: the columns of every phi_k on the class, summed;
        # the scalar changes neither the echelon form nor the idempotency test below
        proj: dict = {}
        for k in G.elements():
            for h in cls:
                kh = G.conj(k, h)
                for j, col in X.action[(k, h)].items():
                    for i, v in col.items():
                        row, c = proj.setdefault(index[kh, i], {}), index[h, j]
                        row[c] = row.get(c, 0) + v
        proj = {r: _clean(row) for r, row in proj.items() if any(row.values())}
        # read as a column map, the row map is the transpose: P^2 = P iff (|G|P)^2 = |G|(|G|P)
        if _compose(proj, proj) != _scaled(G.order, proj):
            raise ValueError(
                f"projector on class of {G.labels[cls[0]]} is not idempotent; "
                "the action table is not a representation"
            )
        ech = ex.sparse_echelon(proj)
        for col in sorted(ech):
            elem: dict = {}
            for c, x in sorted(ech[col].items()):
                g, k = position[c]
                elem.setdefault(g, [0] * X.sector_dims[g])[k] = x
            basis.append(elem)
            class_of.append(ci)
            pivot_at.append(position[col])
    return classes, basis, class_of, pivot_at


def _combination(terms) -> dict:
    """Sum of c * elem over the (c, elem) terms, as a zero-free {g: {k: value}} map."""
    out: dict = {}
    for c, elem in terms:
        for g, vec in elem.items():
            acc = out.setdefault(g, {})
            for k, x in vec.items():
                acc[k] = acc.get(k, 0) + c * x
    out = {g: _clean(vec) for g, vec in out.items()}
    return {g: vec for g, vec in out.items() if vec}


def invariants(X: GFrobeniusAlgebra) -> InvariantAlgebra:
    """Image of the averaging projector (1/|G|) sum_g phi_g.

    The coordinates of a product of basis vectors are its entries at the
    basis pivots; each product is then rebuilt from those coordinates and
    must equal the product exactly, or it has left the invariant subspace.
    So equal coordinate rows mean equal products, and commutativity is read
    off the finished table.  Raises if the projector fails to be idempotent
    (the action data is then not a representation).  The restricted pairing
    is reported as-is; it may be degenerate for nontrivial characters.
    """
    G = X.group
    classes, basis, class_of, pivot_at = _invariant_basis(X)
    support = [{g: {k: x for k, x in enumerate(seg) if x != 0} for g, seg in elem.items()}
               for elem in basis]

    def mult(u, v):
        terms = []
        for g, ug in u.items():
            for h, vh in v.items():
                table, gh = X.product.get((g, h), {}), G.mul(g, h)
                terms += [(x * y, {gh: table[a, b]})
                          for a, x in ug.items() for b, y in vh.items() if (a, b) in table]
        return _combination(terms)

    def coordinates(elem):
        coords = {r: elem[g][k] for r, (g, k) in enumerate(pivot_at) if k in elem.get(g, ())}
        if _combination((c, support[r]) for r, c in coords.items()) != elem:
            raise ValueError("product left the invariant subspace")
        return coords

    product = {}
    for i, u in enumerate(support):
        for j, v in enumerate(support):
            row = coordinates(mult(u, v))
            if row:
                product[(i, j)] = row
    commutative = all(product.get((j, i)) == row for (i, j), row in product.items())

    pairing: dict = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            s = ex.norm(sum(X.pair(g, ug, v[G.inv(g)]) for g, ug in u.items() if G.inv(g) in v))
            if s != 0:
                pairing.setdefault(i, {})[j] = s

    return InvariantAlgebra(
        source=X,
        basis=basis,
        class_of=class_of,
        classes=classes,
        product=product,
        pairing=pairing,
        pairing_nondegenerate=len(ex.sparse_echelon(pairing)) == len(basis),
        commutative=commutative,
    )


# -- JSON document -----------------------------------------------------------

def to_json_dict(X: GFrobeniusAlgebra) -> dict:
    G = X.group
    sectors = []
    for g in G.elements():
        sectors.append({
            "element": G.labels[g],
            "dim": X.sector_dims[g],
            "degrees": list(X.sector_degrees[g]),
            "parities": list(X.sector_parities[g]),
            "basis": list(X.sector_labels[g]),
        })
    product = []
    for g in G.elements():
        for h in G.elements():
            table = X.product.get((g, h), {})
            for (i, j) in sorted(table):
                for k in sorted(table[(i, j)]):
                    product.append([g, h, i, j, k, ex.fmt_rat(table[(i, j)][k])])
    action = []
    for g in G.elements():
        for h in G.elements():
            block = X.action[(g, h)]
            for i, j in sorted((i, j) for j, col in block.items() for i in col):
                action.append([g, h, i, j, ex.fmt_rat(block[j][i])])
    metric = []
    for g in G.elements():
        block = X.metric[g]
        for i in sorted(block):
            for j in sorted(block[i]):
                metric.append([g, i, j, ex.fmt_rat(block[i][j])])
    return {
        "name": X.name,
        "group": group_doc(G),
        "sectors": sectors,
        "product": product,
        "action": action,
        "metric": metric,
        "character": [ex.fmt_rat(c) for c in X.character],
        "unit": [[i, ex.fmt_rat(v)] for i, v in enumerate(X.unit) if v != 0],
    }


def from_json_dict(doc: dict) -> GFrobeniusAlgebra:
    gdoc, sectors = doc["group"], doc["sectors"]
    # compare before building the (n!)^2-entry table
    if gdoc.get("type") == "symmetric" and symmetric_order(gdoc["n"], len(sectors)) != len(sectors):
        raise ValueError("sector count does not match the group order")
    group = group_from_doc(gdoc)
    if len(sectors) != group.order:
        raise ValueError("sector count does not match the group order")
    dims = [s["dim"] for s in sectors]
    for g, d in enumerate(dims):
        if type(d) is not int or d < 0:
            raise ValueError(f"sector {g}: dim {d!r} is not an integer >= 0")
    order = group.order
    product: dict = {(g, h): {} for g in group.elements() for h in group.elements()}
    seen: set = set()
    for g, h, i, j, k, v in doc.get("product", []):
        ex.check_indices("product", (g, h), (order, order))
        ex.check_indices("product", (i, j, k), (dims[g], dims[h], dims[group.mul(g, h)]))
        ex.check_new("product", seen, (g, h, i, j, k))
        product[(g, h)].setdefault((i, j), {})[k] = ex.rat(v)
    action: dict = {(g, h): {} for g in group.elements() for h in group.elements()}
    seen = set()
    for g, h, i, j, v in doc.get("action", []):
        ex.check_indices("action", (g, h), (order, order))
        ex.check_indices("action", (i, j), (dims[group.conj(g, h)], dims[h]))
        ex.check_new("action", seen, (g, h, i, j))
        action[(g, h)].setdefault(j, {})[i] = ex.rat(v)
    metric: list = [{} for _ in group.elements()]
    seen = set()
    for g, i, j, v in doc.get("metric", []):
        ex.check_indices("metric", (g,), (order,))
        ex.check_indices("metric", (i, j), (dims[g], dims[group.inv(g)]))
        ex.check_new("metric", seen, (g, i, j))
        metric[g].setdefault(i, {})[j] = ex.rat(v)
    unit = ex.vec_zero(dims[group.identity])
    seen = set()
    for i, v in doc.get("unit", []):
        ex.check_indices("unit", (i,), (dims[group.identity],))
        ex.check_new("unit", seen, (i,))
        unit[i] = ex.rat(v)
    return GFrobeniusAlgebra(
        name=doc.get("name", "g-algebra"),
        group=group,
        sector_dims=dims,
        sector_degrees=[list(s.get("degrees", [0] * s["dim"])) for s in sectors],
        sector_parities=[list(s.get("parities", [0] * s["dim"])) for s in sectors],
        sector_labels=[list(s.get("basis", [f"b{i}" for i in range(s["dim"])])) for s in sectors],
        product=product,
        action=action,
        metric=metric,
        character=[ex.rat(c) for c in doc["character"]],
        unit=unit,
    )


def save(X: GFrobeniusAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(X), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path) -> GFrobeniusAlgebra:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
