"""Group-graded Frobenius algebras: the axiom verifier, tensor product,
discrete-torsion / super twists, and invariant subalgebra extraction.  A
twist is the sectorwise tensor product with the twisted group ring
k^{alpha,sigma}[G], whose builder here holds the only twist formulas.

A structure is a family of sector spaces ``A_g`` (one per group element)
with a graded product ``A_g x A_h -> A_gh``, a pairing that couples ``A_g``
with ``A_{g^-1}`` only, a group action ``phi_g: A_h -> A_{ghg^-1}``, a
character ``chi`` and an optional supergrading.  All maps are stored as
sparse exact-rational tables over the sector bases, ``{index: {index:
value}}`` with no zero value stored.

The verifier is exhaustive over basis tuples but joins nonzero rows only:
each law computes both sides where some table row reaches, so a tuple
neither side reaches is decided as 0 = 0 and still counted in the closed
form ``instances``.  Each law is one function that stops at its first
witness and returns it, or None; the eight axioms run only once the
structure check passes.  Associativity (a), invariance of the metric (d)
and the base algebra's two such laws share one kernel, ``_report._associator``.
Before any scan, ``_verify_cost`` counts the products the joins will
multiply, the |G|^3 compositions of the representation check and the
per-pair loops of the other checks; ``VERIFY_BUDGET`` bounds that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import exactnum as ex
from ._report import (VERIFY_BUDGET, BudgetExceededError, Report, _as_product, _associator,
                      _entries, _fmt_vec, _joins)
from .exactnum import _bilinear, _clean, _clean_map, _sum_rows, _transpose
from .groups import FiniteGroup, group_doc, group_entry, group_from_doc, symmetric_order

if TYPE_CHECKING:  # pragma: no cover
    from .cocycles import Cocycle2, SuperTwist


def _scalar_map(c, d: int) -> ex.SparseMap:
    """c times the identity of a d-dimensional sector."""
    return {j: {j: c} for j in range(d)}


def _scaled(c, block: ex.SparseMap) -> ex.SparseMap:
    return {p: {q: ex.norm(c * v) for q, v in vec.items()} for p, vec in block.items()}


def _compose(a: ex.SparseMap, b: ex.SparseMap) -> ex.SparseMap:
    """Column map of a after b."""
    return {j: out for j, col in b.items()
            if (out := _sum_rows((c, a.get(k, {})) for k, c in col.items()))}


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
        if type(self.name) is not str:
            raise ValueError(f"name {self.name!r} is not a string")
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
                if not (0 <= i < self.sector_dims[g] and 0 <= j < self.sector_dims[h]):
                    raise ValueError(f"{self.name}: product entry out of range in sector pair "
                                     f"({self.group.labels[g]}, {self.group.labels[h]})")
                if any(not 0 <= k < tgt_dim for k in vec):
                    raise ValueError(f"{self.name}: product value out of range in sector pair "
                                     f"({self.group.labels[g]}, {self.group.labels[h]})")
            for key in [key for key, vec in table.items() if not _clean(vec)]:
                del table[key]

    # -- basic access --------------------------------------------------------

    def multiply(self, g: int, h: int, a, b):
        """Product of dense vectors a in A_g, b in A_h; result in A_gh."""
        return _bilinear(self.product.get((g, h), {}), a, b, self.sector_dims[self.group.mul(g, h)])

    def act(self, g: int, h: int, v):
        """phi_g applied to v in A_h; result in A_{ghg^-1}."""
        block = self.action[(g, h)]
        out = _sum_rows((x, block.get(j, {})) for j, x in enumerate(v) if x != 0)
        return [out.get(i, 0) for i in range(self.sector_dims[self.group.conj(g, h)])]

    def pair(self, g: int, a, b) -> ex.Rat:
        """eta(a, b) for a in A_g, b in A_{g^-1}."""
        s = 0
        for i, row in self.metric[g].items():
            if a[i] != 0:
                s += a[i] * sum(v * b[j] for j, v in row.items())
        return ex.norm(s)

    def is_super(self) -> bool:
        return any(any(p % 2 for p in ps) for ps in self.sector_parities)

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

def _first_difference(lhs: dict, rhs: dict):
    """The smallest key at which two maps of sparse vectors differ, as
    ``(key, lhs vector, rhs vector)`` cleaned, or None; a missing key is 0."""
    if lhs == rhs:
        return None
    for key in sorted(lhs.keys() | rhs.keys()):
        a, b = _clean(dict(lhs.get(key, {}))), _clean(dict(rhs.get(key, {})))
        if a != b:
            return key, a, b
    return None


def _verify_cost(X: GFrobeniusAlgebra) -> int:
    """The work of ``verify_axioms``, counted before any scan from the nonzero
    entries and the dimensions: the products the associativity join
    multiplies, the row entries ii pushes through every phi_k (twice, for its
    pulled-back side), structure's |G|^3 compositions, c's unit products, and
    for b, d, iii and iv the largest block once per sector pair."""
    G, dims, n = X.group, X.sector_dims, X.group.order
    meet: dict = {}   # (s, p): what a row entry landing on e_p in A_s meets
    for (s, t), table in X.product.items():
        for (p, m), row in table.items():
            meet[s, p] = meet.get((s, p), 0) + len(row)   # as x y, (x y) z by left index
            meet[t, m] = meet.get((t, m), 0) + len(row)   # as y z, x (y z) by right index
    for (_, s), block in X.action.items():
        for p, col in block.items():
            meet[s, p] = meet.get((s, p), 0) + 2 * len(col)
    blocks = [*X.product.values(), *X.action.values(), *X.metric]
    largest = max(sum(map(len, block.values())) for block in blocks)
    return (sum(meet.get((G.mul(g, h), p), 0) for (g, h), table in X.product.items()
                for row in table.values() for p in row)
            + n ** 3 + sum(d * (dims[G.identity] + d) for d in dims) + n * n * largest)


def _structure(X: GFrobeniusAlgebra, pairs: list):
    """A missing action block; per g, a metric block that is not its partner's
    transpose or is degenerate, a zero character; phi_e != id; phi_g phi_h != phi_gh."""
    G, labels = X.group, X.group.labels
    for g, h in pairs:
        if (g, h) not in X.action:
            return {"g": labels[g], "h": labels[h], "issue": "missing action block"}
    for g in G.elements():
        if _transpose(X.metric[g]) != X.metric[G.inv(g)]:
            return {"g": labels[g], "issue": "metric block not the transpose of its partner"}
        rank = len(ex.sparse_echelon(X.metric[g]))
        if rank != X.sector_dims[g]:
            return {"g": labels[g], "issue": "metric block degenerate", "rank": rank}
        if X.character[g] == 0:
            return {"g": labels[g], "issue": "character value zero"}
    for h in G.elements():
        if X.action[G.identity, h] != _scalar_map(1, X.sector_dims[h]):
            return {"h": labels[h], "issue": "phi_e is not the identity"}
    for g, h in pairs:
        for s in G.elements():
            if _compose(X.action[g, G.conj(h, s)], X.action[h, s]) != X.action[G.mul(g, h), s]:
                return {"g": labels[g], "h": labels[h], "sector": labels[s],
                        "issue": "phi_g phi_h != phi_gh"}
    return None


def _associativity(X: GFrobeniusAlgebra, pairs: list, entries: dict):
    """a) One join per (g, h) with every k inside: the entries of T_{g,h} meet
    T_{gh,k} by left index, those of every T_{h,k} meet T_{g,hk} by right index."""
    G, mul, labels = X.group, X.group.mul, X.group.labels
    after: list = [{} for _ in G.elements()]    # per s: p -> [(k, m, row of e_p z_m)]
    before: list = [{} for _ in G.elements()]   # per g: (s, p) -> [(i, row of x_i e_p)]
    for (s, t), table in X.product.items():
        for (p, m), row in table.items():
            after[s].setdefault(p, []).append((t, m, row))
            before[s].setdefault((t, m), []).append((p, row))
    yz_of = [[(k, j, m, (mul(h, k), p), c) for k in G.elements()
              for j, m, p, c in entries.get((h, k), ())] for h in G.elements()]
    for g, h in pairs:
        found = _associator(entries.get((g, h), ()), yz_of[h], after[mul(g, h)], before[g])
        if found:
            (k, i, j, m), lhs, rhs = found
            ghk = X.sector_labels[mul(mul(g, h), k)]
            return {"g": labels[g], "h": labels[h], "k": labels[k], "basis": (i, j, m),
                    "lhs": _fmt_vec(ghk, lhs), "rhs": _fmt_vec(ghk, rhs)}
    return None


def _twisted_commutativity(X: GFrobeniusAlgebra, pairs: list, pulled: dict):
    """b) T_{g,h} against the rows of T_{ghg^-1,g} pulled back through phi_g."""
    G, par, super_mode = X.group, X.sector_parities, X.is_super()
    for g, h in pairs:
        rhs: dict = {}
        for (p, i), row in X.product.get((G.conj(g, h), g), {}).items():
            for j, c in pulled[g, h].get(p, {}).items():
                c = -c if super_mode and par[g][i] * par[h][j] % 2 else c
                acc = rhs.setdefault((i, j), {})
                for q, v in row.items():
                    acc[q] = acc.get(q, 0) + c * v
        found = _first_difference(X.product.get((g, h), {}), rhs)
        if found:
            (i, j), lhs, rhs = found
            gh = X.sector_labels[G.mul(g, h)]
            return {"g": G.labels[g], "h": G.labels[h], "basis": (i, j),
                    "lhs": _fmt_vec(gh, lhs), "rhs": _fmt_vec(gh, rhs)}
    return None


def _invariant_unit(X: GFrobeniusAlgebra):
    """c) The unit is a two-sided identity on every basis vector, fixed by every phi_g."""
    G, dims, e = X.group, X.sector_dims, X.group.identity
    for h in G.elements():
        for j in range(dims[h]):
            ej = ex.basis_vector(dims[h], j)
            if X.multiply(e, h, X.unit, ej) != ej or X.multiply(h, e, ej, X.unit) != ej:
                return {"h": G.labels[h], "basis": j, "issue": "unit does not act as identity"}
    for g in G.elements():
        if X.act(g, e, X.unit) != X.unit:
            return {"g": G.labels[g], "issue": "phi_g(1) != 1"}
    return None


def _metric_invariance(X: GFrobeniusAlgebra, pairs: list, entries: dict):
    """d) The associativity join, each pairing block read as a product into a 1-dim sector."""
    G, mul, inv, labels = X.group, X.group.mul, X.group.inv, X.group.labels
    eta = [_joins(_as_product(block), inv(s)) for s, block in enumerate(X.metric)]
    for g, h in pairs:
        k = inv(mul(g, h))
        found = _associator(entries.get((g, h), ()),
                            [(k, j, m, p, c) for j, m, p, c in entries.get((h, k), ())],
                            eta[mul(g, h)][0], eta[g][1])
        if found:
            (_, i, j, m), lhs, rhs = found
            return {"g": labels[g], "h": labels[h], "k": labels[k], "basis": (i, j, m),
                    "eta(a,bc)": ex.fmt_rat(rhs.get(0, 0)), "eta(ab,c)": ex.fmt_rat(lhs.get(0, 0))}
    return None


def _self_invariance(X: GFrobeniusAlgebra):
    """i) phi_g on the twisted sector A_g is chi_g^-1 times the identity."""
    for g, chi in enumerate(X.character):
        if X.action[g, g] != _scalar_map(ex.norm(1 / Fraction(chi)), X.sector_dims[g]):
            return {"g": X.group.labels[g], "issue": "phi_g|A_g != chi_g^-1 id"}
    return None


def _multiplicative(X: GFrobeniusAlgebra, pairs: list, pulled: dict):
    """ii) One join per (k, g) with every h inside: the rows of T_{g,h} pushed
    through phi_k meet the rows of T_{kgk^-1,khk^-1} pulled back through the
    transposed action columns, in one accumulator {(h, i, j, r): lhs - rhs}."""
    G, mul, conj = X.group, X.group.mul, X.group.conj
    tables_from: list = [[] for _ in G.elements()]   # per g: (h, T_{g,h}) for T_{g,h} != 0
    for (g, h), table in X.product.items():
        if table:
            tables_from[g].append((h, table))
    for k, g in pairs:
        diff: dict = {}
        for h, table in tables_from[g]:
            push = X.action[k, mul(g, h)]
            for (i, j), row in table.items():
                for p, c in row.items():
                    for r, v in push.get(p, {}).items():
                        key = (h, i, j, r)
                        diff[key] = diff.get(key, 0) + c * v
        back_g = pulled[k, g]
        for kh, table in tables_from[conj(k, g)]:
            h = conj(G.inv(k), kh)
            back_h = pulled[k, h]
            for (p, q), row in table.items():
                for i, cg in back_g.get(p, {}).items():
                    for j, ch in back_h.get(q, {}).items():
                        c = cg * ch
                        for r, v in row.items():
                            key = (h, i, j, r)
                            diff[key] = diff.get(key, 0) - c * v
        if any(diff.values()):
            h, i, j = min(key[:3] for key, v in diff.items() if v)
            return {"k": G.labels[k], "g": G.labels[g], "h": G.labels[h], "basis": (i, j)}
    return None


def _metric_projective(X: GFrobeniusAlgebra, pairs: list, pulled: dict):
    """iii) eta(phi_g e_i, phi_g e_j) from the nonzero pairing entries, against
    chi_g^-2 eta(e_i, e_j)."""
    G = X.group
    for g, h in pairs:
        chi2_inv = ex.norm(1 / (Fraction(X.character[g]) ** 2))
        eta_gh, back = X.metric[G.conj(g, h)], pulled[g, G.inv(h)]
        lhs: dict = {}
        for i, col in X.action[g, h].items():
            for p, cp in col.items():
                for q, v in eta_gh.get(p, {}).items():
                    for j, cq in back.get(q, {}).items():
                        lhs.setdefault((i, j), {0: 0})[0] += cp * v * cq
        rhs = {(i, j): {0: chi2_inv * v} for i, row in X.metric[h].items() for j, v in row.items()}
        found = _first_difference(lhs, rhs)
        if found:
            (i, j), lhs, rhs = found
            return {"g": G.labels[g], "h": G.labels[h], "basis": (i, j),
                    "lhs": ex.fmt_rat(lhs.get(0, 0)), "rhs": ex.fmt_rat(rhs.get(0, 0))}
    return None


def _trace(X: GFrobeniusAlgebra, pairs: list):
    """iv) The (super)traces of l_c phi_h on A_g and of phi_g^-1 l_c on A_h,
    from the nonzero rows of l_c."""
    G, product, super_mode = X.group, X.product, X.is_super()
    sign = [[-1 if super_mode and p % 2 else 1 for p in ps] for ps in X.sector_parities]
    for g, h in pairs:
        comm, chi_h, chi_ginv = G.commutator(g, h), X.character[h], X.character[G.inv(g)]
        phi_h, phi_ginv = X.action[h, g], X.action[G.inv(g), G.conj(g, h)]
        lhs: dict = {}
        for (c, p), row in product.get((comm, G.conj(h, g)), {}).items():  # l_c: A_{hgh^-1} -> A_g
            for v, x in row.items():
                if p in phi_h.get(v, ()):
                    lhs.setdefault(c, {0: 0})[0] += sign[g][v] * chi_h * x * phi_h[v][p]
        rhs: dict = {}
        for (c, v), row in product.get((comm, h), {}).items():             # l_c: A_h -> A_{ghg^-1}
            for p, x in row.items():
                if v in phi_ginv.get(p, ()):
                    rhs.setdefault(c, {0: 0})[0] += sign[h][v] * chi_ginv * x * phi_ginv[p][v]
        found = _first_difference(lhs, rhs)
        if found:
            c, lhs, rhs = found
            return {"g": G.labels[g], "h": G.labels[h], "c": c,
                    "lhs": ex.fmt_rat(lhs.get(0, 0)), "rhs": ex.fmt_rat(rhs.get(0, 0))}
    return None


def verify_axioms(X: GFrobeniusAlgebra, budget: int = VERIFY_BUDGET) -> Report:
    """Exhaustive exact check of the eight defining axioms, behind the structure check.

    When some basis element is odd, twisted commutativity and the trace axiom
    take their supergraded forms (signs from element parities, supertrace).
    For evenly graded input the super forms coincide with the plain ones.
    """
    estimate = _verify_cost(X)
    if estimate > budget:
        raise BudgetExceededError(
            f"verification would cost ~{estimate} products and loop steps (budget {budget})",
            estimate)
    G, dims = X.group, X.sector_dims
    mul, inv, n, total = G.mul, G.inv, G.order, sum(dims)
    pairs = [(g, h) for g in G.elements() for h in G.elements()]
    complete = all(key in X.action for key in pairs)   # else structure reports n instances
    report = Report().run([("structure", "shapes, metric blocks, action is a representation",
                            2 * n + n ** 3 if complete else n, _structure, X, pairs)])
    if not report.passed:
        return report
    pulled = {key: _transpose(block) for key, block in X.action.items()}   # rows of phi_g|A_h
    entries = {key: _entries(table) for key, table in X.product.items()}
    return report.run([
        ("a", "associativity", total ** 3, _associativity, X, pairs, entries),
        ("b", "twisted commutativity", total ** 2, _twisted_commutativity, X, pairs, pulled),
        ("c", "invariant unit", total + n, _invariant_unit, X),
        ("d", "invariance of the metric",
         sum(dims[g] * dims[h] * dims[inv(mul(g, h))] for g, h in pairs),
         _metric_invariance, X, pairs, entries),
        ("i", "projective self-invariance", n, _self_invariance, X),
        ("ii", "action multiplicative", n * total ** 2, _multiplicative, X, pairs, pulled),
        ("iii", "projective invariance of the metric",
         n * sum(d * dims[inv(h)] for h, d in enumerate(dims)),
         _metric_projective, X, pairs, pulled),
        ("iv", "projective trace axiom" + (" (supertrace)" if X.is_super() else ""),
         sum(dims[G.commutator(g, h)] for g, h in pairs), _trace, X, pairs),
    ])


# -- graded tensor product ---------------------------------------------------

def tensor_hat(X: GFrobeniusAlgebra, Y: GFrobeniusAlgebra) -> GFrobeniusAlgebra:
    """Sectorwise tensor product over the same group.

    Products, metrics and actions multiply sector by sector, characters
    multiply, supergradings add.  (Sign bookkeeping for genuinely super
    factors lives entirely in the action/character data of the factors, so
    sectors of uniform parity compose correctly.)  Two super factors are
    refused unless both supergradings are uniform on every sector and agree.
    """
    if X.group != Y.group:
        raise ValueError("tensor_hat requires both factors to share one group")
    if X.is_super() and Y.is_super():
        # the sectorwise formula is only valid when the interchange signs
        # cancel, i.e. for matching sector-uniform supergradings
        px, py = _uniform_parities(X), _uniform_parities(Y)
        if px is None or py is None or px != py:
            raise ValueError(
                "tensor_hat of two differently supergraded factors is not supported"
            )
    return _sectorwise(X, Y)


def _uniform_parities(Z: GFrobeniusAlgebra) -> list | None:
    """Per sector, its basis's one parity (0 if empty); None if a sector mixes parities."""
    sets = [set(ps) for ps in Z.sector_parities]
    return None if any(len(s) > 1 for s in sets) else [min(s, default=0) for s in sets]


def _sectorwise(X: GFrobeniusAlgebra, Y: GFrobeniusAlgebra) -> GFrobeniusAlgebra:
    """The sectorwise tensor product with row-major index fusion, e_i (x) f_a
    at i * dim Y_g + a, unguarded.  Its product and action keys are X's."""
    G, dx, dy = X.group, X.sector_dims, Y.sector_dims
    product = {}
    for (g, h), tx in X.product.items():
        ty, out = Y.product.get((g, h), {}), dy[G.mul(g, h)]
        product[g, h] = {(i * dy[g] + a, j * dy[h] + b):
                         {k * out + c: ex.norm(x * y) for k, x in rx.items() for c, y in ry.items()}
                         for (i, j), rx in tx.items() for (a, b), ry in ty.items()}
    action = {(g, h): ex.sparse_kron(block, Y.action[g, h], dy[h], dy[G.conj(g, h)])
              for (g, h), block in X.action.items()}

    def fused(xs, ys, join):
        return [[join(x, y) for x in xs[g] for y in ys[g]] for g in G.elements()]

    return GFrobeniusAlgebra(
        name=f"{X.name} (x) {Y.name}",
        group=G,
        sector_dims=[a * b for a, b in zip(dx, dy)],
        sector_degrees=fused(X.sector_degrees, Y.sector_degrees, lambda x, y: x + y),
        sector_parities=fused(X.sector_parities, Y.sector_parities, lambda x, y: (x + y) % 2),
        sector_labels=fused(X.sector_labels, Y.sector_labels, lambda x, y: f"{x}|{y}"),
        product=product,
        action=action,
        metric=[ex.sparse_kron(X.metric[g], Y.metric[g], dy[g], dy[G.inv(g)]) for g in G.elements()],
        character=[ex.norm(x * y) for x, y in zip(X.character, Y.character)],
        unit=[ex.norm(x * y) for x in X.unit for y in Y.unit],
    )


# -- twisting ----------------------------------------------------------------

def _twisted_ring(G: FiniteGroup, alpha: "Cocycle2 | None",
                  sigma: "SuperTwist | None") -> GFrobeniusAlgebra:
    """The twisted group ring k^{alpha,sigma}[G], after validating alpha and sigma.

    Sector g is spanned by g^ with parity sigma(g); g^ h^ = alpha(g,h) (gh)^,
    eta(g^, (g^-1)^) = alpha(g,g^-1), phi_g(h^) = (-1)^{sigma(g)sigma(h)}
    eps(g,h) (ghg^-1)^ with eps(g,h) = alpha(g,h) / alpha(ghg^-1,g), and
    chi(g) = (-1)^{sigma(g)}.  A missing alpha or sigma is trivial.  These
    are the only twist formulas in the package.
    """
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
    n = G.order
    a = alpha.values if alpha is not None else [[1] * n] * n
    s = sigma.parity if sigma is not None else [0] * n

    def phi(g, h):
        eps = Fraction(a[g][h], a[G.conj(g, h)][g])
        return -eps if s[g] * s[h] else eps

    return GFrobeniusAlgebra(
        name=f"k^(alpha,sigma)[{'S' if G.perms else 'G'}]", group=G, sector_dims=[1] * n,
        sector_degrees=[[0] for _ in range(n)], sector_parities=[[s[g]] for g in range(n)],
        sector_labels=[["1"] for _ in range(n)],
        product={(g, h): {(0, 0): {0: a[g][h]}} for g in range(n) for h in range(n)},
        action={(g, h): {0: {0: phi(g, h)}} for g in range(n) for h in range(n)},
        metric=[{0: {0: a[g][G.inv(g)]}} for g in range(n)],
        character=[(-1) ** s[g] for g in range(n)], unit=[1],
    )


def twist(X: GFrobeniusAlgebra, alpha: "Cocycle2 | None" = None,
          sigma: "SuperTwist | None" = None) -> GFrobeniusAlgebra:
    """Twist by a 2-cocycle and/or a parity homomorphism: the sectorwise
    tensor product of X with the twisted group ring k^{alpha,sigma}[G].

    The ring's sectors are one-dimensional, so the result lives on X's sector
    spaces with X's indices, labels and product and action keys: the product
    picks up alpha(g,h), the metric alpha(g,g^-1), the action
    (-1)^{sigma(g)sigma(h)} alpha(g,h)/alpha(ghg^-1,g), the character
    (-1)^{sigma(g)}, and sector parities shift by sigma(g).  A super X with
    sectors of mixed parity is accepted, unlike by ``tensor_hat``; one graded
    by sector-uniform parities other than sigma's is refused, as by it.
    Twisting is an action: alpha-then-alpha^{-1} and sigma-twice restore the
    input exactly.
    """
    ring = _twisted_ring(X.group, alpha, sigma)
    if X.is_super() and ring.is_super() and _uniform_parities(X) not in (None, sigma.parity):
        raise ValueError(f"twist of a super algebra by the different supergrading {sigma.parity}")
    out = _sectorwise(X, ring)
    out.name = f"{X.name} twisted"
    out.sector_labels = [list(labels) for labels in X.sector_labels]
    return out


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
    gdoc, sectors = group_entry(doc), doc["sectors"]
    if gdoc.get("type") == "symmetric":   # checked before the (n!)^2-entry table is built
        order = symmetric_order(gdoc["n"], len(sectors))
        if order != len(sectors):
            raise ValueError("sector count does not match the group order")
        if order ** 2 > VERIFY_BUDGET:   # as cocycles.document_order bounds a cocycle's S_n
            raise BudgetExceededError(f"the table of S_{gdoc['n']} holds {order ** 2} entries "
                                      f"(budget {VERIFY_BUDGET})", order ** 2)
    group = group_from_doc(gdoc)
    if len(sectors) != group.order:
        raise ValueError("sector count does not match the group order")
    dims = [s["dim"] for s in sectors]
    for g, d in enumerate(dims):
        if type(d) is not int or d < 0:
            raise ValueError(f"sector {g}: dim {d!r} is not an integer >= 0")
    if (total := sum(dims)) > VERIFY_BUDGET:   # before any list of a sector's length is made
        raise BudgetExceededError(f"the sectors hold {total} basis vectors in all "
                                  f"(budget {VERIFY_BUDGET})", total)
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
    ex.save_json(to_json_dict(X), path)


def load(path) -> GFrobeniusAlgebra:
    return from_json_dict(ex.load_json(path))
