"""2-cocycles on finite groups and the twisted group rings they generate.

Every discrete-torsion twist is the sectorwise tensor product with the
twisted group ring k^{alpha,sigma}[G]; ``gfrob`` builds that ring, so the
twist formulas are written once, and ``twisted_group_ring`` and ``epsilon``
read them from there.

The distinguished family here is the normalized symmetric-group cocycle
``alpha(s, s') = lambda^((|s| + |s'| - |ss'|)/2)``: it is 1 on transversal
pairs, it is fixed by its value on a transposition pair, its conjugation
scalar ``eps`` is identically 1, and ``lambda = -1`` is the sign twist that
turns the symmetric-product algebra into the Hilbert-scheme ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import exactnum as ex
from ._report import Report
from .gfrob import VERIFY_BUDGET, BudgetExceededError, GFrobeniusAlgebra, _twisted_ring
from .groups import (FiniteGroup, degree, group_doc, group_entry, group_from_doc, symmetric_group,
                     symmetric_order)


@dataclass
class Cocycle2:
    """alpha: G x G -> k*, stored as a full order x order value table."""

    group: FiniteGroup
    values: list  # values[g][h]

    def __post_init__(self):
        n = self.group.order
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("cocycle value table must be order x order")
        for g in range(n):
            for h in range(n):
                if self.values[g][h] == 0:
                    raise ValueError(
                        f"cocycle value at ({self.group.labels[g]}, {self.group.labels[h]}) is zero"
                    )

    def value(self, g: int, h: int) -> ex.Rat:
        return self.values[g][h]

    def validate(self) -> Report:
        refuse_scan(self.group.order)   # every twist validates its cocycle here
        return validate(self)

    def __mul__(self, other: "Cocycle2") -> "Cocycle2":
        if self.group != other.group:
            raise ValueError("cocycle product requires one common group")
        n = self.group.order
        return Cocycle2(self.group, [
            [ex.norm(self.values[g][h] * other.values[g][h]) for h in range(n)] for g in range(n)
        ])

    def inverse(self) -> "Cocycle2":
        n = self.group.order
        return Cocycle2(self.group, [
            [ex.norm(1 / Fraction(self.values[g][h])) for h in range(n)] for g in range(n)
        ])


@dataclass
class SuperTwist:
    """A parity homomorphism G -> Z/2."""

    group: FiniteGroup
    parity: list  # 0/1 per element

    def __post_init__(self):
        if len(self.parity) != self.group.order:
            raise ValueError("parity table length must equal the group order")
        if any(p not in (0, 1) for p in self.parity):
            raise ValueError("parities must be 0 or 1")

    def validate_homomorphism(self) -> None:
        G = self.group
        for g in G.elements():
            for h in G.elements():
                if (self.parity[g] + self.parity[h] - self.parity[G.mul(g, h)]) % 2:
                    raise ValueError(
                        f"parity map is not a homomorphism at "
                        f"({G.labels[g]}, {G.labels[h]})"
                    )


def coboundary(group: FiniteGroup, scale: list) -> Cocycle2:
    """d(scale)(g,h) = scale(g) scale(h) / scale(gh); scale(e) must be 1."""
    if scale[group.identity] != 1:
        raise ValueError("coboundary scaling must send the identity to 1")
    if any(s == 0 for s in scale):
        raise ValueError("coboundary scaling values must be nonzero")
    n = group.order
    return Cocycle2(group, [
        [ex.norm(Fraction(scale[g]) * Fraction(scale[h]) / Fraction(scale[group.mul(g, h)]))
         for h in range(n)]
        for g in range(n)
    ])


def refuse_scan(order: int, budget: int = VERIFY_BUDGET) -> None:
    """Refuse, before it starts, a cocycle-law scan of order^3 group triples past ``budget``."""
    triples = order ** 3
    if triples > budget:
        raise BudgetExceededError(
            f"cocycle check would touch ~{triples} group triples (budget {budget})", triples)


def validate(alpha: Cocycle2) -> Report:
    """Exhaustive cocycle-law and normalization check."""
    report = Report()
    G = alpha.group
    vals = alpha.values
    e = G.identity

    witness = None
    count = 0
    for g in G.elements():
        count += 2
        if (vals[g][e] != 1 or vals[e][g] != 1) and witness is None:
            witness = {"g": G.labels[g]}
    report.add("normalization", "alpha(g,e) = alpha(e,g) = 1", witness is None, count, witness)

    witness = None
    count = 0
    mul = G.mul
    for g in G.elements():
        for h in G.elements():
            gh = mul(g, h)
            vgh = vals[g][h]
            vg = vals[g]
            row_gh = vals[gh]
            for k in G.elements():
                count += 1
                if vgh * row_gh[k] != vg[mul(h, k)] * vals[h][k] and witness is None:
                    witness = {"g": G.labels[g], "h": G.labels[h], "k": G.labels[k],
                               "lhs": ex.fmt_rat(ex.norm(vgh * row_gh[k])),
                               "rhs": ex.fmt_rat(ex.norm(vals[g][mul(h, k)] * vals[h][k]))}
    report.add("cocycle-law", "alpha(g,h) alpha(gh,k) = alpha(g,hk) alpha(h,k)",
               witness is None, count, witness)

    witness = None
    count = 0
    for g in G.elements():
        count += 1
        if vals[g][G.inv(g)] != vals[G.inv(g)][g] and witness is None:
            witness = {"g": G.labels[g]}
    report.add("inverse-symmetry", "alpha(g,g^-1) = alpha(g^-1,g)", witness is None, count, witness)
    return report


def epsilon(alpha: Cocycle2) -> list:
    """Conjugation scalars eps(g,h) = alpha(g,h) / alpha(ghg^-1, g), read off
    the action of k^alpha[G]; alpha is validated first."""
    action, n = twisted_group_ring(alpha.group, alpha).action, alpha.group.order
    return [[action[g, h][0][0] for h in range(n)] for g in range(n)]


def twisted_group_ring(group: FiniteGroup, alpha: Cocycle2 | None = None,
                       sigma: SuperTwist | None = None) -> GFrobeniusAlgebra:
    """The twisted group ring k^{alpha,sigma}[G], by whose sectorwise tensor
    product ``twist`` acts.

    Sector g is spanned by ``g^`` with parity sigma(g); ``g^ h^ =
    alpha(g,h) (gh)^``, the pairing is alpha(g,g^-1), the action
    (-1)^{sigma(g)sigma(h)} eps(g,h) and the character (-1)^{sigma(g)}.  A
    group whose |G|^3 cocycle scan passes ``VERIFY_BUDGET`` is refused before
    the ring is built, even with no alpha.
    """
    refuse_scan(group.order)
    return _twisted_ring(group, alpha, sigma)


def normalized_sn_cocycle(n: int, lam: ex.Rat) -> Cocycle2:
    """The normalized S_n cocycle fixed by alpha(tau, tau) = lambda.

    Values are lambda^((|s|+|s'|-|ss'|)/2); transversal pairs get 1.
    """
    lam = ex.rat(lam) if isinstance(lam, str) else ex.norm(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    group = symmetric_group(n)
    perms = group.perms
    degs = [degree(p) for p in perms]
    powers = {0: 1}
    values = []
    for gi, p in enumerate(perms):
        row = []
        for hi, q in enumerate(perms):
            expo = degs[gi] + degs[hi] - degs[group.mul(gi, hi)]
            if expo < 0 or expo % 2:
                raise ValueError(f"length defect is negative or odd at ({p}, {q})")
            expo //= 2
            if expo not in powers:
                powers[expo] = ex.norm(Fraction(lam) ** expo)
            row.append(powers[expo])
        values.append(row)
    return Cocycle2(group, values)


def sign_supertwist(n: int) -> SuperTwist:
    """The parity homomorphism s -> |s| mod 2 on S_n."""
    group = symmetric_group(n)
    return SuperTwist(group, [degree(p) % 2 for p in group.perms])


# -- JSON document -----------------------------------------------------------

def to_json_dict(alpha: Cocycle2) -> dict:
    G = alpha.group
    values = []
    for g in G.elements():
        for h in G.elements():
            if alpha.values[g][h] != 1:
                values.append([G.labels[g], G.labels[h], ex.fmt_rat(alpha.values[g][h])])
    return {"group": group_doc(G), "values": values}


def document_order(doc: dict) -> int:
    """Order of a cocycle document's group, read without building the group.

    Refuses an S_n whose (n!)^2-entry group table and value table alone would
    pass ``VERIFY_BUDGET``.
    """
    gdoc = group_entry(doc)
    if gdoc.get("type") == "symmetric":
        order = symmetric_order(gdoc["n"], math.isqrt(VERIFY_BUDGET))
        if order ** 2 > VERIFY_BUDGET:
            raise BudgetExceededError(f"a cocycle on S_{gdoc['n']} holds at least {order ** 2} "
                                      f"values (budget {VERIFY_BUDGET})", order ** 2)
        return order
    return len(gdoc["labels"])


def from_json_dict(doc: dict) -> Cocycle2:
    document_order(doc)   # refuses an oversized S_n before its tables are built
    group = group_from_doc(doc["group"])
    n = group.order
    values = [[1] * n for _ in range(n)]
    seen: set = set()
    for glabel, hlabel, v in doc.get("values", []):
        g, h = group.index_of(glabel), group.index_of(hlabel)
        ex.check_new("values", seen, (glabel, hlabel))
        values[g][h] = ex.rat(v)
    return Cocycle2(group, values)
