"""The cut-and-join rule as a positive-degree oracle for both product routes.

Lehn and Sorger (*Symmetric groups and the cup product on the cohomology of
Hilbert schemes*, 2001, section 2) multiply in A{S_n} by restricting both
factors to the orbits of <g, h>, multiplying there with the Euler class to the
power of each orbit B's graph defect (|B| + 2 - #g-cycles - #h-cycles -
#gh-cycles in B) / 2, and pushing the result forward to the cycles of gh.  When
one factor is a transposition tau, every graph defect is 0, so no Euler class
enters, and the product is the cut-and-join operator (Lehn, *Chern classes of
tautological sheaves on Hilbert schemes*, 1999; Goulden and Jackson, 1997):

* a join (tau meets two cycles of the other factor) multiplies every label that
  lands in the merged cycle;
* a cut (tau lies in one cycle) multiplies likewise, then splits the product by
  the copairing, a -> sum_l a b_l (x) b^l, onto the two new cycles;
* every other orbit multiplies its labels in place.

The base is read from its document alone: its structure constants, and its
copairing from the inverse of the document's pairing.  Cycles are frozensets
of points and labels ride on their cycles; tensor factors follow the package's
documented convention, cycles ordered by smallest point, the first one most
significant in a flat index.  Unlike the degree-0 class-algebra oracle, this
one sees the order of tensor factors.  The package supplies only the algebra
it checks.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from orbifrob.symprod import SymmetricProductAlgebra

from conftest import HALF_BASE, RESCALED_BASE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCUMENTS = {"qx2": "dual_numbers", "surface": "surface4", "half": HALF_BASE,
             "rescaled": RESCALED_BASE}


class _Base:
    """A commutative base algebra read from its document: dim, structure
    constants {(i, j): {k: c}} and the copairing [(i, j, c)]."""

    def __init__(self, doc: dict):
        self.dim = D = doc["dim"]
        self.rows: dict = {}
        for i, j, k, c in doc["structure"]:
            self.rows.setdefault((i, j), {})[k] = Fraction(c)
        # the copairing sum_l b_l (x) b^l is sum_ij (eta^-1)_ij e_i (x) e_j
        inv = _inverse([[Fraction(0)] * D for _ in range(D)], doc["metric"])
        self.copairing = [(i, j, inv[i][j]) for i in range(D) for j in range(D) if inv[i][j]]

    def times(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.rows.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * c
        return {k: c for k, c in out.items() if c}

    def split(self, u: dict) -> dict:
        """The metric adjoint of the product, u -> sum_l u b_l (x) b^l."""
        out: dict = {}
        for i, j, c in self.copairing:
            for k, w in self.times(u, {i: 1}).items():
                out[k, j] = out.get((k, j), 0) + w * c
        return {t: c for t, c in out.items() if c}


def _inverse(eta: list, entries: list) -> list:
    """The inverse of the pairing's Gram matrix, by Gauss-Jordan elimination."""
    D = len(eta)
    for i, j, c in entries:
        eta[i][j] = Fraction(c)
    work = [row + [Fraction(int(i == j)) for j in range(D)] for i, row in enumerate(eta)]
    for col in range(D):
        pivot = next(r for r in range(col, D) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(D):
            if r != col and work[r][col]:
                work[r] = [x - work[r][col] * y for x, y in zip(work[r], work[col])]
    return [row[D:] for row in work]


def _cycles(images: tuple) -> list:
    """The cycles of a permutation, fixed points included, by smallest point."""
    seen, out = set(), []
    for start in range(len(images)):
        if start not in seen:
            cycle, p = set(), start
            while p not in cycle:
                cycle.add(p)
                p = images[p]
            seen |= cycle
            out.append(frozenset(cycle))
    return out


def _labels(cycles: list, index: int, D: int) -> dict:
    """The labels of a basis tensor of a sector: cycle -> basis index."""
    out = {}
    for cycle in reversed(cycles):
        index, out[cycle] = divmod(index, D)
    return out


def _cut_and_join(base: _Base, g: tuple, i: int, h: tuple, j: int) -> list:
    """The product of basis tensors i of sector g and j of sector h, one of
    them a transposition, in the sector of gh (gh(p) = g(h(p))), dense."""
    D, gh = base.dim, tuple(g[q] for q in h)
    cg, ch, cgh = _cycles(g), _cycles(h), _cycles(gh)
    orbit = {p: {p} for p in range(len(g))}   # point -> its joint orbit, merged by cycles
    for cycle in cg + ch:
        merged = set().union(*(orbit[p] for p in cycle))
        for p in merged:
            orbit[p] = merged
    labels = list(_labels(cg, i, D).items()) + list(_labels(ch, j, D).items())
    factors = []   # per joint orbit: (its cycles of gh, {their indices: coefficient})
    for block in {frozenset(b) for b in orbit.values()}:
        inside = [c for c in cgh if c <= block]
        counts = sum(c <= block for c in cg) + sum(c <= block for c in ch) + len(inside)
        assert len(block) + 2 == counts   # graph defect 0
        first, *rest = [k for cycle, k in labels if cycle <= block]
        product = {first: Fraction(1)}
        for k in rest:
            product = base.times(product, {k: 1})
        if len(inside) == 1:
            factors.append((inside, {(k,): c for k, c in product.items()}))
        else:
            assert len(inside) == 2   # a cut
            factors.append((inside, base.split(product)))
    position = {c: q for q, c in enumerate(cgh)}
    terms = {(): Fraction(1)}   # ((cycle of gh, index), ...) -> coefficient
    for inside, values in factors:
        terms = {t + tuple(zip(inside, ks)): c * v for t, c in terms.items()
                 for ks, v in values.items()}
    out = [Fraction(0)] * D ** len(cgh)
    for t, c in terms.items():
        out[sum(k * D ** (len(cgh) - 1 - position[cycle]) for cycle, k in t)] += c
    return out


CASES = [("qx2", 2), ("qx2", 3), ("qx2", 4), ("surface", 2), ("surface", 3), ("half", 2),
         ("half", 3), ("half", 4), ("rescaled", 2), ("rescaled", 3)]


@pytest.mark.parametrize("base_name, n", CASES)
def test_transposition_products_are_cut_and_join(request, base_name, n):
    # every (transposition basis tensor, sector basis tensor) pair, in both
    # orders, through both routes
    doc = DOCUMENTS[base_name]
    base = _Base(json.loads((FIXTURES / f"{doc}.json").read_text()) if isinstance(doc, str) else doc)
    sp = SymmetricProductAlgebra(request.getfixturevalue(base_name), n)
    images = [p.images for p in sp.perms]
    transpositions = [t for t in range(sp.group.order)
                      if sum(p != q for p, q in enumerate(images[t])) == 2]
    assert len(transpositions) == n * (n - 1) // 2
    vectors = [[[int(x == y) for y in range(dim)] for x in range(dim)] for dim in sp.dims]
    checked = 0
    for t in transpositions:
        for s in range(sp.group.order):
            for (g, a), (h, b) in (((t, vectors[t]), (s, vectors[s])),
                                   ((s, vectors[s]), (t, vectors[t]))):
                assert images[sp.group.mul(g, h)] == tuple(images[g][q] for q in images[h])
                for i, u in enumerate(a):
                    for j, v in enumerate(b):
                        want = _cut_and_join(base, images[g], i, images[h], j)
                        assert sp.multiply_chain(g, u, h, v) == want, (g, i, h, j)
                        assert sp.multiply_pushforward(g, u, h, v) == want, (g, i, h, j)
                        checked += 1
    assert checked == 2 * len(transpositions) * base.dim ** (n - 1) * sum(sp.dims)
