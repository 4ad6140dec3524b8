"""Shared fixtures; the heavy symmetric-product builds are session-scoped."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import symprod as sp_mod
from orbifrob.groups import compose, degree, symmetric_group

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_base(name: str) -> frob.FrobeniusAlgebra:
    """A validated base algebra from ``fixtures/<name>.json``."""
    return frob.load(FIXTURES / f"{name}.json")


@pytest.fixture(scope="session")
def ground():
    """k with eta(1,1) = 1."""
    return load_base("ground")


@pytest.fixture(scope="session")
def qx2():
    """Q[x]/(x^2) with deg x = 2 and eta(1,x) = 1."""
    return load_base("dual_numbers")


@pytest.fixture(scope="session")
def surface():
    """Even 4-dim model {1, a, b, t}: ab = ba = t, eta(1,t) = eta(a,b) = 1."""
    return load_base("surface4")


@pytest.fixture(scope="session")
def half():
    """k on the basis u = 1/2: u u = u/2, unit 2u, eta(u, u) = 1/4.

    Its one structure constant is not 1, so a product kernel that drops the
    constants of one-dimensional factors disagrees with the pairwise product.
    """
    return frob.from_json_dict({
        "name": "half", "dim": 1, "basis": [{"label": "u", "degree": 0, "parity": 0}],
        "unit": ["2"], "metric": [[0, 0, "1/4"]], "structure": [[0, 0, 0, "1/2"]],
    })


_SP_CACHE: dict = {}


def sp_instance(base, n) -> sp_mod.SymmetricProductAlgebra:
    """Cached symmetric products keyed by (base name, n); realize() lazily."""
    key = (base.name, n)
    if key not in _SP_CACHE:
        _SP_CACHE[key] = sp_mod.SymmetricProductAlgebra(base, n)
    return _SP_CACHE[key]


@pytest.fixture(scope="session")
def sp_factory():
    return sp_instance


@pytest.fixture(scope="session")
def s3_ring():
    return cocy.twisted_group_ring(symmetric_group(3))


# -- cocycle references -------------------------------------------------------

def trivial_cocycle(group) -> cocy.Cocycle2:
    """alpha = 1 on every pair."""
    return cocy.Cocycle2(group, [[1] * group.order for _ in range(group.order)])


def zero_supertwist(group) -> cocy.SuperTwist:
    """sigma = 0 on every element."""
    return cocy.SuperTwist(group, [0] * group.order)


def random_coboundary(n, seed):
    """A valid cocycle with nontrivial conjugation scalars."""
    G = symmetric_group(n)
    rng = random.Random(seed)
    scale = [Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])) for _ in G.elements()]
    scale[G.identity] = 1
    return cocy.coboundary(G, scale)


# -- group references ---------------------------------------------------------

def is_transversal(p, q) -> bool:
    """True iff |pq| = |p| + |q| (the product incurs no contraction)."""
    return degree(compose(p, q)) == degree(p) + degree(q)


def cyclic_table(n: int) -> list[list[int]]:
    """The multiplication table of Z/n."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def swapped_cyclic_table(n: int) -> list[list[int]]:
    """Z/n, n even, with its 2x2 intercalate at rows and columns 1 and 1 + n/2
    swapped: a Latin square with an identity that is not associative."""
    table, b = cyclic_table(n), 1 + n // 2
    table[1][1], table[1][b] = table[1][b], table[1][1]
    table[b][1], table[b][b] = table[b][b], table[b][1]
    return table


# -- dense references ---------------------------------------------------------

def tensor_index(indices, dim: int) -> int:
    """Row-major rank of a factor-index tuple in the lexicographic basis."""
    out = 0
    for i in indices:
        out = out * dim + i
    return out


def nullspace(m):
    """Basis of the right kernel, deterministic (free columns in order)."""
    if not m:
        return []
    cols = len(m[0])
    ech, pivots = ex.echelon(m)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = ex.norm(-ech[r][f])
        basis.append(v)
    return basis


def kron(a, b):
    """Kronecker product, row-major index convention."""
    if not a or not b:
        return []
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    out = ex.mat_zero(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            x = a[i][j]
            if x == 0:
                continue
            for k in range(rb):
                row = out[i * rb + k]
                for l in range(cb):
                    if b[k][l] != 0:
                        row[j * cb + l] = ex.norm(x * b[k][l])
    return out
