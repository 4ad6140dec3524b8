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
    """The base algebra of ``fixtures/<name>.json``."""
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


@pytest.fixture(scope="session")
def rescaled():
    """surface4 on the basis f0 = 2, f1 = 3a, f2 = 5b, f3 = 3t: the same
    algebra, with unit f0 / 2, f0 f_i = 2 f_i, f1 f2 = 5 f3, eta(f0, f3) = 6
    and eta(f1, f2) = 15.  Its structure and pairing constants are not 1, so
    the pair rows of its tensor powers and the push plans' rows carry
    numerators other than 1 in both halves of the product kernels."""
    return frob.from_json_dict({
        "name": "surface4-rescaled", "dim": 4,
        "basis": [{"label": "f0", "degree": 0, "parity": 0}, {"label": "f1", "degree": 2, "parity": 0},
                  {"label": "f2", "degree": 2, "parity": 0}, {"label": "f3", "degree": 4, "parity": 0}],
        "unit": ["1/2", "0", "0", "0"],
        "metric": [[0, 3, "6"], [1, 2, "15"], [2, 1, "15"], [3, 0, "6"]],
        "structure": [[0, 0, 0, "2"], [0, 1, 1, "2"], [0, 2, 2, "2"], [0, 3, 3, "2"], [1, 0, 1, "2"],
                      [1, 2, 3, "5"], [2, 0, 2, "2"], [2, 1, 3, "5"], [3, 0, 3, "2"]],
    })


# a 0-dimensional base: every tensor power of positive degree is empty
ZERO_BASE = {"name": "zero", "dim": 0, "basis": [], "unit": [], "metric": [], "structure": []}


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


# -- product kernel references -------------------------------------------------

def reference_low(rows, left, right, size):
    """A low table applied term by term: output k gets left[x] * right[y] * c
    for each (y, [(k, c)]) in row x."""
    out = [0] * size
    for x, pairs in enumerate(rows):
        for y, row in pairs:
            for k, c in row:
                out[k] += left[x] * right[y] * c
    return out


def check_kernel(rng, rows, right, size, kernel=None):
    """``frobenius._kernel`` of ``rows`` (or the given compiled ``kernel``)
    against ``reference_low`` on random integer chunks, zeros and large
    entries among them, and on all-zero chunks."""
    kernel = kernel or frob._kernel(rows, right, size)
    chunks = [([rng.randint(-9, 9) for _ in range(len(rows))], [rng.randint(-9, 9) for _ in range(right)])
              for _ in range(4)]
    chunks += [([rng.choice((0, 0, 3, -10 ** 30)) for _ in range(len(rows))],
                [rng.choice((0, 7, 10 ** 25)) for _ in range(right)]),
               ([0] * len(rows), [rng.randint(1, 9) for _ in range(right)])]
    for left, right_chunk in chunks:
        got = kernel(left, right_chunk)
        assert got == reference_low(rows, left, right_chunk, size)
        assert len(got) == size and all(type(w) is int for w in got)


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


def tensor_tuple(index: int, dim: int, m: int) -> tuple[int, ...]:
    """The factor-index tuple of flat ``index`` in A^(x)m, the inverse of ``tensor_index``."""
    out = []
    for _ in range(m):
        out.append(index % dim)
        index //= dim
    return tuple(reversed(out))


def mat_zero(rows: int, cols: int) -> list:
    """A rows x cols dense matrix of zeros; the dense kit below is the
    reference the sparse ``ex.echelon``, ``ex.rank`` and ``ex.mat_mul`` are
    checked against."""
    return [[0] * cols for _ in range(rows)]


def dense_mat_mul(a, b) -> list:
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
                    oi[j] = ex.norm(oi[j] + c * bk[j])
    return out


def dense_echelon(m) -> tuple[list, list[int]]:
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
    return [[ex.norm(x) for x in row] for row in a], pivots


def dense_rank(m) -> int:
    if not m or not m[0]:
        return 0
    _, pivots = dense_echelon(m)
    return len(pivots)


def nullspace(m):
    """Basis of the right kernel, deterministic (free columns in order)."""
    if not m:
        return []
    cols = len(m[0])
    ech, pivots = dense_echelon(m)
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
                        row[j * cb + l] = ex.norm(x * b[k][l])
    return out
