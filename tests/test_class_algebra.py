"""The class algebra of S_n as an oracle for the invariant ring of Sym^n(k).

Over the one-dimensional base k every sector is one-dimensional, the
Euler-class insertions are 1 and the product is that of the group ring, so
the invariant basis vector of a conjugacy class is its class sum and the
invariant product holds the class-sum structure constants.  These come from
the characters alone, by Frobenius' formula

    c_{lambda mu}^nu = |C_lambda| |C_mu| / n! * sum_chi chi(lambda) chi(mu) chi(nu) / chi(1),

with the characters from the Murnaghan-Nakayama rule (Lehn-Sorger 2001 read
the graded form of this algebra as the cohomology of Hilb^n(C^2)).  Nothing
here is computed by the package: it only supplies the algebra read.
"""

import math
from fractions import Fraction

import pytest

from orbifrob.gfrob import invariants
from orbifrob.symprod import SymmetricProductAlgebra


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n into parts of at most ``largest``, parts descending."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


def _character(beta: frozenset, rho: tuple[int, ...]) -> int:
    """chi^lambda at cycle type ``rho`` by Murnaghan-Nakayama on lambda's beta
    set: removing a rim hook of length r moves one bead b to the free place
    b - r, with sign (-1)^(beads strictly between)."""
    if not rho:
        return 1
    r, total = rho[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            height = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** height * _character(beta - {b} | {b - r}, rho[1:])
    return total


def _class_size(n: int, rho: tuple[int, ...]) -> int:
    """n! / z_rho, z_rho = prod_i i^(m_i) m_i!."""
    z = 1
    for i in set(rho):
        m = rho.count(i)
        z *= i ** m * math.factorial(m)
    return math.factorial(n) // z


def _cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation in one-line notation, descending."""
    seen, lengths = set(), []
    for start in range(len(images)):
        length, p = 0, start
        while p not in seen:
            seen.add(p)
            p, length = images[p], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _class_constants(n: int) -> dict:
    """(lambda, mu, nu) -> c_{lambda mu}^nu for the cycle types of S_n, zeros left out."""
    types = _partitions(n)
    chars = {lam: {rho: _character(frozenset(p + len(lam) - 1 - i for i, p in enumerate(lam)), rho)
                   for rho in types} for lam in types}
    out = {}
    for a in types:
        for b in types:
            for c in types:
                total = sum(Fraction(chi[a] * chi[b] * chi[c], chi[(1,) * n]) for chi in chars.values())
                value = total * _class_size(n, a) * _class_size(n, b) / math.factorial(n)
                if value:
                    out[a, b, c] = value
    return out


def test_characters_satisfy_the_orthogonality_relations():
    # the oracle's own check: rows of the S_4 and S_5 character tables are orthonormal
    for n in (4, 5):
        types = _partitions(n)
        table = [[_character(frozenset(p + len(lam) - 1 - i for i, p in enumerate(lam)), rho)
                  for rho in types] for lam in types]
        for x in table:
            for y in table:
                inner = sum(Fraction(_class_size(n, rho) * u * v, math.factorial(n))
                            for rho, u, v in zip(types, x, y))
                assert inner == (x is y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_invariants_of_sym_n_of_k_are_the_class_algebra(ground, n):
    X = SymmetricProductAlgebra(ground, n).realize()
    inv = invariants(X)
    types = [_cycle_type(X.group.perms[cls[0]].images) for cls in inv.classes]
    assert sorted(types) == sorted(_partitions(n))
    kind = [types[c] for c in inv.class_of]
    for vector, c in zip(inv.basis, inv.class_of):   # each basis vector is its class sum
        assert vector == {g: [1] for g in inv.classes[c]}
    got = {(kind[i], kind[j], kind[k]): value
           for (i, j), row in inv.product.items() for k, value in row.items()}
    assert got == _class_constants(n)
