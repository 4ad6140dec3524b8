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

Over a base whose Euler class has positive degree the same constants check
every other base through its degree-0 quotient: modulo the span I of the
sector basis vectors with a tensor factor of positive degree, u_g u_h is
u_{gh} when deg g + deg h = deg gh (deg = n minus the number of cycles) and
0 otherwise, since each Euler-class insertion has positive degree.  So the
class sums of unit tensors multiply by the graded constants, those with
deg nu = deg lambda + deg mu.
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


def _graded_constants(n: int) -> dict:
    """The class constants of S_n with deg nu = deg lambda + deg mu, deg = n - parts."""
    return {(a, b, c): value for (a, b, c), value in _class_constants(n).items()
            if n - len(c) == (n - len(a)) + (n - len(b))}


@pytest.mark.parametrize("base_name, n", [("qx2", 1), ("qx2", 2), ("qx2", 3), ("qx2", 4),
                                          ("surface", 1), ("surface", 2), ("surface", 3)])
def test_degree_zero_quotient_is_the_graded_class_algebra(request, base_name, n):
    # the dual numbers and surface4: every basis vector but the unit has positive
    # degree, so I holds every sector basis vector but the unit tensor; read
    # through invariants (the realized tables) and through both product routes
    base = request.getfixturevalue(base_name)
    assert base.unit == [1] + [0] * (base.dim - 1) and base.degrees[0] == 0 < min(base.degrees[1:])
    sp = SymmetricProductAlgebra(base, n)
    X = sp.realize()
    G = X.group
    unit = {g: [1] + [0] * (X.sector_dims[g] - 1) for g in G.elements()}
    kind = {g: _cycle_type(G.perms[g].images) for g in G.elements()}
    inv = invariants(X)
    kept = {}   # basis index -> cycle type, for the class sums of unit tensors
    for r, vector in enumerate(inv.basis):
        cls = inv.classes[inv.class_of[r]]
        if vector == {g: unit[g] for g in cls}:
            kept[r] = kind[cls[0]]
    assert sorted(kept.values()) == sorted(_partitions(n))
    got = {(kept[i], kept[j], kept[k]): value for (i, j), row in inv.product.items()
           if i in kept and j in kept for k, value in row.items() if k in kept}
    want = _graded_constants(n)
    assert got == want
    # the same constants from the routes' unit-tensor coefficients, pair by pair:
    # the class sum of lambda times that of mu has, at each u_z, the count of
    # pairs (g, h) in lambda x mu with gh = z and no Euler class between them
    for route in (sp.multiply_chain, sp.multiply_pushforward):
        at: dict = {}
        for g in G.elements():
            for h in G.elements():
                z = G.mul(g, h)
                key = (kind[g], kind[h], z)
                at[key] = at.get(key, 0) + route(g, unit[g], h, unit[h])[0]
        seen = {(a, b, kind[z]): value for (a, b, z), value in at.items() if value}
        assert seen == want
        assert all(value == want.get((a, b, kind[z]), 0) for (a, b, z), value in at.items())
