import random
import re

import pytest

from orbifrob import groups as g

from conftest import cyclic_table, is_transversal, swapped_cyclic_table


def P(text, n):
    return g.parse_cycles(text, n)


def _transpositions(n):
    return [g.Permutation.transposition(n, a, b) for a in range(n) for b in range(a + 1, n)]


def _inverse(p):
    inv = [0] * p.n
    for i, j in enumerate(p.images):
        inv[j] = i
    return g.Permutation(inv)


def _sign(p):
    return -1 if g.degree(p) % 2 else 1


def _cycle_type(p):
    """Cycle lengths, descending; conjugation invariant."""
    return tuple(sorted((len(b) for b in g.cycles(p).blocks), reverse=True))


def _conjugacy_classes(n):
    """Classes of S_n keyed by cycle type, ordered by cycle type."""
    by_type = {}
    for p in g.enumerate_sn(n):
        by_type.setdefault(_cycle_type(p), []).append(p)
    return [by_type[t] for t in sorted(by_type)]


def test_compose_applies_right_factor_first():
    assert g.compose(P("(1 2 3)", 3), P("(1 2)", 3)) == P("(1 3)", 3)
    sigma = P("(1 3 2)", 3)
    assert g.compose(g.Permutation.identity(3), sigma) == sigma
    assert g.compose(P("(1 2)", 3), P("(1 2)", 3)).is_identity()


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        g.compose(P("(1 2)", 2), P("(1 2)", 3))


def test_cycles():
    assert g.cycles(P("(1 2)", 3)).blocks == ((0, 1), (2,))
    assert g.cycles(g.Permutation.identity(4)).blocks == ((0,), (1,), (2,), (3,))
    assert g.cycles(P("(1 2 3)", 3)).blocks == ((0, 1, 2),)


def test_degree_is_word_length():
    assert g.degree(P("(1 2)", 3)) == 1
    assert g.degree(g.Permutation.identity(5)) == 0
    assert g.degree(P("(1 2 3)", 3)) == 2
    # brute-force word length oracle on S_4: breadth-first over transpositions
    import collections
    taus = _transpositions(4)
    dist = {g.Permutation.identity(4).images: 0}
    queue = collections.deque([g.Permutation.identity(4)])
    while queue:
        p = queue.popleft()
        for t in taus:
            q = g.compose(p, t)
            if q.images not in dist:
                dist[q.images] = dist[p.images] + 1
                queue.append(q)
    for p in g.enumerate_sn(4):
        assert g.degree(p) == dist[p.images]


def test_group_orbits():
    part = g.group_orbits([P("(1 2)", 3), P("(1 3)", 3)])
    assert part.blocks == ((0, 1, 2),)
    assert len(g.group_orbits([g.Permutation.identity(4)])) == 4
    assert g.group_orbits([P("(1 2)", 4), P("(3 4)", 4)]).blocks == ((0, 1), (2, 3))
    with pytest.raises(ValueError):
        g.group_orbits([])
    assert len(g.group_orbits([], n=3)) == 3


def test_single_generator_orbits_match_cycles():
    # the reference follows p's images from each unseen point until the cycle closes
    for n in range(1, 6):
        for p in g.enumerate_sn(n):
            seen, want = set(), []
            for start in range(n):
                if start not in seen:
                    cycle = [start]
                    while p.images[cycle[-1]] != start:
                        cycle.append(p.images[cycle[-1]])
                    seen.update(cycle)
                    want.append(tuple(sorted(cycle)))
            assert g.group_orbits([p]).blocks == g.cycles(p).blocks == tuple(want)


def test_transversal():
    assert is_transversal(P("(1 2)", 4), P("(3 4)", 4))
    assert not is_transversal(P("(1 2)", 4), P("(1 2)", 4))
    assert is_transversal(P("(1 2)", 3), P("(1 3)", 3))


def _conjugate(a, b):
    """a b a^-1; relabels b's cycles by a, preserving cycle type."""
    return g.compose(g.compose(a, b), _inverse(a))


def test_conjugate():
    assert _conjugate(P("(1 2)", 3), P("(1 3)", 3)) == P("(2 3)", 3)
    e = g.Permutation.identity(4)
    assert _conjugate(P("(1 2 3)", 4), e) == e
    rng = random.Random(5)
    perms = g.enumerate_sn(5)
    for _ in range(20):
        a, b = rng.choice(perms), rng.choice(perms)
        assert g.degree(_conjugate(a, b)) == g.degree(b)
        assert _cycle_type(_conjugate(a, b)) == _cycle_type(b)


def test_enumerate_classes_sign():
    assert len(g.enumerate_sn(3)) == 6
    sizes = sorted(len(c) for c in _conjugacy_classes(3))
    assert sizes == [1, 2, 3]
    assert _sign(P("(1 2 3)", 3)) == 1
    assert _sign(P("(1 2)", 2)) == -1
    assert len(_transpositions(4)) == 6
    with pytest.raises(ValueError):
        g.enumerate_sn(9)


def test_parity_lemma_exhaustive():
    # |s| + |s'| - |ss'| is a nonnegative even integer, n <= 5
    for n in range(2, 6):
        perms = g.enumerate_sn(n)
        degs = {p.images: g.degree(p) for p in perms}
        for p in perms:
            for q in perms:
                defect = degs[p.images] + degs[q.images] - degs[g.compose(p, q).images]
                assert defect >= 0 and defect % 2 == 0


def test_degree_symmetries():
    for p in g.enumerate_sn(4):
        assert g.degree(p) == g.degree(_inverse(p))


def test_sn_table_is_a_group():
    # constructor raises if the table fails any group law; exhaustive for n <= 4
    for n in (1, 2, 3, 4):
        G = g.symmetric_group(n)
        assert G.order == [1, 2, 6, 24][n - 1]
        e = G.identity
        assert all(G.mul(e, x) == x for x in G.elements())
    G = g.symmetric_group(3)
    i = G.index_of("(1 2 3)")
    j = G.index_of("(1 2)")
    assert G.labels[G.mul(i, j)] == "(1 3)"
    assert G.mul(i, G.inv(i)) == G.identity


def test_conjugacy_classes_of_table_group():
    G = g.symmetric_group(3)
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]
    t = G.index_of("(1 2)")
    assert len([h for h in G.elements() if G.mul(t, h) == G.mul(h, t)]) == 2


def test_cycle_notation_round_trip():
    for text, n in [("(1 2)(3 4)", 4), ("e", 3), ("()", 3), ("(1 2 3)", 5)]:
        p = g.parse_cycles(text, n)
        assert g.parse_cycles(g.cycle_notation(p), n) == p
    for p in g.enumerate_sn(4):
        assert g.parse_cycles(g.cycle_notation(p), 4) == p
    assert g.cycle_notation(g.Permutation.identity(3)) == "e"


def test_cycle_parser_errors():
    with pytest.raises(ValueError):
        g.parse_cycles("(1 5)", 3)
    with pytest.raises(ValueError):
        g.parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        g.parse_cycles("junk", 3)


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        g.FiniteGroup(["e", "a"], [[0, 1], [1, 1]])
    # Latin square but not associative: no identity row breaks earlier, so
    # build a 5-element quasigroup that has an identity but fails assoc
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    # (a a) b = b but a (a b) = a c = d
    with pytest.raises(ValueError, match=r"table is not associative at \(a, a, b\)"):
        g.FiniteGroup(list("eabcd"), table)
    # the same law at every order: Z/n with a swapped intercalate, small and
    # past the order of S_5
    for n in (10, 202):
        with pytest.raises(ValueError, match="table is not associative"):
            g.FiniteGroup([str(i) for i in range(n)], swapped_cyclic_table(n))
    # True == 1 passes the Latin check, so the type is checked first, at every order
    with pytest.raises(ValueError, match="entry True is not an integer"):
        g.FiniteGroup(list("eabcd"), [[True if x == 1 else x for x in row] for row in table])
    # labels name elements in documents and witnesses: a list of strings, none repeated
    for labels in (["e", "x", "x"], ["e", 1, "y"], ["e", None, "y"], "exy"):
        with pytest.raises(ValueError, match="are not a list of distinct strings"):
            g.FiniteGroup(labels, cyclic_table(3))


# -- table validation: Light's test against the cubic scan ------------------------

def _cubic_associative(table) -> bool:
    """Reference: (x a) y = x (a y) over all order^3 triples."""
    n = len(table)
    return all(table[table[x][a]][y] == table[x][table[a][y]]
               for x in range(n) for a in range(n) for y in range(n))


def _normalized_loops(n):
    """Every Latin square of order n whose row 0 and column 0 are 0..n-1, by backtracking."""
    table = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    missing = [set(range(n)) - {c} for c in range(n)]   # values column c still lacks
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(pos):
        if pos == len(cells):
            yield [row[:] for row in table]
            return
        r, c = cells[pos]
        row = table[r]
        for v in sorted(missing[c].difference(row[:c])):
            row[c] = v
            missing[c].remove(v)
            yield from fill(pos + 1)
            missing[c].add(v)
        row[c] = None

    yield from fill(0)


def test_light_test_accepts_exactly_the_associative_loops():
    counts, associative = [], []
    for n in range(1, 7):
        loops = list(_normalized_loops(n))
        counts.append(len(loops))
        accepted = 0
        for table in loops:
            try:
                g.FiniteGroup([str(i) for i in range(n)], table)
            except ValueError as exc:
                assert not _cubic_associative(table)
                # a loop whose left and right inverses differ fails before the law
                witness = re.fullmatch(r"table is not associative at \((\d+), (\d+), (\d+)\)",
                                       str(exc))
                if witness:
                    x, a, y = map(int, witness.groups())
                    assert table[table[x][a]][y] != table[x][table[a][y]]
                else:
                    assert re.fullmatch(r"element \d+ has no inverse", str(exc))
            else:
                assert _cubic_associative(table)
                accepted += 1
        associative.append(accepted)
    assert counts == [1, 1, 1, 4, 56, 9408]
    assert associative == [1, 1, 1, 4, 6, 80]


# -- symmetric-group tables ---------------------------------------------------------

def _closure(perms, n):
    """Images of the subgroup of S_n the permutations generate."""
    seen = {g.Permutation.identity(n).images}
    frontier = list(seen)
    for images in frontier:
        for q in perms:
            r = g.compose(g.Permutation(images), q).images
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def test_symmetric_group_tables_match_composition():
    for n in range(1, 6):   # n = 1 is the one-index getter
        G, perms = g.symmetric_group(n), g.enumerate_sn(n)
        index = {p.images: i for i, p in enumerate(perms)}
        assert G.table == [[index[g.compose(p, q).images] for q in perms] for p in perms]
        assert G.labels == [g.cycle_notation(p) for p in perms]
        assert G.perms == perms
    G, perms = g.symmetric_group(6), g.enumerate_sn(6)
    index = {p.images: i for i, p in enumerate(perms)}
    for i in random.Random(6).sample(range(720), 12) + [0, 719]:
        assert G.table[i] == [index[g.compose(perms[i], q).images] for q in perms]
    assert G.labels == [g.cycle_notation(p) for p in perms]


def test_greedy_generators_of_symmetric_groups():
    # each generator is the first element outside the subgroup the earlier
    # ones generate, so each at least doubles it and all together reach S_n
    for n in range(1, 7):
        G = g.symmetric_group(n)
        gens = G._generators()
        for k, a in enumerate(gens):
            below = _closure([G.perms[b] for b in gens[:k]], n)
            outside = [i for i, p in enumerate(G.perms) if p.images not in below]
            assert outside and a == outside[0]
        assert len(_closure([G.perms[a] for a in gens], n)) == G.order
        assert 2 ** len(gens) <= G.order
