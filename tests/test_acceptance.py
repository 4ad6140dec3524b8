"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is zero-tolerance; each test prints a single summary line on
success so a full run reads as a scoreboard.
"""

from __future__ import annotations

import random
from fractions import Fraction

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob import grading
from orbifrob import groups as g
from orbifrob import symprod as sp_mod
from orbifrob.groups import symmetric_group

from conftest import nullspace, sp_instance


def basis(dim, i):
    v = [0] * dim
    v[i] = 1
    return v


def _report(n, text):
    print(f"[criterion {n}] PASS - {text}")


# ---------------------------------------------------------------------------
# 1. group-ring degeneration


def test_criterion_1_group_ring_degeneration(ground):
    for n in (2, 3, 4, 5):
        sp = sp_instance(ground, n)
        ring = cocy.twisted_group_ring(symmetric_group(n))
        assert sp.realize().math_equal(ring), f"n={n}: tables differ from the group ring"
        report = gfrob.verify_axioms(sp.realize())
        assert report.passed, f"n={n}: {report.failures()[0].key}"
    _report(1, "one-dimensional base reproduces k[S_n] exactly, all axioms pass (n=2..5)")


# ---------------------------------------------------------------------------
# 2. full axiom suite for second quantizations


def test_criterion_2_axiom_suite(qx2, surface):
    cases = [(qx2, 2), (qx2, 3), (qx2, 4), (surface, 2), (surface, 3)]
    for base, n in cases:
        report = gfrob.verify_axioms(sp_instance(base, n).realize())
        assert report.passed, f"{base.name} n={n}: {report.failures()[0].key} fails"
        commuting = sum(
            1 for a in symmetric_group(n).elements() for b in symmetric_group(n).elements()
            if symmetric_group(n).mul(a, b) == symmetric_group(n).mul(b, a)
        )
        assert report["iv"].instances >= commuting
    _report(2, "all eight axioms pass for sym^n(Q[x]/(x^2)) n=2..4 and sym^n(surface4) n=2..3")


# ---------------------------------------------------------------------------
# 3. cross-oracle: the two product routes agree


def _direct_sweep(sp):
    for gi in range(sp.group.order):
        for hi in range(sp.group.order):
            for i in range(sp.dims[gi]):
                a = basis(sp.dims[gi], i)
                for j in range(sp.dims[hi]):
                    b = basis(sp.dims[hi], j)
                    push = sp.multiply_pushforward(gi, a, hi, b)
                    chain = sp.multiply_chain(gi, a, hi, b)
                    assert push == chain, (sp.n, sp.group.labels[gi], sp.group.labels[hi], i, j)


_RESTRICTED_TABLE_CACHE: dict = {}


def _restricted_chain_table(base, sigma, tau):
    """Chain-route product table of the restricted pair, {(i, j): {k: c}}
    with no zero entry (memoized)."""
    key = (base.name, sigma.images, tau.images)
    if key in _RESTRICTED_TABLE_CACHE:
        return _RESTRICTED_TABLE_CACHE[key]
    sp = sp_instance(base, sigma.n)
    gi, hi = sp.sector_of(sigma), sp.sector_of(tau)
    table = {}
    for i in range(sp.dims[gi]):
        a = basis(sp.dims[gi], i)
        for j in range(sp.dims[hi]):
            b = basis(sp.dims[hi], j)
            vec = {k: c for k, c in enumerate(sp.multiply_chain(gi, a, hi, b)) if c != 0}
            if vec:
                table[(i, j)] = vec
    _RESTRICTED_TABLE_CACHE[key] = table
    return table


def _restrict_perm(p, block):
    relabel = {point: spot for spot, point in enumerate(block)}
    images = [0] * len(block)
    for point in block:
        images[relabel[point]] = relabel[p(point)]
    return g.Permutation(images)


def _assembled_chain_table(sp, gi, hi):
    """Tensor-assemble the pair table {(i, j): {k: c}} from the restricted
    chain tables, one per joint orbit.

    The orbits own disjoint factor positions of g, h and gh, so each
    orbit's local index adds its digits at those positions, and the
    assembled entries are the products of the local ones, never zero.
    """
    D = sp.base.dim
    sigma, tau = sp.perms[gi], sp.perms[hi]
    sectors = (gi, hi, sp.group.mul(gi, hi))

    def placed(s, positions):
        """local index -> its digits at ``positions`` of sector s, as an index"""
        last = sp.factors[s] - 1
        return {packed: sum(x * D ** (last - p)
                            for x, p in zip(frob.tensor_tuple(packed, D, len(positions)), positions))
                for packed in range(D ** len(positions))}

    table = {(0, 0): {0: 1}}
    for block in g.group_orbits([sigma, tau]).blocks:
        at_g, at_h, at_gh = (placed(s, [i for i, blk in enumerate(sp.parts[s].blocks)
                                        if blk[0] in block]) for s in sectors)
        local = _restricted_chain_table(sp.base, _restrict_perm(sigma, block),
                                        _restrict_perm(tau, block))
        table = {(i + at_g[li], j + at_h[lj]): {o + at_gh[k]: c * v
                                                for o, c in vec.items() for k, v in lvec.items()}
                 for (i, j), vec in table.items() for (li, lj), lvec in local.items()}
    return table


def test_criterion_3_cross_oracle(ground, qx2, surface):
    # direct, exhaustive: every sector-basis pair at every size that fits
    direct_cases = [(ground, 2), (ground, 3), (ground, 4), (qx2, 2), (qx2, 3), (qx2, 4),
                    (surface, 2), (surface, 3)]
    for base, n in direct_cases:
        _direct_sweep(sp_instance(base, n))

    # n = 4 with the 4-dim base: transitive sector pairs directly ...
    sp44 = sp_instance(surface, 4)
    transitive = 0
    for gi in range(24):
        for hi in range(24):
            if len(g.group_orbits([sp44.perms[gi], sp44.perms[hi]])) != 1:
                continue
            transitive += 1
            for i in range(sp44.dims[gi]):
                a = basis(sp44.dims[gi], i)
                for j in range(sp44.dims[hi]):
                    b = basis(sp44.dims[hi], j)
                    assert sp44.multiply_pushforward(gi, a, hi, b) == \
                        sp44.multiply_chain(gi, a, hi, b)
    assert transitive == 426

    # ... and non-transitive pairs through the joint-orbit factorization:
    # the blockwise pushforward table must equal the table assembled from
    # chain products of the restricted (transitive, degree <= 3) instances,
    # which the direct sweeps above fully verified.
    rng = random.Random(20260808)
    spot_checks = 0
    for gi in range(24):
        for hi in range(24):
            if len(g.group_orbits([sp44.perms[gi], sp44.perms[hi]])) == 1:
                continue
            push_table = sp44.pair_table(gi, hi)
            chain_table = _assembled_chain_table(sp44, gi, hi)
            ghi = sp44.group.mul(gi, hi)
            pair = (sp44.group.labels[gi], sp44.group.labels[hi])
            assert chain_table.keys() == push_table.keys(), pair
            for key, entry in chain_table.items():
                assert entry == push_table[key], (pair, key)
            # stratified direct spot checks against both unfactored routes
            samples = {(0, 0)}
            for _ in range(3):
                samples.add((rng.randrange(sp44.dims[gi]), rng.randrange(sp44.dims[hi])))
            for i, j in samples:
                a, b = basis(sp44.dims[gi], i), basis(sp44.dims[hi], j)
                entry = chain_table.get((i, j), {})
                dense = [entry.get(k, 0) for k in range(sp44.dims[ghi])]
                assert sp44.multiply_pushforward(gi, a, hi, b) == dense
                assert sp44.multiply_chain(gi, a, hi, b) == dense
                spot_checks += 1
    assert spot_checks >= 500

    # word independence: >= 2 minimal words per non-transposition word in S_4
    sp42 = sp_instance(qx2, 4)
    exercised = 0
    for hi in range(24):
        tau = sp42.perms[hi]
        if g.degree(tau) < 2:
            continue
        words = sp_mod.all_minimal_words(tau, limit=2)
        assert len(words) >= 2
        exercised += 1
        for gi in range(24):
            for i in range(sp42.dims[gi]):
                a = basis(sp42.dims[gi], i)
                for j in range(sp42.dims[hi]):
                    b = basis(sp42.dims[hi], j)
                    first = sp42.multiply_chain(gi, a, hi, b, words[0])
                    second = sp42.multiply_chain(gi, a, hi, b, words[1])
                    assert first == second
    assert exercised == 17  # 8 three-cycles + 6 four-cycles + 3 double transpositions
    _report(3, "pushforward and chain products agree on every basis pair "
               "(n<=4, base dims 1/2/4), independent of the word chosen")


# ---------------------------------------------------------------------------
# 4. Hilbert twist identities


def test_criterion_4_hilbert_twist(qx2):
    for n in (2, 3, 4):
        sp = sp_instance(qx2, n)
        plain = sp.realize()
        twisted = gfrob.twist(plain, cocy.normalized_sn_cocycle(n, -1))
        G = sp.group
        degs = [g.degree(p) for p in sp.perms]
        for a in G.elements():
            for b in G.elements():
                sign = (-1) ** ((degs[a] + degs[b] - degs[G.mul(a, b)]) // 2)
                T_plain = plain.product[(a, b)]
                T_tw = twisted.product[(a, b)]
                assert set(T_plain) == set(T_tw)
                for key, vec in T_plain.items():
                    assert T_tw[key] == {k: sign * v for k, v in vec.items()}
        assert twisted.action == plain.action          # eps identically 1
        assert twisted.character == plain.character
        for a in G.elements():
            sign = (-1) ** degs[a]
            assert twisted.metric[a] == {i: {j: sign * v for j, v in row.items()}
                                         for i, row in plain.metric[a].items()}
        eps = cocy.epsilon(cocy.normalized_sn_cocycle(n, -1))
        assert all(eps[a][b] == 1 for a in G.elements() for b in G.elements())
        report = gfrob.verify_axioms(twisted)
        assert report.passed, f"n={n}: twisted algebra fails {report.failures()[0].key}"
    _report(4, "sign twist scales products by (-1)^((|s|+|s'|-|ss'|)/2), metric by "
               "(-1)^|s|, fixes the action and character, and stays a valid algebra (n=2..4)")


# ---------------------------------------------------------------------------
# 5. the normalized cocycle family


def test_criterion_5_cocycle_family(qx2):
    lambdas = (-1, 2, Fraction(1, 3))
    for n in range(2, 6):
        for lam in lambdas:
            alpha = cocy.normalized_sn_cocycle(n, lam)
            report = cocy.validate(alpha)
            assert report.passed, f"n={n} lambda={lam}: {report.failures()[0].key}"
    # exponent integrality for all pairs, n <= 5
    for n in range(2, 6):
        G = symmetric_group(n)
        degs = [g.degree(p) for p in G.perms]
        for a in G.elements():
            for b in G.elements():
                defect = degs[a] + degs[b] - degs[G.mul(a, b)]
                assert defect >= 0 and defect % 2 == 0
    # multiplicativity in lambda, pointwise
    for n in range(2, 6):
        prod = cocy.normalized_sn_cocycle(n, 2) * cocy.normalized_sn_cocycle(n, Fraction(1, 3))
        assert prod.values == cocy.normalized_sn_cocycle(n, Fraction(2, 3)).values
    # the lambda-twisted product: metric on the transposition sector scales by lambda
    sp = sp_instance(qx2, 2)
    plain = sp.realize()
    tau = sp.group.index_of("(1 2)")
    for lam in lambdas:
        twisted = gfrob.twist(plain, cocy.normalized_sn_cocycle(2, lam))
        assert twisted.metric[tau] == {i: {j: ex.norm(lam * v) for j, v in row.items()}
                                       for i, row in plain.metric[tau].items()}
        T_plain = plain.product[(tau, tau)]
        T_tw = twisted.product[(tau, tau)]
        for key, vec in T_plain.items():
            assert T_tw[key] == {k: ex.norm(lam * v) for k, v in vec.items()}
    _report(5, "normalized cocycles pass the law exhaustively (n<=5, lambda in {-1,2,1/3}), "
               "exponents are integers, the family is multiplicative, and lambda scales eta_tau")


# ---------------------------------------------------------------------------
# 6. compatibility-pair check


def test_criterion_6_compatible_pairs(qx2):
    sp = sp_instance(qx2, 3)
    G = sp.group
    e_part = g.group_orbits([], n=3)
    degs = [g.degree(p) for p in sp.perms]
    gammas = {(a, b): sp.gamma_cocycle(a, b) for a in G.elements() for b in G.elements()}
    galg = sp.realize()

    def reduces_to_zero(target, vec):
        return all(x == 0 for x in sp.restrict_between(e_part, sp.parts[target], vec))

    for p in (0, 1):
        for a in G.elements():
            for b in G.elements():
                phi_coeff = (-1) ** (p * degs[a] * degs[b])
                koszul = (-1) ** (p * degs[a] * degs[b])   # generator parities are p|s|
                assert phi_coeff * koszul == 1
                ab = G.mul(a, b)
                diff = [x - y for x, y in zip(gammas[(G.conj(a, b), a)], gammas[(a, b)])]
                assert reduces_to_zero(ab, diff), (p, G.labels[a], G.labels[b])
    # the automorphism equation, modulo the product-sector kernel
    for p in (0, 1):
        for k in G.elements():
            for a in G.elements():
                for b in G.elements():
                    # scalar parts agree because |k|(|a|+|b|-|ab|) is even
                    assert (degs[k] * (degs[a] + degs[b] - degs[G.mul(a, b)])) % 2 == 0
                    ka, kb = G.conj(k, a), G.conj(k, b)
                    moved = galg.act(k, G.identity, gammas[(a, b)])
                    diff = [x - y for x, y in zip(gammas[(ka, kb)], moved)]
                    assert reduces_to_zero(G.conj(k, G.mul(a, b)), diff)
    # only the two sign patterns exist: (-1)^(p|s||s'|) depends on p mod 2 alone
    for a in G.elements():
        for b in G.elements():
            assert (-1) ** (2 * degs[a] * degs[b]) == 1
    # the p = 1 pattern is realized by the sign super-twist and stays consistent
    sup = gfrob.twist(galg, None, cocy.sign_supertwist(3))
    assert gfrob.verify_axioms(sup).passed
    _report(6, "the normalized sector cocycle is compatible with both sign patterns "
               "(-1)^(p|s||s'|), p in {0,1}, and with the automorphism equation mod kernels")


# ---------------------------------------------------------------------------
# 7. intersection lemmas


def _restriction_matrix(sp, fine, coarse) -> list:
    """restrict_between(fine, coarse, .) as a dense matrix, column by column."""
    size = sp.base.dim ** len(fine)
    unit_vectors = ([int(i == j) for i in range(size)] for j in range(size))
    return [list(row) for row in zip(*(sp.restrict_between(fine, coarse, e) for e in unit_vectors))]


def test_criterion_7_intersection_lemmas(qx2, surface):
    # metric compatibility gamma(s, s^-1) = dual unit, n <= 4
    for base, n_max in ((qx2, 4), (surface, 3)):
        for n in range(2, n_max + 1):
            sp = sp_instance(base, n)
            e_part = g.group_orbits([], n=n)
            for gi in range(sp.group.order):
                ginv = sp.group.inv(gi)
                lhs = sp.gamma_cocycle(gi, ginv)
                rhs = sp.push_between(e_part, sp.parts[gi], sp.generator(gi))
                assert lhs == rhs, (base.name, n, sp.group.labels[gi])

    # kernel lemma: (I_s + I_s') gamma-perp inside I_ss', n <= 3
    for base in (qx2, surface):
        for n in (2, 3):
            sp = sp_instance(base, n)
            e_part = g.group_orbits([], n=n)
            kernels = {}
            for gi in range(sp.group.order):
                mat = _restriction_matrix(sp, e_part, sp.parts[gi])
                kernels[gi] = nullspace(mat)
            for gi in range(sp.group.order):
                for hi in range(sp.group.order):
                    data = sp.gamma_data(gi, hi)
                    ghi = sp.group.mul(gi, hi)
                    m = sp.factors[ghi]
                    for x in kernels[gi] + kernels[hi]:
                        rx = sp.restrict_between(e_part, sp.parts[ghi], x)
                        prod = frob.factorwise_multiply(base, m, rx, data.perp)
                        assert all(v == 0 for v in prod), (base.name, n, gi, hi)

    # degree of the obstruction class, n <= 3
    for base in (qx2, surface):
        d = base.top_degree
        for n in (2, 3):
            sp = sp_instance(base, n)
            for gi in range(sp.group.order):
                for hi in range(sp.group.order):
                    sigma, tau = sp.perms[gi], sp.perms[hi]
                    joint = g.group_orbits([sigma, tau])
                    tilde = sp.gamma_tilde(gi, hi, joint)
                    degrees = set()
                    for idx, c in enumerate(tilde):
                        if c != 0:
                            t = frob.tensor_tuple(idx, base.dim, len(joint))
                            degrees.add(sum(base.degrees[i] for i in t))
                    assert len(degrees) == 1
                    ghi = sp.group.mul(gi, hi)
                    expected = (Fraction(d * n) - Fraction(d * sp.factors[gi])
                                - Fraction(d * sp.factors[hi]) - Fraction(d * sp.factors[ghi])) / 2 \
                        + d * len(joint)
                    assert degrees.pop() == expected
    _report(7, "metric compatibility (n<=4), the kernel lemma (n<=3) and the obstruction "
               "degree identity (n<=3) hold for both base algebras")


# ---------------------------------------------------------------------------
# 8. Euler classes


def test_criterion_8_euler_classes(ground, qx2, surface):
    assert ground.euler_class() == [1]
    assert qx2.euler_class() == [0, 2]
    assert surface.euler_class() == [0, 0, 0, 4]
    sp = sp_instance(qx2, 3)
    c123 = sp.group.index_of("(1 2 3)")
    c132 = sp.group.index_of("(1 3 2)")
    assert sp.group.mul(c123, c123) == c132
    one = sp.generator(c123)
    assert sp.realize().multiply(c123, c123, one, one) == qx2.euler_class()
    twisted = gfrob.twist(sp.realize(), cocy.normalized_sn_cocycle(3, -1))
    assert twisted.multiply(c123, c123, one, one) == [-x for x in qx2.euler_class()]
    _report(8, "Euler classes are 1, 2x, 4t; a 3-cycle squared give the Euler class, "
               "and its negative after the sign twist")


# ---------------------------------------------------------------------------
# 9. shifts and invariant dimensions


def _fixed_space_count(X):
    per_class = {}
    for cls in X.group.conjugacy_classes():
        rep = cls[0]
        Z = [z for z in X.group.elements() if X.group.mul(rep, z) == X.group.mul(z, rep)]
        d = X.sector_dims[rep]
        P = ex.mat_zero(d, d)
        for z in Z:
            for j, col in X.action[(z, rep)].items():
                for i, v in col.items():
                    P[i][j] += Fraction(v, len(Z))
        per_class[X.group.labels[rep]] = ex.rank([[ex.norm(v) for v in row] for row in P])
    return per_class


def test_criterion_9_shifts_and_invariants(ground, qx2, surface):
    # negative shift part vanishes for all permutation sectors, n <= 5
    for n in range(2, 6):
        for p in g.enumerate_sn(n):
            angles = grading.permutation_eigenangles(p)
            assert sum(2 * t - 1 for t in angles if t != 0) == 0
    # the 4-dimensional base at n = 2 shifts its transposition sector by 2
    sp = sp_instance(surface, 2)
    shifts = grading.standard_shifts(sp.realize())
    assert shifts.s[sp.group.index_of("(1 2)")] == 2

    suite = [sp_instance(qx2, n).realize() for n in (2, 3, 4)]
    suite += [sp_instance(surface, n).realize() for n in (2, 3)]
    suite += [cocy.twisted_group_ring(symmetric_group(n)) for n in (2, 3, 4, 5)]
    for X in suite:
        inv = gfrob.invariants(X)
        independent = _fixed_space_count(X)
        assert inv.dims_by_class() == independent, X.name
        assert inv.dim == sum(independent.values())
        assert inv.commutative
    _report(9, "permutation shifts have no negative part (n<=5), the 4-dim base gives "
               "s_tau = 2, and invariant dimensions match the direct fixed-space count")


# ---------------------------------------------------------------------------
# 10. the twist group action


def test_criterion_10_twist_group_action(qx2):
    targets = [sp_instance(qx2, 2).realize(), sp_instance(qx2, 3).realize(),
               cocy.twisted_group_ring(symmetric_group(4))]
    for X in targets:
        n = X.group.perms[0].n
        sigma = cocy.sign_supertwist(n)
        rng = random.Random(77 + n)
        scale = [Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])) for _ in X.group.elements()]
        scale[X.group.identity] = 1
        for alpha in (cocy.normalized_sn_cocycle(n, 2), cocy.coboundary(X.group, scale)):
            assert gfrob.twist(gfrob.twist(X, alpha), alpha.inverse()).math_equal(X)
            assert gfrob.twist(gfrob.twist(X, alpha, sigma), alpha.inverse(), sigma).math_equal(X)
        assert gfrob.twist(gfrob.twist(X, None, sigma), None, sigma).math_equal(X)
    for n in (2, 3, 4):
        G = symmetric_group(n)
        alpha = cocy.normalized_sn_cocycle(n, -1)
        sigma = cocy.sign_supertwist(n)
        combined = cocy.twisted_group_ring(G, alpha, sigma)
        split = gfrob.tensor_hat(cocy.twisted_group_ring(G, alpha),
                                 cocy.twisted_group_ring(G, None, sigma))
        assert combined.math_equal(split)
    _report(10, "alpha then alpha-inverse (and the sign twist twice) restore all tables; "
                "the combined twisted ring splits as the tensor product of its factors")
