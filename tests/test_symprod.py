import copy
import functools
import hashlib
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob import groups as g
from orbifrob import symprod as sp_mod

from conftest import (ZERO_BASE, check_kernel, dense_echelon, dense_mat_mul, kron, load_base,
                      tensor_index, tensor_tuple)


def basis(dim, i):
    v = [0] * dim
    v[i] = 1
    return v


def basis_product(base, indices) -> dict:
    """Reference: the sparse product of a list of base basis elements, left to right."""
    terms = {indices[0]: 1}
    for idx in indices[1:]:
        new: dict = {}
        for i, c in terms.items():
            for k, v in base.rows.get((i, idx), {}).items():
                new[k] = new.get(k, 0) + c * v
        terms = {k: ex.norm(v) for k, v in new.items() if v != 0}
        if not terms:
            break
    return terms


def all_basis_pairs_agree(sp, gi, hi):
    for i in range(sp.dims[gi]):
        a = basis(sp.dims[gi], i)
        for j in range(sp.dims[hi]):
            b = basis(sp.dims[hi], j)
            if sp.multiply_pushforward(gi, a, hi, b) != sp.multiply_chain(gi, a, hi, b):
                return False
    return True


# -- restriction / pushforward -------------------------------------------------

def test_restriction_contracts_by_multiplication(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    e_part, tau_part = g.group_orbits([], n=2), g.group_orbits([g.parse_cycles("(1 2)", 2)])
    # from the identity sector (two factors) to the transposition sector
    assert sp.restrict_between(e_part, tau_part, [0, 1, 0, 0]) == [0, 1]   # 1(x)x -> x
    assert sp.restrict_between(e_part, tau_part, [1, 0, 0, 0]) == [1, 0]   # unit -> unit
    sp3 = sp_factory(qx2, 3)
    t12, t13 = g.parse_cycles("(1 2)", 3), g.parse_cycles("(1 3)", 3)
    fine, coarse = g.group_orbits([t12]), g.group_orbits([t12, t13])
    # factors of (1 2): orbits {0,1} and {2}; target has one orbit: u(x)w -> uw
    x_tensor_x = [0] * 4
    x_tensor_x[tensor_index((1, 1), 2)] = 1
    assert sp3.restrict_between(fine, coarse, x_tensor_x) == [0, 0]
    one_tensor_x = [0] * 4
    one_tensor_x[tensor_index((0, 1), 2)] = 1
    assert sp3.restrict_between(fine, coarse, one_tensor_x) == [0, 1]


def test_restriction_requires_nesting(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    t12, t13 = g.parse_cycles("(1 2)", 3), g.parse_cycles("(1 3)", 3)
    with pytest.raises(ValueError):
        sp.restrict_between(g.group_orbits([t12]), g.group_orbits([t13]), [0, 1, 0, 0])


def test_pushforward_of_unit_is_copairing(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    e_part, tau_part = g.group_orbits([], n=2), g.group_orbits([g.parse_cycles("(1 2)", 2)])
    assert sp.push_between(e_part, tau_part, [1, 0]) == [0, 1, 1, 0]


def test_pushforward_trivial_base(sp_factory, ground):
    sp = sp_factory(ground, 2)
    e_part, tau_part = g.group_orbits([], n=2), g.group_orbits([g.parse_cycles("(1 2)", 2)])
    r_then_push = sp.push_between(e_part, tau_part, sp.restrict_between(e_part, tau_part, [1]))
    assert r_then_push == [1]


@pytest.mark.parametrize("n", [2, 3])
def test_pushforward_is_metric_adjoint(sp_factory, qx2, n):
    sp = sp_factory(qx2, n)
    e_part = g.group_orbits([], n=n)
    for hi in range(sp.group.order):
        coarse = sp.parts[hi]
        fine_dim = qx2.dim ** n
        coarse_dim = sp.dims[hi]
        eta_fine = frob.tensor_metric(qx2, n)
        eta_coarse = frob.tensor_metric(qx2, len(coarse))
        for j in range(coarse_dim):
            y = basis(coarse_dim, j)
            py = sp.push_between(e_part, coarse, y)
            for i in range(fine_dim):
                x = basis(fine_dim, i)
                rx = sp.restrict_between(e_part, coarse, x)
                lhs = sum(v * py[a] * x[b] for a, row in eta_fine.items() for b, v in row.items())
                rhs = sum(v * y[a] * rx[b] for a, row in eta_coarse.items() for b, v in row.items())
                assert ex.norm(lhs) == ex.norm(rhs)


# -- the metric adjoint of the m-fold product --------------------------------------

def _dense(rows, dim):
    return [[rows.get(i, {}).get(j, 0) for j in range(dim)] for i in range(dim)]


@functools.lru_cache(maxsize=None)
def _adjoint_matrix(sp, m):
    """Reference: the dense metric adjoint eta^(-1)(x)m mu^T eta of the m-fold
    product, with the inverse pairing read off the dense echelon of [eta | I]."""
    D = sp.base.dim
    eta = _dense(sp.base.metric, D)
    ech, pivots = dense_echelon([row + [int(i == j) for j in range(D)]
                                 for i, row in enumerate(eta)])
    assert pivots[:D] == list(range(D))
    eta_inv_power = [[1]]
    for _ in range(m):
        eta_inv_power = kron(eta_inv_power, [row[D:] for row in ech])
    mu_t = [[basis_product(sp.base, list(t)).get(k, 0) for k in range(D)] for t in sp._tuples(m)]
    return dense_mat_mul(eta_inv_power, dense_mat_mul(mu_t, eta))


def _adjoint_values(sp, m):
    """``_adjoint_columns(m)`` as exact values: k -> {factor tuple: value}."""
    cols, den = sp._adjoint_columns(m)
    return {k: {t: ex.norm(Fraction(w, den)) for t, w in col} for k, col in cols.items()}


def test_adjoint_of_one_fold_product_is_identity(sp_factory, qx2, surface, half):
    for base in (qx2, surface, half):
        assert sp_factory(base, 2)._adjoint_columns(1) == (
            {k: [((k,), 1)] for k in range(base.dim)}, 1)


def test_adjoint_of_multiplication_map(sp_factory, qx2):
    # for Q[x]/(x^2): the dual of multiplication sends 1 to 1(x)x + x(x)1
    cols, den = sp_factory(qx2, 2)._adjoint_columns(2)
    assert (cols[0], den) == ([((0, 1), 1), ((1, 0), 1)], 1)


def test_adjoint_defining_identity(sp_factory, surface, half):
    # eta_m(mu* e_y, e_x) = eta(e_y, mu e_x) for every basis pair
    for base in (surface, half):
        sp = sp_factory(base, 2)
        for m in (2, 3):
            adj, eta_m = _adjoint_values(sp, m), frob.tensor_metric(base, m)
            for y in range(base.dim):
                for x, t in enumerate(sp._tuples(m)):
                    lhs = sum(c * eta_m.get(tensor_index(r, base.dim), {}).get(x, 0)
                              for r, c in adj.get(y, {}).items())
                    rhs = sum(base.metric.get(y, {}).get(k, 0) * c
                              for k, c in basis_product(sp.base, list(t)).items())
                    assert lhs == rhs


def test_adjoint_is_contravariant(sp_factory, surface, half):
    # mu_3 = mu (mu (x) id) dualizes to mu_3* = (mu* (x) id) mu*
    for base in (surface, half):
        sp = sp_factory(base, 2)
        adj2, adj3 = _adjoint_values(sp, 2), _adjoint_values(sp, 3)
        for k in range(base.dim):
            lifted: dict = {}
            for (i, j), c in adj2.get(k, {}).items():
                for u, w in adj2.get(i, {}).items():
                    lifted[u + (j,)] = lifted.get(u + (j,), 0) + c * w
            assert {t: c for t, c in lifted.items() if c} == adj3.get(k, {})


def test_adjoint_columns_match_the_dense_reference(sp_factory, qx2, surface, half):
    # k x k with eta = diag(1, 2/3): the inverse pairing is not integral
    kk = frob.from_json_dict({
        "name": "kk", "dim": 2, "basis": [{"label": "e"}, {"label": "f"}], "unit": ["1", "1"],
        "metric": [[0, 0, "1"], [1, 1, "2/3"]], "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]]})
    for base in (qx2, surface, half, kk):
        sp = sp_factory(base, 2)
        for m in range(1, 5):
            adj = _adjoint_matrix(sp, m)
            want = {k: {t: row[k] for t, row in zip(sp._tuples(m), adj) if row[k]}
                    for k in range(base.dim)}
            assert _adjoint_values(sp, m) == {k: col for k, col in want.items() if col}
            den = math.lcm(*(v.denominator for col in want.values() for v in col.values()))
            assert sp._adjoint_columns(m)[1] == den
    # mu* f = eta(f, f) eta^(-1)(f, f)^2 f(x)f = 3/2 f(x)f
    assert _adjoint_values(sp_factory(kk, 2), 2) == {0: {(0, 0): 1}, 1: {(1, 1): Fraction(3, 2)}}


def test_mu_columns_match_the_product_of_every_tuple(qx2, surface, half):
    # the columns grow from the (m-1)-fold ones through nonzero products only,
    # starting from the empty product, the unit; the reference multiplies
    # every one of the D^m factor tuples
    kk = frob.from_json_dict({
        "name": "kk", "dim": 2, "basis": [{"label": "e"}, {"label": "f"}], "unit": ["1", "1"],
        "metric": [[0, 0, "1"], [1, 1, "2/3"]], "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]]})
    for base in (qx2, surface, half, kk):
        sp = sp_mod.SymmetricProductAlgebra(base, 2)
        unit = [(k, Fraction(u)) for k, u in enumerate(base.unit) if u]
        for m in range(7):
            cols = {t: list(basis_product(base, list(t)).items()) if t else unit
                    for t in itertools.product(range(base.dim), repeat=m)}
            den = math.lcm(*(w.denominator for col in cols.values() for _, w in col))
            want = {key: [(k, w.numerator * (den // w.denominator)) for k, w in col]
                    for key, col in cols.items() if col}
            assert repr(sp._mu_columns(m)) == repr((want, den))


# -- obstruction exponents -------------------------------------------------------

def test_obstruction_exponent_examples():
    tau2 = g.parse_cycles("(1 2)", 2)
    assert sp_mod.obstruction_exponent(tau2, tau2, (0, 1)) == 0
    c123 = g.parse_cycles("(1 2 3)", 3)
    assert sp_mod.obstruction_exponent(c123, c123, (0, 1, 2)) == 1
    t12, t13 = g.parse_cycles("(1 2)", 3), g.parse_cycles("(1 3)", 3)
    assert sp_mod.obstruction_exponent(t12, t13, (0, 1, 2)) == 0
    with pytest.raises(ValueError):
        sp_mod.obstruction_exponent(t12, t13, (0, 1))
    # refusals: mixed degree, an empty block, a point out of range, two joint orbits
    t12_4, t34 = g.parse_cycles("(1 2)", 4), g.parse_cycles("(3 4)", 4)
    for sigma, sigma2, block, message in [
            (tau2, c123, (0, 1), "generators of mixed degree: [2, 3]"),
            (t12, t13, (), "[] is not an orbit of the pair"),
            (t12, t13, (0, 1, 2, 3), "[0, 1, 2, 3] is not an orbit of the pair"),
            (t12_4, t34, (0, 1, 2, 3), "[0, 1, 2, 3] is not an orbit of the pair")]:
        with pytest.raises(ValueError) as refused:
            sp_mod.obstruction_exponent(sigma, sigma2, block)
        assert str(refused.value) == message


# -- minimal words ----------------------------------------------------------------

def test_minimal_word_is_deterministic_and_minimal():
    c123 = g.parse_cycles("(1 2 3)", 3)
    word = sp_mod.minimal_word(c123)
    assert [g.cycle_notation(t) for t in word] == ["(1 3)", "(1 2)"]
    for p in g.enumerate_sn(4):
        word = sp_mod.minimal_word(p)
        assert len(word) == g.degree(p)
        built = g.Permutation.identity(4)
        for t in word:
            built = g.compose(built, t)
        assert built == p


def test_all_minimal_words():
    c123 = g.parse_cycles("(1 2 3)", 3)
    words = sp_mod.all_minimal_words(c123)
    assert len(words) == 3
    assert all(len(w) == 2 for w in words)
    for p in g.enumerate_sn(4):
        if g.degree(p) >= 2:
            assert len(sp_mod.all_minimal_words(p, limit=2)) >= 2


# -- products ----------------------------------------------------------------------

def test_product_examples_two_routes(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    tau = sp.group.index_of("(1 2)")
    one_tau = sp.generator(tau)
    expected = [0, 1, 1, 0]  # 1(x)x + x(x)1
    assert sp.multiply_pushforward(tau, one_tau, tau, one_tau) == expected
    assert sp.multiply_chain(tau, one_tau, tau, one_tau) == expected

    sp3 = sp_factory(qx2, 3)
    c123 = sp3.group.index_of("(1 2 3)")
    one = sp3.generator(c123)
    assert sp3.multiply_pushforward(c123, one, c123, one) == [0, 2]
    assert sp3.multiply_chain(c123, one, c123, one) == [0, 2]
    t12, t13 = sp3.group.index_of("(1 2)"), sp3.group.index_of("(1 3)")
    t132 = sp3.group.index_of("(1 3 2)")
    assert sp3.group.mul(t12, t13) == t132
    assert sp3.multiply_pushforward(t12, sp3.generator(t12), t13, sp3.generator(t13)) == [1, 0]
    assert sp3.multiply_chain(t12, sp3.generator(t12), t13, sp3.generator(t13)) == [1, 0]


def test_right_identity_factor_is_module_action(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    e = sp.group.identity
    tau = sp.group.index_of("(1 2)")
    word, insertions = sp.contraction_steps(tau, e)
    assert word == [] and insertions == []
    v = [1, 2, 0, 0]
    assert sp.multiply_chain(tau, [1, 1], e, v) == sp.multiply_pushforward(tau, [1, 1], e, v)


@pytest.mark.parametrize("n,base_name", [(2, "ground"), (2, "qx2"), (3, "qx2"), (2, "surface"),
                                         (3, "half")])
def test_cross_oracle_small(sp_factory, ground, qx2, surface, half, n, base_name):
    base = {"ground": ground, "qx2": qx2, "surface": surface, "half": half}[base_name]
    sp = sp_factory(base, n)
    for gi in range(sp.group.order):
        for hi in range(sp.group.order):
            assert all_basis_pairs_agree(sp, gi, hi)


def test_chain_word_independence_s3(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    for hi in range(sp.group.order):
        words = sp_mod.all_minimal_words(sp.perms[hi])
        for gi in range(sp.group.order):
            for i in range(sp.dims[gi]):
                a = basis(sp.dims[gi], i)
                for j in range(sp.dims[hi]):
                    b = basis(sp.dims[hi], j)
                    results = {tuple(ex.fmt_rat(x) for x in sp.multiply_chain(gi, a, hi, b, w))
                               for w in words}
                    assert len(results) == 1


def test_chain_rejects_non_minimal_word(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    tau_perm = g.parse_cycles("(1 2)", 2)
    e = sp.group.identity
    with pytest.raises(ValueError):
        sp.multiply_chain(e, [1, 0, 0, 0], e, [1, 0, 0, 0], [tau_perm, tau_perm])


def test_wrong_length_operands_raise(sp_factory, qx2):
    # a short operand must not be truncated, nor a long one's tail dropped
    sp = sp_factory(qx2, 3)
    gi = sp.group.index_of("(1 2)")
    a, b = [1, 1, 1, 1], [Fraction(1, 2), 2, 0, 3]
    fine, coarse = sp.parts[sp.group.identity], sp.parts[gi]
    assert sp.dims[gi] == 4 and len(fine) == 3
    for bad in (a[:3], a + [1]):
        calls = [lambda: sp.multiply_chain(gi, bad, gi, b),
                 lambda: sp.multiply_chain(gi, b, gi, bad),
                 lambda: sp.multiply_pushforward(gi, bad, gi, b),
                 lambda: sp.multiply_pushforward(gi, b, gi, bad),
                 lambda: sp._joint_section(fine, coarse, bad),
                 lambda: sp.restrict_between(fine, coarse, bad + [0] * 4)]
        for call in calls:
            with pytest.raises(ValueError, match="operand must have length"):
                call()


def _reference_elem_product(sp, s1, s2):
    """The pairwise loop the factor walk replaced: every pair of terms."""
    rows = sp.base.rows
    out = {}
    for t1, c1 in s1.items():
        for t2, c2 in s2.items():
            terms = [(tuple(), c1 * c2)]
            dead = False
            for x, y in zip(t1, t2):
                row = rows.get((x, y))
                if not row:
                    dead = True
                    break
                terms = [(tup + (k,), c * v) for tup, c in terms for k, v in row.items()]
            if dead:
                continue
            for tup, c in terms:
                out[tup] = out.get(tup, 0) + c
    return {k: ex.norm(v) for k, v in out.items() if v != 0}


def _numerators(sp, elem):
    """A tuple-keyed element on A^(x)n as the kernel's (split integer
    numerators, denominator): dense low chunks by high index."""
    den = math.lcm(*(c.denominator for c in elem.values()))
    acc = [0] * sp.base.dim ** sp.n
    for t, c in elem.items():
        acc[tensor_index(t, sp.base.dim)] = c.numerator * (den // c.denominator)
    return frob._split(acc, sp.base.dim ** (sp.n - sp.n // 2)), den


def _divide(sp, elem):
    """(flat integer numerators, denominator) as exact nonzero scalars."""
    acc, den = elem
    return {tensor_tuple(i, sp.base.dim, sp.n): ex.norm(Fraction(w, den))
            for i, w in enumerate(acc) if w}


def _random_element(rng, dim, n, terms):
    keys = rng.sample(list(itertools.product(range(dim), repeat=n)), min(terms, dim ** n))
    return {t: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for t in keys}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elem_product_matches_pairwise_reference(sp_factory, qx2, surface, half, n):
    rng = random.Random(104729 + n)
    for base in (qx2, surface, half):
        sp = sp_factory(base, n)
        operands = [(_random_element(rng, base.dim, n, terms), _random_element(rng, base.dim, n, 40))
                    for terms in (1, 5, 40)]
        some = operands[-1][0]
        operands += [({}, some), (some, {}), ({}, {}),
                     ({t: 0 for t in some}, some), ({t: Fraction(2, 1) for t in some}, some)]
        for s1, s2 in operands:
            product = frob.factorwise_product(base, n, _numerators(sp, s1), _numerators(sp, s2))
            got = {k: (type(v), v) for k, v in _divide(sp, product).items()}
            want = {k: (type(v), v) for k, v in _reference_elem_product(sp, s1, s2).items()}
            assert got == want


@pytest.mark.parametrize("shape", ["e*e", "e*t"])
def test_dense_identity_sector_products_sym5_surface(sp_factory, surface, shape):
    # Sym^5(surface4) is past BUILD_BUDGET; a dense identity-sector operand has 1024 terms
    sp = sp_factory(surface, 5)
    rng = random.Random(5 if shape == "e*e" else 6)
    e = sp.group.identity
    h = e if shape == "e*e" else sp.group.index_of("(2 4)")
    a = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(sp.dims[e])]
    b = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(sp.dims[h])]
    chain = sp.multiply_chain(e, a, h, b)
    assert len(chain) == sp.dims[h] == (1024 if shape == "e*e" else 256)
    assert chain == sp.multiply_pushforward(e, a, h, b)
    assert any(chain)


# -- build ---------------------------------------------------------------------------

def test_build_ground_field_gives_group_ring(sp_factory, ground):
    for n in (2, 3):
        sp = sp_factory(ground, n)
        ring = cocy.twisted_group_ring(sp.group)
        assert sp.realize().math_equal(ring)


def test_build_sector_dims(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    assert sorted(sp.dims) == [2, 4]
    galg = sp.realize()
    assert gfrob.verify_axioms(galg).passed


def test_build_tables_match_both_direct_routes(sp_factory, qx2, surface):
    # the blockwise table assembly equals the unfactored routes entrywise
    for base, n in ((qx2, 2), (qx2, 3), (surface, 2)):
        sp = sp_factory(base, n)
        galg = sp.realize()
        for gi in range(sp.group.order):
            for hi in range(sp.group.order):
                table = galg.product[(gi, hi)]
                for i in range(sp.dims[gi]):
                    a = basis(sp.dims[gi], i)
                    for j in range(sp.dims[hi]):
                        b = basis(sp.dims[hi], j)
                        entry = table.get((i, j), {})
                        dense = [entry.get(k, 0) for k in range(sp.dims[sp.group.mul(gi, hi)])]
                        assert dense == sp.multiply_pushforward(gi, a, hi, b)
                        assert dense == sp.multiply_chain(gi, a, hi, b)


def test_action_on_generators_permutes_sectors(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    galg = sp.realize()
    t12, t13, t23 = (sp.group.index_of(s) for s in ("(1 2)", "(1 3)", "(2 3)"))
    assert sp.group.conj(t12, t13) == t23
    moved = galg.act(t12, t13, sp.generator(t13))
    assert moved == sp.generator(t23)


@pytest.mark.parametrize("base_name", ["ground", "qx2", "surface", "half"])
def test_action_and_metric_blocks_are_sparse_maps(sp_factory, ground, qx2, surface, half,
                                                  base_name):
    # phi_g permutes tensor factors: one entry +-1 per column, on distinct rows;
    # no block stores a zero, so == on the algebra compares canonical forms
    base = {"ground": ground, "qx2": qx2, "surface": surface, "half": half}[base_name]
    for n in (1, 2, 3):
        sp = sp_factory(base, n)
        for X in (sp.realize(), gfrob.twist(sp.realize(), cocy.normalized_sn_cocycle(n, -1))):
            for (gi, hi), block in X.action.items():
                assert sorted(block) == list(range(X.sector_dims[hi]))
                assert all(len(col) == 1 and abs(v) == 1 for col in block.values()
                           for v in col.values())
                assert len({i for col in block.values() for i in col}) == len(block)
            for block in [*X.action.values(), *X.metric]:
                assert all(vec and 0 not in vec.values() for vec in block.values())


def test_budget_guard(sp_factory, qx2, surface):
    sp = sp_mod.SymmetricProductAlgebra(surface, 4)
    with pytest.raises(gfrob.BudgetExceededError) as exc:
        sp.realize()
    assert exc.value.estimate == sum(sp.dims) ** 2 == 840 ** 2
    # the rising factorial D(D+1)...(D+n-1) that prices a build before S_n exists is sum(dims)
    for base in (qx2, surface):
        for n in (1, 2, 3):
            cost = sum(sp_factory(base, n).dims) ** 2
            sp_mod.refuse_build(base.dim, n, cost)
            with pytest.raises(gfrob.BudgetExceededError) as exc:
                sp_mod.refuse_build(base.dim, n, cost - 1)
            assert exc.value.estimate == cost
    # a budget equal to the cost of Sym^3 fits n = 3
    with pytest.raises(gfrob.BudgetExceededError, match=r"costs 705600 entries .*; n <= 3 fits$"):
        sp_mod.refuse_build(surface.dim, 4, sum(sp_factory(surface, 3).dims) ** 2)


def test_chain_builds_its_rows_once_per_sector_pair(monkeypatch, surface):
    # the lift and insertion rows are cached per nesting, the plan per (g, h);
    # a map's layers are built only when an operand runs through them, and no
    # operand of these products is denser than its map's threshold
    sp = sp_mod.SymmetricProductAlgebra(surface, 3)
    built, transposed = [], []
    linear_map, layers = sp_mod.SymmetricProductAlgebra._linear_map, sp_mod._layers

    def counted(self, *args):
        out = linear_map(self, *args)
        built.append(len(out[0]))
        return out

    def counted_layers(rows, size):
        transposed.append(len(rows))
        return layers(rows, size)

    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "_linear_map", counted)
    monkeypatch.setattr(sp_mod, "_layers", counted_layers)
    gi = sp.group.index_of("(1 2 3)")
    hi = sp.group.inverse[gi]
    rng = random.Random(31)
    operands = [(_random_vector(rng, sp.dims[gi]), _random_vector(rng, sp.dims[hi])) for _ in range(2)]
    first = sp.multiply_chain(gi, operands[0][0], hi, operands[0][1])
    # the word of the inverse 3-cycle inserts two copairings, each a map on the
    # three factors of the identity sector (4^3 rows), then both one-factor
    # operands (4 rows) are lifted to the identity sector with one nesting:
    # each one's factor lands on point 1
    assert built == [64, 64, 4] and transposed == []
    second = sp.multiply_chain(gi, operands[1][0], hi, operands[1][1])
    assert built == [64, 64, 4] and transposed == []
    for (a, b), product in zip(operands, (first, second)):
        assert _typed(product) == _typed(sp.multiply_pushforward(gi, a, hi, b))


def test_odd_base_rejected():
    odd = frob.FrobeniusAlgebra(
        name="exterior",
        labels=["1", "t"],
        degrees=[0, 1],
        parities=[0, 1],
        unit=[1, 0],
        rows={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        metric={0: {1: 1}, 1: {0: 1}},
    )
    assert odd.verify().passed
    with pytest.raises(ValueError):
        sp_mod.SymmetricProductAlgebra(odd, 2)


def test_noncommutative_base_rejected():
    nc = frob.FrobeniusAlgebra(
        name="noncomm",
        labels=["1", "u"],
        degrees=[0, 0],
        parities=[0, 0],
        unit=[1, 0],
        rows={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: -1}, (1, 1): {0: 1}},
        metric={0: {0: 1}, 1: {1: 1}},
    )
    with pytest.raises(ValueError):
        sp_mod.SymmetricProductAlgebra(nc, 2)


def test_n1_echoes_base(sp_factory, qx2):
    sp = sp_factory(qx2, 1)
    galg = sp.realize()
    assert galg.sector_dims == [2]
    table = galg.product[(0, 0)]
    for (i, j), vec in table.items():
        expected = dict(qx2.rows.get((i, j), {}))
        assert vec == expected


# -- twists ------------------------------------------------------------------------

def test_hilbert_twist_examples(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    twisted = gfrob.twist(sp.realize(), cocy.normalized_sn_cocycle(3, -1))
    c123 = sp.group.index_of("(1 2 3)")
    one = sp.generator(c123)
    assert twisted.multiply(c123, c123, one, one) == [0, -2]
    tau = sp.group.index_of("(1 2)")
    untwisted = sp.realize()
    assert twisted.metric[tau] == {i: {j: -v for j, v in row.items()}
                                   for i, row in untwisted.metric[tau].items()}
    # transversal products unchanged
    t12, t13 = sp.group.index_of("(1 2)"), sp.group.index_of("(1 3)")
    assert twisted.multiply(t12, t13, sp.generator(t12), sp.generator(t13)) == \
        untwisted.multiply(t12, t13, sp.generator(t12), sp.generator(t13))


def test_qw_family(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    def qw_twist(lam):
        return gfrob.twist(sp.realize(), cocy.normalized_sn_cocycle(2, lam))

    assert qw_twist(1).math_equal(sp.realize())
    assert qw_twist("-1").math_equal(qw_twist(-1))
    lam2 = qw_twist(2)
    tau = sp.group.index_of("(1 2)")
    one_tau = sp.generator(tau)
    assert lam2.multiply(tau, tau, one_tau, one_tau) == [0, 2, 2, 0]
    assert lam2.metric[tau] == {i: {j: 2 * v for j, v in row.items()}
                                for i, row in sp.realize().metric[tau].items()}
    with pytest.raises(ValueError):
        qw_twist(0)


def test_hilbert_twist_flips_invariant_pairing_on_twisted_class(sp_factory, surface):
    # the action is untouched, so invariants match; the pairing changes sign
    # exactly on the transposition class
    sp = sp_factory(surface, 2)
    plain = gfrob.invariants(sp.realize())
    twisted = gfrob.invariants(gfrob.twist(sp.realize(), cocy.normalized_sn_cocycle(2, -1)))
    assert plain.dims_by_class() == twisted.dims_by_class()
    assert plain.class_of == twisted.class_of
    tau_class = plain.classes.index([sp.group.index_of("(1 2)")])
    for i in range(plain.dim):
        for j in range(plain.dim):
            eta = plain.pairing.get(i, {}).get(j, 0)
            expected = -eta if plain.class_of[i] == tau_class else eta
            assert twisted.pairing.get(i, {}).get(j, 0) == expected


# -- cocycle data -------------------------------------------------------------------

def test_gamma_data_n2(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    tau = sp.group.index_of("(1 2)")
    data = sp.gamma_data(tau, tau)
    assert data.tilde == [1, 0]
    assert data.perp == [0, 1, 1, 0]
    assert data.restricted == [0, 1, 1, 0]
    assert data.cocycle == [0, 1, 1, 0]


def test_gamma_data_n3_euler_obstruction(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    c123 = sp.group.index_of("(1 2 3)")
    data = sp.gamma_data(c123, c123)
    assert data.tilde == [0, 2]   # the Euler class 2x in the joint sector


def test_gamma_data_transversal_is_unit(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    t12, t13 = sp.group.index_of("(1 2)"), sp.group.index_of("(1 3)")
    data = sp.gamma_data(t12, t13)
    gh = sp.group.mul(t12, t13)
    assert data.restricted == sp.generator(gh)
    assert data.cocycle == frob.tensor_unit(qx2, 3)


def test_gamma_decomposition_matches_restriction(sp_factory, qx2, surface):
    # r_{ss'}(gamma) = section(tilde) * perp, for every sector pair
    for base, n in ((qx2, 3), (surface, 2)):
        sp = sp_factory(base, n)
        e_part = g.group_orbits([], n=n)
        for gi in range(sp.group.order):
            for hi in range(sp.group.order):
                data = sp.gamma_data(gi, hi)
                lhs = sp.restrict_between(e_part, sp.parts[sp.group.mul(gi, hi)], data.cocycle)
                assert lhs == data.restricted


def test_metric_compatibility(sp_factory, qx2):
    # gamma(s, s^-1) equals the pushforward of the sector unit, in the identity sector
    for n in (2, 3):
        sp = sp_factory(qx2, n)
        e_part = g.group_orbits([], n=n)
        for gi in range(sp.group.order):
            ginv = sp.group.inv(gi)
            data_vec = sp.gamma_cocycle(gi, ginv)
            dual_unit = sp.push_between(e_part, sp.parts[gi], sp.generator(gi))
            assert data_vec == dual_unit


# -- per-sector-pair plans against the per-entry loops they replaced ---------------

def _reference_restrict_between(sp, fine, coarse, v):
    nest = sp._nesting(fine, coarse)
    D = sp.base.dim
    out = [0] * D ** len(coarse)
    for idx, x in enumerate(v):
        if x == 0:
            continue
        t = tensor_tuple(idx, D, len(fine))
        terms = {(): x}
        for fps in nest:
            block_val = basis_product(sp.base, [t[f] for f in fps])
            if not block_val:
                terms = {}
                break
            new = {}
            for prefix, c in terms.items():
                for k, w in block_val.items():
                    new[prefix + (k,)] = ex.norm(c * w)
            terms = new
        for tup, c in terms.items():
            out[tensor_index(tup, D)] += c
    return [ex.norm(x) for x in out]


def _reference_push_between(sp, fine, coarse, w):
    nest = sp._nesting(fine, coarse)
    D = sp.base.dim
    adjoints = [_adjoint_matrix(sp, len(fps)) for fps in nest]
    concat = [f for fps in nest for f in fps]
    out = [0] * D ** len(fine)
    for idx, x in enumerate(w):
        if x == 0:
            continue
        tc = tensor_tuple(idx, D, len(coarse))
        terms = {(): x}
        for cpos, fps in enumerate(nest):
            adj = adjoints[cpos]
            col = tc[cpos]
            new = {}
            for prefix, c in terms.items():
                for row in range(len(adj)):
                    v = adj[row][col]
                    if v != 0:
                        new[prefix + tensor_tuple(row, D, len(fps))] = ex.norm(c * v)
            terms = new
            if not terms:
                break
        for tup, c in terms.items():
            canonical = [0] * len(fine)
            for spot, fpos in enumerate(concat):
                canonical[fpos] = tup[spot]
            out[tensor_index(canonical, D)] += c
    return [ex.norm(x) for x in out]


def _reference_joint_section(sp, fine, coarse, v):
    nest = sp._nesting(fine, coarse)
    D = sp.base.dim
    unit_support = [(k, c) for k, c in enumerate(sp.base.unit) if c != 0]
    out = [0] * D ** len(fine)
    for idx, x in enumerate(v):
        if x == 0:
            continue
        tc = tensor_tuple(idx, D, len(coarse))
        terms = [([0] * len(fine), x)]
        for cpos, fps in enumerate(nest):
            new = []
            for tup, c in terms:
                tup = list(tup)
                tup[fps[0]] = tc[cpos]
                exp = [(tup, c)]
                for f in fps[1:]:
                    exp = [(t[:f] + [k] + t[f + 1:], ex.norm(cc * u))
                           for t, cc in exp for k, u in unit_support]
                new.extend(exp)
            terms = new
        for tup, c in terms:
            out[tensor_index(tup, D)] += c
    return [ex.norm(x) for x in out]


def _reference_section_lift(sp, g, a):
    D = sp.base.dim
    part = sp.parts[g]
    mins = [blk[0] for blk in part.blocks]
    unit_support = [(k, v) for k, v in enumerate(sp.base.unit) if v != 0]
    fillers = [p for p in range(sp.n) if p not in mins]
    terms = {}
    for idx, x in enumerate(a):
        if x == 0:
            continue
        t = tensor_tuple(idx, D, len(part))
        partial = [(tuple(), x)]
        for _ in fillers:
            partial = [(tup + (k,), ex.norm(c * v)) for tup, c in partial for k, v in unit_support]
        for tail, c in partial:
            full = [0] * sp.n
            for fpos, m0 in enumerate(mins):
                full[m0] = t[fpos]
            for spot, p in enumerate(fillers):
                full[p] = tail[spot]
            key = tuple(full)
            terms[key] = ex.norm(terms.get(key, 0) + c)
    return {k: v for k, v in terms.items() if v != 0}


def _reference_contract_sparse(sp, elem, coarse):
    D = sp.base.dim
    out = [0] * D ** len(coarse)
    for t, x in elem.items():
        terms = {(): x}
        for block in coarse.blocks:
            block_val = basis_product(sp.base, [t[p] for p in block])
            if not block_val:
                terms = {}
                break
            terms = {prefix + (k,): ex.norm(c * v)
                     for prefix, c in terms.items() for k, v in block_val.items()}
        for tup, c in terms.items():
            out[tensor_index(tup, D)] += c
    return [ex.norm(x) for x in out]


def _typed(v):
    if isinstance(v, dict):
        return {k: (type(x), x) for k, x in v.items()}
    return [(type(x), x) for x in v]


def _random_vector(rng, size):
    # zeros, integers, integral Fractions and proper Fractions
    return [rng.choice((0, rng.randint(-5, 5), Fraction(rng.randint(-6, 6), 1),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 6)))) for _ in range(size)]


def _pairs_to_check(sp, n, rng):
    pairs = [(gi, hi) for gi in range(sp.group.order) for hi in range(sp.group.order)]
    return pairs if n <= 3 else rng.sample(pairs, 40)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_maps_match_per_entry_reference(sp_factory, qx2, surface, half, n):
    rng = random.Random(7919 + n)
    for base in (qx2, surface, half):
        sp = sp_factory(base, n)
        D = base.dim
        for gi, hi in _pairs_to_check(sp, n, rng):
            joint = g.group_orbits([sp.perms[gi], sp.perms[hi]])
            gh = sp.group.mul(gi, hi)
            part_e, part_g, part_gh = sp.parts[sp.group.identity], sp.parts[gi], sp.parts[gh]
            for v in (_random_vector(rng, sp.dims[gi]), [0] * sp.dims[gi], [Fraction(0)] * sp.dims[gi]):
                assert _typed(sp.restrict_between(part_g, joint, v)) == \
                    _typed(_reference_restrict_between(sp, part_g, joint, v))
                lifted = _reference_section_lift(sp, gi, v)
                assert _typed(sp._joint_section(part_e, part_g, v)) == \
                    _typed([lifted.get(t, 0) for t in itertools.product(range(D), repeat=n)])
            for w in (_random_vector(rng, D ** len(joint)), [0] * D ** len(joint)):
                assert _typed(sp.push_between(part_gh, joint, w)) == \
                    _typed(_reference_push_between(sp, part_gh, joint, w))
                assert _typed(sp._joint_section(part_gh, joint, w)) == \
                    _typed(_reference_joint_section(sp, part_gh, joint, w))
            for v in (_random_vector(rng, sp.dims[gi]), [Fraction(0)] * sp.dims[gi]):
                lift = sp._lift_map(gi, gh, tuple(range(len(part_gh))))
                assert _typed(ex.divided(*sp._mapped(v, lift))) == \
                    _typed(_reference_contract_sparse(sp, _reference_section_lift(sp, gi, v), part_gh))


def _staged_pushforward(sp, gi, a, hi, b):
    """The pushforward as separate stages: restrict both operands to the joint
    orbits, multiply them factorwise, multiply by the obstruction class, push
    forward to the product sector."""
    joint = g.group_orbits([sp.perms[gi], sp.perms[hi]])
    gh = sp.group.mul(gi, hi)
    ra = sp.restrict_between(sp.parts[gi], joint, a)
    rb = sp.restrict_between(sp.parts[hi], joint, b)
    u = frob.factorwise_multiply(sp.base, len(joint), ra, rb)
    u = frob.factorwise_multiply(sp.base, len(joint), u, sp.gamma_tilde(gi, hi, joint))
    return sp.push_between(sp.parts[gh], joint, u)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pushforward_matches_staged_reference(sp_factory, qx2, surface, half, n):
    rng = random.Random(4241 + n)
    for base in (qx2, surface, half):
        sp = sp_factory(base, n)
        for gi, hi in _pairs_to_check(sp, n, rng):
            dg, dh = sp.dims[gi], sp.dims[hi]
            for a, b in ((_random_vector(rng, dg), _random_vector(rng, dh)),
                         ([0] * dg, _random_vector(rng, dh)),
                         (_random_vector(rng, dg), [Fraction(0)] * dh)):
                assert _typed(sp.multiply_pushforward(gi, a, hi, b)) == \
                    _typed(_staged_pushforward(sp, gi, a, hi, b))


def _dense_fractions(rng, size):
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
            for _ in range(size)]


@pytest.mark.parametrize("n, left, right, edge", [
    (4, "(1 2 3 4)", "(1 3)", "one orbit"),     # g an n-cycle: the high half is empty
    (4, "e", "e", "singletons"),                  # every joint orbit is one point
    (1, "e", "e", "one orbit"),                   # Sym^1
    (5, "(2 4)", "(2 4)", None),                  # the products workload's t*t, t*u and t|u
    (5, "(1 5)", "(3 5)", None),
    (5, "(3 4)", "(1 5)", None),
    (5, "(4 5)", "(4 5)", "last points"),         # the chain moves gh's last point high
    (4, "(3 4)", "(3 4)", "last points"),
    (4, "(1 2 3 4)", "(1 4 3 2)", "last points"), # three unit points, two in the chain's high half
    (3, "(2 3)", "(2 3)", "length 0"),            # a 0-dimensional base: empty operands
    (3, "(2 3)", "(2 3)", "length 1"),            # Sym^3(k): one-entry operands
])
def test_pushforward_matches_staged_reference_at_the_kernel_edges(sp_factory, surface, ground, n,
                                                                  left, right, edge):
    # the chain is checked beside the pushforward: at the last points its
    # kernel order differs from gh's basis order
    base = {"length 0": frob.from_json_dict(ZERO_BASE), "length 1": ground}.get(edge, surface)
    sp = sp_factory(base, n)
    gi, hi = sp.group.index_of(left), sp.group.index_of(right)
    *_, sizes = sp._joint_orbits(gi, hi, sp.group.mul(gi, hi))
    high = sp._push_plan(gi, hi)[2]
    if edge == "one orbit":
        assert len(sizes) == 1 and high == [[(0, [(0, 1)])]]
    elif edge == "singletons":   # the leading n // 2 orbits form the high half
        assert sizes == (1,) * n and len(high) == surface.dim ** (n // 2)
    elif edge == "last points":
        order = sp._chain_plan(gi, hi, None)[0]
        assert order != tuple(range(len(order)))
    rng = random.Random(1789 + n)
    dg, dh = sp.dims[gi], sp.dims[hi]
    integral = [rng.randint(-9, 9) for _ in range(dh)]
    for a, b in ((_dense_fractions(rng, dg), _dense_fractions(rng, dh)),
                 ([0] * dg, _dense_fractions(rng, dh)),
                 (_dense_fractions(rng, dg), [Fraction(0)] * dh),
                 ([Fraction(rng.randint(-9, 9)) for _ in range(dg)], integral)):
        push = _typed(sp.multiply_pushforward(gi, a, hi, b))
        assert push == _typed(_staged_pushforward(sp, gi, a, hi, b))
        assert _typed(sp.multiply_chain(gi, a, hi, b)) == push == \
            _typed(_chain_in_identity_sector(sp, gi, a, hi, b))
        assert len(push) == sp.dims[sp.group.mul(gi, hi)]


def _reference_copairing(sp, tau):
    """gamma_{tau,tau} in A_e: the copairing across tau's moved points, the unit elsewhere."""
    a, b = tau.moved_points()
    fillers = [p for p in range(sp.n) if p not in (a, b)]
    unit_support = [(k, u) for k, u in enumerate(sp.base.unit) if u != 0]
    out: dict = {}
    for i, j, c in sp.base.copairing():
        for tail in itertools.product(unit_support, repeat=len(fillers)):
            full = [0] * sp.n
            full[a], full[b] = i, j
            w = c
            for p, (k, u) in zip(fillers, tail):
                full[p] = k
                w *= u
            out[tuple(full)] = out.get(tuple(full), 0) + w
    return {t: ex.norm(w) for t, w in out.items() if w}


def _chain_in_identity_sector(sp, gi, a, hi, b, word=None):
    """The chain as it ran in A_e = A^(x)n: both operands lifted, multiplied by
    factorwise_product on n factors, times each copairing insertion, and only
    then contracted to the cycles of gh."""
    _, insertions = sp.contraction_steps(gi, hi, word)
    elem = _reference_section_lift(sp, gi, a)
    for right in [_reference_section_lift(sp, hi, b)] + [_reference_copairing(sp, t) for t in insertions]:
        elem = _divide(sp, frob.factorwise_product(sp.base, sp.n, _numerators(sp, elem),
                                                   _numerators(sp, right)))
    return _reference_contract_sparse(sp, elem, sp.parts[sp.group.mul(gi, hi)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_matches_the_identity_sector_chain(sp_factory, qx2, surface, half, n):
    # contracting each factor to gh's cycles first is exact: r_gh is an algebra map
    rng = random.Random(6007 + n)
    for base in (qx2, surface, half):
        sp = sp_factory(base, n)
        for gi in range(sp.group.order):
            for hi in range(sp.group.order):
                dg, dh = sp.dims[gi], sp.dims[hi]
                words = sp_mod.all_minimal_words(sp.perms[hi]) if n == 3 else [None]
                for a, b in ((_random_vector(rng, dg), _random_vector(rng, dh)),
                             ([0] * dg, _random_vector(rng, dh)),
                             (_random_vector(rng, dg), [Fraction(0)] * dh)):
                    for word in words:
                        assert _typed(sp.multiply_chain(gi, a, hi, b, word)) == \
                            _typed(_chain_in_identity_sector(sp, gi, a, hi, b, word))


def test_chain_multiplies_on_the_cycles_of_the_product_sector(surface, monkeypatch):
    # the gain of contracting first: no kernel call runs on all n factors of A_e;
    # and the chain reads nothing of the pushforward's joint orbits, plans, maps
    # or operand halves.  Both routes run frobenius._walk, which applies the rows
    # it is given: the chain only inside factorwise_product, on the base's pair
    # rows, the pushforward directly on its plan's rows, never through
    # factorwise_product
    sizes, plans, walks, within = [], [], [], []
    factorwise_product, walk = frob.factorwise_product, frob._walk
    pushforward = ("_joint_orbits", "_plan", "_push_plan", "_orbit_map", "_halves",
                   "multiply_pushforward")

    def counted(algebra, m, left, right):
        sizes.append(m)
        within.append(m)
        try:
            return factorwise_product(algebra, m, left, right)
        finally:
            within.pop()

    def counted_walk(*args):
        walks.append(bool(within))
        return walk(*args)

    monkeypatch.setattr(frob, "factorwise_product", counted)
    monkeypatch.setattr(frob, "_walk", counted_walk)
    for name in pushforward:
        monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, name,
                            lambda self, *args, f=getattr(sp_mod.SymmetricProductAlgebra, name),
                            name=name: plans.append(name) or f(self, *args))
    sp = sp_mod.SymmetricProductAlgebra(surface, 5)
    gi, hi = sp.group.index_of("(1 2)"), sp.group.index_of("(3 4)")
    gh = sp.group.mul(gi, hi)
    rng = random.Random(5)
    a, b = _random_vector(rng, sp.dims[gi]), _random_vector(rng, sp.dims[hi])
    chain = sp.multiply_chain(gi, a, hi, b)
    assert sizes[0] == len(sp.parts[gh]) == 3 and set(sizes) == {3}
    assert plans == [] and walks == [True] * len(sizes)
    del sizes[:], walks[:]
    assert chain == sp.multiply_pushforward(gi, a, hi, b)
    assert set(plans) == set(pushforward)
    assert sizes == [] and walks == [False]


def _unit_cycles(sp, hi, gh, rng) -> set:
    """The cycles of gh where h's lift of a dense operand, contracted to gh in
    basis order, has only the unit's support."""
    m = len(sp.parts[gh])
    acc, _ = sp._mapped(_dense_fractions(rng, sp.dims[hi]), sp._lift_map(hi, gh, tuple(range(m))))
    unit = {k for k, u in enumerate(sp.base.unit) if u}
    support = [tensor_tuple(x, sp.base.dim, m) for x, w in enumerate(acc) if w]
    return {c for c in range(m) if all(t[c] in unit for t in support)}


@pytest.mark.parametrize("n", [4, 5])
def test_chain_kernel_holds_the_right_lifts_units_in_its_high_half(surface, n):
    # where the right operand is the unit, a low half would read mostly zeros;
    # in the high half (the kernel's m // 2 leading factors) those dead pairs
    # are skipped once per high pair.  Sym^4: every sector pair; Sym^5: t*t,
    # t*u and t|u on every choice of points.  When more cycles are unit than
    # the half holds (53 pairs of Sym^4, such as 2 of 3 cycles, or 3 of the 4
    # for a 4-cycle times its inverse), it holds unit cycles only
    sp = sp_mod.SymmetricProductAlgebra(surface, n)
    if n == 4:
        pairs = [(gi, hi) for gi in range(sp.group.order) for hi in range(sp.group.order)]
    else:
        t = [sp.group.index_of(f"({a} {b})") for a, b in itertools.combinations(range(1, 6), 2)]
        pairs = [(gi, hi) for gi in t for hi in t]   # t*t, t*u and t|u, each on all points
    rng = random.Random(8039 + n)
    moved = crowded = 0
    for gi, hi in pairs:
        gh = sp.group.mul(gi, hi)
        order = sp._chain_plan(gi, hi, None)[0]
        m, units = len(order), _unit_cycles(sp, hi, gh, rng)
        assert sorted(order) == list(range(m))
        assert len(units & set(order[:m // 2])) == min(len(units), m // 2)
        crowded += len(units) > m // 2
        moved += any(c >= m // 2 for c in units)   # low in basis order
        a, b = _dense_fractions(rng, sp.dims[gi]), _dense_fractions(rng, sp.dims[hi])
        assert sp.multiply_chain(gi, a, hi, b) == sp.multiply_pushforward(gi, a, hi, b)
    assert moved > 0 and crowded == (53 if n == 4 else 0)


def test_push_plan_kernels_match_the_row_loop(surface, monkeypatch):
    # the low half of every push-plan shape of Sym^4(surface4), compiled once
    # per distinct low half, fewer than the shapes: the chunks of g and h and
    # the output of gh differ in size, a pair of low indices has several
    # outputs, and numerators are not all 1
    compiled, kernel = [], frob._kernel

    def recorded(rows, right, size):
        compiled.append((rows, right, size, kernel(rows, right, size)))
        return compiled[-1][-1]

    monkeypatch.setattr(frob, "_kernel", recorded)
    sp = sp_mod.SymmetricProductAlgebra(surface, 4)
    pairs = [(gi, hi) for gi in range(sp.group.order) for hi in range(sp.group.order)]
    for gi, hi in pairs:
        sp._push_plan(gi, hi)
    shapes = {sp._joint_orbits(gi, hi, sp.group.mul(gi, hi)) for gi, hi in pairs}
    assert len(compiled) == len(sp._memo["_low_half"]) < len(shapes) == len(sp._memo["_plan"])
    assert [kept for kept, _ in sp._memo["_low_half"].values()] == [k for *_, k in compiled]
    rng = random.Random(4409)
    for rows, right, size, compiled_kernel in compiled:
        check_kernel(rng, rows, right, size, compiled_kernel)
    outputs = [row for rows, *_ in compiled for pairs in rows for _, row in pairs]
    assert any(len({len(rows), right, size}) > 1 for rows, right, size, _ in compiled)
    assert any(len(row) > 1 for row in outputs)
    assert any(c != 1 for row in outputs for _, c in row)


def test_push_plans_share_equal_halves(surface, monkeypatch):
    # each half of a push plan depends only on its own joint orbits' sizes and
    # strides (its ``_half_key``): over the sector pairs of Sym^4(surface4)
    # whose sectors both have at least 2 cycles, 72 plans hold 38 distinct low
    # halves, each compiled once, and plans whose half keys are equal hold one
    # high-rows object and one kernel
    compiled, kernel = [], frob._kernel
    keys, half_key = [], sp_mod._half_key

    def recorded(rows, right, size):
        compiled.append(repr((rows, right, size)))
        return kernel(rows, right, size)

    def recorded_key(*args):
        keys.append(half_key(*args))
        return keys[-1]

    monkeypatch.setattr(frob, "_kernel", recorded)
    monkeypatch.setattr(sp_mod, "_half_key", recorded_key)
    sp = sp_mod.SymmetricProductAlgebra(surface, 4)
    sectors = [gi for gi in range(sp.group.order) if sp.factors[gi] >= 2]
    plans = {}   # shape -> (high key, low key, plan)
    for gi in sectors:
        for hi in sectors:
            shape = sp._joint_orbits(gi, hi, sp.group.mul(gi, hi))
            built = len(sp._memo.get("_plan", ()))
            plan = sp._push_plan(gi, hi)
            if len(sp._memo["_plan"]) > built:   # each new plan makes its high key, then its low key
                plans[shape] = (*keys[-2:], plan)
    high_keys, low_keys = ({keys[i] for keys in plans.values()} for i in (0, 1))
    assert len(keys) == 2 * len(plans) == 2 * 72
    assert len(compiled) == len(set(compiled)) == len(low_keys) == 38
    assert set(sp._memo["_high_half"]) == {(key,) for key in high_keys}
    assert set(sp._memo["_low_half"]) == {(key,) for key in low_keys}
    for (high_a, low_a, plan_a), (high_b, low_b, plan_b) in itertools.combinations(plans.values(), 2):
        assert (plan_a[2] is plan_b[2]) == (high_a == high_b)
        assert (plan_a[3] is plan_b[3]) == (low_a == low_b)
    rng = random.Random(4421)
    for gi in sectors:
        for hi in sectors:
            a, b = _dense_fractions(rng, sp.dims[gi]), _dense_fractions(rng, sp.dims[hi])
            assert sp.multiply_pushforward(gi, a, hi, b) == sp.multiply_chain(gi, a, hi, b)
    assert len(sp._memo["_plan"]) == 72 and len(sp._memo["_low_half"]) == 38


def _old_threshold(rows, size) -> int:
    """Reference for ``_dense``: the layer threshold read off the rows
    transposed into per-output inputs, the widest output's number of inputs."""
    inputs = [[] for _ in range(size)]
    for x, row in enumerate(rows):
        for o, w in row:
            inputs[o].append((x, w))
    width = max(map(len, inputs), default=0)
    if not width or size == 1:
        return len(rows)
    return ((width * size + (width - 1) * sp_mod._LAYER_SETUP) * len(rows)
            // (sp_mod._LAYER_COST * (len(rows) + sum(map(len, rows)))))


def test_layers_are_built_on_first_dense_use(surface, monkeypatch):
    # a map's layers are their own memo entry, built by the first operand that
    # runs through them: a t*t chain product of Sym^5(surface4) scatters its
    # running product (256 nonzero entries) through the insertion, building
    # no layers for it, while each dense lift builds its layers once and the
    # next product reuses them.  Every application takes the path the
    # threshold of eagerly built layers chose, and a basis vector scatters
    cls = sp_mod.SymmetricProductAlgebra
    mapped, map_layers, layers = cls._mapped, cls._map_layers, sp_mod._layers
    applied, taken, transposed = [], [], []

    def recorded_mapped(self, v, linear):
        taken.append(False)
        out = mapped(self, v, linear)
        applied.append((linear, sum(map(bool, v)), taken.pop()))
        return out

    def recorded_entry(self, *key):
        taken[-1] = True
        return map_layers(self, *key)

    def counted(rows, size):
        transposed.append(rows)
        return layers(rows, size)

    monkeypatch.setattr(cls, "_mapped", recorded_mapped)
    monkeypatch.setattr(cls, "_map_layers", recorded_entry)
    monkeypatch.setattr(sp_mod, "_layers", counted)
    sp = cls(surface, 5)
    t, u = sp.group.index_of("(1 2)"), sp.group.index_of("(2 3)")
    order, _, lift, _, gammas = sp._chain_plan(t, t, None)
    assert sp._chain_plan(t, u, None)[2] is not lift
    assert sp._mapped(basis(sp.dims[t], 5), lift)[0] and not transposed   # sparse: scattered
    rng = random.Random(59)
    for g, h in ((t, t), (t, t), (t, u)):
        a, b = _dense_fractions(rng, sp.dims[g]), _dense_fractions(rng, sp.dims[h])
        assert sp.multiply_chain(g, a, h, b) == sp.multiply_pushforward(g, a, h, b)
    gamma, = gammas
    assert [(nonzero, path) for linear, nonzero, path in applied if linear is gamma] == [
        (256, False), (256, False)]
    assert not any(name == "_insertion" for name, *_ in sp._memo["_map_layers"])
    # t*t lifts both operands by one map, t*u the right one by another:
    # each map's rows are transposed once, on its first dense operand
    assert transposed == [lift[0], sp._chain_plan(t, u, None)[3][0]]
    assert sp._memo["_map_layers"][lift[4]] is map_layers(sp, *lift[4])
    assert len(applied) == 1 + 3 + 3 + 2   # t*u inserts no copairing
    for (rows, dense, _, size, _), nonzero, path in applied:
        assert dense == _old_threshold(rows, size) and path == (nonzero > dense)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_order_getters_permute_the_factors(surface, m):
    # order[i] is the factor at kernel position i: ``into`` reads a dense
    # vector into kernel order, ``back`` returns it to basis order, ``strides``
    # give each basis tuple's kernel index, and the identity order (the only
    # one of one factor) has no getters
    sp = sp_mod.SymmetricProductAlgebra(surface, 1)
    D = surface.dim
    v = list(range(D ** m))   # each entry is its basis index
    for order in itertools.permutations(range(m)):
        strides, into, back = sp._order(order)
        assert sp._order(order) is sp._order(order)
        if order == tuple(range(m)):
            assert into is None and back is None
            continue
        kernel = list(into(v))
        assert list(back(kernel)) == v
        for k, x in enumerate(kernel):
            t, u = tensor_tuple(x, D, m), tensor_tuple(k, D, m)
            assert all(t[q] == u[i] for i, q in enumerate(order))
            assert sum(q * s for q, s in zip(t, strides)) == k


def test_chain_builds_each_pair_table_once():
    base = load_base("surface4")   # a fresh algebra: no product has run on it
    sp = sp_mod.SymmetricProductAlgebra(base, 5)
    assert "_pair_rows" not in base._memo   # set-up builds no table
    rng = random.Random(19)
    e, t = sp.group.identity, sp.group.index_of("(1 2)")
    sp.multiply_chain(t, _random_vector(rng, sp.dims[t]), t, _random_vector(rng, sp.dims[t]))
    tables, kernels = dict(base._memo["_pair_rows"]), dict(base._memo["_power_pairs"])
    # t * t = e multiplies on 5 factors, split 2 + 3: A^(x)3 has 9^3 nonzero basis pairs,
    # and the rows of A^(x)0..3 are built on the way
    assert sorted(tables) == [(0,), (1,), (2,), (3,)] and sum(map(len, tables[3,])) == 9 ** 3
    assert sorted(kernels) == [(2,), (3,)]
    for g, h in ((e, t), (t, e), (e, e)):
        a, b = _random_vector(rng, sp.dims[g]), _random_vector(rng, sp.dims[h])
        assert sp.multiply_chain(g, a, h, b) == sp.multiply_pushforward(g, a, h, b)
    for built, kept in ((base._memo["_pair_rows"], tables), (base._memo["_power_pairs"], kernels)):
        assert built.keys() == kept.keys() and all(built[r] is kept[r] for r in kept)


def test_pushforward_route_calls_no_staged_kernel(qx2, monkeypatch):
    # realize never calls multiply_pushforward (pair_table composes the joint
    # orbits' maps itself), and multiply_pushforward never calls
    # factorwise_multiply (it walks its plan's composed rows)
    calls = {"multiply_pushforward": 0, "factorwise_multiply": 0}
    push, factorwise = sp_mod.SymmetricProductAlgebra.multiply_pushforward, frob.factorwise_multiply

    def counted_push(self, *args):
        calls["multiply_pushforward"] += 1
        return push(self, *args)

    def counted_factorwise(*args):
        calls["factorwise_multiply"] += 1
        return factorwise(*args)

    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "multiply_pushforward", counted_push)
    monkeypatch.setattr(frob, "factorwise_multiply", counted_factorwise)
    sp = sp_mod.SymmetricProductAlgebra(qx2, 3)
    sp.realize()
    assert calls == {"multiply_pushforward": 0, "factorwise_multiply": 0}
    rng = random.Random(17)
    for gi in range(6):
        for hi in range(6):
            sp.multiply_pushforward(gi, _random_vector(rng, sp.dims[gi]), hi,
                                    _random_vector(rng, sp.dims[hi]))
    assert calls == {"multiply_pushforward": 36, "factorwise_multiply": 0}


def test_both_routes_multiply_over_a_zero_dimensional_base():
    # every sector of Sym^n of a 0-dimensional base is 0-dimensional, so are the
    # low halves both kernels split off: the products and tables are empty
    zero = frob.from_json_dict({"name": "zero", "dim": 0, "basis": [], "unit": [], "metric": [],
                                "structure": []})
    sp = sp_mod.SymmetricProductAlgebra(zero, 3)
    for gi in range(6):
        for hi in range(6):
            assert sp.multiply_pushforward(gi, [], hi, []) == []
            assert sp.multiply_chain(gi, [], hi, []) == []
            assert sp.pair_table(gi, hi) == {}


def test_planned_products_repeat(sp_factory, surface, half):
    rng = random.Random(31)
    for base in (surface, half):
        sp = sp_factory(base, 3)
        for gi, hi in rng.sample([(x, y) for x in range(6) for y in range(6)], 12):
            a, b = _random_vector(rng, sp.dims[gi]), _random_vector(rng, sp.dims[hi])
            push, chain = sp.multiply_pushforward(gi, a, hi, b), sp.multiply_chain(gi, a, hi, b)
            assert _typed(push) == _typed(chain)
            assert _typed(sp.multiply_pushforward(gi, a, hi, b)) == _typed(push)
            assert _typed(sp.multiply_chain(gi, a, hi, b)) == _typed(chain)


def test_explicit_word_is_validated_after_the_plan_is_built(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    h = sp.group.index_of("(1 2 3)")
    one = sp.generator(h)
    expected = sp.multiply_chain(h, one, h, one)   # builds and caches the default plan
    t12, t13 = g.parse_cycles("(1 2)", 3), g.parse_cycles("(1 3)", 3)
    with pytest.raises(ValueError):
        sp.multiply_chain(h, one, h, one, [t12, t13, t12, t12])
    with pytest.raises(ValueError):
        sp.multiply_chain(h, one, h, one, [t12])
    for word in sp_mod.all_minimal_words(sp.perms[h]):
        assert sp.multiply_chain(h, one, h, one, word) == expected


def test_plan_reads_graph_defects_from_its_cycle_counts(qx2, monkeypatch):
    # the plan already holds each joint orbit's cycle counts, so it calls no
    # orbit-walking obstruction_exponent; test_realize_keeps_no_push_plan pins
    # the exponents the tables read through the keys of the _orbit_map memo
    calls = []
    original = sp_mod.obstruction_exponent

    def counted(sigma, sigma2, block):
        calls.append(block)
        return original(sigma, sigma2, block)

    monkeypatch.setattr(sp_mod, "obstruction_exponent", counted)
    sp = sp_mod.SymmetricProductAlgebra(qx2, 4)   # fresh: no plan built yet
    gi, hi = sp.group.index_of("(1 2)"), sp.group.index_of("(3 4)")
    joint = g.group_orbits([sp.perms[gi], sp.perms[hi]])
    assert len(joint) == 2
    products = 0
    for i in range(sp.dims[gi]):
        for j in range(sp.dims[hi]):
            a, b = basis(sp.dims[gi], i), basis(sp.dims[hi], j)
            assert sp.multiply_pushforward(gi, a, hi, b) == sp.multiply_chain(gi, a, hi, b)
            products += 1
    assert products == 64
    assert (sp._joint_orbits(gi, hi, sp.group.mul(gi, hi)),) in sp._memo["_plan"] and calls == []


# -- pair tables against the inlined per-orbit loops they replaced -----------------

def _reference_pair_table(sp, gi, hi):
    sigma, sigma2 = sp.perms[gi], sp.perms[hi]
    joint = g.group_orbits([sigma, sigma2])
    gh = sp.group.mul(gi, hi)
    D = sp.base.dim
    block_infos = []
    for block in joint.blocks:
        bset = set(block)
        s_pos = [i for i, blk in enumerate(sp.parts[gi].blocks) if blk[0] in bset]
        t_pos = [i for i, blk in enumerate(sp.parts[hi].blocks) if blk[0] in bset]
        p_pos = [i for i, blk in enumerate(sp.parts[gh].blocks) if blk[0] in bset]
        expo = sp_mod.obstruction_exponent(sigma, sigma2, block)
        euler_pow = sp.base.power(sp.euler, expo)
        adj = _adjoint_matrix(sp, len(p_pos))
        local = {}
        for t1 in itertools.product(range(D), repeat=len(s_pos)):
            v1 = basis_product(sp.base, list(t1)) if t1 else {}
            if t1 and not v1:
                continue
            for t2 in itertools.product(range(D), repeat=len(t_pos)):
                v2 = basis_product(sp.base, list(t2)) if t2 else {}
                if t2 and not v2:
                    continue
                u = {}
                for i, c1 in v1.items():
                    for j, c2 in v2.items():
                        row = sp.base.rows.get((i, j))
                        if row:
                            c12 = c1 * c2
                            for k, v in row.items():
                                u[k] = u.get(k, 0) + c12 * v
                w = {}
                for k, c in u.items():
                    if c == 0:
                        continue
                    for k2, e in enumerate(euler_pow):
                        if e == 0:
                            continue
                        row = sp.base.rows.get((k, k2))
                        if row:
                            ce = c * e
                            for k3, v in row.items():
                                w[k3] = w.get(k3, 0) + ce * v
                result = {}
                for k, c in w.items():
                    if c == 0:
                        continue
                    for r in range(len(adj)):
                        v = adj[r][k]
                        if v != 0:
                            result[r] = ex.norm(result.get(r, 0) + c * v)
                result = {k: v for k, v in result.items() if v != 0}
                if result:
                    local[(t1, t2)] = result
        block_infos.append((s_pos, t_pos, p_pos, local))

    table = {}
    lg, lh, lp = sp.factors[gi], sp.factors[hi], sp.factors[gh]
    for i in range(sp.dims[gi]):
        ti = tensor_tuple(i, D, lg)
        for j in range(sp.dims[hi]):
            tj = tensor_tuple(j, D, lh)
            terms = [([0] * lp, 1)]
            dead = False
            for s_pos, t_pos, p_pos, local in block_infos:
                key = (tuple(ti[p] for p in s_pos), tuple(tj[p] for p in t_pos))
                vals = local.get(key)
                if not vals:
                    dead = True
                    break
                m = len(p_pos)
                new = []
                for tup, c in terms:
                    for packed, v in vals.items():
                        sub = tensor_tuple(packed, D, m)
                        t2 = list(tup)
                        for spot, ppos in enumerate(p_pos):
                            t2[ppos] = sub[spot]
                        new.append((t2, c * v))
                terms = new
            if dead:
                continue
            vec = {}
            for tup, c in terms:
                k = tensor_index(tup, D)
                vec[k] = vec.get(k, 0) + c
            vec = {k: ex.norm(v) for k, v in vec.items() if v != 0}
            if vec:
                table[(i, j)] = vec
    return table


@pytest.mark.parametrize("base_name,n", [("ground", 2), ("ground", 3), ("ground", 4),
                                         ("qx2", 2), ("qx2", 3), ("qx2", 4),
                                         ("surface", 2), ("surface", 3),
                                         ("half", 2), ("half", 3)])
def test_pair_tables_match_inlined_reference(sp_factory, ground, qx2, surface, half, base_name, n):
    base = {"ground": ground, "qx2": qx2, "surface": surface, "half": half}[base_name]
    sp = sp_factory(base, n)
    for gi in range(sp.group.order):
        for hi in range(sp.group.order):
            got = {key: _typed(vec) for key, vec in sp.pair_table(gi, hi).items()}
            want = {key: _typed(vec) for key, vec in _reference_pair_table(sp, gi, hi).items()}
            assert got == want


def test_realize_builds_one_pair_table_per_sector_pair(qx2, monkeypatch):
    calls = []
    original = sp_mod.SymmetricProductAlgebra.pair_table

    def counted(self, gi, hi):
        calls.append((self.n, gi, hi))
        return original(self, gi, hi)

    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "pair_table", counted)
    sp = sp_mod.SymmetricProductAlgebra(qx2, 3)   # fresh: no table or local instance built yet
    sp.realize()
    pairs = [(3, gi, hi) for gi in range(6) for hi in range(6)]
    assert sorted(calls) == pairs


def test_memo_keeps_no_instance_alive(surface):
    # the derived maps live on the instance they belong to, with no global
    # store and no reference back, so dropping the instance frees them at once
    sp = sp_mod.SymmetricProductAlgebra(surface, 3)
    rng = random.Random(3)
    gi, hi = sp.group.index_of("(1 2)"), sp.group.index_of("(2 3)")
    a, b = _random_vector(rng, sp.dims[gi]), _random_vector(rng, sp.dims[hi])
    assert sp.multiply_chain(gi, a, hi, b) == sp.multiply_pushforward(gi, a, hi, b)
    sp.realize()
    assert {"_plan", "_push_plan", "_chain_plan", "_gather_map", "_orbit_map",
            "_order"} <= set(sp._memo)
    ref = weakref.ref(sp)
    del sp
    assert ref() is None


def test_realize_keeps_no_push_plan(qx2):
    # realize builds no push plan, and drops its per-shape tables once every
    # pair holds its own; what stays is one composed map per (k_g, k_h, k_gh, d)
    # that a joint orbit of some pair has
    sp = sp_mod.SymmetricProductAlgebra(qx2, 3)
    sp.realize()
    assert not {"_shape_table", "_plan", "_push_plan"} & set(sp._memo)
    want = set()
    for gi in range(6):
        for hi in range(6):
            sigma, sigma2 = sp.perms[gi], sp.perms[hi]
            for block in g.group_orbits([sigma, sigma2]).blocks:
                counts = tuple(sum(1 for blk in sp.parts[x].blocks if blk[0] in block)
                               for x in (gi, hi, sp.group.mul(gi, hi)))
                want.add(counts + (sp_mod.obstruction_exponent(sigma, sigma2, block),))
    assert set(sp._memo["_orbit_map"]) == want


def test_pairs_of_one_shape_share_one_table_that_nothing_mutates(qx2):
    # a pair's table depends only on its joint-orbit shape: realize hands every
    # pair of a shape one object, so no reader of the built algebra may change it.
    # Likewise a lift map depends only on its nesting: both factors of (1 2 3) and
    # (1 2 4) times their inverses each lift one factor to point 1, the other to
    # a point of its own, so the two pairs share one map
    sp = sp_mod.SymmetricProductAlgebra(qx2, 4)
    X = sp.realize()
    by_shape: dict = {}
    for gi in range(24):
        for hi in range(24):
            by_shape.setdefault(sp._joint_orbits(gi, hi, sp.group.mul(gi, hi)), []).append((gi, hi))
    assert len(by_shape) < 24 * 24
    for pairs in by_shape.values():
        first = X.product[pairs[0]]
        assert all(X.product[pair] is first for pair in pairs)
        assert first == _reference_pair_table(sp, *pairs[0])
    tables = copy.deepcopy(X.product)
    gfrob.twist(X, cocy.normalized_sn_cocycle(4, -1), cocy.sign_supertwist(4))
    gfrob.invariants(X)
    assert gfrob.verify_axioms(X).passed
    assert gfrob.from_json_dict(gfrob.to_json_dict(X)).math_equal(X)
    assert repr(X.product) == repr(tables)   # values, their types and key order
    pairs = [(sp.group.index_of(c), sp.group.index_of(c_inv))
             for c, c_inv in (("(1 2 3)", "(1 3 2)"), ("(1 2 4)", "(1 4 2)"))]
    lifts = [sp._chain_plan(gi, hi, None)[k] for gi, hi in pairs for k in (2, 3)]
    assert all(lift is lifts[0] for lift in lifts)
    # so is a push plan's half, shared by plans of different shapes, and a
    # map's layers, shared by every dense operand once the first built them
    rng = random.Random(37)
    sp._mapped([rng.randint(1, 9) for _ in lifts[0][0]], lifts[0])
    layers = sp._memo["_map_layers"][lifts[0][4]]
    plans = {shape: sp._push_plan(*pairs[0]) for shape, pairs in by_shape.items()}
    high = next(plan_a[2] for (shape_a, plan_a), (shape_b, plan_b)
                in itertools.combinations(plans.items(), 2) if plan_a[2] is plan_b[2])
    # rows, dense threshold, denominator, size, memo key; the layers' getters
    # and numerators; the shared high rows
    kept = repr(lifts[0]), repr(layers), repr(high)
    for gi, hi in itertools.product(range(24), repeat=2):
        for a in (_random_vector(rng, sp.dims[gi]), basis(sp.dims[gi], sp.dims[gi] - 1)):
            b = _random_vector(rng, sp.dims[hi])
            assert sp.multiply_chain(gi, a, hi, b) == sp.multiply_pushforward(gi, a, hi, b)
    assert sp._memo["_map_layers"][lifts[0][4]] is layers
    assert (repr(lifts[0]), repr(layers), repr(high)) == kept


def test_chain_keeps_one_contraction_map_per_nesting(surface):
    # an all-pairs chain sweep of Sym^4(surface4) builds each contraction map
    # once per nesting (per cycle of gh in kernel order, the factors placed in
    # it), not per (sector, product sector, order): 49 nestings for the 728
    # lift keys.  Each copairing insertion is a map of its own, kept per the
    # nesting of tau's two points: 17 of them, none in the contraction store
    sp = sp_mod.SymmetricProductAlgebra(surface, 4)

    def nesting(points, gh, order):
        cycle_of = sp.parts[gh].block_index()
        return tuple(tuple(f for f, p in enumerate(points) if cycle_of[p] == c) for c in order)

    lift_keys, lifts, insertions = set(), {}, set()
    for gi in range(sp.group.order):
        for hi in range(sp.group.order):
            sp.multiply_chain(gi, sp.generator(gi), hi, sp.generator(hi))
            gh = sp.group.mul(gi, hi)
            order, _, lift_g, lift_h, gammas = sp._chain_plan(gi, hi, None)
            for s, lift in ((gi, lift_g), (hi, lift_h)):
                lift_keys.add((s, gh, order))
                key = nesting([blk[0] for blk in sp.parts[s].blocks], gh, order)
                assert lifts.setdefault(key, lift) is lift
            for tau, gamma in zip(sp.contraction_steps(gi, hi)[1], gammas):
                key = nesting(tau.moved_points(), gh, order)
                assert sp._memo["_insertion"][key,] is gamma
                insertions.add(key)
    assert len(lift_keys) == 728 and len(lifts) == 49 and len(insertions) == 17
    assert set(sp._memo["_insertion"]) == {(key,) for key in insertions}
    store = sp._memo["_gather_map"]
    assert set(store) == {(key,) for key in lifts}
    assert all(store[key,] is lift for key, lift in lifts.items())


def _insertion_nestings(sp) -> set:
    """The nesting of every copairing insertion of the default words, over all sector pairs."""
    out = set()
    for gi in range(sp.group.order):
        for hi in range(sp.group.order):
            gh = sp.group.mul(gi, hi)
            order = sp._chain_order(hi, gh)
            out.update(sp._contraction(tau.moved_points(), gh, order)
                       for tau in sp.contraction_steps(gi, hi)[1])
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_insertion_map_multiplies_by_the_contracted_copairing(sp_factory, surface, rescaled,
                                                              half, n):
    # each insertion is left multiplication by r_gh(gamma_tau), built as a map of
    # its own: on every basis vector (scattered) and a dense vector (through the
    # layers) it must give the kernel's product by the copairing contracted
    # through the nesting's contraction map.  Both cases occur: both points in
    # one cycle of gh (the Euler class) and in two.  The half base's pair rows
    # carry a denominator, so a map over one power of it too few fails there
    rng = random.Random(41 + n)
    for base in (surface, rescaled, half):
        sp, D = sp_factory(base, n), base.dim
        copairing = [0] * D * D
        for i, j, c in base.copairing():
            copairing[i * D + j] = c
        nestings = sorted(_insertion_nestings(sp))
        assert {sum(map(bool, nesting)) for nesting in nestings} == {1, 2}
        layered = 0
        for nesting in nestings:
            m, gamma = len(nesting), sp._insertion(nesting)
            r_gamma = ex.divided(*sp._mapped(copairing, sp._gather_map(nesting)))
            dense = _dense_fractions(rng, D ** m)
            layered += len(dense) > gamma[1]
            for v in [basis(D ** m, x) for x in range(D ** m)] + [dense]:
                assert _typed(ex.divided(*sp._mapped(v, gamma))) == \
                    _typed(frob.factorwise_multiply(base, m, r_gamma, v))
        assert layered or D == 1   # a one-dimensional base's maps always scatter


def test_pushforward_finds_a_pairs_shape_once(surface, monkeypatch):
    # a pair keeps a reference to its shape's plan: k products of one sector
    # pair walk its joint orbits once, and the pairs of one shape hold one plan
    calls = []
    joint_orbits = sp_mod.SymmetricProductAlgebra._joint_orbits

    def counted(self, *args):
        calls.append(args)
        return joint_orbits(self, *args)

    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "_joint_orbits", counted)
    sp = sp_mod.SymmetricProductAlgebra(surface, 4)
    gi, hi = sp.group.index_of("(1 2)"), sp.group.index_of("(2 3 4)")
    rng = random.Random(53)
    for _ in range(4):
        a, b = _random_vector(rng, sp.dims[gi]), _random_vector(rng, sp.dims[hi])
        assert sp.multiply_pushforward(gi, a, hi, b) == sp.multiply_chain(gi, a, hi, b)
    assert calls == [(gi, hi, sp.group.mul(gi, hi))]
    pairs = [(x, y) for x in range(sp.group.order) for y in range(sp.group.order)]
    by_shape: dict = {}
    for x, y in pairs * 2:
        by_shape.setdefault(joint_orbits(sp, x, y, sp.group.mul(x, y)), []).append(
            sp._push_plan(x, y))
    assert len(calls) == len(pairs) and len(by_shape) < len(pairs)
    plans = sp._memo["_plan"]
    assert len(plans) == len(by_shape)
    assert all(plan is plans[shape,] for shape, kept in by_shape.items() for plan in kept)


def _expanded(sp, blocks) -> list:
    """Reference: a linear map's rows in one pass over the input basis tuples.
    Each block's key is read off the tuple at the block's positions, the
    blocks' columns multiply out in block order, and a missing column gives
    the row ()."""
    rows = []
    for t in sp._tuples(sum(len(positions) for positions, _ in blocks)):
        out = [(0, 1)]
        for positions, cols in blocks:
            out = [(p + q, c * w) for p, c in out
                   for q, w in cols.get(tuple(t[f] for f in positions), ())]
        rows.append(tuple(out))
    return rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_maps_are_the_expansion_of_every_input_tuple(monkeypatch, surface, half,
                                                            rescaled, qx2, n):
    # every gather, spread and insertion map is the Kronecker product of its
    # blocks: its rows must equal the per-tuple expansion of the same blocks
    # entry for entry, order included, so the layers are built from the same
    # input.  The maps: the chain's lifts and insertions over all sector pairs,
    # and, per nesting, the contraction of the product sector onto the joint
    # orbits, its metric adjoint and its unit-tensor section, and those of the
    # identity sector onto each sector
    built = []
    linear_map = sp_mod.SymmetricProductAlgebra._linear_map

    def recorded(self, blocks, den, size, key):
        out = linear_map(self, blocks, den, size, key)
        built.append((sys._getframe(1).f_code.co_name, self, blocks, out))
        return out

    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "_linear_map", recorded)
    for base in (surface, half, rescaled, qx2):
        sp = sp_mod.SymmetricProductAlgebra(base, n)   # fresh: every map is built here
        e, nested = sp.parts[sp.group.identity], {}
        for gi in range(sp.group.order):
            nested[sp._nesting(e, sp.parts[gi])] = e, sp.parts[gi]
            for hi in range(sp.group.order):
                sp._chain_plan(gi, hi, None)
                part = sp.parts[sp.group.mul(gi, hi)]
                joint = g.group_orbits([sp.perms[gi], sp.perms[hi]])
                nested[sp._nesting(part, joint)] = part, joint
        for fine, coarse in nested.values():
            sp._gather_map(sp._nesting(fine, coarse))
            for adjoint in (True, False):
                sp._spread_map(sp._nesting(fine, coarse), adjoint)
    kinds = {}
    for kind, sp, blocks, (rows, *_) in built:
        assert rows == _expanded(sp, blocks), kind
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"_gather_map", "_spread_map", "_insertion"}


# -- exact outputs of both routes, pinned across kernel changes ---------------------

def _route_digest(sp, pairs, rng) -> str:
    """sha256 of the (type, value) outputs of both routes and of the cocycle data
    over seeded operands: dense with proper Fractions, and all-zero."""
    h = hashlib.sha256()
    for gi, hi in pairs:
        dg, dh = sp.dims[gi], sp.dims[hi]
        operands = [(_random_vector(rng, dg), _random_vector(rng, dh)),
                    ([0] * dg, _random_vector(rng, dh)),
                    (_random_vector(rng, dg), [Fraction(0)] * dh)]
        outputs = []
        for a, b in operands:
            outputs += [sp.multiply_chain(gi, a, hi, b), sp.multiply_pushforward(gi, a, hi, b)]
        data = sp.gamma_data(gi, hi)
        outputs += [sp.gamma_cocycle(gi, hi), data.cocycle, data.tilde, data.perp, data.bar,
                    data.restricted]
        for vec in outputs:
            h.update(repr([(type(x).__name__, x) for x in vec]).encode())
    return h.hexdigest()


# recorded before the product kernels moved to integer numerators end to end
ROUTE_DIGESTS = {
    ("qx2", 1): "2e85766c9cf736f06ef992baa11ccfb99f933fdb712eda33f7bc6dd8cce5b8b5",
    ("qx2", 2): "83e73989cf01ea6b6e33788dfe53c536b04c04afed52f1ad175595ee144341c0",
    ("qx2", 3): "f2fa7a339b9bed6fea5641a779bcaa96618d42b8519a5c44195264a22b9a3457",
    ("qx2", 4): "19370ea1d318b93473521235e2342fb690bd6c3fee1c88678ab4fb10cf637d1a",
    ("surface", 1): "980a183bb3eeee07b7188d6a37cd9b75c4571e21ae50d7c60e864e2f8586e46b",
    ("surface", 2): "2eb628012f3cc7797e98934c8396c1b888f023ff526da499249dcea27ea20b38",
    ("surface", 3): "0e65fa8c71882f3f42c7381acfd34ea94287caaf96d5d0ddb85c2ca34423e3bb",
    ("surface", 4): "38dcdf31746a04133fe341f1d08eb6a03377f32475f887af3ab0a4cbaf317ad5",
    ("half", 1): "d0682342504c1d4159a5ccfa89fb8f3dae24b19b73a070dfe6440da7833b6844",
    ("half", 2): "64a1a94f45061354aec9687f504787bc2822e4e470ccc849b1e597ffee059963",
    ("half", 3): "97c4bd0d1397e3528a7841de4c17e4b563377757d926803e3634d45faaeac95e",
    ("half", 4): "f8d576fcb3afb6acd5299d6f054ec005c557be2bf84132a0c18261c1c419b90a",
}


# surface4 on a rescaled basis (the ``rescaled`` fixture), whose pair rows and
# push-plan rows carry numerators other than 1 in both halves of the walk, so
# a kernel that drops a low numerator or a walk that drops a high one changes
# these; recorded before the low halves were compiled
RESCALED_ROUTE_DIGESTS = {
    3: "95961e2527d68564ea454e4baa881971cf3b476359d02d44ab48b37ba0f45051",
    4: "77659aaef7f7fb83aa8c664d898b0d471c69ca34feefeef41d2996c24272c075",
}


@pytest.mark.parametrize("n", sorted(RESCALED_ROUTE_DIGESTS))
def test_route_outputs_on_a_rescaled_base_are_pinned(sp_factory, rescaled, n):
    sp = sp_factory(rescaled, n)
    rng = random.Random(2718 + n)
    pairs = [(gi, hi) for gi in range(sp.group.order) for hi in range(sp.group.order)]
    if n > 3:
        pairs = rng.sample(pairs, 24)
    assert _route_digest(sp, pairs, rng) == RESCALED_ROUTE_DIGESTS[n]


@pytest.mark.parametrize("base_name,n", sorted(ROUTE_DIGESTS))
def test_route_outputs_are_pinned(sp_factory, qx2, surface, half, base_name, n):
    base = {"qx2": qx2, "surface": surface, "half": half}[base_name]
    sp = sp_factory(base, n)
    rng = random.Random(2718 + n)
    pairs = [(gi, hi) for gi in range(sp.group.order) for hi in range(sp.group.order)]
    if n > 3:
        pairs = rng.sample(pairs, 24)
    assert _route_digest(sp, pairs, rng) == ROUTE_DIGESTS[base_name, n]


def test_product_stages_see_integer_numerators(sp_factory, qx2, surface, monkeypatch):
    # between scaling the operands and the one final division, every stage of
    # either route multiplies integers only (on a base with integral constants):
    # the pushforward walks both operands' split numerators through the plan's
    # composed high rows and the kernel compiled from its low rows, which the
    # kernel generator refuses unless they are integers
    stages = []

    def ints(values):
        stages.append(all(type(x) is int for x in values))

    cls = sp_mod.SymmetricProductAlgebra
    halves, push_plan = cls._halves, cls._push_plan
    factorwise_product, kernel = frob.factorwise_product, frob._kernel

    def checked_halves(self, v, g, part):
        split, den = halves(self, v, g, part)
        ints([w for chunk in split.values() for w in chunk] + [den])
        return split, den

    def checked_push_plan(self, g, h):
        plan = push_plan(self, g, h)
        _, _, high, _, _, _, den = plan
        ints([c for ys in high for _, row in ys for _, c in row] + [den])
        return plan

    def checked_kernel(rows, right, size):
        ints([c for pairs in rows for _, row in pairs for _, c in row])
        return kernel(rows, right, size)

    def checked_factorwise_product(algebra, m, left, right):
        (lhs, d1), (rhs, d2) = left, right
        ints([w for split in (lhs, rhs) for chunk in split.values() for w in chunk]
             + [d1, d2, algebra._pairs_den])
        for r in {m // 2, m - m // 2}:   # the high rows the walk reads, the low ones compiled
            rows, _ = frob._power_pairs(algebra, r)
            ints([c for pairs in rows for _, row in pairs for _, c in row])
        return factorwise_product(algebra, m, left, right)

    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "_halves", checked_halves)
    monkeypatch.setattr(sp_mod.SymmetricProductAlgebra, "_push_plan", checked_push_plan)
    monkeypatch.setattr(frob, "_kernel", checked_kernel)
    monkeypatch.setattr(frob, "factorwise_product", checked_factorwise_product)
    rng = random.Random(61)
    for base in (qx2, surface):
        sp = sp_factory(base, 3)
        for gi, hi in rng.sample([(x, y) for x in range(6) for y in range(6)], 8):
            a, b = _random_vector(rng, sp.dims[gi]), _random_vector(rng, sp.dims[hi])
            assert sp.multiply_pushforward(gi, a, hi, b) == sp.multiply_chain(gi, a, hi, b)
    assert len(stages) > 40 and all(stages)
