import itertools
import random
from fractions import Fraction

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob import groups as g
from orbifrob import symprod as sp_mod


def basis(dim, i):
    v = [0] * dim
    v[i] = 1
    return v


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
    tau = g.parse_cycles("(1 2)", 2)
    # from the identity sector (two factors) to the transposition sector
    assert sp_mod.restriction(sp, [], [tau], [0, 1, 0, 0]) == [0, 1]   # 1(x)x -> x
    assert sp_mod.restriction(sp, [], [tau], [1, 0, 0, 0]) == [1, 0]   # unit -> unit
    sp3 = sp_factory(qx2, 3)
    t12, t13 = g.parse_cycles("(1 2)", 3), g.parse_cycles("(1 3)", 3)
    # factors of (1 2): orbits {0,1} and {2}; target has one orbit: u(x)w -> uw
    x_tensor_x = [0] * 4
    x_tensor_x[frob.tensor_index((1, 1), 2)] = 1
    assert sp_mod.restriction(sp3, [t12], [t12, t13], x_tensor_x) == [0, 0]
    one_tensor_x = [0] * 4
    one_tensor_x[frob.tensor_index((0, 1), 2)] = 1
    assert sp_mod.restriction(sp3, [t12], [t12, t13], one_tensor_x) == [0, 1]


def test_restriction_requires_nesting(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    t12, t13 = g.parse_cycles("(1 2)", 3), g.parse_cycles("(1 3)", 3)
    with pytest.raises(ValueError):
        sp_mod.restriction(sp, [t12], [t13], [0, 1, 0, 0])


def test_pushforward_of_unit_is_copairing(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    tau = g.parse_cycles("(1 2)", 2)
    assert sp_mod.pushforward(sp, [], [tau], [1, 0]) == [0, 1, 1, 0]


def test_pushforward_trivial_base(sp_factory, ground):
    sp = sp_factory(ground, 2)
    tau = g.parse_cycles("(1 2)", 2)
    r_then_push = sp_mod.pushforward(sp, [], [tau], sp_mod.restriction(sp, [], [tau], [1]))
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
                lhs = sum(eta_fine[a][b] * py[a] * x[b]
                          for a in range(fine_dim) for b in range(fine_dim))
                rhs = sum(eta_coarse[a][b] * y[a] * rx[b]
                          for a in range(coarse_dim) for b in range(coarse_dim))
                assert ex.norm(lhs) == ex.norm(rhs)


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
            got = {k: (type(v), v) for k, v in sp._elem_product(s1, s2).items()}
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
    moved = ex.mat_vec(galg.action[(t12, t13)], sp.generator(t13))
    assert moved == sp.generator(t23)


def test_budget_guard(surface):
    with pytest.raises(gfrob.BudgetExceededError):
        sp_mod.build(surface, 4)
    sp = sp_mod.SymmetricProductAlgebra(surface, 4)
    assert sp.table_cost() == 840 ** 2


def test_odd_base_rejected():
    odd = frob.FrobeniusAlgebra(
        name="exterior",
        labels=["1", "t"],
        degrees=[0, 1],
        parities=[0, 1],
        unit=[1, 0],
        structure=ex.SparseTensor3([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]),
        metric=[[0, 1], [1, 0]],
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
        structure=ex.SparseTensor3([(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, -1), (1, 1, 0, 1)]),
        metric=[[1, 0], [0, 1]],
    )
    with pytest.raises(ValueError):
        sp_mod.SymmetricProductAlgebra(nc, 2)


def test_n1_echoes_base(sp_factory, qx2):
    sp = sp_factory(qx2, 1)
    galg = sp.realize()
    assert galg.sector_dims == [2]
    table = galg.product[(0, 0)]
    for (i, j), vec in table.items():
        expected = qx2.multiply_basis(i, j)
        assert vec == expected


# -- twists ------------------------------------------------------------------------

def test_hilbert_twist_examples(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    twisted = sp_mod.hilbert_twist(sp)
    c123 = sp.group.index_of("(1 2 3)")
    one = sp.generator(c123)
    assert twisted.multiply(c123, c123, one, one) == [0, -2]
    tau = sp.group.index_of("(1 2)")
    untwisted = sp.realize()
    assert twisted.metric[tau] == ex.mat_scale(-1, untwisted.metric[tau])
    # transversal products unchanged
    t12, t13 = sp.group.index_of("(1 2)"), sp.group.index_of("(1 3)")
    assert twisted.multiply(t12, t13, sp.generator(t12), sp.generator(t13)) == \
        untwisted.multiply(t12, t13, sp.generator(t12), sp.generator(t13))


def test_qw_family(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    assert sp_mod.qw_twist(sp, 1).math_equal(sp.realize())
    assert sp_mod.qw_twist(sp, -1).math_equal(sp_mod.hilbert_twist(sp))
    lam2 = sp_mod.qw_twist(sp, 2)
    tau = sp.group.index_of("(1 2)")
    one_tau = sp.generator(tau)
    assert lam2.multiply(tau, tau, one_tau, one_tau) == [0, 2, 2, 0]
    assert lam2.metric[tau] == ex.mat_scale(2, sp.realize().metric[tau])
    with pytest.raises(ValueError):
        sp_mod.qw_twist(sp, 0)


def test_hilbert_twist_flips_invariant_pairing_on_twisted_class(sp_factory, surface):
    # the action is untouched, so invariants match; the pairing changes sign
    # exactly on the transposition class
    sp = sp_factory(surface, 2)
    plain = gfrob.invariants(sp.realize())
    twisted = gfrob.invariants(sp_mod.hilbert_twist(sp))
    assert plain.dims_by_class() == twisted.dims_by_class()
    assert plain.class_of == twisted.class_of
    tau_class = plain.classes.index([sp.group.index_of("(1 2)")])
    for i in range(plain.dim):
        for j in range(plain.dim):
            expected = -plain.pairing[i][j] if plain.class_of[i] == tau_class else plain.pairing[i][j]
            assert twisted.pairing[i][j] == expected


# -- cocycle data -------------------------------------------------------------------

def test_gamma_data_n2(sp_factory, qx2):
    sp = sp_factory(qx2, 2)
    tau = sp.group.index_of("(1 2)")
    data = sp_mod.gamma_data(sp, tau, tau)
    assert data.tilde == [1, 0]
    assert data.perp == [0, 1, 1, 0]
    assert data.restricted == [0, 1, 1, 0]
    assert data.cocycle == [0, 1, 1, 0]


def test_gamma_data_n3_euler_obstruction(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    c123 = sp.group.index_of("(1 2 3)")
    data = sp_mod.gamma_data(sp, c123, c123)
    assert data.tilde == [0, 2]   # the Euler class 2x in the joint sector


def test_gamma_data_transversal_is_unit(sp_factory, qx2):
    sp = sp_factory(qx2, 3)
    t12, t13 = sp.group.index_of("(1 2)"), sp.group.index_of("(1 3)")
    data = sp_mod.gamma_data(sp, t12, t13)
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
                data = sp_mod.gamma_data(sp, gi, hi)
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
