from fractions import Fraction

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import gfrob
from orbifrob import groups as g
from orbifrob.groups import symmetric_group

from conftest import is_transversal, random_coboundary, trivial_cocycle


def test_validate_trivial_and_normalized():
    G = symmetric_group(3)
    assert cocy.validate(trivial_cocycle(G)).passed
    assert cocy.validate(cocy.normalized_sn_cocycle(3, -1)).passed


def test_validate_flags_perturbed_entry():
    alpha = cocy.normalized_sn_cocycle(3, -1)
    bad = [row[:] for row in alpha.values]
    bad[4][3] = 5
    report = cocy.validate(cocy.Cocycle2(alpha.group, bad))
    assert not report.passed
    assert report["cocycle-law"].witness is not None


_PINNED_REPORTS = [
    (-1, "e", "(1 2)", 2,
     "normalization (alpha(g,e) = alpha(e,g) = 1): FAIL [12 instances] witness: {'g': '(1 2)'}\n"
     "cocycle-law (alpha(g,h) alpha(gh,k) = alpha(g,hk) alpha(h,k)): FAIL [216 instances] "
     "witness: {'g': 'e', 'h': 'e', 'k': '(1 2)', 'lhs': '2', 'rhs': '4'}\n"
     "inverse-symmetry (alpha(g,g^-1) = alpha(g^-1,g)): pass [6 instances]"),
    (-1, "(1 2)", "(1 2 3)", 5,
     "normalization (alpha(g,e) = alpha(e,g) = 1): pass [12 instances]\n"
     "cocycle-law (alpha(g,h) alpha(gh,k) = alpha(g,hk) alpha(h,k)): FAIL [216 instances] "
     "witness: {'g': '(2 3)', 'h': '(1 2)', 'k': '(1 2 3)', 'lhs': '1', 'rhs': '-5'}\n"
     "inverse-symmetry (alpha(g,g^-1) = alpha(g^-1,g)): pass [6 instances]"),
    (-1, "(1 2 3)", "(1 3 2)", 2,
     "normalization (alpha(g,e) = alpha(e,g) = 1): pass [12 instances]\n"
     "cocycle-law (alpha(g,h) alpha(gh,k) = alpha(g,hk) alpha(h,k)): FAIL [216 instances] "
     "witness: {'g': '(2 3)', 'h': '(1 2 3)', 'k': '(1 3 2)', 'lhs': '1', 'rhs': '2'}\n"
     "inverse-symmetry (alpha(g,g^-1) = alpha(g^-1,g)): FAIL [6 instances] "
     "witness: {'g': '(1 2 3)'}"),
    # lambda = 1/3: the scan compares integer numerators, the witness prints the values
    (Fraction(1, 3), "(1 2)", "(1 3)", Fraction(2, 3),
     "normalization (alpha(g,e) = alpha(e,g) = 1): pass [12 instances]\n"
     "cocycle-law (alpha(g,h) alpha(gh,k) = alpha(g,hk) alpha(h,k)): FAIL [216 instances] "
     "witness: {'g': '(2 3)', 'h': '(1 2)', 'k': '(1 3)', 'lhs': '1/3', 'rhs': '2/9'}\n"
     "inverse-symmetry (alpha(g,g^-1) = alpha(g^-1,g)): pass [6 instances]"),
]


def _pinned_id(lam, g, h, value, summary) -> str:
    """pytest's own id of (g, h, value, summary), so the lambda = -1 cases keep
    their names; other lambdas lead the id."""
    parts = [g, h, str(value), summary]   # pytest escapes the newlines itself
    return "-".join(parts if lam == -1 else [f"lambda={lam}"] + parts)


@pytest.mark.parametrize("lam, g, h, value, summary", _PINNED_REPORTS,
                         ids=[_pinned_id(*case) for case in _PINNED_REPORTS])
def test_one_wrong_value_pins_the_whole_report(lam, g, h, value, summary):
    # alpha(g, h) of the S_3 cocycle with alpha(tau, tau) = lam replaced by
    # ``value``; one edit per check key, with every line, instance count and
    # witness pinned
    alpha = cocy.normalized_sn_cocycle(3, lam)
    G = alpha.group
    values = [row[:] for row in alpha.values]
    values[G.index_of(g)][G.index_of(h)] = value
    assert cocy.validate(cocy.Cocycle2(G, values)).summary() == summary


def test_value_wrong_off_the_generators_fails_the_cocycle_law():
    # alpha(x, y) doubled, with x and y non-identity non-generators and y != x^-1:
    # normalization and inverse symmetry still hold, only the law scan sees it
    alpha = cocy.normalized_sn_cocycle(4, 2)
    G = alpha.group
    others = [x for x in G.elements() if x != G.identity and x not in G._generators()]
    pairs = [(x, y) for x in others for y in others if y != G.inv(x)]
    for x, y in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
        values = [row[:] for row in alpha.values]
        values[x][y] = 2 * values[x][y]
        report = cocy.validate(cocy.Cocycle2(G, values))
        assert {c.key for c in report.failures()} == {"cocycle-law"}
        assert report["cocycle-law"].witness is not None


def test_cocycle_rejects_zero_value():
    G = symmetric_group(2)
    with pytest.raises(ValueError):
        cocy.Cocycle2(G, [[1, 1], [1, 0]])


def test_epsilon_trivial_and_normalized():
    G = symmetric_group(3)
    eps = cocy.epsilon(trivial_cocycle(G))
    assert all(eps[a][b] == 1 for a in G.elements() for b in G.elements())
    for n in (2, 3, 4):
        eps = cocy.epsilon(cocy.normalized_sn_cocycle(n, -1))
        Gn = symmetric_group(n)
        assert all(eps[a][b] == 1 for a in Gn.elements() for b in Gn.elements())


def test_epsilon_relations_on_s3():
    # the conjugation-scalar relations, exhaustively, for a nontrivial cocycle
    alpha = random_coboundary(3, seed=23) * cocy.normalized_sn_cocycle(3, 2)
    assert cocy.validate(alpha).passed
    G = alpha.group
    eps = cocy.epsilon(alpha)
    a = alpha.values
    e = G.identity
    F = Fraction
    for x in G.elements():
        assert eps[x][e] == 1 and eps[x][x] == 1
    for g1 in G.elements():
        for g2 in G.elements():
            for h in G.elements():
                assert F(eps[G.mul(g1, g2)][h]) == F(eps[g1][G.conj(g2, h)]) * F(eps[g2][h])
    for k in G.elements():
        for x in G.elements():
            for y in G.elements():
                lhs = F(eps[k][G.mul(x, y)])
                rhs = (F(eps[k][x]) * F(eps[k][y])
                       * F(a[G.conj(k, x)][G.conj(k, y)]) / F(a[x][y]))
                assert lhs == rhs
    for x in G.elements():
        for h in G.elements():
            comm = G.commutator(x, h)
            lhs = F(eps[h][x])
            rhs = (F(eps[G.inv(x)][G.conj(x, h)])
                   * F(a[comm][h]) / F(a[comm][G.conj(h, x)]))
            assert lhs == rhs


@pytest.mark.parametrize("n", [3, 4])
def test_epsilon_on_commuting_pairs(n):
    alpha = random_coboundary(n, seed=100 + n)
    G = alpha.group
    eps = cocy.epsilon(alpha)
    F = Fraction
    for x in G.elements():
        for y in G.elements():
            if G.mul(x, y) != G.mul(y, x):
                continue
            assert F(eps[x][y]) == 1 / F(eps[y][x])
            assert F(eps[x][y]) == F(eps[G.inv(y)][x])
            for z in G.elements():
                if G.mul(x, z) == G.mul(z, x) and G.mul(G.mul(y, z), x) == G.mul(x, G.mul(y, z)):
                    assert F(eps[x][G.mul(y, z)]) == F(eps[x][y]) * F(eps[x][z])


def test_normalized_cocycle_values():
    alpha = cocy.normalized_sn_cocycle(3, -1)
    G = alpha.group
    assert alpha.values[G.index_of("(1 2 3)")][G.index_of("(1 2)")] == -1
    for a in G.elements():
        for b in G.elements():
            if is_transversal(G.perms[a], G.perms[b]):
                assert alpha.values[a][b] == 1
    G2 = symmetric_group(2)
    alpha2 = cocy.normalized_sn_cocycle(2, -1)
    tau = G2.index_of("(1 2)")
    assert alpha2.values[tau][tau] == -1
    with pytest.raises(ValueError):
        cocy.normalized_sn_cocycle(2, 0)


def test_normalized_cocycle_refuses_an_inexact_lambda():
    # a float used to be stored as its binary fraction, and True read as 1
    for lam in (0.1, True):
        with pytest.raises(TypeError, match="cannot interpret"):
            cocy.normalized_sn_cocycle(3, lam)
    exact = cocy.normalized_sn_cocycle(3, Fraction(1, 3)).values
    assert cocy.normalized_sn_cocycle(3, "1/3").values == exact


def test_normalized_cocycle_multiplicative_in_lambda():
    for n in (2, 3, 4):
        lhs = cocy.normalized_sn_cocycle(n, 2) * cocy.normalized_sn_cocycle(n, Fraction(1, 3))
        rhs = cocy.normalized_sn_cocycle(n, Fraction(2, 3))
        assert lhs.values == rhs.values


def test_sign_supertwist():
    sigma = cocy.sign_supertwist(3)
    G = sigma.group
    assert sigma.parity[G.index_of("(1 2)")] == 1
    assert sigma.parity[G.index_of("(1 2 3)")] == 0
    assert sigma.parity[G.identity] == 0
    sigma.validate_homomorphism()
    with pytest.raises(ValueError):
        bad = cocy.SuperTwist(G, [0, 1, 0, 0, 0, 0])
        bad.validate_homomorphism()


def test_twisted_group_ring_is_g_frobenius():
    for n in (2, 3):
        G = symmetric_group(n)
        for alpha in (None, cocy.normalized_sn_cocycle(n, -1), random_coboundary(n, seed=n)):
            for sigma in (None, cocy.sign_supertwist(n)):
                ring = cocy.twisted_group_ring(G, alpha, sigma)
                report = gfrob.verify_axioms(ring)
                assert report.passed, (n, report.failures()[0].key)


def test_twisted_ring_metric_value():
    ring = cocy.twisted_group_ring(symmetric_group(2), cocy.normalized_sn_cocycle(2, -1))
    tau = ring.group.index_of("(1 2)")
    assert ring.metric[tau] == {0: {0: -1}}


def test_super_ring_matches_tensor_decomposition():
    for n in (2, 3):
        G = symmetric_group(n)
        alpha = cocy.normalized_sn_cocycle(n, -1)
        sigma = cocy.sign_supertwist(n)
        combined = cocy.twisted_group_ring(G, alpha, sigma)
        split = gfrob.tensor_hat(cocy.twisted_group_ring(G, alpha),
                                 cocy.twisted_group_ring(G, None, sigma))
        assert combined.math_equal(split)


def test_invalid_cocycle_rejected_by_ring():
    G = symmetric_group(2)
    bad = cocy.Cocycle2(G, [[1, 1], [2, 1]])  # breaks alpha(e,g) = 1
    with pytest.raises(ValueError):
        cocy.twisted_group_ring(G, bad)


def test_ring_refuses_a_cocycle_scan_past_the_budget():
    # Z/400 as a table: 64M triples, refused before k[G] is built
    n = 400
    G = g.FiniteGroup([str(i) for i in range(n)], [[(i + j) % n for j in range(n)] for i in range(n)])
    with pytest.raises(gfrob.BudgetExceededError, match=f"~{n ** 3} group triples "
                                                       f"\\(budget {gfrob.VERIFY_BUDGET}\\)") as err:
        cocy.twisted_group_ring(G)
    assert err.value.estimate == n ** 3
    with pytest.raises(gfrob.BudgetExceededError):
        cocy.twisted_group_ring(symmetric_group(6))   # 373M triples
    cocy.refuse_scan(368)   # 368^3 < VERIFY_BUDGET < 369^3
    with pytest.raises(gfrob.BudgetExceededError):
        cocy.refuse_scan(369)


def test_json_round_trip(tmp_path):
    alpha = cocy.normalized_sn_cocycle(3, Fraction(-2, 3))
    path = tmp_path / "alpha.json"
    ex.save_json(cocy.to_json_dict(alpha), path)
    loaded = cocy.from_json_dict(ex.load_json(path))
    assert loaded.values == alpha.values
    assert loaded.group == alpha.group
    ex.save_json(cocy.to_json_dict(loaded), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
