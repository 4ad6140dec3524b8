import copy

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import gfrob
from orbifrob import symprod as sp_mod
from orbifrob.groups import symmetric_group


def test_group_ring_passes_all_axioms(s3_ring):
    report = gfrob.verify_axioms(s3_ring)
    assert report.passed
    assert {c.key for c in report.checks} == {"structure", "a", "b", "c", "d", "i", "ii", "iii", "iv"}


def test_broken_metric_fails_axiom_d(s3_ring):
    broken = copy.deepcopy(s3_ring)
    tau = broken.group.index_of("(1 2)")
    broken.metric[tau] = [[2]]
    report = gfrob.verify_axioms(broken)
    assert not report["d"].passed
    assert report["d"].witness is not None


def test_second_quantization_passes(sp_factory, qx2):
    galg = sp_factory(qx2, 2).realize()
    assert gfrob.verify_axioms(galg).passed


def test_malformed_shapes_rejected(s3_ring):
    with pytest.raises(ValueError):
        gfrob.GFrobeniusAlgebra(
            name="bad",
            group=s3_ring.group,
            sector_dims=[1] * 6,
            sector_degrees=[[0]] * 6,
            sector_parities=[[0]] * 6,
            sector_labels=[["1"]] * 6,
            product=s3_ring.product,
            action=s3_ring.action,
            metric=[[[1]]] * 5,  # one block short
            character=[1] * 6,
            unit=[1],
        )


def test_verify_budget_guard(s3_ring):
    with pytest.raises(gfrob.BudgetExceededError):
        gfrob.verify_axioms(s3_ring, budget=10)


def test_tensor_hat_with_trivial_ring_is_identity(sp_factory, qx2):
    sp2 = sp_factory(qx2, 2).realize()
    trivial = cocy.twisted_group_ring(sp2.group)
    assert gfrob.tensor_hat(sp2, trivial).math_equal(sp2)
    assert gfrob.tensor_hat(trivial, sp2).math_equal(sp2)


def test_tensor_hat_dims_multiply(sp_factory, qx2):
    X = sp_factory(qx2, 2).realize()
    XX = gfrob.tensor_hat(X, X)
    assert XX.sector_dims == [d * d for d in X.sector_dims]


def test_tensor_hat_multiplies_cocycles():
    G = symmetric_group(3)
    a = cocy.normalized_sn_cocycle(3, 2)
    b = cocy.normalized_sn_cocycle(3, -1)
    lhs = gfrob.tensor_hat(cocy.twisted_group_ring(G, a), cocy.twisted_group_ring(G, b))
    rhs = cocy.twisted_group_ring(G, a * b)
    assert lhs.math_equal(rhs)


def test_tensor_hat_associative_up_to_reindexing():
    # row-major index fusion makes both bracketings literally equal
    G = symmetric_group(3)
    X = cocy.twisted_group_ring(G, cocy.normalized_sn_cocycle(3, 2))
    Y = cocy.twisted_group_ring(G, None, cocy.sign_supertwist(3))
    Z = cocy.twisted_group_ring(G, cocy.normalized_sn_cocycle(3, -1))
    left = gfrob.tensor_hat(gfrob.tensor_hat(X, Y), Z)
    right = gfrob.tensor_hat(X, gfrob.tensor_hat(Y, Z))
    assert left.math_equal(right)
    assert left.sector_labels == right.sector_labels


def test_twisted_rings_verify_over_s4():
    # the (alpha, sigma) matrix over S_4, supertrace axiom included
    G = symmetric_group(4)
    for alpha in (None, cocy.normalized_sn_cocycle(4, -1)):
        for sigma in (None, cocy.sign_supertwist(4)):
            ring = cocy.twisted_group_ring(G, alpha, sigma)
            assert gfrob.verify_axioms(ring).passed
            twisted = gfrob.twist(ring, cocy.normalized_sn_cocycle(4, 2), sigma)
            assert gfrob.verify_axioms(twisted).passed


def test_tensor_hat_group_mismatch():
    X = cocy.twisted_group_ring(symmetric_group(2))
    Y = cocy.twisted_group_ring(symmetric_group(3))
    with pytest.raises(ValueError):
        gfrob.tensor_hat(X, Y)


def test_twist_trivial_is_identity(s3_ring):
    assert gfrob.twist(s3_ring).math_equal(s3_ring)
    assert gfrob.twist(s3_ring, cocy.trivial_cocycle(s3_ring.group),
                       cocy.zero_supertwist(s3_ring.group)).math_equal(s3_ring)


def test_twist_k_s2_metric_sign():
    ring = cocy.twisted_group_ring(symmetric_group(2))
    twisted = gfrob.twist(ring, cocy.normalized_sn_cocycle(2, -1))
    tau = ring.group.index_of("(1 2)")
    assert twisted.metric[tau] == [[-1]]
    assert twisted.metric[ring.group.identity] == ring.metric[ring.group.identity]


def test_twist_matches_ring_construction():
    # twisting the plain group ring reproduces the twisted ring exactly
    for n in (2, 3):
        G = symmetric_group(n)
        alpha = cocy.normalized_sn_cocycle(n, -1)
        sigma = cocy.sign_supertwist(n)
        assert gfrob.twist(cocy.twisted_group_ring(G), alpha, sigma).math_equal(
            cocy.twisted_group_ring(G, alpha, sigma))


def test_twist_is_tensoring_with_the_twisted_ring(sp_factory, qx2):
    # the twist is realized on the same sector spaces as the tensor product
    X = sp_factory(qx2, 2).realize()
    alpha = cocy.normalized_sn_cocycle(2, -1)
    sigma = cocy.sign_supertwist(2)
    ring = cocy.twisted_group_ring(X.group, alpha, sigma)
    assert gfrob.twist(X, alpha, sigma).math_equal(gfrob.tensor_hat(X, ring))


def test_twist_group_action(sp_factory, qx2):
    X = sp_factory(qx2, 2).realize()
    alpha = cocy.normalized_sn_cocycle(2, 2)
    sigma = cocy.sign_supertwist(2)
    assert gfrob.twist(gfrob.twist(X, alpha), alpha.inverse()).math_equal(X)
    assert gfrob.twist(gfrob.twist(X, None, sigma), None, sigma).math_equal(X)
    assert gfrob.verify_axioms(gfrob.twist(X, alpha, sigma)).passed


def test_twist_factors_into_commuting_parts(sp_factory, qx2):
    X = sp_factory(qx2, 2).realize()
    alpha = cocy.normalized_sn_cocycle(2, -1)
    sigma = cocy.sign_supertwist(2)
    combined = gfrob.twist(X, alpha, sigma)
    assert combined.math_equal(gfrob.twist(gfrob.twist(X, alpha), None, sigma))
    assert combined.math_equal(gfrob.twist(gfrob.twist(X, None, sigma), alpha))


def test_invariant_product_is_associative(sp_factory, qx2, s3_ring):
    for X in (sp_factory(qx2, 2).realize(), s3_ring):
        inv = gfrob.invariants(X)

        def mul(row, j):
            out = {}
            for p, c in row.items():
                for q, v in inv.product.get((p, j), {}).items():
                    out[q] = out.get(q, 0) + c * v
            return {q: v for q, v in out.items() if v != 0}

        def mul_right(i, row):
            out = {}
            for p, c in row.items():
                for q, v in inv.product.get((i, p), {}).items():
                    out[q] = out.get(q, 0) + c * v
            return {q: v for q, v in out.items() if v != 0}

        for i in range(inv.dim):
            for j in range(inv.dim):
                for k in range(inv.dim):
                    lhs = mul(inv.product.get((i, j), {}), k)
                    rhs = mul_right(i, inv.product.get((j, k), {}))
                    assert lhs == rhs


def test_twist_rejects_invalid_cocycle(s3_ring):
    bad = cocy.Cocycle2(s3_ring.group, [[1] * 6, [1] * 6, [1, 1, 3, 1, 1, 1],
                                        [1] * 6, [1] * 6, [1] * 6])
    with pytest.raises(ValueError):
        gfrob.twist(s3_ring, bad)


def test_invariants_of_group_ring(s3_ring):
    inv = gfrob.invariants(s3_ring)
    assert inv.dim == 3
    assert sorted(inv.dims_by_class().values()) == [1, 1, 1]
    assert inv.commutative
    # class sums square to combinations with the right support: spot check
    # the transposition class sum squared has an identity component 3
    tau_class = next(i for i in range(inv.dim)
                     if s3_ring.group.index_of("(1 2)") in inv.basis[i])
    row = inv.product[(tau_class, tau_class)]
    assert row


def test_invariants_of_second_quantization(sp_factory, qx2):
    inv = gfrob.invariants(sp_factory(qx2, 2).realize())
    assert inv.dim == 5
    assert inv.dims_by_class() == {"e": 3, "(1 2)": 2}
    assert inv.commutative
    assert inv.pairing_nondegenerate


def test_invariants_product_commutative_everywhere(sp_factory, qx2, surface, s3_ring):
    for X in (sp_factory(qx2, 2).realize(), sp_factory(surface, 2).realize(), s3_ring):
        assert gfrob.invariants(X).commutative


def test_invariants_restricted_pairing_is_invariant(sp_factory, qx2, surface, s3_ring):
    # eta(uv, w) = eta(u, vw) survives the restriction to the invariant basis
    for X in (sp_factory(qx2, 2).realize(), sp_factory(surface, 2).realize(), s3_ring):
        inv = gfrob.invariants(X)
        assert inv.pairing_nondegenerate
        for i in range(inv.dim):
            for j in range(inv.dim):
                for k in range(inv.dim):
                    lhs = sum(c * inv.pairing[p][k]
                              for p, c in inv.product.get((i, j), {}).items())
                    rhs = sum(c * inv.pairing[i][p]
                              for p, c in inv.product.get((j, k), {}).items())
                    assert lhs == rhs


def test_self_action_is_identity_for_second_quantization(sp_factory, qx2):
    # chi = 1 forces phi_g to fix its own sector pointwise
    X = sp_factory(qx2, 2).realize()
    for g in X.group.elements():
        assert X.action[(g, g)] == [[1 if i == j else 0 for j in range(X.sector_dims[g])]
                                    for i in range(X.sector_dims[g])]


def test_invariants_reject_non_representation(s3_ring):
    broken = copy.deepcopy(s3_ring)
    g1 = s3_ring.group.index_of("(1 2)")
    g2 = s3_ring.group.index_of("(1 3)")
    broken.action[(g1, g2)] = [[5]]
    with pytest.raises(ValueError):
        gfrob.invariants(broken)


def _reference_product(X, inv):
    """Invariant product table by echelon-solving [basis columns | target] per pair."""
    G = X.group
    offsets, pos = {}, 0
    for g in G.elements():
        offsets[g] = pos
        pos += X.sector_dims[g]

    def flat(elem):
        out = [0] * pos
        for g, vec in elem.items():
            out[offsets[g]: offsets[g] + len(vec)] = vec
        return out

    columns = [flat(b) for b in inv.basis]
    product = {}
    for i, u in enumerate(inv.basis):
        for j, v in enumerate(inv.basis):
            uv = [0] * pos
            for g, ug in u.items():
                for h, vh in v.items():
                    gh = G.mul(g, h)
                    for k, x in enumerate(X.multiply(g, h, ug, vh)):
                        uv[offsets[gh] + k] += x
            aug = [[col[r] for col in columns] + [uv[r]] for r in range(pos)]
            ech, pivots = ex.echelon(aug)
            assert len(columns) not in pivots, "product left the invariant subspace"
            row = {c: ech[r][len(columns)] for r, c in enumerate(pivots)
                   if ech[r][len(columns)] != 0}
            if row:
                product[(i, j)] = row
    return product


def test_invariant_product_matches_echelon_route(sp_factory, qx2, surface, s3_ring):
    suite = [sp_factory(qx2, 2).realize(), sp_factory(qx2, 3).realize(),
             sp_factory(surface, 2).realize(), s3_ring,
             sp_mod.hilbert_twist(sp_factory(qx2, 3))]
    for X in suite:
        inv = gfrob.invariants(X)
        assert inv.product == _reference_product(X, inv), X.name


def test_invariants_reject_product_outside_subspace(s3_ring):
    broken = copy.deepcopy(s3_ring)
    e = broken.group.identity
    tau = broken.group.index_of("(1 2)")
    broken.product[(e, tau)] = {(0, 0): {0: 2}}
    with pytest.raises(ValueError, match="product left the invariant subspace"):
        gfrob.invariants(broken)


def test_json_round_trip(tmp_path, sp_factory, qx2):
    X = sp_factory(qx2, 2).realize()
    path = tmp_path / "galg.json"
    gfrob.save(X, path)
    loaded = gfrob.load(path)
    assert loaded.math_equal(X)
    assert loaded.sector_labels == X.sector_labels
    gfrob.save(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def klein_group():
    return gfrob.FiniteGroup(["e", "a", "b", "ab"],
                             [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def test_non_symmetric_group_rings_verify():
    # the verifier is not S_n specific: Klein four-group, super twist included
    G = klein_group()
    sigma = cocy.SuperTwist(G, [0, 1, 0, 1])
    for ring in (cocy.twisted_group_ring(G), cocy.twisted_group_ring(G, None, sigma)):
        assert gfrob.verify_axioms(ring).passed
    assert gfrob.invariants(cocy.twisted_group_ring(G)).dim == 4  # abelian: everything


def test_tensor_hat_guards_mismatched_supergradings():
    G = klein_group()
    X = cocy.twisted_group_ring(G, None, cocy.SuperTwist(G, [0, 1, 0, 1]))
    Y = cocy.twisted_group_ring(G, None, cocy.SuperTwist(G, [0, 0, 1, 1]))
    assert gfrob.verify_axioms(gfrob.tensor_hat(X, X)).passed
    with pytest.raises(ValueError):
        gfrob.tensor_hat(X, Y)


def test_json_explicit_table_group(tmp_path):
    # a non-symmetric group survives the document round trip
    table = [[0, 1], [1, 0]]
    G = gfrob.FiniteGroup(["e", "g"], table)
    ring = cocy.twisted_group_ring(G)
    path = tmp_path / "c2.json"
    gfrob.save(ring, path)
    loaded = gfrob.load(path)
    assert loaded.group.table == table
    assert loaded.math_equal(ring)
