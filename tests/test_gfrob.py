import copy
import itertools
from fractions import Fraction

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import gfrob
from orbifrob import symprod as sp_mod
from orbifrob.groups import FiniteGroup, symmetric_group

from conftest import (dense_echelon, dense_mat_mul, dense_rank, mat_zero, random_coboundary,
                      trivial_cocycle, zero_supertwist)


def test_group_ring_passes_all_axioms(s3_ring):
    report = gfrob.verify_axioms(s3_ring)
    assert report.passed
    assert {c.key for c in report.checks} == {"structure", "a", "b", "c", "d", "i", "ii", "iii", "iv"}


def test_broken_metric_fails_axiom_d(s3_ring):
    broken = copy.deepcopy(s3_ring)
    tau = broken.group.index_of("(1 2)")
    broken.metric[tau] = {0: {0: 2}}
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
            metric=[{0: {0: 1}}] * 5,  # one block short
            character=[1] * 6,
            unit=[1],
        )


def test_missing_action_block_outranks_a_degenerate_metric_block(s3_ring):
    # the structure check reports a missing action block over an earlier
    # metric witness, with n instances, and no other check runs
    X = copy.deepcopy(s3_ring)
    tau = X.group.index_of("(1 2)")
    X.metric[tau] = {}
    del X.action[tau, tau]
    assert gfrob.verify_axioms(X).summary() == (
        "structure (shapes, metric blocks, action is a representation): FAIL [6 instances] "
        "witness: {'g': '(1 2)', 'h': '(1 2)', 'issue': 'missing action block'}")


def test_structure_flags_a_metric_block_with_dependent_nonzero_rows(sp_factory, qx2):
    # the (1 2) sector of Sym^2(Q[x]/x^2) has dimension 2; its block stays
    # symmetric, so only the rank tells it is degenerate
    X = copy.deepcopy(sp_factory(qx2, 2).realize())
    tau = X.group.index_of("(1 2)")
    X.metric[tau] = {0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}
    report = gfrob.verify_axioms(X)
    assert report["structure"].witness == {"g": "(1 2)", "issue": "metric block degenerate",
                                           "rank": 1}


def test_invariant_pairing_with_dependent_nonzero_rows_is_degenerate():
    # Q[x]/x^2 over the trivial group, paired by a rank-1 form with no zero row
    one = FiniteGroup(["e"], [[0]])
    X = gfrob.GFrobeniusAlgebra(
        name="degenerate", group=one, sector_dims=[2], sector_degrees=[[0, 2]],
        sector_parities=[[0, 0]], sector_labels=[["1", "x"]],
        product={(0, 0): {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}},
        action={(0, 0): {0: {0: 1}, 1: {1: 1}}},
        metric=[{0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}], character=[1], unit=[1, 0],
    )
    inv = gfrob.invariants(X)
    assert inv.dim == 2
    assert inv.pairing_nondegenerate is False


def test_verify_budget_guard(s3_ring):
    with pytest.raises(gfrob.BudgetExceededError):
        gfrob.verify_axioms(s3_ring, budget=10)


def test_sym4_surface_verifies_exhaustively_within_the_default_budget(surface):
    # 840 basis elements; every basis triple is decided, most of them as 0 = 0
    X = sp_mod.SymmetricProductAlgebra(surface, 4).realize(budget=840 ** 2)
    report = gfrob.verify_axioms(X)
    assert report.passed
    assert report["a"].instances == 840 ** 3


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
    assert gfrob.twist(s3_ring, trivial_cocycle(s3_ring.group),
                       zero_supertwist(s3_ring.group)).math_equal(s3_ring)


def test_twist_k_s2_metric_sign():
    ring = cocy.twisted_group_ring(symmetric_group(2))
    twisted = gfrob.twist(ring, cocy.normalized_sn_cocycle(2, -1))
    tau = ring.group.index_of("(1 2)")
    assert twisted.metric[tau] == {0: {0: -1}}
    assert twisted.metric[ring.group.identity] == ring.metric[ring.group.identity]


def reference_twisted_ring(G, alpha, sigma) -> gfrob.GFrobeniusAlgebra:
    """k^(alpha,sigma)[G] written entry by entry: product alpha(g,h), pairing
    alpha(g,g^-1), action (-1)^{sigma(g)sigma(h)} eps(g,h), character
    (-1)^{sigma(g)}, sector parity sigma(g)."""
    n = G.order
    a = (alpha or trivial_cocycle(G)).values
    eps = cocy.epsilon(alpha or trivial_cocycle(G))
    par = (sigma or zero_supertwist(G)).parity
    return gfrob.GFrobeniusAlgebra(
        name="reference", group=G, sector_dims=[1] * n, sector_degrees=[[0] for _ in range(n)],
        sector_parities=[[par[g]] for g in range(n)], sector_labels=[["1"] for _ in range(n)],
        product={(g, h): {(0, 0): {0: a[g][h]}} for g in range(n) for h in range(n)},
        action={(g, h): {0: {0: -eps[g][h] if par[g] * par[h] else eps[g][h]}}
                for g in range(n) for h in range(n)},
        metric=[{0: {0: a[g][G.inv(g)]}} for g in range(n)],
        character=[-1 if par[g] else 1 for g in range(n)], unit=[1])


def test_twist_matches_ring_construction():
    # the twisted ring, k[G] twisted, against the ring written out entry by entry
    for n in (2, 3, 4):
        G = symmetric_group(n)
        for alpha in (None, cocy.normalized_sn_cocycle(n, -1), cocy.normalized_sn_cocycle(n, 2),
                      random_coboundary(n, seed=7 * n)):
            for sigma in (None, cocy.sign_supertwist(n)):
                ring = cocy.twisted_group_ring(G, alpha, sigma)
                assert ring.name == "k^(alpha,sigma)[S]"
                assert ring.math_equal(reference_twisted_ring(G, alpha, sigma))


def reference_twist(X, alpha, sigma) -> gfrob.GFrobeniusAlgebra:
    """twist(X, alpha, sigma) written entry by entry on X's own indices: product
    times alpha(g,h), action times (-1)^{sigma(g)sigma(h)} alpha(g,h) /
    alpha(ghg^-1,g), metric times alpha(g,g^-1), character times
    (-1)^{sigma(g)}, parities shifted by sigma(g)."""
    G = X.group
    a = (alpha or trivial_cocycle(G)).values
    par = (sigma or zero_supertwist(G)).parity

    def phi(g, h):
        return (-1 if par[g] * par[h] else 1) * Fraction(a[g][h]) / Fraction(a[G.conj(g, h)][g])

    return gfrob.GFrobeniusAlgebra(
        name="reference", group=G, sector_dims=list(X.sector_dims),
        sector_degrees=copy.deepcopy(X.sector_degrees),
        sector_parities=[[(p + par[g]) % 2 for p in ps] for g, ps in enumerate(X.sector_parities)],
        sector_labels=copy.deepcopy(X.sector_labels),
        product={(g, h): {ij: {k: a[g][h] * v for k, v in row.items()} for ij, row in table.items()}
                 for (g, h), table in X.product.items()},
        action={(g, h): {j: {i: phi(g, h) * v for i, v in col.items()} for j, col in block.items()}
                for (g, h), block in X.action.items()},
        metric=[{i: {j: a[g][G.inv(g)] * v for j, v in row.items()} for i, row in block.items()}
                for g, block in enumerate(X.metric)],
        character=[-c if par[g] else c for g, c in enumerate(X.character)],
        unit=list(X.unit))


def test_twist_matches_entry_by_entry_reference(sp_factory, qx2):
    # the twist, a tensor product with k^(alpha,sigma)[G], keeps X's indices and keys;
    # a coboundary on S_3 has nontrivial conjugation scalars
    cases = [(2, cocy.normalized_sn_cocycle(2, 2), cocy.sign_supertwist(2)),
             (2, random_coboundary(2, seed=11), None),
             (3, random_coboundary(3, seed=13), cocy.sign_supertwist(3))]
    for n, alpha, sigma in cases:
        X = sp_factory(qx2, n).realize()
        twisted = gfrob.twist(X, alpha, sigma)
        assert twisted.math_equal(reference_twist(X, alpha, sigma)), n
        assert twisted.sector_labels == X.sector_labels
        assert twisted.name == f"{X.name} twisted"


def test_twist_accepts_mixed_parity_sectors_that_tensor_hat_refuses():
    # Lambda[theta] in the identity sector of Z/2, the other sector empty
    G = FiniteGroup(["0", "1"], [[0, 1], [1, 0]])
    X = gfrob.GFrobeniusAlgebra(
        name="Lambda[theta]", group=G, sector_dims=[2, 0], sector_degrees=[[0, 0], []],
        sector_parities=[[0, 1], []], sector_labels=[["1", "theta"], []],
        product={(0, 0): {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}},
        action={(0, 0): {0: {0: 1}, 1: {1: 1}}, (1, 0): {0: {0: 1}, 1: {1: 1}},
                (0, 1): {}, (1, 1): {}},
        metric=[{0: {1: 1}, 1: {0: 1}}, {}], character=[1, 1], unit=[1, 0])
    sigma = cocy.SuperTwist(G, [0, 1])
    twisted = gfrob.twist(X, None, sigma)
    assert gfrob.verify_axioms(twisted).passed
    assert twisted.product.keys() == {(0, 0)} and twisted.character == [1, -1]
    with pytest.raises(ValueError, match="differently supergraded"):
        gfrob.tensor_hat(X, cocy.twisted_group_ring(G, None, sigma))


@pytest.mark.parametrize("key, row, issue", [
    ((-1, 0), {0: 1}, "entry"), ((0, -1), {0: 1}, "entry"), ((0, 0), {-1: 1}, "value")])
def test_negative_product_index_rejected_at_construction(key, row, issue):
    with pytest.raises(ValueError, match=f"product {issue} out of range in sector pair"):
        gfrob.GFrobeniusAlgebra(
            name="bad", group=FiniteGroup(["e"], [[0]]), sector_dims=[1], sector_degrees=[[0]],
            sector_parities=[[0]], sector_labels=[["1"]], product={(0, 0): {key: row}},
            action={(0, 0): {0: {0: 1}}}, metric=[{0: {0: 1}}], character=[1], unit=[1])


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
                    lhs = sum(c * inv.pairing.get(p, {}).get(k, 0)
                              for p, c in inv.product.get((i, j), {}).items())
                    rhs = sum(c * inv.pairing.get(i, {}).get(p, 0)
                              for p, c in inv.product.get((j, k), {}).items())
                    assert lhs == rhs


def test_self_action_is_identity_for_second_quantization(sp_factory, qx2):
    # chi = 1 forces phi_g to fix its own sector pointwise
    X = sp_factory(qx2, 2).realize()
    for g in X.group.elements():
        assert X.action[(g, g)] == {j: {j: 1} for j in range(X.sector_dims[g])}


def test_invariants_reject_non_representation(s3_ring):
    broken = copy.deepcopy(s3_ring)
    g1 = s3_ring.group.index_of("(1 2)")
    g2 = s3_ring.group.index_of("(1 3)")
    broken.action[(g1, g2)] = {0: {0: 5}}
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
            ech, pivots = dense_echelon(aug)
            assert len(columns) not in pivots, "product left the invariant subspace"
            row = {c: ech[r][len(columns)] for r, c in enumerate(pivots)
                   if ech[r][len(columns)] != 0}
            if row:
                product[(i, j)] = row
    return product


def test_invariant_product_matches_echelon_route(sp_factory, qx2, surface, s3_ring):
    suite = [sp_factory(qx2, 2).realize(), sp_factory(qx2, 3).realize(),
             sp_factory(surface, 2).realize(), s3_ring,
             gfrob.twist(sp_factory(qx2, 3).realize(), cocy.normalized_sn_cocycle(3, -1))]
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


def _dense_invariants(X):
    """The dense projector, echelon and product route that the sparse one replaced.

    Returns (basis, class_of, classes, product, pairing, nondegenerate,
    commutative) with a dense pairing matrix.
    """
    G = X.group
    classes = G.conjugacy_classes()
    scale = Fraction(1, G.order)
    basis, class_of, pivot_at = [], [], []
    for ci, cls in enumerate(classes):
        offsets, size = {}, 0
        for g in cls:
            offsets[g] = size
            size += X.sector_dims[g]
        if size == 0:
            continue
        proj = mat_zero(size, size)
        for k in G.elements():
            for h in cls:
                ro, co = offsets[G.conj(k, h)], offsets[h]
                for j, col in X.action[(k, h)].items():
                    for i, v in col.items():
                        proj[ro + i][co + j] += v * scale
        proj = [[ex.norm(v) for v in row] for row in proj]
        if dense_mat_mul(proj, proj) != proj:
            raise ValueError(f"projector on class of {G.labels[cls[0]]} is not idempotent; "
                             "the action table is not a representation")
        ech, pivots = dense_echelon(proj)
        position = [(g, k) for g in cls for k in range(X.sector_dims[g])]
        for r, col in enumerate(pivots):
            segs = {g: ech[r][offsets[g]: offsets[g] + X.sector_dims[g]] for g in cls}
            basis.append({g: seg for g, seg in segs.items() if any(x != 0 for x in seg)})
            class_of.append(ci)
            pivot_at.append(position[col])

    def add(u, v):
        return [ex.norm(a + b) for a, b in zip(u, v)]

    def coordinates(elem):
        coords = {r: elem[g][k] for r, (g, k) in enumerate(pivot_at)
                  if g in elem and elem[g][k] != 0}
        rebuilt = {}
        for r, c in coords.items():
            for g, seg in basis[r].items():
                term = [ex.norm(c * x) for x in seg]
                rebuilt[g] = add(rebuilt[g], term) if g in rebuilt else term
        if {g: v for g, v in rebuilt.items() if any(x != 0 for x in v)} != elem:
            raise ValueError("product left the invariant subspace")
        return coords

    def mult(u, v):
        out = {}
        for g, ug in u.items():
            for h, vh in v.items():
                gh, w = G.mul(g, h), X.multiply(g, h, ug, vh)
                out[gh] = add(out[gh], w) if gh in out else w
        return {g: v for g, v in out.items() if any(x != 0 for x in v)}

    product, commutative = {}, True
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            row = coordinates(mult(u, v))
            if row:
                product[(i, j)] = row
            if i < j and mult(v, u) != mult(u, v):
                commutative = False
    pairing = [[ex.norm(sum(X.pair(g, ug, v[G.inv(g)]) for g, ug in u.items() if G.inv(g) in v))
                for v in basis] for u in basis]
    nondeg = dense_rank(pairing) == len(basis) if basis else True
    return basis, class_of, classes, product, pairing, nondeg, commutative


def _typed(x):
    return (type(x), x)


def _invariant_suite(sp_factory, ground, qx2, surface):
    """(name, algebra, expected error) over Sym^n plain, lambda = -1 and lambda = -1 super."""
    suite = []
    for base, top in ((ground, 3), (qx2, 4), (surface, 3)):
        for n in range(1, top + 1):
            X = sp_factory(base, n).realize()
            alpha = cocy.normalized_sn_cocycle(n, -1)
            suite += [(f"{base.name}^{n}", X, None),
                      (f"{base.name}^{n} lambda=-1", gfrob.twist(X, alpha), None),
                      (f"{base.name}^{n} lambda=-1 super",
                       gfrob.twist(X, alpha, cocy.sign_supertwist(n)), None)]
    for n in (3, 4):
        suite.append((f"k[S_{n}]", cocy.twisted_group_ring(symmetric_group(n)), None))
    ring = cocy.twisted_group_ring(symmetric_group(3))
    tau, tau2 = ring.group.index_of("(1 2)"), ring.group.index_of("(1 3)")
    not_a_rep = copy.deepcopy(ring)
    not_a_rep.action[(tau, tau2)] = {0: {0: 5}}
    leaks = copy.deepcopy(ring)
    leaks.product[(ring.group.identity, tau)] = {(0, 0): {0: 2}}
    suite += [("not a representation", not_a_rep, "is not idempotent"),
              ("product leaks", leaks, "product left the invariant subspace")]
    return suite


def test_sparse_invariants_match_dense_reference(sp_factory, ground, qx2, surface):
    for name, X, error in _invariant_suite(sp_factory, ground, qx2, surface):
        if error is not None:
            with pytest.raises(ValueError, match=error):
                _dense_invariants(X)
            with pytest.raises(ValueError, match=error):
                gfrob.invariants(X)
            continue
        basis, class_of, classes, product, pairing, nondeg, commutative = _dense_invariants(X)
        inv = gfrob.invariants(X)
        assert [{g: [_typed(x) for x in seg] for g, seg in elem.items()} for elem in inv.basis] == \
            [{g: [_typed(x) for x in seg] for g, seg in elem.items()} for elem in basis], name
        assert (inv.class_of, inv.classes) == (class_of, classes), name
        assert {key: {k: _typed(c) for k, c in row.items()} for key, row in inv.product.items()} == \
            {key: {k: _typed(c) for k, c in row.items()} for key, row in product.items()}, name
        assert [[_typed(inv.pairing.get(i, {}).get(j, 0)) for j in range(inv.dim)]
                for i in range(inv.dim)] == [[_typed(x) for x in row] for row in pairing], name
        assert all(v != 0 for row in inv.pairing.values() for v in row.values()), name
        assert (inv.pairing_nondegenerate, inv.commutative) == (nondeg, commutative), name


def test_matrix_algebra_invariants_are_not_commutative():
    # M_2(k) over the trivial group: basis E_ab at index 2a + b, E_ab E_cd = [b = c] E_ad,
    # trace pairing eta(E_ab, E_cd) = [b = c][a = d]
    one = FiniteGroup(["e"], [[0]])
    product = {(2 * a + b, 2 * b + d): {2 * a + d: 1} for a in (0, 1) for b in (0, 1) for d in (0, 1)}
    m2 = gfrob.GFrobeniusAlgebra(
        name="M2", group=one, sector_dims=[4], sector_degrees=[[0] * 4],
        sector_parities=[[0] * 4], sector_labels=[["E00", "E01", "E10", "E11"]],
        product={(0, 0): product}, action={(0, 0): {j: {j: 1} for j in range(4)}},
        metric=[{2 * a + b: {2 * b + a: 1} for a in (0, 1) for b in (0, 1)}],
        character=[1], unit=[1, 0, 0, 1],
    )
    assert gfrob.verify_axioms(m2)["a"].passed
    inv = gfrob.invariants(m2)
    assert inv.dim == 4
    assert inv.commutative is False
    assert inv.pairing_nondegenerate
    assert inv.product[(1, 2)] == {0: 1} and inv.product[(2, 1)] == {3: 1}


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


def test_twist_refuses_a_different_sector_uniform_supergrading():
    # X = k[V4] super-graded by a homomorphism p, twisted by sigma: with both
    # nontrivial and p != sigma the interchange signs break check b, so the
    # twist is refused as tensor_hat refuses it; the other pairs verify
    G = klein_group()
    homs = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]]
    refused = 0
    for p, s in itertools.product(homs, homs):
        X = cocy.twisted_group_ring(G, None, cocy.SuperTwist(G, p))
        sigma = cocy.SuperTwist(G, s)
        if any(p) and any(s) and p != s:
            with pytest.raises(ValueError, match="different supergrading"):
                gfrob.twist(X, None, sigma)
            refused += 1
        else:
            assert gfrob.verify_axioms(gfrob.twist(X, None, sigma)).passed, (p, s)
    assert refused == 6


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


@pytest.mark.parametrize("field, entry, position, value", [
    ("product", 0, 4, 1),     # product index k past the one-dim target sector
    ("product", 0, 0, 6),     # sector index past the group order
    ("metric", 0, 0, -1),     # negative sector index
    ("metric", 0, 2, 1),      # metric column past the inverse sector
    ("unit", 0, 0, 1),        # unit index past the identity sector
])
def test_from_json_rejects_out_of_range_indices(s3_ring, field, entry, position, value):
    doc = gfrob.to_json_dict(s3_ring)
    doc[field][entry][position] = value
    with pytest.raises(ValueError, match="is not in range"):
        gfrob.from_json_dict(doc)


def test_action_wrong_only_at_a_non_generator_fails_structure(s3_ring):
    # phi_g on A_h scaled by 2, with g no greedy generator and h neither e nor g:
    # a scan of the generators' blocks alone would miss it
    G = s3_ring.group
    doc = gfrob.to_json_dict(s3_ring)
    g = next(x for x in G.elements() if x not in G._generators() + [G.identity])
    h = next(x for x in G.elements() if x not in (G.identity, g))
    entry = next(e for e in doc["action"] if e[:2] == [g, h])
    entry[-1] = "2"
    report = gfrob.verify_axioms(gfrob.from_json_dict(doc))
    assert not report["structure"].passed
    assert report["structure"].witness is not None


def _associative_at(X, g, h, k) -> bool:
    """(x y) z = x (y z) on every basis triple of the sectors g, h, k."""
    def unit(s, i):
        return [int(i == j) for j in range(X.sector_dims[s])]
    mul = X.group.mul
    return all(X.multiply(mul(g, h), k, X.multiply(g, h, unit(g, i), unit(h, j)), unit(k, m))
               == X.multiply(g, mul(h, k), unit(g, i), X.multiply(h, k, unit(h, j), unit(k, m)))
               for i in range(X.sector_dims[g]) for j in range(X.sector_dims[h])
               for m in range(X.sector_dims[k]))


def test_associativity_defect_off_the_orbit_representatives_fails_a(sp_factory, qx2):
    # 1(x)1 times x(x)x doubled in the ((1 3), (1 3)) block of Sym^3(Q[x]/x^2):
    # associativity fails only at triples that start with (1 3), never at the
    # smallest triple of a conjugation orbit, so one triple per orbit would miss it
    X = sp_factory(qx2, 3).realize()
    G = X.group
    t = G.index_of("(1 3)")
    doc = gfrob.to_json_dict(X)
    entry = next(e for e in doc["product"] if e[:4] == [t, t, 0, X.sector_dims[t] - 1])
    entry[-1] = str(2 * Fraction(entry[-1]))
    Y = gfrob.from_json_dict(doc)
    report = gfrob.verify_axioms(Y)
    assert not report["a"].passed and report["a"].witness is not None
    witness = tuple(G.index_of(report["a"].witness[key]) for key in "ghk")
    orbit = {tuple(G.conj(x, s) for s in witness) for x in G.elements()}
    assert witness != min(orbit) and _associative_at(Y, *min(orbit))
    assert {s for s in orbit if not _associative_at(Y, *s)} == {s for s in orbit if s[0] == t}


@pytest.mark.parametrize("key, document, field, index, value, failing", [
    ("structure", "ring", "action", 0, "2", {"structure"}),   # phi_e is not the identity
    ("a", "ring", "product", 0, "2", {"a", "c", "iv"}),
    ("b", "sym2", "product", 19, "2", {"a", "b", "d"}),
    ("c", "ring", "unit", 0, "2", {"c"}),
    ("d", "ring", "metric", 0, "2", {"d"}),
    ("i", "ring", "character", 1, "-1", {"i", "iv"}),
    ("ii", "ring", "product", 7, "2", {"a", "d", "ii"}),
    ("iii", "ring", "metric", 1, "2", {"d", "iii"}),
    ("iv", "sym2", "action", 9, "-1", {"ii", "iii", "iv"}),
])
def test_one_document_edit_fails_each_check(sp_factory, qx2, s3_ring, key, document, field,
                                            index, value, failing):
    # every check bites: one edited entry of a passing document makes it FAIL
    X = {"ring": s3_ring, "sym2": sp_factory(qx2, 2).realize()}[document]
    doc = gfrob.to_json_dict(X)
    assert gfrob.verify_axioms(gfrob.from_json_dict(doc)).passed
    if field == "character":
        doc[field][index] = value
    else:
        doc[field][index][-1] = value
    report = gfrob.verify_axioms(gfrob.from_json_dict(doc))
    assert {c.key for c in report.failures()} == failing
    assert report[key].witness is not None


def _untwisted_s2_document(product, metric, unit, swap) -> dict:
    """A document over S_2 whose twisted sector is zero: the algebra A_e
    (product rows, metric rows, unit) and phi_(1 2) on it by columns.  The
    checks then see the (1 2) sector only through phi_(1 2) on A_e, and the
    trace axiom asks that every l_c phi_(1 2) on A_e has trace 0."""
    G = symmetric_group(2)
    e, t = G.identity, G.index_of("(1 2)")
    dims = [len(unit) if s == e else 0 for s in G.elements()]
    d = dims[e]
    return gfrob.to_json_dict(gfrob.GFrobeniusAlgebra(
        name="untwisted", group=G, sector_dims=dims,
        sector_degrees=[[0] * n for n in dims], sector_parities=[[0] * n for n in dims],
        sector_labels=[[f"e{i}" for i in range(n)] for n in dims],
        product={(e, e): product},
        action={(e, e): {j: {j: 1} for j in range(d)}, (e, t): {}, (t, e): swap, (t, t): {}},
        metric=[metric if s == e else {} for s in G.elements()], character=[1, 1], unit=unit))


def _klein_group_algebra() -> dict:
    """Q[Z/2 x Z/2] on 1, h, p, q = hp with eta(x, y) the coefficient of 1 in
    xy, and phi_(1 2) negating h and p, an automorphism whose l_c phi_(1 2)
    have trace c_1 (1 - 1 - 1 + 1) = 0."""
    basis = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    product = {(x, y): {basis[(a + c) % 2, (b + d) % 2]: 1}
               for (a, b), x in basis.items() for (c, d), y in basis.items()}
    return _untwisted_s2_document(product, {x: {x: 1} for x in range(4)}, [1, 0, 0, 0],
                                  {0: {0: 1}, 1: {1: -1}, 2: {2: -1}, 3: {3: 1}})


def _weighted_idempotents() -> dict:
    """Q^4 on orthogonal idempotents of pairing weights 1, 1, 2, 2, with
    phi_(1 2) swapping the first two and the last two: a fixed-point-free
    permutation, so every l_c phi_(1 2) has zero diagonal."""
    weights = [1, 1, 2, 2]
    return _untwisted_s2_document({(i, i): {i: 1} for i in range(4)},
                                  {i: {i: w} for i, w in enumerate(weights)}, [1, 1, 1, 1],
                                  {0: {1: 1}, 1: {0: 1}, 2: {3: 1}, 3: {2: 1}})


def _scale_nontrivial_products(doc):
    # e_g e_h doubled whenever g, h and gh are not e: still twisted
    # commutative, invariant, equivariant and unital, but for transpositions
    # s != s', (s s) s' keeps its factor 1 while s (s s') takes 2 * 2
    G = symmetric_group(3)
    for entry in doc["product"]:
        g, h = entry[:2]
        if G.identity not in (g, h, G.mul(g, h)):
            entry[-1] = str(2 * Fraction(entry[-1]))


def _quaternion_signs(doc):
    # ph = -q, qh = -p, pq = -h, qq = -1 and eta(q, q) = -1: the split
    # quaternions, associative and symmetric Frobenius but not commutative
    for entry in doc["product"]:
        if entry[2:4] in ([2, 1], [3, 1], [2, 3], [3, 3]):
            entry[-1] = str(-Fraction(entry[-1]))
    next(e for e in doc["metric"] if e[1:3] == [3, 3])[-1] = "-1"


def _negated_characters(doc):
    # chi = -1 everywhere: iii reads chi^-2 and iv the ratio of two values of
    # chi, but phi_e = id is no longer chi_e^-1 id
    doc["character"] = ["-1"] * len(doc["character"])


def _non_automorphic_swap(doc):
    # 2 Pi - 1 for Pi the weighted-orthogonal projection onto the span of
    # 1 and (-2, 2, -1, 1): an involutive isometry that fixes 1 and has zero
    # diagonal, but is no permutation of the idempotents, so no automorphism
    P = [["0", "-1/3", "4/3", "0"], ["-1/3", "0", "0", "4/3"],
         ["2/3", "0", "0", "1/3"], ["0", "2/3", "1/3", "0"]]
    doc["action"] = [e for e in doc["action"] if e[:2] != [1, 0]] + [
        [1, 0, i, j, P[i][j]] for i in range(4) for j in range(4) if P[i][j] != "0"]


def _unpaired_swap(doc):
    # phi_(1 2) on A_e = A(x)A: 1(x)x -> x(x)1 + x(x)x and x(x)1 -> 1(x)x - x(x)x
    # is still an involutive automorphism with mu phi = mu that fixes 1 and the
    # image of the (1 2) sector's square, but pairs 1(x)x with 1(x)1 to 1
    doc["action"] += [[1, 0, 3, 1, "1"], [1, 0, 3, 2, "-1"]]


def _identity_on_the_untwisted_sector(doc):
    # phi_(1 2) = id on A(x)A keeps every law but the trace axiom: the trace of
    # l_c is 4 c_(1(x)1), against 2 c_(1(x)1) for l_c after the swap
    doc["action"] = [e for e in doc["action"] if e[:2] != [1, 0]] + [
        [1, 0, j, j, "1"] for j in range(4)]


@pytest.mark.parametrize("key, document, edit", [
    ("a", "ring", _scale_nontrivial_products),
    ("b", "klein", _quaternion_signs),
    ("i", "ring", _negated_characters),
    ("ii", "idempotents", _non_automorphic_swap),
    ("iii", "sym2", _unpaired_swap),
    ("iv", "sym2", _identity_on_the_untwisted_sector),
])
def test_one_document_edit_fails_one_check_alone(sp_factory, qx2, s3_ring, key, document, edit):
    # the edits above fail a, b, i, ii, iii and iv together with other checks;
    # each edit here fails its check and nothing else, so a scan that stops
    # seeing its defects shows here (structure, c and d already fail alone
    # above).  The character cannot isolate i or iv: negating one value of chi
    # breaks both, since i reads chi_g and iv compares chi_h with chi_g^-1, so
    # i is isolated by negating every value and iv by an action edit.
    doc = {"ring": lambda: gfrob.to_json_dict(s3_ring),
           "sym2": lambda: gfrob.to_json_dict(sp_factory(qx2, 2).realize()),
           "klein": _klein_group_algebra, "idempotents": _weighted_idempotents}[document]()
    assert gfrob.verify_axioms(gfrob.from_json_dict(doc)).passed
    edit(doc)
    report = gfrob.verify_axioms(gfrob.from_json_dict(doc))
    assert {c.key for c in report.failures()} == {key}
    assert report[key].witness is not None


def _multiplicative_at(X, k) -> bool:
    """phi_k(x y) = phi_k(x) phi_k(y) on every pair of basis vectors."""
    def unit(s, i):
        return [int(i == j) for j in range(X.sector_dims[s])]
    G = X.group
    return all(X.act(k, G.mul(g, h), X.multiply(g, h, unit(g, i), unit(h, j)))
               == X.multiply(G.conj(k, g), G.conj(k, h), X.act(k, g, unit(g, i)),
                             X.act(k, h, unit(h, j)))
               for g in G.elements() for h in G.elements()
               for i in range(X.sector_dims[g]) for j in range(X.sector_dims[h]))


def test_action_multiplicative_defect_at_a_non_generator_only_fails(s3_ring):
    # phi_k negated on every sector for one k outside the greedy generators:
    # ii fails at k alone, so a scan of the generators' ii would pass.  A
    # defect of ii at non-generators only needs an action that is no
    # representation (the k where ii holds are closed under products once
    # phi_gh = phi_g phi_h), so the document must still fail, by structure
    G = s3_ring.group
    doc = gfrob.to_json_dict(s3_ring)
    k = next(x for x in G.elements() if x not in G._generators() + [G.identity])
    for entry in doc["action"]:
        if entry[0] == k:
            entry[-1] = str(-Fraction(entry[-1]))
    Y = gfrob.from_json_dict(doc)
    assert [x for x in G.elements() if not _multiplicative_at(Y, x)] == [k]
    report = gfrob.verify_axioms(Y)
    assert not report.passed and not report["structure"].passed
