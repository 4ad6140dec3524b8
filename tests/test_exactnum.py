import random
from fractions import Fraction

import pytest

from orbifrob import exactnum as ex
from orbifrob import frobenius as frob

from conftest import kron, nullspace


def test_rat_parsing_and_formatting():
    assert ex.rat("3/4") == Fraction(3, 4)
    assert ex.rat("-5") == -5
    assert ex.rat(Fraction(4, 2)) == 2 and isinstance(ex.rat(Fraction(4, 2)), int)
    assert ex.fmt_rat(Fraction(-3, 6)) == "-1/2"
    assert ex.fmt_rat(7) == "7"
    with pytest.raises(TypeError):
        ex.rat(1.5)


def test_rat_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        ex.rat("1/0")


def test_exact_arithmetic_no_tolerance():
    rng = random.Random(7)
    for _ in range(50):
        a = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 40))
        assert a * (1 / a) == 1


def _with_metric(metric, dim):
    """k^dim with idempotent basis e_i e_i = e_i and the given pairing rows."""
    return frob.FrobeniusAlgebra(
        name="diag", labels=[f"e{i}" for i in range(dim)], degrees=[0] * dim,
        parities=[0] * dim, unit=[1] * dim, rows={(i, i): {i: 1} for i in range(dim)},
        metric=metric)


def test_metric_inv_inverts_identity_and_diagonal():
    identity = {i: {i: 1} for i in range(3)}
    assert _with_metric(identity, 3).metric_inv == identity
    inv = _with_metric({0: {0: 1}, 1: {1: Fraction(2, 3)}}, 2).metric_inv
    assert inv == {0: {0: 1}, 1: {1: Fraction(3, 2)}}
    assert _with_metric({}, 0).metric_inv == {}


def test_rank_of_dual_number_pairing(qx2):
    metric = qx2.metric
    assert len(ex.sparse_echelon(metric)) == 2
    assert ex.rank([[metric.get(i, {}).get(j, 0) for j in range(2)] for i in range(2)]) == 2


def test_singular_matrix_reports_rank():
    with pytest.raises(ex.SingularMatrixError, match=r"singular matrix \(rank 1\)") as info:
        _with_metric({0: {0: 1, 1: 2}, 1: {0: 2, 1: 4}}, 2).metric_inv
    assert info.value.rank == 1


def test_nullspace():
    basis = nullspace([[1, 2, 3]])
    assert len(basis) == 2
    for v in basis:
        assert ex.mat_mul([[1, 2, 3]], [[x] for x in v]) == [[0]]


def test_kron_row_major():
    a = [[1, 2], [0, 1]]
    b = [[0, 3]]
    assert kron(a, b) == [[0, 3, 0, 6], [0, 0, 0, 3]]


def test_sparse_kron_row_major():
    a = {0: {0: 1, 1: 2}, 1: {1: 1}}
    b = {0: {1: 3}}
    assert ex.sparse_kron(a, b, 1, 2) == {0: {1: 3, 3: 6}, 1: {3: 3}}


def test_sparse_echelon_matches_dense_echelon():
    # the kept rows are the unique RREF: rows, pivots and rank equal the dense echelon's
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.choice((0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 7))) for _ in range(cols)]
                 for _ in range(rows)]
        dense.append([0] * cols)
        dense.append(list(rng.choice(dense)))
        sparse = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(dense)}
        ech, pivots = ex.echelon(dense)
        expected = {c: {j: (type(v), v) for j, v in enumerate(ech[r]) if v}
                    for r, c in enumerate(pivots)}
        kept = ex.sparse_echelon(sparse)
        assert {c: {j: (type(v), v) for j, v in row.items()} for c, row in kept.items()} == expected
        assert sorted(kept) == pivots
        assert len(kept) == ex.rank(dense)
    assert ex.sparse_echelon({}) == {}


def test_check_new_rejects_a_repeated_key():
    seen = set()
    ex.check_new("metric", seen, (0, 1))
    ex.check_new("metric", seen, (1, 0))
    with pytest.raises(ValueError, match=r"duplicate metric entry at \[0, 1\]"):
        ex.check_new("metric", seen, (0, 1))
