import random
from fractions import Fraction

import pytest

from orbifrob import exactnum as ex
from orbifrob import frobenius as frob


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


def test_solve_swap_matrix():
    assert ex.solve([[0, 1], [1, 0]], [1, 0]) == [0, 1]


def test_invert_identity():
    assert ex.invert(ex.mat_identity(3)) == ex.mat_identity(3)


def test_rank_of_dual_number_pairing():
    assert ex.rank(frob.dual_numbers().metric) == 2


def test_singular_matrix_reports_rank():
    with pytest.raises(ex.SingularMatrixError) as info:
        ex.invert([[1, 2], [2, 4]])
    assert info.value.rank == 1


def test_nullspace():
    basis = ex.nullspace([[1, 2, 3]])
    assert len(basis) == 2
    for v in basis:
        assert ex.mat_vec([[1, 2, 3]], v) == [0]


def _random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)]


def _random_metric(rng, n):
    # diagonal nonzero entries: symmetric and nondegenerate by construction
    return [[Fraction(rng.choice([1, 2, -1, 3]), rng.randint(1, 3)) if i == j else 0
             for j in range(n)] for i in range(n)]


def test_metric_adjoint_identity_case():
    eta = [[0, 1], [1, 0]]
    assert ex.metric_adjoint(ex.mat_identity(2), eta, eta) == ex.mat_identity(2)


def test_metric_adjoint_involutive_and_contravariant():
    rng = random.Random(11)
    eta3, eta4 = _random_metric(rng, 3), _random_metric(rng, 4)
    m = _random_matrix(rng, 4, 3)
    adj = ex.metric_adjoint(m, eta3, eta4)
    assert ex.metric_adjoint(adj, eta4, eta3) == m
    n = _random_matrix(rng, 3, 4)
    mn = ex.mat_mul(m, n)
    assert ex.metric_adjoint(mn, eta4, eta4) == ex.mat_mul(
        ex.metric_adjoint(n, eta4, eta3), ex.metric_adjoint(m, eta3, eta4)
    )


def test_metric_adjoint_defining_identity():
    rng = random.Random(3)
    eta2, eta3 = _random_metric(rng, 2), _random_metric(rng, 3)
    m = _random_matrix(rng, 3, 2)
    adj = ex.metric_adjoint(m, eta2, eta3)

    def pair(eta, u, v):
        return sum(eta[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(v)))

    for j in range(3):
        y = [1 if t == j else 0 for t in range(3)]
        for i in range(2):
            x = [1 if t == i else 0 for t in range(2)]
            assert pair(eta2, ex.mat_vec(adj, y), x) == pair(eta3, y, ex.mat_vec(m, x))


def test_metric_adjoint_of_multiplication_map():
    # for Q[x]/(x^2): the dual of multiplication sends 1 to 1(x)x + x(x)1
    A = frob.dual_numbers()
    mu = ex.mat_zero(2, 4)
    for col in range(4):
        i, j = divmod(col, 2)
        for k, v in A.multiply_basis(i, j).items():
            mu[k][col] = v
    eta2 = frob.tensor_metric(A, 2)
    adj = ex.metric_adjoint(mu, eta2, A.metric)
    assert ex.mat_vec(adj, [1, 0]) == [0, 1, 1, 0]


def test_metric_adjoint_rejects_degenerate_metric():
    with pytest.raises(ex.SingularMatrixError):
        ex.metric_adjoint(ex.mat_identity(2), [[0, 0], [0, 1]], ex.mat_identity(2))


def test_sparse_tensor_rejects_duplicates_and_drops_zeros():
    with pytest.raises(ValueError):
        ex.SparseTensor3([(0, 0, 0, 1), (0, 0, 0, 2)])
    t = ex.SparseTensor3([(0, 1, 0, 0), (1, 1, 1, "2/2")])
    assert len(t) == 1 and t.get(1, 1, 1) == 1


def test_kron_row_major():
    a = [[1, 2], [0, 1]]
    b = [[0, 3]]
    assert ex.kron(a, b) == [[0, 3, 0, 6], [0, 0, 0, 3]]
