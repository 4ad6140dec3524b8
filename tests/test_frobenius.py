import json
import random
from fractions import Fraction

import pytest

from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import symprod as sp_mod

from conftest import load_base


def test_multiply_dual_numbers(qx2):
    x = [0, 1]
    one = [1, 0]
    assert qx2.multiply(x, x) == [0, 0]
    assert qx2.multiply(one, x) == x
    assert qx2.multiply([1, 1], [1, 1]) == [1, 2]


def test_verify_models(ground, qx2, surface):
    for a in (ground, qx2, surface):
        assert a.verify().passed


def _with_metric(algebra, metric):
    return frob.FrobeniusAlgebra(
        name="broken", labels=list(algebra.labels), degrees=list(algebra.degrees),
        parities=list(algebra.parities), unit=list(algebra.unit), rows=algebra.rows, metric=metric)


def test_verify_flags_broken_invariance(qx2):
    report = _with_metric(qx2, {1: {1: 1}}).verify()
    assert not report["invariance"].passed
    assert report["invariance"].witness is not None
    assert not report["nondegeneracy"].passed
    assert report["nondegeneracy"].witness == {"rank": 1}
    assert report["symmetry"].passed
    # eta(x, 1) = 2 but eta(1, x) = 1: invertible, not symmetric
    report = _with_metric(qx2, {0: {1: 1}, 1: {0: 2}}).verify()
    assert not report["symmetry"].passed
    assert report["symmetry"].witness == {}
    assert report["nondegeneracy"].passed
    assert not report["invariance"].passed


def test_metric_inverse_rejects_degenerate_metric(qx2):
    # the copairing and every metric adjoint read the inverse pairing
    with pytest.raises(ex.SingularMatrixError) as info:
        _with_metric(qx2, {0: {0: 0}, 1: {1: 1}}).metric_inv
    assert info.value.rank == 1


def test_metric_rows_are_index_checked_and_cleaned(qx2):
    algebra = _with_metric(qx2, {0: {1: Fraction(2, 2), 0: 0}, 1: {0: 1}})
    assert algebra.metric == {0: {1: 1}, 1: {0: 1}} and type(algebra.metric[0][1]) is int
    assert _with_metric(qx2, {0: {0: 0}, 1: {1: 1}}).metric == {1: {1: 1}}
    with pytest.raises(ValueError, match="broken: metric index out of range"):
        _with_metric(qx2, {0: {2: 1}})


def test_equality_ignores_the_cached_inverse(surface):
    a, b = load_base("surface4"), load_base("surface4")
    assert a == b
    a.copairing()
    assert a == b and b == a
    sp_mod.SymmetricProductAlgebra(b, 2)
    assert a == b == surface


def test_copairing(qx2, ground, surface):
    assert sorted(qx2.copairing()) == [(0, 1, 1), (1, 0, 1)]
    assert ground.copairing() == [(0, 0, 1)]
    assert sorted(surface.copairing()) == [(0, 3, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1)]


def test_copairing_reproduces_identity(qx2, surface):
    # sum_i eta(a, e_i) e^i = a for every basis a
    for algebra in (qx2, surface):
        for b in range(algebra.dim):
            a = ex.basis_vector(algebra.dim, b)
            out = ex.vec_zero(algebra.dim)
            for i, j, c in algebra.copairing():
                coeff = c * algebra.metric.get(b, {}).get(i, 0)
                if coeff:
                    out = [x + coeff * y for x, y in zip(out, ex.basis_vector(algebra.dim, j))]
            assert out == a


def test_euler_class(qx2, ground, surface):
    assert qx2.euler_class() == [0, 2]
    assert ground.euler_class() == [1]
    assert surface.euler_class() == [0, 0, 0, 4]


def test_euler_class_is_central_and_top_degree(qx2, surface):
    for algebra in (qx2, surface):
        e = algebra.euler_class()
        for b in range(algebra.dim):
            v = ex.basis_vector(algebra.dim, b)
            assert algebra.multiply(e, v) == algebra.multiply(v, e)
        degs = {algebra.degrees[i] for i, c in enumerate(e) if c != 0}
        assert degs == {algebra.top_degree}


def test_tensor_power_ops(qx2, ground):
    one_x = [0, 1, 0, 0]   # 1(x)x
    x_one = [0, 0, 1, 0]   # x(x)1
    assert frob.factorwise_multiply(qx2, 2, one_x, x_one) == [0, 0, 0, 1]
    assert frob.tensor_unit(qx2, 2) == [1, 0, 0, 0]
    assert frob.tensor_metric(ground, 0) == {0: {0: 1}}
    # eta(1(x)x, x(x)1) = 1: the pairing pairs index 1 with 2 and 0 with 3
    assert frob.tensor_metric(qx2, 2) == {0: {3: 1}, 1: {2: 1}, 2: {1: 1}, 3: {0: 1}}


def _reference_factorwise_multiply(algebra, m, u, v):
    """The pairwise loop the factor walk replaced: every nonzero pair of entries."""
    size = algebra.dim ** m
    if len(u) != size or len(v) != size:
        raise ValueError(f"tensor power operands must have length {size}")
    out = ex.vec_zero(size)
    for iu, x in enumerate(u):
        if x == 0:
            continue
        tu = frob.tensor_tuple(iu, algebra.dim, m)
        for iv, y in enumerate(v):
            if y == 0:
                continue
            tv = frob.tensor_tuple(iv, algebra.dim, m)
            for idx, c in _reference_factorwise_basis(algebra, tu, tv).items():
                out[idx] += x * y * c
    return [ex.norm(w) for w in out]


def _reference_factorwise_basis(algebra, tu, tv):
    terms = {0: 1}
    for a, b in zip(tu, tv):
        row = algebra.rows.get((a, b))
        if not row:
            return {}
        new = {}
        for idx, c in terms.items():
            base = idx * algebra.dim
            for k, v in row.items():
                key = base + k
                new[key] = new.get(key, 0) + c * v
        terms = {k: v for k, v in new.items() if v != 0}
        if not terms:
            return {}
    return terms


def _typed(vec):
    return [(type(x), x) for x in vec]


def _random_operand(rng, size, density):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density else 0
            for _ in range(size)]


def test_half_unit_algebra_verifies(half):
    assert half.verify().passed


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_factorwise_multiply_matches_pairwise_reference(qx2, surface, half, m):
    rng = random.Random(7919 + m)
    for algebra in (qx2, surface, half):
        size = algebra.dim ** m
        zero = [0] * size
        operands = [(_random_operand(rng, size, density), _random_operand(rng, size, 0.6))
                    for density in (1.0, 0.5, 0.1)]
        operands += [(zero, _random_operand(rng, size, 1.0)), (zero, zero),
                     ([Fraction(0)] * size, [Fraction(3, 1)] * size)]
        for u, v in operands:
            assert _typed(frob.factorwise_multiply(algebra, m, u, v)) == \
                _typed(_reference_factorwise_multiply(algebra, m, u, v))


def test_factorwise_multiply_rejects_length_mismatch(qx2):
    with pytest.raises(ValueError, match="length 4"):
        frob.factorwise_multiply(qx2, 2, [1, 0, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError, match="length 4"):
        frob.factorwise_multiply(qx2, 2, [], [])


def test_power(qx2):
    e = qx2.euler_class()
    assert qx2.power(e, 0) == [1, 0]
    assert qx2.power(e, 1) == e
    assert qx2.power(e, 2) == [0, 0]


def test_json_round_trip(tmp_path, surface):
    path = tmp_path / "surface.json"
    ex.save_json(frob.to_json_dict(surface), path)
    loaded = frob.load(path)
    assert loaded.rows == surface.rows
    assert loaded.metric == surface.metric
    assert loaded.unit == surface.unit
    assert loaded.labels == surface.labels
    # byte-identical re-export
    ex.save_json(frob.to_json_dict(loaded), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_json_rejects_bad_dim(tmp_path, ground):
    doc = frob.to_json_dict(ground)
    doc["dim"] = 2
    with pytest.raises(ValueError):
        frob.from_json_dict(doc)


def test_scalar_strings_in_documents(tmp_path, qx2):
    doc = frob.to_json_dict(qx2)
    assert all(isinstance(v, str) for _, _, v in doc["metric"])
    text = json.dumps(doc)
    assert "0.5" not in text  # rationals never decimalized
