import json
import random
from fractions import Fraction

import pytest

from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import symprod as sp_mod

from conftest import ZERO_BASE, check_kernel, kron, load_base, tensor_tuple


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


_BASE_PASSES = {
    "associativity": "associativity ((ab)c = a(bc)): pass [8 instances]",
    "unit": "unit (1 a = a 1 = a): pass [2 instances]",
    "invariance": "invariance (eta(ab,c) = eta(a,bc)): pass [8 instances]",
    "nondegeneracy": "nondegeneracy (pairing invertible): pass [1 instances]",
    "symmetry": "symmetry (pairing symmetric): pass [1 instances]",
    "metric-grading": "metric-grading (pairing concentrated in one degree): pass [2 instances]",
    "grading": "grading (deg(ab) = deg a + deg b on nonzero products): pass [3 instances]",
    "parity": "parity (parity additive, unit even): pass [4 instances]",
}


@pytest.mark.parametrize("key, edit, lines", [
    ("associativity", {"structure": [[0, 0, 0, "2"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}, {
        "associativity": "associativity ((ab)c = a(bc)): FAIL [8 instances] witness: "
                         "{'i': '1', 'j': '1', 'k': 'x', 'lhs': '2*x', 'rhs': '1*x'}",
        "unit": "unit (1 a = a 1 = a): FAIL [2 instances] witness: {'i': '1'}",
        "invariance": "invariance (eta(ab,c) = eta(a,bc)): FAIL [8 instances] witness: "
                      "{'i': '1', 'j': '1', 'k': 'x', 'eta(ij,k)': '2', 'eta(i,jk)': '1'}"}),
    ("unit", {"unit": ["1", "1"]}, {
        "unit": "unit (1 a = a 1 = a): FAIL [2 instances] witness: {'i': '1'}"}),
    ("invariance", {"metric": [[0, 1, "1"], [1, 0, "1"], [1, 1, "1"]]}, {
        "invariance": "invariance (eta(ab,c) = eta(a,bc)): FAIL [8 instances] witness: "
                      "{'i': '1', 'j': 'x', 'k': 'x', 'eta(ij,k)': '1', 'eta(i,jk)': '0'}",
        "metric-grading": "metric-grading (pairing concentrated in one degree): FAIL [3 instances] "
                          "witness: {'i': '1', 'j': 'x', 'degree': 2, 'top': 4}"}),
    ("nondegeneracy", {"metric": [[1, 1, "1"]]}, {
        "invariance": "invariance (eta(ab,c) = eta(a,bc)): FAIL [8 instances] witness: "
                      "{'i': '1', 'j': 'x', 'k': 'x', 'eta(ij,k)': '1', 'eta(i,jk)': '0'}",
        "nondegeneracy": "nondegeneracy (pairing invertible): FAIL [1 instances] witness: {'rank': 1}",
        "metric-grading": "metric-grading (pairing concentrated in one degree): pass [1 instances]"}),
    ("symmetry", {"metric": [[0, 1, "1"], [1, 0, "2"]]}, {
        "invariance": "invariance (eta(ab,c) = eta(a,bc)): FAIL [8 instances] witness: "
                      "{'i': '1', 'j': 'x', 'k': '1', 'eta(ij,k)': '2', 'eta(i,jk)': '1'}",
        "symmetry": "symmetry (pairing symmetric): FAIL [1 instances] witness: {}"}),
    ("metric-grading", {"metric": [[0, 0, "1"], [0, 1, "1"], [1, 0, "1"]]}, {
        "metric-grading": "metric-grading (pairing concentrated in one degree): FAIL [3 instances] "
                          "witness: {'i': '1', 'j': '1', 'degree': 0, 'top': 2}"}),
    ("grading", {"structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]]}, {
        "grading": "grading (deg(ab) = deg a + deg b on nonzero products): FAIL [4 instances] "
                   "witness: {'i': 'x', 'j': 'x', 'k': '1'}",
        "parity": "parity (parity additive, unit even): pass [5 instances]"}),
    ("parity", {"basis": [{"label": "1", "degree": 0, "parity": 1},
                          {"label": "x", "degree": 2, "parity": 0}]}, {
        "parity": "parity (parity additive, unit even): FAIL [4 instances] witness: "
                  "{'i': '1', 'j': '1', 'k': '1'}"}),
])
def test_one_edit_of_the_dual_numbers_pins_the_whole_report(qx2, key, edit, lines):
    # one replaced field fails its check; every line of the report, with its
    # instance count and witness, is pinned, the lines not listed as passing
    report = frob.from_json_dict({**frob.to_json_dict(qx2), **edit}).verify()
    assert not report[key].passed
    assert report.summary() == "\n".join({**_BASE_PASSES, **lines}.values())


def test_metric_inverse_rejects_degenerate_metric(qx2):
    # the copairing and every metric adjoint read the inverse pairing
    with pytest.raises(ex.SingularMatrixError) as info:
        _with_metric(qx2, {0: {0: 0}, 1: {1: 1}}).metric_inv
    assert info.value.rank == 1


def test_pairing_with_dependent_nonzero_rows_is_degenerate(qx2):
    # no row is empty, so a count of rows would read full rank
    algebra = _with_metric(qx2, {0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}})
    report = algebra.verify()
    assert not report["nondegeneracy"].passed
    assert report["nondegeneracy"].witness == {"rank": 1}
    with pytest.raises(ex.SingularMatrixError, match=r"singular matrix \(rank 1\)") as info:
        algebra.metric_inv
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
            a = [int(i == b) for i in range(algebra.dim)]
            out = [0] * algebra.dim
            for i, j, c in algebra.copairing():
                coeff = c * algebra.metric.get(b, {}).get(i, 0)
                if coeff:
                    out = [x + coeff * y for x, y in zip(out, [int(k == j) for k in range(algebra.dim)])]
            assert out == a


def test_euler_class(qx2, ground, surface):
    assert qx2.euler_class() == [0, 2]
    assert ground.euler_class() == [1]
    assert surface.euler_class() == [0, 0, 0, 4]


def test_euler_class_is_central_and_top_degree(qx2, surface):
    for algebra in (qx2, surface):
        e = algebra.euler_class()
        for b in range(algebra.dim):
            v = [int(i == b) for i in range(algebra.dim)]
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
    out = [0] * size
    for iu, x in enumerate(u):
        if x == 0:
            continue
        tu = tensor_tuple(iu, algebra.dim, m)
        for iv, y in enumerate(v):
            if y == 0:
                continue
            tv = tensor_tuple(iv, algebra.dim, m)
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


def _skew():
    """Q[x]/(x^2), ungraded, on the basis f0 = 1 + x, f1 = 2x: f0 f0 = f0 + f1/2
    is a structure row with two entries, which no monomial basis has, and its
    constants have integer numerators other than 1 over one denominator."""
    return frob.from_json_dict({
        "name": "skew", "dim": 2,
        "basis": [{"label": "f0", "degree": 0, "parity": 0}, {"label": "f1", "degree": 0, "parity": 0}],
        "unit": ["1", "-1/2"], "metric": [[0, 0, "2"], [0, 1, "2"], [1, 0, "2"]],
        "structure": [[0, 0, 0, "1"], [0, 0, 1, "1/2"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    })


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_factorwise_multiply_matches_pairwise_reference(qx2, surface, half, m):
    # the kernel splits A^(x)m into floor(m/2) + ceil(m/2) factors: m = 1 puts
    # A^(x)0 in the high half, odd m splits unequally; dense operands up to A^(x)4
    rng = random.Random(7919 + m)
    for algebra in (qx2, surface, half, _skew()):
        size = algebra.dim ** m
        zero = [0] * size
        sparse, single = list(zero), list(zero)
        for i in rng.sample(range(size), min(size, 24)):
            sparse[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        single[rng.randrange(size)] = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        operands = [(sparse, single), (single, sparse), (single, single), (zero, sparse),
                    ([Fraction(0)] * size, sparse), (sparse, [Fraction(3, 1)] * size)]
        if size <= 256:
            operands += [(_random_operand(rng, size, density), _random_operand(rng, size, 0.6))
                         for density in (1.0, 0.5, 0.1)]
            operands += [(zero, _random_operand(rng, size, 1.0)), (zero, zero),
                         ([Fraction(0)] * size, [Fraction(3, 1)] * size)]
        for u, v in operands:
            assert _typed(frob.factorwise_multiply(algebra, m, u, v)) == \
                _typed(_reference_factorwise_multiply(algebra, m, u, v))


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_power_pairs_are_the_kronecker_power_of_the_structure_constants(qx2, surface, half, r):
    for algebra in (qx2, surface, half, _skew()):
        D = algebra.dim
        # x -> the matrix of left multiplication by e_x: [y][k] = c[x, y, k]
        left = [[[algebra.rows.get((x, y), {}).get(k, 0) for k in range(D)] for y in range(D)]
                for x in range(D)]
        rows, kernel = frob._power_pairs(algebra, r)
        den = algebra._pairs_den ** r
        assert len(rows) == D ** r and callable(kernel)
        for X, pairs in enumerate(rows):
            want = [[1]]
            for x in tensor_tuple(X, D, r):
                want = kron(want, left[x])
            got = [[0] * D ** r for _ in range(D ** r)]
            for Y, row in pairs:
                assert row and len({K for K, _ in row}) == len(row)
                for K, c in row:
                    assert type(c) is int and c != 0
                    got[Y][K] = ex.norm(Fraction(c, den))
            assert got == want


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_power_kernels_match_the_row_loop(ground, qx2, surface, q):
    # one dense chunk per side; the ground base has one local per side
    rng = random.Random(7919 + q)
    for algebra in (ground, qx2, surface, _skew()):
        rows, kernel = frob._power_pairs(algebra, q)
        check_kernel(rng, rows, algebra.dim ** q, algebra.dim ** q, kernel)


def test_kernels_at_the_edges():
    # a 0-dimensional base unpacks nothing; a chunk of one entry unpacks one
    # local; chunk sizes may differ from each other and from the output's;
    # an output no row reaches is 0; a coefficient may be negative or large
    rng = random.Random(31)
    zero = frob.from_json_dict(ZERO_BASE)
    for q in (1, 2):
        rows, kernel = frob._power_pairs(zero, q)
        assert rows == [] and kernel([], []) == []
    assert frob._kernel([], 0, 2)([], []) == [0, 0]
    check_kernel(rng, [[(0, [(0, 5)])]], 1, 1)
    check_kernel(rng, [[(0, [(0, 1), (2, -3)]), (1, [(2, 1)])], [], [(2, [(1, 10 ** 20)])]], 3, 4)
    wide = [[(y, [((x + y) % 3, x - y or 1)]) for y in range(300)] for x in range(2)]
    check_kernel(rng, wide, 300, 3)
    # sums past _FLAT_SUM terms, within one l_x and over 4000 l_x: a flat
    # chain of 4000 terms passes the compiler's recursion limit
    check_kernel(rng, [[(y, [(0, 1)]) for y in range(700)]], 700, 1)
    check_kernel(rng, [[(0, [(0, x % 5 - 2 or 1)])] for x in range(4000)], 1, 1)


@pytest.mark.parametrize("rows", [
    [[(0, [(0, Fraction(1, 2))])]], [[(0, [(0, 1.0)])]], [[(0, [(0, True)])]], [[(0, [(0, "1")])]],
    [[("0", [(0, 1)])]], [[(0, [((0,), 1)])]],                        # indices that are not ints
    [[(1, [(0, 1)])]], [[(-1, [(0, 1)])]], [[(0, [(1, 1)])]], [[(0, [(-1, 1)])]],   # out of range
])
def test_kernel_refuses_an_entry_that_is_not_an_integer_in_range(rows):
    with pytest.raises(TypeError, match="not an integer in range"):
        frob._kernel(rows, 1, 1)


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
