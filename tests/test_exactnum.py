import random
from fractions import Fraction

import pytest

from orbifrob import exactnum as ex
from orbifrob import frobenius as frob

from conftest import dense_echelon, dense_mat_mul, dense_rank, kron, nullspace
from fraction_layout import check as check_fraction_layout


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


@pytest.mark.parametrize("text, value", [
    (" 3/4 ", Fraction(3, 4)), ("+7", 7), ("-0", 0), ("6/-4", Fraction(-3, 2)), ("-2/+2", -1),
    ("0012", 12)])
def test_rat_reads_the_documented_grammar(text, value):
    # [+-]?[0-9]+(/[+-]?[0-9]+)? after strip, as README states
    got = ex.rat(text)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("text", [
    "1_0", "1/2_0", "\u0661", "\u0661/2", "\uff11", "1/\u0662", "3 / 4", "1/", "/2", "",
    "+", "1.5", "1e3", "0x10", "1/2/3", "--1", "- 1"])
def test_rat_refuses_strings_outside_the_grammar(text):
    # int() reads underscores and non-ASCII digits; a document value may not
    with pytest.raises(ValueError, match="is not an exact rational p or p/q$") as info:
        ex.rat(text)
    assert repr(text) in str(info.value)


def test_divided_matches_the_fraction_constructor():
    # the writer's Fraction layout: value, type, hash and repr of every entry
    # agree with norm(Fraction(w, den)); the same check runs as a script
    # (tests/fraction_layout.py) on interpreters without pytest
    assert check_fraction_layout() > 10


def test_numerators_read_one_lcm_denominator():
    assert ex.numerators([Fraction(1, 4), Fraction(-1, 6), 0, 2]) == ([3, -2, 0, 24], 12)
    assert ex.numerators([Fraction(0), Fraction(2, 4)]) == ([0, 1], 2)
    ints = [0, 5, 0, -1]
    nums, den = ex.numerators(ints)
    assert (nums, den) == (ints, 1) and nums is ints   # an all-int list passes through
    assert ex.numerators((1, 2)) == ([1, 2], 1)
    assert ex.numerators([]) == ([], 1)
    with pytest.raises(ValueError, match="operand must have length 3"):
        ex.numerators([1, 2], 3)
    with pytest.raises(TypeError, match="not float"):   # no inexact entry is read
        ex.numerators([Fraction(1, 2), 0.5])


def test_table_entries_flatten_sort_and_format():
    # nested levels inserted out of index order come out sorted by the index tuple
    nested = {2: {1: 5, 0: Fraction(-3, 6)}, 0: {3: -7}}
    assert ex.table_entries(nested) == [[0, 3, "-7"], [2, 0, "-1/2"], [2, 1, "5"]]
    # a tuple key spreads into its indices, at any level
    rows = {(1, 0): {0: Fraction(4, 2)}, (0, 1): {1: 1, 0: Fraction(2, 3)}}
    assert ex.table_entries(rows) == [[0, 1, 0, "2/3"], [0, 1, 1, "1"], [1, 0, 0, "2"]]
    blocks = {(1, 0): {(0, 0): {0: -1}}, (0, 1): {(1, 0): {2: Fraction(-1, 4)}}}
    assert ex.table_entries(blocks) == [[0, 1, 1, 0, 2, "-1/4"], [1, 0, 0, 0, 0, "-1"]]
    # each value is formatted as fmt_rat formats it
    values = [3, -2, Fraction(5, 7), Fraction(-9, 4), Fraction(6, 3)]
    assert ex.table_entries(dict(enumerate(values))) == [
        [i, ex.fmt_rat(v)] for i, v in enumerate(values)]
    assert ex.table_entries({}) == []


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
    assert ex.rank(metric) == 2
    assert dense_rank([[metric.get(i, {}).get(j, 0) for j in range(2)] for i in range(2)]) == 2


def test_singular_matrix_reports_rank():
    with pytest.raises(ex.SingularMatrixError, match=r"singular matrix \(rank 1\)") as info:
        _with_metric({0: {0: 1, 1: 2}, 1: {0: 2, 1: 4}}, 2).metric_inv
    assert info.value.rank == 1


def test_nullspace():
    basis = nullspace([[1, 2, 3]])
    assert len(basis) == 2
    for v in basis:
        assert dense_mat_mul([[1, 2, 3]], [[x] for x in v]) == [[0]]


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
        ech, pivots = dense_echelon(dense)
        expected = {c: {j: (type(v), v) for j, v in enumerate(ech[r]) if v}
                    for r, c in enumerate(pivots)}
        kept = ex.echelon(sparse)
        assert {c: {j: (type(v), v) for j, v in row.items()} for c, row in kept.items()} == expected
        assert sorted(kept) == pivots
        assert len(kept) == ex.rank(sparse) == dense_rank(dense)
    assert ex.echelon({}) == {} and ex.rank({}) == 0


def _random_dense(rng, rows, cols):
    # proper Fractions, and enough zeros that whole rows and columns vanish
    return [[rng.choice((0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 7))) for _ in range(cols)]
            for _ in range(rows)]


def _columns(dense):
    # a dense matrix as the sparse column map {column: {row: value}}, empty columns absent
    cols = {j: {i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(len(dense[0]))}
    return {j: col for j, col in cols.items() if col}


def _typed(block):
    return {p: {q: (type(v), v) for q, v in vec.items()} for p, vec in block.items()}


def test_mat_mul_and_rank_match_the_dense_kit():
    # ex.mat_mul composes column maps, "a after b", which is the dense product a b
    rng = random.Random(11)
    for _ in range(60):
        r, m, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _random_dense(rng, r, m), _random_dense(rng, m, c)
        assert _typed(ex.mat_mul(_columns(a), _columns(b))) == _typed(_columns(dense_mat_mul(a, b)))
        assert ex.rank(_columns(a)) == dense_rank(a)   # column rank, read off the column map
    assert ex.mat_mul({}, {}) == {} and ex.mat_mul({0: {0: 1}}, {}) == {}
    assert ex.mat_mul({}, {0: {0: 1}}) == {}


def test_check_new_rejects_a_repeated_key():
    seen = set()
    ex.check_new("metric", seen, (0, 1))
    ex.check_new("metric", seen, (1, 0))
    with pytest.raises(ValueError, match=r"duplicate metric entry at \[0, 1\]"):
        ex.check_new("metric", seen, (0, 1))
