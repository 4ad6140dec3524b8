from fractions import Fraction
from pathlib import Path

import pytest

from orbifrob import cocycles as cocy
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob import grading
from orbifrob import groups as g
from orbifrob import symprod as sp_mod

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_permutation_eigenangles():
    e = g.Permutation.identity(3)
    assert grading.permutation_eigenangles(e) == [0, 0, 0]
    tau = g.parse_cycles("(1 2)", 2)
    assert grading.permutation_eigenangles(tau) == [0, Fraction(1, 2)]
    c123 = g.parse_cycles("(1 2 3)", 3)
    assert grading.permutation_eigenangles(c123, copies=2) == sorted(
        [0, 0, Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)]
    )
    with pytest.raises(ValueError):
        grading.permutation_eigenangles(tau, copies=0)


def test_trivial_representation_shifts():
    sh = grading.shifts_from_eigenvalues(4, [4, 2], [[0, 0], [0]])
    assert sh.s_minus == [0, 0]
    assert sh.s == [0, 1]


def test_cycle_angles_telescope_to_zero():
    # each k-cycle contributes sum_j (2 j/k - 1) = 0 over j = 1..k-1
    for n in range(2, 6):
        for p in g.enumerate_sn(n):
            angles = grading.permutation_eigenangles(p)
            assert sum(2 * t - 1 for t in angles if t != 0) == 0


def test_angle_range_enforced():
    with pytest.raises(ValueError):
        grading.shifts_from_eigenvalues(2, [2], [[Fraction(3, 2)]])


def test_standard_shifts_for_second_quantization(sp_factory, qx2, surface):
    # s_g = (D/2) |g| where D is the base top degree; n <= 4, D in {2, 4}
    for base, n in ((qx2, 2), (qx2, 3), (qx2, 4), (surface, 2), (surface, 3)):
        sp = sp_factory(base, n)
        sh = grading.standard_shifts(sp.realize())
        for gi in range(sp.group.order):
            expected = Fraction(base.top_degree, 2) * g.degree(sp.perms[gi])
            assert sh.s[gi] == expected
            assert sh.s_minus[gi] == 0
            ginv = sp.group.inv(gi)
            assert sh.s[gi] + sh.s[ginv] == sh.top_degree - sh.pairing_degree[gi]


def test_k3_model_shift(sp_factory, surface):
    sp = sp_factory(surface, 2)
    sh = grading.standard_shifts(sp.realize())
    tau = sp.group.index_of("(1 2)")
    assert sh.s[tau] == 2


def test_shifted_poincare_of_group_ring():
    from orbifrob import cocycles as cocy
    ring = cocy.twisted_group_ring(g.symmetric_group(2))
    poly = grading.shifted_poincare(ring)
    assert poly == {Fraction(0): 2}


def test_shifted_poincare_invariants(sp_factory, qx2):
    galg = sp_factory(qx2, 2).realize()
    sh = grading.standard_shifts(galg)
    poly = grading.shifted_poincare(galg, sh, invariants_only=True)
    assert poly == {Fraction(k): 1 for k in range(5)}
    assert grading.format_poincare(poly) == "1 + t + t^2 + t^3 + t^4"


def test_unshifted_total_is_sector_sum(sp_factory, qx2):
    galg = sp_factory(qx2, 3).realize()
    poly = grading.shifted_poincare(galg)
    by_hand: dict = {}
    for gi in galg.group.elements():
        for d in galg.sector_degrees[gi]:
            by_hand[Fraction(d)] = by_hand.get(Fraction(d), 0) + 1
    assert poly == by_hand


def test_format_poincare_fractional():
    poly = {Fraction(1, 2): 2, Fraction(0): 1}
    assert grading.format_poincare(poly) == "1 + 2*t^(1/2)"


def _generating_function(degrees, n):
    """q^n coefficient of prod_{k>=1} prod_i (1 - t^(deg e_i + (k-1) d/2) q^k)^(-1).

    Macdonald (1962), Goettsche (1990); d is the top degree of the base.
    Shares no code with the tables: plain series arithmetic on Fractions.
    """
    half_top = Fraction(max(degrees), 2)
    series = [{} for _ in range(n + 1)]
    series[0] = {Fraction(0): 1}
    for k in range(1, n + 1):
        for deg in degrees:
            expo = deg + (k - 1) * half_top
            # multiply by 1/(1 - t^expo q^k): ascending in-place update
            for m in range(k, n + 1):
                for e, c in series[m - k].items():
                    series[m][e + expo] = series[m].get(e + expo, 0) + c
    return dict(sorted(series[n].items()))


@pytest.mark.parametrize("fixture, n", [
    ("dual_numbers.json", 2), ("dual_numbers.json", 3), ("dual_numbers.json", 4),
    ("surface4.json", 2), ("surface4.json", 3),
])
def test_invariant_poincare_matches_generating_function(fixture, n):
    base = frob.load(FIXTURES / fixture)
    X = gfrob.twist(sp_mod.SymmetricProductAlgebra(base, n).realize(),
                    cocy.normalized_sn_cocycle(n, -1))
    poly = grading.shifted_poincare(X, grading.standard_shifts(X), invariants_only=True)
    assert poly == _generating_function(base.degrees, n)


def test_generating_function_values():
    surface = frob.load(FIXTURES / "surface4.json").degrees
    dual = frob.load(FIXTURES / "dual_numbers.json").degrees
    assert grading.format_poincare(_generating_function(surface, 3)) == (
        "1 + 3*t^2 + 9*t^4 + 14*t^6 + 9*t^8 + 3*t^10 + t^12")
    assert grading.format_poincare(_generating_function(dual, 4)) == (
        "1 + t + 3*t^2 + 3*t^3 + 4*t^4 + 3*t^5 + 3*t^6 + t^7 + t^8")
