"""Degree bookkeeping: sector shifts and shifted Poincare polynomials.

Shifts are computed from exact rational eigenvalue angles theta in [0, 1)
(an eigenvalue exp(2 pi i theta) is recorded as theta), so no transcendental
arithmetic appears.  For a permutation acting on coordinate factors the
negative part of the shift vanishes and the shift reduces to half the
pairing-degree drop of the sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactnum as ex
# ``invariants`` stays a name of this module: bench/tracing.py patches it here
from .gfrob import GFrobeniusAlgebra, _invariant_basis, invariants  # noqa: F401
from .groups import Permutation, cycles


@dataclass
class ShiftData:
    """Per group element: pairing degree and the shift triple."""

    top_degree: Fraction
    pairing_degree: list   # d_g
    s_plus: list
    s_minus: list
    s: list


def permutation_eigenangles(sigma: Permutation) -> list[Fraction]:
    """Angles of the permutation matrix: each k-cycle contributes {j/k}."""
    angles = []
    for block in cycles(sigma).blocks:
        k = len(block)
        angles.extend(Fraction(j, k) for j in range(k))
    return sorted(angles)


def shifts_from_eigenvalues(top_degree, pairing_degrees, eigenangles) -> ShiftData:
    """Assemble shifts from d, the d_g table and per-element angle multisets.

    s_g^+ = d - d_g;  s_g^- = sum over nonzero angles of (2 theta - 1);
    s_g = (s_g^+ + s_g^-)/2.
    """
    d = Fraction(top_degree)
    s_plus = []
    s_minus = []
    s = []
    for g, dg in enumerate(pairing_degrees):
        angles = eigenangles[g]
        for theta in angles:
            if not 0 <= theta < 1:
                raise ValueError(f"eigenangle {theta} outside [0, 1) at element {g}")
        sp = d - Fraction(dg)
        sm = sum((2 * Fraction(theta) - 1 for theta in angles if theta != 0), Fraction(0))
        s_plus.append(sp)
        s_minus.append(sm)
        s.append((sp + sm) / 2)
    return ShiftData(
        top_degree=d,
        pairing_degree=[Fraction(dg) for dg in pairing_degrees],
        s_plus=s_plus,
        s_minus=s_minus,
        s=s,
    )


def sector_pairing_degrees(X: GFrobeniusAlgebra) -> list[int]:
    """d_g read off the metric blocks; each block must be degree-homogeneous."""
    out = []
    for g in X.group.elements():
        degs = {
            X.sector_degrees[g][i] + X.sector_degrees[X.group.inv(g)][j]
            for i, row in X.metric[g].items()
            for j in row
        }
        if len(degs) > 1:
            raise ValueError(
                f"pairing on sector {X.group.labels[g]} is not degree-homogeneous: {sorted(degs)}"
            )
        out.append(degs.pop() if degs else 0)
    return out


def standard_shifts(X: GFrobeniusAlgebra) -> ShiftData:
    """Shifts for a symmetric-group algebra from the permutation eigenangles."""
    if X.group.perms is None:
        raise ValueError("standard shifts need a symmetric-group graded algebra")
    degrees = sector_pairing_degrees(X)
    angles = [permutation_eigenangles(p) for p in X.group.perms]
    return shifts_from_eigenvalues(max(degrees), degrees, angles)


def zero_shifts(X: GFrobeniusAlgebra) -> ShiftData:
    """No shift at all (degrees reported as-is)."""
    degrees = sector_pairing_degrees(X)
    zeros = [Fraction(0)] * X.group.order
    return ShiftData(
        top_degree=Fraction(max(degrees) if degrees else 0),
        pairing_degree=[Fraction(d) for d in degrees],
        s_plus=list(zeros),
        s_minus=list(zeros),
        s=list(zeros),
    )


def shifted_poincare(X: GFrobeniusAlgebra, shifts: ShiftData | None = None,
                     invariants_only: bool = False) -> dict:
    """Poincare polynomial sum over basis of t^(deg + s_g), as {exponent: count}.

    Exponents are exact Fractions (half-integers for the standard shift).
    With ``invariants_only`` the sum runs over an invariant basis instead of
    all sector basis elements; only the basis is built, not its product table.
    """
    if shifts is None:
        shifts = zero_shifts(X)
    if invariants_only:
        return invariant_poincare(X, _invariant_basis(X)[1], shifts)
    poly: dict[Fraction, int] = {}
    for g in X.group.elements():
        for deg in X.sector_degrees[g]:
            expo = Fraction(deg) + shifts.s[g]
            poly[expo] = poly.get(expo, 0) + 1
    return dict(sorted(poly.items()))


def invariant_poincare(X: GFrobeniusAlgebra, basis: list, shifts: ShiftData) -> dict:
    """Shifted Poincare polynomial over an invariant basis, such as ``invariants(X).basis``."""
    poly: dict[Fraction, int] = {}
    for i, elem in enumerate(basis):
        shift_values = {shifts.s[g] for g in elem}
        if len(shift_values) != 1:
            raise ValueError(f"invariant basis vector {i} spans sectors with different shifts")
        degrees = {X.sector_degrees[g][k] for g, vec in elem.items() for k, x in enumerate(vec) if x}
        if len(degrees) != 1:
            raise ValueError(f"invariant basis vector {i} is not degree-homogeneous")
        expo = Fraction(degrees.pop()) + shift_values.pop()
        poly[expo] = poly.get(expo, 0) + 1
    return dict(sorted(poly.items()))


def format_poincare(poly: dict) -> str:
    """Render {exponent: coeff} as a readable polynomial in t (or t^(1/2))."""
    if not poly:
        return "0"
    parts = []
    for expo, coeff in sorted(poly.items()):
        expo = ex.norm(Fraction(expo))
        if expo == 0:
            parts.append(str(coeff))
            continue
        power = "t" if expo == 1 else (f"t^{expo}" if isinstance(expo, int) else f"t^({expo})")
        parts.append(power if coeff == 1 else f"{coeff}*{power}")
    return " + ".join(parts)
