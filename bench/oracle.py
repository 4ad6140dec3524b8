"""Generating-function oracle for symmetric products; imports nothing from orbifrob.

For an evenly graded base with basis degrees deg(e_i) and top degree d, the
shifted invariant Poincare polynomial of Sym^n is the q^n coefficient of

    prod_{k>=1} prod_i (1 - t^(deg e_i + (k-1) d/2) q^k)^(-1)

(Macdonald 1962, Goettsche 1990).  Polynomials are {exponent: count} dicts
with Fraction exponents, the same shape `orbifrob invariants --poincare`
prints.
"""

from __future__ import annotations

from fractions import Fraction


def symmetric_power_poincare(degrees, n: int) -> dict:
    """q^n coefficient of the product above; ``degrees`` lists deg(e_i)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if any(deg % 2 for deg in degrees):
        raise ValueError("the oracle covers evenly graded bases only")
    top = Fraction(max(degrees))
    series = [{} for _ in range(n + 1)]
    series[0] = {Fraction(0): 1}
    for k in range(1, n + 1):
        for deg in degrees:
            expo = Fraction(deg) + (k - 1) * top / 2
            # dividing by (1 - t^expo q^k): ascending in-place update
            for m in range(k, n + 1):
                for e, c in series[m - k].items():
                    key = e + expo
                    series[m][key] = series[m].get(key, 0) + c
    return dict(sorted(series[n].items()))


def parse_poincare(text: str) -> dict:
    """Parse '1 + t + 3*t^2 + 2*t^(3/2)' (or a bare count like '7')."""
    poly: dict = {}
    for term in text.split(" + "):
        term = term.strip()
        coeff_text, star, power = term.partition("*")
        if not star:
            coeff_text, power = ("1", term) if term.startswith("t") else (term, "")
        if not power:
            expo = Fraction(0)
        elif power == "t":
            expo = Fraction(1)
        elif power.startswith("t^"):
            expo = Fraction(power[2:].strip("()"))
        else:
            raise ValueError(f"unreadable Poincare term {term!r}")
        poly[expo] = poly.get(expo, 0) + int(coeff_text)
    return dict(sorted(poly.items()))


def check_invariants_output(stdout: str, degrees, n: int) -> str | None:
    """None when the 'total:' and 'poincare:' lines match the oracle, else why not."""
    expected = symmetric_power_poincare(degrees, n)
    total = poincare = None
    for line in stdout.splitlines():
        if line.startswith("total: "):
            total = int(line[len("total: "):])
        elif line.startswith("poincare: "):
            poincare = parse_poincare(line[len("poincare: "):])
    if poincare != expected:
        return f"poincare {poincare} != oracle {expected}"
    if total != sum(expected.values()):
        return f"total {total} != oracle {sum(expected.values())}"
    return None
