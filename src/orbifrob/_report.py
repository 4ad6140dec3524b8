"""Shared pass/fail report structure for the exhaustive verifiers, their
budget, and the join kernel that decides associativity-shaped laws
(``_associator``) for base and sector-graded algebras alike."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import exactnum as ex

# budget of the exhaustive verifier: the products its joins multiply plus its
# per-pair and |G|^3 loop steps, as ``gfrob._verify_cost`` counts them
VERIFY_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


@dataclass
class CheckResult:
    key: str
    name: str
    passed: bool
    instances: int
    witness: dict | None = None


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    def run(self, rows) -> "Report":
        """Run each (key, name, instances, check, *args) row in order and record
        it; ``check(*args)`` returns the law's first witness, or None when it holds."""
        for key, name, instances, check, *args in rows:
            witness = check(*args)
            self.checks.append(CheckResult(key, name, witness is None, instances, witness))
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, key: str) -> CheckResult:
        for c in self.checks:
            if c.key == key:
                return c
        raise KeyError(key)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"{c.key} ({c.name}): {status} [{c.instances} instances]"
            if c.witness is not None:
                line += f" witness: {c.witness}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [
            {
                "check": c.key,
                "name": c.name,
                "passed": c.passed,
                "instances": c.instances,
                "witness": c.witness,
            }
            for c in self.checks
        ]


# -- the associator join ------------------------------------------------------

def _associator(xy: list, yz: list, after: dict, before: dict):
    """The smallest basis tuple (k, i, j, m) where (x_i y_j) z_m != x_i (y_j z_m).

    ``xy`` lists the entries (i, j, p, c) of x_i y_j = ... + c e_p and ``yz``
    the entries (k, j, m, p, c) of y_j z_m; ``after[p]`` holds the rows
    (k, m, row) of e_p z_m and ``before[p]`` the rows (i, row) of x_i e_p.
    Both sides meet in one flat accumulator {(k, i, j, m, q): lhs - rhs};
    only a failing call sums the two sides at its tuple for the witness.
    Returns ``(key, lhs, rhs)`` or None.
    """
    diff: dict = {}
    for i, j, p, c in xy:
        for k, m, row in after.get(p, ()):
            for q, v in row.items():
                key = (k, i, j, m, q)
                diff[key] = diff.get(key, 0) + c * v
    for k, j, m, p, c in yz:
        for i, row in before.get(p, ()):
            for q, v in row.items():
                key = (k, i, j, m, q)
                diff[key] = diff.get(key, 0) - c * v
    if not any(diff.values()):
        return None
    t = min(key[:4] for key, v in diff.items() if v)
    k, i, j, m = t
    lhs = ex._sum_rows((c, row) for i2, j2, p, c in xy if (i2, j2) == (i, j)
                       for k2, m2, row in after.get(p, ()) if (k2, m2) == (k, m))
    rhs = ex._sum_rows((c, row) for k2, j2, m2, p, c in yz if (k2, j2, m2) == (k, j, m)
                       for i2, row in before.get(p, ()) if i2 == i)
    return t, lhs, rhs


def _entries(table: dict) -> list:
    """The entries (i, j, p, c) of a product table: c e_p is a term of e_i e_j."""
    return [(i, j, p, c) for (i, j), row in table.items() for p, c in row.items()]


def _joins(table: dict, k) -> tuple[dict, dict]:
    """A product table's rows as the ``after`` (outer index k) and ``before``
    arguments of ``_associator``: by left index and by right index."""
    after: dict = {}
    before: dict = {}
    for (p, m), row in table.items():
        after.setdefault(p, []).append((k, m, row))
        before.setdefault(m, []).append((p, row))
    return after, before


def _as_product(block: ex.SparseMap) -> dict:
    """A pairing block read as a product table into a one-dimensional sector."""
    return {(i, j): {0: v} for i, row in block.items() for j, v in row.items()}


def _fmt_vec(labels: list, vec: ex.SparseVec) -> str:
    """A sparse vector as ``c*label`` terms in index order, "0" when empty."""
    if not vec:
        return "0"
    return " + ".join(f"{ex.fmt_rat(c)}*{labels[k]}" for k, c in sorted(vec.items()))
