"""Shared pass/fail report structure for the exhaustive verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field


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
