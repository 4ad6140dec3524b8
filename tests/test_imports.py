"""The package stays stdlib-only: every import under src/orbifrob names an
orbifrob module or a standard-library module.  Each CLI command imports only
the orbifrob modules it runs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbifrob"
FIXTURES = PACKAGE.parent.parent / "fixtures"


def _foreign_imports(source: str, filename: str = "<source>") -> list[str]:
    """'line: module' for every import that is neither orbifrob's nor stdlib."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        for name in names:
            root = name.split(".")[0]
            if not (name.startswith(".") or root == "orbifrob" or root in sys.stdlib_module_names):
                out.append(f"{node.lineno}: {name}")
    return out


def test_checker_flags_third_party_imports():
    source = ("import json, numpy as np\nfrom . import groups\nfrom orbifrob.gfrob import twist\n"
              "from sympy.core import Rational\nif True:\n    import scipy\n")
    assert _foreign_imports(source) == ["1: numpy", "4: sympy.core", "6: scipy"]


def test_package_imports_only_stdlib_and_itself():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    foreign = {path.name: _foreign_imports(path.read_text(encoding="utf-8"), str(path))
               for path in files}
    assert {name: found for name, found in foreign.items() if found} == {}


def _loaded_modules(cwd, *argv) -> set[str]:
    """Short names of the orbifrob modules a fresh ``python -m orbifrob.cli``
    process imports, read from its ``-X importtime`` report."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "orbifrob.cli", *map(str, argv)],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"\|\s+orbifrob\.(\w+)$", proc.stderr, re.MULTILINE))


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    doc = tmp_path / "sym2.json"
    built = _loaded_modules(tmp_path, "symprod", FIXTURES / "dual_numbers.json", "--n", 2,
                            "--lambda", "-1", "--out", doc)
    assert {"frobenius", "cocycles", "symprod"} <= built
    assert "grading" not in built
    checked = _loaded_modules(tmp_path, "verify", doc)
    assert "gfrob" in checked
    assert checked.isdisjoint({"symprod", "cocycles", "grading", "frobenius"})
    counted = _loaded_modules(tmp_path, "invariants", doc, "--poincare", "--shift", "standard")
    assert "grading" in counted
    assert counted.isdisjoint({"symprod", "cocycles"})
