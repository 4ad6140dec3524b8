"""The package stays stdlib-only: every import under src/orbifrob names an
orbifrob module or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbifrob"


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
