"""The package stays stdlib-only: every import under src/orbifrob names an
orbifrob module or a standard-library module.  Each CLI command imports only
the orbifrob modules it runs.  The package holds nothing that no one uses:
every public definition is reached from the package, the benchmark or an
acceptance criterion."""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbifrob"
FIXTURES = ROOT / "fixtures"


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


# -- every public definition has a user -------------------------------------------

def _definitions(tree) -> list[tuple[str, str, int, int]]:
    """(qualified name, name, first line, last line) of every public function
    and class at module level and every public method of those classes."""
    out = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.append((owner + node.name, node.name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name + ".")

    visit(tree.body, "")
    return out


def _references(tree, strings: bool):
    """(name, line) of every name, attribute and imported name, and with
    ``strings`` of every string constant (a tracer patches by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _unused_definitions(package: dict, users: dict) -> list[str]:
    """'module.name' of each public definition in ``package`` (module -> source)
    that nothing references outside its own body: not the package, and not
    ``users`` (file -> (source, whether its string constants count))."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    seen = defaultdict(list)   # name -> (file, line) of each reference
    for module, tree in trees.items():
        for name, line in _references(tree, False):
            seen[name].append((module, line))
    for where, (source, strings) in users.items():
        for name, line in _references(ast.parse(source), strings):
            seen[name].append((where, line))
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for qualified, name, first, last in _definitions(tree)
            if all(where == module and first <= line <= last for where, line in seen[name])]


def test_checker_flags_unreferenced_definitions():
    package = {
        "m": ("def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
              "def alone(n):\n    return alone(n - 1)\n\n\nclass K:\n"
              "    def patched(self):\n        pass\n\n    def quoted(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n"),
        "n": "from m import used\n",
    }
    users = {"bench": ('t.patch(K, "patched")\n', True), "acceptance": ('x = "quoted"\n', False)}
    assert _unused_definitions(package, users) == ["m.alone", "m.K.quoted"]


def test_every_public_definition_has_a_user():
    # src/ keeps what a CLI command or the benchmark reaches and the mathematics
    # an acceptance criterion calls; a helper only other tests use lives with them
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    users = {str(path): (path.read_text(encoding="utf-8"), True)
             for path in sorted((ROOT / "bench").glob("*.py"))}
    acceptance = ROOT / "tests" / "test_acceptance.py"
    users[str(acceptance)] = (acceptance.read_text(encoding="utf-8"), False)
    assert _unused_definitions(package, users) == []
