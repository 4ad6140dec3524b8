"""The package stays stdlib-only: every import under src/orbifrob names an
orbifrob module or a standard-library module.  Each CLI command imports only
the orbifrob modules it runs.  The package holds nothing that no one uses:
every public definition is reached from the package, the benchmark or an
acceptance criterion, and every private one from the package or the
benchmark."""

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
    # a twist builds its twisted group ring in gfrob and its cocycle in cocycles
    for flags in (["--lambda", "-1"], ["--super"]):
        twisted = _loaded_modules(tmp_path, "twist", doc, *flags, "--out", "tw.json")
        assert "cocycles" in twisted, flags
        assert twisted.isdisjoint({"symprod", "grading", "frobenius"}), flags
    for argv in (["mult", doc, "1@(1 2)", "1@(1 2)"], ["export", doc]):
        assert _loaded_modules(tmp_path, *argv).isdisjoint(
            {"symprod", "cocycles", "grading", "frobenius"}), argv[0]


# -- every public definition has a user -------------------------------------------

def _definitions(tree, private: bool = False) -> list[tuple[str, str, int, int]]:
    """(qualified name, name, first line, last line) of every public function
    and class at module level and every public method of those classes; with
    ``private``, of those whose name starts with one underscore instead."""
    out = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") == private and not node.name.startswith("__"):
                    out.append((owner + node.name, node.name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name + ".")

    visit(tree.body, "")
    return out


def _module_of(node, bound: dict, modules) -> str | None:
    """The package module an expression names: a name bound to it, or a
    subscript ``m["M"]`` as the benchmark keeps its modules."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value in modules):
        return node.slice.value
    return None


def _bindings(tree, modules) -> dict:
    """name -> package module, for each name a file binds to one module by an
    import or by an assignment from ``m["M"]``, and name -> "" for a module
    outside the package (``import json``); a name bound to two is left out."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                module = alias.name.rpartition(".")[2]
                if module in modules and (isinstance(node, ast.ImportFrom) or alias.asname):
                    pairs.append((alias.asname or alias.name, module))
                elif isinstance(node, ast.Import) and alias.name.partition(".")[0] != "orbifrob":
                    pairs.append((alias.asname or alias.name.partition(".")[0], ""))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                both = (zip(target.elts, node.value.elts)
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                        else [(target, node.value)])
                pairs += [(name.id, _module_of(value, {}, modules))
                          for name, value in both if isinstance(name, ast.Name)]
    bound = defaultdict(set)
    for name, module in pairs:
        if module is not None:
            bound[name].add(module)
    return {name: found.pop() for name, found in bound.items() if len(found) == 1}


def _references(tree, strings: bool, modules=()):
    """(module, name, line) of every name, attribute and imported name, and
    with ``strings`` of every string constant (a tracer patches by name).
    ``module`` is the package module the reference resolves to, None for one
    that counts by name: ``X.name`` and ``m["M"].name`` with X bound to M,
    ``from .M import name``, and a string passed after M, as in
    ``patch(M, "name")``, resolve to M; ``json.load`` resolves to "", no
    module of the package."""
    bound = _bindings(tree, modules)
    resolved = set()   # ids of the string constants a call resolves
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield None, node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield _module_of(node.value, bound, modules), node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                yield (module if module in modules else None), alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield None, alias.name.rpartition(".")[2], node.lineno
        elif (strings and isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            module = _module_of(node.args[0], bound, modules)
            if module is not None:
                resolved.add(id(node.args[1]))
                yield module, node.args[1].value, node.lineno
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in resolved):
            yield None, node.value, node.lineno


def _unused_definitions(package: dict, users: dict, private: bool = False) -> list[str]:
    """'module.name' of each public (with ``private``: private) definition in
    ``package`` (module -> source) that nothing references outside its own
    body: not the package, and not ``users`` (file -> (source, whether its
    string constants count)).  A reference resolved to a module counts only
    for that module's definition."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    seen = defaultdict(list)   # (module or None, name) -> (file, line) of each reference
    sources = [(module, tree, False) for module, tree in trees.items()]
    sources += [(where, ast.parse(source), strings) for where, (source, strings) in users.items()]
    for where, tree, strings in sources:
        for module, name, line in _references(tree, strings, trees):
            seen[module, name].append((where, line))
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for qualified, name, first, last in _definitions(tree, private)
            if all(where == module and first <= line <= last
                   for where, line in seen[None, name]
                   + (seen[module, name] if qualified == name else []))]


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
    # the private check: a helper only its own body calls is flagged, a used one is not
    package["m"] += ("\n\ndef _helper():\n    return _helper()\n\n\n"
                     "def _used():\n    pass\n\n\nclass _Kept:\n    def __init__(self):\n"
                     "        _used()\n")
    package["n"] += "from m import _Kept\n"
    assert _unused_definitions(package, users, private=True) == ["m.K._private", "m._helper"]
    # a reference through a module counts for that module's definition only
    package = {"a": "def load():\n    pass\n", "b": "def load():\n    pass\n",
               "c": "from . import b\n\n\ndef run():\n    return b.load()\n"}
    assert _unused_definitions(package, {}) == ["a.load", "c.run"]
    users = {"bench": ('from orbifrob import a, b\nfa, fb = m["a"], m["b"]\nfb.load()\n'
                       'm["c"].run()\nt.patch_span(fb, "load")\n', True)}
    assert _unused_definitions(package, users) == ["a.load"]
    users = {"bench": ('x = {"a": 1}\nt.patch_span(m["c"], "load")\n', True)}
    assert _unused_definitions(package, users) == ["a.load", "c.run"]
    users = {"bench": ('y = m["a"]\nt.patch_span(y, "run")\n', True)}
    assert _unused_definitions(package, users) == ["a.load", "c.run"]
    users = {"bench": ('from orbifrob.b import load\nt.patch_span(K, "run")\n', True)}
    assert _unused_definitions(package, users) == ["a.load"]
    users = {"bench": ('import json\njson.load(fh)\n', True)}
    assert _unused_definitions(package, users) == ["a.load", "c.run"]


def test_every_public_definition_has_a_user():
    # src/ keeps what a CLI command or the benchmark reaches and the mathematics
    # an acceptance criterion calls; a helper only other tests use lives with them
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    users = {str(path): (path.read_text(encoding="utf-8"), True)
             for path in sorted((ROOT / "bench").glob("*.py"))}
    # a private helper that only tests call is dead code in src/
    assert _unused_definitions(package, users, private=True) == []
    acceptance = ROOT / "tests" / "test_acceptance.py"
    users[str(acceptance)] = (acceptance.read_text(encoding="utf-8"), False)
    assert _unused_definitions(package, users) == []
