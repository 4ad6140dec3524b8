"""The benchmark's tracer (bench/tracing.py) patches orbifrob attributes by name,
and its runner (bench/run.py) reads the verifier's check keys by name.

Renaming or deleting one of them breaks traced benchmark runs, which tier-1
does not start; these tests install the tracer on the current modules and
restore it, and compare the runner's key list with a report's, so such a
change fails here.
"""

import ast
import importlib.util
from pathlib import Path

from orbifrob import cocycles, exactnum, frobenius, gfrob, grading, groups, symprod

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
MODULES = {"exactnum": exactnum, "frobenius": frobenius, "groups": groups,
           "cocycles": cocycles, "symprod": symprod, "gfrob": gfrob, "grading": grading}


def _tracing():
    spec = importlib.util.spec_from_file_location("orbifrob_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_on_the_current_modules():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, MODULES)
        patched = list(tracer._patches)
        assert exactnum.rank({0: {0: 1}, 1: {1: 1}}) == 2
        assert tracer.calls["exactnum.rank"] == 1
    finally:
        tracer.restore()
    assert len(patched) > 20
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_tracer_counts_the_linear_algebra_the_program_runs(qx2):
    # the patched names are the kit that verify_axioms and invariants call, so
    # the benchmark's exactnum.* metrics count real work
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, MODULES)
        X = symprod.SymmetricProductAlgebra(qx2, 2).realize()
        assert gfrob.verify_axioms(X).passed
        gfrob.invariants(X)
    finally:
        tracer.restore()
    for name in ("exactnum.echelon", "exactnum.mat_mul", "exactnum.rank"):
        assert tracer.calls[name] > 0, name


def test_verify_keys_match_the_benchmark(sp_factory, qx2):
    # a renamed or reordered check would silently zero the runner's
    # gfrob.verify.<key>.instances metrics; the runner is read, not imported
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    keys = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_KEYS"])
    report = gfrob.verify_axioms(sp_factory(qx2, 2).realize())
    assert tuple(check.key for check in report.checks) == keys
