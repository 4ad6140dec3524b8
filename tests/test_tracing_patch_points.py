"""The benchmark's tracer (bench/tracing.py) patches orbifrob attributes by name.

Renaming or deleting one of them breaks traced benchmark runs, which tier-1
does not start; this test installs the tracer on the current modules and
restores it, so such a change fails here.
"""

import importlib.util
from pathlib import Path

from orbifrob import cocycles, exactnum, frobenius, gfrob, grading, groups, symprod

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
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
        assert exactnum.rank([[1, 0], [0, 1]]) == 2
        assert tracer.calls["exactnum.rank"] == 1
    finally:
        tracer.restore()
    assert len(patched) > 20
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
