"""Single-leaf mutations of sector-graded, cocycle and base-algebra documents
under the commands that read them.

Every run must end in exit code 0, 1 or 2, with no exception escaping
``cli.main``; an exit 1 must name a failing check with its witness, and an
exit 2 must write exactly one ``error:`` line.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbifrob import cli
from orbifrob import cocycles as cocy
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob import symprod as sp_mod

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _sym2_hilbert() -> dict:
    X = sp_mod.SymmetricProductAlgebra(frob.load(FIXTURES / "dual_numbers.json"), 2).realize()
    return gfrob.to_json_dict(gfrob.twist(X, cocy.normalized_sn_cocycle(2, -1)))


KS3 = json.loads((FIXTURES / "ks3.json").read_text())
SN3_COCYCLE = json.loads((FIXTURES / "sn3_sign_cocycle.json").read_text())

# document, and the unit of its identity sector in element syntax
DOCUMENTS = {
    "ks3": (KS3, "1@e"),
    "sym2_hilbert": (_sym2_hilbert(), "1⊗1@e"),
}


def _leaves(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


LEAVES = {name: list(_leaves(doc)) for name, (doc, _) in DOCUMENTS.items()}
LEAVES["sn3_cocycle"] = list(_leaves(SN3_COCYCLE))
BASES = {name: json.loads((FIXTURES / f"{name}.json").read_text())
         for name in ("dual_numbers", "surface4")}
LEAVES.update({name: list(_leaves(doc)) for name, doc in BASES.items()})
# the coefficient leaves of a base: each unit entry and the value ending each
# metric and structure entry, a few of the many leaves a uniform draw picks from
VALUE_LEAVES = {name: [("unit", i) for i in range(len(doc["unit"]))]
                + [(field, k, len(entry) - 1) for field in ("metric", "structure")
                   for k, entry in enumerate(doc[field])]
                for name, doc in BASES.items()}

REPLACEMENTS = st.one_of(
    st.integers(-2, 9),
    st.sampled_from(["0", "-1", "1/2", "1/0", "x", "", "e", "(1 2)", True, None, 2.5, [], {},
                     [0], {"n": 2}, 10 ** 20]),
    st.text(max_size=4),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutated(data, workdir, name, original, leaves=None, replacements=REPLACEMENTS) -> Path:
    """Write ``original`` with one leaf, drawn from ``data`` out of ``leaves``
    (by default every leaf), replaced by a draw from ``replacements``."""
    doc = copy.deepcopy(original)
    *parents, last = data.draw(st.sampled_from(leaves or LEAVES[name]))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = data.draw(replacements)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _check_run(argv) -> tuple[int, str]:
    """Run ``argv`` and check its exit contract; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in (0, 1, 2)
    if code == 1:
        assert any(": FAIL [" in line and " witness: " in line
                   for line in out.getvalue().splitlines()), out.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code, out.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_document_exits_cleanly(workdir, data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    original, unit = DOCUMENTS[name]
    path = _mutated(data, workdir, name, original)
    for argv in (["invariants", path, "--poincare", "--shift", "standard"],
                 ["mult", path, unit, unit],
                 ["twist", path, "--lambda", "-1"]):
        _check_run(argv)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_document_verifies_and_twists_cleanly(workdir, data):
    ks3, cocycle = FIXTURES / "ks3.json", FIXTURES / "sn3_sign_cocycle.json"
    if data.draw(st.booleans()):
        ks3 = _mutated(data, workdir, "ks3", KS3)
    else:
        cocycle = _mutated(data, workdir, "sn3_cocycle", SN3_COCYCLE)
    for argv in (["verify", ks3], ["verify", cocycle], ["twist", ks3, "--cocycle", cocycle]):
        _check_run(argv)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_base_document_exits_cleanly(workdir, data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    if data.draw(st.booleans()):   # a coefficient leaf, where a JSON bool once read as 0 or 1
        path = _mutated(data, workdir, name, BASES[name], VALUE_LEAVES[name],
                        st.one_of(st.booleans(), REPLACEMENTS))
    else:
        path = _mutated(data, workdir, name, BASES[name])
    for argv in (["verify", path], ["symprod", path, "--n", "2", "--out", workdir / "sym2.json"]):
        _check_run(argv)
    # the canonical form is a fixed point: an export reads back to the same bytes
    code, text = _check_run(["export", path])
    if code == 0:
        exported = workdir / f"{name}.export.json"
        exported.write_text(text)
        assert _check_run(["export", exported]) == (0, text)
