"""Pinned sha256 digests of CLI stdout.

Every refactor of the table builders, the twist, the invariant ring or the
JSON layer must reproduce these bytes exactly.  The CLI runs in-process
through ``cli.main``; stdout is read with ``capsys``.
"""

import hashlib
from pathlib import Path

import pytest

from orbifrob import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BASES = {"ground": "ground.json", "dual_numbers": "dual_numbers.json",
         "surface4": "surface4.json"}

SYMPROD = {
    ("ground", "--n", "2"):
        "8754f48d8bfd4b6a4d02ee0ff3457b1c030924346a2c76973be4bd20b274a2c0",
    ("ground", "--n", "3"):
        "7d551deb36efa0864cc1042b732fa0124e0c01a90551b2dd4e1d9f97ca5c6ae4",
    ("ground", "--n", "3", "--lambda", "-1"):
        "c614c853004c49aee1e5c191106b1fa00a53ee932319865bcafc47fff16d8d7e",
    ("dual_numbers", "--n", "2"):
        "008b53416d2c918092a0b44440ed5d46a76ada2cbc2a84a2ee9a3eba1d2d5b3c",
    ("dual_numbers", "--n", "3"):
        "47cc23e59209576b4074f714421487a76133cb1734195328f32848dcdb77afe0",
    ("dual_numbers", "--n", "3", "--lambda", "-1"):
        "fe624492d0a5a10b7fa58c3a850f658edbeb058b8c140c5e3ddad41d25c6d848",
    ("surface4", "--n", "2"):
        "0312b716d9b4ada1b3d99d6e248ce670265e46a415fdbd16cefe6f764b15642f",
    ("surface4", "--n", "3"):
        "b0fda8deeef2d17dbbc39b0c1fee0399bfefe12763642f4baec34d7e07d2a526",
    ("surface4", "--n", "3", "--lambda", "-1"):
        "9f9b89c560fa4be9f232e04f5fe0dc74ead032f76a50fd9562747e84fde54ed8",
}

SYM3_DUAL = {
    ("twist", "--lambda", "-1"):
        "a9c9ba43869fe8937e05b0aad8ee31b1efeffae0d3172be595aeda430089a7c5",
    ("invariants", "--poincare", "--shift", "standard"):
        "aba9def974c7676f84efc15c575b037a7ef4078cd300880efefec53b23585be2",
}

EXPORT = {
    "dual_numbers.json":
        "7494288788e7460873e1f9aa0c42d55b8342d952daf0fadddb8a12aeb5baff66",
    "dual_numbers_broken_invariance.json":
        "a2dd7170699d285813edbcb7e8c1ef1a9c54591c34410dc5b3c14b0b2b273226",
    "ground.json":
        "c19b441d5c4f7dde27d4f064ae50ca9052cb5a0ad7ecaba427a4c5868069069c",
    "ks3.json":
        "141d3fb3540dd6a56ebef665f7859b39a51e1cf3ac08a16b2e5cc947fa5184bf",
    "ks3_broken_metric.json":
        "719725f6669a30cddddcfdd53fec965cc031941a0b03923220c8527ce4d3ef87",
    "sn3_sign_cocycle.json":
        "984b2a3bb7b3ee17b1539789edf0cfddb5917d87fcecb2e0245cf3159a5b737b",
    "surface4.json":
        "6af1aa7a203946cebc31db199185277c1d6f025e3a602dbad88fe12a9ad344c4",
}


def stdout_digest(capsys, *argv) -> str:
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture(scope="module")
def sym3_dual(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "sym3_dual_numbers.json"
    assert cli.main(["symprod", str(FIXTURES / "dual_numbers.json"), "--n", "3",
                     "--out", str(path)]) == 0
    return path


def test_every_fixture_is_exported():
    assert sorted(EXPORT) == sorted(p.name for p in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("args", list(SYMPROD), ids=" ".join)
def test_symprod_stdout_is_pinned(capsys, args):
    base, *flags = args
    assert stdout_digest(capsys, "symprod", FIXTURES / BASES[base], *flags) == SYMPROD[args]


@pytest.mark.parametrize("args", list(SYM3_DUAL), ids=" ".join)
def test_sym3_dual_numbers_document_stdout_is_pinned(capsys, sym3_dual, args):
    command, *flags = args
    assert stdout_digest(capsys, command, sym3_dual, *flags) == SYM3_DUAL[args]


@pytest.mark.parametrize("name", list(EXPORT))
def test_export_stdout_is_pinned(capsys, name):
    assert stdout_digest(capsys, "export", FIXTURES / name) == EXPORT[name]
