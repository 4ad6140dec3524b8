"""Pinned sha256 digests of CLI stdout and of the ``verify --out`` report.

Every refactor of the table builders, the twist, the invariant ring, the
verifier or the JSON layer must reproduce these bytes and exit codes
exactly.  The CLI runs in-process through ``cli.main``; stdout is read with
``capsys``.
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


# verify runs: (exit code, stdout sha256, report sha256)
VERIFY_FIXTURES = {
    "dual_numbers.json":
        (0, "083acf6848688791e457219a75cd166b80601fbb97ea12737ec8afcabf4a2098",
         "42b02249c0b518a8e1dc1ddc659e5b895f973e5d852dee441713e1b36319e1d1"),
    "dual_numbers_broken_invariance.json":
        (1, "1df69fc57d5f0b1640b0ea90f920641a51dddbacf7d08cfb53190fad417c3810",
         "f67322a19a5a46269e5c4fcb606b62632f8a9617539914a0fffe1f8906590b88"),
    "ground.json":
        (0, "de4cdc8c375ee014b595d586f4c9bf395a23207c4795855c2c21542bdc4a0a04",
         "751256b17f3d42360075e299d6e63a783e43224078b3d97ab79a389eb134ec11"),
    "ks3.json":
        (0, "e0af4d3b6aa88f1116facb42172cfea5a705a77d6cd1ae3a46fc4452117b1191",
         "4963f73d0926b2ca2afe4d8244f5cd4186211a0f2a7c40f606e681a118845253"),
    "ks3_broken_metric.json":
        (1, "09fb7ffa88d1d6027d9023601f666c5f02b42f3edaf3731de2e3ea662d33f0c4",
         "99f9d9c4107617eb73497f0652518ec28c121830c8229f33b1c7874a8d55f1b4"),
    "sn3_sign_cocycle.json":
        (0, "9a04c22c7151c4862e7f2b9a91178e7aab818a4ee71c37d24d5ae233dcfefe4a",
         "422830cd6723d2edab5ade8e192ba10e5e7b424ed71dcb13ac8b6451eba66c4d"),
    "surface4.json":
        (0, "95400ae549694b6cfeb6d64c728bf586ee41c0cc7c465568439de32ca6e15896",
         "31254106ec502cc6c4a8bfe74e75eb1c652728b04056af804ca2500a3c62ae1d"),
}

# symprod flags of the verified document -> (exit code, stdout sha256, report sha256)
VERIFY_SYMPROD = {
    ("ground", "--n", "2"):
        (0, "9c50976978868f41e71cde9b9c950de283cd1dadb1ca255a4ac3c38a86870225",
         "9606dfc704157c53ef7ca5426e5c8c1a96740ea5b004567512f576911a7da60e"),
    ("ground", "--n", "3"):
        (0, "b3c708fd3581ac70bf7cf7b34859584585463ef756081fdb43af00a46af9e598",
         "4963f73d0926b2ca2afe4d8244f5cd4186211a0f2a7c40f606e681a118845253"),
    ("dual_numbers", "--n", "2"):
        (0, "5373802f631ecf1419d1febb879d72b1ef656c2b071b5eae5b176325dc9de89a",
         "ade3b936ff6704edf18f88f39ecdc120004f6124b3071509e6b7329452bc4f19"),
    ("dual_numbers", "--n", "3"):
        (0, "b833e6b3d3b2b463bc1df01f9151a90d0f5942540b4b5727cc931309ec929d5d",
         "448d4dd68c135882a43f22d5ff40d26de8890c719dc76d5d3ee22ff828ef2019"),
    ("dual_numbers", "--n", "3", "--lambda", "-1"):
        (0, "d994e3aeca50c5e63289d234636c5b62893931f20fbf2060c9d830a466a695d1",
         "448d4dd68c135882a43f22d5ff40d26de8890c719dc76d5d3ee22ff828ef2019"),
    ("dual_numbers", "--n", "3", "--super"):
        (0, "5eecc30ad8d77edf9757ec84b79dd782c2461460293709d17360a2e57ccb2e5e",
         "f5e43a555f94d1dcd923d2dda1a78bb7ae03da3d2e8e6cd2891e461446f8cc90"),
    ("surface4", "--n", "2"):
        (0, "6704e4f2918eb5b77631980313efb84025942f71eaff0f5dd6fba8aa362511db",
         "00b6f54714f6b0546ea694b5a4e5c80d07c8a1eadf7047f883d748cc8f6ff04a"),
    ("surface4", "--n", "3"):
        (0, "eb88b8c99544ed77e7611fabaf240c134b49addbea213d2f210b17f0120316e5",
         "b84603522a5cb39778e0d23f27c7ec1349f9f572e29c7fb9d31298dfad0872b6"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_digest(capsys, *argv, code: int = 0) -> str:
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == code
    return sha256(capsys.readouterr().out.encode())


def verify_digests(capsys, tmp_path, document, code: int) -> tuple[str, str]:
    """Digests of the stdout and the report of ``verify document --out report.json``."""
    report = tmp_path / "report.json"
    out = stdout_digest(capsys, "verify", document, "--out", report, code=code)
    return out, sha256(report.read_bytes())


@pytest.fixture(scope="module")
def sym3_dual(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "sym3_dual_numbers.json"
    assert cli.main(["symprod", str(FIXTURES / "dual_numbers.json"), "--n", "3",
                     "--out", str(path)]) == 0
    return path


def test_every_fixture_is_exported():
    assert sorted(EXPORT) == sorted(p.name for p in FIXTURES.glob("*.json"))


def test_every_fixture_is_verified():
    assert sorted(VERIFY_FIXTURES) == sorted(p.name for p in FIXTURES.glob("*.json"))


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


@pytest.mark.parametrize("name", list(VERIFY_FIXTURES))
def test_verify_fixture_is_pinned(capsys, tmp_path, name):
    code, out, report = VERIFY_FIXTURES[name]
    assert verify_digests(capsys, tmp_path, FIXTURES / name, code) == (out, report)


@pytest.mark.parametrize("args", list(VERIFY_SYMPROD), ids=" ".join)
def test_verify_symmetric_product_is_pinned(capsys, tmp_path, args):
    base, *flags = args
    document = tmp_path / "sym.json"
    assert cli.main(["symprod", str(FIXTURES / BASES[base]), *flags, "--out", str(document)]) == 0
    code, out, report = VERIFY_SYMPROD[args]
    assert verify_digests(capsys, tmp_path, document, code) == (out, report)
