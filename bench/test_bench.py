"""Self-tests of the benchmark at tiny sizes (Sym^2 and Sym^3).

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q bench``.
They show that the output gates are not vacuous: a corrupted digest, product
coefficient or oracle coefficient each count as failed operations.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
import run
from orbifrob import symprod

TINY_PIPELINE = run.Workload(
    "tiny-pipeline", "pipeline", (("dual", 2), ("k", 3)),
    purpose="self-test", dominant="", bypassed="")
TINY_PRODUCTS = run.Workload(
    "tiny-products", "products", (("surface4", 2), ("surface4", 3)),
    purpose="self-test", dominant="", bypassed="",
    shapes=(("e*e", "e*t", "t*e", "t*t"), ("e*t", "t*t", "t*u")))


def benchmark_spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_seed_oracle_values():
    assert oracle.symmetric_power_poincare([0], 5) == {0: 7}
    assert sum(oracle.symmetric_power_poincare([0, 2], 4).values()) == 20
    assert oracle.symmetric_power_poincare([0, 2, 2, 4], 2) == oracle.parse_poincare(
        "1 + 3*t^2 + 6*t^4 + 3*t^6 + t^8")


def test_spec_lists_the_metrics_the_runs_print():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", [TINY_PIPELINE, TINY_PRODUCTS], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    spec = benchmark_spec()
    result = run.run(workload, seed=7, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    printed = capsys.readouterr().out
    for name, m in result["metrics"].items():
        assert f"  {name} = {m['value']} {m['unit']}\n" in printed


def test_traced_pipeline_counts_the_work():
    metrics = run.run(TINY_PIPELINE, seed=1, seconds=0.01, trace=True)["metrics"]
    assert metrics["symprod.pair_tables"]["value"] == 2 ** 2 + 6 ** 2
    assert metrics["gfrob.invariant_dim"]["value"] == 5 + 3
    assert metrics["gfrob.verify.a.instances"]["value"] > 0
    assert metrics["symprod.multiply_chain_s"]["value"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_digest_counts_as_failure(trace, monkeypatch):
    doc, verify_out, inv_out = run.DIGESTS[("dual", 2)]
    monkeypatch.setitem(run.DIGESTS, ("dual", 2), (doc, verify_out[::-1], inv_out))
    result = run.run(TINY_PIPELINE, seed=3, seconds=0.01, trace=trace)
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_oracle_coefficient_counts_as_failure(trace, monkeypatch):
    true_oracle = oracle.symmetric_power_poincare

    def corrupted(degrees, n):
        poly = true_oracle(degrees, n)
        poly[max(poly)] += 1
        return poly

    monkeypatch.setattr(oracle, "symmetric_power_poincare", corrupted)
    result = run.run(TINY_PIPELINE, seed=3, seconds=0.01, trace=trace)
    assert not result["correct"]
    assert result["failed"] == len(TINY_PIPELINE.instances) * (2 if trace else 1)


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_product_coefficient_counts_as_failure(trace, monkeypatch):
    true_route = symprod.SymmetricProductAlgebra.multiply_pushforward

    def corrupted(self, g, a, h, b):
        out = true_route(self, g, a, h, b)
        out[0] += Fraction(1, 3)
        return out

    monkeypatch.setattr(symprod.SymmetricProductAlgebra, "multiply_pushforward", corrupted)
    result = run.run(TINY_PRODUCTS, seed=5, seconds=0.01, trace=trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_products_follow_the_seed(tmp_path):
    prog = run.Program()
    pools = []
    for seed in (11, 11, 12):
        pool = run.products_setup(prog, TINY_PRODUCTS, tmp_path, seed)
        pools.append([(spa.n, g, a, h, b) for spa, g, a, h, b in pool[0]])
    assert pools[0] == pools[1] != pools[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "products", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
