"""orbifrob benchmark: time to a certified Sym^n result, certified products,
and per-module traced timings.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src and run
as ``python -m orbifrob.cli``.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they are
the per-layer ones of a traced replay (see tracing.py).  Scratch files go
under ./.bench_work.  Self-tests: ``PYTHONPATH=src python3 -m pytest -q bench``.

Load is one single-threaded client in a closed loop: the next pass or
product starts when the previous one has finished.  Each measured unit is
checked before it counts: pinned sha256 digests of every CLI output, the
generating-function oracle (oracle.py) for every invariant ring, and exact
agreement of the two independent product routes.

End-to-end metrics, the same names on every workload.  Times are CPU
seconds rescaled to the host's idle speed (see Clock); wall times are printed
as notes above the result line.
  setup_s            median of SETUP_REPEATS set-ups (pipelines: the
                     `orbifrob verify` of each base document; products: load
                     and validate the base, build S_n and the algebras, make
                     the seeded element pool)
  result_cpu_s       seconds for one unit, a pass of symprod -> verify ->
                     invariants over the workload's instances or a basket of
                     one certified product per shape: the sum over its parts
                     of each part's median over the run
  results_per_cpu_s  instances or products per second at that pace
  peak_rss_mb        largest resident set of the run and of its child processes
  ok_ratio           1 - failed / attempted (the fail ratio's complement, so
                     that no metric reads 0)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170            # every run ends well inside 180 s
SETUP_REPEATS = 5
PRODUCT_POOL = 24            # baskets of seeded elements made during set-up
TRACED_BASKETS = 4           # baskets a traced products run replays, untraced and traced

# Base algebras, the same documents as fixtures/ground.json,
# fixtures/dual_numbers.json and fixtures/surface4.json.
BASES = {
    "k": {"name": "k", "dim": 1, "basis": [{"label": "1", "degree": 0, "parity": 0}],
          "unit": ["1"], "metric": [[0, 0, "1"]], "structure": [[0, 0, 0, "1"]]},
    "dual": {"name": "Q[x]/(x^2)", "dim": 2,
             "basis": [{"label": "1", "degree": 0, "parity": 0},
                       {"label": "x", "degree": 2, "parity": 0}],
             "unit": ["1", "0"], "metric": [[0, 1, "1"], [1, 0, "1"]],
             "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
    "surface4": {"name": "surface4", "dim": 4,
                 "basis": [{"label": "1", "degree": 0, "parity": 0},
                           {"label": "a", "degree": 2, "parity": 0},
                           {"label": "b", "degree": 2, "parity": 0},
                           {"label": "t", "degree": 4, "parity": 0}],
                 "unit": ["1", "0", "0", "0"],
                 "metric": [[0, 3, "1"], [1, 2, "1"], [2, 1, "1"], [3, 0, "1"]],
                 "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [0, 3, 3, "1"],
                               [1, 0, 1, "1"], [1, 2, 3, "1"], [2, 0, 2, "1"], [2, 1, 3, "1"],
                               [3, 0, 3, "1"]]},
}

# sha256 of the `symprod --lambda -1` document and of the `verify` and
# `invariants --poincare --shift standard` stdout, as the seed commit printed them.
DIGESTS = {
    ("k", 5): ("56bf6bf294868fc83acf2dde6f52d3321647d430b206366fcafb9949675b0741",
               "3fe5ce965e14240d00d961d9e0ea94ae93d1feda9ff5f6c3d39a329c63d330a4",
               "ea1e8ace335f131e3dc741a23b95acedf4c1a08c2d3c3946aad2726a7f7a8708"),
    ("dual", 3): ("fe624492d0a5a10b7fa58c3a850f658edbeb058b8c140c5e3ddad41d25c6d848",
                  "d994e3aeca50c5e63289d234636c5b62893931f20fbf2060c9d830a466a695d1",
                  "aba9def974c7676f84efc15c575b037a7ef4078cd300880efefec53b23585be2"),
    ("surface4", 2): ("055d177dbafdacd1ee1dd8e61b095c7a53756aa42507d3cd03f98e4da2e92ada",
                      "a5c0bcde64bcd13d8f055463c3f45761d72d94f5bd7ad3b8d0034f2f15e3e1ac",
                      "75fc741c579e4c8e6c936a58ddaf304f66c4af2dca0d0007b535786cfaf83fe3"),
    ("dual", 2): ("673fcaf21930d5475c1aac4045275712a0bdc313b7f6f46dc9ebc284ad660a3d",
                  "8408d4d6aec434190dd3c7bf717df89f12e96ed8a0c3201b52df39e3891a91b4",
                  "6de2236a3b28b616ded29adb292cb865241c448064db4336485728a25e248a25"),
    ("k", 3): ("c614c853004c49aee1e5c191106b1fa00a53ee932319865bcafc47fff16d8d7e",
               "9f8eb18a9e0c59b5f3f2a15ee8c77aa3157ab987ed194db4f73d97036d3d2c1a",
               "aa0adfa5035093e64b77438d5ba31e5e5f091d64bfd7536e4ce98c49471f27b7"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "pipeline" or "products"
    instances: tuple     # (base key, n) pairs
    purpose: str
    dominant: str        # the layers the traced run should show on top
    bypassed: str        # layers this workload never reaches
    # products: per instance, the shapes of one basket.  "e*t" multiplies the
    # identity sector by a transposition sector, "t*t" a transposition by
    # itself, "t*u" two transpositions sharing a point, "t|u" two disjoint
    # ones; the seed picks the points and the coefficients.
    shapes: tuple = ()


# pipeline-group is runnable by name but not listed in BENCHMARK.json: one pass
# takes 25-40 s, so a run holds a single pass and a third listed workload
# would not fit the time all runs together may take.  It returns once the
# verifier affords several passes a run.
WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline-group", "pipeline", (("k", 5),),
        purpose="symprod --lambda -1 -> verify -> invariants --poincare on Sym^5(k): 120 "
                "one-dimensional sectors, 14,400 tiny pair tables, a 1.9 MB document",
        dominant="gfrob.verify_axioms (|G|^3 structure, associativity and ii scans)",
        bypassed="symprod.multiply_chain, symprod.multiply_pushforward; invariants is negligible"),
    Workload(
        "pipeline-sector", "pipeline", (("dual", 3), ("surface4", 2)),
        purpose="the same pipeline on few, large sectors: Sym^3(Q[x]/(x^2)) and "
                "Sym^2(surface4), about 2 s a pass, so a run repeats each step ~12 times",
        dominant="gfrob.invariants + grading.shifted_poincare (one echelon per product "
                 "pair, computed twice)",
        bypassed="symprod.multiply_chain, symprod.multiply_pushforward"),
    Workload(
        "products", "products", (("surface4", 4), ("surface4", 5)),
        purpose="certified products of dense seeded elements in the sectors with >= n-1 "
                "cycles of Sym^4 and Sym^5(surface4), whose tables exceed BUILD_BUDGET",
        dominant="symprod.multiply_chain + symprod.multiply_pushforward",
        bypassed="realize, twist, JSON, verify_axioms, invariants, grading, the CLI",
        shapes=(("e*e", "e*t", "t*e", "t*t", "t*u", "t|u"), ("t*t", "t*u", "t|u"))),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "result_cpu_s": "s", "results_per_cpu_s": "1/s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
STEPS = ("symprod", "verify", "invariants")
VERIFY_KEYS = ("structure", "a", "b", "c", "d", "i", "ii", "iii", "iv")
# per-layer metric -> (unit, where the tracer or the replay keeps it)
PER_LAYER = {
    "groups.symmetric_group_s": ("s", "self", "groups.symmetric_group"),
    "frobenius.load_s": ("s", "self", "frobenius.load"),
    "frobenius.verify_s": ("s", "self", "frobenius.verify"),
    "frobenius.factorwise_multiply_calls": ("count", "calls", "frobenius.factorwise_multiply"),
    "cocycles.normalized_sn_cocycle_s": ("s", "self", "cocycles.normalized_sn_cocycle"),
    "cocycles.validate_s": ("s", "self", "cocycles.validate"),
    "symprod.init_s": ("s", "self", "symprod.init"),
    "symprod.realize_s": ("s", "self", "symprod.realize"),
    "symprod.pair_tables": ("count", "calls", "symprod.pair_table"),
    "symprod.product_entries": ("count", "stat", "product_entries"),
    "symprod.multiply_chain_s": ("s", "self", "symprod.multiply_chain"),
    "symprod.multiply_pushforward_s": ("s", "self", "symprod.multiply_pushforward"),
    "gfrob.twist_s": ("s", "self", "gfrob.twist"),
    "gfrob.to_json_s": ("s", "self", "gfrob.to_json"),
    "gfrob.doc_bytes": ("bytes", "stat", "doc_bytes"),
    "gfrob.from_json_s": ("s", "self", "gfrob.from_json"),
    "gfrob.verify_axioms_s": ("s", "self", "gfrob.verify_axioms"),
    **{f"gfrob.verify.{key}.instances": ("count", "stat", f"verify.{key}")
       for key in VERIFY_KEYS},
    "gfrob.invariants_s": ("s", "self", "gfrob.invariants"),
    "gfrob.invariant_dim": ("count", "stat", "invariant_dim"),
    "grading.standard_shifts_s": ("s", "self", "grading.standard_shifts"),
    "grading.shifted_poincare_s": ("s", "self", "grading.shifted_poincare"),
    "exactnum.echelon_calls": ("count", "calls", "exactnum.echelon"),
    "exactnum.echelon_s": ("s", "kernel", "exactnum.echelon"),
    "exactnum.mat_mul_calls": ("count", "calls", "exactnum.mat_mul"),
    "exactnum.mat_mul_s": ("s", "kernel", "exactnum.mat_mul"),
    "exactnum.rank_calls": ("count", "calls", "exactnum.rank"),
    "cli.self_s": ("s", "cli", ""),
    "trace.overhead_s": ("s", "stat", "overhead_s"),
}


class Tally:
    """Attempted and failed operations; failures are kept with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


REFERENCE_ROUNDS = 8000
REFERENCE_S = 0.06           # the reference loop's CPU seconds on an idle host


def reference_s() -> float:
    """CPU seconds of a fixed loop of exact rational and dict work, the program's staple."""
    start = time.process_time()
    acc, seen = Fraction(0), {}
    for i in range(REFERENCE_ROUNDS):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(1, 3)
        seen[i % 97] = acc
    return time.process_time() - start


class Clock:
    """Wall seconds and rescaled CPU seconds of measured work.

    On a shared host the same work takes up to ~1.8x more CPU time while
    other tenants load the caches and cores, in phases of seconds to minutes,
    longer than a run.  The reference loop is timed before and after every
    measured part; the part's CPU seconds are rescaled by REFERENCE_S over
    the mean of the two, which reads the part's cost at the reference loop's
    idle speed.  A faster program still reads proportionally faster.
    """

    def __init__(self, cpu_now):
        self.cpu_now = cpu_now
        self.last = reference_s()

    def measure(self, work):
        """(wall seconds, rescaled CPU seconds, result) of ``work()``."""
        before = self.last
        start, cpu = time.perf_counter(), self.cpu_now()
        out = work()
        wall, used = time.perf_counter() - start, self.cpu_now() - cpu
        self.last = reference_s()
        return wall, used * 2 * REFERENCE_S / (before + self.last), out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def instance_label(inst) -> str:
    return f"sym{inst[1]}-{inst[0]}"


def write_bases(workload: Workload, workdir: Path) -> list[Path]:
    paths = []
    for key in sorted({base for base, _ in workload.instances}):
        path = workdir / f"{key}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(BASES[key], fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def check_outputs(tally: Tally, inst, doc: bytes, verify_out: bytes, inv_out: bytes) -> None:
    """The output gate: pinned digests, 'all checks pass', and the oracle."""
    want = DIGESTS[inst]
    label = instance_label(inst)
    tally.check(f"{label} symprod document", None if sha256(doc) == want[0] else "digest mismatch")
    verify_text = verify_out.decode()
    problem = None
    if not verify_text.endswith("RESULT: all checks pass\n"):
        problem = "verify does not report 'all checks pass'"
    elif sha256(verify_out) != want[1]:
        problem = "digest mismatch"
    tally.check(f"{label} verify stdout", problem)
    problem = "digest mismatch"
    if sha256(inv_out) == want[2]:
        degrees = [b["degree"] for b in BASES[inst[0]]["basis"]]
        problem = oracle.check_invariants_output(inv_out.decode(), degrees, inst[1])
    tally.check(f"{label} invariants stdout", problem)


# -- untraced pipeline: one CLI process per step --------------------------------

class Cli:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.clock = Clock(children_cpu_s)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def _run(self, args) -> tuple[int, bytes]:
        try:
            proc = subprocess.run([sys.executable, "-m", "orbifrob.cli", *args],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            return -1, exc.stdout or b""
        return proc.returncode, proc.stdout

    def run(self, *args) -> tuple[float, float, int, bytes]:
        """Wall seconds, rescaled CPU seconds, exit code (-1 on timeout) and stdout of one step."""
        wall, cpu, (code, out) = self.clock.measure(lambda: self._run(args))
        return wall, cpu, code, out


WALL, CPU = 0, 1


def per_unit(units: list[dict], clock: int) -> float:
    """Seconds for one unit: the sum over its parts of each part's median over the run.

    Parts map to (wall seconds, rescaled CPU seconds); ``clock`` picks one.
    """
    return sum(statistics.median(unit[part][clock] for unit in units) for part in units[0])


def closed_loop(setup, run_unit, seconds: float, deadline: float):
    """Set up, then run units back to back while the next should end within `seconds`.

    ``setup()`` returns (its CPU seconds, the state units use); ``run_unit(state,
    index)`` returns (its wall seconds, its data).  Set-up is timed SETUP_REPEATS
    times: before the loop, then spread over it; any still missing run after
    the loop.  Returns the median set-up CPU seconds, the units' data and the
    loop's wall seconds.
    """
    setup_s, state = setup()
    setup_times = [setup_s]
    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(state, len(units)))
        if len(setup_times) < SETUP_REPEATS and (
                time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(setup()[0])
        elapsed = time.perf_counter() - start
        typical = statistics.median(unit_s for unit_s, _ in units)
        if elapsed + typical > seconds or time.monotonic() + typical > deadline:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup()[0])
    return statistics.median(setup_times), [data for _, data in units], elapsed


def pipeline_setup(workload: Workload, cli: Cli, tally: Tally):
    """Write the base documents and check each with `orbifrob verify`; rescaled CPU seconds."""
    seconds = 0.0
    for path in write_bases(workload, cli.workdir):
        _, cpu, code, out = cli.run("verify", path.name)
        seconds += cpu
        ok = code == 0 and out.endswith(b"RESULT: all checks pass\n")
        tally.check(f"base {path.name}", None if ok else f"verify exit {code}")
    return seconds, None


def pipeline_pass(instances, cli: Cli, tally: Tally) -> dict:
    """(wall, CPU) seconds per (instance, step) of one pass; every output goes through the gate."""
    times = {}
    for inst in instances:
        base, n = inst
        doc = f"{instance_label(inst)}.json"
        steps = (cli.run("symprod", f"{base}.json", "--n", str(n), "--lambda", "-1", "--out", doc),
                 cli.run("verify", doc),
                 cli.run("invariants", doc, "--poincare", "--shift", "standard"))
        codes = [code for _, _, code, _ in steps]
        if any(codes):
            for step, code in zip(STEPS, codes):
                tally.check(f"{instance_label(inst)} {step}", f"exit {code}" if code else None)
        else:
            check_outputs(tally, inst, (cli.workdir / doc).read_bytes(), steps[1][3], steps[2][3])
        for step, (wall, cpu, _, _) in zip(STEPS, steps):
            times[instance_label(inst), step] = (wall, cpu)
    return times


def measure_pipeline(workload: Workload, rng: random.Random, seconds: float,
                     workdir: Path, deadline: float) -> tuple[Tally, dict, list]:
    tally = Tally()
    cli = Cli(workdir, deadline)

    def one_pass(_state, _index):
        times = pipeline_pass(rng.sample(workload.instances, len(workload.instances)), cli, tally)
        return sum(wall for wall, _ in times.values()), times

    setup, passes, elapsed = closed_loop(lambda: pipeline_setup(workload, cli, tally),
                                         one_pass, seconds, deadline)
    result = per_unit(passes, CPU)
    metrics = {
        "setup_s": setup,
        "result_cpu_s": result,
        "results_per_cpu_s": len(workload.instances) / result,
    }
    notes = [f"{len(passes)} pass(es) of {len(workload.instances)} instance(s) in {elapsed:.1f} s"]
    for step in STEPS:
        step_s = statistics.median(sum(t[WALL] for (_, s), t in p.items() if s == step)
                                   for p in passes)
        notes.append(f"{step}_s {step_s:.4f} s (median wall per pass)")
    notes.append(f"pipeline_s {per_unit(passes, WALL):.4f} s (wall, per pass)")
    return tally, metrics, notes


# -- in-process code paths: products, and the traced replay ----------------------

class Program:
    """orbifrob imported from ./src, plus a way to forget what a fresh process would not have."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from orbifrob import (cocycles, exactnum, frobenius, gfrob, grading, groups,
                              symprod)
        self.m = {"cocycles": cocycles, "exactnum": exactnum, "frobenius": frobenius,
                  "gfrob": gfrob, "grading": grading, "groups": groups, "symprod": symprod}
        # the lru_cache wrapper itself; tracing later patches the module attribute
        self.clear_caches = getattr(groups.symmetric_group, "cache_clear", lambda: None)

    def fresh_process(self, n: int) -> None:
        """Forget cached S_n tables, then build S_n once, as a new CLI process does."""
        self.clear_caches()
        self.m["groups"].symmetric_group(n)


def replay_instance(prog: Program, inst, workdir: Path, T, stats: dict):
    """One instance through the public calls the three CLI steps make."""
    m = prog.m
    frob, sp, cocy, gf, gr = m["frobenius"], m["symprod"], m["cocycles"], m["gfrob"], m["grading"]
    base_key, n = inst
    doc_path = workdir / f"replay-{instance_label(inst)}.json"
    prog.fresh_process(n)
    with T.span("cli.symprod"):
        base = frob.load(workdir / f"{base_key}.json")
        spa = sp.SymmetricProductAlgebra(base, n)
        table = spa.realize()
        alpha = cocy.normalized_sn_cocycle(n, m["exactnum"].rat("-1"))
        twisted = gf.twist(table, alpha)
        twisted.name = f"sym{n}({base.name}) lambda=-1"
        gf.save(twisted, doc_path)
    prog.fresh_process(n)
    with T.span("cli.verify"):
        X = gf.load(doc_path)
        report = gf.verify_axioms(X)
        verify_out = (f"verify: sector-graded algebra {X.name!r}\n{report.summary()}\n"
                      f"RESULT: {'all checks pass' if report.passed else 'FAILED'}\n")
    prog.fresh_process(n)
    with T.span("cli.invariants"):
        X = gf.load(doc_path)
        inv = gf.invariants(X)
        lines = [f"class {label}: dim {dim}" for label, dim in inv.dims_by_class().items()]
        lines.append(f"total: {inv.dim}")
        if not inv.commutative:
            lines.append("WARNING: invariant product is not commutative")
        poly = gr.shifted_poincare(X, gr.standard_shifts(X), invariants_only=True)
        lines.append(f"poincare: {gr.format_poincare(poly)}")
        inv_out = "\n".join(lines) + "\n"
    doc = doc_path.read_bytes()
    stats["product_entries"] += sum(len(vec) for tab in table.product.values()
                                    for vec in tab.values())
    stats["doc_bytes"] += len(doc)
    stats["invariant_dim"] += inv.dim
    for check in report.checks:
        stats[f"verify.{check.key}"] += check.instances
    return doc, verify_out.encode(), inv_out.encode()


def replay_pipeline(prog: Program, instances, workdir: Path, T, tally: Tally, stats: dict) -> float:
    start = time.perf_counter()
    for inst in instances:
        T.run_id = instance_label(inst)
        outputs = replay_instance(prog, inst, workdir, T, stats)
        check_outputs(tally, inst, *outputs)
    return time.perf_counter() - start


def make_basket(prog: Program, algebras: dict, shapes_by_n: dict, rng: random.Random) -> list:
    """Seeded (algebra, g, a, h, b) tuples, one per shape."""
    Permutation = prog.m["groups"].Permutation
    basket = []
    for n, shapes in shapes_by_n.items():
        spa = algebras[n]

        def sector(pair):
            return spa.group.identity if pair is None else spa.sector_of(
                Permutation.transposition(n, *pair))

        for shape in shapes:
            points = rng.sample(range(n), {"t*u": 3, "t|u": 4}.get(shape, 2))
            t = (points[0], points[1])
            u = (points[1], points[2]) if shape == "t*u" else tuple(points[2:])
            left = None if shape[0] == "e" else t
            right = {"e": None, "t": t, "u": u}[shape[2]]
            g, h = sector(left), sector(right)
            a = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(spa.dims[g])]
            b = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(spa.dims[h])]
            basket.append((spa, g, a, h, b))
    return basket


def products_setup(prog: Program, workload: Workload, workdir: Path, seed: int):
    """Load and validate the base, build S_n and the algebras, make the element pool."""
    m = prog.m
    algebras = {}
    base_path = write_bases(workload, workdir)[0]
    prog.clear_caches()
    base = m["frobenius"].load(base_path)
    for _, n in workload.instances:
        m["groups"].symmetric_group(n)
        algebras[n] = m["symprod"].SymmetricProductAlgebra(base, n)
    shapes_by_n = {n: shapes for (_, n), shapes in zip(workload.instances, workload.shapes)}
    rng = random.Random(seed)
    return [make_basket(prog, algebras, shapes_by_n, rng) for _ in range(PRODUCT_POOL)]


def certified_product(spa, g, a, h, b) -> str | None:
    """None when both routes give the same exact product, else the problem."""
    chain = spa.multiply_chain(g, a, h, b)
    push = spa.multiply_pushforward(g, a, h, b)
    if len(chain) != spa.dims[spa.group.mul(g, h)]:
        return "chain result has the wrong length"
    return None if chain == push else "chain and pushforward routes disagree"


def run_basket(basket, tally: Tally, clock: Clock | None = None,
               T=tracing.NullTracer()) -> list[tuple[float, float]]:
    """(wall, rescaled CPU) seconds of each certified product of the basket, if ``clock``."""
    times = []
    for index, (spa, g, a, h, b) in enumerate(basket):
        T.run_id = f"product-{index}"
        work = lambda: certified_product(spa, g, a, h, b)  # noqa: E731
        if clock is None:
            problem = work()
        else:
            wall, cpu, problem = clock.measure(work)
            times.append((wall, cpu))
        tally.check(f"product {index} (n={spa.n})", problem)
    return times


def measure_products(prog: Program, workload: Workload, seed: int, seconds: float,
                     workdir: Path, deadline: float) -> tuple[Tally, dict, list]:
    tally = Tally()

    clock = Clock(time.process_time)

    def setup():
        _, cpu, pool = clock.measure(lambda: products_setup(prog, workload, workdir, seed))
        return cpu, pool

    def one_basket(pool, index):
        times = run_basket(pool[index % len(pool)], tally, clock)
        return sum(wall for wall, _ in times), times

    setup, baskets, elapsed = closed_loop(setup, one_basket, seconds, deadline)
    product_ms = [1000 * wall for b in baskets for wall, _ in b]
    units = [dict(enumerate(b)) for b in baskets]
    result = per_unit(units, CPU)
    metrics = {
        "setup_s": setup,
        "result_cpu_s": result,
        "results_per_cpu_s": len(baskets[0]) / result,
    }
    notes = [f"{len(baskets)} basket(s) of {len(baskets[0])} certified products in {elapsed:.1f} s",
             f"basket {per_unit(units, WALL):.4f} s (wall), "
             f"products_per_s {len(product_ms) / elapsed:.4f} 1/s over the whole run",
             f"product_ms_p50 {percentile(product_ms, 0.5):.3f} ms, "
             f"product_ms_p90 {percentile(product_ms, 0.9):.3f} ms "
             f"(wall, over {len(product_ms)} products)"]
    return tally, metrics, notes


# -- traced runs --------------------------------------------------------------------

def layer_metrics(T: tracing.Tracer, stats: dict) -> dict:
    out = {}
    for name, (_, source, key) in PER_LAYER.items():
        if source == "self":
            out[name] = T.self_s.get(key, 0.0)
        elif source == "calls":
            out[name] = T.calls.get(key, 0)
        elif source == "kernel":
            out[name] = T.kernel_s.get(key, 0.0)
        elif source == "cli":
            out[name] = sum(v for k, v in T.self_s.items() if k.startswith("cli."))
        else:
            out[name] = stats.get(key, 0)
    return out


def new_stats() -> dict:
    keys = ["product_entries", "doc_bytes", "invariant_dim"] + [f"verify.{k}" for k in VERIFY_KEYS]
    return dict.fromkeys(keys, 0)


def traced_run(prog: Program, workload: Workload, seed: int, workdir: Path,
               spans_path: Path) -> tuple[Tally, dict, list]:
    """Untraced in-process replay, then the same work traced; outputs are checked both times."""
    tally = Tally()
    stats = new_stats()
    T = tracing.Tracer()
    if workload.kind == "pipeline":
        order = random.Random(seed).sample(workload.instances, len(workload.instances))
        write_bases(workload, workdir)
        untraced = replay_pipeline(prog, order, workdir, tracing.NullTracer(), tally, new_stats())
        tracing.install(T, prog.m)
        try:
            traced = replay_pipeline(prog, order, workdir, T, tally, stats)
        finally:
            T.restore()
    else:
        start = time.perf_counter()
        pool = products_setup(prog, workload, workdir, seed)
        for basket in pool[:TRACED_BASKETS]:
            run_basket(basket, tally)
        untraced = time.perf_counter() - start
        tracing.install(T, prog.m)
        try:
            start = time.perf_counter()
            T.run_id = "setup"
            with T.span("bench.setup"):
                pool = products_setup(prog, workload, workdir, seed)
            for basket in pool[:TRACED_BASKETS]:
                run_basket(basket, tally, T=T)
            traced = time.perf_counter() - start
        finally:
            T.restore()
    stats["overhead_s"] = traced - untraced
    T.write(spans_path)
    metrics = layer_metrics(T, stats)
    ranked = sorted(((v, k) for k, v in T.self_s.items()), reverse=True)[:5]
    notes = [f"traced {traced:.4f} s, untraced {untraced:.4f} s, {len(T.spans)} spans "
             f"in {spans_path.relative_to(ROOT)}",
             "top self times: " + ", ".join(f"{k} {v:.3f} s ({v / traced:.0%})" for v, k in ranked)]
    return tally, metrics, notes


# -- entry point --------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object and prints notes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        if trace:
            spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
            tally, metrics, notes = traced_run(Program(), workload, seed,
                                               workdir, spans_path)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            if workload.kind == "pipeline":
                tally, metrics, notes = measure_pipeline(
                    workload, random.Random(seed), seconds, workdir, deadline)
            else:
                tally, metrics, notes = measure_products(
                    Program(), workload, seed, seconds, workdir, deadline)
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics["peak_rss_mb"] = peak_kb / 1024
            metrics["ok_ratio"] = 1 - len(tally.failures) / tally.attempted
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {workload.name}, seed {seed}, trace {int(trace)}: {workload.purpose}")
    print(f"  instances {', '.join(map(instance_label, workload.instances))}")
    print(f"  predicted dominant: {workload.dominant}; bypassed: {workload.bypassed}")
    for line in notes:
        print(f"  {line}")
    print(f"  fail_ratio {len(tally.failures)}/{tally.attempted}")
    for problem in tally.failures[:20]:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbifrob" / "cli.py").is_file():
        print(f"error: {SRC / 'orbifrob'} not found; run from the root of an orbifrob checkout",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
