"""In-memory spans and counters around orbifrob's public calls.

Tracing patches module and class attributes that the program calls through
(``gfrob.verify_axioms``, ``ex.echelon``, ``SymmetricProductAlgebra.realize``,
...) and restores them afterwards; no file of the program changes.  Three
kinds of patch:

* span: records (id, name, start, end, parent id, run id); its self time is
  its duration minus the durations of the spans nested directly in it;
* kernel: counts calls and sums their time, without a span per call (these
  run up to millions of times a pass); kernel time stays inside the self
  time of the span that called it;
* count: counts calls only.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.kernel_s: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[list] = []   # per open span: [id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            self.spans.append((sid, name, start, end, parent, self.run_id))

    # -- patches ---------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def patch_span(self, owner, attr: str, name: str):
        def wrapper(fn):
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced
        self._patch(owner, attr, wrapper)

    def patch_kernel(self, owner, attr: str, name: str):
        totals = self.kernel_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(fn):
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    totals[name] += clock() - start
                    calls[name] += 1
            return timed
        self._patch(owner, attr, wrapper)

    def patch_count(self, owner, attr: str, name: str):
        calls = self.calls

        def wrapper(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one attribute lookup."""

    run_id = ""

    def span(self, name: str):
        return contextlib.nullcontext()


def install(tracer: Tracer, modules) -> None:
    """Patch every boundary the per-layer metrics read.

    ``modules`` maps short names to the imported orbifrob modules.  Callers
    that bound a function by ``from ... import`` keep the original, so
    ``invariants`` is patched both in gfrob and in grading, where
    ``shifted_poincare`` calls it.
    """
    ex, frob, groups = modules["exactnum"], modules["frobenius"], modules["groups"]
    cocy, sp, gf, gr = modules["cocycles"], modules["symprod"], modules["gfrob"], modules["grading"]
    t = tracer
    t.patch_span(groups, "symmetric_group", "groups.symmetric_group")
    t.patch_span(frob, "load", "frobenius.load")
    t.patch_span(frob.FrobeniusAlgebra, "verify", "frobenius.verify")
    t.patch_count(frob, "factorwise_multiply", "frobenius.factorwise_multiply")
    t.patch_span(cocy, "normalized_sn_cocycle", "cocycles.normalized_sn_cocycle")
    t.patch_span(cocy, "validate", "cocycles.validate")
    spa = sp.SymmetricProductAlgebra
    t.patch_span(spa, "__init__", "symprod.init")
    t.patch_span(spa, "realize", "symprod.realize")
    t.patch_count(spa, "pair_table", "symprod.pair_table")
    t.patch_span(spa, "multiply_chain", "symprod.multiply_chain")
    t.patch_span(spa, "multiply_pushforward", "symprod.multiply_pushforward")
    t.patch_span(gf, "twist", "gfrob.twist")
    t.patch_span(gf, "save", "gfrob.to_json")
    t.patch_span(gf, "load", "gfrob.from_json")
    t.patch_span(gf, "verify_axioms", "gfrob.verify_axioms")
    t.patch_span(gf, "invariants", "gfrob.invariants")
    t.patch_span(gr, "invariants", "gfrob.invariants")
    t.patch_span(gr, "standard_shifts", "grading.standard_shifts")
    t.patch_span(gr, "shifted_poincare", "grading.shifted_poincare")
    t.patch_kernel(ex, "echelon", "exactnum.echelon")
    t.patch_kernel(ex, "mat_mul", "exactnum.mat_mul")
    t.patch_count(ex, "rank", "exactnum.rank")
