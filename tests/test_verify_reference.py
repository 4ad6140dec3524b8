"""The join-based verifier against the full basis-tuple scans it replaced.

The reference loops below (associativity, twisted commutativity, invariance
of the metric, multiplicativity of the action, projective invariance and the
trace axiom; associativity and invariance of a base algebra) visit every
basis tuple, with or without a nonzero product, in the order the verifier
reports its first failure.  Whole reports
(key, passed, instances, witness) must agree on every fixture, on Sym^n for
n <= 3 of the three stock bases (plain, lambda = -1 and super), and on
corrupted documents, including a deleted product entry, which leaves a tuple
nonzero on one side only.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from orbifrob import cocycles as cocy
from orbifrob import exactnum as ex
from orbifrob import frobenius as frob
from orbifrob import gfrob
from orbifrob._report import _fmt_vec
from orbifrob.exactnum import _clean, _sum_rows

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- reference scans over every basis tuple -------------------------------------

def reference_a(X):
    G, dims, product, mul = X.group, X.sector_dims, X.product, X.group.mul
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            gh = mul(g, h)
            T1 = product.get((g, h), {})
            for k in G.elements():
                T2 = product.get((gh, k), {})
                T3 = product.get((h, k), {})
                T4 = product.get((g, mul(h, k)), {})
                count += dims[g] * dims[h] * dims[k]
                for i in range(dims[g]):
                    for j in range(dims[h]):
                        row1 = T1.get((i, j))
                        for m in range(dims[k]):
                            row3 = T3.get((j, m))
                            lhs: dict = {}
                            for p, c in (row1 or {}).items():
                                for q, v in T2.get((p, m), {}).items():
                                    lhs[q] = lhs.get(q, 0) + c * v
                            rhs: dict = {}
                            for p, c in (row3 or {}).items():
                                for q, v in T4.get((i, p), {}).items():
                                    rhs[q] = rhs.get(q, 0) + c * v
                            if _clean(lhs) != _clean(rhs) and witness is None:
                                witness = {"g": G.labels[g], "h": G.labels[h], "k": G.labels[k],
                                           "basis": (i, j, m),
                                           "lhs": _fmt_vec(X.sector_labels[mul(gh, k)], lhs),
                                           "rhs": _fmt_vec(X.sector_labels[mul(gh, k)], rhs)}
    return witness is None, count, witness


def reference_b(X):
    G, dims, product, mul = X.group, X.sector_dims, X.product, X.group.mul
    super_mode = X.is_super()
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            T = product.get((g, h), {})
            Tb = product.get((G.conj(g, h), g), {})
            act = X.action[(g, h)]
            par_g, par_h = X.sector_parities[g], X.sector_parities[h]
            for i in range(dims[g]):
                for j in range(dims[h]):
                    count += 1
                    lhs = _clean(dict(T.get((i, j), {})))
                    rhs: dict = {}
                    for p, c in act.get(j, {}).items():
                        for q, v in Tb.get((p, i), {}).items():
                            rhs[q] = rhs.get(q, 0) + c * v
                    if super_mode and (par_g[i] * par_h[j]) % 2:
                        rhs = {q: -v for q, v in rhs.items()}
                    if lhs != _clean(rhs) and witness is None:
                        witness = {"g": G.labels[g], "h": G.labels[h], "basis": (i, j),
                                   "lhs": _fmt_vec(X.sector_labels[mul(g, h)], lhs),
                                   "rhs": _fmt_vec(X.sector_labels[mul(g, h)], _clean(rhs))}
    return witness is None, count, witness


def reference_d(X):
    G, dims, product, mul = X.group, X.sector_dims, X.product, X.group.mul
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            k = G.inv(mul(g, h))
            T1 = product.get((g, h), {})
            T3 = product.get((h, k), {})
            eta_g, eta_gh = X.metric[g], X.metric[mul(g, h)]
            for i in range(dims[g]):
                for j in range(dims[h]):
                    for m in range(dims[k]):
                        count += 1
                        lhs = sum(eta_g.get(i, {}).get(p, 0) * c
                                  for p, c in T3.get((j, m), {}).items())
                        rhs = sum(c * eta_gh.get(p, {}).get(m, 0)
                                  for p, c in T1.get((i, j), {}).items())
                        if lhs != rhs and witness is None:
                            witness = {"g": G.labels[g], "h": G.labels[h], "k": G.labels[k],
                                       "basis": (i, j, m),
                                       "eta(a,bc)": ex.fmt_rat(ex.norm(lhs)),
                                       "eta(ab,c)": ex.fmt_rat(ex.norm(rhs))}
    return witness is None, count, witness


def reference_ii(X):
    G, dims, product = X.group, X.sector_dims, X.product
    witness = None
    count = 0
    for k in G.elements():
        for g in G.elements():
            for h in G.elements():
                T = product.get((g, h), {})
                Tc = product.get((G.conj(k, g), G.conj(k, h)), {})
                act_g, act_h = X.action[(k, g)], X.action[(k, h)]
                act_gh = X.action[(k, G.mul(g, h))]
                count += dims[g] * dims[h]
                for i in range(dims[g]):
                    for j in range(dims[h]):
                        lhs = _sum_rows((c, act_gh.get(p, {}))
                                        for p, c in T.get((i, j), {}).items())
                        rhs: dict = {}
                        for p, cg in act_g.get(i, {}).items():
                            for q, ch in act_h.get(j, {}).items():
                                for r, v in Tc.get((p, q), {}).items():
                                    rhs[r] = rhs.get(r, 0) + cg * ch * v
                        if lhs != _clean(rhs) and witness is None:
                            witness = {"k": G.labels[k], "g": G.labels[g], "h": G.labels[h],
                                       "basis": (i, j)}
    return witness is None, count, witness


def reference_iii(X):
    G, dims = X.group, X.sector_dims
    witness = None
    count = 0
    for g in G.elements():
        chi2_inv = ex.norm(1 / (Fraction(X.character[g]) ** 2))
        for h in G.elements():
            hinv = G.inv(h)
            act_h, act_hinv = X.action[(g, h)], X.action[(g, hinv)]
            eta_tgt, eta_h = X.metric[G.conj(g, h)], X.metric[h]
            for i in range(dims[h]):
                for j in range(dims[hinv]):
                    count += 1
                    lhs = 0
                    for p, cp in act_h.get(i, {}).items():
                        row = eta_tgt.get(p, {})
                        for q, cq in act_hinv.get(j, {}).items():
                            if q in row:
                                lhs += cp * row[q] * cq
                    rhs = chi2_inv * eta_h.get(i, {}).get(j, 0)
                    if ex.norm(lhs) != ex.norm(rhs) and witness is None:
                        witness = {"g": G.labels[g], "h": G.labels[h], "basis": (i, j),
                                   "lhs": ex.fmt_rat(ex.norm(lhs)), "rhs": ex.fmt_rat(ex.norm(rhs))}
    return witness is None, count, witness


def reference_iv(X):
    G, dims, product, inv = X.group, X.sector_dims, X.product, X.group.inv
    super_mode = X.is_super()
    witness = None
    count = 0
    for g in G.elements():
        for h in G.elements():
            comm = G.commutator(g, h)
            T_left = product.get((comm, G.conj(h, g)), {})   # l_c : A_{hgh^-1} -> A_g
            T_right = product.get((comm, h), {})             # l_c : A_h -> A_{ghg^-1}
            act_h_on_g, act_ginv = X.action[(h, g)], X.action[(inv(g), G.conj(g, h))]
            chi_h, chi_ginv = Fraction(X.character[h]), Fraction(X.character[inv(g)])
            par_g, par_h = X.sector_parities[g], X.sector_parities[h]
            for c in range(dims[comm]):
                count += 1
                lhs = 0
                for v in range(dims[g]):
                    acc = 0
                    for p, cp in act_h_on_g.get(v, {}).items():
                        row = T_left.get((c, p))
                        if row and v in row:
                            acc += cp * row[v]
                    lhs += -acc if (super_mode and par_g[v] % 2) else acc
                rhs = 0
                for v in range(dims[h]):
                    acc = 0
                    for p, cv in T_right.get((c, v), {}).items():
                        acc += cv * act_ginv.get(p, {}).get(v, 0)
                    rhs += -acc if (super_mode and par_h[v] % 2) else acc
                if ex.norm(chi_h * lhs) != ex.norm(chi_ginv * rhs) and witness is None:
                    witness = {"g": G.labels[g], "h": G.labels[h], "c": c,
                               "lhs": ex.fmt_rat(ex.norm(chi_h * lhs)),
                               "rhs": ex.fmt_rat(ex.norm(chi_ginv * rhs))}
    return witness is None, count, witness


def reference_associativity(alg):
    witness = None
    count = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                count += 1
                lhs: dict = {}
                for p, c in alg.rows.get((i, j), {}).items():
                    for q, v in alg.rows.get((p, k), {}).items():
                        lhs[q] = lhs.get(q, 0) + c * v
                rhs: dict = {}
                for p, c in alg.rows.get((j, k), {}).items():
                    for q, v in alg.rows.get((i, p), {}).items():
                        rhs[q] = rhs.get(q, 0) + c * v
                if _clean(lhs) != _clean(rhs) and witness is None:
                    witness = {"i": alg.labels[i], "j": alg.labels[j], "k": alg.labels[k],
                               "lhs": _fmt_vec(alg.labels, lhs), "rhs": _fmt_vec(alg.labels, rhs)}
    return witness is None, count, witness


def reference_invariance(alg):
    witness = None
    count = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                count += 1
                lhs = sum(c * alg.metric.get(p, {}).get(k, 0)
                          for p, c in alg.rows.get((i, j), {}).items())
                rhs = sum(c * alg.metric.get(i, {}).get(p, 0)
                          for p, c in alg.rows.get((j, k), {}).items())
                if lhs != rhs and witness is None:
                    witness = {"i": alg.labels[i], "j": alg.labels[j], "k": alg.labels[k],
                               "eta(ij,k)": ex.fmt_rat(ex.norm(lhs)),
                               "eta(i,jk)": ex.fmt_rat(ex.norm(rhs))}
    return witness is None, count, witness


def _with_references(report, algebra, references) -> list:
    out = copy.deepcopy(report)
    for check in out.checks:
        if check.key in references:
            check.passed, check.instances, check.witness = references[check.key](algebra)
    return out.to_json()


def assert_g_report_matches(X):
    report = gfrob.verify_axioms(X)
    refs = {"a": reference_a, "b": reference_b, "d": reference_d, "ii": reference_ii,
            "iii": reference_iii, "iv": reference_iv}
    assert report.to_json() == _with_references(report, X, refs)
    return report


def assert_base_report_matches(alg):
    report = alg.verify()
    refs = {"associativity": reference_associativity, "invariance": reference_invariance}
    assert report.to_json() == _with_references(report, alg, refs)
    return report


# -- comparisons -----------------------------------------------------------------

def _fixture(name) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def test_fixtures_match_the_reference_scans():
    # sn3_sign_cocycle.json is a cocycle document: neither verifier reads it
    for path in sorted(FIXTURES.glob("*.json")):
        doc = _fixture(path.name)
        if "sectors" in doc:
            assert_g_report_matches(gfrob.from_json_dict(doc))
        elif "basis" in doc:
            assert_base_report_matches(frob.from_json_dict(doc))
    assert not assert_base_report_matches(
        frob.load(FIXTURES / "dual_numbers_broken_invariance.json")).passed
    assert not assert_g_report_matches(gfrob.load(FIXTURES / "ks3_broken_metric.json")).passed


@pytest.mark.parametrize("variant", ["plain", "lambda -1", "super"])
def test_symmetric_products_match_the_reference_scans(sp_factory, ground, qx2, surface, variant):
    for base in (ground, qx2, surface):
        for n in (1, 2, 3):
            X = sp_factory(base, n).realize()
            if variant == "lambda -1":
                X = gfrob.twist(X, alpha=cocy.normalized_sn_cocycle(n, -1))
            elif variant == "super":
                X = gfrob.twist(X, sigma=cocy.sign_supertwist(n))
            assert assert_g_report_matches(X).passed


def _documents(sp_factory, qx2, s3_ring) -> dict:
    return {"ring": gfrob.to_json_dict(s3_ring),
            "sym2": gfrob.to_json_dict(sp_factory(qx2, 2).realize())}


@pytest.mark.parametrize("document, field, index, value", [
    ("ring", "action", 0, "2"),
    ("ring", "product", 0, "2"),
    ("sym2", "product", 19, "2"),
    ("ring", "unit", 0, "2"),
    ("ring", "metric", 0, "2"),
    ("ring", "character", 1, "-1"),
    ("ring", "product", 7, "2"),
    ("ring", "metric", 1, "2"),
    ("sym2", "action", 9, "-1"),
    # join-specific: the last product entry of a document
    ("ring", "product", -1, "2"),
    ("sym2", "product", -1, "-1"),
])
def test_document_edits_match_the_reference_scans(sp_factory, qx2, s3_ring, document, field,
                                                  index, value):
    # the edits of test_one_document_edit_fails_each_check, and two more
    doc = _documents(sp_factory, qx2, s3_ring)[document]
    if field == "character":
        doc[field][index] = value
    else:
        doc[field][index][-1] = value
    assert not assert_g_report_matches(gfrob.from_json_dict(doc)).passed


@pytest.mark.parametrize("document", ["ring", "sym2"])
def test_deleted_product_entry_matches_the_reference_scans(sp_factory, qx2, s3_ring, document):
    # a deleted entry leaves basis tuples that only one side of a law reaches
    doc = _documents(sp_factory, qx2, s3_ring)[document]
    for index in range(len(doc["product"])):
        edited = copy.deepcopy(doc)
        del edited["product"][index]
        assert not assert_g_report_matches(gfrob.from_json_dict(edited))["a"].passed


def test_deleted_base_structure_constant_matches_the_reference_scans(surface):
    doc = frob.to_json_dict(surface)
    for index in range(len(doc["structure"])):
        edited = copy.deepcopy(doc)
        del edited["structure"][index]
        assert not assert_base_report_matches(frob.from_json_dict(edited)).passed
    edited = copy.deepcopy(doc)
    edited["structure"][-1][-1] = "2"
    assert not assert_base_report_matches(frob.from_json_dict(edited)).passed

