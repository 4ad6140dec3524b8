"""Command-line surface: verify, symprod, mult, twist, invariants, export.

Exit codes: 0 = success / all laws hold; 1 = a mathematical law fails;
2 = unusable input (parse error, unreadable path, unknown labels, bad
flags).  All outputs are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial
from typing import TYPE_CHECKING

# Each step runs in a process of its own, and compiling modules it never calls
# costs more than most steps' arithmetic: only exactnum and _report are
# imported here, and gfrob, groups, frobenius, cocycles, symprod and grading
# inside the commands and helpers that run them.
from . import exactnum as ex
from ._report import VERIFY_BUDGET, BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover
    from .gfrob import GFrobeniusAlgebra


class UsageError(Exception):
    pass


# -- element syntax ----------------------------------------------------------

_COEFF_RE = re.compile(r"^([+-]?[0-9]+(?:/[0-9]+)?)\s*\*?\s*")   # ASCII digits, as exactnum.rat reads
_TENSOR_RE = re.compile(r"(?<=\S)\(x\)(?=\S)")   # the ASCII ⊗ between two factors, as in 1(x)x


def _sector_index(X: GFrobeniusAlgebra, text: str) -> int:
    from .groups import cycle_notation, parse_cycles
    s = text.strip()
    if X.group.perms is not None:
        perm = parse_cycles(s, X.group.perms[0].n)
        return X.group.index_of(cycle_notation(perm))
    return X.group.index_of(s)


def _basis_index(X: GFrobeniusAlgebra, g: int, label: str) -> int:
    s = label.strip()
    if s.startswith("(") and s.endswith(")"):
        s = "⊗".join(part.strip() for part in s[1:-1].split(","))
    s = s.replace("(x)", "⊗")
    labels = X.sector_labels[g]
    try:
        return labels.index(s)
    except ValueError:
        raise UsageError(f"unknown basis label {label!r} in sector {X.group.labels[g]}; "
                         f"expected one of {labels}")


def parse_element(X: GFrobeniusAlgebra, text: str) -> tuple[int, list]:
    """Parse '1@(1 2)', '(1(x)x + x(x)1)@e', or 'sector=(1 2); coeffs={(x,1): 3/2}'."""
    s = text.strip()
    if s.startswith("sector="):
        try:
            sector_part, coeff_part = s.split(";", 1)
        except ValueError:
            raise UsageError(f"element {text!r}: expected 'sector=...; coeffs={{...}}'")
        g = _sector_index(X, sector_part.split("=", 1)[1])
        coeffs = coeff_part.split("=", 1)[1].strip()
        if not (coeffs.startswith("{") and coeffs.endswith("}")):
            raise UsageError(f"element {text!r}: coeffs must be a {{...}} map")
        vec = [0] * X.sector_dims[g]
        body = coeffs[1:-1].strip()
        seen: set = set()
        if body:
            for chunk in re.split(r",(?![^()]*\))", body):
                label, _, value = chunk.rpartition(":")
                if not label:
                    raise UsageError(f"element {text!r}: bad coefficient entry {chunk!r}")
                idx = _basis_index(X, g, label)
                if idx in seen:   # a map holds one coefficient per basis label
                    raise UsageError(f"element {text!r}: basis label "
                                     f"{X.sector_labels[g][idx]!r} is given twice")
                seen.add(idx)
                vec[idx] = ex.rat(value.strip())
        return g, vec
    if "@" not in s:
        raise UsageError(f"element {text!r}: expected 'combination@sector'")
    combo, sector = s.rsplit("@", 1)
    g = _sector_index(X, sector)
    combo = combo.strip()
    if combo.startswith("(") and combo.endswith(")") and ("+" in combo or " - " in combo):
        combo = combo[1:-1]
    vec = [0] * X.sector_dims[g]
    if combo in ("0", ""):
        return g, vec
    for signed_term in re.split(r"\s+(?=[+-])", combo.replace("+-", "-")):
        term = signed_term.strip()
        if term in ("+", "-"):
            raise UsageError(f"element {text!r}: dangling sign")
        sign = 1
        if term.startswith("+"):
            term = term[1:].strip()
        elif term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        # before a coefficient is split off: 1(x)x is the label 1⊗x, not 1 times (x)x
        term = _TENSOR_RE.sub("⊗", term)
        labels = X.sector_labels[g]
        if term in labels or (term.startswith("(") and term.endswith(")")):
            coeff, label = 1, term
        elif "*" in term:
            coeff_text, label = term.split("*", 1)
            coeff = ex.rat(coeff_text.strip())
            label = label.strip()
        else:
            m = _COEFF_RE.match(term)
            if m and m.end() < len(term):
                coeff = ex.rat(m.group(1))
                label = term[m.end():]
            elif m and m.end() == len(term) and X.sector_dims[g] == 1:
                coeff = ex.rat(m.group(1))
                label = labels[0]
            else:
                coeff, label = 1, term
        idx = _basis_index(X, g, label)
        vec[idx] = ex.norm(vec[idx] + sign * coeff)
    return g, vec


def format_element(X: GFrobeniusAlgebra, g: int, vec) -> str:
    terms = [(i, c) for i, c in enumerate(vec) if c != 0]
    if not terms:
        return f"0@{X.group.labels[g]}"
    parts = []
    for pos, (i, c) in enumerate(terms):
        label = X.sector_labels[g][i]
        neg = c < 0
        mag = -c if neg else c
        if mag == 1:
            body = label
        elif label[:1].isdigit():
            body = f"{ex.fmt_rat(mag)}*{label}"
        else:
            body = f"{ex.fmt_rat(mag)}{label}"
        if pos == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    combo = " ".join(parts)
    if len(terms) > 1:
        combo = f"({combo})"
    return f"{combo}@{X.group.labels[g]}"


# -- documents ------------------------------------------------------------------

def _load_galg(path, scan: bool = False) -> GFrobeniusAlgebra:
    """A stored sector-graded algebra.  With ``scan``, a cocycle-law scan over
    its group that exceeds the budget is refused before anything is built."""
    doc = ex.load_json(path)
    if "sectors" not in doc:
        raise UsageError(f"{path} is not a sector-graded algebra document")
    if scan:
        from . import cocycles as cocy
        cocy.refuse_scan(cocy.document_order(doc))
    from . import gfrob
    return gfrob.from_json_dict(doc)


def _document(path, budget: int | None = None) -> tuple:
    """(title, law check, canonical dict) of a stored document, by the key
    that marks its kind; the last two are calls without arguments.  With
    ``budget``, a cocycle whose verification scan exceeds it is refused
    before its group and value tables are built."""
    doc = ex.load_json(path)
    if "sectors" in doc:
        from . import gfrob
        X = gfrob.from_json_dict(doc)
        return (f"sector-graded algebra {X.name!r}", partial(gfrob.verify_axioms, X, budget=budget),
                partial(gfrob.to_json_dict, X))
    if "basis" in doc:
        from . import frobenius as frob
        algebra = frob.from_json_dict(doc)
        return f"algebra {algebra.name!r}", algebra.verify, partial(frob.to_json_dict, algebra)
    if "values" in doc:
        from . import cocycles as cocy
        if budget is not None:
            cocy.refuse_scan(cocy.document_order(doc), budget)
        alpha = cocy.from_json_dict(doc)
        return "cocycle", partial(cocy.validate, alpha), partial(cocy.to_json_dict, alpha)
    raise UsageError(f"{path}: unrecognized document type")


def _sn_twists(group, lam, super_twist: bool) -> tuple:
    """(alpha, sigma) for ``--lambda`` and ``--super`` on an S_n grading
    ``group``; None for a flag that is not given."""
    from . import cocycles as cocy
    alpha = sigma = None
    if lam is not None:
        if group.perms is None:
            raise UsageError("--lambda needs a symmetric-group graded algebra")
        alpha = cocy.normalized_sn_cocycle(group.perms[0].n, ex.rat(lam))
    if super_twist:
        if group.perms is None:
            raise UsageError("--super needs a symmetric-group graded algebra")
        sigma = cocy.sign_supertwist(group.perms[0].n)
    return alpha, sigma


def _emit(payload: dict, out) -> None:
    """Write a document's canonical text to ``out``, or print it."""
    if out:
        ex.save_json(payload, out)
        print(f"wrote {out}")
    else:
        print(ex.dump_json(payload), end="")


# -- subcommands ---------------------------------------------------------------

def cmd_verify(args) -> int:
    title, check, _ = _document(args.file, args.budget)
    report = check()
    if args.out:   # before any output: a failed save leaves stdout empty
        ex.save_json(report.to_json(), args.out)
    print(f"verify: {title}")
    print(report.summary())
    print("RESULT: " + ("all checks pass" if report.passed else "FAILED"))
    return 0 if report.passed else 1


def cmd_symprod(args) -> int:
    from . import frobenius as frob
    from . import gfrob
    from . import symprod as sp_mod
    base = frob.load(args.base)
    budget = sp_mod.BUILD_BUDGET if args.budget is None else args.budget
    sp_mod.refuse_build(base.dim, args.n, budget)   # before S_n is built
    out = sp_mod.SymmetricProductAlgebra(base, args.n).realize(budget)
    alpha, sigma = _sn_twists(out.group, args.lam, args.super_twist)
    if alpha is not None or sigma is not None:
        out = gfrob.twist(out, alpha, sigma)
        out.name = (f"sym{args.n}({base.name})"
                    + (f" lambda={args.lam}" if alpha is not None else "")
                    + (" super" if sigma is not None else ""))
    _emit(gfrob.to_json_dict(out), args.out)
    return 0


def cmd_mult(args) -> int:
    X = _load_galg(args.file)
    g, a = parse_element(X, args.left)
    h, b = parse_element(X, args.right)
    result = X.multiply(g, h, a, b)
    print(format_element(X, X.group.mul(g, h), result))
    return 0


def cmd_twist(args) -> int:
    from . import gfrob
    if args.lam is not None and args.cocycle:
        raise UsageError("--lambda and --cocycle are alternatives: pass one")
    # either cocycle is validated on the document's whole group
    X = _load_galg(args.file, scan=args.lam is not None or bool(args.cocycle))
    if args.cocycle:
        from . import cocycles as cocy
        doc = ex.load_json(args.cocycle)
        if "values" not in doc:
            raise UsageError(f"{args.cocycle} is not a cocycle document")
        cocy.refuse_scan(cocy.document_order(doc))   # as verify does: twist runs the scan
        alpha, sigma = cocy.from_json_dict(doc), _sn_twists(X.group, None, args.super_twist)[1]
    else:
        alpha, sigma = _sn_twists(X.group, args.lam, args.super_twist)
    if alpha is None and sigma is None:
        raise UsageError("nothing to do: pass --lambda or --cocycle, and/or --super")
    _emit(gfrob.to_json_dict(gfrob.twist(X, alpha, sigma)), args.out)
    return 0


def cmd_invariants(args) -> int:
    from . import gfrob
    if args.shift is not None and not args.poincare:
        raise UsageError("--shift needs --poincare")
    X = _load_galg(args.file)
    inv = gfrob.invariants(X)
    if args.poincare:   # before any output: bad shift flags leave stdout empty
        from . import grading
        if args.shift == "standard":
            shifts = grading.standard_shifts(X)
        else:
            shifts = grading.zero_shifts(X)
        poly = grading.invariant_poincare(X, inv.basis, shifts)
    for label, dim in inv.dims_by_class().items():
        print(f"class {label}: dim {dim}")
    print(f"total: {inv.dim}")
    if not inv.commutative:
        print("WARNING: invariant product is not commutative")
    if args.poincare:
        print(f"poincare: {grading.format_poincare(poly)}")
    return 0


def cmd_export(args) -> int:
    _, _, canonical = _document(args.file)
    _emit(canonical(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbifrob",
        description="Exact verifier and constructor for group-graded Frobenius algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every defining law of a stored structure")
    p.add_argument("file")
    p.add_argument("--out", help="write the machine-readable report here")
    p.add_argument("--budget", type=int, default=VERIFY_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("symprod", help="second-quantize a base algebra for S_n")
    p.add_argument("base")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="twist by the normalized cocycle with alpha(tau,tau) = p/q")
    p.add_argument("--super", dest="super_twist", action="store_true",
                   help="apply the sign super-twist")
    p.add_argument("--budget", type=int, default=None)   # None: symprod.BUILD_BUDGET
    p.add_argument("--out", help="output path for the sector-graded algebra document")
    p.set_defaults(func=cmd_symprod)

    p = sub.add_parser("mult", help="multiply two elements of a stored algebra")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("twist", help="apply discrete-torsion and/or super twists")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--cocycle", help="cocycle document to twist by")
    p.add_argument("--super", dest="super_twist", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("invariants", help="invariant subalgebra dimensions per class")
    p.add_argument("file")
    p.add_argument("--poincare", action="store_true")
    p.add_argument("--shift", choices=["none", "standard"])
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("export", help="re-emit a document in canonical form")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, KeyError, ValueError, TypeError,
            BudgetExceededError) as exc:
        # the loaders index documents directly, so a KeyError names a missing key
        message = f"missing required key {exc}" if type(exc) is KeyError else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
