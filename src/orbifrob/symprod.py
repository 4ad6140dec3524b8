"""Second quantization of a Frobenius algebra over the symmetric groups.

For a commutative, evenly graded base algebra A and the symmetric group S_n,
the sector of a permutation s is the tensor power A^(x)l(s) with one factor
per cycle (canonical order: cycles sorted by minimal element), the pairing is
the factorwise one, and the group acts by relabelling cycles.

The product is computed along two independent routes:

* ``multiply_pushforward`` factors through the common refinement of the two
  cycle partitions: restrict both operands there by contraction, insert one
  Euler-class power per joint orbit (exponent = the orbit's graph defect),
  and push the result forward to the product sector along the metric adjoint
  of the contraction.

* ``multiply_chain`` expands the right factor into a minimal word of
  transpositions, walks the word, and inserts the dual of the unit of a
  transposition sector (a copairing) at every step where the word length
  drops, then contracts everything down to the product sector.

Exact agreement of the two routes on all basis pairs is the cross-oracle the
test suite enforces.

Each route multiplies in A^(x)m by its own factor-by-factor walk that skips
factor pairs with zero product before multiplying any coefficient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import cocycles as cocy
from . import exactnum as ex
from . import frobenius as frob
from .frobenius import FrobeniusAlgebra, tensor_index, tensor_tuple
from .gfrob import BudgetExceededError, GFrobeniusAlgebra, twist
from .groups import (OrbitPartition, Permutation, compose, cycles, degree,
                     group_orbits, symmetric_group)

BUILD_BUDGET = 200_000  # max number of product-table entries a build may cost


@dataclass(frozen=True)
class SectorIndex:
    perm: Permutation
    orbits: OrbitPartition


def obstruction_exponent(sigma: Permutation, sigma2: Permutation, block) -> int:
    """Graph defect of a joint orbit: (|B| + 2 - k_s - k_s' - k_ss')/2.

    ``block`` must be an orbit of <sigma, sigma'>.  A negative or fractional
    value signals a convention bug and raises.
    """
    bset = set(block)
    joint = group_orbits([sigma, sigma2])
    if tuple(sorted(bset)) not in joint.blocks:
        raise ValueError(f"{sorted(bset)} is not an orbit of the pair")

    def orbits_inside(p: Permutation) -> int:
        return sum(1 for blk in cycles(p).blocks if blk[0] in bset)

    k1 = orbits_inside(sigma)
    k2 = orbits_inside(sigma2)
    k3 = orbits_inside(compose(sigma, sigma2))
    num = len(bset) + 2 - k1 - k2 - k3
    if num < 0 or num % 2:
        raise ValueError(
            f"obstruction exponent {num}/2 on block {sorted(bset)} is negative or fractional"
        )
    return num // 2


def minimal_word(p: Permutation) -> list[Permutation]:
    """Deterministic minimal transposition word, |word| = |p|.

    Peels the smallest moved point a via (a p(a)) from the right; the word
    composes left-to-right, p = w[0] * w[1] * ... * w[-1].
    """
    word: list[Permutation] = []
    rho = p
    while not rho.is_identity():
        a = min(rho.moved_points())
        tau = Permutation.transposition(rho.n, a, rho(a))
        word.insert(0, tau)
        rho = compose(rho, tau)
    return word


def all_minimal_words(p: Permutation, limit: int | None = None) -> list[list[Permutation]]:
    """Every minimal word (cap with ``limit``); feasible for small degrees."""
    if p.is_identity():
        return [[]]
    out: list[list[Permutation]] = []
    n = p.n
    for a in range(n):
        for b in range(a + 1, n):
            tau = Permutation.transposition(n, a, b)
            q = compose(p, tau)
            if degree(q) == degree(p) - 1:
                for w in all_minimal_words(q, limit):
                    out.append(w + [tau])
                    if limit is not None and len(out) >= limit:
                        return out
    return out


class SymmetricProductAlgebra:
    """Sector bookkeeping plus the two product routes; tables built on demand."""

    def __init__(self, base: FrobeniusAlgebra, n: int):
        report = base.verify()
        if not report.passed:
            first = report.failures()[0]
            raise ValueError(f"base algebra fails {first.key}: {first.witness}")
        if not base.is_even():
            raise ValueError("second quantization requires an evenly graded base")
        for i in range(base.dim):
            for j in range(i + 1, base.dim):
                if base.multiply_basis(i, j) != base.multiply_basis(j, i):
                    raise ValueError(
                        f"second quantization requires a commutative base; "
                        f"witness ({base.labels[i]}, {base.labels[j]})"
                    )
        if n < 1:
            raise ValueError("the ambient degree must be >= 1")
        self.base = base
        self.n = n
        self.group = symmetric_group(n)
        self.perms = self.group.perms
        self.parts = [cycles(p) for p in self.perms]
        self.factors = [len(part) for part in self.parts]
        self.dims = [base.dim ** l for l in self.factors]
        self.euler = base.euler_class()
        # the chain's factor pairs with nonzero product, by left index; the
        # pushforward route keeps its own, so the cross-oracle shares no kernel
        self._chain_pairs: dict[int, list] = {}
        for (x, y), row in base.rows.items():
            if row:
                self._chain_pairs.setdefault(x, []).append((y, list(row.items())))
        self._perm_index = {p.images: i for i, p in enumerate(self.perms)}
        self._galg: GFrobeniusAlgebra | None = None
        self._mu_cache: dict[int, list] = {}
        self._adj_cache: dict[int, list] = {}

    # -- bookkeeping ----------------------------------------------------------

    def sector(self, g: int) -> SectorIndex:
        return SectorIndex(self.perms[g], self.parts[g])

    def sector_of(self, p: Permutation) -> int:
        return self._perm_index[p.images]

    def generator(self, g: int):
        """1_s = unit tensor of the sector."""
        return frob.tensor_unit(self.base, self.factors[g])

    def sector_labels(self, g: int) -> list[str]:
        base_labels = self.base.labels
        out = []
        for idx in range(self.dims[g]):
            t = tensor_tuple(idx, self.base.dim, self.factors[g])
            out.append("⊗".join(base_labels[i] for i in t))
        return out

    # -- contraction maps -------------------------------------------------------

    def _nesting(self, fine: OrbitPartition, coarse: OrbitPartition) -> list[list[int]]:
        """Per coarse block: positions of the fine blocks it swallows."""
        if not fine.refines(coarse):
            raise ValueError("partitions are not nested")
        coarse_of = coarse.block_index()
        out: list[list[int]] = [[] for _ in coarse.blocks]
        for fpos, fblock in enumerate(fine.blocks):
            out[coarse_of[fblock[0]]].append(fpos)
        return out

    def _basis_product(self, indices) -> dict:
        """Sparse product of a list of base basis elements."""
        terms = {indices[0]: 1}
        for idx in indices[1:]:
            new: dict = {}
            for i, c in terms.items():
                row = self.base.rows.get((i, idx))
                if row:
                    for k, v in row.items():
                        new[k] = new.get(k, 0) + c * v
            terms = {k: ex.norm(v) for k, v in new.items() if v != 0}
            if not terms:
                break
        return terms

    def restrict_between(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Contraction-by-multiplication A^(x)|fine| -> A^(x)|coarse|."""
        nest = self._nesting(fine, coarse)
        D = self.base.dim
        out = ex.vec_zero(D ** len(coarse))
        for idx, x in enumerate(v):
            if x == 0:
                continue
            t = tensor_tuple(idx, D, len(fine))
            terms = {(): x}
            for fps in nest:
                block_val = self._basis_product([t[f] for f in fps])
                if not block_val:
                    terms = {}
                    break
                new = {}
                for prefix, c in terms.items():
                    for k, w in block_val.items():
                        new[prefix + (k,)] = ex.norm(c * w)
                terms = new
            for tup, c in terms.items():
                out[tensor_index(tup, D)] += c
        return [ex.norm(x) for x in out]

    def _mu_matrix(self, m: int) -> list:
        """Matrix of the m-fold multiplication A^(x)m -> A."""
        if m not in self._mu_cache:
            D = self.base.dim
            mat = ex.mat_zero(D, D ** m)
            for col in range(D ** m):
                for k, v in self._basis_product(list(tensor_tuple(col, D, m))).items():
                    mat[k][col] = v
            self._mu_cache[m] = mat
        return self._mu_cache[m]

    def _adjoint_matrix(self, m: int) -> list:
        """Metric adjoint of the m-fold multiplication: A -> A^(x)m."""
        if m not in self._adj_cache:
            eta_inv_power = [[1]]
            for _ in range(m):
                eta_inv_power = ex.kron(eta_inv_power, self.base.metric_inv)
            mat = ex.mat_mul(eta_inv_power,
                             ex.mat_mul(ex.mat_transpose(self._mu_matrix(m)), self.base.metric))
            self._adj_cache[m] = mat
        return self._adj_cache[m]

    def push_between(self, fine: OrbitPartition, coarse: OrbitPartition, w):
        """Metric adjoint of restrict_between(fine, coarse, .): coarse -> fine."""
        nest = self._nesting(fine, coarse)
        D = self.base.dim
        adjoints = [self._adjoint_matrix(len(fps)) for fps in nest]
        concat = [f for fps in nest for f in fps]
        out = ex.vec_zero(D ** len(fine))
        for idx, x in enumerate(w):
            if x == 0:
                continue
            tc = tensor_tuple(idx, D, len(coarse))
            terms = {(): x}
            for cpos, fps in enumerate(nest):
                adj = adjoints[cpos]
                col = tc[cpos]
                new = {}
                for prefix, c in terms.items():
                    for row in range(len(adj)):
                        v = adj[row][col]
                        if v != 0:
                            new[prefix + tensor_tuple(row, D, len(fps))] = ex.norm(c * v)
                terms = new
                if not terms:
                    break
            for tup, c in terms.items():
                canonical = [0] * len(fine)
                for spot, fpos in enumerate(concat):
                    canonical[fpos] = tup[spot]
                out[tensor_index(canonical, D)] += c
        return [ex.norm(x) for x in out]

    def restriction_matrix(self, fine: OrbitPartition, coarse: OrbitPartition) -> list:
        D = self.base.dim
        cols = []
        for idx in range(D ** len(fine)):
            v = ex.vec_zero(D ** len(fine))
            v[idx] = 1
            cols.append(self.restrict_between(fine, coarse, v))
        return ex.mat_transpose(cols)

    # -- the two product routes -------------------------------------------------

    def multiply_pushforward(self, g: int, a, h: int, b):
        """Product through the double intersection with Euler-class insertion."""
        sigma, sigma2 = self.perms[g], self.perms[h]
        joint = group_orbits([sigma, sigma2])
        ra = self.restrict_between(self.parts[g], joint, a)
        rb = self.restrict_between(self.parts[h], joint, b)
        m = len(joint)
        u = frob.factorwise_multiply(self.base, m, ra, rb)
        gamma_tilde = self.gamma_tilde(g, h, joint)
        u = frob.factorwise_multiply(self.base, m, u, gamma_tilde)
        return self.push_between(self.parts[self.group.mul(g, h)], joint, u)

    def gamma_tilde(self, g: int, h: int, joint: OrbitPartition | None = None):
        """Obstruction class: one Euler-class power per joint orbit."""
        sigma, sigma2 = self.perms[g], self.perms[h]
        if joint is None:
            joint = group_orbits([sigma, sigma2])
        D = self.base.dim
        out = [1]
        for block in joint.blocks:
            power = self.base.power(self.euler, obstruction_exponent(sigma, sigma2, block))
            new = ex.vec_zero(len(out) * D)
            for i, c in enumerate(out):
                if c == 0:
                    continue
                for k, v in enumerate(power):
                    if v != 0:
                        new[i * D + k] = ex.norm(c * v)
            out = new
        return out

    def section_lift(self, g: int, a):
        """Unit-tensor section A_s -> A_e: factor values at cycle minima."""
        D = self.base.dim
        part = self.parts[g]
        mins = [blk[0] for blk in part.blocks]
        unit_support = [(k, v) for k, v in enumerate(self.base.unit) if v != 0]
        fillers = [p for p in range(self.n) if p not in mins]
        terms: dict[tuple, ex.Rat] = {}
        for idx, x in enumerate(a):
            if x == 0:
                continue
            t = tensor_tuple(idx, D, len(part))
            partial = [(tuple(), x)]
            for _ in fillers:
                partial = [(tup + (k,), ex.norm(c * v)) for tup, c in partial for k, v in unit_support]
            for tail, c in partial:
                full = [0] * self.n
                for fpos, m0 in enumerate(mins):
                    full[m0] = t[fpos]
                for spot, p in enumerate(fillers):
                    full[p] = tail[spot]
                key = tuple(full)
                terms[key] = ex.norm(terms.get(key, 0) + c)
        return {k: v for k, v in terms.items() if v != 0}

    def _copairing_element(self, tau: Permutation) -> dict:
        """gamma_{tau,tau} in A_e: copairing across the two moved points."""
        moved = tau.moved_points()
        if len(moved) != 2:
            raise ValueError(f"{tau} is not a transposition")
        p1, p2 = moved
        unit_support = [(k, v) for k, v in enumerate(self.base.unit) if v != 0]
        fillers = [p for p in range(self.n) if p not in (p1, p2)]
        terms: dict[tuple, ex.Rat] = {}
        for i, j, c in self.base.copairing():
            partial = [(tuple(), c)]
            for _ in fillers:
                partial = [(tup + (k,), ex.norm(cc * v)) for tup, cc in partial for k, v in unit_support]
            for tail, cc in partial:
                full = [0] * self.n
                full[p1], full[p2] = i, j
                for spot, p in enumerate(fillers):
                    full[p] = tail[spot]
                key = tuple(full)
                terms[key] = ex.norm(terms.get(key, 0) + cc)
        return {k: v for k, v in terms.items() if v != 0}

    def _elem_product(self, s1: dict, s2: dict) -> dict:
        """Factorwise product of sparse A_e elements keyed by index tuples.

        Both operands become tries on their factor indices, holding integer
        numerators over one denominator each; the walk descends position by
        position through the factor pairs with a nonzero product, so a dead
        pair costs no multiplication, and divides once at the end.
        """
        pairs = self._chain_pairs
        last = self.n - 1

        def trie(s):
            den = math.lcm(*(c.denominator for c in s.values()))
            root: dict = {}
            for t, c in s.items():
                if c != 0:
                    node = root
                    for x in t[:last]:
                        node = node.setdefault(x, {})
                    node[t[last]] = c.numerator * (den // c.denominator)
            return root, den

        (root1, d1), (root2, d2) = trie(s1), trie(s2)
        out: dict[tuple, int] = {}

        def walk(d, node1, node2, prefix, carry):
            for x, sub1 in node1.items():
                for y, row in pairs.get(x, ()):
                    sub2 = node2.get(y)
                    if sub2 is None:
                        continue
                    for k, c in row:
                        key = prefix + (k,)
                        if d == last:
                            out[key] = out.get(key, 0) + sub1 * sub2 * carry * c
                        else:
                            walk(d + 1, sub1, sub2, key, carry * c)

        walk(0, root1, root2, (), 1)
        den = d1 * d2
        if den == 1:
            return {k: ex.norm(w) for k, w in out.items() if w != 0}
        return {k: ex.norm(Fraction(w, den)) for k, w in out.items() if w != 0}

    def _contract_sparse(self, elem: dict, coarse: OrbitPartition):
        """Restriction A_e -> A^(x)|coarse| of a sparse tuple-keyed element."""
        D = self.base.dim
        out = ex.vec_zero(D ** len(coarse))
        for t, x in elem.items():
            terms = {(): x}
            for block in coarse.blocks:
                block_val = self._basis_product([t[p] for p in block])
                if not block_val:
                    terms = {}
                    break
                terms = {prefix + (k,): ex.norm(c * v)
                         for prefix, c in terms.items() for k, v in block_val.items()}
            for tup, c in terms.items():
                out[tensor_index(tup, D)] += c
        return [ex.norm(x) for x in out]

    def contraction_steps(self, g: int, h: int, word: list[Permutation] | None = None):
        """The word for the right factor and the positions where length drops."""
        sigma2 = self.perms[h]
        if word is None:
            word = minimal_word(sigma2)
        else:
            built = Permutation.identity(self.n)
            for t in word:
                if degree(t) != 1:
                    raise ValueError(f"word entry {t} is not a transposition")
                built = compose(built, t)
            if built != sigma2 or len(word) != degree(sigma2):
                raise ValueError("word is not a minimal factorization of the right factor")
        rho = self.perms[g]
        insertions = []
        for t in word:
            nxt = compose(rho, t)
            if degree(nxt) == degree(rho) - 1:
                insertions.append(t)
            rho = nxt
        return word, insertions

    def multiply_chain(self, g: int, a, h: int, b, word: list[Permutation] | None = None):
        """Product via the explicit transposition-word cocycle formula."""
        _, insertions = self.contraction_steps(g, h, word)
        acc = self._elem_product(self.section_lift(g, a), self.section_lift(h, b))
        for t in insertions:
            acc = self._elem_product(acc, self._copairing_element(t))
        return self._contract_sparse(acc, self.parts[self.group.mul(g, h)])

    def gamma_cocycle(self, g: int, h: int):
        """The sector cocycle as an identity-sector element (chain form).

        pi_{ss'} applied to the product of the word's copairing insertions;
        multiplying generators is r_{ss'} of this element.
        """
        _, insertions = self.contraction_steps(g, h)
        acc = self.section_lift(self.group.identity, frob.tensor_unit(self.base, self.n))
        for t in insertions:
            acc = self._elem_product(acc, self._copairing_element(t))
        restricted = self._contract_sparse(acc, self.parts[self.group.mul(g, h)])
        lifted = self.section_lift(self.group.mul(g, h), restricted)
        out = ex.vec_zero(self.base.dim ** self.n)
        for t, c in lifted.items():
            out[tensor_index(t, self.base.dim)] += c
        return [ex.norm(x) for x in out]

    def gamma_data(self, g: int, h: int) -> "GammaData":
        """Decomposition data of the cocycle at a sector pair."""
        sigma, sigma2 = self.perms[g], self.perms[h]
        joint = group_orbits([sigma, sigma2])
        gh = self.group.mul(g, h)
        part_gh = self.parts[gh]
        tilde = self.gamma_tilde(g, h, joint)
        one_joint = frob.tensor_unit(self.base, len(joint))
        perp = self.push_between(part_gh, joint, one_joint)
        bar = self._joint_section(part_gh, joint, tilde)
        restricted = frob.factorwise_multiply(self.base, len(part_gh), bar, perp)
        return GammaData(
            cocycle=self.gamma_cocycle(g, h),
            tilde=tilde,
            perp=perp,
            bar=bar,
            restricted=restricted,
        )

    def _joint_section(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Unit-tensor section A^(x)|coarse| -> A^(x)|fine| of the contraction."""
        nest = self._nesting(fine, coarse)
        D = self.base.dim
        unit_support = [(k, c) for k, c in enumerate(self.base.unit) if c != 0]
        out = ex.vec_zero(D ** len(fine))
        for idx, x in enumerate(v):
            if x == 0:
                continue
            tc = tensor_tuple(idx, D, len(coarse))
            terms = [([0] * len(fine), x)]
            for cpos, fps in enumerate(nest):
                carrier = fps[0]
                new = []
                for tup, c in terms:
                    tup = list(tup)
                    tup[carrier] = tc[cpos]
                    exp = [(tup, c)]
                    for f in fps[1:]:
                        exp = [(t[:f] + [k] + t[f + 1:], ex.norm(cc * u))
                               for t, cc in exp for k, u in unit_support]
                    new.extend(exp)
                terms = new
            for tup, c in terms:
                out[tensor_index(tup, D)] += c
        return [ex.norm(x) for x in out]

    # -- realized group-graded algebra -------------------------------------------

    def table_cost(self) -> int:
        return sum(self.dims) ** 2

    def realize(self, budget: int = BUILD_BUDGET) -> GFrobeniusAlgebra:
        """Materialize the full table-backed algebra (cached)."""
        if self._galg is not None:
            return self._galg
        cost = self.table_cost()
        if cost > budget:
            raise BudgetExceededError(
                f"building all product tables costs {cost} entries (budget {budget})", cost
            )
        G = self.group
        D = self.base.dim
        product = {}
        for g in G.elements():
            for h in G.elements():
                product[(g, h)] = self.pair_table(g, h)
        action = {}
        for g in G.elements():
            for h in G.elements():
                action[(g, h)] = self._action_matrix(g, h)
        metric = [frob.tensor_metric(self.base, self.factors[g]) for g in G.elements()]
        degrees = []
        for g in G.elements():
            degs = []
            for idx in range(self.dims[g]):
                t = tensor_tuple(idx, D, self.factors[g])
                degs.append(sum(self.base.degrees[i] for i in t))
            degrees.append(degs)
        self._galg = GFrobeniusAlgebra(
            name=f"sym{self.n}({self.base.name})",
            group=G,
            sector_dims=list(self.dims),
            sector_degrees=degrees,
            sector_parities=[[0] * self.dims[g] for g in G.elements()],
            sector_labels=[self.sector_labels(g) for g in G.elements()],
            product=product,
            action=action,
            metric=metric,
            character=[1] * G.order,
            unit=frob.tensor_unit(self.base, self.n),
        )
        return self._galg

    def _action_matrix(self, g: int, h: int) -> list:
        """phi_g on A_h: cycles relabel along g, coefficient 1."""
        G = self.group
        D = self.base.dim
        tgt = G.conj(g, h)
        src_part, tgt_part = self.parts[h], self.parts[tgt]
        perm_g = self.perms[g]
        tgt_index = tgt_part.block_index()
        slot_map = [tgt_index[perm_g(block[0])] for block in src_part.blocks]
        mat = ex.mat_zero(self.dims[tgt], self.dims[h])
        lh = self.factors[h]
        for col in range(self.dims[h]):
            t = tensor_tuple(col, D, lh)
            out = [0] * lh
            for fpos, value in enumerate(t):
                out[slot_map[fpos]] = value
            mat[tensor_index(out, D)][col] = 1
        return mat

    def pair_table(self, g: int, h: int) -> dict:
        """Product table for a sector pair, assembled per joint orbit."""
        sigma, sigma2 = self.perms[g], self.perms[h]
        joint = group_orbits([sigma, sigma2])
        gh = self.group.mul(g, h)
        D = self.base.dim
        block_infos = []
        for block in joint.blocks:
            bset = set(block)
            s_pos = [i for i, blk in enumerate(self.parts[g].blocks) if blk[0] in bset]
            t_pos = [i for i, blk in enumerate(self.parts[h].blocks) if blk[0] in bset]
            p_pos = [i for i, blk in enumerate(self.parts[gh].blocks) if blk[0] in bset]
            expo = obstruction_exponent(sigma, sigma2, block)
            euler_pow = self.base.power(self.euler, expo)
            adj = self._adjoint_matrix(len(p_pos))
            local: dict = {}
            for t1 in itertools.product(range(D), repeat=len(s_pos)):
                v1 = self._basis_product(list(t1)) if t1 else {}
                if t1 and not v1:
                    continue
                for t2 in itertools.product(range(D), repeat=len(t_pos)):
                    v2 = self._basis_product(list(t2)) if t2 else {}
                    if t2 and not v2:
                        continue
                    u: dict = {}
                    for i, c1 in v1.items():
                        for j, c2 in v2.items():
                            row = self.base.rows.get((i, j))
                            if row:
                                c12 = c1 * c2
                                for k, v in row.items():
                                    u[k] = u.get(k, 0) + c12 * v
                    w: dict = {}
                    for k, c in u.items():
                        if c == 0:
                            continue
                        for k2, e in enumerate(euler_pow):
                            if e == 0:
                                continue
                            row = self.base.rows.get((k, k2))
                            if row:
                                ce = c * e
                                for k3, v in row.items():
                                    w[k3] = w.get(k3, 0) + ce * v
                    result: dict = {}
                    for k, c in w.items():
                        if c == 0:
                            continue
                        for r in range(len(adj)):
                            v = adj[r][k]
                            if v != 0:
                                result[r] = ex.norm(result.get(r, 0) + c * v)
                    result = {k: v for k, v in result.items() if v != 0}
                    if result:
                        local[(t1, t2)] = result
            block_infos.append((s_pos, t_pos, p_pos, local))

        table: dict = {}
        lg, lh, lp = self.factors[g], self.factors[h], self.factors[gh]
        for i in range(self.dims[g]):
            ti = tensor_tuple(i, D, lg)
            for j in range(self.dims[h]):
                tj = tensor_tuple(j, D, lh)
                terms = [([0] * lp, 1)]
                dead = False
                for s_pos, t_pos, p_pos, local in block_infos:
                    key = (tuple(ti[p] for p in s_pos), tuple(tj[p] for p in t_pos))
                    vals = local.get(key)
                    if not vals:
                        dead = True
                        break
                    m = len(p_pos)
                    new = []
                    for tup, c in terms:
                        for packed, v in vals.items():
                            sub = tensor_tuple(packed, D, m)
                            t2 = list(tup)
                            for spot, ppos in enumerate(p_pos):
                                t2[ppos] = sub[spot]
                            new.append((t2, c * v))
                    terms = new
                if dead:
                    continue
                vec: dict = {}
                for tup, c in terms:
                    k = tensor_index(tup, D)
                    vec[k] = vec.get(k, 0) + c
                vec = {k: ex.norm(v) for k, v in vec.items() if v != 0}
                if vec:
                    table[(i, j)] = vec
        return table


# -- public wrappers -----------------------------------------------------------

@dataclass
class GammaData:
    cocycle: list     # identity-sector form (chain formula, section-projected)
    tilde: list       # obstruction class in the joint-orbit sector
    perp: list        # pushforward of the joint unit, in the product sector
    bar: list         # section image of tilde in the product sector
    restricted: list  # bar * perp = the cocycle restricted to the product sector


def build(base: FrobeniusAlgebra, n: int, budget: int = BUILD_BUDGET) -> SymmetricProductAlgebra:
    sp = SymmetricProductAlgebra(base, n)
    sp.realize(budget)
    return sp


def restriction(sp: SymmetricProductAlgebra, fine_gens, coarse_gens, v):
    fine = group_orbits(list(fine_gens), sp.n)
    coarse = group_orbits(list(coarse_gens), sp.n)
    return sp.restrict_between(fine, coarse, v)


def pushforward(sp: SymmetricProductAlgebra, fine_gens, coarse_gens, w):
    fine = group_orbits(list(fine_gens), sp.n)
    coarse = group_orbits(list(coarse_gens), sp.n)
    return sp.push_between(fine, coarse, w)


def multiply_pushforward(sp: SymmetricProductAlgebra, g: int, a, h: int, b):
    return sp.multiply_pushforward(g, a, h, b)


def multiply_chain(sp: SymmetricProductAlgebra, g: int, a, h: int, b, word=None):
    return sp.multiply_chain(g, a, h, b, word)


def gamma_data(sp: SymmetricProductAlgebra, g: int, h: int) -> GammaData:
    return sp.gamma_data(g, h)


def hilbert_twist(sp: SymmetricProductAlgebra) -> GFrobeniusAlgebra:
    """Twist by the normalized sign cocycle alpha(tau,tau) = -1."""
    return twist(sp.realize(), cocy.normalized_sn_cocycle(sp.n, -1))


def qw_twist(sp: SymmetricProductAlgebra, lam) -> GFrobeniusAlgebra:
    """The lambda-family: twist by the normalized cocycle alpha(tau,tau) = lambda."""
    lam = ex.rat(lam) if isinstance(lam, str) else lam
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return twist(sp.realize(), cocy.normalized_sn_cocycle(sp.n, lam))
