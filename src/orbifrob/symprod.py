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
Everything that depends only on the sector pair (joint orbits, obstruction
class, integer block tables, copairing insertions) is built on the pair's
first product and reused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from . import cocycles as cocy
from . import exactnum as ex
from . import frobenius as frob
from .frobenius import FrobeniusAlgebra, tensor_index, tensor_tuple
from .gfrob import BudgetExceededError, GFrobeniusAlgebra, twist
from .groups import (OrbitPartition, Permutation, compose, cycles, degree,
                     group_orbits, symmetric_group)

BUILD_BUDGET = 200_000  # max number of product-table entries a build may cost


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
        self._adj_cache: dict[int, list] = {}
        # filled lazily and idempotently, keyed by m, by sector or by sector pair
        self._tuple_cache: dict[int, list] = {}
        self._columns: dict[tuple, tuple] = {}
        self._lifts: dict[int, tuple] = {}
        self._push_plans: dict[tuple, tuple] = {}
        self._chain_plans: dict[tuple, list] = {}

    # -- bookkeeping ----------------------------------------------------------

    def sector_of(self, p: Permutation) -> int:
        return self._perm_index[p.images]

    def generator(self, g: int):
        """1_s = unit tensor of the sector."""
        return frob.tensor_unit(self.base, self.factors[g])

    def sector_labels(self, g: int) -> list[str]:
        return ["⊗".join(self.base.labels[i] for i in t) for t in self._tuples(self.factors[g])]

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

    def _tuples(self, m: int) -> list:
        """Factor-index tuples of A^(x)m in basis order."""
        if m not in self._tuple_cache:
            self._tuple_cache[m] = list(itertools.product(range(self.base.dim), repeat=m))
        return self._tuple_cache[m]

    def _unit_tails(self, m: int) -> list:
        """Nonzero terms (factor tuple, coefficient) of the unit tensor of A^(x)m."""
        return [(t, c) for t, c in zip(self._tuples(m), frob.tensor_unit(self.base, m)) if c]

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

    def _adjoint_matrix(self, m: int) -> list:
        """Metric adjoint of the m-fold multiplication: A -> A^(x)m."""
        if m not in self._adj_cache:
            eta_inv_power = [[1]]
            for _ in range(m):
                eta_inv_power = ex.kron(eta_inv_power, self.base.metric_inv)
            mu_t = [[self._basis_product(list(t)).get(k, 0) for k in range(self.base.dim)]
                    for t in self._tuples(m)]
            self._adj_cache[m] = ex.mat_mul(eta_inv_power, ex.mat_mul(mu_t, self.base.metric))
        return self._adj_cache[m]

    def _mu_columns(self, m: int) -> tuple[dict, int]:
        """The m-fold product as integer columns over one denominator.

        Factor tuple -> [(k, numerator)]; the key is the bare index when m = 1,
        as ``itemgetter`` reads it off a tensor tuple.
        """
        if ("mu", m) not in self._columns:
            self._columns["mu", m] = _integral({
                t if m > 1 else t[0]: list(self._basis_product(list(t)).items())
                for t in self._tuples(m)})
        return self._columns["mu", m]

    def _adjoint_columns(self, m: int) -> tuple[dict, int]:
        """Metric adjoint of the m-fold product: k -> [(factor tuple, numerator)]."""
        if ("adj", m) not in self._columns:
            adj, D = self._adjoint_matrix(m), self.base.dim
            self._columns["adj", m] = _integral(
                {k: [(t, row[k]) for t, row in zip(self._tuples(m), adj)] for k in range(D)})
        return self._columns["adj", m]

    def _section_columns(self, m: int) -> tuple[dict, int]:
        """Unit-tensor section A -> A^(x)m: k -> [((k, unit tail), numerator)]."""
        if ("section", m) not in self._columns:
            tails = self._unit_tails(m - 1)
            self._columns["section", m] = _integral({
                k: [((k,) + tail, u) for tail, u in tails] for k in range(self.base.dim)})
        return self._columns["section", m]

    def _gather_map(self, fine: OrbitPartition, coarse: OrbitPartition) -> tuple:
        """Block map fine -> coarse: each coarse factor multiplies its fine factors."""
        D = self.base.dim
        last = len(coarse) - 1
        blocks, den = [], 1
        for c, fps in enumerate(self._nesting(fine, coarse)):
            cols, d = self._mu_columns(len(fps))
            stride = D ** (last - c)
            blocks.append((itemgetter(*fps),
                           {key: [(k * stride, w) for k, w in col] for key, col in cols.items()}))
            den *= d
        return len(fine), blocks, den, D ** len(coarse)

    def _spread_map(self, fine: OrbitPartition, coarse: OrbitPartition, columns) -> tuple:
        """Block map coarse -> fine: each coarse factor spreads over its fine factors."""
        D = self.base.dim
        last = len(fine) - 1
        blocks, den = [], 1
        for c, fps in enumerate(self._nesting(fine, coarse)):
            cols, d = columns(len(fps))
            strides = [D ** (last - f) for f in fps]
            blocks.append((itemgetter(c),
                           {k: [(sum(map(mul, t, strides)), w) for t, w in col]
                            for k, col in cols.items()}))
            den *= d
        return len(coarse), blocks, den, D ** len(fine)

    def _block_map(self, v, bmap: tuple):
        """Apply a block map to a dense vector.

        Each nonzero entry reads one integer column per block, multiplies the
        columns out and adds the terms into the output; the operand's own
        denominator and the tables' are divided out once at the end.
        """
        length, blocks, table_den, size = bmap
        tuples = self._tuples(length)
        if len(v) != len(tuples):
            raise ValueError(f"operand must have length {len(tuples)}")
        den = math.lcm(*(x.denominator for x in v if x))
        acc = [0] * size
        for t, x in zip(tuples, v):
            if not x:
                continue
            terms = [(0, x.numerator * (den // x.denominator))]
            for get, table in blocks:
                col = table.get(get(t))
                if col is None:
                    break
                terms = [(o + p, c * w) for o, c in terms for p, w in col]
            else:
                for o, c in terms:
                    acc[o] += c
        return _divided(acc, den * table_den)

    def restrict_between(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Contraction-by-multiplication A^(x)|fine| -> A^(x)|coarse|."""
        return self._block_map(v, self._gather_map(fine, coarse))

    def push_between(self, fine: OrbitPartition, coarse: OrbitPartition, w):
        """Metric adjoint of restrict_between(fine, coarse, .): coarse -> fine."""
        return self._block_map(w, self._spread_map(fine, coarse, self._adjoint_columns))

    def _joint_section(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Unit-tensor section A^(x)|coarse| -> A^(x)|fine| of the contraction."""
        return self._block_map(v, self._spread_map(fine, coarse, self._section_columns))

    def restriction_matrix(self, fine: OrbitPartition, coarse: OrbitPartition) -> list:
        size = self.base.dim ** len(fine)
        unit_vectors = ([int(i == j) for i in range(size)] for j in range(size))
        return ex.mat_transpose([self.restrict_between(fine, coarse, e) for e in unit_vectors])

    # -- the two product routes -------------------------------------------------

    def _push_plan(self, g: int, h: int) -> tuple:
        """Per sector pair: both restrictions to the joint orbits, the joint
        orbit count, the obstruction class and the pushforward to the product."""
        plan = self._push_plans.get((g, h))
        if plan is None:
            joint = group_orbits([self.perms[g], self.perms[h]])
            plan = self._push_plans[g, h] = (
                self._gather_map(self.parts[g], joint),
                self._gather_map(self.parts[h], joint),
                len(joint),
                self.gamma_tilde(g, h, joint),
                self._spread_map(self.parts[self.group.mul(g, h)], joint, self._adjoint_columns),
            )
        return plan

    def multiply_pushforward(self, g: int, a, h: int, b):
        """Product through the double intersection with Euler-class insertion."""
        restrict_g, restrict_h, m, tilde, push = self._push_plan(g, h)
        u = frob.factorwise_multiply(self.base, m, self._block_map(a, restrict_g),
                                     self._block_map(b, restrict_h))
        u = frob.factorwise_multiply(self.base, m, u, tilde)
        return self._block_map(u, push)

    def gamma_tilde(self, g: int, h: int, joint: OrbitPartition | None = None):
        """Obstruction class: one Euler-class power per joint orbit."""
        sigma, sigma2 = self.perms[g], self.perms[h]
        if joint is None:
            joint = group_orbits([sigma, sigma2])
        out = [[1]]
        for block in joint.blocks:
            power = self.base.power(self.euler, obstruction_exponent(sigma, sigma2, block))
            out = ex.kron(out, [power])
        return out[0]

    def _placement(self, positions) -> tuple:
        """(place, tails) for A_e elements with given factors at ``positions``.

        ``place(given + tail)`` orders the given factors followed by a unit
        tail for the other positions into an A_e index tuple; ``tails`` lists
        the unit tensor's terms on those other positions.
        """
        fillers = [p for p in range(self.n) if p not in positions]
        order = [0] * self.n
        for spot, p in enumerate([*positions, *fillers]):
            order[p] = spot
        # itemgetter of one index returns a bare item, not a tuple
        return (itemgetter(*order) if self.n > 1 else tuple), self._unit_tails(len(fillers))

    def section_lift(self, g: int, a):
        """Unit-tensor section A_s -> A_e: factor values at cycle minima."""
        if g not in self._lifts:
            self._lifts[g] = self._placement([blk[0] for blk in self.parts[g].blocks])
        place, tails = self._lifts[g]
        return {place(t + tail): ex.norm(x * u)
                for t, x in zip(self._tuples(self.factors[g]), a) if x for tail, u in tails}

    def _copairing_element(self, tau: Permutation) -> dict:
        """gamma_{tau,tau} in A_e: copairing across the two moved points."""
        moved = tau.moved_points()
        if len(moved) != 2:
            raise ValueError(f"{tau} is not a transposition")
        place, tails = self._placement(moved)
        return {place((i, j) + tail): ex.norm(c * u)
                for i, j, c in self.base.copairing() for tail, u in tails}

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
        """Restriction A_e -> A^(x)|coarse| of a sparse tuple-keyed element.

        Runs on integer numerators over one denominator: each coarse factor
        reads its column of the m-fold product table, and the output index
        grows one factor at a time.
        """
        D = self.base.dim
        blocks = [(itemgetter(*blk), *self._mu_columns(len(blk))) for blk in coarse.blocks]
        den = math.lcm(*(x.denominator for x in elem.values()))
        acc = [0] * D ** len(coarse)
        for t, x in elem.items():
            terms = [(0, x.numerator * (den // x.denominator))]
            for get, cols, _ in blocks:
                col = cols.get(get(t))
                if col is None:
                    break
                terms = [(o * D + k, c * w) for o, c in terms for k, w in col]
            else:
                for o, c in terms:
                    acc[o] += c
        return _divided(acc, den * math.prod(d for _, _, d in blocks))

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

    def _insertions(self, g: int, h: int, word: list[Permutation] | None = None) -> list:
        """Copairing elements the word inserts; cached per sector pair for the
        default word, rebuilt (and the word validated) when a word is given."""
        if word is None and (g, h) in self._chain_plans:
            return self._chain_plans[g, h]
        _, insertions = self.contraction_steps(g, h, word)
        gammas = [self._copairing_element(t) for t in insertions]
        if word is None:
            self._chain_plans[g, h] = gammas
        return gammas

    def multiply_chain(self, g: int, a, h: int, b, word: list[Permutation] | None = None):
        """Product via the explicit transposition-word cocycle formula."""
        gammas = self._insertions(g, h, word)
        acc = self._elem_product(self.section_lift(g, a), self.section_lift(h, b))
        for gamma in gammas:
            acc = self._elem_product(acc, gamma)
        return self._contract_sparse(acc, self.parts[self.group.mul(g, h)])

    def gamma_cocycle(self, g: int, h: int):
        """The sector cocycle as an identity-sector element (chain form).

        pi_{ss'} applied to the product of the word's copairing insertions;
        multiplying generators is r_{ss'} of this element.
        """
        acc = self.section_lift(self.group.identity, frob.tensor_unit(self.base, self.n))
        for gamma in self._insertions(g, h):
            acc = self._elem_product(acc, gamma)
        restricted = self._contract_sparse(acc, self.parts[self.group.mul(g, h)])
        lifted = self.section_lift(self.group.mul(g, h), restricted)
        return [lifted.get(t, 0) for t in self._tuples(self.n)]

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
        product = {}
        for g in G.elements():
            for h in G.elements():
                product[(g, h)] = self.pair_table(g, h)
        action = {}
        for g in G.elements():
            for h in G.elements():
                action[(g, h)] = self._action_matrix(g, h)
        metric = [frob.tensor_metric(self.base, self.factors[g]) for g in G.elements()]
        degrees = [[sum(self.base.degrees[i] for i in t) for t in self._tuples(self.factors[g])]
                   for g in G.elements()]
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


def _integral(cols: dict) -> tuple[dict, int]:
    """Nonzero column entries as integer numerators over one denominator."""
    den = math.lcm(*(w.denominator for col in cols.values() for _, w in col))
    cols = {key: [(x, w.numerator * (den // w.denominator)) for x, w in col if w]
            for key, col in cols.items()}
    return {key: col for key, col in cols.items() if col}, den


def _divided(acc: list, den: int) -> list:
    """Integer numerators over ``den`` as exact scalars (int when integral)."""
    if den == 1:
        return acc
    return [ex.norm(Fraction(w, den)) if w else 0 for w in acc]


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


def hilbert_twist(sp: SymmetricProductAlgebra) -> GFrobeniusAlgebra:
    """Twist by the normalized sign cocycle alpha(tau,tau) = -1."""
    return twist(sp.realize(), cocy.normalized_sn_cocycle(sp.n, -1))


def qw_twist(sp: SymmetricProductAlgebra, lam) -> GFrobeniusAlgebra:
    """The lambda-family: twist by the normalized cocycle alpha(tau,tau) = lambda."""
    lam = ex.rat(lam) if isinstance(lam, str) else lam
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return twist(sp.realize(), cocy.normalized_sn_cocycle(sp.n, lam))
