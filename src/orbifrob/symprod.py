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
  drops: the product of both operands' unit-tensor lifts to A_e = A^(x)n and
  the insertions, contracted down to the product sector.

Exact agreement of the two routes on all basis pairs is the cross-oracle the
test suite enforces.  On a joint orbit B the pushforward is one bilinear map,
and as the base is commutative it depends only on the numbers of cycles of
s, s' and ss' in B and on B's graph defect; it is composed once per instance
from the m-fold products, the Euler-class power and the metric adjoint.  A
sector pair's plan places these maps at the pair's factor positions.
``multiply_pushforward`` walks both operands through the plan orbit by
orbit, and the realized tables (``pair_table``) walk the basis indices
through the same plan; the chain stays independent of both as the oracle.

The chain never multiplies in A_e.  Its last step, the contraction r_ss'
onto the product sector, multiplies the factors in each cycle of ss'; as the
base is commutative and evenly graded, r_ss' is an algebra map, so the chain
equals the product of r_ss' of the two lifts and of each insertion.  Each is
contracted first: a lift by one block map per (sector, product sector),
where factor c lands in the cycle of ss' that holds min(c) and a cycle that
receives none holds the unit; the insertions once per sector pair.  The
products then run on A^(x)|ss'| with ``frobenius.factorwise_product``, the
one kernel on tensor powers, on flat numerators split into a high and a low
half of the factors; the pushforward walks ``frobenius._nest`` tries orbit
by orbit.  Each skips pairs with zero product before multiplying any
coefficient.  Every
intermediate value of either route is an integer numerator over one
denominator per stage; the denominators multiply along the stages and each
product divides once, at the end.  Everything that depends only on the
sector pair (joint orbits and their composed maps, the contracted copairing
insertions) is built on the pair's first product and reused.  Contractions
(between nested cycle partitions, and the chain's), their metric adjoints
and sections are block maps with one kernel, ``_block_map``, where a block
of one factor only adds its index times its stride.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from . import exactnum as ex
from . import frobenius as frob
from .frobenius import (FrobeniusAlgebra, _divided, _nest, _numerators, _split, tensor_index,
                        tensor_tuple)
from .gfrob import BudgetExceededError, GFrobeniusAlgebra, _transpose
from .groups import (OrbitPartition, Permutation, compose, cycles, degree,
                     group_orbits, symmetric_group)

BUILD_BUDGET = 200_000  # max number of product-table entries a build may cost


def obstruction_exponent(sigma: Permutation, sigma2: Permutation, block) -> int:
    """Graph defect of a joint orbit: (|B| + 2 - k_s - k_s' - k_ss')/2.

    ``block`` must be an orbit of <sigma, sigma'>.  A negative or fractional
    value signals a convention bug and raises.
    """
    if sigma.n != sigma2.n:
        raise ValueError(f"generators of mixed degree: {sorted({sigma.n, sigma2.n})}")
    s1, s2, n = sigma.images, sigma2.images, sigma.n
    bset = set(block)
    # an orbit: inside 0..n-1, and the points reached from one of them under
    # sigma and sigma' are exactly the block
    reached = {min(bset)} if bset and all(0 <= p < n for p in bset) else set()
    frontier = list(reached)
    while frontier:
        p = frontier.pop()
        for q in (s1[p], s2[p]):
            if q not in reached:
                reached.add(q)
                frontier.append(q)
    if not bset or reached != bset:
        raise ValueError(f"{sorted(bset)} is not an orbit of the pair")

    inside = 0   # cycles of sigma, sigma' and sigma sigma' inside the block
    for image in (s1, s2, [s1[q] for q in s2]):
        seen: set = set()
        for p in bset:
            if p not in seen:
                inside += 1
                while p not in seen:
                    seen.add(p)
                    p = image[p]
    return _graph_defect(bset, inside)


def _graph_defect(block, inside: int) -> int:
    """(|B| + 2 - inside)/2 for a joint orbit B holding ``inside`` cycles of
    s, s' and ss'; a negative or fractional value signals a convention bug."""
    num = len(block) + 2 - inside
    if num < 0 or num % 2:
        raise ValueError(
            f"obstruction exponent {num}/2 on block {sorted(block)} is negative or fractional"
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
        self._perm_index = {p.images: i for i, p in enumerate(self.perms)}
        self._galg: GFrobeniusAlgebra | None = None
        # the routes share read-only tables only (m-fold product columns, base rows);
        # the pushforward's own per-orbit maps keep the cross-oracle independent.
        # Filled lazily and idempotently, keyed by m, by sector or by sector pair:
        self._tuple_cache: dict[int, list] = {}
        self._columns: dict[tuple, tuple] = {}
        self._lift_maps: dict[tuple, tuple] = {}
        self._orbit_maps: dict[tuple, tuple] = {}
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

    def _unit_tails(self, m: int) -> tuple[list, int]:
        """``_numerators`` of the unit tensor of A^(x)m."""
        return _numerators(frob.tensor_unit(self.base, m), self._tuples(m))

    def _mu_columns(self, m: int) -> tuple[dict, int]:
        """The m-fold product as integer columns over one denominator.

        Factor tuple -> [(k, numerator)]; the key is the bare index when m = 1,
        as ``itemgetter`` reads it off a tensor tuple.  Each nonzero column of
        the (m-1)-fold product meets the base's pair rows, so no zero product is
        formed; the keys come out in lexicographic order.
        """
        if ("mu", m) not in self._columns:
            if m == 1:
                self._columns["mu", m] = {k: [(k, 1)] for k in range(self.base.dim)}, 1
                return self._columns["mu", m]
            prev, prev_den = self._mu_columns(m - 1)
            pairs, den = self.base._pairs, prev_den * self.base._pairs_den
            nums: dict = {}
            for s, col in prev.items():
                t = s if m > 2 else (s,)
                by_last: dict = {}
                for k, c in col:
                    for y, row in pairs[k]:
                        acc = by_last.get(y)
                        if acc is None:
                            acc = by_last[y] = {}
                        for q, w in row:
                            acc[q] = acc.get(q, 0) + c * w
                for y in sorted(by_last):
                    col_y = [(q, v) for q, v in by_last[y].items() if v]
                    if col_y:
                        nums[t + (y,)] = col_y
            # numerators over den, rescaled to the lcm of their reduced denominators
            out_den = math.lcm(*(den // math.gcd(v, den) for col in nums.values() for _, v in col))
            scale = den // out_den
            self._columns["mu", m] = (
                {t: [(q, v // scale) for q, v in col] for t, col in nums.items()}, out_den)
        return self._columns["mu", m]

    def _adjoint_columns(self, m: int) -> tuple[dict, int]:
        """Metric adjoint of the m-fold product: k -> [(factor tuple, numerator)].

        Column k is eta^(-1)(x)m applied to s -> eta(mu(s), e_k): the m-fold
        product's columns meet the pairing's rows, then the inverse pairing's
        columns spread over one factor at a time.
        """
        if ("adj", m) not in self._columns:
            mu, mu_den = self._mu_columns(m)
            eta, inv = self.base.metric, _transpose(self.base.metric_inv)
            cols: dict = {}
            for s, col in mu.items():
                t = s if m > 1 else (s,)
                for p, w in col:
                    for k, e in eta.get(p, {}).items():
                        vec = cols.setdefault(k, {})
                        vec[t] = vec.get(t, 0) + w * e
            for f in range(m):
                for k, vec in cols.items():
                    spread: dict = {}
                    for t, c in vec.items():
                        for q, v in inv.get(t[f], {}).items():
                            u = t[:f] + (q,) + t[f + 1:]
                            spread[u] = spread.get(u, 0) + c * v
                    cols[k] = spread
            self._columns["adj", m] = _integral(
                {k: [(t, Fraction(c, mu_den)) for t, c in sorted(cols[k].items())]
                 for k in sorted(cols)})
        return self._columns["adj", m]

    def _section_columns(self, m: int) -> tuple[dict, int]:
        """Unit-tensor section A -> A^(x)m: k -> [((k, unit tail), numerator)]."""
        if ("section", m) not in self._columns:
            tails, den = self._unit_tails(m - 1)
            self._columns["section", m] = (
                {k: [((k,) + tail, u) for tail, u in tails] for k in range(self.base.dim)}, den)
        return self._columns["section", m]

    def _gather_map(self, nesting: list[list[int]]) -> tuple:
        """Block map: output factor c multiplies the input factors ``nesting[c]``,
        and is the unit when it has none."""
        D, last = self.base.dim, len(nesting) - 1
        strides, blocks, den = [0] * sum(map(len, nesting)), [], 1
        for c, fps in enumerate(nesting):
            stride = D ** (last - c)
            if len(fps) == 1:
                strides[fps[0]] = stride
                continue
            if fps:
                get, (cols, d) = itemgetter(*fps), self._mu_columns(len(fps))
            else:
                (tails, d), get = self._unit_tails(1), _no_factors
                cols = {(): [(k, u) for (k,), u in tails]}
            blocks.append((get, {key: [(k * stride, w) for k, w in col] for key, col in cols.items()}))
            den *= d
        return strides, blocks, den, D ** len(nesting)

    def _spread_map(self, fine: OrbitPartition, coarse: OrbitPartition, columns) -> tuple:
        """Block map coarse -> fine: each coarse factor spreads over its fine factors."""
        D, last = self.base.dim, len(fine) - 1
        strides, blocks, den = [0] * len(coarse), [], 1
        for c, fps in enumerate(self._nesting(fine, coarse)):
            if len(fps) == 1:
                strides[c] = D ** (last - fps[0])
                continue
            cols, d = columns(len(fps))
            fine_strides = [D ** (last - f) for f in fps]
            blocks.append((itemgetter(c),
                           {k: [(sum(map(mul, t, fine_strides)), w) for t, w in col]
                            for k, col in cols.items()}))
            den *= d
        return strides, blocks, den, D ** len(fine)

    def _block_map(self, terms, den: int, bmap: tuple) -> tuple[list, int]:
        """Apply a block map (input strides, blocks, denominator, output size)
        to (factor tuple, offset, integer numerator) terms over ``den``.

        A block of one factor is the identity: the caller folds its factor
        times its input stride into the term's offset.  Every other block reads
        one integer column, the columns multiply out and the terms add into
        the output.  Returns (integer numerators, the operand's times the
        tables' denominator); the caller divides it out.
        """
        _, blocks, table_den, size = bmap
        acc = [0] * size
        for t, o, x in terms:
            out = [(o, x)]
            for get, table in blocks:
                col = table.get(get(t))
                if col is None:
                    break
                out = [(p + q, c * w) for p, c in out for q, w in col]
            else:
                for p, c in out:
                    acc[p] += c
        return acc, den * table_den

    def _mapped(self, v, bmap: tuple) -> tuple[list, int]:
        """A block map applied to a dense vector: (integer numerators, denominator)."""
        strides = bmap[0]
        terms, den = _numerators(v, self._tuples(len(strides)))
        return self._block_map([(t, sum(map(mul, t, strides)), x) for t, x in terms], den, bmap)

    def _dense_map(self, v, bmap: tuple) -> list:
        """A block map applied to a dense vector, divided once."""
        return _divided(*self._mapped(v, bmap))

    def restrict_between(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Contraction-by-multiplication A^(x)|fine| -> A^(x)|coarse|."""
        return self._dense_map(v, self._gather_map(self._nesting(fine, coarse)))

    def push_between(self, fine: OrbitPartition, coarse: OrbitPartition, w):
        """Metric adjoint of restrict_between(fine, coarse, .): coarse -> fine."""
        return self._dense_map(w, self._spread_map(fine, coarse, self._adjoint_columns))

    def _joint_section(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Unit-tensor section A^(x)|coarse| -> A^(x)|fine| of the contraction."""
        return self._dense_map(v, self._spread_map(fine, coarse, self._section_columns))

    # -- the two product routes -------------------------------------------------

    def _orbit_map(self, kg: int, kh: int, kgh: int, d: int) -> tuple[dict, int]:
        """The product on one joint orbit as integer numerators over one denominator.

        The orbit holds kg cycles of g, kh of h and kgh of gh, and its graph
        defect is d.  ``x -> [(y, [(output factor tuple, numerator)])]``: the
        kg factors x multiply together, so do the kh factors y, the product
        takes e^d and is pushed forward along the metric adjoint of the
        kgh-fold product.  The base is commutative, so these four integers fix
        the map; it is built once per instance.  A key is a bare index for one
        factor, as ``itemgetter`` reads it off a tensor tuple.
        """
        key = (kg, kh, kgh, d)
        if key not in self._orbit_maps:
            power = self.base.power(self.euler, d)
            adj, adj_den = self._adjoint_columns(kgh)
            pushed = {}   # (i, j) -> terms of e_i e_j e^d pushed forward
            for (i, j), row in self.base.rows.items():
                z = self.base.multiply([row.get(k, 0) for k in range(self.base.dim)], power)
                pushed[i, j] = [(t, c * w) for k, c in enumerate(z) if c for t, w in adj.get(k, ())]
            (mu_g, den_g), (mu_h, den_h) = self._mu_columns(kg), self._mu_columns(kh)
            flat = {}
            for (x, col_x), (y, col_y) in itertools.product(mu_g.items(), mu_h.items()):
                out: dict = {}
                for (i, a), (j, b) in itertools.product(col_x, col_y):
                    for t, c in pushed.get((i, j), ()):
                        out[t] = out.get(t, 0) + a * b * c
                flat[x, y] = sorted(out.items())
            flat, den = _integral(flat)
            local: dict = {}
            for (x, y), outs in flat.items():
                local.setdefault(x, []).append((y, outs))
            self._orbit_maps[key] = local, den * den_g * den_h * adj_den
        return self._orbit_maps[key]

    def _push_plan(self, g: int, h: int) -> tuple:
        """Per sector pair, one entry per joint orbit: the getters of its factors
        of g and of h, and its composed map (its graph defect read off its cycle
        counts) with output offsets at gh's strides; then the product of the
        maps' denominators."""
        plan = self._push_plans.get((g, h))
        if plan is None:
            gh = self.group.mul(g, h)
            D, last = self.base.dim, self.factors[gh] - 1
            joint = group_orbits([self.perms[g], self.perms[h]])
            where = joint.block_index()
            positions = [([], [], []) for _ in joint.blocks]   # factor positions of g, h, gh
            for r, s in enumerate((g, h, gh)):
                for i, blk in enumerate(self.parts[s].blocks):
                    positions[where[blk[0]]][r].append(i)
            gets_g, gets_h, maps, den = [], [], [], 1
            for block, (s_pos, t_pos, p_pos) in zip(joint.blocks, positions):
                counts = len(s_pos), len(t_pos), len(p_pos)
                local, local_den = self._orbit_map(*counts, _graph_defect(block, sum(counts)))
                strides = [D ** (last - q) for q in p_pos]
                gets_g.append(itemgetter(*s_pos))
                gets_h.append(itemgetter(*t_pos))
                maps.append({x: [(y, [(sum(map(mul, t, strides)), c) for t, c in outs])
                                 for y, outs in ys] for x, ys in local.items()})
                den *= local_den
            plan = self._push_plans[g, h] = (gets_g, gets_h, maps, den)
        return plan

    def _nested(self, g: int, v, gets: list) -> tuple[dict, int]:
        """A dense operand of sector g as (``_nest`` of its integer numerators,
        denominator)."""
        terms, den = _numerators(v, self._tuples(self.factors[g]))
        return _nest(gets, terms), den

    def multiply_pushforward(self, g: int, a, h: int, b):
        """Product through the double intersection with Euler-class insertion.

        Both operands' integer numerators, nested orbit by orbit, walk the
        plan's composed maps once; the product sector's vector is divided once.
        """
        gets_g, gets_h, maps, den = self._push_plan(g, h)
        left, da = self._nested(g, a, gets_g)
        right, db = self._nested(h, b, gets_h)
        acc = [0] * self.dims[self.group.mul(g, h)]
        # the last orbit holds most terms: add them straight into acc
        *inner, final = maps
        for node1, node2, off, carry in _joint_walk(inner, left, right):
            for x, c1 in node1.items():
                for y, outs in final.get(x, ()):
                    c2 = node2.get(y)
                    if c2 is not None:
                        w = c1 * c2 * carry
                        for o, c in outs:
                            acc[off + o] += w * c
        return _divided(acc, da * db * den)

    def gamma_tilde(self, g: int, h: int, joint: OrbitPartition | None = None):
        """Obstruction class: one Euler-class power per joint orbit."""
        sigma, sigma2 = self.perms[g], self.perms[h]
        if joint is None:
            joint = group_orbits([sigma, sigma2])
        out = [1]
        for block in joint.blocks:
            power = self.base.power(self.euler, obstruction_exponent(sigma, sigma2, block))
            out = [ex.norm(x * y) for x in out for y in power]
        return out

    def section_lift(self, g: int, a) -> dict:
        """Unit-tensor section A_s -> A_e: factor values at cycle minima."""
        lifted = self._joint_section(self.parts[self.group.identity], self.parts[g], a)
        return {t: x for t, x in zip(self._tuples(self.n), lifted) if x}

    def _contraction(self, positions: list[int], gh: int) -> tuple:
        """Block map r_gh after placing factors at ``positions`` of A_e, the unit
        elsewhere: each cycle of gh multiplies the factors placed in it."""
        where = self.parts[gh].block_index()
        nesting: list = [[] for _ in range(self.factors[gh])]
        for f, p in enumerate(positions):
            nesting[where[p]].append(f)
        return self._gather_map(nesting)

    def _contracted(self, g: int, a, gh: int) -> tuple[list, int]:
        """r_gh of the section lift of ``a``, through one block map per (g, gh):
        (flat integer numerators on A^(x)|gh|, denominator)."""
        bmap = self._lift_maps.get((g, gh))
        if bmap is None:
            bmap = self._lift_maps[g, gh] = self._contraction(
                [blk[0] for blk in self.parts[g].blocks], gh)
        return self._mapped(a, bmap)

    def _insertion(self, tau: Permutation, gh: int) -> tuple[dict, int]:
        """r_gh of gamma_{tau,tau}, the copairing across the two points that the
        transposition tau moves (``contraction_steps`` checks every word entry),
        as the kernel's left operand: (``_split`` items, denominator)."""
        D = self.base.dim
        copairing = [0] * D * D
        for i, j, c in self.base.copairing():
            copairing[i * D + j] = c
        acc, den = self._mapped(copairing, self._contraction(tau.moved_points(), gh))
        return _split(acc, self.factors[gh], D, False), den

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
        """(``_split`` items, denominator) on A^(x)|gh| of each copairing the word inserts,
        contracted to gh; cached per sector pair for the default word, rebuilt
        (and the word validated) when a word is given."""
        if word is None and (g, h) in self._chain_plans:
            return self._chain_plans[g, h]
        _, insertions = self.contraction_steps(g, h, word)
        gh = self.group.mul(g, h)
        gammas = [self._insertion(t, gh) for t in insertions]
        if word is None:
            self._chain_plans[g, h] = gammas
        return gammas

    def multiply_chain(self, g: int, a, h: int, b, word: list[Permutation] | None = None):
        """Product via the explicit transposition-word cocycle formula.

        r_gh(L_g a . L_h b . prod gamma_tau) = r_gh(L_g a) r_gh(L_h b) prod
        r_gh(gamma_tau), as r_gh is an algebra map: every factor is contracted
        to gh's cycles first and the products run on A^(x)|gh|, on flat integer
        numerators divided once at the end.  A^(x)|gh| is commutative, so each
        insertion multiplies the running product from the left.
        """
        gammas = self._insertions(g, h, word)
        gh = self.group.mul(g, h)
        m, D = self.factors[gh], self.base.dim
        (left, da), (right, db) = self._contracted(g, a, gh), self._contracted(h, b, gh)
        acc, den = frob.factorwise_product(self.base, m, (_split(left, m, D, False), da),
                                           (_split(right, m, D, True), db))
        for gamma in gammas:
            acc, den = frob.factorwise_product(self.base, m, gamma, (_split(acc, m, D, True), den))
        return _divided(acc, den)

    def gamma_cocycle(self, g: int, h: int):
        """The sector cocycle as an identity-sector element (chain form).

        pi_{ss'} applied to the product of the word's copairing insertions: the
        section of the chain product of the generators, which is r_{ss'} of it.
        """
        product = self.multiply_chain(g, self.generator(g), h, self.generator(h))
        lifted = self.section_lift(self.group.mul(g, h), product)
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

    def realize(self, budget: int = BUILD_BUDGET) -> GFrobeniusAlgebra:
        """Materialize the full table-backed algebra (cached)."""
        if self._galg is not None:
            return self._galg
        refuse_build(self.base.dim, self.n, budget)
        G = self.group
        product = {}
        for g in G.elements():
            for h in G.elements():
                product[(g, h)] = self.pair_table(g, h)
                self._push_plans.pop((g, h), None)   # it served this table only
        action = {(g, h): self._action_block(g, h) for g in G.elements() for h in G.elements()}
        powers = {m: frob.tensor_metric(self.base, m) for m in set(self.factors)}
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
            metric=[powers[m] for m in self.factors],
            character=[1] * G.order,
            unit=frob.tensor_unit(self.base, self.n),
        )
        return self._galg

    def _action_block(self, g: int, h: int) -> dict:
        """phi_g on A_h by columns: cycles relabel along g, coefficient 1."""
        G = self.group
        D = self.base.dim
        tgt = G.conj(g, h)
        src_part, tgt_part = self.parts[h], self.parts[tgt]
        perm_g = self.perms[g]
        tgt_index = tgt_part.block_index()
        slot_map = [tgt_index[perm_g(block[0])] for block in src_part.blocks]
        columns = {}
        lh = self.factors[h]
        for col in range(self.dims[h]):
            t = tensor_tuple(col, D, lh)
            out = [0] * lh
            for fpos, value in enumerate(t):
                out[slot_map[fpos]] = value
            columns[col] = {tensor_index(out, D): 1}
        return columns

    def pair_table(self, g: int, h: int) -> dict:
        """Product table for a sector pair, read off the pair's push plan: the
        basis indices, nested orbit by orbit, walk its composed maps."""
        gets_g, gets_h, maps, den = self._push_plan(g, h)
        left = _nest(gets_g, zip(self._tuples(self.factors[g]), itertools.count()))
        right = _nest(gets_h, zip(self._tuples(self.factors[h]), itertools.count()))
        table: dict = {}
        for i, j, o, c in _joint_walk(maps, left, right):
            vec = table.get((i, j))
            if vec is None:
                vec = table[i, j] = {}
            vec[o] = c if den == 1 else ex.norm(Fraction(c, den))
        return table


def refuse_build(dim: int, n: int, budget: int) -> None:
    """Refuse a table build for Sym^n of a base of dimension ``dim`` whose cost,
    the square of the total dim, exceeds ``budget``, before S_n is built: the
    total dim of Sym^m(A) is the rising factorial D(D+1)...(D+m-1)."""
    cost = math.prod(range(dim, dim + n)) ** 2
    if cost > budget:
        m, total = 0, 1
        while m < n and (total * (dim + m)) ** 2 <= budget:
            total *= dim + m
            m += 1
        raise BudgetExceededError(
            f"building all product tables costs {cost} entries (budget {budget}); "
            + (f"n <= {m} fits" if m else "no n fits"), cost
        )


def _integral(cols: dict) -> tuple[dict, int]:
    """Nonzero column entries as integer numerators over one denominator."""
    den = math.lcm(*(w.denominator for col in cols.values() for _, w in col))
    cols = {key: [(x, w.numerator * (den // w.denominator)) for x, w in col if w]
            for key, col in cols.items()}
    return {key: col for key, col in cols.items() if col}, den


_no_factors = itemgetter(slice(0))   # () off any tuple: the key of the empty product


def _joint_walk(maps: list, left: dict, right: dict) -> list:
    """Walk two ``_nest`` operands orbit by orbit through the per-orbit maps.

    Returns (left leaf, right leaf, output offset, product of the map
    numerators) for every term; a pair of keys with no map entry ends its
    branch.
    """
    level = [(left, right, 0, 1)]
    for table in maps:
        level = [(sub1, sub2, off + o, carry * c)
                 for node1, node2, off, carry in level
                 for x, sub1 in node1.items()
                 for y, outs in table.get(x, ())
                 if (sub2 := node2.get(y)) is not None
                 for o, c in outs]
    return level


@dataclass
class GammaData:
    cocycle: list     # identity-sector form (chain formula, section-projected)
    tilde: list       # obstruction class in the joint-orbit sector
    perp: list        # pushforward of the joint unit, in the product sector
    bar: list         # section image of tilde in the product sector
    restricted: list  # bar * perp = the cocycle restricted to the product sector

