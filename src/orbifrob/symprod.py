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
sector pair's plan splits its joint orbits into a high half (the leading
orbits, with at most half of the left factor's cycles) and a low half, puts
the high factors of g, h and gh first, and multiplies each half's maps out
once into integer rows on that half's indices; the low half's rows are
compiled into one straight-line kernel (``frobenius._kernel``) when the plan
is built.  ``multiply_pushforward`` runs both operands through the plan with
``frobenius._walk``, the two-level loop the chain's kernel runs on the base's
pair rows and their compiled kernels; a realized table (``pair_table``) is
the Kronecker product of all of the pair's orbit maps at flat strides.
Plans and tables depend only on the joint orbits' shape, so they are kept
per shape; the chain reads neither and stays independent as the oracle.

The chain never multiplies in A_e.  Its last step, the contraction r_ss'
onto the product sector, multiplies the factors in each cycle of ss'; as the
base is commutative and evenly graded, r_ss' is an algebra map, so the chain
equals the product of r_ss' of the two lifts and of each insertion.  The
lifts are contracted first, by rows kept per nesting (which factors each
cycle of ss' receives, in kernel order), not per sector pair: factor c lands
in the cycle of ss' that holds min(c), and a cycle that receives none holds
the unit.  The two lifts then multiply on A^(x)|ss'| in one call of
``frobenius.factorwise_product``, the one kernel on tensor powers, on flat
numerators split into a high and a low half of the factors, so each chain
product runs one kernel walk.  Each insertion is left multiplication by
r_ss'(gamma_tau), a linear map kept per nesting of tau's two points that
touches only the cycles holding them, applied to the running product by
``_mapped``.  The pushforward runs the kernel's loop, ``frobenius._walk``,
with halves made of whole joint orbits.  The loop skips
pairs with zero product before multiplying any coefficient; the maps it
applies, and the low kernels compiled from them, stay separate per route.
The chain lays out the cycles of ss' unit first: those where the right
operand's lift is structurally the unit lead, in the high half of m // 2
factors as far as they fit, so that a high pair the right operand lacks is
skipped once, not once per low chunk, and one getter returns the product to
basis order.
Every intermediate value of either route is an integer numerator over one
denominator per stage; the denominators multiply along the stages and each
product divides once, at the end.  Operands cross between exact scalars and
numerators only through ``exactnum``'s boundary: ``numerators`` reads each
operand once (an all-int one passes through), and ``divided`` writes each
product back.  In between they move through C-level getters kept per factor
order by ``_order``: an ``itemgetter`` reads a dense operand into kernel
order, another returns the product to basis order, and the chunks are
slices.
Every other linear map between tensor powers (the contractions between
nested cycle partitions and the chain's, their metric adjoints and
sections, and the chain's insertions) is a tensor product of per-cycle maps:
the m-fold product, the unit (the empty product), the product's metric
adjoint, the unit-tensor section and the copairing.  All have one form,
built by ``_linear_map``: per flat input index, a row of (output index,
integer numerator) over one denominator, the Kronecker product of the map's
blocks, each the columns of some input factors placed at those factors'
strides, and the same rows transposed into layers (``_layers``), kept in
the map's own tuple.  An insertion is two blocks: the copairing on the
cycles that hold tau's points, and the identity on the others.
``_mapped`` applies the layers, one gather and one ``map(add, ...)`` each,
to an operand with enough nonzero entries, and scatters one row per nonzero
entry of a sparser one.  The group action relabels cycles, so each basis
tuple goes to one index, a sum of strides.

Every derived map is a method of its key under ``frobenius.memo``: built on
the first call for that key, kept on the instance and reused, whether the
key is m, a factor order, a joint-orbit shape, a sector pair or a nesting.
A sector pair looks its push plan up once and keeps a reference to it, so
``_joint_orbits`` runs on a pair's first product, and the plan is built
once per shape.
The two routes share that mechanism, the loop and the getters, but no map,
which keeps the cross-oracle independent; ``realize`` drops the per-shape
tables once every sector pair holds its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import compress, zip_longest
from operator import add, itemgetter, mul

from . import exactnum as ex
from . import frobenius as frob
from .frobenius import FrobeniusAlgebra, _split, memo
from .gfrob import BudgetExceededError, GFrobeniusAlgebra
from .groups import (OrbitPartition, Permutation, compose, cycles, degree,
                     group_orbits, symmetric_group)

BUILD_BUDGET = 200_000  # max number of product-table entries a build may cost
_EXACT_COST = 10 ** 18   # a refused build's cost is printed exactly up to here
_LAYER_COST = 5          # layer slots that cost about as much as one scattered row entry
_LAYER_SETUP = 64        # the fixed cost of applying one layer, in layer slots


def obstruction_exponent(sigma: Permutation, sigma2: Permutation, block) -> int:
    """Graph defect of a joint orbit: (|B| + 2 - k_s - k_s' - k_ss')/2.

    ``block`` must be an orbit of <sigma, sigma'>.  A negative or fractional
    value signals a convention bug and raises.
    """
    points = tuple(sorted(set(block)))
    if points not in group_orbits([sigma, sigma2]).blocks:
        raise ValueError(f"{list(points)} is not an orbit of the pair")
    inside = sum(c[0] in points for p in (sigma, sigma2, compose(sigma, sigma2))
                 for c in cycles(p).blocks)   # a cycle lies in the orbit with its smallest point
    return _graph_defect(len(points), inside)


def _graph_defect(size: int, inside: int) -> int:
    """(|B| + 2 - inside)/2 for a joint orbit B of ``size`` points holding
    ``inside`` cycles of s, s' and ss'; a negative or fractional value
    signals a convention bug."""
    num = size + 2 - inside
    if num < 0 or num % 2:
        raise ValueError(f"obstruction exponent {num}/2 on a joint orbit of {size} points "
                         f"and {inside} cycles is negative or fractional")
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
        frob.validated(base)
        if not base.is_even():
            raise ValueError("second quantization requires an evenly graded base")
        for i in range(base.dim):
            for j in range(i + 1, base.dim):
                if base.rows.get((i, j)) != base.rows.get((j, i)):
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
        # per sector: each point's cycle position, and each cycle's smallest point
        self._cycle_of = [[pos for _, pos in sorted(part.block_index().items())]
                          for part in self.parts]
        self._firsts = [[blk[0] for blk in part.blocks] for part in self.parts]
        self.dims = [base.dim ** l for l in self.factors]
        self.euler = base.euler_class()
        self._perm_index = {p.images: i for i, p in enumerate(self.perms)}
        self._galg: GFrobeniusAlgebra | None = None
        # the derived maps by method name, each built by ``frobenius.memo`` per key
        # on first use; the chain's contraction maps once per nesting
        # (``_gather_map``), its per-pair plans holding references to them.
        # The routes share read-only tables (m-fold product columns, base rows),
        # the loop that applies rows (frobenius._walk) and the per-order getters,
        # but no map: the pushforward's own per-orbit maps keep the cross-oracle
        # independent.
        self._memo: dict[str, dict] = {}

    # -- bookkeeping ----------------------------------------------------------

    def sector_of(self, p: Permutation) -> int:
        return self._perm_index[p.images]

    def generator(self, g: int):
        """1_s = unit tensor of the sector."""
        return frob.tensor_unit(self.base, self.factors[g])

    def sector_labels(self, g: int) -> list[str]:
        return ["⊗".join(self.base.labels[i] for i in t) for t in self._tuples(self.factors[g])]

    # -- contraction maps -------------------------------------------------------

    def _nesting(self, fine: OrbitPartition, coarse: OrbitPartition) -> tuple:
        """Per coarse block: positions of the fine blocks it swallows."""
        if not fine.refines(coarse):
            raise ValueError("partitions are not nested")
        coarse_of = coarse.block_index()
        out: list[list[int]] = [[] for _ in coarse.blocks]
        for fpos, fblock in enumerate(fine.blocks):
            out[coarse_of[fblock[0]]].append(fpos)
        return tuple(map(tuple, out))

    @memo
    def _tuples(self, m: int) -> list:
        """Factor-index tuples of A^(x)m in basis order."""
        return list(itertools.product(range(self.base.dim), repeat=m))

    def _unit_tails(self, m: int) -> tuple[list, int]:
        """The unit tensor of A^(x)m as nonzero terms (factor tuple, integer
        numerator) over one denominator."""
        nums, den = ex.numerators(frob.tensor_unit(self.base, m))
        return list(zip(compress(self._tuples(m), nums), compress(nums, nums))), den

    @memo
    def _mu_columns(self, m: int) -> tuple[dict, int]:
        """The m-fold product as integer columns over one denominator.

        Factor tuple -> [(k, numerator)]; at m = 0 the empty product, the
        unit.  Each nonzero column of the (m-1)-fold product meets the base's
        pair rows, so no zero product is formed; the keys come out in
        lexicographic order.
        """
        if m == 0:
            return _integral({(): list(enumerate(self.base.unit))})
        prev, prev_den = self._mu_columns(m - 1)
        pairs, den = self.base._pairs, prev_den * self.base._pairs_den
        nums: dict = {}
        for s, col in prev.items():
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
                    nums[s + (y,)] = col_y
        return _integral(nums, den)

    @memo
    def _adjoint_columns(self, m: int) -> tuple[dict, int]:
        """Metric adjoint of the m-fold product: k -> [(factor tuple, numerator)].

        Column k is eta^(-1)(x)m applied to s -> eta(mu(s), e_k): the m-fold
        product's columns meet the pairing's rows, then the inverse pairing's
        columns spread over one factor at a time.
        """
        mu, mu_den = self._mu_columns(m)
        eta, inv = self.base.metric, ex._transpose(self.base.metric_inv)
        cols: dict = {}
        for t, col in mu.items():
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
        return _integral({k: sorted(cols[k].items()) for k in sorted(cols)}, mu_den)

    @memo
    def _section_columns(self, m: int) -> tuple[dict, int]:
        """Unit-tensor section A -> A^(x)m: k -> [((k, unit tail), numerator)]."""
        tails, den = self._unit_tails(m - 1)
        return {k: [((k,) + tail, u) for tail, u in tails] for k in range(self.base.dim)}, den

    @memo
    def _gather_map(self, nesting: tuple) -> tuple:
        """Rows of the map whose output factor c multiplies the input factors
        ``nesting[c]``, and is the unit (the empty product) when it has none.
        The one store of contraction maps: the chain's lifts and
        ``restrict_between`` are kept per nesting, a tuple of tuples."""
        D, last = self.base.dim, len(nesting) - 1
        blocks, den = [], 1
        for c, fps in enumerate(nesting):
            cols, d = self._mu_columns(len(fps))
            stride = D ** (last - c)
            blocks.append((fps, {key: [(k * stride, w) for k, w in col] for key, col in cols.items()}))
            den *= d
        return self._linear_map(blocks, den, D ** len(nesting))

    def _spread_map(self, fine: OrbitPartition, coarse: OrbitPartition, columns) -> tuple:
        """Rows of the map coarse -> fine: each coarse factor spreads over its fine factors."""
        D, last = self.base.dim, len(fine) - 1
        blocks, den = [], 1
        for c, fps in enumerate(self._nesting(fine, coarse)):
            cols, d = columns(len(fps))
            fine_strides = [D ** (last - f) for f in fps]
            blocks.append(((c,), {(k,): [(sum(map(mul, t, fine_strides)), w) for t, w in col]
                                  for k, col in cols.items()}))
            den *= d
        return self._linear_map(blocks, den, D ** len(fine))

    def _linear_map(self, blocks: list, den: int, size: int) -> tuple:
        """(rows, layers, ``den``, output size) of a map on A^(x)m: the
        Kronecker product of ``blocks``, each (input factor positions,
        {factor tuple: [(output offset, numerator)]}), a key placed at its
        positions' strides; the blocks' positions partition the m factors.
        The row of flat index x is ((output index, numerator), ...), the
        blocks' entries multiplied out in block order, () if a block has no
        column there.  The layers are the rows transposed (``_layers``)."""
        D, m = self.base.dim, sum(len(positions) for positions, _ in blocks)
        table = {0: [(0, 1)]}   # no block: the map of A^(x)0, 1 -> 1
        for positions, cols in blocks:
            strides = [D ** (m - 1 - f) for f in positions]
            placed = [(sum(map(mul, key, strides)), col) for key, col in cols.items()]
            table = {X + x: [(O + o, C * c) for O, C in prev for o, c in col]
                     for X, prev in table.items() for x, col in placed}
        rows = [tuple(table.get(x, ())) for x in range(D ** m)]
        return rows, _layers(rows, size), den, size

    def _mapped(self, v, linear: tuple) -> tuple[list, int]:
        """A map applied to a dense vector: (integer numerators, the operand's
        times the map's denominator).  An operand with more nonzero entries
        than the map's layers cost (``_layers``) runs through them, each one
        gather and one ``map(add, ...)`` over every output; a sparser one is
        scattered, one row per nonzero entry."""
        rows, (layers, dense), den, size = linear
        nums, d = ex.numerators(v, len(rows))
        if len(nums) - nums.count(0) > dense:
            padded = nums + [0]   # the zero slot a layer reads for an output with fewer inputs
            acc = None
            for get, coefs in layers:
                terms = get(padded) if coefs is None else map(mul, coefs, get(padded))
                acc = list(terms) if acc is None else list(map(add, acc, terms))
            return acc, d * den
        acc = [0] * size
        for x in compress(range(len(nums)), nums):
            c = nums[x]
            for o, w in rows[x]:
                acc[o] += c * w
        return acc, d * den

    def restrict_between(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Contraction-by-multiplication A^(x)|fine| -> A^(x)|coarse|."""
        return ex.divided(*self._mapped(v, self._gather_map(self._nesting(fine, coarse))))

    def push_between(self, fine: OrbitPartition, coarse: OrbitPartition, w):
        """Metric adjoint of restrict_between(fine, coarse, .): coarse -> fine."""
        return ex.divided(*self._mapped(w, self._spread_map(fine, coarse, self._adjoint_columns)))

    def _joint_section(self, fine: OrbitPartition, coarse: OrbitPartition, v):
        """Unit-tensor section A^(x)|coarse| -> A^(x)|fine| of the contraction."""
        return ex.divided(*self._mapped(v, self._spread_map(fine, coarse, self._section_columns)))

    # -- the two product routes -------------------------------------------------

    @memo
    def _orbit_map(self, kg: int, kh: int, kgh: int, d: int) -> tuple[dict, int]:
        """The product on one joint orbit as integer numerators over one denominator.

        The orbit holds kg cycles of g, kh of h and kgh of gh, and its graph
        defect is d.  ``x -> [(y, [(output factor tuple, numerator)])]``: the
        kg factors x multiply together, so do the kh factors y, the product
        takes e^d and is pushed forward along the metric adjoint of the
        kgh-fold product.  The base is commutative, so these four integers fix
        the map.
        """
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
        return local, den * den_g * den_h * adj_den

    def _joint_orbits(self, g: int, h: int, gh: int) -> tuple:
        """The shape of the joint orbits of (g, h), numbered in order of their
        smallest points: per factor position of g, of h and of gh, its orbit,
        then each orbit's number of points.  An orbit merges the cycles of g
        that the cycles of h link."""
        where = self._cycle_of[g]
        label = list(range(self.factors[g]))   # g position -> smallest g position in its orbit
        for blk in self.parts[h].blocks:
            if len(blk) > 1:
                merged = {label[where[p]] for p in blk}
                if len(merged) > 1:
                    low = min(merged)
                    label = [low if x in merged else x for x in label]
        rank = {x: r for r, x in enumerate(dict.fromkeys(label))}
        orbit = [rank[label[w]] for w in where]   # point -> orbit
        sizes = [0] * len(rank)
        for o in orbit:
            sizes[o] += 1
        return tuple(tuple(map(orbit.__getitem__, self._firsts[s])) for s in (g, h, gh)) + (
            tuple(sizes),)

    def _half(self, orbits: list, sizes: tuple, strides: tuple) -> tuple[list, int]:
        """The Kronecker product of the orbits' composed maps, placed by
        ``strides`` (per position of g, h and gh): the rows x -> [(y, [(output,
        numerator)])] over the half's indices of g, and their denominator."""
        table, den = {0: [(0, [(0, 1)])]}, 1   # no orbit: the product of A^(x)0, 1 * 1 = 1
        for positions, size in zip(orbits, sizes):
            counts = tuple(map(len, positions))
            local, local_den = self._orbit_map(*counts, _graph_defect(size, sum(counts)))
            sx, sy, so = ([stride[q] for q in pos] for stride, pos in zip(strides, positions))
            placed = [(sum(map(mul, x, sx)),
                       [(sum(map(mul, y, sy)), [(sum(map(mul, t, so)), c) for t, c in outs])
                        for y, outs in ys]) for x, ys in local.items()]
            table = {X + x: [(Y + y, [(O + o, C * c) for O, C in row for o, c in outs])
                             for Y, row in prev for y, outs in ys]
                     for X, prev in table.items() for x, ys in placed}
            den *= local_den
        size = self.base.dim ** sum(len(orbit[0]) for orbit in orbits)
        return [table.get(x, []) for x in range(size)], den

    @memo
    def _order(self, order: tuple) -> tuple:
        """A^(x)m with its factors in a kernel's order, ``order[i]`` the factor
        at kernel position i: per factor its stride in the kernel index, the
        getter of a dense vector into kernel order and the getter back to
        basis order.  Both getters are C-level ``_reader``s, None for the
        identity order."""
        D, m = self.base.dim, len(order)
        strides = [0] * m
        for i, q in enumerate(order):
            strides[q] = D ** (m - 1 - i)
        back = [sum(map(mul, t, strides)) for t in self._tuples(m)]   # per basis index
        into = [0] * len(back)
        for x, k in enumerate(back):
            into[k] = x
        return strides, _reader(into), _reader(back)

    @memo
    def _plan(self, shape: tuple) -> tuple:
        """The push plan of a joint-orbit shape: its orbits in two halves, the
        leading ones holding at most half of g's factors, and the rest.  The
        factors of g, h and gh run in kernel order, high positions first, so
        a kernel index is high index * (number of low indices) + low index,
        each half's index reading its factors in position order.  Returns,
        for g and for h, (getter into kernel order, number of low indices);
        the high half's composed rows x -> [(y, [(high index of gh,
        numerator)])]; the low half's composed rows compiled by
        ``frobenius._kernel``; gh's number of low indices and getter back to
        basis order; and the product of the maps' denominators."""
        *rows, sizes = shape
        orbits = _orbit_positions(shape)
        half = len(rows[0]) // 2
        cut = sum(1 for k in itertools.accumulate(len(o[0]) for o in orbits) if k <= half)
        spans = [self.base.dim ** sum(o >= cut for o in row) for row in rows]   # low indices
        orders = [tuple(sorted(range(len(row)), key=lambda q: row[q] >= cut)) for row in rows]
        strides, into, back = zip(*map(self._order, orders))   # high positions first
        # a high factor's stride within the high half (a 0-dimensional base has no index)
        high, high_den = self._half(orbits[:cut], sizes[:cut],
                                    [[s // (span or 1) for s in ss] for ss, span in zip(strides, spans)])
        low, low_den = self._half(orbits[cut:], sizes[cut:], strides)
        return ((into[0], spans[0]), (into[1], spans[1]), high,
                frob._kernel(low, spans[1], spans[2]), spans[2], back[2], high_den * low_den)

    @memo
    def _push_plan(self, g: int, h: int) -> tuple:
        """The ``_plan`` of the pair's joint-orbit shape, looked up once per
        pair: the pair keeps a reference to the plan, which is built once per
        shape, so ``_joint_orbits`` runs on a pair's first product only."""
        return self._plan(self._joint_orbits(g, h, self.group.mul(g, h)))

    def _halves(self, v, g: int, part: tuple) -> tuple[dict, int]:
        """A dense operand of sector g read into a plan's kernel order by the
        getter of ``part`` (getter, number of low indices) and sliced into
        chunks: (``_split`` by high index, denominator)."""
        into, size = part
        nums, den = ex.numerators(v, self.dims[g])
        return _split(nums if into is None else into(nums), size), den

    def multiply_pushforward(self, g: int, a, h: int, b):
        """Product through the double intersection with Euler-class insertion.

        ``frobenius._walk`` runs both operands through the pair's plan in
        kernel order, split by high index into dense low chunks: through the
        high rows composed from the joint orbits' maps and the kernel compiled
        from the low ones.  One getter returns the product to gh's basis
        order, divided once.
        """
        left, right, high, kernel, size, back, den = self._push_plan(g, h)
        (lhs, da), (rhs, db) = self._halves(a, g, left), self._halves(b, h, right)
        acc = frob._walk(lhs, rhs, high, kernel, size, self.dims[self.group.mul(g, h)])
        return ex.divided(acc if back is None else back(acc), da * db * den)

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

    def _contraction(self, positions: list[int], gh: int, order: tuple) -> tuple:
        """The nesting of r_gh after placing factors at ``positions`` of A_e,
        the unit elsewhere, with gh's cycles in ``order``: per cycle of gh, the
        factors placed in it, which it multiplies."""
        where = self._cycle_of[gh]
        nesting: list = [[] for _ in range(self.factors[gh])]
        for f, p in enumerate(positions):
            nesting[where[p]].append(f)
        return tuple(tuple(nesting[c]) for c in order)

    def _lift_map(self, g: int, gh: int, order: tuple) -> tuple:
        """Rows of r_gh of the section lift from sector g, gh's cycles in
        ``order``: factor c of g sits at min(c)."""
        return self._gather_map(self._contraction(self._firsts[g], gh, order))

    @memo
    def _insertion(self, nesting: tuple) -> tuple:
        """Left multiplication by r_gh of gamma_{tau,tau}, the copairing sum c
        e_i (x) e_j across the two points that a transposition tau moves, on
        A^(x)|gh| in kernel order, built by ``_linear_map``; ``nesting`` is
        the ``_contraction`` of those two points.  Two blocks: a joint one on
        the cycles that hold them multiplies their factors x, y by e_i and
        e_j (x alone by the Euler class sum c e_i e_j when one cycle holds
        both), read off the base's pair rows, and the factors of the other
        cycles pass through, over the copairing's denominator times
        ``_pairs_den`` squared."""
        D, last = self.base.dim, len(nesting) - 1
        pairs = [dict(row) for row in self.base._pairs]   # x -> y -> [(k, numerator)]
        copairing = self.base.copairing()
        cop, cop_den = ex.numerators([c for _, _, c in copairing])
        terms = [(i, j, c) for (i, j, _), c in zip(copairing, cop)]
        held = [c for _, c in sorted((fs, c) for c, fs in enumerate(nesting) if fs)]   # by factor
        strides = [D ** (last - c) for c in held]
        joint: dict = {}   # the held factors -> {output offset: numerator}
        if len(held) == 1:   # x -> sum c (e_i e_j) x, through the pair rows twice
            s0, = strides
            for x in range(D):
                out = joint[x,] = {}
                for i, j, c in terms:
                    for k, u in pairs[i].get(j, ()):
                        for p, w in pairs[k].get(x, ()):
                            out[p * s0] = out.get(p * s0, 0) + c * u * w
        else:   # (x, y) -> sum c (e_i x) (x) (e_j y)
            s0, s1 = strides
            for x, y in itertools.product(range(D), repeat=2):
                out = joint[x, y] = {}
                for i, j, c in terms:
                    for p, u in pairs[i].get(x, ()):
                        for q, w in pairs[j].get(y, ()):
                            out[p * s0 + q * s1] = out.get(p * s0 + q * s1, 0) + c * u * w
        through = [c for c, fs in enumerate(nesting) if not fs]
        passing = [D ** (last - c) for c in through]   # their strides, the same in and out
        blocks = [(held, {x: [(o, w) for o, w in out.items() if w] for x, out in joint.items()}),
                  (through, {t: [(sum(map(mul, t, passing)), 1)]
                             for t in self._tuples(len(through))})]
        return self._linear_map(blocks, cop_den * self.base._pairs_den ** 2, D ** len(nesting))

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

    def _chain_order(self, h: int, gh: int) -> tuple:
        """gh's cycles in the chain kernel's order.  A cycle of gh that holds
        no smallest point of a cycle of h receives no factor of h's lift, so
        the right operand is the unit there (as is the running product where
        the left lift is too).  Those cycles lead, then the others, each in
        position order, so the kernel's high half (its m // 2 leading
        factors) holds as many of them as fit, the right operand has few high
        indices and a dead pair is skipped once per high pair."""
        m, where = self.factors[gh], self._cycle_of[gh]
        fed = {where[p] for p in self._firsts[h]}
        return tuple([c for c in range(m) if c not in fed] + sorted(fed))

    @memo
    def _chain_plan(self, g: int, h: int, word: tuple | None) -> tuple:
        """The chain's state for a sector pair and a word (None: the minimal
        one), references only: gh's cycles in kernel order, the getter back to
        basis order, the lift maps of g and of h, and the ``_insertion`` map
        of each copairing the word inserts.  The maps act on gh in that order
        and are kept per nesting, so pairs of one nesting share them."""
        _, insertions = self.contraction_steps(g, h, word)
        gh = self.group.mul(g, h)
        order = self._chain_order(h, gh)
        gammas = tuple(self._insertion(self._contraction(t.moved_points(), gh, order))
                       for t in insertions)
        back = self._order(order)[2]
        return order, back, self._lift_map(g, gh, order), self._lift_map(h, gh, order), gammas

    def multiply_chain(self, g: int, a, h: int, b, word: list[Permutation] | None = None):
        """Product via the explicit transposition-word cocycle formula.

        r_gh(L_g a . L_h b . prod gamma_tau) = r_gh(L_g a) r_gh(L_h b) prod
        r_gh(gamma_tau), as r_gh is an algebra map: every factor is contracted
        to gh's cycles first and the products run on A^(x)|gh|, on flat integer
        numerators divided once at the end.  The cycles run in the unit-first
        order of ``_chain_order``, so the kernel's high half holds the factors
        where h's lift is the unit, as many as its m // 2 factors take.  The
        two lifts multiply in one ``frobenius.factorwise_product``, the one
        kernel walk of the product.  A^(x)|gh| is commutative, so each
        insertion multiplies the running product from the left: ``_mapped``
        applies its ``_insertion`` map, and an all-int running product passes
        ``ex.numerators`` untouched.  One getter returns the product to gh's
        basis order.
        """
        order, back, lift_g, lift_h, gammas = self._chain_plan(g, h, None if word is None else tuple(word))
        m = len(order)
        size = self.base.dim ** (m - m // 2)   # the kernel's low factors
        (left, da), (right, db) = self._mapped(a, lift_g), self._mapped(b, lift_h)
        acc, den = frob.factorwise_product(self.base, m, (_split(left, size), da),
                                           (_split(right, size), db))
        for gamma in gammas:
            acc, d = self._mapped(acc, gamma)
            den *= d
        return ex.divided(acc if back is None else back(acc), den)

    def gamma_cocycle(self, g: int, h: int):
        """The sector cocycle as an identity-sector element (chain form).

        pi_{ss'} applied to the product of the word's copairing insertions: the
        section of the chain product of the generators, which is r_{ss'} of it.
        """
        product = self.multiply_chain(g, self.generator(g), h, self.generator(h))
        return self._joint_section(self.parts[self.group.identity],
                                   self.parts[self.group.mul(g, h)], product)

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
        self._memo.pop("_shape_table", None)   # the pairs of one shape hold its table
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
        tgt_index = self._cycle_of[self.group.conj(g, h)]
        last, perm_g = self.factors[h] - 1, self.perms[g]
        strides = [self.base.dim ** (last - tgt_index[perm_g(block[0])])
                   for block in self.parts[h].blocks]
        return {col: {sum(map(mul, t, strides)): 1}
                for col, t in enumerate(self._tuples(self.factors[h]))}

    def pair_table(self, g: int, h: int) -> dict:
        """Product table for a sector pair: the ``_shape_table`` of its joint
        orbits, so the pairs of one shape share one object that nothing mutates."""
        return self._shape_table(self._joint_orbits(g, h, self.group.mul(g, h)))

    @memo
    def _shape_table(self, shape: tuple) -> dict:
        """The Kronecker product of a shape's joint orbits' maps at the flat
        strides of g, h and gh, divided once."""
        D, (*rows, sizes) = self.base.dim, shape
        flat, den = self._half(_orbit_positions(shape), sizes,
                               [[D ** (len(row) - 1 - q) for q in range(len(row))] for row in rows])
        if den != 1:
            values = iter(ex.divided([c for ys in flat for _, outs in ys for _, c in outs], den))
            flat = [[(j, list(zip(map(itemgetter(0), outs), values))) for j, outs in ys]
                    for ys in flat]
        return {(i, j): dict(outs) for i, ys in enumerate(flat) for j, outs in ys}


def refuse_build(dim: int, n: int, budget: int) -> None:
    """Refuse a table build for Sym^n of a base of dimension ``dim`` whose cost,
    the square of the total dim, exceeds ``budget``, before S_n is built: the
    total dim of Sym^m(A) is the rising factorial D(D+1)...(D+m-1).  A base of
    dimension 0 is priced as dimension 1, one entry per sector pair, since its
    build still makes every (empty) sector.  A huge n costs nothing: the
    factorial stops once its square passes both the budget and
    ``_EXACT_COST``, and the message gives that as a lower bound."""
    m, fits, total = 0, 0, 1
    while m < n and total ** 2 <= max(budget, _EXACT_COST):
        total *= max(dim, 1) + m
        m += 1
        fits = m if total ** 2 <= budget else fits
    cost = total ** 2
    if cost > budget:
        raise BudgetExceededError(
            f"building all product tables costs {'' if m == n else 'at least '}{cost} entries "
            f"(budget {budget}); " + (f"n <= {fits} fits" if fits else "no n fits"), cost
        )


def _integral(cols: dict, den: int = 1) -> tuple[dict, int]:
    """Column entries {key: [(x, exact value)]}, each divided by ``den``, as
    integer numerators over one denominator, the lcm of the reduced ones;
    zero entries and then empty columns are dropped."""
    nums, d = ex.numerators([w for col in cols.values() for _, w in col])
    if den != 1:
        nums, d = ex.numerators(ex.divided(nums, d * den))
    nums = iter(nums)
    cols = {key: [(x, w) for (x, _), w in zip(col, nums) if w] for key, col in cols.items()}
    return {key: col for key, col in cols.items() if col}, d


def _layers(rows: list, size: int) -> tuple:
    """A map's ``rows`` transposed into layers, and the number of nonzero
    operand entries past which ``_mapped`` applies them.  Layer j holds, for
    every output, its j-th (input, numerator), or the zero slot (index
    len(rows), one past the operand) when it has fewer inputs: a C-level
    getter of the inputs, and the numerators, None when all are 1.  A layer
    costs about its ``size`` slots, each one after the first (whose gather
    needs no ``map(add, ...)``) ``_LAYER_SETUP`` more, and a scattered row
    entry as much as ``_LAYER_COST`` slots (measured on the lift maps of
    Sym^3..Sym^5 of surface4), so sparser operands keep the scatter."""
    inputs: list = [[] for _ in range(size)]
    for x, row in enumerate(rows):
        for o, w in row:
            inputs[o].append((x, w))
    width = max(map(len, inputs), default=0)
    # no operand is denser than its length: a zero map has nothing to gather,
    # and a map with one output (a base of dimension 1, so one input) scatters
    if not width or size == 1:
        return [], len(rows)
    layers = []
    for column in zip_longest(*inputs, fillvalue=(len(rows), 1)):   # the zero slot pads
        xs, ws = zip(*column)
        layers.append((itemgetter(*xs), None if set(ws) == {1} else list(ws)))
    # the scatter costs about (1 + row entries per input) per nonzero entry
    return layers, ((width * size + (width - 1) * _LAYER_SETUP) * len(rows)
                    // (_LAYER_COST * (len(rows) + sum(map(len, rows)))))


def _reader(order: list):
    """A C-level getter of a dense vector's entries at ``order`` (a tuple), or
    None when ``order`` is the identity, which it always is for fewer than two
    entries (where ``itemgetter`` would raise or return a scalar)."""
    return None if order == list(range(len(order))) else itemgetter(*order)


def _orbit_positions(shape: tuple) -> list:
    """Per joint orbit of a ``_joint_orbits`` shape: its positions of g, h and gh."""
    *rows, sizes = shape
    orbits = [([], [], []) for _ in sizes]
    for r, row in enumerate(rows):
        for i, o in enumerate(row):
            orbits[o][r].append(i)
    return orbits


@dataclass
class GammaData:
    cocycle: list     # identity-sector form (chain formula, section-projected)
    tilde: list       # obstruction class in the joint-orbit sector
    perp: list        # pushforward of the joint unit, in the product sector
    bar: list         # section image of tilde in the product sector
    restricted: list  # bar * perp = the cocycle restricted to the product sector

