"""Finite groups as explicit multiplication tables; symmetric groups S_n.

Composition convention (load-bearing, do not change): ``(p * q)(i) = p(q(i))``,
i.e. the right factor acts first.  Every derived identity in this package --
minimal transposition words, contraction index sets, cocycle exponent tables --
depends on this choice.  Indices are 0-based internally; cycle notation at I/O
boundaries is 1-based, e.g. ``(1 2)(3 4)``, with fixed points omitted and
``e`` (or ``()``) for the identity.  Every orbit partition comes from one
walk, ``group_orbits``: a permutation's cycles are its one-generator case.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

ENUMERATION_BOUND = 8  # n! blows up past this


class Permutation:
    """A permutation of {0..n-1} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(n))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "Permutation":
        if not (0 <= a < n and 0 <= b < n and a != b):
            raise ValueError(f"bad transposition ({a} {b}) for degree {n}")
        images = list(range(n))
        images[a], images[b] = b, a
        return Permutation(images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return cycle_notation(self)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def moved_points(self) -> list[int]:
        return [i for i, j in enumerate(self.images) if i != j]


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of {0..n-1} into canonical blocks.

    Blocks are sorted ascending internally and ordered by minimal element;
    this fixes the tensor-factor order everywhere downstream.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = sorted(i for b in self.blocks for i in b)
        if seen != list(range(self.n)):
            raise ValueError(f"blocks do not partition 0..{self.n - 1}")
        canonical = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        if canonical != self.blocks:
            raise ValueError("blocks are not in canonical order (sorted, by minimal element)")

    def block_index(self) -> dict[int, int]:
        """point -> position of its block in the canonical order."""
        out = {}
        for pos, block in enumerate(self.blocks):
            for i in block:
                out[i] = pos
        return out

    def __len__(self):
        return len(self.blocks)

    def refines(self, coarser: "OrbitPartition") -> bool:
        """True iff every block of `coarser` is a union of blocks of self."""
        if self.n != coarser.n:
            return False
        coarse_of = coarser.block_index()
        return all(len({coarse_of[i] for i in block}) == 1 for block in self.blocks)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p * q)(i) = p(q(i)): apply q first, then p."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    qi = q.images
    pi = p.images
    return Permutation(tuple(pi[qi[i]] for i in range(p.n)))


def cycles(p: Permutation) -> OrbitPartition:
    """Orbits of <p>, fixed points included as singletons."""
    return group_orbits([p])


def degree(p: Permutation) -> int:
    """|p| = n - (number of cycles) = minimal transposition word length."""
    return p.n - len(cycles(p).blocks)


def group_orbits(gens, n: int | None = None) -> OrbitPartition:
    """Orbits of the group generated by `gens`, by closing each unseen point
    under the generators' images."""
    gens = list(gens)
    if not gens:
        if n is None:
            raise ValueError("group_orbits needs a degree when the generator list is empty")
    else:
        degrees = {g.n for g in gens}
        if len(degrees) != 1:
            raise ValueError(f"generators of mixed degree: {sorted(degrees)}")
        if n is not None and n != gens[0].n:
            raise ValueError(f"degree {n} does not match generators of degree {gens[0].n}")
        n = gens[0].n
    images = [g.images for g in gens]
    seen = [False] * n
    blocks = []
    for start in range(n):   # every smaller point is seen, so start is its block's minimum
        if not seen[start]:
            seen[start] = True
            block = [start]
            for p in block:   # the block grows while it is read
                for image in images:
                    q = image[p]
                    if not seen[q]:
                        seen[q] = True
                        block.append(q)
            blocks.append(tuple(sorted(block)))
    return OrbitPartition(n, tuple(blocks))


def enumerate_sn(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order (identity first)."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n > ENUMERATION_BOUND:
        raise ValueError(f"S_{n} enumeration exceeds the configured bound {ENUMERATION_BOUND}")
    return [Permutation(images) for images in itertools.permutations(range(n))]


# -- cycle notation I/O ----------------------------------------------------

def cycle_notation(p: Permutation) -> str:
    """1-based cycle string, fixed points omitted; 'e' for the identity."""
    parts = []
    for block in cycles(p).blocks:
        if len(block) == 1:
            continue
        cyc = [block[0]]
        i = p.images[block[0]]
        while i != block[0]:
            cyc.append(i)
            i = p.images[i]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse '(1 2)(3 4)'-style input (1-based); 'e', '()' and '' mean identity."""
    s = text.strip()
    if s in ("e", "()", ""):
        return Permutation.identity(n)
    consumed = _CYCLE_RE.sub("", s).strip()
    if consumed:
        raise ValueError(f"unparseable cycle notation: {text!r}")
    images = list(range(n))
    # disjointness is enforced; right-to-left application order would only
    # matter for overlapping cycles
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(s):
        points = [int(tok) for tok in body.replace(",", " ").split()]
        if not points:
            continue
        if any(not 1 <= pt <= n for pt in points):
            raise ValueError(f"cycle point out of range 1..{n} in {text!r}")
        zero_based = [pt - 1 for pt in points]
        if len(set(zero_based)) != len(zero_based) or seen.intersection(zero_based):
            raise ValueError(f"cycles are not disjoint in {text!r}")
        seen.update(zero_based)
        for a, b in zip(zero_based, zero_based[1:] + zero_based[:1]):
            images[a] = b
    return Permutation(images)


# -- explicit multiplication tables ----------------------------------------

class FiniteGroup:
    """A finite group given by its multiplication table over 0..order-1."""

    def __init__(self, labels, table):
        if (type(labels) is not list or any(type(x) is not str for x in labels)
                or len(set(labels)) != len(labels)):
            raise ValueError(f"group labels {labels!r} are not a list of distinct strings")
        self.labels = list(labels)
        self.order = len(self.labels)
        self.table = [list(row) for row in table]
        if len(self.table) != self.order or any(len(r) != self.order for r in self.table):
            raise ValueError("multiplication table shape does not match the label count")
        for row in self.table:
            for x in row:
                if type(x) is not int:   # a bool or a float would pass as an index
                    raise ValueError(f"multiplication table entry {x!r} is not an integer")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self.perms: list[Permutation] | None = None  # set by symmetric_group()
        self._validate()

    def _find_identity(self) -> int:
        ids = list(range(self.order))
        for e, row in enumerate(self.table):
            if row == ids and all(r[e] == g for g, r in enumerate(self.table)):
                return e
        raise ValueError("multiplication table has no identity element")

    def _find_inverses(self) -> list[int]:
        t, e = self.table, self.identity
        inv = []
        for g, row in enumerate(t):
            try:
                h = row.index(e)
                while t[h][g] != e:   # only a table that is no Latin square repeats e
                    h = row.index(e, h + 1)
            except ValueError:
                raise ValueError(f"element {self.labels[g]} has no inverse") from None
            inv.append(h)
        return inv

    def _generators(self) -> list[int]:
        """Greedy generators: in index order, each element that right products
        of the earlier generators, starting from the identity, do not reach.

        Every element is then a left-nested word ``((e a1) a2) ... ak`` in them.
        """
        t = self.table
        reached = [False] * self.order
        reached[self.identity] = True
        words = [self.identity]
        gens: list[int] = []
        for g in range(self.order):
            if reached[g]:
                continue
            gens.append(g)
            # old words meet the new generator; new words meet every generator
            fresh = []
            for w in words:
                v = t[w][g]
                if not reached[v]:
                    reached[v] = True
                    fresh.append(v)
            for w in fresh:   # the list grows while it is read
                row = t[w]
                for a in gens:
                    v = row[a]
                    if not reached[v]:
                        reached[v] = True
                        fresh.append(v)
            words += fresh
        return gens

    def _validate(self):
        """Latin-square check, then Light's associativity test: (x a) y = x (a y)
        for every x, y and every greedy generator a.

        The test is exact without assuming associativity.  The middle elements
        a that pass for all x and y contain the identity and are closed under
        the product: if a and b pass, then (x (ab)) y = ((x a) b) y =
        (x a)(b y) = x (a (b y)) = x ((ab) y).  Every element is a right-product
        word in the generators, so every element passes.  The cost is
        |generators| * order^2 lookups instead of order^3; the witness is a
        failing triple, not necessarily the lexicographically first one.
        """
        n, t, labels = self.order, self.table, self.labels
        ids = list(range(n))
        for g, (row, col) in enumerate(zip(t, zip(*t))):
            if sorted(row) != ids or sorted(col) != ids:
                raise ValueError(f"table row/column for {labels[g]} is not a bijection")
        rows = [tuple(r) for r in t]
        for a in self._generators():
            right = itemgetter(*t[a])   # x -> x (a y) over every y; n > 1 here
            for x, row in enumerate(rows):
                if rows[row[a]] != right(row):
                    y = next(y for y in ids if t[row[a]][y] != row[t[a][y]])
                    raise ValueError(
                        f"table is not associative at "
                        f"({labels[x]}, {labels[a]}, {labels[y]})"
                    )

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.inverse[g]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1 by table lookups."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def commutator(self, g: int, h: int) -> int:
        return self.table[self.conj(g, h)][self.inverse[h]]

    def elements(self) -> range:
        return range(self.order)

    def conjugacy_classes(self) -> list[list[int]]:
        """Classes as index lists, each sorted, ordered by minimal element."""
        remaining = set(range(self.order))
        classes = []
        while remaining:
            g = min(remaining)
            cls = sorted({self.conj(k, g) for k in range(self.order)})
            classes.append(cls)
            remaining.difference_update(cls)
        return classes

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no group element labelled {label!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.labels == other.labels
            and self.table == other.table
        )

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """S_n as an explicit table; element order matches enumerate_sn(n)."""
    perms = enumerate_sn(n)
    index = {p.images: i for i, p in enumerate(perms)}
    if n == 1:   # a one-index getter returns a bare item, not a tuple
        table = [[0]]
    else:
        # (p * q).images is q's images read off p's images
        getters = [itemgetter(*q.images) for q in perms]
        table = [[index[get(p.images)] for get in getters] for p in perms]
    # composition makes this a group; the constructor still checks it, as every table
    group = FiniteGroup([cycle_notation(p) for p in perms], table)
    group.perms = perms
    return group


def symmetric_order(n, cap: int) -> int:
    """n! for a document's degree n, or a partial product past ``cap`` (a huge n costs nothing)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"symmetric group degree {n!r} is not an integer >= 1")
    order = k = 1
    while k < n and order <= cap:
        k += 1
        order *= k
    return order


def group_doc(G: FiniteGroup) -> dict:
    """The ``group`` entry of a document: S_n by its degree, any other group by its table."""
    if G.perms is not None:
        return {"type": "symmetric", "n": G.perms[0].n}
    return {"type": "table", "labels": list(G.labels), "table": [list(r) for r in G.table]}


def group_entry(doc: dict) -> dict:
    """A document's ``group`` entry, refused unless it is an object."""
    gdoc = doc["group"]
    if not isinstance(gdoc, dict):
        raise ValueError(f"group entry {gdoc!r} is not an object")
    return gdoc


def group_from_doc(gdoc: dict) -> FiniteGroup:
    """The group of a document's ``group`` entry; the inverse of ``group_doc``."""
    if gdoc.get("type") == "symmetric":
        return symmetric_group(gdoc["n"])
    return FiniteGroup(gdoc["labels"], gdoc["table"])
