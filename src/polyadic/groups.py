"""Finite groups with dense integer element indices.

Elements of a group of order N are the integers 0..N-1; names are display
strings attached to indices. Every binary group is a TableGroup, which
stores the full multiplication table. It is built only by validate_group,
by the certified coset readout (`cover._regular_group`, which checks that a
closed coset table is a regular action) and by `cover.build_post_cover`
from checked derivation data (Post's theorem), so holding a TableGroup is
proof the table satisfies the group axioms. A direct product is a table
too, built through validate_group. The twist x * y = x . u^-1 . y of a
group is not built here: `psi_u` gives the image tuple of its
automorphism over the base's indices.
"""

from dataclasses import dataclass, field
from itertools import permutations, product
from math import factorial, prod
from operator import eq, itemgetter

from . import caps as _caps
from .errors import (
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    PolyadicError,
)


class Carrier:
    """Element names in index order, the name -> index dict (`index` is
    given when the caller already holds it) and the order: the carrier
    that binary and n-ary groups share."""

    def __init__(self, names, index=None):
        self._names = tuple(names)
        self._index = {s: i for i, s in enumerate(self._names)} if index is None else index
        self.order = len(self._names)

    def name(self, i):
        return self._names[i]

    def index(self, name):
        return self._index[name]

    def elements(self):
        return range(self.order)

    def names(self):
        return list(self._names)


class TableGroup(Carrier):
    """Group given by a validated multiplication table: `table[a][b]` is the
    index of a . b, `inverses[a]` that of a^-1."""

    def __init__(self, element_names, table, identity, inverses, name="G"):
        super().__init__(element_names)
        self.group_name = name
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        self.inverses = tuple(inverses)
        self._columns = [None] * self.order

    def mul(self, a, b):
        return self.table[a][b]

    def column(self, b):
        """Column b of the table: `column(b)[a]` is the index of a . b. It
        is built on first use, so a closure by a few generators builds
        only their columns."""
        col = self._columns[b]
        if col is None:
            col = self._columns[b] = tuple(map(itemgetter(b), self.table))
        return col

    def right(self, b):
        """Right multiplication by b, a -> a . b, as one column lookup."""
        return self.column(b).__getitem__

    def inv(self, a):
        return self.inverses[a]

    def power(self, a, k):
        if k < 0:
            return self.power(self.inv(a), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    def element_order(self, a):
        x = a
        k = 1
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def conjugate(self, t, x):
        """t * x * t^-1."""
        return self.mul(self.mul(t, x), self.inv(t))

    def is_abelian(self):
        return self.table == tuple(zip(*self.table))

    def order_profile(self):
        """Sorted multiset of element orders; an isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in self.elements()))

    def __repr__(self):
        return f"TableGroup({self.group_name}, order={self.order})"


def validate_group(element_names, table, name="G", caps=_caps.DEFAULT):
    """Check the group axioms on a table of element indices.

    Raises NotLatinSquare / NoIdentity / NoInverse / NotAssociative with the
    first violation in scan order, or SizeCapExceeded: N^2 entries past
    max_tabulate, as "group table", before any is read. Returns a TableGroup
    on success. Associativity is proved by Light's test over a generating
    set (|S|*N^2 work); only when that fails does the full N^3 scan run, to
    find the least non-associative triple, capped by max_axiom_tuples.
    """
    names = list(element_names)
    n = len(names)
    if n == 0:
        raise NoIdentity()
    if len(set(names)) != n:
        raise PolyadicError("duplicate element names")
    _caps.check(caps, "group table", n * n, caps.max_tabulate)
    if len(table) != n or any(len(row) != n for row in table):
        raise PolyadicError("table is not square")
    rows = [tuple(row) for row in table]
    full = set(range(n))
    for i, row in enumerate(rows):
        if set(row) != full:
            raise NotLatinSquare("row", i)
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        if set(col) != full:
            raise NotLatinSquare("column", j)
    # In a Latin square only the row e with e*0 = 0 can be the identity's,
    # and only y = row_x.index(identity) can be the inverse of x.
    identity = cols[0].index(0)
    ident = tuple(range(n))
    if rows[identity] != ident or cols[identity] != ident:
        raise NoIdentity()
    inverses = [row.index(identity) for row in rows]
    for x, y in enumerate(inverses):
        if rows[y][x] != identity:
            raise NoInverse(x)
    if not _light_associative(rows, cols):
        _caps.check(caps, "associativity triples", n ** 3, caps.max_axiom_tuples)
        for a in range(n):
            ta = rows[a]
            for b in range(n):
                tab = rows[ta[b]]
                tb = rows[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise NotAssociative((a, b, c))
    return TableGroup(names, rows, identity, inverses, name=name)


def _light_associative(rows, cols):
    """Light's associativity test on a Latin square of element indices,
    given as its tuples of rows and of columns.

    The elements g with (x g) y = x (g y) for all x, y form a submagma: for
    two of them, (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y). So it
    is enough to test g over a set that generates the table as a magma. Each
    generator is the least element outside the closure of the earlier ones
    under all products of its members. Over a group that closure is a
    subgroup and at least doubles with each generator, so at most log2(N)
    of them are tested. Before associativity is known, right multiplications
    by generators, as `dimino` makes, need not reach all products of members.
    """
    members, inside = [], set()
    for g in range(len(rows)):
        if g in inside:
            continue
        rg = rows[g]
        for row in rows:
            if tuple(map(row.__getitem__, rg)) != rows[row[g]]:
                return False
        inside.add(g)
        queue = [g]
        while queue:
            z = queue.pop()
            members.append(z)
            fresh = set(map(rows[z].__getitem__, members))
            fresh.update(map(cols[z].__getitem__, members))
            fresh -= inside
            inside |= fresh
            queue.extend(fresh)
    return True


# ---------------------------------------------------------------------------
# constructions


def _refuse_past_cap(order):
    """validate_group refuses this order's table under the default caps
    anyway; checking first spares building it."""
    _caps.check(_caps.DEFAULT, "group table", order * order, _caps.DEFAULT.max_tabulate)


def cyclic_group(k):
    _refuse_past_cap(k)
    names = [str(i) for i in range(k)]
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return validate_group(names, table, name=f"Z{k}")


def symmetric_group(k):
    """S_k on {0..k-1}; element names are one-line images, identity first."""
    _refuse_past_cap(factorial(k))
    perms = sorted(permutations(range(k)))
    idx = {p: i for i, p in enumerate(perms)}
    names = ["".join(map(str, p)) for p in perms]
    table = [
        [idx[tuple(pa[pb[i]] for i in range(k))] for pb in perms] for pa in perms
    ]
    return validate_group(names, table, name=f"S{k}")


def direct_product(g, h, name=None):
    """Componentwise product as a full table; names joined with '_'."""
    _refuse_past_cap(g.order * h.order)
    names = []
    table = []
    pairs = [(a, b) for a in g.elements() for b in h.elements()]
    for a, b in pairs:
        names.append(f"{g.name(a)}_{h.name(b)}")
    idx = {p: i for i, p in enumerate(pairs)}
    for a, b in pairs:
        table.append(
            [idx[(g.mul(a, c), h.mul(b, d))] for c, d in pairs]
        )
    label = name or f"{g.group_name}x{h.group_name}"
    return validate_group(names, table, name=label)


# ---------------------------------------------------------------------------
# maps between groups


@dataclass(frozen=True)
class Hom:
    """Map between groups stored as a full image array."""

    source: TableGroup = field(compare=False)
    target: TableGroup = field(compare=False)
    images: tuple

    def __call__(self, x):
        return self.images[x]

    def is_valid(self):
        return _multiplicative(self.source, self.target, self.images)

    def is_surjective(self):
        return len(set(self.images)) == self.target.order

    def is_injective(self):
        return len(set(self.images)) == self.source.order


class GroupAutomorphism:
    """Bijective self-map stored as a full image array.

    Multiplicativity is checked by the `automorphism` constructor; internal
    constructions that are automorphisms for structural reasons (identity,
    inner) build instances directly.
    """

    def __init__(self, group, images):
        self.group = group
        self.images = tuple(images)

    def __call__(self, x):
        return self.images[x]

    def __eq__(self, other):
        return (
            isinstance(other, GroupAutomorphism) and self.images == other.images
        )

    def __hash__(self):
        return hash(self.images)

    def is_valid(self):
        g, images = self.group, self.images
        return sorted(images) == list(g.elements()) and _multiplicative(g, g, images)

    def compose(self, other):
        """self after other."""
        return GroupAutomorphism(
            self.group, tuple(self.images[other.images[x]] for x in self.group.elements())
        )

    def inverse(self):
        out = [0] * self.group.order
        for x, y in enumerate(self.images):
            out[y] = x
        return GroupAutomorphism(self.group, out)

    def powers(self, count):
        """theta^0, ..., theta^(count-1) as image tuples."""
        pows = [tuple(self.group.elements())]
        for _ in range(count - 1):
            pows.append(tuple(map(self, pows[-1])))
        return pows

    def __repr__(self):
        return f"GroupAutomorphism({list(self.images)})"


def identity_automorphism(g):
    return GroupAutomorphism(g, tuple(g.elements()))


def automorphism(g, images):
    """Validated constructor; raises on non-automorphisms."""
    a = GroupAutomorphism(g, images)
    if not a.is_valid():
        raise PolyadicError(f"{list(images)} is not an automorphism")
    return a


def automorphism_from_map(g, mapping):
    """mapping is name -> name."""
    images = [g.index(mapping[g.name(i)]) for i in g.elements()]
    return automorphism(g, images)


def inner_automorphism(g, t):
    return GroupAutomorphism(g, tuple(g.conjugate(t, x) for x in g.elements()))


def psi_u(base, theta, u):
    """The image tuple of x -> u . theta(x) . theta(u^-1). It is an
    automorphism of the twist of base by u (x * y = x . u^-1 . y, identity
    u), not of base, so it is not a GroupAutomorphism over base."""
    rows = base.table
    urow, tail = rows[u], theta(base.inv(u))
    return tuple(rows[urow[t]][tail] for t in theta.images)


# ---------------------------------------------------------------------------
# generation, homomorphisms, isomorphisms


def dimino(start, kept, gens, step, check=None):
    """The subgroup generated by a subgroup H and gens, grown by whole
    right cosets (Dimino's algorithm: Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991; Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 2005).

    `start` lists H's elements and `kept` generates H; `step(y)` is right
    multiplication by y, x -> x . y, a one-argument function. A generator
    t already inside is skipped. Otherwise the elements so far are kept as
    H0, and for each coset representative r in turn, H0's own first, and
    each kept generator s, if r . s lies outside, the coset H0 . (r . s),
    the image of r's coset under s, is added; from H0 only t leads
    outside, so the first coset added is H0 . t. The cosets of H0 are
    disjoint, so that is one product per new element, plus one per
    representative and kept generator, and `step` is called once per
    kept generator. The union is closed under right multiplication by the
    kept generators, so it is the subgroup.

    `check(size)`, when given, is called before each coset is built with
    the size the closure reaches with it, and may raise to refuse it.
    Returns (elements, kept): new lists, the elements H's first and then
    each coset in the order added, and the generators kept.
    """
    members, kept = list(start), list(kept)
    inside = set(members)
    moves = list(map(step, kept))
    for t in gens:
        if t in inside:
            continue
        kept.append(t)
        moves.append(step(t))
        width = len(members)
        pos = 0  # H0's own representative: only t leads outside
        while pos < len(members):  # grows as cosets are added
            r = members[pos]
            for move in moves:
                y = move(r)
                if y in inside:
                    continue
                if check is not None:
                    check(len(members) + width)
                if width == 1:  # H0 is trivial: the coset is y alone
                    members.append(y)
                    inside.add(y)
                    continue
                coset = list(map(move, members[pos:pos + width]))
                members += coset
                inside.update(coset)
            pos += width
    return members, kept


def subgroup_closure(g, seed):
    """Smallest subgroup containing seed (set of indices), by `dimino`
    from the trivial subgroup."""
    return frozenset(dimino([g.identity], [], seed, g.right)[0])


def generating_set(g, key=None):
    """Greedy small generating set, deterministic: one pass in index order
    (stably sorted by key, if given) keeps each element outside the
    subgroup the earlier ones generate, which is one growing `dimino`
    closure."""
    order = sorted(g.elements(), key=key) if key else g.elements()
    return dimino([g.identity], [], order, g.right)[1]


def cayley_walk(g, gens):
    """Breadth-first walk from the identity over the Cayley graph of the
    subgroup gens generate: (order, edges), the elements in visit order
    and every edge (x, position, x . gens[position]), x in that order and
    the generators in turn. The first edge reaching an element defines it,
    as a Schreier tree edge (Holt, Eick and O'Brien, 2005, 4.1). The hom
    checks read these edges; a subgroup alone comes from `dimino`."""
    rows = g.table
    order, seen, edges = [g.identity], {g.identity}, []
    for x in order:  # grows as the walk reaches new elements
        row = rows[x]
        for pos, gen in enumerate(gens):
            y = row[gen]
            edges.append((x, pos, y))
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order, edges


def _extend_along_edges(g, h, gens, gen_images, edges):
    """Extend gens -> gen_images along `cayley_walk(g, gens)`'s edges once:
    the first edge (x, gen) reaching y defines img[y] = img[x] . img[gen],
    and every later edge is checked as soon as it is reached.

    Returns (img, None), img a list with None off the subgroup gens
    generate, or (None, (x, gen)) for the first edge that fails. If none
    fails and gens generate g, img is a homomorphism by induction on word
    length: |G| * |gens| products, not |G|^2.
    """
    img = [None] * g.order
    img[g.identity] = h.identity
    rows = h.table
    for x, pos, y in edges:
        v = rows[img[x]][gen_images[pos]]
        w = img[y]
        if w is None:
            img[y] = v
        elif w != v:
            return None, (x, gens[pos])
    return img, None


def _multiplicative(g, h, images):
    """Whether the image array is a homomorphism g -> h: the one extending
    its values on g's generating set along the Cayley-graph edges."""
    gens = generating_set(g)
    _, edges = cayley_walk(g, gens)
    img, _ = _extend_along_edges(g, h, gens, [images[x] for x in gens], edges)
    return img == list(images)


def _homs_on_generators(g, h, gens, candidates):
    """Image arrays of the homomorphisms g -> h, one per tuple of generator
    images drawn from the candidate lists, in tuple order."""
    edges = cayley_walk(g, gens)[1]
    for choice in product(*candidates):
        img, _ = _extend_along_edges(g, h, gens, choice, edges)
        if img is not None:
            yield tuple(img)


def _candidates(g, h, gens, fits):
    """For each generator x, the y in h with fits(order of x, order of y)."""
    orders = [h.element_order(y) for y in h.elements()]
    return [
        [y for y, k in enumerate(orders) if fits(g.element_order(x), k)]
        for x in gens
    ]


def hom_generators(g):
    """The generating set `enumerate_homs` searches over by default, picked
    by decreasing order, so that their number and orders, and the search's
    size, follow the group rather than the numbering of its elements:
    index order gives S4 three involutions (1000 tuples) under one
    numbering and a 3-cycle and an involution (90) under another,
    decreasing order two 4-cycles (256) under every one."""
    return generating_set(g, key=lambda x: -g.element_order(x))


def enumerate_homs(g, h, caps=_caps.DEFAULT, gens=None):
    """All homomorphisms g -> h as Hom records, sorted by image array;
    generator images are pruned by element-order divisibility.

    The search runs over every tuple of images of `gens`, a generating set
    of g (`hom_generators(g)` when not given), so its size is the product
    over generators of the images their orders admit, and that is what the
    cap is checked on.
    """
    if gens is None:
        gens = hom_generators(g)
    candidates = _candidates(g, h, gens, lambda a, b: a % b == 0)
    _caps.check(
        caps, "hom search space", prod(map(len, candidates)), caps.max_points
    )
    homs = _homs_on_generators(g, h, gens, candidates)
    return [Hom(g, h, images) for images in sorted(homs)]


def hom_from_generator_images(g, h, gens, images):
    """The hom determined by gens -> images, or None (with witness).

    Returns (Hom, None) on success. Returns (None, reason) when the induced
    map is not multiplicative, with reason ('clash', x, gen) for the first
    Cayley-graph edge in BFS order that fails, or else when the given
    generators do not generate g, with reason ('not-generating', x) for
    the least element they miss.
    """
    img, edge = _extend_along_edges(g, h, gens, images, cayley_walk(g, gens)[1])
    if edge is not None:
        return None, ("clash",) + edge
    if None in img:
        return None, ("not-generating", img.index(None))
    return Hom(g, h, tuple(img)), None


def are_isomorphic(g, h, caps=_caps.DEFAULT):
    """(bool, witness Hom or None): the first bijective homomorphism sending
    the generators to elements of the same orders. The tuples of generator
    images are counted as they are tried, and refused past max_points as
    "isomorphism search"."""
    if g.order != h.order or g.order_profile() != h.order_profile():
        return False, None
    gens = generating_set(g)
    edges = cayley_walk(g, gens)[1]
    for tried, choice in enumerate(product(*_candidates(g, h, gens, eq)), 1):
        _caps.check(caps, "isomorphism search", tried, caps.max_points)
        img, _ = _extend_along_edges(g, h, gens, choice, edges)
        if img is not None and len(set(img)) == g.order:
            return True, Hom(g, h, tuple(img))
    return False, None


def subgroups(g, caps=_caps.DEFAULT):
    """All subgroups, as a sorted tuple of frozensets.

    Cyclic extension (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005): each subgroup H, kept with its elements in
    `dimino` order and the generators that reached it, is extended by
    each outside element x, skipping the rest of the coset H.x, read off
    x's column, since <H, x> = <H, h.x>. <H, x> grows from H's own
    elements by cosets of H. Past max_axiom_tuples elements added by the
    extensions, the lattice is refused as "subgroup lattice".
    """
    trivial = [g.identity]
    found = {frozenset(trivial): (trivial, [])}
    queue = list(found)
    added = 0
    for sub in queue:
        members, gens = found[sub]
        tried = set(sub)
        for x in g.elements():
            if x in tried:
                continue
            tried.update(map(g.right(x), members))
            elements, kept = dimino(members, gens, [x], g.right)
            added += len(elements) - len(members)
            _caps.check(caps, "subgroup lattice", added, caps.max_axiom_tuples)
            bigger = frozenset(elements)
            if bigger not in found:
                found[bigger] = (elements, kept)
                queue.append(bigger)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def subgroup_table(g, members, name="H"):
    """Reindex a subgroup as a standalone TableGroup (sorted carrier order)."""
    carrier = sorted(members)
    pos = {x: i for i, x in enumerate(carrier)}
    names = [g.name(x) for x in carrier]
    table = [[pos[g.mul(x, y)] for y in carrier] for x in carrier]
    return validate_group(names, table, name=name)
