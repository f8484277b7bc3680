"""Finite groups with dense integer element indices.

Elements of a group of order N are the integers 0..N-1; names are display
strings attached to indices. TableGroup stores the full multiplication table
and is only ever built through validate_group, so holding a TableGroup is
proof the table satisfies the group axioms. TwistedGroup and DirectPowerGroup
compute products on demand and share the same interface, which keeps direct
powers usable far beyond the full-table size cap.
"""

from dataclasses import dataclass, field
from itertools import permutations, product

from . import caps as _caps
from .errors import (
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    PolyadicError,
    SizeCapExceeded,
)


class FiniteGroup:
    """Common interface: mul, inv, identity, order, element names."""

    order: int
    identity: int

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def name(self, i):
        raise NotImplementedError

    def index(self, name):
        raise NotImplementedError

    def elements(self):
        return range(self.order)

    def names(self):
        return [self.name(i) for i in self.elements()]

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
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in self.elements()
            for b in self.elements()
        )

    def order_profile(self):
        """Sorted multiset of element orders; an isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in self.elements()))


class TableGroup(FiniteGroup):
    """Group given by a validated multiplication table."""

    def __init__(self, element_names, table, identity, inverses, name="G"):
        self.group_name = name
        self._names = tuple(element_names)
        self._index = {s: i for i, s in enumerate(self._names)}
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self._names)
        self.identity = identity
        self.inverses = tuple(inverses)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def name(self, i):
        return self._names[i]

    def index(self, name):
        return self._index[name]

    def __repr__(self):
        return f"TableGroup({self.group_name}, order={self.order})"


def validate_group(element_names, table, name="G", caps=_caps.DEFAULT):
    """Check the group axioms on a table of element indices.

    Raises NotLatinSquare / NoIdentity / NoInverse / NotAssociative with the
    first violation in scan order, or SizeCapExceeded for oversized input.
    Returns a TableGroup on success. Associativity is proved by Light's test
    over a generating set (|S|*N^2 work); only when that fails does the full
    N^3 scan run, to find the least non-associative triple.
    """
    names = list(element_names)
    n = len(names)
    if n == 0:
        raise NoIdentity()
    if len(set(names)) != n:
        raise PolyadicError("duplicate element names")
    _caps.check(caps, "group order", n, caps.max_table_order)
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
    of them are tested.
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


def cyclic_group(k):
    names = [str(i) for i in range(k)]
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return validate_group(names, table, name=f"Z{k}")


def symmetric_group(k):
    """S_k on {0..k-1}; element names are one-line images, identity first."""
    perms = sorted(permutations(range(k)))
    idx = {p: i for i, p in enumerate(perms)}
    names = ["".join(map(str, p)) for p in perms]
    table = [
        [idx[tuple(pa[pb[i]] for i in range(k))] for pb in perms] for pa in perms
    ]
    return validate_group(names, table, name=f"S{k}")


def direct_product(g, h, name=None):
    """Componentwise product as a full table; names joined with '_'."""
    names = []
    table = []
    order = g.order * h.order
    pairs = [(a, b) for a in g.elements() for b in h.elements()]
    for a, b in pairs:
        names.append(f"{g.name(a)}_{h.name(b)}")
    idx = {p: i for i, p in enumerate(pairs)}
    for a, b in pairs:
        table.append(
            [idx[(g.mul(a, c), h.mul(b, d))] for c, d in pairs]
        )
    label = name or f"{getattr(g, 'group_name', 'G')}x{getattr(h, 'group_name', 'H')}"
    return validate_group(names, table, name=label)


class TwistedGroup(FiniteGroup):
    """Same carrier, product x*y = x . u^-1 . y; identity u.

    The base group and the twist element are kept so other operations can
    recognize where the structure came from. x -> x . u is an isomorphism
    from the base onto the twisted group.
    """

    def __init__(self, base, u):
        self.base = base
        self.u = u
        self.order = base.order
        self.identity = u
        self._uinv = base.inv(u)

    def mul(self, a, b):
        return self.base.mul(self.base.mul(a, self._uinv), b)

    def inv(self, a):
        return self.base.mul(self.base.mul(self.u, self.base.inv(a)), self.u)

    def name(self, i):
        return self.base.name(i)

    def index(self, name):
        return self.base.index(name)

    def __repr__(self):
        return f"TwistedGroup(u={self.u}, order={self.order})"


def twisted_group(base, u):
    return TwistedGroup(base, u)


class DirectPowerGroup(FiniteGroup):
    """k-fold componentwise power of a base group, computed lazily.

    Elements are mixed-radix encodings of coordinate tuples, first coordinate
    most significant; the identity is the encoding of (e,...,e).
    """

    def __init__(self, base, k, caps=_caps.DEFAULT):
        order = base.order ** k
        _caps.check(caps, "direct power order", order, caps.max_power_order)
        self.base = base
        self.k = k
        self.order = order
        self.identity = self.encode((base.identity,) * k)

    def encode(self, coords):
        acc = 0
        for c in coords:
            acc = acc * self.base.order + c
        return acc

    def decode(self, i):
        out = [0] * self.k
        for pos in range(self.k - 1, -1, -1):
            i, out[pos] = divmod(i, self.base.order)
        return tuple(out)

    def mul(self, a, b):
        xa, xb = self.decode(a), self.decode(b)
        return self.encode(tuple(self.base.mul(x, y) for x, y in zip(xa, xb)))

    def inv(self, a):
        return self.encode(tuple(self.base.inv(x) for x in self.decode(a)))

    def name(self, i):
        return "_".join(self.base.name(c) for c in self.decode(i))

    def index(self, name):
        parts = name.split("_")
        if len(parts) != self.k:
            raise KeyError(name)
        return self.encode(tuple(self.base.index(p) for p in parts))

    def __repr__(self):
        return f"DirectPowerGroup(base order {self.base.order}, k={self.k})"


def direct_power(g, k, caps=_caps.DEFAULT):
    if k < 1:
        raise PolyadicError("power exponent must be >= 1")
    return DirectPowerGroup(g, k, caps=caps)


# ---------------------------------------------------------------------------
# maps between groups


@dataclass(frozen=True)
class Hom:
    """Map between groups stored as a full image array."""

    source: FiniteGroup = field(compare=False)
    target: FiniteGroup = field(compare=False)
    images: tuple

    def __call__(self, x):
        return self.images[x]

    def is_valid(self):
        s, t = self.source, self.target
        return all(
            self.images[s.mul(a, b)] == t.mul(self.images[a], self.images[b])
            for a in s.elements()
            for b in s.elements()
        )

    def is_surjective(self):
        return len(set(self.images)) == self.target.order

    def is_injective(self):
        return len(set(self.images)) == self.source.order


class GroupAutomorphism:
    """Bijective self-map stored as a full image array.

    Multiplicativity is checked by the `automorphism` constructor; internal
    constructions that are automorphisms for structural reasons (identity,
    inner, componentwise-induced) build instances directly.
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
        g = self.group
        if sorted(self.images) != list(g.elements()):
            return False
        return all(
            self.images[g.mul(a, b)] == g.mul(self.images[a], self.images[b])
            for a in g.elements()
            for b in g.elements()
        )

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

    def iterate(self, k):
        """k-th compositional power, k >= 0."""
        acc = identity_automorphism(self.group)
        for _ in range(k):
            acc = self.compose(acc)
        return acc

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
    """x -> u . theta(x) . theta(u^-1), an automorphism of the twist by u."""
    tw = twisted_group(base, u)
    tail = theta(base.inv(u))
    images = tuple(base.mul(base.mul(u, theta(x)), tail) for x in base.elements())
    return GroupAutomorphism(tw, images)


def induced_automorphism(theta, power_group):
    """Apply theta coordinatewise on a direct power of its group."""
    base = power_group.base
    images = [0]
    for _ in range(power_group.k):
        # mixed radix, first coordinate most significant
        images = [hi * base.order + theta(c) for hi in images for c in base.elements()]
    return GroupAutomorphism(power_group, images)


def constant_tuple(power_group, b):
    return power_group.encode((b,) * power_group.k)


# ---------------------------------------------------------------------------
# generation, homomorphisms, isomorphisms


def subgroup_closure(g, seed):
    """Smallest subgroup containing seed (set of indices)."""
    closed = set(seed)
    closed.add(g.identity)
    frontier = sorted(closed)
    while frontier:
        new = []
        for x in frontier:
            for y in sorted(closed):
                for z in (g.mul(x, y), g.mul(y, x)):
                    if z not in closed:
                        closed.add(z)
                        new.append(z)
        frontier = new
    return frozenset(closed)


def generating_set(g):
    """Greedy small generating set, deterministic (lowest missing index)."""
    gens = []
    closed = {g.identity}
    while len(closed) < g.order:
        x = min(i for i in g.elements() if i not in closed)
        gens.append(x)
        closed = set(subgroup_closure(g, gens))
    return gens


def bfs_words(g, gens):
    """For each element, a definition x = parent * generator, in BFS order.

    Returns (order, defs) where order is the BFS visit order starting at the
    identity and defs[x] = (parent, generator_position) for x != identity.
    """
    defs = {g.identity: None}
    order = [g.identity]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for pos, gen in enumerate(gens):
            y = g.mul(x, gen)
            if y not in defs:
                defs[y] = (x, pos)
                order.append(y)
    return order, defs


def _propagate(g, h, gens, gen_images, order, defs):
    """Extend generator images along BFS definitions; None on clash."""
    img = {g.identity: h.identity}
    for x in order[1:]:
        parent, pos = defs[x]
        img[x] = h.mul(img[parent], gen_images[pos])
    return img


def _is_hom(g, h, img):
    for a in g.elements():
        ia = img[a]
        for b in g.elements():
            if img[g.mul(a, b)] != h.mul(ia, img[b]):
                return False
    return True


def enumerate_homs(g, h, caps=_caps.DEFAULT):
    """All homomorphisms g -> h as Hom records, sorted by image array.

    Backtracks over generator images (pruned by element-order divisibility),
    extends by BFS, then verifies multiplicativity on all pairs.
    """
    gens = generating_set(g)
    order, defs = bfs_words(g, gens)
    if not gens:
        return [Hom(g, h, tuple([h.identity] * g.order))]
    _caps.check(
        caps, "hom search space", h.order ** len(gens), caps.max_power_order
    )
    gen_orders = [g.element_order(x) for x in gens]
    candidates = [
        [y for y in h.elements() if gen_orders[pos] % h.element_order(y) == 0]
        for pos in range(len(gens))
    ]
    found = []
    for choice in product(*candidates):
        img = _propagate(g, h, gens, choice, order, defs)
        if _is_hom(g, h, img):
            found.append(Hom(g, h, tuple(img[x] for x in g.elements())))
    found.sort(key=lambda hm: hm.images)
    return found


def hom_from_generator_images(g, h, gens, images):
    """The hom determined by gens -> images, or None (with witness).

    Returns (Hom, None) on success. Returns (None, reason) when the given
    generators do not generate g or the induced map is not multiplicative;
    reason is ('not-generating', element) or ('clash', a, b).
    """
    img = {g.identity: h.identity}
    frontier = [g.identity]
    while frontier:
        new = []
        for x in frontier:
            for gen, gi in zip(gens, images):
                y = g.mul(x, gen)
                v = h.mul(img[x], gi)
                if y in img:
                    if img[y] != v:
                        return None, ("clash", x, gen)
                else:
                    img[y] = v
                    new.append(y)
        frontier = new
    if len(img) != g.order:
        missing = min(x for x in g.elements() if x not in img)
        return None, ("not-generating", missing)
    if not _is_hom(g, h, img):
        for a in g.elements():
            for b in g.elements():
                if img[g.mul(a, b)] != h.mul(img[a], img[b]):
                    return None, ("clash", a, b)
    return Hom(g, h, tuple(img[x] for x in g.elements())), None


def are_isomorphic(g, h):
    """(bool, witness Hom or None); backtracking over generator images."""
    if g.order != h.order:
        return False, None
    if g.order_profile() != h.order_profile():
        return False, None
    gens = generating_set(g)
    order, defs = bfs_words(g, gens)
    gen_orders = [g.element_order(x) for x in gens]
    candidates = [
        [y for y in h.elements() if h.element_order(y) == gen_orders[pos]]
        for pos in range(len(gens))
    ]
    for choice in product(*candidates):
        img = _propagate(g, h, gens, choice, order, defs)
        vals = tuple(img[x] for x in g.elements())
        if len(set(vals)) != g.order:
            continue
        if _is_hom(g, h, img):
            return True, Hom(g, h, vals)
    return False, None


def subgroups(g):
    """All subgroups, as a sorted tuple of frozensets.

    Lattice completion: closures of singletons, then repeatedly extend each
    known subgroup by one outside element.
    """
    found = {frozenset([g.identity])}
    for x in g.elements():
        found.add(subgroup_closure(g, [x]))
    changed = True
    while changed:
        changed = False
        for sub in sorted(found, key=lambda s: (len(s), sorted(s))):
            if len(sub) == g.order:
                continue
            for x in g.elements():
                if x not in sub:
                    bigger = subgroup_closure(g, list(sub) + [x])
                    if bigger not in found:
                        found.add(bigger)
                        changed = True
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def subgroup_table(g, members, name="H"):
    """Reindex a subgroup as a standalone TableGroup (sorted carrier order)."""
    carrier = sorted(members)
    pos = {x: i for i, x in enumerate(carrier)}
    names = [g.name(x) for x in carrier]
    table = [[pos[g.mul(x, y)] for y in carrier] for x in carrier]
    return validate_group(names, table, name=name)
