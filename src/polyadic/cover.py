"""The covering group of a finite n-ary group, and presented n-ary groups.

Every n-ary group G embeds into an ordinary group G* of order (n-1)|G|,
as a generating coset of a normal subgroup R with G*/R cyclic of order
n-1, such that the n-ary operation is the n-fold product of G*. The
construction here realizes G* on pairs (g, grade) and machine-checks the
five coset properties on every instance it builds. Presentations of
n-ary groups transform into ordinary presentations of the cover, which a
bounded coset enumeration can then try to realize as a finite table.
"""

from collections import deque
from dataclasses import dataclass
from functools import cache

from . import caps as _caps
from .core import _first_difference, as_derived, check_arity, retract
from .errors import (
    CapExceeded,
    EmptyGeneratorSet,
    NotPolyadicHom,
    NotRegular,
    PolyadicError,
    PropertyFailure,
)
from .groups import Hom, TableGroup, hom_from_generator_images, subgroup_closure
from .terms import term_to_free_word


class PostCover:
    """Cover group on pairs (g, grade), grade running over 0..n-2.

    Element index of (g, i) is i*|G| + g. The source n-ary group embeds
    at grade 1; R is the grade-0 normal subgroup.
    """

    def __init__(self, polyadic, group, retract_iso):
        self.polyadic = polyadic
        self.group = group
        self.n = polyadic.n
        self.base_order = polyadic.order
        self.retract_iso = retract_iso

    @property
    def order(self):
        return self.group.order

    def embed_index(self, g):
        return self.base_order + g

    def grade(self, c):
        return c // self.base_order

    def embedded(self):
        return range(self.base_order, 2 * self.base_order)

    def r_subgroup(self):
        return tuple(range(self.base_order))

    def __repr__(self):
        return f"PostCover(order={self.order}, n={self.n})"


def build_post_cover(p, caps=_caps.DEFAULT):
    """Construct and verify the cover of a finite n-ary group.

    The multiplication (x,i)(y,j) = (x . theta^i(y) . b^((i+j) div (n-1)),
    (i+j) mod (n-1)) is read off p's derivation data: p's own, or a
    table's recovery. That data meets both derivation conditions, so the
    product is associative (Post, Polyadic groups, 1940), and the table is
    built as a TableGroup directly; max_tabulate bounds its ((n-1)|G|)^2
    entries. It is then checked against the five coset properties:
      1. g -> (g,1) is a bijection onto the coset R(e,1);
      2. (x,0) -> x.s, s = skew 0, is an isomorphism from R onto the
         retract of p at 0, checked on all |G|^2 products of R and kept
         as retract_iso;
      3. the grade map is a homomorphism onto Z_(n-1) with kernel R;
      4. f(x_1,...,x_n) = (x_1,1)(x_2,1)...(x_n,1) for all tuples, decided
         by `_coset_mismatch` in O(n|G|^2);
      5. the embedded coset generates the whole cover.
    Any failure raises PropertyFailure with the property index.
    """
    d = as_derived(p, caps)
    base = d.base
    n = d.n
    m = n - 1
    q = base.order
    _caps.check(caps, "cover table", (m * q) ** 2, caps.max_tabulate)

    names = [f"{base.name(g)}_{i}" for i in range(m) for g in range(q)]
    table = []
    by_b = base.column(d.b)  # x -> x . b
    for i in range(m):
        for row in base.table:
            # row g: g . theta^i(h) over h, times b where the grades carry
            plain = list(map(row.__getitem__, d.theta_pows[i]))
            carry = list(map(by_b.__getitem__, plain))
            table.append([(i + j) % m * q + x for j in range(m)
                          for x in (carry if i + j >= m else plain)])
    e = base.identity  # (e, 0)
    group = TableGroup(names, table, e, [row.index(e) for row in table], name="cover")

    # property 1: embedding is the coset R(e,1)
    e1 = q + e
    coset = {group.mul(r, e1) for r in range(q)}
    image = {q + g for g in range(q)}
    if coset != image:
        raise PropertyFailure(1, f"embedded coset mismatch: {sorted(coset)}")

    # property 2: R's block holds the base's rows, and the retract at 0 is
    # the base twisted by its identity s, x*y = x.s^-1.y, so x -> x.s maps
    # R onto it; the map is a bijection, a right translation of the base
    ret = retract(d, 0, caps)
    s = ret.identity
    images = tuple(base.mul(x, s) for x in range(q))
    for x in range(q):
        row = ret.table[images[x]]
        got = tuple(map(images.__getitem__, table[x][:q]))
        if got != tuple(map(row.__getitem__, images)):
            y = next(y for y in range(q) if got[y] != row[images[y]])
            raise PropertyFailure(2, f"x -> x.s not multiplicative onto the retract at {x},{y}")

    # property 3: grade map is a homomorphism; it is onto Z_(n-1) with
    # kernel R by the numbering of the pairs. A row's grades are read in
    # one C-level map and compared with grade(u) + grade(v) over v.
    grades = [tuple((i + v // q) % m for v in range(m * q)) for i in range(m)]
    for u, row in enumerate(group.table):
        want = grades[u // q]
        if tuple(map(q.__rfloordiv__, row)) != want:
            v = next(v for v, c in enumerate(row) if c // q != want[v])
            raise PropertyFailure(3, f"grade map not multiplicative at {u},{v}")

    # property 4: the n-ary operation is the n-fold product of embeddings
    bad = _coset_mismatch(d, ret, group.table)
    if bad:
        raise PropertyFailure(4, f"product mismatch at {bad[0]}")

    # property 5: the embedded coset generates
    if len(subgroup_closure(group, image)) != m * q:
        raise PropertyFailure(5, "embedded coset does not generate")

    return PostCover(d, group, Hom(base, ret, images))


def _coset_mismatch(d, ret, rows):
    """A tuple where the n-fold product (x_1,1)...(x_n,1), taken left to
    right in the cover table `rows`, differs from (f(x_1,...,x_n),1), f
    being the operation of the derived group d the table was built from,
    as (tuple, expected, got); else None. ret is d's retract at 0.

    When `rows` is a group table whose grade map is a homomorphism, the
    grade-1 coset under the n-fold product is an n-ary group on d's
    carrier, as d is. Two n-ary groups on one carrier with the same
    Hosszú–Gluskin data at one anchor are equal, since each is rebuilt
    from it, so the data at anchor 0 is compared: the retract rows
    f(x, 0^(n-2), y), then theta_0(x) = f(s, x, 0^(n-2)) and
    b_0 = f(s, ..., s) with s = skew 0, the retract's identity, which the
    two share once their retracts agree. That is O(n|G|^2) work, not
    |G|^n tuples.
    """
    q, n = d.order, d.n
    mid = (0,) * (n - 2)

    def times_zeros(c):  # c . (0,1)^(n-2)
        for _ in mid:
            c = rows[c][q]
        return c

    for x, row in enumerate(ret.table):
        got = rows[times_zeros(q + x)][q:2 * q]
        want = tuple(v + q for v in row)
        if got != want:
            y = _first_difference(got, want)
            return (x,) + mid + (y,), want[y], got[y]
    s = ret.identity
    got = tuple(times_zeros(rows[q + s][q + x]) for x in range(q))
    want = tuple(v + q for v in d.line((s, None) + mid, 1))
    if got != want:
        x = _first_difference(got, want)
        return (s, x) + mid, want[x], got[x]
    got = q + s
    for _ in range(n - 1):
        got = rows[got][q + s]
    want = q + d.f([s] * n)
    if got != want:
        return (s,) * n, want, got
    return None


def _product_mismatch(p, images, row_of, caps=_caps.DEFAULT):
    """The least tuple where images[x_1] ... images[x_n] differs from
    images[f(x_1, ..., x_n)], as (tuple, expected, got), else None. p is a
    derived group, and row_of(c) is the tuple of products c . images[x]
    over x.

    The (n-1)-prefixes are walked depth first in lexicographic order,
    keeping one prefix product per level: in p through its step tables,
    and in the target. Each prefix compares one row of |G| values, the
    products over the last argument, and the walk stops at the first row
    that differs. It visits at most caps.max_axiom_tuples rows and holds
    O(n |G|) values, where the whole table would hold |G|^n.
    """
    n, g, steps = p.n, p.order, p.steps
    last = n - 2  # the prefix x_1 .. x_(n-1) at levels 0 .. n-2
    got_row = cache(row_of)
    want_row = cache(lambda s: tuple(map(images.__getitem__, steps[last][s])))
    x = [-1] * (n - 1)
    src, tgt = [0] * (n - 1), [0] * (n - 1)
    rows = 0
    k = 0
    while k >= 0:
        x[k] += 1
        if x[k] == g:
            x[k] = -1
            k -= 1
            continue
        if k:
            src[k] = steps[k - 1][src[k - 1]][x[k]]
            tgt[k] = got_row(tgt[k - 1])[x[k]]
        else:
            src[0], tgt[0] = x[0], images[x[0]]
        if k < last:
            k += 1
            continue
        rows += 1
        _caps.check(caps, "product rows", rows, caps.max_axiom_tuples)
        want, got = want_row(src[last]), got_row(tgt[last])
        if want != got:
            y = _first_difference(got, want)
            return tuple(x) + (y,), want[y], got[y]
    return None


def extend_hom_to_cover(cover, beta, target, caps=_caps.DEFAULT):
    """The unique group homomorphism on the cover restricting to beta.

    beta maps the n-ary group's carrier into target (a sequence of
    target indices). The extension is `hom_from_generator_images` with the
    embedded elements as generators, which generate the cover (property
    5). It exists exactly when beta(f(x_1..x_n)) is the product of the
    beta(x_i) in target: the cover is universal for such maps (Post), and
    an extension carries f to that product by property 4. So only a clash
    runs the product check, which names the least tuple where beta fails,
    within caps.
    """
    hom, reason = hom_from_generator_images(cover.group, target, cover.embedded(), beta)
    if reason is None:
        return hom
    bad = _product_mismatch(
        cover.polyadic, beta, lambda c: tuple(target.mul(c, y) for y in beta), caps
    )
    raise NotPolyadicHom(*bad)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class PolyadicPresentation:
    """Generators plus relations between coefficient-free n-ary terms;
    the terms' variable indices refer to the generator list."""

    generators: tuple
    relations: tuple  # pairs of terms


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple  # FreeWords


def positive_form(w):
    """The relator or its inverse, whichever has nonnegative height."""
    return w.inv() if w.height < 0 else w


def presentation_to_group(pres, n, caps=_caps.DEFAULT):
    """Ordinary presentation of the cover of a presented n-ary group.

    Each relation u = v flattens through the cover laws (operation to
    concatenation, skew to the (2-n)-th power) and contributes the
    reduced relator u v^-1. Relator heights are always divisible by n-1.
    max_tabulate caps the runs a skew's power is built from.
    """
    check_arity(n)
    if not pres.generators:
        raise EmptyGeneratorSet()
    relators = []
    for u, v in pres.relations:
        wu = term_to_free_word(u, pres.generators, n, caps)
        wv = term_to_free_word(v, pres.generators, n, caps)
        r = wu * wv.inv()
        if r.height % (n - 1) != 0:
            raise PolyadicError(f"relator height {r.height} not divisible by {n - 1}")
        if not r.is_empty():
            relators.append(r)
    return GroupPresentation(tuple(pres.generators), tuple(relators))


# ---------------------------------------------------------------------------
# coset enumeration


def _conjugates(pres, caps):
    """The distinct cyclic conjugates of the relators and their inverses,
    as tuples of columns (2i for generator i, 2i+1 for its inverse) listed
    by first column. A relator of period p has p distinct rotations, and
    its inverse p others: no nontrivial element of a free group is
    conjugate to its inverse. Their letters are capped before they are
    built."""
    gen_pos = {g: i for i, g in enumerate(pres.generators)}
    conjugates = [[] for _ in range(2 * len(pres.generators))]
    size = 0
    for w in pres.relators:
        for g, _ in w.runs:
            if g not in gen_pos:
                raise PolyadicError(f"relator uses unknown generator {g!r}")
        _caps.check(caps, "relator conjugates", size + 2 * len(w), caps.max_tabulate)
        rel, inv = (
            "".join(chr(2 * gen_pos[g] + (e < 0)) * abs(e) for g, e in r.runs)
            for r in (w, w.inv())
        )
        if not rel:
            continue
        period = (rel + rel).find(rel, 1)
        size += 2 * period * len(rel)
        _caps.check(caps, "relator conjugates", size, caps.max_tabulate)
        for r in (rel, inv):
            for i in range(period):
                rot = tuple(map(ord, r[i:] + r[:i]))
                conjugates[rot[0]].append(rot)
    return conjugates


def coset_enumerate(pres, cap=10_000, caps=_caps.DEFAULT):
    """Enumerate cosets of the trivial subgroup for a finite presentation.

    Felsch strategy driven by a deduction stack (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, ch. 5). Every new table entry
    (a, c) is pushed as a deduction; popping it scans, and fills where one
    entry is missing, the cyclic conjugates of the relators and their
    inverses that start with column c at coset a. Coincidences merge into
    the lesser coset, so table entries always name live cosets. A new
    coset is defined only when the stack is empty, which is the fixed
    point of scanning every relator at every coset, and only at the first
    gap: the least live coset with an empty entry, in its least empty
    column. So the numbering is deterministic. The cap counts every coset
    ever defined, merged ones included: if more than cap would be defined
    the enumeration stops with CapExceeded; that outcome makes no claim
    about the group being infinite. On closure, returns the group as a
    TableGroup with elements named c0, c1, ... in breadth-first order from
    c0 = 1, read off that search's spanning tree by `_regular_group`: a
    complete coset table of the trivial subgroup is the regular action,
    which a certificate checks in place of validate_group, so `cap`
    bounds the order, and max_tabulate the table's N^2 entries.
    """
    if not pres.generators:
        raise EmptyGeneratorSet()
    if cap < 1:
        raise PolyadicError("cap must be at least 1")
    ncols = 2 * len(pres.generators)
    conjugates = _conjugates(pres, caps)
    singles = [w for ws in conjugates for w in ws if len(w) == 1]

    table = [[None] * ncols]
    rep = [0]
    deductions = []

    def find(a):
        root = a
        while rep[root] != root:
            root = rep[root]
        while rep[a] != root:
            rep[a], a = root, rep[a]
        return root

    def coincide(a, b):
        """Merge a and b, and every pair that forces, into lesser cosets."""
        dead = deque()

        def merge(x, y):
            x, y = find(x), find(y)
            if x != y:
                if y < x:
                    x, y = y, x
                rep[y] = x
                dead.append(y)

        merge(a, b)
        while dead:
            g = dead.popleft()
            for c in range(ncols):
                d = table[g][c]
                if d is None:
                    continue
                ci = c ^ 1
                table[d][ci] = None
                mu, nu = find(g), find(d)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c])
                elif table[nu][ci] is not None:
                    merge(mu, table[nu][ci])
                else:
                    table[mu][c] = nu
                    table[nu][ci] = mu
                    deductions.append((mu, c))

    def scan(a, w):
        """Trace relator cycle w at coset a; fill a single gap."""
        f, i, end = a, 0, len(w)
        while i < end:
            nxt = table[f][w[i]]
            if nxt is None:
                break
            f = nxt
            i += 1
        else:
            if f != a:
                coincide(f, a)
            return
        b, j = a, end - 1
        while j >= i:
            prv = table[b][w[j] ^ 1]
            if prv is None:
                break
            b = prv
            j -= 1
        if j < i:
            coincide(f, b)
        elif j == i:
            table[f][w[i]] = b
            table[b][w[i] ^ 1] = f
            deductions.append((f, w[i]))

    def close(b):
        """Scan the one-letter relators at new coset b, then every deduction."""
        for w in singles:
            scan(b, w)
        while deductions:
            a, c = deductions.pop()
            for w in conjugates[c]:
                if rep[a] != a:
                    break
                scan(a, w)

    close(0)
    a = c = 0
    while a < len(table):
        if c == ncols or rep[a] != a:
            a, c = a + 1, 0
        elif table[a][c] is not None:
            c += 1
        else:
            if len(table) >= cap:
                raise CapExceeded(cap)
            b = len(table)
            table.append([None] * ncols)
            rep.append(b)
            table[a][c] = b
            table[b][c ^ 1] = a
            deductions.append((a, c))
            close(b)

    return _regular_group(table, caps)


def _regular_group(table, caps=_caps.DEFAULT):
    """The group whose regular action is the closed coset table, certified.

    table[x][c] is coset x times column c (2i for generator i, 2i+1 for
    its inverse), and coset 0 is the trivial subgroup; rows no entry
    reaches from 0 are ignored. Cosets are labelled c0, c1, ... breadth-first
    from c0 = 1, so each label y > 0 is parent(y) . col(y) in that search's
    spanning tree, and the product x * y traces y's tree word from x. The
    search walks the table itself, not `groups.cayley_walk`: the table is
    not known to be a group until the certificate proves it.

    The certificate: every column is a permutation with column c^1 its
    inverse, and the row of each generator g (g * y over y) commutes with
    every column. The columns generate a transitive permutation group P;
    the generator rows lie in its centraliser, and the orbit of c0 under
    them is closed under the columns, so that centraliser is transitive.
    The centraliser of a transitive group is semiregular, so it is regular,
    hence so is P, and the table read out is the Cayley table of P. It
    costs O(N * ncols^2), where validate_group costs O(N^2 * ncols). A
    failure raises NotRegular. Its N^2 entries are refused past
    max_tabulate, as "group table", before any row is built.
    """
    order = [0]
    label = {0: 0}
    tree = []
    for x in order:
        for c, y in enumerate(table[x]):
            if y not in label:
                tree.append((label[x], c))
                label[y] = len(order)
                order.append(y)
    size = len(order)
    _caps.check(caps, "group table", size * size, caps.max_tabulate)
    act = [[label[y] for y in table[x]] for x in order]
    cols = list(zip(*act))
    ident = tuple(range(size))
    for c, col in enumerate(cols):
        if tuple(map(cols[c ^ 1].__getitem__, col)) != ident:
            raise NotRegular(f"column {c ^ 1} does not invert column {c}")

    def row_of(g):
        """g * y for every y, as g * y = (g * parent(y)) . col(y)."""
        row = [g]
        for p, c in tree:
            row.append(act[row[p]][c])
        return row

    gen_rows = [row_of(g) for g in act[0]]
    for c, row in enumerate(gen_rows):
        for d, col in enumerate(cols):
            if list(map(row.__getitem__, col)) != list(map(col.__getitem__, row)):
                raise NotRegular(f"generator row {c} does not commute with column {d}")

    # x * y = parent(x) * (col(x) * y): compose rows with generator rows, and
    # y^-1 = col(y)^-1 * parent(y)^-1
    mul_table = [ident]
    inverses = [0]
    for p, c in tree:
        mul_table.append(tuple(map(mul_table[p].__getitem__, gen_rows[c])))
        inverses.append(gen_rows[c ^ 1][inverses[p]])
    names = [f"c{i}" for i in range(size)]
    return TableGroup(names, mul_table, 0, inverses, name="presented")
