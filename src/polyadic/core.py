"""Polyadic (n-ary) groups, n >= 3.

An n-ary group is a set with one n-ary operation f that is associative in
every position and uniquely solvable in every position. Both forms share
one carrier, `PolyadicGroup`. A derived group is its derivation data: a
binary group, a twisting automorphism theta and a constant b with

    f(x_1,...,x_n) = x_1 . theta(x_2) . theta^2(x_3) ... theta^(n-1)(x_n) . b,

subject to theta(b) = b and theta^(n-1)(x) = b . x . b^(-1); a table form
holds f as a flat row-major table over named elements. A derived group's
axioms and recovery come from its data. What reads the whole of f reads a
table, which `tabulate` alone builds for a derived group, under the caps
of its call. Equations are solved over the derived form: a table form over
its recovery, `as_derived`, which refuses a table that is not an n-ary group.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import attrgetter
from typing import Optional

from . import caps as _caps
from .errors import (
    ArityMismatch,
    ConditionOneFails,
    ConditionTwoFails,
    NoIdentity,
    NoSolution,
    PolyadicError,
    ReconstructionMismatch,
)
from .groups import (
    Carrier,
    GroupAutomorphism,
    enumerate_homs,
    hom_generators,
    identity_automorphism,
    psi_u,
    subgroups,
    validate_group,
)


class PolyadicGroup(Carrier):
    """An n-ary group: its carrier (see `groups.Carrier`) and the arity n.
    Each form defines f, line and skew."""

    def __init__(self, names, n, index=None):
        super().__init__(names, index)
        self.n = n

    def _check_arity(self, args):
        if len(args) != self.n:
            raise ArityMismatch(self.n, len(args))


class DerivedPolyadicGroup(PolyadicGroup):
    """Its derivation data: base, theta, b and n, sharing the base's
    carrier; f is computed from them, and no table of f is held.

    An instance is trusted to be an n-ary group because `derive`, its one
    constructor, checks both derivation conditions. So `verify_axioms`,
    `hosszu_gloskin` and `build_post_cover` decide it from that data
    (Hosszú–Gluskin; Post), with no order**n table.

    `steps` holds n-1 tables with
    f(x_1, ..., x_n) = steps[n-2][...steps[0][x_1][x_2]...][x_n], built on
    first use. n is bounded, as "arity", by what the instance builds: n
    powers of theta, each a tuple of |G| entries, and the n - 1 step
    tables, each |G| tuples of |G| entries in one more tuple, every tuple
    counted as one entry of its own, against max_tabulate."""

    def __init__(self, base, theta, b, n, caps=_caps.DEFAULT):
        g = base.order
        _caps.check(caps, "arity", n * (g + 1) + (n - 1) * (g * g + g + 1), caps.max_tabulate)
        super().__init__(base._names, n, base._index)
        self.base = base
        self.theta = theta
        self.b = b
        self.theta_pows = theta.powers(n)  # theta_pows[k][x] = theta^k(x)

    @cached_property
    def steps(self):
        """Level k-1 holds the rows x -> v . theta^k(x) over v, each base row
        mapped through theta^k, with b folded into the last level."""
        rows = self.base.table
        steps = [
            tuple(tuple(map(row.__getitem__, tk)) for row in rows)
            for tk in self.theta_pows[1:]
        ]
        by_b = tuple(row[self.b] for row in rows)  # y -> y . b
        steps[-1] = tuple(tuple(map(by_b.__getitem__, row)) for row in steps[-1])
        return tuple(steps)

    def f(self, args):
        self._check_arity(args)
        rows, tp = self.base.table, self.theta_pows
        acc = args[0]
        for k in range(1, self.n):
            acc = rows[acc][tp[k][args[k]]]
        return rows[acc][self.b]

    def line(self, args, pos):
        """L . theta^pos(x) . R over x, L and R the products of the factors
        before and after position pos, b included in R: n + order row
        lookups, without a table of f."""
        rows, tp = self.base.table, self.theta_pows
        left, right = self.base.identity, self.b
        for k in range(pos):
            left = rows[left][tp[k][args[k]]]
        for k in range(self.n - 1, pos, -1):
            right = rows[tp[k][args[k]]][right]
        row = rows[left]
        return tuple(rows[row[t]][right] for t in tp[pos])

    def skew(self, x):
        # b^-1 . (theta(x) . theta^2(x) ... theta^(n-2)(x))^-1
        rows, inv, tp = self.base.table, self.base.inverses, self.theta_pows
        acc = self.base.identity
        for k in range(1, self.n - 1):
            acc = rows[acc][tp[k][x]]
        return rows[inv[self.b]][inv[acc]]

    def __repr__(self):
        return f"DerivedPolyadicGroup(order={self.order}, n={self.n})"


class TablePolyadicGroup(PolyadicGroup):
    """n-ary operation stored as `flat`: f on every n-tuple of element
    indices, as one row-major tuple of order**n values."""

    def __init__(self, element_names, n, flat_table):
        super().__init__(element_names, n)
        if len(flat_table) != self.order ** n:
            raise PolyadicError("table size does not match order**n")
        self.flat = tuple(flat_table)
        self._skew_cache = {}

    def f(self, args):
        self._check_arity(args)
        idx = 0
        for a in args:
            idx = idx * self.order + a
        return self.flat[idx]

    def line(self, args, pos):
        """f(args) with args[pos] running over the carrier, in order: one
        strided slice of flat, a row when pos is the last position."""
        g = self.order
        step = g ** (self.n - 1 - pos)
        start = 0
        for k, x in enumerate(args):
            start = start * g + (0 if k == pos else x)
        return self.flat[start:start + g * step:step]

    def skew(self, x):
        """The unique y with f(x,...,x,y) = x."""
        if x not in self._skew_cache:
            self._skew_cache[x] = skew_search(self, x)
        return self._skew_cache[x]

    def __repr__(self):
        return f"TablePolyadicGroup(order={self.order}, n={self.n})"


def check_arity(n):
    """The one check of an arity n, made by every entry point that takes
    one before it builds anything of size n: below 3 raises PolyadicError.
    Each form bounds n by the tables it builds itself."""
    if n < 3:
        raise PolyadicError("arity must be at least 3")


def derive(base, theta, b, n, caps=_caps.DEFAULT):
    """Build the derived n-ary group, checking both derivation conditions.
    The refusals come in order: an arity below 3, an arity past what the
    group builds (see `DerivedPolyadicGroup`), condition one, condition
    two."""
    check_arity(n)
    d = DerivedPolyadicGroup(base, theta, b, n, caps=caps)
    if theta(b) != b:
        raise ConditionOneFails(b, theta(b))
    top = d.theta_pows[n - 1]
    rows, binv = base.table, base.inv(b)
    for x, y in enumerate(rows[b]):  # y = b . x
        rhs = rows[y][binv]
        if top[x] != rhs:
            raise ConditionTwoFails(x, top[x], rhs)
    return d


def derive_from_constant(base, b, n, caps=_caps.DEFAULT):
    """f = plain n-fold product followed by b; needs b central."""
    return derive(base, identity_automorphism(base), b, n, caps=caps)


def eval_f(p, args):
    return p.f(args)


def polyadic_from_table(element_names, n, flat_table, caps=_caps.DEFAULT):
    """The table form, refused when its order**n table, a one-element
    carrier counted as two, passes max_tabulate. That table holds at least
    2**n entries, so an n past the cap's bit length is refused before the
    power is taken. An empty carrier is refused first, as NoIdentity."""
    if not element_names:
        raise NoIdentity()
    check_arity(n)
    _caps.check(caps, "arity", n, caps.max_tabulate.bit_length())
    _caps.check(caps, "n-ary table", max(len(element_names), 2) ** n, caps.max_tabulate)
    return TablePolyadicGroup(element_names, n, flat_table)


def tabulate(p, caps=_caps.DEFAULT):
    """p in table form: a table form as it is; a derived group's table, the
    prefix products over its step tables, built here and only here, and
    refused first when its order**n entries pass caps.max_tabulate."""
    if isinstance(p, TablePolyadicGroup):
        return p
    _caps.check(caps, "n-ary table", p.order ** p.n, caps.max_tabulate)
    flat = prefix_products(p.elements(), [rows.__getitem__ for rows in p.steps])
    return TablePolyadicGroup(p._names, p.n, flat)


def prefix_products(level, extend):
    """Extend every value of level by each of extend in turn: extend[k](v)
    is the row of products v . x over the next argument x, in order, and
    the next level joins the rows of the values, so the result lists the
    products in lexicographic order of the arguments. Each row is computed
    once per distinct value of its level."""
    for depth, row_of in enumerate(extend, 1):
        rows = {v: row_of(v) for v in set(level)}
        joined = chain.from_iterable(map(rows.__getitem__, level))
        # inner levels are lists: tuple() of an iterator grows by repeated
        # resizes, which raised the peak memory of `coordgroup`; the last
        # is built as the tuple itself, so no list copy of it is alive
        level = list(joined) if depth < len(extend) else tuple(joined)
    return tuple(level)


def _decode(g, n, i):
    """The n-tuple at index i of a row-major table over g elements."""
    return tuple(i // g ** (n - 1 - k) % g for k in range(n))


def _first_difference(got, want):
    return next(i for i, (u, v) in enumerate(zip(got, want)) if u != v)


def skew_search(p, x):
    """Brute-force skew: scan for the unique y with f(x^(n-1), y) = x."""
    row = p.line([x] * p.n, p.n - 1)
    sols = [y for y, v in enumerate(row) if v == x]
    if len(sols) != 1:
        raise NoSolution(
            f"skew of {x}: {len(sols)} solutions, operation is not a polyadic group"
        )
    return sols[0]


def skew_table(p):
    return tuple(p.skew(x) for x in p.elements())


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    associative: bool
    associativity_witness: Optional[tuple]  # (i, j, tuple, value_i, value_j)
    solvable: bool
    solvability_witness: Optional[tuple]    # (position, args-with-None, target)
    unique: bool
    uniqueness_witness: Optional[tuple]


def verify_axioms(p, caps=_caps.DEFAULT):
    """Associativity (all position pairs) and unique solvability (every
    position) of p's operation.

    A derived group is an n-ary group by its checked derivation data, so
    it is reported ok, with no scan and no cap consulted. For a table,
    success is proved by reconstruction: when `hosszu_gloskin(p, 0)` rebuilds
    f on all |G|^n tuples from a validated retract, automorphism and
    constant, f is a derived operation, and every derived operation is
    associative and uniquely solvable. When that proof fails, the exhaustive
    |G|^(2n-1) scans decide, so witnesses are the lexicographically least
    violations. The max_axiom_tuples cap bounds each path's own work:
    |G|^n tuples before the reconstruction, |G|^(2n-1) before the scans;
    max_tabulate bounds the two |G|^n tables the reconstruction compares.
    The report never raises on mathematical failure.
    """
    if isinstance(p, DerivedPolyadicGroup):
        return _report(None, None)
    n, g = p.n, p.order
    _caps.check(caps, "reconstruction tuples", g ** n, caps.max_axiom_tuples)
    try:
        hosszu_gloskin(p, 0, caps=caps)
    except PolyadicError:
        _caps.check(
            caps, "associativity tuples", g ** (2 * n - 1), caps.max_axiom_tuples
        )
        return _verify_axioms_exhaustive(p)
    return _report(None, None)


def _verify_axioms_exhaustive(p):
    """Scan every (2n-1)-tuple of the table p for associativity and every
    line of f (one position running over the carrier, the rest fixed) for
    a repeated value; the oracle behind `verify_axioms`. A line misses a
    value exactly when it repeats one, so solvability never fails on its
    own."""
    n, g = p.n, p.order
    strides = [g ** (n - 1 - k) for k in range(n)]
    return _report(_assoc_scan_flat(n, g, p.flat, strides), _first_repeat(p))


def _report(assoc_witness, uniq_witness):
    return AxiomReport(
        ok=assoc_witness is None and uniq_witness is None,
        associative=assoc_witness is None,
        associativity_witness=assoc_witness,
        solvable=True,
        solvability_witness=None,
        unique=uniq_witness is None,
        uniqueness_witness=uniq_witness,
    )


def _first_repeat(p):
    """(position, rest, value, first x, second x) for the first line of
    the table p, in position-major order, where two x give the same value;
    else None."""
    g = p.order
    for pos in range(p.n):
        for rest in product(range(g), repeat=p.n - 1):
            line = p.line(rest[:pos] + (None,) + rest[pos:], pos)
            if len(set(line)) < g:
                x = next(x for x in range(g) if line[x] in line[:x])
                return (pos, rest, line[x], line.index(line[x]), x)
    return None


def _assoc_scan_flat(n, g, flat, strides):
    """First tuple where the n insertion positions disagree, else None.

    A (2n-1)-tuple splits into a head t_0..t_(n-1) and a suffix
    t_n..t_(2n-2); heads in lexicographic order, each followed by its
    g^(n-1) suffixes in order, is lexicographic order on the tuples. For one
    head, the values of f(t_0..t_(i-1), f(t_i..t_(i+n-1)), rest) over all
    suffixes form one block of the flat table taken as bytes:

    - i = 0: the row of f(head), flat[w*g^(n-1) : (w+1)*g^(n-1)];
    - 0 < i < n-1: the suffix's first i digits finish the inner window, whose
      g^i values are one contiguous slice; each picks one of the g chunks of
      length g^(n-1-i) after the prefix, and the block is their join;
    - i = n-1: the inner values are the row of t_(n-1), mapped through the
      g-entry row after the prefix with `bytes.translate`.

    The blocks are compared with `==`. In the first head whose blocks
    differ, the least suffix where a block leaves the first one, and the
    first block to leave it there, give the witness (1, j, tuple, value_1,
    value_j). Orders above 256 do not fit in a byte; there the blocks are
    tuples.
    """
    span = strides[0]  # g**(n-1) suffixes per head
    if g > 256:
        table, pad = tuple(flat), ()

        def join(parts):
            return tuple(chain.from_iterable(parts))

        def translate(block, row):
            return tuple(map(row.__getitem__, block))
    else:
        table, pad = bytes(flat), bytes(256 - g)
        join, translate = b"".join, bytes.translate

    middles = []  # (window cut, chunk width, inner count, chunks) per 0<i<n-1
    for i in range(1, n - 1):
        width = strides[i]
        chunks = [table[k:k + width] for k in range(0, g * span, width)]
        middles.append((strides[i - 1], width, g ** i, chunks))

    for h in range(g * span):
        w = table[h]
        found = [table[w * span:(w + 1) * span]]
        for cut, width, count, chunks in middles:
            tail = h % cut
            at = (h - tail) // width
            lo = tail * count
            found.append(join(map(chunks[at:at + g].__getitem__, table[lo:lo + count])))
        last = h % g
        row = table[h - last:h - last + g] + pad
        found.append(translate(table[last * span:(last + 1) * span], row))
        first = found[0]
        if found.count(first) == n:
            continue
        s = min(_first_difference(b, first) for b in found if b != first)
        j = next(j for j, b in enumerate(found) if b[s] != first[s])
        t = _decode(g, n, h) + _decode(g, n - 1, s)
        return (1, j + 1, t, first[s], found[j][s])
    return None


def dornte_check(p):
    """Skew-element cancellation identities at every position.

    For 2 <= i <= n checks f(x^(i-2), skew x, x^(n-i), y) = y and the mirror
    f(y, x^(n-i), skew x, x^(i-2)) = y for all x, y. Returns (ok, witness);
    the witness is ("no-skew", x) when x has no unique skew element.
    A derived group is an n-ary group by its checked derivation data, and
    the identities hold in every n-ary group (Dörnte, 1929), so it is
    answered with no scan, as `verify_axioms` answers it.
    """
    if isinstance(p, DerivedPolyadicGroup):
        return True, None
    n = p.n
    for x in p.elements():
        try:
            sx = p.skew(x)
        except NoSolution:
            return False, ("no-skew", x)
        for i in range(2, n + 1):
            block = [x] * (i - 2) + [sx] + [x] * (n - i)
            left = p.line(block + [None], n - 1)
            right = p.line([None] + block[::-1], 0)
            for y in p.elements():
                if left[y] != y:
                    return False, ("left", i, x, y, left[y])
                if right[y] != y:
                    return False, ("right", i, x, y)
    return True, None


# ---------------------------------------------------------------------------
# retracts and recovery


def retract(p, a, caps=_caps.DEFAULT):
    """Binary group on the same carrier: x*y = f(x, a^(n-2), y), validated
    under caps.

    The identity is skew(a); the inverse of x is f(skew a, x^(n-3), skew x,
    skew a), cross-checked against the computed table.
    """
    mid = [a] * (p.n - 2)
    names = p.names()
    table = [p.line([x] + mid + [None], p.n - 1) for x in p.elements()]
    g = validate_group(names, table, name=f"ret_{p.name(a)}", caps=caps)
    sa = p.skew(a)
    if g.identity != sa:
        raise ReconstructionMismatch(("identity", a), sa, g.identity)
    for x in p.elements():
        formula = p.f([sa] + [x] * (p.n - 3) + [p.skew(x), sa])
        if formula != g.inv(x):
            raise ReconstructionMismatch(("inverse", x), g.inv(x), formula)
    return g


def nary_identity(p):
    """Lowest element a with f(a^(i-1), x, a^(n-i)) = x everywhere, or None.

    A table is scanned, all n lines through (a, ..., a). A derived group is
    an n-ary group, and there the line at position 1 decides: if
    f(a, x, a^(n-2)) = x for every x, then x = a gives f(a, ..., a) = a, so
    skew(a) = a; the line is then theta_a and b_a = f(a, ..., a) = a, and
    by Hosszú–Gluskin at anchor a, f is the n-fold product of the retract
    at a, whose identity is skew(a) = a. One line per a, not n."""
    ident = tuple(p.elements())
    positions = (1,) if isinstance(p, DerivedPolyadicGroup) else range(p.n)
    for a in p.elements():
        if all(p.line([a] * p.n, i) == ident for i in positions):
            return a
    return None


def hosszu_gloskin(p, a, caps=_caps.DEFAULT):
    """Recover (retract group, twisting automorphism, constant) at anchor a.

    theta_a(x) = f(skew a, x, a^(n-2)) and b_a = f(skew a, ..., skew a).
    The retract, theta_a and the derivation conditions are validated, and
    the data is returned as a derived polyadic group over the retract. On
    a table, it is also checked to rebuild f exactly, as the recovery's
    `tabulate` against p's flat table; a mismatch names the least
    differing tuple. A derived p needs no such check: it is an n-ary
    group, so its recovery rebuilds f by the Hosszú–Gluskin theorem. The
    retract and the recovery's table are checked against caps.
    """
    g = retract(p, a, caps=caps)
    sa = p.skew(a)
    theta_images = p.line([sa, None] + [a] * (p.n - 2), 1)
    theta = GroupAutomorphism(g, theta_images)
    if not theta.is_valid():
        raise ReconstructionMismatch(("theta", a), "automorphism", theta_images)
    b = p.f([sa] * p.n)
    out = derive(g, theta, b, p.n, caps=caps)
    if isinstance(p, DerivedPolyadicGroup):
        return out
    flat = tabulate(out, caps).flat
    if flat != p.flat:
        i = _first_difference(flat, p.flat)
        raise ReconstructionMismatch(_decode(p.order, p.n, i), p.flat[i], flat[i])
    return out


def as_derived(p, caps=_caps.DEFAULT):
    """p itself if already derived, else the anchor-0 recovery under caps."""
    if isinstance(p, DerivedPolyadicGroup):
        return p
    return hosszu_gloskin(p, 0, caps=caps)


# ---------------------------------------------------------------------------
# subobjects and morphisms


def polyadic_subgroups(p, caps=_caps.DEFAULT):
    """All carriers of polyadic subgroups, via the twisted-group criterion.

    In the twist of the base by u the operation satisfies
    f(x_1,...,x_n) = x_1 * psi_u(x_2) * ... * psi_u^(n-1)(x_n) * f(u,...,u),
    so a subset H is a polyadic subgroup exactly when, for some u, it is a
    psi_u-invariant subgroup of the twist containing f(u,...,u). The twist's
    subgroups are the translates K . u of the base's subgroups K, as
    x -> x . u is an isomorphism. Returns sorted tuples of element indices.
    The translates hold N * sum(|K|) elements over the base's lattice, and
    past max_axiom_tuples they are refused, as "subgroup translates",
    before the first is built.
    """
    d = as_derived(p, caps)
    base, theta = d.base, d.theta
    lattice = subgroups(base, caps)
    _caps.check(
        caps, "subgroup translates", d.order * sum(map(len, lattice)), caps.max_axiom_tuples
    )
    found = set()
    for u in base.elements():
        fu = d.f([u] * d.n)
        psi = psi_u(base, theta, u)
        by_u = base.right(u)
        for sub in lattice:
            coset = set(map(by_u, sub))
            if fu in coset and all(psi[x] in coset for x in coset):
                found.add(tuple(sorted(coset)))
    return tuple(sorted(found, key=lambda s: (len(s), s)))


def closed_subsets_bruteforce(p, caps=_caps.DEFAULT):
    """Oracle: nonempty subsets closed under f and skew, by enumeration.
    The subsets are the maps into a two-element set, capped as
    `polyadic_maps_bruteforce` caps maps, and each enumerates up to |G|^n
    tuples, capped as an axiom scan."""
    _caps.check(caps, "subset enumeration", 2 ** p.order, caps.max_points)
    _caps.check(caps, "oracle tuples", p.order ** p.n, caps.max_axiom_tuples)
    out = []
    els = list(p.elements())
    for mask in range(1, 2 ** p.order):
        sub = [x for x in els if mask >> x & 1]
        inside = set(sub)
        if any(p.skew(x) not in inside for x in sub):
            continue
        if all(
            p.f(list(args)) in inside
            for args in product(sub, repeat=p.n)
        ):
            out.append(tuple(sub))
    return tuple(sorted(out, key=lambda s: (len(s), s)))


@dataclass(frozen=True)
class PolyadicHom:
    """A map preserving the n-ary operation, realized as x -> phi(x) * a."""

    images: tuple
    a: int
    phi: tuple  # image array of the base-group homomorphism

    def __call__(self, x):
        return self.images[x]


def is_polyadic_hom(p, q, images, caps=_caps.DEFAULT):
    """Oracle: whether images preserves f, on all |p|^n tuples."""
    _caps.check(caps, "oracle tuples", p.order ** p.n, caps.max_axiom_tuples)
    return all(
        images[p.f(list(args))] == q.f([images[x] for x in args])
        for args in product(p.elements(), repeat=p.n)
    )


def polyadic_homs(p, q, caps=_caps.DEFAULT):
    """All maps p -> q preserving f, enumerated through the (a, phi) form.

    Every polyadic homomorphism factors as x -> phi(x) * a where phi is a
    homomorphism of the underlying derived groups, a satisfies
    f_q(a,...,a) = phi(b_p) * a, and phi . theta_p = I_a . theta_q . phi
    (I_a = conjugation by a in q's base). Both sides of the last condition
    are homomorphisms of the base groups, so it is checked on a generating
    set of p's base. The map sends p's base identity to a, so distinct
    pairs (a, phi) give distinct maps; they are sorted by image array.
    Raises ArityMismatch when p and q differ in arity.
    """
    if p.n != q.n:
        raise ArityMismatch(p.n, q.n)
    dp, dq = as_derived(p, caps), as_derived(q, caps)
    gb, hb = dp.base, dq.base
    anchors = {}  # c -> the a with f_q(a,...,a) = c * a
    for a in hb.elements():
        anchors.setdefault(hb.mul(dq.f([a] * dq.n), hb.inv(a)), []).append(a)
    gens = hom_generators(gb)
    pairs = [(x, dp.theta(x)) for x in gens]
    out = []
    for phi in enumerate_homs(gb, hb, caps=caps, gens=gens):
        im = phi.images
        for a in anchors.get(im[dp.b], ()):
            if all(im[tx] == hb.conjugate(a, dq.theta(im[x])) for x, tx in pairs):
                images = tuple(map(hb.right(a), im))
                out.append(PolyadicHom(images=images, a=a, phi=im))
    return tuple(sorted(out, key=attrgetter("images")))


def polyadic_maps_bruteforce(p, q, caps=_caps.DEFAULT):
    """Oracle: all f-preserving maps by enumerating every function."""
    _caps.check(caps, "map enumeration", q.order ** p.order, caps.max_points)
    _caps.check(caps, "oracle tuples", p.order ** p.n, caps.max_axiom_tuples)
    tuples = list(product(p.elements(), repeat=p.n))
    out = []
    for images in product(q.elements(), repeat=p.order):
        if all(
            images[p.f(list(args))] == q.f([images[x] for x in args])
            for args in tuples
        ):
            out.append(images)
    return tuple(sorted(out))
