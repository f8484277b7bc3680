"""Equations over a finite polyadic group and their geometry.

A system of term equations in m variables cuts out an algebraic set
inside G^m. The radical of a point set Y is the congruence of term pairs
agreeing everywhere on Y; the coordinate group of Y is the quotient of
the terms by the radical, realized concretely as the set of term
functions on Y, each the tuple of its values on Y: a polyadic subgroup of
the derived power G^|Y|, itself derived (`CoordinateGroup.as_derived`).
Zariski closure, irreducibility, minimal subsystems, and the comparison
between coordinate groups over G and over its cover are all computed
exactly by enumeration at small scale.
"""

from dataclasses import dataclass
from itertools import product
from operator import getitem, itemgetter
from typing import Optional

from . import caps as _caps
from .core import as_derived, derive, derive_from_constant, skew_table, tabulate
from .cover import build_post_cover
from .errors import PolyadicError
from .groups import GroupAutomorphism, TableGroup, dimino, psi_u
from .terms import Apply, Skew, TermCompiler, Variable, eval_term, is_coefficient_free
from .terms import term_variables, validate_term


@dataclass(frozen=True)
class EquationSystem:
    """A finite list of equations over a fixed group, in m variables."""

    p: object
    m: int
    equations: tuple

    def __post_init__(self):
        for eq in self.equations:
            validate_term(eq.left, self.p.n, self.m)
            validate_term(eq.right, self.p.n, self.m)

    def union(self, other):
        if other.m != self.m or other.p is not self.p:
            raise PolyadicError("systems must share the group and variable count")
        return EquationSystem(self.p, self.m, self.equations + other.equations)


@dataclass(frozen=True)
class AlgebraicSet:
    """An explicit point set inside G^m, canonically ordered."""

    m: int
    points: tuple
    system: Optional[EquationSystem] = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt):
        return tuple(pt) in set(self.points)


def solve(p, system, caps=_caps.DEFAULT):
    """Exact solution set of the system: all points of G^m where every
    equation's two sides evaluate equal, in lexicographic order.

    A variable that occurs once in the whole system is a pivot: its
    equation is uniquely solvable for it, so it is computed from the
    others, not searched. A depth-first search binds the other, free,
    variables in index order, trying values in increasing order. It checks
    each equation without a pivot, compiled once, as soon as its last free
    variable is bound, and computes each pivot's values at the same point
    of its own equation; a failed check or a pivot without a value prunes
    every point below that prefix. The points are sorted at the end.

    max_points caps the space searched: |G| to the number of free
    variables, times each pivot's fan-out (`TermCompiler.fanout`)."""
    points = sorted(_points(p, system, caps))
    return AlgebraicSet(m=system.m, points=tuple(points), system=system)


def _points(p, system, caps):
    """The solutions of the system, in search order, one at a time."""
    m = system.m
    counts = [0] * m
    for eq in system.equations:
        _count_variables(eq.left, counts)
        _count_variables(eq.right, counts)
    compile_term = TermCompiler(as_derived(p, caps))
    # at most one pivot per equation: its highest once-occurring variable,
    # which leaves the lowest last free variable
    pivots, checks = [], []
    for eq in system.equations:
        left, right = term_variables(eq.left), term_variables(eq.right)
        once = [x for x in left | right if counts[x] == 1]
        if once:
            x = max(once)
            side, other = (eq.left, eq.right) if x in left else (eq.right, eq.left)
            pivots.append((x, side, other, (left | right) - {x}))
        else:
            checks.append((eq, left | right))
    fixed = {x for x, _, _, _ in pivots}
    free = [x for x in range(m) if x not in fixed]
    space = p.order ** len(free)
    for x, side, _, _ in pivots:
        space *= compile_term.fanout(side, x)
    _caps.check(caps, "solution grid", space, caps.max_points)

    # slot k: what is decided once the first k free variables are bound
    slot = {x: k for k, x in enumerate(free, 1)}
    at_slot = [[] for _ in range(len(free) + 1)]
    for eq, used in checks:
        at_slot[max(map(slot.get, used), default=0)].append(
            (compile_term(eq.left), compile_term(eq.right))
        )
    solved = [[] for _ in range(len(free) + 1)]
    for x, side, other, rest in pivots:
        values = compile_term.solver(side, x, other)
        solved[max(map(slot.get, rest), default=0)].append((x, values, None))
    grid = range(p.order)
    levels = solved[0]
    for k, x in enumerate(free, 1):
        levels.append((x, lambda a: grid, _conjunction(at_slot[k])))
        levels.extend(solved[k])
    a = [0] * m
    first = _conjunction(at_slot[0])
    if first is not None and not first(a):
        return
    if not levels:
        yield ()
        return
    yield from _search(levels, a)


def _search(levels, a):
    """Depth-first search over levels (variable, domain, test): bind the
    variable to each value of domain(a) in turn, keep it when test(a)
    holds or test is None, and yield the assignment at the last level."""
    var, domain, test = zip(*levels)
    last = len(levels) - 1
    its = [None] * len(levels)
    its[0] = iter(domain[0](a))
    d = 0
    while d >= 0:
        for v in its[d]:
            a[var[d]] = v
            if test[d] is None or test[d](a):
                break
        else:
            d -= 1
            continue
        if d == last:
            yield tuple(a)
        else:
            d += 1
            its[d] = iter(domain[d](a))


def _count_variables(t, counts):
    """Add each occurrence of a variable in t to counts."""
    if isinstance(t, Variable):
        counts[t.index] += 1
    elif isinstance(t, Skew):
        _count_variables(t.child, counts)
    elif isinstance(t, Apply):
        for c in t.children:
            _count_variables(c, counts)


def _conjunction(pairs):
    """One predicate over an assignment for a list of compiled equations,
    or None when the list is empty."""
    if not pairs:
        return None
    if len(pairs) == 1:
        left, right = pairs[0]
        return lambda a: left(a) == right(a)
    return lambda a: all(left(a) == right(a) for left, right in pairs)


def radical_member(p, y, s, t):
    """Whether the pair (s, t) lies in the radical of the point set y:
    true exactly when s and t agree at every point (vacuously for empty y)."""
    pts, _ = _point_list(y, p.order)
    return all(eval_term(s, pt, p) == eval_term(t, pt, p) for pt in pts)


def _point_list(y, order):
    """(points, m) of an AlgebraicSet or a plain sequence of points, each
    point a tuple: m is the set's own, or 0 for no plain points. A point
    with another number of coordinates, or with a coordinate that is not
    an element index of a carrier of the given order, raises
    PolyadicError."""
    if isinstance(y, AlgebraicSet):
        pts, m = tuple(map(tuple, y.points)), y.m
    else:
        pts = tuple(map(tuple, y))
        m = len(pts[0]) if pts else 0
    carrier = range(order)
    for pt in pts:
        if len(pt) != m:
            raise PolyadicError(f"point {pt} has {len(pt)} coordinates, not {m}")
        if not all(c in carrier for c in pt):
            raise PolyadicError(f"point {pt} has a coordinate outside 0..{order - 1}")
    return pts, m


# ---------------------------------------------------------------------------
# coordinate groups


@dataclass(frozen=True)
class CoordinateGroup:
    """Term functions on a point set Y: a polyadic subgroup H of the
    derived power (G^|Y|, theta, b), both applied coordinatewise.

    Each function is the tuple of its values at the points of Y, and
    `elements` lists them sorted. They are generated by the m coordinate
    projections (and, unless coefficient free, the diagonal constant
    tuples) under the operation and skew of the source, coordinatewise.
    For empty Y the group is the one empty tuple. In the power twisted by
    any u in H, H is a psi_u-invariant subgroup containing f(u, ..., u),
    so it is der(psi_u, f(u, ..., u)) of that subgroup: `as_derived`.
    """

    source: object
    points: tuple
    m: int
    projections: tuple
    constants: tuple
    elements: tuple

    @property
    def order(self):
        return len(self.elements)

    def restrict(self, t):
        """Image of a term under the natural map onto functions on Y: its
        values at the points."""
        return tuple(eval_term(t, pt, self.source) for pt in self.points)

    def as_derived(self, caps=_caps.DEFAULT):
        """The group as a `DerivedPolyadicGroup`, through `derive`.

        Its base is a `TableGroup` over `elements`, index i standing for
        elements[i], named by its values joined with '_' (the one element
        of an empty Y by "1"). The product is x . u^-1 . y coordinatewise,
        with u = elements[0] the identity at index 0; theta is psi_u and b
        the index of f(u, ..., u). The |H|^2 table is refused past
        max_tabulate, as "coordinate table", before it is built."""
        h = self.elements
        _caps.check(caps, "coordinate table", len(h) ** 2, caps.max_tabulate)
        d = self.source
        base, u = d.base, h[0]
        pos = {x: i for i, x in enumerate(h)}
        rows = base.table
        shift = [base.inv(c) for c in u]
        table = []
        for x in h:
            left = [rows[base.mul(c, s)] for c, s in zip(x, shift)]
            table.append([pos[tuple(map(getitem, left, y))] for y in h])
        element_names = d.names()
        names = ["_".join(map(element_names.__getitem__, x)) for x in h] if self.points else ["1"]
        group = TableGroup(names, table, 0, [row.index(0) for row in table], name="Gamma")
        psi, fu = _twist(d, u)
        theta = GroupAutomorphism(group, [pos[psi(x)] for x in h])
        return derive(group, theta, pos[fu], d.n, caps)

    def as_polyadic(self, caps=_caps.DEFAULT):
        """The group in table form: `as_derived` tabulated, its order**n
        table refused past max_tabulate, as "n-ary table", first."""
        _caps.check(caps, "n-ary table", self.order ** self.source.n, caps.max_tabulate)
        return tabulate(self.as_derived(caps), caps)


def coordinate_group(p, y, with_constants=True, caps=_caps.DEFAULT):
    """Closure of the projections (plus diagonal constants by default)
    under the operation and skew of p, coordinatewise; the concrete
    coordinate group of the point set y."""
    d = as_derived(p, caps)
    pts, m = _point_list(y, d.order)
    k = len(pts)
    columns = tuple(tuple(pt[j] for pt in pts) for j in range(m))
    diagonals = tuple((g,) * k for g in range(d.order)) if with_constants else ()
    if not pts:
        return CoordinateGroup(d, (), m, columns, diagonals, ((),))
    # with constants, H holds |G| constant tuples: refused before the walk
    _caps.check(caps, "closure", d.order if with_constants else 1, caps.max_tabulate // k)
    gens = list(dict.fromkeys(columns + diagonals))
    if not gens:
        raise PolyadicError("no generators: zero variables and no constants")
    _, closed = _term_closure(d, gens, caps, "closure")
    return CoordinateGroup(d, pts, m, columns, diagonals, tuple(sorted(closed)))


def _generated(base, identity, gens, caps, what, psi=None):
    """Subgroup generated by gens in the coordinatewise power of base,
    twisted so that `identity` is its identity (x * y = x . identity^-1 . y)
    and closed under the automorphism psi of that twist when given, as a
    list of coordinate tuples.

    The psi-orbits of gens are generators too, and `groups.dimino` grows
    the subgroup from the identity by cosets, skipping each generator
    already inside. Right multiplication by a kept generator t is the step
    identity^-1 . t, one column lookup per coordinate, built only for the
    generators kept; each new tuple costs one step, plus one per coset
    representative and kept generator. The closure is capped at
    max_tabulate // len(identity), so its tuples hold at most max_tabulate
    entries, like a flat table; cosets are disjoint, so each is refused
    before it is built, with the size the closure would reach.
    """
    found = list(dict.fromkeys(gens))
    if psi is not None:
        seen = set(found)
        for t in found:
            y = psi(t)
            if y not in seen:
                seen.add(y)
                found.append(y)
    limit = caps.max_tabulate // len(identity)
    _caps.check(caps, what, len(found), limit)
    rows = base.table
    shift = [rows[base.inv(c)] for c in identity]

    def step(t):  # x -> x . identity^-1 . t, coordinatewise
        s = list(map(base.column, map(getitem, shift, t)))
        return lambda x: tuple(map(getitem, s, x))

    def check(size):
        _caps.check(caps, what, size, limit)

    return dimino([identity], [], found, step, check)[0]


def _twist(d, u):
    """psi_u and f(u, ..., u) in the power of d twisted by the coordinate
    tuple u, psi_u read from one image row per distinct u_i."""
    rows = {c: psi_u(d.base, d.theta, c) for c in set(u)}
    maps = [rows[c] for c in u]
    return lambda x: tuple(map(getitem, maps, x)), tuple(d.f([c] * d.n) for c in u)


def _term_closure(d, gens, caps, what, u=None):
    """Closure of coordinate tuples under d's operation and skew, applied
    coordinatewise.

    It is the subgroup of the twist by u (by default skew(gens[0]), any
    element of the closure will do) generated by gens and f(u,...,u) and
    stable under psi_u: x -> u . theta(x) . theta(u^-1): the subgroup
    criterion used for polyadic subgroups, cross-checked against direct
    f/skew saturation in the test suite. Returns (u, the closure as a
    list).
    """
    if u is None:
        skews = skew_table(d)
        u = tuple(skews[c] for c in gens[0])
    psi, fu = _twist(d, u)
    return u, _generated(d.base, u, list(gens) + [fu], caps, what, psi)


def structural_check(cg, caps=_caps.DEFAULT):
    """Certificate that the coordinate group is der(psi_u, f(u, ..., u))
    in the power twisted by u = elements[0]: u when `_term_closure` from u
    of the projections and constants is exactly `elements`, else None;
    () for an empty Y. It costs one step per element of H, plus one per
    coset representative and kept generator (`_generated`), under the
    closure's cap. If one u in H works every u does, so every group
    `coordinate_group` builds gets elements[0]; a hand-built group whose
    `elements` are not the closure of its generators gets None."""
    if not cg.points:
        return ()
    u = cg.elements[0]
    _, closed = _term_closure(cg.source, cg.projections + cg.constants, caps, "closure", u)
    return u if set(closed) == set(cg.elements) else None


# ---------------------------------------------------------------------------
# term functions, Zariski closure, irreducibility


class TermFunctions:
    """All functions G^m -> G definable by terms with coefficients,
    tabulated as value tuples over the lexicographically ordered points
    of G^m. Shared by the closure operator and the irreducibility test.

    The saturation is `_term_closure` of the projections and diagonal
    constants: the subgroup of the pointwise power twisted by `identity`
    that they generate. The grid is capped by max_points before it is
    built, and the functions, |G|^m entries each, by max_tabulate // |G|^m.
    """

    def __init__(self, p, m, caps=_caps.DEFAULT):
        d = as_derived(p, caps)
        self.p = d
        self.m = m
        coords = d.order ** m
        _caps.check(caps, "term function grid", coords, caps.max_points)
        self.points = list(product(range(d.order), repeat=m))
        self.index = {pt: i for i, pt in enumerate(self.points)}
        projections = [tuple(pt[j] for pt in self.points) for j in range(m)]
        diagonals = [(g,) * coords for g in range(d.order)]
        gens = list(dict.fromkeys(projections + diagonals))
        self.identity, closed = _term_closure(d, gens, caps, "term algebra")
        self.functions = sorted(closed)

    def closure(self, z):
        """Smallest algebraic superset: the points where every pair of
        term functions that agree on z still agree.

        Two functions agree on a point set exactly when their quotient in
        the twist equals the twist identity u there. So the closure is the
        set of points where every member of the kernel K of restriction to
        z, the functions equal to u on z, equals u."""
        zidx = set()
        for pt in map(tuple, z):
            if pt not in self.index:
                raise PolyadicError(f"point {pt} outside the ambient grid")
            zidx.add(self.index[pt])
        u = self.identity
        kernel = self.functions
        if zidx:
            pick = itemgetter(*zidx)
            want = pick(u)
            kernel = [fn for fn in kernel if pick(fn) == want]
        good = [
            i for i, (col, c) in enumerate(zip(zip(*kernel), u))
            if col.count(c) == len(kernel)
        ]
        return AlgebraicSet(m=self.m, points=tuple(self.points[i] for i in good))

    def irreducible(self, y, caps=_caps.DEFAULT):
        """Whether no two proper algebraic subsets of y cover it.

        Enumerates closures of all subsets of y, keeps the proper
        algebraic ones contained in y, reduces to maximal members, and
        looks for a covering pair. Returns (flag, witness pair or None).
        Each closure reads every function, so the (2^|y| - 1) |functions|
        reads are refused past max_axiom_tuples, as "irreducibility scan",
        before the first.
        """
        ypts = sorted({tuple(pt) for pt in y})
        k = len(ypts)
        yset = frozenset(ypts)
        if k <= 1:
            return True, None
        reads = (2 ** k - 1) * len(self.functions)
        _caps.check(caps, "irreducibility scan", reads, caps.max_axiom_tuples)
        candidates = set()
        for mask in range(1, 2 ** k):
            sub = [ypts[i] for i in range(k) if mask >> i & 1]
            cl = frozenset(self.closure(sub).points)
            if cl != yset and cl <= yset:
                candidates.add(cl)
        maximal = [c for c in candidates if not any(c < other for other in candidates)]
        maximal.sort(key=lambda c: sorted(c))
        for i, z1 in enumerate(maximal):
            for z2 in maximal[i:]:
                if z1 | z2 == yset:
                    return False, (tuple(sorted(z1)), tuple(sorted(z2)))
        return True, None


def closure(p, z, m, caps=_caps.DEFAULT):
    return TermFunctions(p, m, caps=caps).closure(z)


def is_irreducible(p, y, caps=_caps.DEFAULT):
    pts, m = _point_list(y, p.order)
    flag, _ = TermFunctions(p, m, caps=caps).irreducible(pts, caps=caps)
    return flag


# ---------------------------------------------------------------------------
# noetherian witness


def minimal_subsystem(p, system, caps=_caps.DEFAULT):
    """Greedy removal pass: drop equations whose removal keeps the
    solution set; no single equation of the result is removable. One
    pass suffices because removing equations can only grow the set. Every
    trial is solved over the derived form of p, recovered once."""
    d = as_derived(p, caps)
    target = set(solve(d, system, caps=caps).points)
    keep = list(system.equations)
    i = 0
    while i < len(keep):
        trial = keep[:i] + keep[i + 1 :]
        rest = EquationSystem(p, system.m, tuple(trial))
        # the trial's solutions contain the target, so it keeps the target
        # exactly when none lies outside: stop at the first that does
        if all(pt in target for pt in _points(d, rest, caps)):
            keep = trial
        else:
            i += 1
    return EquationSystem(p, system.m, tuple(keep))


# ---------------------------------------------------------------------------
# comparison with the cover


@dataclass(frozen=True)
class Theorem63Report:
    """Outcome of the cover-comparison check for a coefficient-free
    system: does the cover of the coordinate group over G map onto the
    group W of word functions on the cover's solution set V*?

    With the cover's and W's elements realized as sorted coordinate
    tuples, `epi_images[i]` is the index in W of the image of the i-th
    element of the cover. When no homomorphism exists it is None, and
    `reason` says why."""

    ok: bool
    v_g: AlgebraicSet
    gamma_g_order: int
    cover_order: int
    v_star_count: int
    gamma_star_order: int
    epi_images: Optional[tuple]
    reason: Optional[str]


def theorem63_check(p, system, caps=_caps.DEFAULT):
    """Whether the cover of Γ(V_G) maps onto W, each embedded projection
    going to the projection on V*, the solutions in Post's cover C with f
    read as C's n-fold product (so skew is the (2-n)-th power).

    The cover of Γ(V_G) is the span of the embedded projections in
    C^|V_G|, beside a coordinate c of order n-1 that counts their grade
    (and keeps Z_(n-1), the cover of the one-element Γ of an empty V_G).
    So one span decides it, of the tuples (embedded projection, c,
    projection on V*): the map exists exactly when the span is the graph
    of a map, and then it is onto, as the projections on V* generate W.
    Its first part, the cover, has n-1 elements over each element of
    Γ(V_G), which gives |Γ(V_G)|."""
    for eq in system.equations:
        if not (is_coefficient_free(eq.left) and is_coefficient_free(eq.right)):
            raise PolyadicError("the comparison requires a coefficient-free system")
    m, n = system.m, p.n
    if m < 1:
        raise PolyadicError("at least one variable is required")

    d = as_derived(p, caps)
    v_g = solve(d, system, caps=caps)
    cover = build_post_cover(d, caps=caps)
    cg = cover.group
    v_star = solve(derive_from_constant(cg, cg.identity, n, caps=caps), system, caps=caps)
    # one generator: dimino lists its powers x^0, ..., x^(ord(x)-1) in order
    powers = dimino([cg.identity], [], [cover.embed_index(0)], cg.right)[0]
    c = powers[len(powers) // (n - 1)]
    gens = [
        tuple(cover.embed_index(pt[j]) for pt in v_g.points) + (c,)
        + tuple(pt[j] for pt in v_star.points)
        for j in range(m)
    ]
    identity = (cg.identity,) * len(gens[0])
    span = sorted(_generated(cg, identity, gens, caps, "word functions"))
    head = len(v_g) + 1
    cover_order = len({x[:head] for x in span})
    star = sorted({x[head:] for x in span})
    ok = cover_order == len(span)
    images = why = None
    if ok:
        pos = {w: i for i, w in enumerate(star)}
        images = tuple(pos[x[head:]] for x in span)
    else:
        one = (cg.identity,) * head
        over = sum(x[:head] == one for x in span)
        why = f"no homomorphism: {over} word functions lie over the cover's identity"
    gamma_order = cover_order // (n - 1)
    return Theorem63Report(
        ok, v_g, gamma_order, cover_order, len(v_star), len(star), images, why
    )
