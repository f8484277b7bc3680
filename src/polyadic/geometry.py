"""Equations over a finite polyadic group and their geometry.

A system of term equations in m variables cuts out an algebraic set
inside G^m. The radical of a point set Y is the congruence of term pairs
agreeing everywhere on Y; the coordinate group of Y is the quotient of
the terms by the radical, realized concretely as the set of term
functions on Y, a polyadic subgroup of the direct power G^|Y|. Zariski
closure, irreducibility, minimal subsystems, and the comparison between
coordinate groups over G and over its cover are all computed exactly by
enumeration at small scale.
"""

from dataclasses import dataclass, replace
from itertools import product
from operator import getitem, itemgetter
from typing import Optional

from . import caps as _caps
from .core import DerivedPolyadicGroup, TablePolyadicGroup, as_derived, prefix_products
from .core import derive_from_constant
from .errors import PolyadicError
from .groups import DirectPowerGroup, constant_tuple, induced_automorphism, psi_u
from .terms import eval_term, is_coefficient_free, term_compiler, term_variables
from .terms import validate_term


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

    A depth-first search binds x1, x2, ... in turn, trying values in
    increasing order, and checks each equation, compiled once, as soon as
    its highest-index variable is bound; a failed check prunes every point
    below that prefix."""
    m = system.m
    _caps.check(caps, "solution grid", p.order ** m, caps.max_points)
    compile_term = term_compiler(p)
    # at_depth[d]: the equations decided once x1..xd are bound
    at_depth = [[] for _ in range(m + 1)]
    for eq in system.equations:
        used = term_variables(eq.left) | term_variables(eq.right)
        at_depth[max(used) + 1 if used else 0].append(
            (compile_term(eq.left), compile_term(eq.right))
        )
    tests = [_conjunction(pairs) for pairs in at_depth]
    a = [0] * m
    sols = []
    if tests[0] is None or tests[0](a):
        if m == 0:
            sols.append(())
        last, top = m - 1, p.order - 1
        d = 0
        while 0 <= d < m:
            test = tests[d + 1]
            if test is None or test(a):
                if d == last:
                    sols.append(tuple(a))
                else:
                    d += 1
                    a[d] = 0
                    continue
            while d >= 0 and a[d] == top:
                d -= 1
            if d >= 0:
                a[d] += 1
    return AlgebraicSet(m=m, points=tuple(sols), system=system)


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
    pts = y.points if isinstance(y, AlgebraicSet) else tuple(y)
    return all(eval_term(s, pt, p) == eval_term(t, pt, p) for pt in pts)


# ---------------------------------------------------------------------------
# coordinate groups


@dataclass(frozen=True)
class CoordinateGroup:
    """Term functions on a point set Y, inside the direct power G^|Y|.

    Generated by the m coordinate projections (and, unless coefficient
    free, the diagonal constant tuples) under the power's operation and
    skew. For empty Y the group degenerates to a single element.
    """

    source: object
    points: tuple
    m: int
    power: object
    projections: tuple
    constants: tuple
    elements: tuple

    @property
    def order(self):
        return len(self.elements)

    def restrict(self, t):
        """Image of a term under the natural map onto functions on Y."""
        if self.power is None:
            return 0
        values = tuple(eval_term(t, pt, self.source) for pt in self.points)
        return self.power.base.encode(values)

    def as_polyadic(self, caps=_caps.DEFAULT):
        """The carrier as a standalone polyadic group in table form.

        The table is the prefix products of the coordinate tuples: level k
        extends a prefix by an element x through column x_i of the source's
        step table k at each coordinate i, and the last level reads off the
        product's position in the carrier."""
        if self.power is None:
            return TablePolyadicGroup(("1",), self.source.n, (0,))
        n = self.source.n
        _caps.check(caps, "n-ary table", self.order ** n, caps.max_tabulate)
        pg = self.power.base
        tuples = [pg.decode(x) for x in self.elements]
        pos = {x: i for i, x in enumerate(tuples)}
        pack = bytes if len(tuples) <= 256 else tuple

        def extend(rows, last):
            cols = tuple(zip(*rows))  # cols[x][v] = rows[v][x]
            by = [[cols[c] for c in x] for x in tuples]
            if last:
                return lambda pre: pack(pos[tuple(map(getitem, s, pre))] for s in by)
            return lambda pre: [tuple(map(getitem, s, pre)) for s in by]

        steps = self.source.steps
        flat = prefix_products(
            tuples, [extend(rows, k == n - 2) for k, rows in enumerate(steps)]
        )
        return TablePolyadicGroup([pg.name(x) for x in self.elements], n, flat)


def coordinate_group(p, y, with_constants=True, caps=_caps.DEFAULT):
    """Closure of the projections (plus diagonal constants by default)
    under the power operation and skew; the concrete coordinate group of
    the point set y."""
    d = as_derived(p)
    pts = tuple(y.points if isinstance(y, AlgebraicSet) else y)
    m = y.m if isinstance(y, AlgebraicSet) else (len(pts[0]) if pts else 0)
    if not pts:
        return CoordinateGroup(
            source=d, points=(), m=m, power=None,
            projections=(0,) * m,
            constants=(0,) * (d.order if with_constants else 0),
            elements=(0,),
        )
    k = len(pts)
    # H holds |H| tuples of k coordinates: the closure cap is scaled so that
    # they hold at most max_tabulate entries, like a flat table; with
    # constants, H holds the |G| distinct constant tuples
    limit = min(caps.max_closure_algebra, caps.max_tabulate // k)
    _caps.check(caps, "closure", d.order if with_constants else 1, limit)
    columns = [tuple(pt[j] for pt in pts) for j in range(m)]
    diagonals = [(g,) * k for g in range(d.order)] if with_constants else []
    gens = list(dict.fromkeys(columns + diagonals))
    if not gens:
        raise PolyadicError("no generators: zero variables and no constants")
    _, closed = _term_closure(d, gens, replace(caps, max_closure_algebra=limit), "closure")
    pg = DirectPowerGroup(d.base, k)
    theta_hat = induced_automorphism(d.theta, pg)
    b_hat = constant_tuple(pg, d.b)
    # d meets both derivation conditions, so they hold coordinatewise
    power = DerivedPolyadicGroup(pg, theta_hat, b_hat, d.n)
    projections = tuple(map(pg.encode, columns))
    constants = tuple(map(pg.encode, diagonals))
    elements = tuple(pg.encode(x) for x in sorted(closed))
    return CoordinateGroup(
        source=d, points=pts, m=m, power=power,
        projections=projections, constants=constants, elements=elements,
    )


def _generated(base, identity, gens, caps, what, psi=None):
    """Subgroup generated by gens in the coordinatewise power of base,
    twisted so that `identity` is its identity (x * y = x . identity^-1 . y)
    and closed under the automorphism psi of that twist when given.

    Elements are coordinate tuples. The psi-orbits of gens are generators
    too; a breadth-first search from the identity then right-multiplies
    only by the steps identity^-1 . t for each generator t, one column
    lookup per coordinate, so the work is |H| times the number of
    generators, and a finite monoid generated that way is the subgroup.
    """
    found = list(dict.fromkeys(gens))
    if psi is not None:
        seen = set(found)
        for t in found:
            y = psi(t)
            if y not in seen:
                seen.add(y)
                found.append(y)
    _caps.check(caps, what, len(found), caps.max_closure_algebra)
    # cols[g][a] = a . g: right multiplication by g
    els = base.elements()
    cols = [tuple(base.mul(a, g) for a in els) for g in els]
    shift = [base.inv(c) for c in identity]
    steps = [
        [cols[base.mul(shift[i], c)] for i, c in enumerate(t)] for t in found
    ]
    closed = {identity}
    queue = [identity]
    for x in queue:
        for s in steps:
            y = tuple(map(getitem, s, x))
            if y not in closed:
                closed.add(y)
                queue.append(y)
        _caps.check(caps, what, len(closed), caps.max_closure_algebra)
    return closed


def _term_closure(d, gens, caps, what):
    """Closure of coordinate tuples under d's operation and skew, applied
    coordinatewise.

    It is the subgroup of the twist by u = skew(gens[0]) generated by gens
    and f(u,...,u) and stable under x -> u . theta(x) . theta(u^-1): the
    subgroup criterion used for polyadic subgroups, cross-checked against
    direct f/skew saturation in the test suite. Returns (u, the closure).
    """
    base = d.base
    skews = [d.skew(x) for x in base.elements()]
    u = tuple(skews[c] for c in gens[0])
    fu = tuple(d.f([c] * d.n) for c in u)
    # psi_u on coordinate i: one row per distinct u_i
    rows = {c: psi_u(base, d.theta, c).images for c in set(u)}
    maps = [rows[c] for c in u]

    def psi(x):
        return tuple(map(getitem, maps, x))

    return u, _generated(base, u, list(gens) + [fu], caps, what, psi)


def structural_check(cg):
    """Search for an element u making the coordinate group an ordinary
    subgroup of the power twisted by u, invariant under the twist's
    canonical automorphism x -> u theta(x) theta(u^-1). Returns the first
    such u, or None."""
    if cg.power is None:
        return cg.elements[0]
    pg = cg.power.base
    theta = cg.power.theta
    H = set(cg.elements)
    for u in cg.elements:
        iu = pg.inv(u)
        tiu = theta(iu)
        if any(pg.mul(pg.mul(u, pg.inv(a)), u) not in H for a in H):
            continue
        if any(pg.mul(pg.mul(u, theta(a)), tiu) not in H for a in H):
            continue
        ok = True
        for a in H:
            aiu = pg.mul(a, iu)
            if any(pg.mul(aiu, b) not in H for b in H):
                ok = False
                break
        if ok:
            return u
    return None


# ---------------------------------------------------------------------------
# term functions, Zariski closure, irreducibility


class TermFunctions:
    """All functions G^m -> G definable by terms with coefficients,
    tabulated as value tuples over the lexicographically ordered points
    of G^m. Shared by the closure operator and the irreducibility test.

    The saturation is `_term_closure` of the projections and diagonal
    constants: the subgroup of the pointwise power twisted by `identity`
    that they generate. The grid is capped by max_points before it is
    built, and the functions, |G|^m entries each, by
    min(max_closure_algebra, max_tabulate // |G|^m).
    """

    def __init__(self, p, m, caps=_caps.DEFAULT):
        d = as_derived(p)
        self.p = d
        self.m = m
        coords = d.order ** m
        _caps.check(caps, "term function grid", coords, caps.max_points)
        self.points = list(product(range(d.order), repeat=m))
        self.index = {pt: i for i, pt in enumerate(self.points)}
        projections = [tuple(pt[j] for pt in self.points) for j in range(m)]
        diagonals = [(g,) * coords for g in range(d.order)]
        gens = list(dict.fromkeys(projections + diagonals))
        limit = min(caps.max_closure_algebra, caps.max_tabulate // coords)
        capped = replace(caps, max_closure_algebra=limit)
        self.identity, closed = _term_closure(d, gens, capped, "term algebra")
        self.functions = sorted(closed)

    def closure(self, z, caps=_caps.DEFAULT):
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

    def is_algebraic(self, z):
        zset = {tuple(pt) for pt in z}
        return set(self.closure(zset).points) == zset

    def irreducible(self, y, caps=_caps.DEFAULT):
        """Whether no two proper algebraic subsets of y cover it.

        Enumerates closures of all subsets of y, keeps the proper
        algebraic ones contained in y, reduces to maximal members, and
        looks for a covering pair. Returns (flag, witness pair or None).
        """
        ypts = sorted({tuple(pt) for pt in y})
        k = len(ypts)
        _caps.check(caps, "irreducibility points", k, caps.max_irreducible_points)
        yset = frozenset(ypts)
        if k <= 1:
            return True, None
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
    return TermFunctions(p, m, caps=caps).closure(z, caps=caps)


def is_irreducible(p, y, caps=_caps.DEFAULT):
    pts = y.points if isinstance(y, AlgebraicSet) else tuple(y)
    m = y.m if isinstance(y, AlgebraicSet) else len(pts[0])
    flag, _ = TermFunctions(p, m, caps=caps).irreducible(pts, caps=caps)
    return flag


# ---------------------------------------------------------------------------
# noetherian witness


def minimal_subsystem(p, system, caps=_caps.DEFAULT):
    """Greedy removal pass: drop equations whose removal keeps the
    solution set; no single equation of the result is removable. One
    pass suffices because removing equations can only grow the set."""
    target = solve(p, system, caps=caps).points
    keep = list(system.equations)
    i = 0
    while i < len(keep):
        trial = keep[:i] + keep[i + 1 :]
        rest = EquationSystem(p, system.m, tuple(trial))
        if solve(p, rest, caps=caps).points == target:
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
    of a map, and then it is onto, as the projections on V* generate W."""
    from .cover import build_post_cover

    for eq in system.equations:
        if not (is_coefficient_free(eq.left) and is_coefficient_free(eq.right)):
            raise PolyadicError("the comparison requires a coefficient-free system")
    m, n = system.m, p.n
    if m < 1:
        raise PolyadicError("at least one variable is required")

    v_g = solve(p, system, caps=caps)
    gamma = coordinate_group(p, v_g, with_constants=False, caps=caps)
    cover = build_post_cover(p, caps=caps)
    cg = cover.group
    v_star = solve(derive_from_constant(cg, cg.identity, n, caps=caps), system, caps=caps)
    powers = [cg.identity, cover.embed_index(0)]  # x^0, x^1, ..., x^ord(x)
    while powers[-1] != cg.identity:
        powers.append(cg.mul(powers[-1], powers[1]))
    c = powers[(len(powers) - 1) // (n - 1)]
    gens = [
        tuple(cover.embed_index(pt[j]) for pt in v_g.points) + (c,)
        + tuple(pt[j] for pt in v_star.points)
        for j in range(m)
    ]
    coords = len(gens[0])
    limit = min(caps.max_closure_algebra, caps.max_tabulate // coords)
    capped = replace(caps, max_closure_algebra=limit)
    span = sorted(_generated(cg, (cg.identity,) * coords, gens, capped, "word functions"))
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
    return Theorem63Report(
        ok, v_g, gamma.order, cover_order, len(v_star), len(star), images, why
    )
