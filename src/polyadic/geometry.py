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
from operator import getitem
from typing import Optional

from . import caps as _caps
from .core import DerivedPolyadicGroup, TablePolyadicGroup, as_derived, prefix_products
from .errors import PolyadicError
from .groups import (
    DirectPowerGroup,
    constant_tuple,
    hom_from_generator_images,
    induced_automorphism,
    validate_group,
)
from .terms import (
    eval_group_term,
    eval_term,
    is_coefficient_free,
    polyadic_to_group,
    term_compiler,
    term_variables,
    validate_term,
)


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

    def local_index(self, power_index):
        return self.elements.index(power_index)


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
    closed = _term_closure(d, gens, replace(caps, max_closure_algebra=limit), "closure")
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
    direct f/skew saturation in the test suite.
    """
    base = d.base
    skews = [d.skew(x) for x in base.elements()]
    u = tuple(skews[c] for c in gens[0])
    fu = tuple(d.f([c] * d.n) for c in u)
    # psi is x -> u_i . theta(x) . theta(u_i^-1) on coordinate i: one row
    # per distinct u_i
    rows = {
        c: tuple(base.mul(base.mul(c, d.theta(x)), d.theta(base.inv(c))) for x in base.elements())
        for c in set(u)
    }
    maps = [rows[c] for c in u]

    def psi(x):
        return tuple(map(getitem, maps, x))

    return _generated(base, u, list(gens) + [fu], caps, what, psi)


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
    constants: a generated subgroup of a twist of the pointwise power.
    """

    def __init__(self, p, m, caps=_caps.DEFAULT):
        d = as_derived(p)
        self.p = d
        self.m = m
        self.points = list(product(range(d.order), repeat=m))
        self.index = {pt: i for i, pt in enumerate(self.points)}
        coords = len(self.points)
        projections = [tuple(pt[j] for pt in self.points) for j in range(m)]
        diagonals = [(g,) * coords for g in range(d.order)]
        gens = list(dict.fromkeys(projections + diagonals))
        self.functions = sorted(_term_closure(d, gens, caps, "term algebra"))

    def closure(self, z, caps=_caps.DEFAULT):
        """Smallest algebraic superset: the points where every pair of
        term functions that agree on z still agree."""
        zpts = []
        for pt in z:
            pt = tuple(pt)
            if pt not in self.index:
                raise PolyadicError(f"point {pt} outside the ambient grid")
            if pt not in zpts:
                zpts.append(pt)
        zidx = sorted(self.index[pt] for pt in zpts)
        buckets = {}
        for fn in self.functions:
            buckets.setdefault(tuple(fn[i] for i in zidx), []).append(fn)
        good = set(range(len(self.points)))
        for members in buckets.values():
            if len(members) < 2:
                continue
            first = members[0]
            good = {
                i
                for i in good
                if all(fn[i] == first[i] for fn in members[1:])
            }
            if not good:
                break
        return AlgebraicSet(
            m=self.m, points=tuple(sorted(self.points[i] for i in good))
        )

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
        maximal = [
            c
            for c in candidates
            if not any(c < other for other in candidates)
        ]
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
    group of word functions on the cover's solution set?"""

    ok: bool
    v_g: AlgebraicSet
    gamma_g_order: int
    cover_order: int
    v_star_count: int
    gamma_star_order: int
    epi_images: Optional[tuple]
    reason: Optional[str]


def theorem63_check(p, system, caps=_caps.DEFAULT):
    from .cover import build_post_cover

    for eq in system.equations:
        if not (is_coefficient_free(eq.left) and is_coefficient_free(eq.right)):
            raise PolyadicError("the comparison requires a coefficient-free system")
    m = system.m
    if m < 1:
        raise PolyadicError("at least one variable is required")

    v_g = solve(p, system, caps=caps)
    gamma = coordinate_group(p, v_g, with_constants=False, caps=caps)
    gamma_tab = gamma.as_polyadic(caps=caps)
    cov = build_post_cover(gamma_tab, caps=caps)

    cover_p = build_post_cover(p, caps=caps)
    cg = cover_p.group
    _caps.check(caps, "cover solution grid", cg.order ** m, caps.max_points)
    sides = [
        (polyadic_to_group(eq.left, cover_p), polyadic_to_group(eq.right, cover_p))
        for eq in system.equations
    ]
    vstar = [
        pt
        for pt in product(range(cg.order), repeat=m)
        if all(
            eval_group_term(left, pt, cg) == eval_group_term(right, pt, cg)
            for left, right in sides
        )
    ]
    coords = len(vstar)
    star_projections = [
        tuple(pt[j] for pt in vstar) for j in range(m)
    ]
    identity = (cg.identity,) * coords
    star_elements = sorted(
        _generated(cg, identity, star_projections, caps, "word functions")
    )
    pos = {x: i for i, x in enumerate(star_elements)}
    names = [f"w{i}" for i in range(len(star_elements))]
    table = [
        [pos[tuple(cg.mul(a, b) for a, b in zip(x, y))] for y in star_elements]
        for x in star_elements
    ]
    relaxed = replace(caps, max_table_order=max(caps.max_table_order, len(table)))
    star_group = validate_group(names, table, name="word functions", caps=relaxed)

    gen_local = [gamma.local_index(x) for x in gamma.projections]
    gens = [cov.embed_index(i) for i in gen_local]
    images = [pos[proj] for proj in star_projections]
    hom, reason = hom_from_generator_images(cov.group, star_group, gens, images)
    ok = hom is not None and hom.is_surjective()
    why = None
    if hom is None:
        why = f"no homomorphism: {reason}"
    elif not hom.is_surjective():
        why = "homomorphism exists but is not onto"
    return Theorem63Report(
        ok=ok,
        v_g=v_g,
        gamma_g_order=gamma.order,
        cover_order=cov.order,
        v_star_count=coords,
        gamma_star_order=len(star_elements),
        epi_images=hom.images if ok else None,
        reason=why,
    )
