import itertools
import random
import time
from dataclasses import replace

import pytest

from polyadic import core, geometry
from polyadic.caps import Caps
from polyadic.core import TablePolyadicGroup, as_derived, derive, hosszu_gloskin, polyadic_homs
from polyadic.core import tabulate
from polyadic.cover import build_post_cover
from polyadic.errors import PolyadicError, SizeCapExceeded
from polyadic.geometry import (
    AlgebraicSet,
    EquationSystem,
    TermFunctions,
    closure,
    coordinate_group,
    is_irreducible,
    minimal_subsystem,
    radical_member,
    solve,
    structural_check,
    theorem63_check,
)
from polyadic.groups import (
    cyclic_group,
    hom_from_generator_images,
    identity_automorphism,
    symmetric_group,
    validate_group,
)
from polyadic.terms import (
    Apply,
    Constant,
    Equation,
    Skew,
    Variable,
    eval_equation,
    eval_group_term,
    parse_equation,
    parse_term,
    polyadic_to_group,
    TermCompiler,
    is_coefficient_free,
    term_variables,
)

Z3NAMES = ["0", "1", "2"]


def eqs(p, texts):
    names = list(p.names())
    return tuple(parse_equation(t, element_names=names) for t in texts)


def test_solve_golden(p2):
    s = EquationSystem(p2, 1, eqs(p2, ["f(x1,x1,x1) = 2"]))
    v = solve(p2, s)
    assert v.points == ((2,),)
    assert (2,) in v and (0,) not in v
    assert len(v) == 1


def test_union_is_intersection(p2):
    s1 = EquationSystem(p2, 2, eqs(p2, ["f(x1,x2,c1) = x2"]))
    s2 = EquationSystem(p2, 2, eqs(p2, ["x1 = x2"]))
    u = s1.union(s2)
    assert set(solve(p2, u).points) == set(solve(p2, s1).points) & set(
        solve(p2, s2).points
    )


def test_union_rejects_mismatched(p2, p1):
    s1 = EquationSystem(p2, 2, ())
    with pytest.raises(PolyadicError):
        s1.union(EquationSystem(p2, 1, ()))
    with pytest.raises(PolyadicError):
        s1.union(EquationSystem(p1, 2, ()))


def test_radical_membership(p2):
    s = parse_term("f(x1,x1,x1)", element_names=Z3NAMES)
    t = parse_term("c2", element_names=Z3NAMES)
    # empty point set: the radical is everything
    assert radical_member(p2, (), s, parse_term("x1", element_names=Z3NAMES))
    v = solve(p2, EquationSystem(p2, 1, (Equation(s, t),)))
    assert radical_member(p2, v, s, t)
    assert not radical_member(
        p2,
        AlgebraicSet(1, ((0,), (1,))),
        parse_term("x1", element_names=Z3NAMES),
        parse_term("c0", element_names=Z3NAMES),
    )


def test_coordinate_group_singleton(p2):
    v = AlgebraicSet(1, ((2,),))
    cg = coordinate_group(p2, v)
    assert cg.order == 3
    assert cg.restrict(parse_term("x1", element_names=Z3NAMES)) == cg.projections[0]
    assert cg.as_polyadic().order == 3


def test_coordinate_group_empty_degenerates(p2):
    cg = coordinate_group(p2, AlgebraicSet(1, ()))
    assert cg.order == 1
    assert cg.as_polyadic().order == 1
    assert cg.elements == ((),)
    assert structural_check(cg) == ()


def test_coefficient_free_coordinate_groups(p1, p2):
    full = AlgebraicSet(1, ((0,), (1,), (2,)))
    assert coordinate_group(p2, full, with_constants=False).order == 1
    assert coordinate_group(p1, full, with_constants=False).order == 3


def old_structural_check(cg):
    """The search `structural_check` replaced, frozen: the first u in the
    carrier making it a subgroup of the power twisted by u, invariant under
    x -> u theta(x) theta(u^-1), by testing all pairs; or None."""
    base, theta = cg.source.base, cg.source.theta

    def mul(x, y):
        return tuple(map(base.mul, x, y))

    def inv(x):
        return tuple(map(base.inv, x))

    H = set(cg.elements)
    for u in cg.elements:
        iu = inv(u)
        tiu = tuple(map(theta, iu))
        if any(mul(mul(u, inv(a)), u) not in H for a in H):
            continue
        if any(mul(mul(u, tuple(map(theta, a))), tiu) not in H for a in H):
            continue
        ok = True
        for a in H:
            aiu = mul(a, iu)
            if any(mul(aiu, b) not in H for b in H):
                ok = False
                break
        if ok:
            return u
    return None


def test_structural_check_on_catalog_sets(catalog):
    # every computed coordinate group is a twisted subgroup stable under
    # the canonical automorphism, witnessed by some u in the carrier
    for key in ("p1", "p2", "p4"):
        p = catalog[key]
        pts = [tuple(pt) for pt in itertools.product(range(p.order), repeat=1)]
        for subset in ((pts[0],), tuple(pts[:2]), tuple(pts)):
            cg = coordinate_group(p, AlgebraicSet(1, subset))
            want = cg.elements[0]
            assert structural_check(cg) == old_structural_check(cg) == want, (key, subset)


def test_structural_check_refuses_a_dropped_element(catalog):
    """A hand-built group missing one element of Γ(Y) is no twisted
    subgroup: |H| - 1 is 2, 8 or 26 here, which divides no power of 3. The
    frozen search finds no u, and the certificate fails."""
    seen = set()
    for key in ("p1", "p2"):
        p = catalog[key]
        for pts in (((1,),), ((0,), (2,)), ((0, 1), (1, 2), (2, 2))):
            cg = coordinate_group(p, pts)
            seen.add(cg.order)
            for i in (0, cg.order // 2, cg.order - 1):
                dropped = replace(cg, elements=cg.elements[:i] + cg.elements[i + 1 :])
                assert structural_check(dropped) is None, (key, pts, i)
                assert old_structural_check(dropped) is None, (key, pts, i)
    assert seen == {3, 9, 27}


def derived_s4():
    s4 = symmetric_group(4)
    return derive(s4, identity_automorphism(s4), s4.identity, 3)


def test_structural_check_on_a_large_coordinate_group():
    """Three points over derived S4 with constants: |H| = 24^3 = 13824,
    where the all-pairs search ran for minutes. The certificate walks H
    once per generator."""
    cg = coordinate_group(derived_s4(), ((0, 1), (5, 7), (11, 19)))
    assert cg.order == 13824
    start = time.perf_counter()
    assert structural_check(cg) == cg.elements[0]
    assert time.perf_counter() - start < 20
    # its 13824^2 table is refused before any of it is built
    with pytest.raises(SizeCapExceeded) as e:
        cg.as_derived()
    assert (e.value.what, e.value.size) == ("coordinate table", 13824 ** 2)


def small_coordinate_groups(catalog):
    """Γ(Y) over each catalog group, on one and two points, with and
    without constants, where its table has at most 2 * 10^5 entries."""
    for key, p in catalog.items():
        for pts, with_constants in itertools.product(
            (((0,),), ((1,), (p.order - 1,))), (True, False)
        ):
            cg = coordinate_group(p, pts, with_constants)
            if cg.order ** p.n <= 2 * 10 ** 5:
                yield key, cg


def test_as_derived_is_the_coordinatewise_operation(catalog):
    """`as_derived` has the source's operation applied coordinatewise, and
    its Hosszú–Gluskin recovery at the first element rebuilds it."""
    orders = set()
    for key, cg in small_coordinate_groups(catalog):
        d = cg.as_derived()
        flat = tabulate(d).flat
        assert list(flat) == power_flat(cg), key
        hg = hosszu_gloskin(d, 0)
        assert (hg.names(), tabulate(hg).flat) == (d.names(), flat), key
        orders.add(cg.order)
    assert len(orders) >= 5


def test_as_derived_homs_match_the_table_form(catalog):
    """Polyadic homomorphisms from and into Γ(Y) are the same maps whether
    Γ(Y) is given derived or as a table."""
    checked = 0
    for key, cg in small_coordinate_groups(catalog):
        d, t, p = cg.as_derived(), cg.as_polyadic(), cg.source
        for got, want in (
            (polyadic_homs(d, p), polyadic_homs(t, p)),
            (polyadic_homs(p, d), polyadic_homs(p, t)),
        ):
            assert [h.images for h in got] == [h.images for h in want], key
            checked += len(want)
    assert checked > 0


def test_as_derived_of_order_576():
    """Two points over derived S4 with constants: |H| = 576, whose n-ary
    table is refused, while the derived form is built and answers
    `polyadic_homs` into S4."""
    p = derived_s4()
    cg = coordinate_group(p, ((0, 1), (5, 7)))
    assert cg.order == 576
    with pytest.raises(SizeCapExceeded) as e:
        cg.as_polyadic()
    assert (e.value.what, e.value.size) == ("n-ary table", 576 ** 3)
    d = cg.as_derived()
    assert (d.order, d.n, d.name(0)) == (576, 3, "_".join(map(p.name, cg.elements[0])))
    rng = random.Random(0)
    pos = {x: i for i, x in enumerate(cg.elements)}
    for _ in range(200):
        args = [rng.randrange(576) for _ in range(3)]
        assert d.f(args) == pos[power_f(p, [cg.elements[i] for i in args])]
    assert len(polyadic_homs(d, p)) == 328


def test_as_derived_table_is_capped(p7):
    """The |H|^2 table of `as_derived` is refused past max_tabulate as
    "coordinate table"; `as_polyadic` keeps its "n-ary table" refusal."""
    cg = coordinate_group(p7, ((0,), (1,)))
    g = cg.order
    with pytest.raises(SizeCapExceeded) as e:
        cg.as_derived(caps=Caps(max_tabulate=g * g - 1))
    assert (e.value.what, e.value.size, e.value.cap) == ("coordinate table", g * g, g * g - 1)
    with pytest.raises(SizeCapExceeded) as e:
        cg.as_polyadic(caps=Caps(max_tabulate=g ** 3 - 1))
    assert (e.value.what, e.value.size) == ("n-ary table", g ** 3)


@pytest.mark.parametrize("points", [((0,), (2, 1)), ((0, 1), (2,))])
def test_ragged_plain_points_are_refused(p2, points):
    """A plain point of another length than the first is refused, not cut
    to the first point's length or read past its end."""
    for call in (
        lambda: coordinate_group(p2, points),
        lambda: is_irreducible(p2, points),
        lambda: radical_member(p2, points, Variable(0), Variable(0)),
    ):
        with pytest.raises(PolyadicError, match="coordinates"):
            call()


def test_points_outside_the_carrier_are_refused(p1):
    """A coordinate that is no element index of the carrier is refused,
    not read as an index past the end or from the end."""
    for call in (
        lambda: coordinate_group(p1, ((0, 5),)),
        lambda: coordinate_group(p1, ((0, -1),)),
        lambda: radical_member(p1, ((5,),), Variable(0), Variable(0)),
    ):
        with pytest.raises(PolyadicError, match="outside 0..2"):
            call()


def test_no_plain_points_have_no_variables(p2):
    """No plain points: m = 0, and the empty set is irreducible, its
    coordinate group the one empty tuple."""
    assert is_irreducible(p2, ())
    cg = coordinate_group(p2, ())
    assert (cg.m, cg.elements, cg.projections) == (0, ((),), ())
    assert radical_member(p2, (), Constant(0), Constant(1))


@pytest.mark.parametrize("seed", range(4))
def test_restricted_terms_lie_in_the_coordinate_group(seed, small_bases, random_derived):
    """The values of a random term on Y are one of Γ(Y)'s tuples, and the
    twist by any of them works, so `structural_check` answers the first,
    on 0-3 points, with and without constants."""
    rng = random.Random(seed)
    for base in small_bases * 3:
        p = random_derived(rng, base, (3, 4, 5))
        m = rng.choice((1, 2))
        grid = list(itertools.product(range(p.order), repeat=m))
        pts = tuple(sorted(rng.sample(grid, rng.randrange(min(4, len(grid) + 1)))))
        with_constants = rng.random() < 0.7
        cg = coordinate_group(p, AlgebraicSet(m, pts), with_constants)
        if cg.order <= 600:
            assert structural_check(cg) == cg.elements[0], (base, pts)
            assert old_structural_check(cg) == cg.elements[0], (base, pts)
        members = set(cg.elements)
        for _ in range(20):
            t = random_term(rng, m, p.order, 3, p.n)
            if with_constants or is_coefficient_free(t):
                assert cg.restrict(t) in members, (base, pts, t)


def naive_algebra(p, m):
    """Direct f/skew saturation of projections and diagonals, used as the
    oracle for the twisted-route saturation in TermFunctions."""
    d = as_derived(p)
    pts = list(itertools.product(range(d.order), repeat=m))
    gens = [tuple(pt[j] for pt in pts) for j in range(m)]
    gens += [(g,) * len(pts) for g in range(d.order)]

    def fhat(args):
        acc = args[0]
        for k in range(1, d.n):
            acc = tuple(
                d.base.mul(a, d.theta_pows[k][b]) for a, b in zip(acc, args[k])
            )
        return tuple(d.base.mul(a, d.b) for a in acc)

    skew_map = tuple(d.skew(x) for x in range(d.order))
    closed = set(gens)
    while True:
        fresh = set()
        snap = sorted(closed)
        for args in itertools.product(snap, repeat=d.n):
            v = fhat(list(args))
            if v not in closed:
                fresh.add(v)
        for xx in snap:
            sk = tuple(skew_map[a] for a in xx)
            if sk not in closed:
                fresh.add(sk)
        if not fresh:
            return sorted(closed)
        closed |= fresh


def test_term_functions_match_naive(catalog):
    for key in ("p1", "p2", "p3", "p4"):
        p = catalog[key]
        assert TermFunctions(p, 1).functions == naive_algebra(p, 1), key
    assert TermFunctions(catalog["p5"], 1).functions == naive_algebra(
        catalog["p5"], 1
    )
    assert TermFunctions(catalog["p2"], 2).functions == naive_algebra(
        catalog["p2"], 2
    )


def test_affine_function_counts(p1, p2):
    assert len(TermFunctions(p1, 1).functions) == 9
    assert len(TermFunctions(p2, 1).functions) == 9


def test_closure_extremes(p2):
    assert closure(p2, [], 1).points == ()
    full = [(i,) for i in range(3)]
    assert closure(p2, full, 1).points == tuple(full)


def test_closure_laws_exhaustive_m1(p1, p2):
    for p in (p1, p2):
        tf = TermFunctions(p, 1)
        pts = [(i,) for i in range(3)]
        for r in range(4):
            for sub in itertools.combinations(pts, r):
                c = tf.closure(sub)
                assert set(sub) <= set(c.points)
                assert tf.closure(c.points).points == c.points
                for r2 in range(r):
                    for sub2 in itertools.combinations(sub, r2):
                        assert set(tf.closure(sub2).points) <= set(c.points)


def bucket_closure(tf, z):
    """TermFunctions.closure as it was before it became a kernel: bucket
    the functions by their values on z, and keep the points where each
    bucket's members all agree."""
    zidx = sorted({tf.index[tuple(pt)] for pt in z})
    buckets = {}
    for fn in tf.functions:
        buckets.setdefault(tuple(fn[i] for i in zidx), []).append(fn)
    good = set(range(len(tf.points)))
    for members in buckets.values():
        first = members[0]
        good = {i for i in good if all(fn[i] == first[i] for fn in members[1:])}
    return tuple(sorted(tf.points[i] for i in good))


@pytest.mark.parametrize("seed", range(4))
def test_closure_matches_buckets(seed, catalog, small_bases, random_derived):
    rng = random.Random(seed)
    groups = list(catalog.values()) + [random_derived(rng, b) for b in small_bases]
    cases = 0
    for p in groups:
        for m in (1, 2):
            # an abelian base gives the |G|^(m+1) affine functions; S3 gives
            # 324 in one variable and more than max_closure_algebra in two
            if p.order ** (m + 1) > 400 or m == 2 and not as_derived(p).base.is_abelian():
                continue
            tf = TermFunctions(p, m)
            for _ in range(15):
                z = rng.sample(tf.points, rng.randrange(len(tf.points) + 1))
                assert tf.closure(z).points == bucket_closure(tf, z), (p, m, z)
                cases += 1
    assert cases >= 300


def test_closure_of_solution_sets_is_fixed(p2):
    tf = TermFunctions(p2, 2)
    for texts in (["x1 = x2"], ["f(x1,x1,x1) = c2"], ["x1 = c0", "x2 = c1"]):
        v = solve(p2, EquationSystem(p2, 2, eqs(p2, texts)))
        assert tf.closure(v.points).points == v.points, texts


def naive_irreducible(tf, y):
    """Literal definition: reducible when two proper relatively closed
    subsets cover y."""
    ypts = sorted({tuple(pt) for pt in y})
    k = len(ypts)
    yset = set(ypts)
    closed = []
    for mask in range(2 ** k):
        sub = [ypts[i] for i in range(k) if mask >> i & 1]
        cl = set(tf.closure(sub).points)
        trace = cl & yset
        if trace != yset and trace not in closed:
            closed.append(trace)
    for z1 in closed:
        for z2 in closed:
            if z1 | z2 == yset:
                return False
    return True


def test_irreducibility_against_naive(p2, p4):
    for p in (p2, p4):
        tf = TermFunctions(p, 1)
        pts = [(i,) for i in range(p.order)]
        for r in range(1, p.order + 1):
            for sub in itertools.combinations(pts, r):
                flag, wit = tf.irreducible(sub)
                assert flag == naive_irreducible(tf, sub), (p, sub)
                if not flag:
                    z1, z2 = wit
                    assert set(z1) | set(z2) == set(sub)
                    assert set(z1) != set(sub) and set(z2) != set(sub)


def test_is_irreducible_wrapper(p2):
    assert is_irreducible(p2, AlgebraicSet(1, ((0,), (1,), (2,))))
    assert not is_irreducible(p2, AlgebraicSet(1, ((0,), (1,))))


def test_minimal_subsystem_drops_redundant(p2):
    base = eqs(p2, ["f(x1,x1,x1) = 2", "f(x1,x1,x1) = 2", "x1 = x1"])
    ms = minimal_subsystem(p2, EquationSystem(p2, 1, base))
    assert len(ms.equations) == 1
    assert solve(p2, ms).points == ((2,),)


def random_term(rng, m, order, depth, n):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        if r < 0.15 or m == 0:
            return Constant(rng.randrange(order))
        return Variable(rng.randrange(m))
    if r < 0.55:
        return Skew(random_term(rng, m, order, depth - 1, n))
    return Apply(tuple(random_term(rng, m, order, depth - 1, n) for _ in range(n)))


def test_minimal_subsystem_preserves_v_random(p2, p4):
    rng = random.Random(31)
    for p in (p2, p4):
        for _ in range(30):
            m = rng.choice((1, 2))
            k = rng.randrange(1, 5)
            equations = tuple(
                Equation(
                    random_term(rng, m, p.order, 2, p.n),
                    random_term(rng, m, p.order, 2, p.n),
                )
                for _ in range(k)
            )
            s = EquationSystem(p, m, equations)
            ms = minimal_subsystem(p, s)
            assert solve(p, ms).points == solve(p, s).points
            # dropping any single remaining equation changes V
            target = solve(p, s).points
            for i in range(len(ms.equations)):
                rest = EquationSystem(
                    p, m, ms.equations[:i] + ms.equations[i + 1 :]
                )
                assert solve(p, rest).points != target or len(ms.equations) == 0


def test_theorem63_positive_systems(p2):
    for texts, m in (
        (["~x1 = x1"], 1),
        (["f(x1,x1,x1) = x1"], 1),
        (["~x1 = x1", "~x2 = x2", "x1 = x2"], 2),
    ):
        rep = theorem63_check(p2, EquationSystem(p2, m, eqs(p2, texts)))
        assert rep.ok, (texts, rep)
        assert rep.cover_order == 2
        assert rep.gamma_star_order == 2
        assert rep.epi_images is not None


def test_theorem63_negative_identity_system(p2):
    # the cover of the coefficient-free coordinate group is Z_2 here while
    # the word-function group over the cover's solutions is Z_6; no
    # epimorphism can exist and the check reports the failure honestly
    rep = theorem63_check(p2, EquationSystem(p2, 1, eqs(p2, ["x1 = x1"])))
    assert not rep.ok
    assert rep.gamma_g_order == 1
    assert rep.cover_order == 2
    assert rep.v_star_count == 6
    assert rep.gamma_star_order == 6
    assert rep.reason is not None


def test_theorem63_rejects_coefficients(p2):
    with pytest.raises(PolyadicError):
        theorem63_check(p2, EquationSystem(p2, 1, eqs(p2, ["x1 = c2"])))


def test_theorem63_keeps_caller_caps(p2):
    system = EquationSystem(p2, 1, eqs(p2, ["x1 = x1"]))
    # the word-function group over the cover's six solutions has order 6
    with pytest.raises(SizeCapExceeded) as info:
        theorem63_check(p2, system, caps=Caps(max_closure_algebra=5))
    assert info.value.what == "word functions"
    # the caller's max_points reaches the cover's solve: G^1 has 3 points,
    # the cover's grid 6
    with pytest.raises(SizeCapExceeded) as info:
        theorem63_check(p2, system, caps=Caps(max_points=5))
    assert (info.value.what, info.value.size) == ("solution grid", 6)


def old_theorem63_check(p, system, caps=Caps()):
    """theorem63_check as it was before it became one generated subgroup:
    the coordinate group flattened to a table and given its own Post
    cover, V* found on the cover's grid through translated group terms,
    the word functions validated as a table group, and a homomorphism
    searched from the cover's generators."""
    m = system.m
    v_g = solve(p, system, caps=caps)
    gamma = coordinate_group(p, v_g, with_constants=False, caps=caps)
    cov = build_post_cover(gamma.as_polyadic(caps=caps), caps=caps)
    cover_p = build_post_cover(p, caps=caps)
    cg = cover_p.group
    sides = [
        (polyadic_to_group(eq.left, cover_p), polyadic_to_group(eq.right, cover_p))
        for eq in system.equations
    ]
    vstar = [
        pt
        for pt in itertools.product(range(cg.order), repeat=m)
        if all(
            eval_group_term(left, pt, cg) == eval_group_term(right, pt, cg)
            for left, right in sides
        )
    ]
    star_projections = [tuple(pt[j] for pt in vstar) for j in range(m)]
    identity = (cg.identity,) * len(vstar)
    star_elements = sorted(
        geometry._generated(cg, identity, star_projections, caps, "word functions")
    )
    pos = {x: i for i, x in enumerate(star_elements)}
    table = [
        [pos[tuple(cg.mul(a, b) for a, b in zip(x, y))] for y in star_elements]
        for x in star_elements
    ]
    relaxed = replace(caps, max_table_order=max(caps.max_table_order, len(table)))
    names = [f"w{i}" for i in range(len(star_elements))]
    star_group = validate_group(names, table, name="word functions", caps=relaxed)
    gens = [cov.embed_index(gamma.elements.index(x)) for x in gamma.projections]
    images = [pos[proj] for proj in star_projections]
    hom, _ = hom_from_generator_images(cov.group, star_group, gens, images)
    ok = hom is not None and hom.is_surjective()
    return (ok, len(v_g), gamma.order, cov.order, len(vstar), len(star_elements))


def report_counts(rep):
    return (
        rep.ok, len(rep.v_g), rep.gamma_g_order, rep.cover_order,
        rep.v_star_count, rep.gamma_star_order,
    )


def free_term(rng, m, depth, n):
    """A random coefficient-free term."""
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return Variable(rng.randrange(m))
    if r < 0.55:
        return Skew(free_term(rng, m, depth - 1, n))
    return Apply(tuple(free_term(rng, m, depth - 1, n) for _ in range(n)))


def check_against_old(p, system):
    """The new report against the frozen one wherever the frozen one
    answers, and the epimorphism's images; whether it answered."""
    rep = theorem63_check(p, system)
    assert (rep.reason is None) == rep.ok
    if rep.ok:
        assert len(rep.epi_images) == rep.cover_order
        assert set(rep.epi_images) == set(range(rep.gamma_star_order))
    else:
        assert rep.epi_images is None
    assert rep.cover_order == (p.n - 1) * rep.gamma_g_order
    try:
        want = old_theorem63_check(p, system)
    except SizeCapExceeded:
        return False
    assert report_counts(rep) == want, system
    return True


@pytest.mark.parametrize("seed", range(4))
def test_theorem63_matches_old(seed, catalog, small_bases, random_derived):
    rng = random.Random(seed)
    groups = list(catalog.values()) + [random_derived(rng, b) for b in small_bases]
    answered = negative = 0
    for p in groups:
        for m in (1, 2):
            for _ in range(2):
                equations = tuple(
                    Equation(free_term(rng, m, 2, p.n), free_term(rng, m, 2, p.n))
                    for _ in range(rng.randrange(1, 3))
                )
                system = EquationSystem(p, m, equations)
                if check_against_old(p, system):
                    answered += 1
                    negative += not theorem63_check(p, system).ok
    assert answered >= 30
    assert negative >= 1


def test_theorem63_empty_solution_set(p4):
    # f(x,x,x) = x + 2 in p4 has no fixed point: Gamma has one element and
    # its cover is Z_2
    system = EquationSystem(p4, 1, eqs(p4, ["f(x1,x1,x1) = x1"]))
    rep = theorem63_check(p4, system)
    assert report_counts(rep) == (True, 0, 1, 2, 2, 2)
    assert rep.epi_images == (0, 1)
    assert check_against_old(p4, system)


def test_theorem63_identity_system_in_two_variables(p2, p7):
    system = EquationSystem(p2, 2, eqs(p2, ["x1 = x1"]))
    start = time.perf_counter()
    rep = theorem63_check(p2, system)
    assert time.perf_counter() - start < 1.0
    assert report_counts(rep)[:1] + report_counts(rep)[2:] == (False, 3, 6, 36, 972)
    assert rep.reason == "no homomorphism: 162 word functions lie over the cover's identity"
    # the coordinate group of p7's plane has 486 elements: its n-ary table
    # was past max_tabulate, and its cover past max_table_order
    system = EquationSystem(p7, 2, eqs(p7, ["x1 = x1"]))
    with pytest.raises(SizeCapExceeded):
        old_theorem63_check(p7, system)
    rep = theorem63_check(p7, system)
    assert report_counts(rep) == (True, 36, 486, 972, 144, 972)
    assert sorted(rep.epi_images) == list(range(972))


# ---------------------------------------------------------------------------
# seeded differential tests: compiled solve, generated closures and the
# coordinate-group table against direct oracles, on random derived groups
# over small bases and on their table forms

# Pairwise saturation makes |H|^n products per round, so the oracles run
# only where that stays small.
ORACLE_PRODUCTS = 20_000


def grid_scan(p, system):
    """Every point of G^m, each equation evaluated by eval_term."""
    return tuple(
        pt
        for pt in itertools.product(range(p.order), repeat=system.m)
        if all(eval_equation(eq, pt, p) for eq in system.equations)
    )


@pytest.mark.parametrize("seed", range(6))
def test_solve_matches_grid_scan(seed, small_bases, random_derived):
    rng = random.Random(seed)
    for base in small_bases:
        p = random_derived(rng, base)
        for q in (p, tabulate(p)):
            for _ in range(3):
                m = rng.randrange(4)
                equations = tuple(
                    Equation(
                        random_term(rng, m, q.order, 3, q.n),
                        random_term(rng, m, q.order, 2, q.n),
                    )
                    for _ in range(rng.randrange(1, 4))
                )
                s = EquationSystem(q, m, equations)
                assert solve(q, s).points == grid_scan(q, s), (q, equations)


def old_solve(p, system, caps=Caps()):
    """solve as it was before pivots: a depth-first search over all of
    G^m, binding x1, x2, ... in turn and checking each equation as soon as
    its highest-index variable is bound; max_points caps order**m."""
    m = system.m
    if p.order ** m > caps.max_points:
        raise SizeCapExceeded("solution grid", p.order ** m, caps.max_points)
    compile_term = TermCompiler(p)
    at_depth = [[] for _ in range(m + 1)]
    for eq in system.equations:
        used = term_variables(eq.left) | term_variables(eq.right)
        at_depth[max(used) + 1 if used else 0].append(
            (compile_term(eq.left), compile_term(eq.right))
        )
    tests = [
        (lambda a, pairs=pairs: all(left(a) == right(a) for left, right in pairs))
        if pairs else None
        for pairs in at_depth
    ]
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
    return tuple(sols)


def term_over(rng, free, order, depth, n, skews=True):
    """A random term over the variables in free, and constants."""
    r = rng.random()
    if depth <= 0 or r < 0.35:
        if r < 0.15 or not free:
            return Constant(rng.randrange(order))
        return Variable(rng.choice(free))
    if r < 0.55 and skews:
        return Skew(term_over(rng, free, order, depth - 1, n))
    return Apply(tuple(term_over(rng, free, order, depth - 1, n, skews) for _ in range(n)))


def pivot_system(rng, q, m, seen, skews=True):
    """A random system in m variables over q. Up to three pivots each
    occur once, on a random side of their own equation, inside random f
    nodes (at a random position) and skews (sometimes nested, unless skews
    is false); every other term ranges over the remaining variables.
    Sometimes a spare variable occurs once too, beside the first pivot.
    Adds what it built to seen."""
    pivots = rng.sample(range(m), rng.randrange(min(m, 3) + 1))
    free = [x for x in range(m) if x not in pivots]
    spare = free.pop() if free and pivots and rng.random() < 0.3 else None
    equations = []
    for x in pivots:
        t = Variable(x)
        for _ in range(rng.randrange(4)):
            if skews and rng.random() < 0.3:
                if isinstance(t, Skew):
                    seen.add("nested skews")
                t = Skew(t)
                continue
            kids = [term_over(rng, free, q.order, 1, q.n, skews) for _ in range(q.n)]
            pos = rng.randrange(q.n)
            kids[pos] = t
            seen.add(("position", pos))
            if spare is not None:
                kids[(pos + 1) % q.n] = Variable(spare)
                spare = None
                seen.add("two once-occurring variables")
            t = Apply(tuple(kids))
        other = term_over(rng, free, q.order, 2, q.n, skews)
        left = rng.random() < 0.5
        seen.add("pivot on the left" if left else "pivot on the right")
        equations.append(Equation(t, other) if left else Equation(other, t))
    for _ in range(rng.randrange(3) if pivots else rng.randrange(1, 3)):
        equations.append(
            Equation(
                term_over(rng, free, q.order, 2, q.n, skews),
                term_over(rng, free, q.order, 1, q.n, skews),
            )
        )
    rng.shuffle(equations)
    if not pivots:
        seen.add("no pivot")
    if m == 0:
        seen.add("m = 0")
    return EquationSystem(q, m, tuple(equations))


def pivot_groups(rng, small_bases, random_derived):
    """A random derived group over each small base and its table form, then
    Z4 with n = 4, theta = id and b = 0, whose skew x -> -2x has the
    fibres {0, 2} and {1, 3}."""
    groups = []
    for base in small_bases:
        p = random_derived(rng, base)
        groups += [p, tabulate(p)]
    z4 = cyclic_group(4)
    groups.append(derive(z4, identity_automorphism(z4), 0, 4))
    assert [groups[-1].skew(x) for x in z4.elements()] == [0, 2, 0, 2]
    return groups


@pytest.mark.parametrize("seed", range(4))
def test_solve_with_pivots_matches_old_solve(seed, small_bases, random_derived):
    """solve against the frozen search over all of G^m and against the
    eval_term grid scan, on random systems with pivots."""
    rng = random.Random(seed)
    seen = set()
    empty = 0
    for q in pivot_groups(rng, small_bases, random_derived):
        for _ in range(9):
            m = rng.randrange(5 if q.order <= 4 else 4)
            s = pivot_system(rng, q, m, seen)
            got = solve(q, s).points
            assert got == old_solve(q, s) == grid_scan(q, s), (q, s.equations)
            empty += not got
    assert empty >= 1
    wanted = {("position", i) for i in range(4)} | {
        "pivot on the left", "pivot on the right", "nested skews",
        "two once-occurring variables", "no pivot", "m = 0",
    }
    assert wanted <= seen, wanted - seen


@pytest.mark.parametrize("seed", range(3))
def test_solve_with_pivots_on_tables_that_are_not_groups(seed):
    """`solve` and `minimal_subsystem` take a table form through its
    Hosszú–Gluskin recovery, so a table without group laws is refused, with
    or without pivots, with the error that recovery raises."""
    rng = random.Random(seed)
    refused = 0
    for g, n in ((2, 3), (3, 3), (3, 4), (4, 3)):
        q = TablePolyadicGroup([f"e{i}" for i in range(g)], n,
                               [rng.randrange(g) for _ in range(g ** n)])
        try:
            as_derived(q)
            continue
        except PolyadicError as e:
            want = (type(e), str(e))
        for _ in range(6):
            s = pivot_system(rng, q, rng.randrange(1, 4), set(), skews=False)
            for fn in (solve, minimal_subsystem):
                with pytest.raises(PolyadicError) as info:
                    fn(q, s)
                assert (type(info.value), str(info.value)) == want, (fn, s.equations)
        refused += 1
    assert refused >= 3


def test_table_form_recovered_once_per_call(monkeypatch, catalog):
    """`minimal_subsystem` and `theorem63_check` recover a table form once
    per call, and the comparison reads |Γ(V_G)| off the cover's span
    without building Γ(V_G)."""
    calls = []
    recover = core.hosszu_gloskin

    def spy(*args, **kwargs):
        calls.append(args[0])
        return recover(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("coordinate_group called")

    monkeypatch.setattr(core, "hosszu_gloskin", spy)
    monkeypatch.setattr(geometry, "coordinate_group", refuse)
    for name in ("p2", "p6", "p7"):
        p = catalog[name]
        t = tabulate(p)
        rest = ",".join(["x2"] * (p.n - 2))
        system = EquationSystem(t, 2, eqs(t, [
            f"f(x1,{rest},x1) = f(x1,{rest},x1)", f"f(x1,{rest},x2) = f(x2,{rest},x1)",
            f"~x1 = ~x1", f"f(x1,{rest},x2) = f(x2,{rest},x1)",
        ]))
        del calls[:]
        ms = minimal_subsystem(t, system)
        assert calls == [t] and ms.p is t
        assert ms.equations == minimal_subsystem(p, system).equations
        del calls[:]
        rep = theorem63_check(t, system)
        assert calls == [t]
        assert report_counts(rep) == report_counts(theorem63_check(p, system))
        assert rep.v_g.system is system


def test_table_form_past_max_table_order_is_refused():
    """Z65 at n = 3 has a table of 65^3 entries, under max_tabulate, but its
    retract is a group table past max_table_order, so `solve` refuses the
    table form, as `coordinate_group` does. A derived form over Z65, which
    only raised caps build, answers."""
    table = [[(i + j) % 65 for j in range(65)] for i in range(65)]
    z65 = validate_group(list(map(str, range(65))), table, caps=Caps(max_table_order=65))
    p = derive(z65, identity_automorphism(z65), 0, 3)
    t = tabulate(p)
    for q, fn in ((t, solve), (t, coordinate_group), (p, solve)):
        system = EquationSystem(q, 1, eqs(q, ["f(x1,x1,x1) = 1"]))
        if q is p:
            assert fn(q, system).points == ((22,),)  # 3 * 22 = 1 mod 65
            continue
        with pytest.raises(SizeCapExceeded) as info:
            fn(q, system if fn is solve else AlgebraicSet(1, ((0,),)))
        assert (info.value.what, info.value.size, info.value.cap) == ("group order", 65, 64)


def test_table_form_recovered_under_the_callers_caps():
    """The caller's caps reach the recovery of a table form and its retract:
    raising max_table_order lets `solve`, `minimal_subsystem` and
    `coordinate_group` take the Z65 table form at n = 3, which the default
    caps refuse on its retract."""
    table = [[(i + j) % 65 for j in range(65)] for i in range(65)]
    raised = Caps(max_table_order=100)
    z65 = validate_group(list(map(str, range(65))), table, caps=raised)
    t = tabulate(derive(z65, identity_automorphism(z65), 0, 3))
    system = EquationSystem(t, 1, eqs(t, ["f(x1,x1,x1) = 1"]))
    assert solve(t, system, caps=raised).points == ((22,),)
    assert minimal_subsystem(t, system, caps=raised).equations == system.equations
    assert coordinate_group(t, AlgebraicSet(1, ((0,),)), caps=raised).order == 65
    with pytest.raises(SizeCapExceeded) as info:
        solve(t, system)
    assert (info.value.what, info.value.size, info.value.cap) == ("group order", 65, 64)


@pytest.mark.parametrize("seed", range(2))
def test_minimal_subsystem_matches_old_pass(seed, small_bases, random_derived):
    """The early-stopping trials keep the equations that the greedy pass
    over the frozen solve keeps."""
    rng = random.Random(seed)
    for q in pivot_groups(rng, small_bases, random_derived):
        s = pivot_system(rng, q, rng.randrange(4), set())
        target = old_solve(q, s)
        keep = list(s.equations)
        i = 0
        while i < len(keep):
            trial = keep[:i] + keep[i + 1 :]
            if old_solve(q, EquationSystem(q, s.m, tuple(trial))) == target:
                keep = trial
            else:
                i += 1
        assert minimal_subsystem(q, s).equations == tuple(keep), (q, s.equations)


def test_max_points_keyed_on_the_space_searched():
    """Z5 in 10 variables with 5 pivots searches 5^5 points, not 5^10;
    a skew on a pivot's path multiplies the space by its largest fibre."""
    z5 = cyclic_group(5)
    p = derive(z5, identity_automorphism(z5), 0, 3)
    names = list(p.names())
    texts = [f"f(x{i},x{i % 5 + 1},~x{i + 5}) = f(x{i % 5 + 1},x{i},1)" for i in range(1, 6)]
    s = EquationSystem(p, 10, tuple(parse_equation(t, element_names=names) for t in texts))
    with pytest.raises(SizeCapExceeded) as info:
        old_solve(p, s)
    assert info.value.size == 5 ** 10
    v = solve(p, s)
    assert len(v) == 5 ** 5
    assert all(eval_equation(eq, pt, p) for pt in v for eq in s.equations)
    assert list(v.points) == sorted(v.points)

    z4, z9 = cyclic_group(4), cyclic_group(9)
    q4 = derive(z4, identity_automorphism(z4), 0, 4)
    # Z9 at n = 5 has the skew x -> -3x, whose fibres have 3 elements
    q9 = derive(z9, identity_automorphism(z9), 0, 5)
    # x2, the highest variable that occurs once, is the pivot
    for q, text, space in (
        (q4, "~x2 = x1", 4 * 2), (q4, "~~x2 = x1", 4 * 4), (q4, "~x1 = 1", 2),
        (q9, "~~x2 = x1", 9 * 3 * 3),
    ):
        m = 2 if "x2" in text else 1
        s = EquationSystem(q, m, (parse_equation(text, element_names=list(q.names())),))
        with pytest.raises(SizeCapExceeded) as info:
            solve(q, s, caps=Caps(max_points=space - 1))
        assert (info.value.what, info.value.size) == ("solution grid", space)
        assert solve(q, s, caps=Caps(max_points=space)).points == grid_scan(q, s)


@pytest.mark.parametrize("seed", range(4))
def test_term_functions_match_naive_random(seed, small_bases, random_derived):
    rng = random.Random(seed)
    compared = 0
    for base in small_bases:
        p = random_derived(rng, base)
        for q in (p, tabulate(p)):
            for m in (1, 2):
                # abelian bases give the |G|^(m+1) affine functions; S3
                # gives 324 in one variable, too many for the oracle
                if base.is_abelian() and base.order ** ((m + 1) * p.n) <= ORACLE_PRODUCTS:
                    assert TermFunctions(q, m).functions == naive_algebra(q, m)
                    compared += 1
    assert compared >= 6


def power_f(p, args):
    """p's operation on coordinate tuples, coordinatewise."""
    return tuple(p.f(list(xs)) for xs in zip(*args))


def naive_power_closure(p, gens):
    """f/skew saturation of coordinate tuples, p's operation and skew
    applied coordinatewise, over tuples touching at least one new
    element."""
    closed = set(gens)
    frontier = set(gens)
    while frontier:
        snapshot = sorted(closed)
        fresh = {tuple(map(p.skew, x)) for x in frontier} - closed
        for args in itertools.product(snapshot, repeat=p.n):
            if any(a in frontier for a in args):
                v = power_f(p, args)
                if v not in closed:
                    fresh.add(v)
        closed |= fresh
        frontier = fresh
    return tuple(sorted(closed))


def power_flat(cg):
    """The coordinate group's flat table by coordinatewise f."""
    pos = {x: i for i, x in enumerate(cg.elements)}
    return [
        pos[power_f(cg.source, args)]
        for args in itertools.product(cg.elements, repeat=cg.source.n)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_coordinate_group_matches_saturation(seed, small_bases, random_derived):
    rng = random.Random(seed)
    for base in small_bases:
        p = random_derived(rng, base)
        for q in (p, tabulate(p)):
            m = rng.choice((1, 2))
            k = 2 if base.order ** (2 * p.n) <= ORACLE_PRODUCTS else 1
            grid = list(itertools.product(range(q.order), repeat=m))
            pts = tuple(sorted(rng.sample(grid, min(k, len(grid)))))
            with_constants = rng.random() < 0.7
            if not with_constants and m == 1 and len(pts) == 1:
                continue
            cg = coordinate_group(q, AlgebraicSet(m, pts), with_constants)
            gens = list(dict.fromkeys(cg.projections + cg.constants))
            assert cg.elements == naive_power_closure(cg.source, gens)
            assert list(cg.as_polyadic().flat) == power_flat(cg)


@pytest.mark.parametrize("seed", range(2))
def test_coordinate_group_cap_keyed_on_the_closure(seed, random_derived):
    """12 points over Z4: the power has 4^12 encodings, more than
    max_power_order, but only the closure is enumerated, so the
    coordinate group is built and agrees with the saturation oracle, while
    max_closure_algebra bounds the closure, and max_tabulate its entries."""
    rng = random.Random(seed)
    z4 = cyclic_group(4)
    assert z4.order ** 12 > Caps().max_power_order
    p = random_derived(rng, z4, (3,))
    grid = list(itertools.product(range(4), repeat=2))
    y = AlgebraicSet(2, tuple(sorted(rng.sample(grid, 12))))
    cg = coordinate_group(p, y, with_constants=False)
    gens = list(dict.fromkeys(cg.projections + cg.constants))
    assert cg.elements == naive_power_closure(cg.source, gens)
    assert set(cg.elements) <= set(coordinate_group(p, y).elements)
    with pytest.raises(SizeCapExceeded) as e:
        coordinate_group(p, y, caps=Caps(max_closure_algebra=cg.order - 1))
    assert e.value.what == "closure"
    coordinate_group(p, y, with_constants=False, caps=Caps(max_tabulate=12 * cg.order))
    with pytest.raises(SizeCapExceeded) as e:
        coordinate_group(p, y, with_constants=False, caps=Caps(max_tabulate=12 * cg.order - 1))
    assert (e.value.what, e.value.cap) == ("closure", cg.order - 1)


@pytest.mark.parametrize("seed", range(2))
def test_coordinate_group_many_points(seed, random_derived):
    """10-12 points over Z2 (m = 4) and 10 over Z3 (m = 3, no constants),
    where the term-function group stays small enough for the saturation
    oracle."""
    rng = random.Random(seed)
    for base, m, k, with_constants in (
        (cyclic_group(2), 4, rng.randrange(10, 13), rng.random() < 0.5),
        (cyclic_group(3), 3, 10, False),
    ):
        p = random_derived(rng, base, (3,))
        grid = list(itertools.product(range(base.order), repeat=m))
        pts = tuple(sorted(rng.sample(grid, k)))
        cg = coordinate_group(p, AlgebraicSet(m, pts), with_constants)
        gens = list(dict.fromkeys(cg.projections + cg.constants))
        assert cg.elements == naive_power_closure(cg.source, gens)
        assert list(cg.as_polyadic().flat) == power_flat(cg)
