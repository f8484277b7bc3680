"""Seeded differential tests: the step and flat tables against per-tuple f.

A derived group factors f into step tables, one lookup per argument, and
`tabulate` builds its table as their prefix products; a table form is compiled and solved
through its Hosszú–Gluskin recovery. Every reader of the whole
operation reads it: `tabulate`, the Hosszú–Gluskin check of a table,
`retract`, `skew_search`, `nary_identity`, `dornte_check`, the exhaustive
solvability scan, and the cover's homomorphism precheck (a derived group
is decided by its derivation data, `test_derivation_data.py`). Compiled
terms and coordinate groups
read the steps. Each must give what the per-tuple code it replaced gave,
frozen here, down to the witnesses and messages on corrupted operations.
"""

import random
from functools import reduce
from itertools import product
from operator import getitem

import pytest

from polyadic.caps import Caps
from polyadic.core import (
    DerivedPolyadicGroup,
    TablePolyadicGroup,
    closed_subsets_bruteforce,
    derive,
    derive_from_constant,
    dornte_check,
    hosszu_gloskin,
    is_polyadic_hom,
    nary_identity,
    polyadic_homs,
    polyadic_maps_bruteforce,
    polyadic_subgroups,
    retract,
    skew_search,
    tabulate,
    verify_axioms,
)
from polyadic.cover import (
    GroupPresentation,
    _conjugates,
    build_post_cover,
    extend_hom_to_cover,
)
from polyadic.errors import (
    NoSolution,
    NotPolyadicHom,
    PolyadicError,
    ReconstructionMismatch,
    SizeCapExceeded,
)
from polyadic.geometry import (
    AlgebraicSet,
    EquationSystem,
    coordinate_group,
    solve,
    structural_check,
)
from polyadic.groups import (
    GroupAutomorphism,
    cyclic_group,
    direct_product,
    identity_automorphism,
    symmetric_group,
    validate_group,
)
from polyadic.terms import Apply, Constant, Equation, Skew, Variable, eval_term
from polyadic.words import parse_word


# ---------------------------------------------------------------------------
# the replaced code, frozen


def old_tabulate_flat(p):
    return tuple(p.f(list(args)) for args in product(p.elements(), repeat=p.n))


def old_skew_search(p, x):
    prefix = [x] * (p.n - 1)
    sols = [y for y in p.elements() if p.f(prefix + [y]) == x]
    if len(sols) != 1:
        raise NoSolution(
            f"skew of {x}: {len(sols)} solutions, operation is not a polyadic group"
        )
    return sols[0]


def old_skew(p):
    """p's skew as the code before read it: the derived formula, or the
    per-tuple search for a table."""
    if isinstance(p, DerivedPolyadicGroup):
        return p.skew
    return lambda x: old_skew_search(p, x)


def old_retract(p, a):
    skew = old_skew(p)
    mid = [a] * (p.n - 2)
    table = [[p.f([x] + mid + [y]) for y in p.elements()] for x in p.elements()]
    g = validate_group(p.names(), table, name=f"ret_{p.name(a)}")
    sa = skew(a)
    if g.identity != sa:
        raise ReconstructionMismatch(("identity", a), sa, g.identity)
    for x in p.elements():
        formula = p.f([sa] + [x] * (p.n - 3) + [skew(x), sa])
        if formula != g.inv(x):
            raise ReconstructionMismatch(("inverse", x), g.inv(x), formula)
    return g


def old_hosszu_gloskin(p, a):
    g = old_retract(p, a)
    sa = old_skew(p)(a)
    tail = [a] * (p.n - 2)
    theta_images = tuple(p.f([sa, x] + tail) for x in p.elements())
    theta = GroupAutomorphism(g, theta_images)
    if not theta.is_valid():
        raise ReconstructionMismatch(("theta", a), "automorphism", theta_images)
    b = p.f([sa] * p.n)
    out = derive(g, theta, b, p.n)
    for args in product(p.elements(), repeat=p.n):
        args = list(args)
        if out.f(args) != p.f(args):
            raise ReconstructionMismatch(tuple(args), p.f(args), out.f(args))
    return out


def old_nary_identity(p):
    n = p.n
    for a in p.elements():
        good = True
        for i in range(1, n + 1):
            pre = [a] * (i - 1)
            post = [a] * (n - i)
            if any(p.f(pre + [x] + post) != x for x in p.elements()):
                good = False
                break
        if good:
            return a
    return None


def old_dornte_check(p):
    n = p.n
    skew = old_skew(p)
    for x in p.elements():
        try:
            sx = skew(x)
        except NoSolution:
            return False, ("no-skew", x)
        for i in range(2, n + 1):
            left_block = [x] * (i - 2) + [sx] + [x] * (n - i)
            for y in p.elements():
                if p.f(left_block + [y]) != y:
                    return False, ("left", i, x, y, p.f(left_block + [y]))
                if p.f([y] + [x] * (n - i) + [sx] + [x] * (i - 2)) != y:
                    return False, ("right", i, x, y)
    return True, None


def old_solvability_scan(p):
    """(solvability witness, uniqueness witness) of the old exhaustive scan."""
    n, g = p.n, p.order
    for pos in range(n):
        for rest in product(range(g), repeat=n - 1):
            seen = {}
            args = list(rest[:pos]) + [0] + list(rest[pos:])
            for x in range(g):
                args[pos] = x
                v = p.f(args)
                if v in seen:
                    return None, (pos, rest, v, seen[v], x)
                seen[v] = x
            if len(seen) != g:
                return (pos, rest, min(set(range(g)) - set(seen))), None
    return None, None


def old_hom_precheck(cover, beta, target):
    p = cover.polyadic
    for args in product(range(p.order), repeat=cover.n):
        acc = beta[args[0]]
        for x in args[1:]:
            acc = target.mul(acc, beta[x])
        if acc != beta[p.f(list(args))]:
            return args, beta[p.f(list(args))], acc
    return None


def old_as_polyadic(cg):
    """The coordinate group's table by per-prefix tuple products over the
    base group's columns, theta's powers and b."""
    d, n = cg.source, cg.source.n
    tuples = list(cg.elements)
    pos = {x: i for i, x in enumerate(tuples)}
    els = d.base.elements()
    cols = [tuple(d.base.mul(a, g) for a in els) for g in els]
    prefixes = tuples
    for k in range(1, n - 1):
        steps = [[cols[d.theta_pows[k][c]] for c in x] for x in tuples]
        prefixes = [tuple(map(getitem, s, pre)) for pre in prefixes for s in steps]
    bcol = cols[d.b]
    last = [tuple(bcol[v] for v in cols[t]) for t in d.theta_pows[n - 1]]
    steps = [[last[c] for c in x] for x in tuples]
    flat = [pos[tuple(map(getitem, s, pre))] for pre in prefixes for s in steps]
    return ["_".join(map(d.name, x)) for x in tuples], n, tuple(flat)


def old_conjugates(relators, generators):
    gen_pos = {g: i for i, g in enumerate(generators)}
    conjugates = [[] for _ in range(2 * len(generators))]
    for w in relators:
        rel = tuple(2 * gen_pos[g] + (0 if s > 0 else 1) for g, s in w.letters())
        if not rel:
            continue
        inv = tuple(c ^ 1 for c in reversed(rel))
        for r in dict.fromkeys(r[i:] + r[:i] for r in (rel, inv) for i in range(len(r))):
            conjugates[r[0]].append(r)
    return conjugates


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args):
    """What fn returned, or the type, message and fields of what it raised."""
    try:
        return "ok", fn(*args)
    except PolyadicError as e:
        return type(e).__name__, str(e), vars(e)


def recovered(result):
    """A recovery outcome with the derived group replaced by its data."""
    if result[0] != "ok":
        return result
    out = result[1]
    return "ok", out.base.table, out.theta.images, out.b, out.n


def corruptions(rng, flat, g, count):
    """`count` copies of flat, alternately with one entry changed and with
    two entries of different values swapped."""
    idx = range(len(flat))
    out = []
    for k in range(count):
        bad = list(flat)
        i = rng.choice(idx)
        if k % 2 == 0:
            bad[i] = rng.choice([v for v in range(g) if v != bad[i]])
        else:
            j = rng.choice([j for j in idx if bad[j] != bad[i]])
            bad[i], bad[j] = bad[j], bad[i]
        out.append(bad)
    return out


def through_steps(steps, args):
    acc = args[0]
    for rows, x in zip(steps, args[1:]):
        acc = rows[acc][x]
    return acc


def random_table(rng, g, n):
    """A table-form operation with random entries: almost never a group."""
    names = [f"e{i}" for i in range(g)]
    return TablePolyadicGroup(names, n, [rng.randrange(g) for _ in range(g ** n)])


def random_term(rng, n, m, g, depth):
    """A term without skews over m variables and constants below g."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Variable(rng.randrange(m))
        return Constant(rng.randrange(g))
    return Apply(tuple(random_term(rng, n, m, g, depth - 1) for _ in range(n)))


# ---------------------------------------------------------------------------
# flat, tabulate and the line readers on valid groups


@pytest.mark.parametrize("seed", range(4))
def test_flat_matches_per_tuple_f(seed, small_bases, random_derived):
    rng = random.Random(seed)
    for base in small_bases:
        p = random_derived(rng, base, (3, 4, 5))
        t = tabulate(p)
        assert t.flat == old_tabulate_flat(p), (base, p.n)
        assert tabulate(t).flat == t.flat
        for q in (p, t):
            a = rng.randrange(q.order)
            assert recovered(outcome(hosszu_gloskin, q, a)) == recovered(
                outcome(old_hosszu_gloskin, q, a)
            )
            assert retract(q, a).table == old_retract(q, a).table
            assert nary_identity(q) == old_nary_identity(q)
            assert dornte_check(q) == old_dornte_check(q)
        assert [skew_search(t, x) for x in t.elements()] == [
            old_skew_search(t, x) for x in t.elements()
        ]


@pytest.mark.parametrize("seed", range(2))
def test_derived_lines_need_no_flat(seed, small_bases, random_derived, no_table):
    """A derived group's lines come from its base group: they are the
    slices of its flat table, and the row readers never build that table."""
    rng = random.Random(seed)
    for base in small_bases:
        p = random_derived(rng, base, (3, 4, 5))
        q = derive(p.base, p.theta, p.b, p.n)
        a = rng.randrange(q.order)
        with no_table():
            assert retract(q, a).table == old_retract(q, a).table
            assert nary_identity(q) == old_nary_identity(q)
            assert dornte_check(q) == old_dornte_check(q)
            assert [skew_search(q, x) for x in q.elements()] == [q.skew(x) for x in q.elements()]
        t = tabulate(p)
        for pos in range(p.n):
            args = [rng.randrange(p.order) for _ in range(p.n)]
            assert q.line(args, pos) == t.line(args, pos), (base, pos)


@pytest.mark.parametrize("base", [cyclic_group(2), cyclic_group(3), cyclic_group(4)])
def test_flat_of_lazy_power_matches_per_tuple_f(base, random_derived, induced):
    """Over a direct power, the table of base times base, with a
    coordinatewise theta."""
    p = random_derived(random.Random(base.order), base, (3,))
    theta = induced(p.theta, 2)
    power = derive(theta.group, theta, p.b * base.order + p.b, 3)
    assert tabulate(power).flat == old_tabulate_flat(power)


@pytest.mark.parametrize("seed", range(3))
def test_steps_match_per_tuple_f(seed, small_bases, random_derived):
    """A derived group's steps give f on every tuple."""
    rng = random.Random(seed)
    forms = [random_derived(rng, base, (3, 4, 5)) for base in small_bases]
    for q in forms:
        assert len(q.steps) == q.n - 1
        for args in product(q.elements(), repeat=q.n):
            assert through_steps(q.steps, args) == q.f(list(args)), (q, args)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("with_constants", [True, False])
def test_as_polyadic_matches_per_prefix_products(n, with_constants, small_bases, random_derived):
    rng = random.Random(10 * n + with_constants)
    checked = 0
    for base in small_bases:
        p = random_derived(rng, base, (n,))
        grid = list(product(range(p.order), repeat=2))
        for k in (1, 2, 3):
            pts = tuple(sorted(rng.sample(grid, k)))
            cg = coordinate_group(p, AlgebraicSet(2, pts), with_constants=with_constants)
            if cg.order ** n > 2 * 10 ** 5:
                continue
            t = cg.as_polyadic()
            assert (t.names(), t.n, t.flat) == old_as_polyadic(cg), (base, pts)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("with_constants", [True, False])
def test_as_derived_matches_per_prefix_products(n, with_constants, small_bases, random_derived):
    """The derived form of Γ(Y), over its elements twisted by the first,
    has the names and flat table of the frozen tuple products."""
    rng = random.Random(10 * n + with_constants)
    checked = 0
    for base in small_bases:
        p = random_derived(rng, base, (n,))
        grid = list(product(range(p.order), repeat=2))
        for k in (1, 2, 3):
            pts = tuple(sorted(rng.sample(grid, k)))
            cg = coordinate_group(p, AlgebraicSet(2, pts), with_constants=with_constants)
            if cg.order ** n > 2 * 10 ** 5:
                continue
            d = cg.as_derived()
            assert isinstance(d, DerivedPolyadicGroup)
            assert (d.names(), d.n, tabulate(d).flat) == old_as_polyadic(cg), (base, pts)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("seed", range(3))
def test_solve_on_tables_that_are_not_groups(seed):
    """`solve` compiles over the Hosszú–Gluskin recovery of a table form,
    so a table without group laws is refused with the error its recovery
    at anchor 0 raises; a random table that is a group after all is solved
    as `eval_term` over the table says at every point."""
    rng = random.Random(seed)
    refused = 0
    for g, n, m in ((2, 3, 3), (3, 3, 2), (3, 4, 2), (4, 3, 2), (2, 5, 3)):
        p = random_table(rng, g, n)
        eqs = tuple(
            Equation(random_term(rng, n, m, g, 3), random_term(rng, n, m, g, 3))
            for _ in range(rng.randrange(1, 3))
        )
        got = outcome(solve, p, EquationSystem(p, m, eqs))
        want = outcome(hosszu_gloskin, p, 0)
        if want[0] != "ok":
            assert got == want, (g, n)
            refused += 1
            continue
        assert got[1].points == tuple(
            pt for pt in product(range(g), repeat=m)
            if all(eval_term(eq.left, pt, p) == eval_term(eq.right, pt, p) for eq in eqs)
        ), (g, n, eqs)
    assert refused >= 4


def test_flat_is_capped_before_it_is_built(no_table):
    z2 = cyclic_group(2)
    pg = reduce(direct_product, [z2] * 6)  # order 64: 64^4 entries exceed max_tabulate
    big = derive(pg, identity_automorphism(pg), 0, 4)
    with no_table(), pytest.raises(SizeCapExceeded) as e:
        tabulate(big)
    assert (e.value.what, e.value.size) == ("n-ary table", 64 ** 4)
    # tabulate honours the caps it is given
    z5 = cyclic_group(5)
    small = derive(z5, identity_automorphism(z5), 0, 3)
    with no_table(), pytest.raises(SizeCapExceeded):
        tabulate(small, caps=Caps(max_tabulate=124))
    assert len(tabulate(small, caps=Caps(max_tabulate=125)).flat) == 125
    # and not those the group was derived under: derived S4 at n = 5 is
    # derived under the default caps, which refuse its 24^5 table
    s4 = symmetric_group(4)
    p = derive_from_constant(s4, s4.identity, 5)
    with no_table(), pytest.raises(SizeCapExceeded) as e:
        tabulate(p)
    assert (e.value.what, e.value.size, e.value.cap) == ("n-ary table", 24 ** 5, 2 * 10 ** 6)
    t = tabulate(p, caps=Caps(max_tabulate=10 ** 8))
    assert len(t.flat) == 24 ** 5
    rng = random.Random(5)
    for _ in range(200):
        args = [rng.randrange(24) for _ in range(5)]
        assert t.f(args) == p.f(args), args


def test_power_never_builds_flat(small_bases, random_derived, induced, no_table):
    """Coordinate groups read the source's step tables coordinatewise, and
    `solve` over a derived group on a direct power reads its step tables,
    never the whole table of either."""
    rng = random.Random(5)
    for base in small_bases:
        p = random_derived(rng, base)
        grid = list(product(range(p.order), repeat=2))
        with no_table(p):  # Γ's own table is what as_polyadic builds
            cg = coordinate_group(p, AlgebraicSet(2, tuple(sorted(rng.sample(grid, 2)))))
            structural_check(cg)
            cg.as_polyadic()
        assert cg.source is p
        theta = induced(p.theta, 2)
        power = derive(theta.group, theta, p.b * base.order + p.b, p.n)
        c = rng.randrange(power.order)
        eq = Equation(Apply((Variable(0),) * power.n), Skew(Constant(c)))
        with no_table():
            sols = solve(power, EquationSystem(power, 1, (eq,)))
        want = [x for x in power.elements() if power.f([x] * power.n) == power.skew(c)]
        assert [s[0] for s in sols] == want


def test_direct_construction_is_bounded_by_its_step_tables():
    """The arity bound is the constructor's own: a derived group built
    without `derive` over a power of order 64 is refused at once under a
    cap one short of its 3 * 65 + 2 * (64^2 + 64 + 1) entries, and one of
    order 32 is built under the same cap."""
    z2 = cyclic_group(2)
    pg = reduce(direct_product, [z2] * 6)
    g = pg.order
    size = 3 * (g + 1) + 2 * (g * g + g + 1)
    caps = Caps(max_tabulate=size - 1)
    with pytest.raises(SizeCapExceeded) as e:
        DerivedPolyadicGroup(pg, identity_automorphism(pg), pg.identity, 3, caps=caps)
    assert (e.value.what, e.value.size) == ("arity", size)
    small = reduce(direct_product, [z2] * 5)
    d = DerivedPolyadicGroup(small, identity_automorphism(small), small.identity, 3, caps=caps)
    assert len(d.steps) == 2 and len(d.steps[0]) == 32


# ---------------------------------------------------------------------------
# witnesses on corrupted operations


@pytest.mark.parametrize("seed", range(4))
def test_corrupted_tables_give_the_old_witnesses(seed, small_bases, random_derived):
    """Reconstruction mismatches, Dornte witnesses and the exhaustive
    uniqueness witness on one-entry and swap corruptions."""
    rng = random.Random(seed)
    kinds = set()
    for base in small_bases:
        p = random_derived(rng, base, (3, 4))
        for flat in corruptions(rng, tabulate(p).flat, p.order, 4):
            bad = TablePolyadicGroup(p.names(), p.n, flat)
            a = rng.randrange(p.order)
            got = outcome(hosszu_gloskin, bad, a)
            assert got == outcome(old_hosszu_gloskin, bad, a), (base, a)
            kinds.add(got[0] if got[0] != "ReconstructionMismatch" else got[1][:24])
            assert dornte_check(bad) == old_dornte_check(bad)
            rep = verify_axioms(bad)
            solv, uniq = old_solvability_scan(bad)
            assert (rep.solvability_witness, rep.uniqueness_witness) == (solv, uniq)
            assert rep.solvable == (solv is None) and rep.unique == (uniq is None)
    # the flat comparison, not only the retract, must have named tuples
    assert "reconstruction differs a" in kinds


def test_identity_criterion_matches_the_scan(small_bases, every_derived):
    """On a derived group `nary_identity` reads one line per element, the
    map theta_a when skew(a) = a; it finds what the frozen per-tuple scan
    finds, on every (theta, b) of the small bases, Z1 and Z6 at n = 3..6,
    and on the table forms."""
    bases = [cyclic_group(1), cyclic_group(6)] + small_bases
    found = set()
    for base in bases:
        for n in (3, 4, 5, 6):
            for p in every_derived(base, n):
                want = old_nary_identity(p)
                assert nary_identity(p) == want, (base, n)
                assert nary_identity(tabulate(p)) == want, (base, n)
                found.add(want is None)
    assert found == {True, False}


@pytest.mark.parametrize("order", [2, 3])
def test_oracles_agree_at_arity_7(order, every_derived):
    """Subgroups, homs, the Dörnte identities and the identity against the
    brute-force oracles and frozen scans, on both forms of every derived
    7-ary group over Z2 and Z3."""
    ps = every_derived(cyclic_group(order), 7)
    forms = [q for p in ps for q in (p, tabulate(p))]
    for q in forms:
        assert polyadic_subgroups(q) == closed_subsets_bruteforce(q), q
        assert dornte_check(q) == old_dornte_check(q), q
        assert nary_identity(q) == old_nary_identity(q), q
    pairs = [(p, r) for p in ps for r in ps] + [(tabulate(p), p) for p in ps]
    homs = 0
    for q, r in pairs:
        got = tuple(h.images for h in polyadic_homs(q, r))
        assert got == polyadic_maps_bruteforce(q, r), (q, r)
        assert all(is_polyadic_hom(q, r, images) for images in got)
        homs += len(got)
    assert homs > 0


def test_oracles_are_capped():
    """Each oracle checks its maps or subsets and its n-tuples before it
    enumerates them."""
    z3 = cyclic_group(3)
    p = derive(z3, identity_automorphism(z3), 0, 7)
    cases = [
        (lambda c: closed_subsets_bruteforce(p, caps=c), "max_points", 7, "subset enumeration"),
        (lambda c: closed_subsets_bruteforce(p, caps=c), "max_axiom_tuples", 2186, "oracle tuples"),
        (lambda c: polyadic_maps_bruteforce(p, p, caps=c), "max_axiom_tuples", 2186, "oracle tuples"),
        (lambda c: is_polyadic_hom(p, p, (0, 1, 2), caps=c), "max_axiom_tuples", 2186, "oracle tuples"),
    ]
    for call, field, limit, what in cases:
        with pytest.raises(SizeCapExceeded) as e:
            call(Caps(**{field: limit}))
        assert (e.value.what, e.value.cap) == (what, limit)
        call(Caps(**{field: limit + 1}))


@pytest.mark.parametrize("name", ["p1", "p5"])
def test_identity_broken_at_each_position(catalog, name):
    """One entry of the n-ary identity's line at each position changed:
    `nary_identity` must see every position, as the per-tuple loop did."""
    t = tabulate(catalog[name])
    e = nary_identity(t)
    assert e is not None
    for pos in range(t.n):
        args = [e] * t.n
        args[pos] = (e + 1) % t.order
        i = sum(x * t.order ** (t.n - 1 - k) for k, x in enumerate(args))
        flat = list(t.flat)
        flat[i] = e
        bad = TablePolyadicGroup(t.names(), t.n, flat)
        assert nary_identity(bad) == old_nary_identity(bad) != e, pos


def test_extend_hom_precheck_matches_per_tuple_loop(catalog):
    rng = random.Random(3)
    checked = 0
    for p in catalog.values():
        cover = build_post_cover(p)
        target = cover.group
        for _ in range(4):
            beta = tuple(rng.choice(list(cover.embedded())) for _ in p.elements())
            want = old_hom_precheck(cover, beta, target)
            if want is None:
                extend_hom_to_cover(cover, beta, target)
                continue
            with pytest.raises(NotPolyadicHom) as e:
                extend_hom_to_cover(cover, beta, target)
            assert str(e.value) == str(NotPolyadicHom(*want))
            assert (e.value.expected, e.value.got) == want[1:]
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# relator conjugates


@pytest.mark.parametrize(
    "relators",
    [
        ["a^5", "b^2", "a b a b"],
        ["a*b*a^-1*b^-1", "a^3", "b^3"],
        ["a b a b", "a b' a b' a b'", "a b a' b'"],
        ["a^2 b^2", "a b a b a b", "b a b' a'", "1"],
        ["a a'", "b^-4", "a^2 b a^2 b a^2 b", "a b a b^2"],
    ],
)
def test_conjugates_match_every_rotation(relators):
    """Only distinct rotations, in the order the full rotation list gave."""
    words = tuple(parse_word(w) for w in relators)
    pres = GroupPresentation(("a", "b"), words)
    assert _conjugates(pres, Caps()) == old_conjugates(words, ("a", "b"))
