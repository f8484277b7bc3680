"""Seeded differential tests: generator BFS against the loops it replaced.

`subgroup_closure` is the set a breadth-first search from the identity
reaches, `subgroups` is a cyclic-extension lattice, `polyadic_subgroups`
translates the base's lattice once instead of rebuilding one per twist,
and homomorphisms are checked on Cayley-graph edges instead of on all
pairs. Each must give what the code it replaced gave, frozen here: the
pairwise closure, its lattice completion, the per-u lattice of the twist,
the all-pairs `_is_hom` and `is_valid` checks, down to the reason tuples
of `hom_from_generator_images`, the cover's own propagation, and the
word BFS whose order and definitions `cayley_walk` keeps.
"""

import random
from itertools import product

import pytest

from polyadic.core import (
    as_derived,
    closed_subsets_bruteforce,
    derive,
    polyadic_subgroups,
    retract,
    tabulate,
)
from polyadic.caps import Caps
from polyadic.cover import build_post_cover, extend_hom_to_cover
from polyadic.errors import NotPolyadicHom, SizeCapExceeded
from polyadic.geometry import coordinate_group
from polyadic.groups import (
    GroupAutomorphism,
    Hom,
    are_isomorphic,
    automorphism,
    cayley_walk,
    cyclic_group,
    dimino,
    direct_product,
    enumerate_homs,
    generating_set,
    hom_from_generator_images,
    identity_automorphism,
    psi_u,
    subgroup_closure,
    subgroup_table,
    subgroups,
    symmetric_group,
    validate_group,
)


# ---------------------------------------------------------------------------
# the replaced code, frozen


def old_subgroup_closure(g, seed):
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


def old_generating_set(g):
    gens = []
    closed = {g.identity}
    while len(closed) < g.order:
        x = min(i for i in g.elements() if i not in closed)
        gens.append(x)
        closed = set(old_subgroup_closure(g, gens))
    return gens


def old_subgroups(g):
    found = {frozenset([g.identity])}
    for x in g.elements():
        found.add(old_subgroup_closure(g, [x]))
    changed = True
    while changed:
        changed = False
        for sub in sorted(found, key=lambda s: (len(s), sorted(s))):
            if len(sub) == g.order:
                continue
            for x in g.elements():
                if x not in sub:
                    bigger = old_subgroup_closure(g, list(sub) + [x])
                    if bigger not in found:
                        found.add(bigger)
                        changed = True
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def old_cyclic_subgroups(g):
    """`subgroups` before it grew <H, x> from H by cosets: the same cyclic
    extension, with each <gens + [x]> a breadth-first search from the
    identity. It stands in for `old_subgroups` on groups past order 64,
    where the pairwise closure takes minutes."""
    trivial = frozenset([g.identity])
    found = {trivial: []}
    queue = [trivial]
    for sub in queue:
        gens = found[sub]
        tried = set(sub)
        for x in g.elements():
            if x in tried:
                continue
            tried.update(g.mul(y, x) for y in sub)
            bigger = frozenset(old_bfs_words(g, gens + [x])[0])
            if bigger not in found:
                found[bigger] = gens + [x]
                queue.append(bigger)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def old_polyadic_subgroups(p, twist):
    d = as_derived(p)
    base, theta = d.base, d.theta
    found = set()
    for u in base.elements():
        fu = d.f([u] * d.n)
        psi = psi_u(base, theta, u)
        for sub in old_subgroups(twist(base, u)):
            if fu in sub and all(psi[x] in sub for x in sub):
                found.add(tuple(sorted(sub)))
    return tuple(sorted(found, key=lambda s: (len(s), s)))


def old_bfs_words(g, gens):
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


def old_propagate(g, h, gen_images, order, defs):
    img = {g.identity: h.identity}
    for x in order[1:]:
        parent, pos = defs[x]
        img[x] = h.mul(img[parent], gen_images[pos])
    return img


def old_is_hom(g, h, img):
    for a in g.elements():
        ia = img[a]
        for b in g.elements():
            if img[g.mul(a, b)] != h.mul(ia, img[b]):
                return False
    return True


def old_enumerate_homs(g, h):
    gens = old_generating_set(g)
    order, defs = old_bfs_words(g, gens)
    if not gens:
        return [Hom(g, h, tuple([h.identity] * g.order))]
    gen_orders = [g.element_order(x) for x in gens]
    candidates = [
        [y for y in h.elements() if gen_orders[pos] % h.element_order(y) == 0]
        for pos in range(len(gens))
    ]
    found = []
    for choice in product(*candidates):
        img = old_propagate(g, h, choice, order, defs)
        if old_is_hom(g, h, img):
            found.append(Hom(g, h, tuple(img[x] for x in g.elements())))
    found.sort(key=lambda hm: hm.images)
    return found


def old_hom_from_generator_images(g, h, gens, images):
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
    if not old_is_hom(g, h, img):
        for a in g.elements():
            for b in g.elements():
                if img[g.mul(a, b)] != h.mul(img[a], img[b]):
                    return None, ("clash", a, b)
    return Hom(g, h, tuple(img[x] for x in g.elements())), None


def old_cover_images(cover, beta, target):
    """The propagation `extend_hom_to_cover` once ran after a per-tuple
    precheck of beta; no map passing it gives an element two images."""
    g = cover.group
    images = [None] * g.order
    frontier = []
    for x in range(cover.base_order):
        c = cover.embed_index(x)
        images[c] = beta[x]
        frontier.append(c)
    while frontier:
        new = []
        for u in frontier:
            for x in range(cover.base_order):
                w = g.mul(u, cover.embed_index(x))
                val = target.mul(images[u], beta[x])
                if images[w] is None:
                    images[w] = val
                    new.append(w)
                elif images[w] != val:
                    raise AssertionError(f"two images for {w}")
        frontier = new
    return tuple(images)


def old_are_isomorphic(g, h):
    if g.order != h.order:
        return False, None
    if g.order_profile() != h.order_profile():
        return False, None
    gens = old_generating_set(g)
    order, defs = old_bfs_words(g, gens)
    gen_orders = [g.element_order(x) for x in gens]
    candidates = [
        [y for y in h.elements() if h.element_order(y) == gen_orders[pos]]
        for pos in range(len(gens))
    ]
    for choice in product(*candidates):
        img = old_propagate(g, h, choice, order, defs)
        vals = tuple(img[x] for x in g.elements())
        if len(set(vals)) != g.order:
            continue
        if old_is_hom(g, h, img):
            return True, Hom(g, h, vals)
    return False, None


# ---------------------------------------------------------------------------
# groups under test


def _images(hom):
    return None if hom is None else hom.images


def _relabelled(rng, g):
    """g with its elements renamed by a random permutation, as a validated
    table, so the identity sits at a random index."""
    perm = list(g.elements())
    rng.shuffle(perm)
    back = {y: x for x, y in enumerate(perm)}
    table = [[back[g.mul(perm[a], perm[b])] for b in g.elements()] for a in g.elements()]
    return validate_group([str(i) for i in g.elements()], table, name="relabelled")


@pytest.fixture(scope="module")
def zoo(twist):
    """Table groups, twists and direct powers, all of order at most 9."""
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    k4 = direct_product(z2, z2, name="K4")
    return [
        cyclic_group(1),
        z2,
        z3,
        cyclic_group(4),
        k4,
        cyclic_group(6),
        s3,
        direct_product(cyclic_group(4), z2),
        twist(s3, s3.index("120")),
        twist(k4, 3),
        direct_product(k4, z2),
        direct_product(z3, z3),
    ]


@pytest.fixture(scope="module")
def s4_and_s4xz2():
    s4 = symmetric_group(4)
    return [s4, direct_product(s4, cyclic_group(2))]


# ---------------------------------------------------------------------------
# closure and lattice


@pytest.mark.parametrize("seed", range(3))
def test_cayley_walk_matches_old_bfs_words(seed, zoo, s4_and_s4xz2):
    """The walk visits in the frozen BFS order, lists every edge once, and
    the first edge reaching each element is the definition the BFS records."""
    rng = random.Random(seed)
    for g in zoo + s4_and_s4xz2:
        for _ in range(6):
            gens = [rng.randrange(g.order) for _ in range(rng.randrange(4))]
            order, edges = cayley_walk(g, gens)
            old_order, defs = old_bfs_words(g, gens)
            assert order == old_order, (g, gens)
            assert edges == [
                (x, pos, g.mul(x, gen)) for x in order for pos, gen in enumerate(gens)
            ]
            first = {}
            for x, pos, y in edges:
                first.setdefault(y, (x, pos))
            assert {y: first[y] for y in order[1:]} == {
                y: d for y, d in defs.items() if d is not None
            }, (g, gens)


@pytest.mark.parametrize("seed", range(3))
def test_subgroup_closure_matches_pairwise(seed, zoo, s4_and_s4xz2):
    rng = random.Random(seed)
    for g in zoo + s4_and_s4xz2:
        assert generating_set(g) == old_generating_set(g), g
        for _ in range(6):
            seed_set = rng.sample(range(g.order), rng.randrange(min(4, g.order) + 1))
            assert subgroup_closure(g, seed_set) == old_subgroup_closure(g, seed_set)


@pytest.mark.parametrize("seed", range(3))
def test_lattice_matches_old_on_relabellings(seed, zoo, s4_and_s4xz2):
    """The same answers when the elements are renamed at random, so the
    identity and the generators sit at other indices."""
    rng = random.Random(seed)
    for g in zoo + [s4_and_s4xz2[0]]:
        h = _relabelled(rng, g)
        assert generating_set(h) == old_generating_set(h), g
        for _ in range(4):
            seed_set = rng.sample(range(h.order), rng.randrange(min(4, h.order) + 1))
            assert subgroup_closure(h, seed_set) == old_subgroup_closure(h, seed_set)
        assert subgroups(h) == old_subgroups(h), g


def test_dimino_grows_by_whole_cosets(zoo, s4_and_s4xz2):
    """From the trivial group and from a subgroup H, `dimino` gives the
    subgroup its generators generate, each element once and H's first;
    it keeps exactly the generators outside the subgroup so far, builds
    right multiplication once for each, and makes one product per new
    element plus one per coset representative and kept generator."""
    rng = random.Random(5)
    for g in zoo + s4_and_s4xz2:
        lattice = subgroups(g)
        for _ in range(8):
            sub = rng.choice(lattice)
            start, kept = dimino([g.identity], [], sorted(sub), g.right)
            assert set(start) == sub
            gens = [rng.randrange(g.order) for _ in range(rng.randrange(5))]
            steps, products = [], [0]

            def step(y):
                steps.append(y)
                move = g.right(y)

                def apply(x):
                    products[0] += 1
                    return move(x)

                return apply

            elements, got = dimino(start, kept, gens, step)
            assert elements[:len(start)] == start
            assert len(elements) == len(set(elements))
            assert frozenset(elements) == old_subgroup_closure(g, list(sub) + gens)
            assert steps == got == kept + [
                x for i, x in enumerate(gens)
                if x not in old_subgroup_closure(g, list(sub) + gens[:i])
            ]
            new = len(elements) - len(start)
            assert new <= products[0] <= new + (new // len(start) + 1) * len(got)


def test_one_generator_dimino_lists_the_powers(zoo, s4_and_s4xz2):
    """From the trivial group, `dimino` of one generator x lists x^0, x^1,
    ..., x^(ord(x)-1) in order, the order `cayley_walk` visits them in,
    which `theorem63_check` reads its grading element's powers from."""
    for g in zoo + [s4_and_s4xz2[0]]:
        for x in g.elements():
            powers = dimino([g.identity], [], [x], g.right)[0]
            assert powers == cayley_walk(g, [x])[0], (g, x)
            assert powers == [g.power(x, k) for k in range(g.element_order(x))], (g, x)


def test_subgroups_match_lattice_completion(zoo, s4_and_s4xz2):
    for g in zoo + s4_and_s4xz2:
        assert subgroups(g) == old_subgroups(g), g
    assert [len(subgroups(g)) for g in s4_and_s4xz2] == [30, 98]


@pytest.mark.parametrize("seed", range(4))
def test_polyadic_subgroups_match_per_twist_lattices(seed, small_bases, random_derived, twist):
    rng = random.Random(seed)
    for base in small_bases:
        p = random_derived(rng, base)
        for q in (p, tabulate(p)):
            got = polyadic_subgroups(q)
            assert got == old_polyadic_subgroups(q, twist), q
            assert got == closed_subsets_bruteforce(q), q


def _order16_and_below(induced, twist):
    """Derived groups over twists, direct powers and tables of order 6-16,
    with identity theta and b the identity, or a coordinatewise theta."""
    z2, z3, z4, s3 = cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)
    d4 = subgroup_table(
        symmetric_group(4),
        next(h for h in subgroups(symmetric_group(4)) if len(h) == 8),
        name="D4",
    )
    out = []
    for base, n in (
        (twist(s3, s3.index("201")), 3),
        (direct_product(direct_product(z2, z2), z2), 4),
        (d4, 3),
        (direct_product(z4, z4), 3),
        (direct_product(direct_product(z2, z2), cyclic_group(4)), 3),
    ):
        out.append(derive(base, identity_automorphism(base), base.identity, n))
    theta = induced(automorphism(z3, (0, 2, 1)), 2)
    out.append(derive(theta.group, theta, theta.group.identity, 3))
    return out


def test_polyadic_subgroups_match_bruteforce_to_order_16(induced, twist):
    for p in _order16_and_below(induced, twist):
        got = polyadic_subgroups(p)
        assert got == closed_subsets_bruteforce(p), p
        assert got == old_polyadic_subgroups(p, twist), p


def test_lattice_of_a_coordinate_group_of_order_108():
    """Γ of derived S3 (theta = id, b = e, n = 3) at the points (1), (3),
    (4) has order 108. Under the default caps its lattice is the old one
    and its polyadic subgroups are closed; a lattice whose extensions add
    more elements than max_axiom_tuples is refused as "subgroup lattice"."""
    s3 = symmetric_group(3)
    d = derive(s3, identity_automorphism(s3), s3.identity, 3)
    gamma = coordinate_group(d, [(1,), (3,), (4,)]).as_derived()
    assert gamma.order == 108
    lattice = subgroups(gamma.base)
    assert len(lattice) == 368
    assert lattice == old_cyclic_subgroups(gamma.base)
    carriers = polyadic_subgroups(gamma)
    assert len(carriers) == 884
    rng = random.Random(108)
    for carrier in carriers:
        inside = set(carrier)
        assert all(gamma.skew(x) in inside for x in carrier)
        for _ in range(5):
            assert gamma.f([rng.choice(carrier) for _ in range(3)]) in inside
    small = Caps(max_axiom_tuples=10 ** 5)
    for call in (lambda: subgroups(gamma.base, small), lambda: polyadic_subgroups(gamma, small)):
        with pytest.raises(SizeCapExceeded) as e:
            call()
        assert e.value.what == "subgroup lattice" and e.value.cap == 10 ** 5


def test_polyadic_subgroups_cap_the_translates():
    """The translates K . u of the base's subgroups hold N * sum(|K|)
    elements, 6 * 16 = 96 for derived S3, checked against max_axiom_tuples
    before the first is built, after the lattice itself passed."""
    s3 = symmetric_group(3)
    d = derive(s3, identity_automorphism(s3), s3.identity, 3)
    tight = Caps(max_axiom_tuples=95)
    assert len(subgroups(s3, tight)) == 6
    with pytest.raises(SizeCapExceeded) as e:
        polyadic_subgroups(d, tight)
    assert (e.value.what, e.value.size, e.value.cap) == ("subgroup translates", 96, 95)
    assert polyadic_subgroups(d, Caps(max_axiom_tuples=96)) == polyadic_subgroups(d)


# ---------------------------------------------------------------------------
# homomorphisms


def test_enumerate_homs_match_all_pairs_check(zoo):
    small = [g for g in zoo if g.order <= 6]
    for g in small:
        for h in small:
            new = [hm.images for hm in enumerate_homs(g, h)]
            assert new == [hm.images for hm in old_enumerate_homs(g, h)], (g, h)


@pytest.mark.parametrize("seed", range(3))
def test_are_isomorphic_matches_all_pairs_check(seed, zoo):
    rng = random.Random(seed)
    pairs = [(g, h) for g in zoo for h in zoo if g.order == h.order]
    pairs += [(g, _relabelled(rng, g)) for g in zoo]
    for g, h in pairs:
        ok, wit = are_isomorphic(g, h)
        old_ok, old_wit = old_are_isomorphic(g, h)
        assert (ok, _images(wit)) == (old_ok, _images(old_wit)), (g, h)


@pytest.mark.parametrize("seed", range(3))
def test_is_valid_matches_all_pairs_check(seed, zoo):
    rng = random.Random(seed)
    verdicts = set()
    for g in zoo:
        for h in rng.sample(zoo, 3) + [g]:
            homs = enumerate_homs(g, h)
            for _ in range(10):
                images = list(rng.choice(homs).images)
                if rng.random() < 0.6:
                    images[rng.randrange(g.order)] = rng.randrange(h.order)
                valid = old_is_hom(g, h, images)
                assert Hom(g, h, tuple(images)).is_valid() == valid, (g, h, images)
                if h is g:
                    bijective = sorted(images) == list(g.elements())
                    assert GroupAutomorphism(g, images).is_valid() == (bijective and valid)
                verdicts.add(valid)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(6))
def test_hom_from_generator_images_matches_old_reasons(seed, zoo):
    rng = random.Random(seed)
    kinds = set()
    for g in zoo:
        for h in rng.sample(zoo, 4):
            homs = enumerate_homs(g, h)
            for _ in range(8):
                gens = [rng.randrange(g.order) for _ in range(rng.randrange(1, 4))]
                if rng.random() < 0.4:
                    # images of a real homomorphism: success when gens generate
                    images = [rng.choice(homs).images[x] for x in gens]
                else:
                    images = [rng.randrange(h.order) for _ in gens]
                hom, reason = hom_from_generator_images(g, h, gens, images)
                old_hom, old_reason = old_hom_from_generator_images(g, h, gens, images)
                assert (_images(hom), reason) == (_images(old_hom), old_reason), (
                    g, h, gens, images
                )
                kinds.add("ok" if reason is None else reason[0])
    assert kinds == {"ok", "clash", "not-generating"}


def test_extend_hom_to_cover_matches_propagation(catalog):
    targets = [cyclic_group(6), symmetric_group(3), cyclic_group(4)]
    extended = 0
    for key, p in catalog.items():
        cover = build_post_cover(p)
        for target in targets:
            for beta in enumerate_homs(retract(p, 0), target):
                try:
                    hom = extend_hom_to_cover(cover, beta.images, target)
                except NotPolyadicHom:
                    continue
                assert hom.images == old_cover_images(cover, beta.images, target), key
                extended += 1
    assert extended > 20
