"""polyadic_homs against a frozen copy of its earlier form and against the
brute-force map enumeration, on seeded random derived n-ary groups.

The frozen search propagates every tuple of generator images over all of
g before it checks the Cayley edges, and the frozen polyadic_homs checks
phi . theta_p = I_a . theta_q . phi on every element and dedups by image
array. The current search checks each edge as it reaches it and the
intertwining condition on generators only; both must give the same maps.
"""

import random
from itertools import product

import pytest

from polyadic.core import (
    PolyadicHom,
    as_derived,
    is_polyadic_hom,
    polyadic_homs,
    polyadic_maps_bruteforce,
    tabulate,
)
from polyadic.groups import (
    cyclic_group,
    direct_product,
    generating_set,
    symmetric_group,
)

# ---------------------------------------------------------------------------
# frozen reference


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


def old_propagate(g, h, gens, gen_images, order, defs):
    img = {g.identity: h.identity}
    for x in order[1:]:
        parent, pos = defs[x]
        img[x] = h.mul(img[parent], gen_images[pos])
    return img


def old_first_bad_edge(g, h, gens, gen_images, order, img):
    for x in order:
        ix = img[x]
        for gen, gi in zip(gens, gen_images):
            if img[g.mul(x, gen)] != h.mul(ix, gi):
                return x, gen
    return None


def old_enumerate_homs(g, h):
    gens = generating_set(g, key=lambda x: -g.element_order(x))
    order, defs = old_bfs_words(g, gens)
    candidates = [
        [y for y in h.elements() if g.element_order(x) % h.element_order(y) == 0]
        for x in gens
    ]
    found = []
    for choice in product(*candidates):
        img = old_propagate(g, h, gens, choice, order, defs)
        if old_first_bad_edge(g, h, gens, choice, order, img) is None:
            found.append(tuple(img[x] for x in g.elements()))
    return sorted(found)


def old_polyadic_homs(p, q):
    dp, dq = as_derived(p), as_derived(q)
    gb, hb = dp.base, dq.base
    homs = old_enumerate_homs(gb, hb)
    out = {}
    for a in hb.elements():
        ia_eta = tuple(
            hb.conjugate(a, dq.theta(x)) for x in hb.elements()
        )
        fa = dq.f([a] * dq.n)
        for phi in homs:
            if fa != hb.mul(phi[dp.b], a):
                continue
            if any(
                phi[dp.theta(x)] != ia_eta[phi[x]] for x in gb.elements()
            ):
                continue
            images = tuple(hb.mul(phi[x], a) for x in gb.elements())
            if images not in out:
                out[images] = PolyadicHom(images=images, a=a, phi=phi)
    return tuple(out[k] for k in sorted(out))


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bases(small_bases):
    return small_bases + [
        symmetric_group(4),
        direct_product(symmetric_group(3), cyclic_group(2), name="S3xZ2"),
    ]


def _forms(p):
    """p, and its tabulated form where |G|^n fits the default cap."""
    return [p, tabulate(p)] if p.order ** p.n <= 2 * 10 ** 6 else [p]


@pytest.mark.parametrize("seed", range(2))
def test_polyadic_homs_match_frozen(seed, bases, random_derived):
    """Each base as the source at each arity, against a random target."""
    rng = random.Random(seed)
    seen, found = set(), 0
    for n in (3, 4, 5):
        for g in bases:
            h = rng.choice(bases)
            p = random_derived(rng, g, (n,))
            q = random_derived(rng, h, (n,))
            for pf, qf in product(_forms(p), _forms(q)):
                got = polyadic_homs(pf, qf)
                want = old_polyadic_homs(pf, qf)
                assert got == want, (g, h, n)
                seen.add((type(pf).__name__, type(qf).__name__))
                found += len(got)
    assert len(seen) == 4 and found > 0


@pytest.mark.parametrize("seed", range(3))
def test_polyadic_homs_match_bruteforce(seed, small_bases, random_derived):
    """Wherever |q|^|p| fits the enumeration's cap: every base pair over
    Z2-Z5, S3 and K4, in both forms."""
    rng = random.Random(100 + seed)
    n = 3 + seed
    for g, h in product(small_bases, repeat=2):
        p = random_derived(rng, g, (n,))
        q = random_derived(rng, h, (n,))
        pf, qf = rng.choice(_forms(p)), rng.choice(_forms(q))
        got = tuple(hm.images for hm in polyadic_homs(pf, qf))
        assert got == polyadic_maps_bruteforce(pf, qf), (g, h, n)
        assert all(is_polyadic_hom(pf, qf, images) for images in got)
