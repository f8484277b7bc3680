import random

import pytest

from polyadic.caps import Caps
from polyadic.errors import (
    NotAssociative,
    NotLatinSquare,
    PolyadicError,
    SizeCapExceeded,
)
from polyadic.groups import (
    are_isomorphic,
    automorphism,
    automorphism_from_map,
    cayley_walk,
    cyclic_group,
    direct_product,
    enumerate_homs,
    hom_from_generator_images,
    inner_automorphism,
    psi_u,
    subgroup_closure,
    subgroup_table,
    subgroups,
    symmetric_group,
    validate_group,
)


def test_validate_group_accepts_z3():
    g = validate_group(["0", "1", "2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.order == 3
    assert g.identity == 0
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2


def test_validate_group_rejects_broken_row():
    with pytest.raises(NotLatinSquare):
        validate_group(["a", "b"], [[0, 0], [1, 0]])


# a loop: 0 is its identity and every element its own inverse, but it
# is not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_group_rejects_non_associative():
    with pytest.raises(NotAssociative):
        validate_group(list("abcde"), LOOP5)


def test_cyclic_and_symmetric_shapes():
    z6 = cyclic_group(6)
    assert z6.order == 6
    assert z6.power(1, 6) == 0
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert sorted(s3.names()) == ["012", "021", "102", "120", "201", "210"]
    # right-to-left composition: (102 * 021) means apply 021 first
    a = s3.index("102")
    b = s3.index("021")
    assert s3.name(s3.mul(a, b)) != s3.name(s3.mul(b, a))
    assert not s3.is_abelian()
    assert z6.is_abelian()


def test_direct_product_names_and_order():
    k4 = direct_product(cyclic_group(2), cyclic_group(2), name="K4")
    assert k4.order == 4
    assert set(k4.names()) == {"0_0", "0_1", "1_0", "1_1"}
    assert all(k4.mul(x, x) == k4.identity for x in k4.elements())


def test_order_profile():
    s3 = symmetric_group(3)
    assert s3.order_profile() == (1, 2, 2, 2, 3, 3)
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert k4.order_profile() == (1, 2, 2, 2)


def test_subgroups_counts():
    assert len(subgroups(cyclic_group(4))) == 3
    assert len(subgroups(direct_product(cyclic_group(2), cyclic_group(2)))) == 5
    assert len(subgroups(symmetric_group(3))) == 6


def test_subgroup_closure_and_table():
    z6 = cyclic_group(6)
    h = subgroup_closure(z6, [2])
    assert h == {0, 2, 4}
    t = subgroup_table(z6, sorted(h))
    assert t.order == 3
    ok, _ = are_isomorphic(t, cyclic_group(3))
    assert ok


def test_automorphism_validation():
    z4 = cyclic_group(4)
    neg = automorphism(z4, (0, 3, 2, 1))
    assert neg(1) == 3
    assert neg.compose(neg)(1) == 1
    assert neg.inverse()(3) == 1
    with pytest.raises(PolyadicError):
        automorphism(z4, (0, 2, 1, 3))
    m = automorphism_from_map(z4, {"0": "0", "1": "3", "2": "2", "3": "1"})
    assert m.images == neg.images


def test_inner_automorphism_and_twist(twist):
    s3 = symmetric_group(3)
    t = s3.index("102")
    inn = inner_automorphism(s3, t)
    assert inn.is_valid()
    tw = twist(s3, t)
    # twisted identity is the twisting element
    assert tw.identity == t
    for x in tw.elements():
        assert tw.mul(x, tw.inv(x)) == t
    assert automorphism(tw, psi_u(s3, inn, t)).is_valid()


def test_cayley_walk_deterministic():
    s3 = symmetric_group(3)
    gens = [s3.index("102"), s3.index("120")]
    order1, edges1 = cayley_walk(s3, gens)
    order2, edges2 = cayley_walk(s3, gens)
    assert order1 == order2
    assert edges1 == edges2
    assert len(order1) == 6
    assert len(edges1) == 6 * 2


def test_enumerate_homs_z6_z3():
    z6 = cyclic_group(6)
    z3 = cyclic_group(3)
    hs = enumerate_homs(z6, z3)
    assert len(hs) == 3
    assert all(h.is_valid() for h in hs)


def _relabelled(g, perm):
    """g with element x renumbered perm[x]."""
    names, table = [None] * g.order, [[None] * g.order for _ in g.elements()]
    for x in g.elements():
        names[perm[x]] = g.name(x)
        for y in g.elements():
            table[perm[x]][perm[y]] = perm[g.mul(x, y)]
    return validate_group(names, table)


def test_enumerate_homs_search_size_ignores_numbering(monkeypatch):
    """Under six random numberings each of S4 and of S3 x Z2 the hom
    search tries the same number of generator-image tuples and finds the
    same homs."""
    import polyadic.groups as groups

    tried = []
    extend = groups._extend_along_edges

    def counting(*args):
        tried[-1] += 1
        return extend(*args)

    monkeypatch.setattr(groups, "_extend_along_edges", counting)
    rng = random.Random(11)
    for g in (symmetric_group(4), direct_product(symmetric_group(3), cyclic_group(2))):
        sizes, homs = set(), set()
        for _ in range(6):
            perm = list(g.elements())
            rng.shuffle(perm)
            r = _relabelled(g, perm)
            tried.append(0)
            found = enumerate_homs(r, r)
            sizes.add(tried[-1])
            homs.add(frozenset(
                tuple(r.name(h.images[r.index(g.name(x))]) for x in g.elements())
                for h in found))
        assert len(sizes) == 1 and len(homs) == 1, (g.order, sizes)
    assert tried[0] == 16 * 16  # S4: two 4-cycles


def test_enumerate_homs_s4xz2_within_cap():
    """Index order gives S4 x Z2 four generators, and the search space
    48^4 passes max_points; by decreasing order it takes three."""
    g = direct_product(symmetric_group(4), cyclic_group(2))
    hs = enumerate_homs(g, g)
    assert len(hs) == 400
    assert all(h.is_valid() for h in hs)


def test_enumerate_homs_caps_the_space_it_searches():
    """Z2^4 has four involutions as generators; Z35 has no involution, so
    the search tries the one all-identity tuple, not 35^4 of them. Into
    Z2^6 every element of order 1 or 2 is a candidate: 64^4 tuples."""
    z2 = cyclic_group(2)
    z2_4 = direct_product(direct_product(z2, z2), direct_product(z2, z2))
    z35 = cyclic_group(35)
    hs = enumerate_homs(z2_4, z35)
    assert [h.images for h in hs] == [(z35.identity,) * 16]
    z2_6 = direct_product(z2_4, direct_product(z2, z2))
    with pytest.raises(SizeCapExceeded) as info:
        enumerate_homs(z2_4, z2_6)
    assert (info.value.what, info.value.size) == ("hom search space", 64 ** 4)


def test_hom_from_generator_images():
    z6 = cyclic_group(6)
    z3 = cyclic_group(3)
    h, reason = hom_from_generator_images(z6, z3, [1], [1])
    assert reason is None
    assert h.is_valid() and h.is_surjective() and not h.is_injective()
    h2, reason2 = hom_from_generator_images(z3, z6, [1], [1])
    assert h2 is None and reason2 is not None


def test_are_isomorphic():
    ok, wit = are_isomorphic(cyclic_group(4), cyclic_group(4))
    assert ok and wit.is_valid() and wit.is_injective()
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    ok2, wit2 = are_isomorphic(cyclic_group(4), k4)
    assert not ok2 and wit2 is None


def test_are_isomorphic_counts_the_tuples_it_tries():
    """Z2^4 vs itself: 15^4 tuples of involutions for its four generators,
    and the first bijective one is the 278th tried. The cap counts the
    tuples tried, not the space."""
    z2 = cyclic_group(2)
    z2_4 = direct_product(direct_product(z2, z2), direct_product(z2, z2))
    ok, wit = are_isomorphic(z2_4, z2_4, caps=Caps(max_points=278))
    assert ok and wit.is_valid() and wit.is_injective()
    with pytest.raises(SizeCapExceeded) as info:
        are_isomorphic(z2_4, z2_4, caps=Caps(max_points=277))
    assert (info.value.what, info.value.size) == ("isomorphism search", 278)


def test_random_product_closure_sanity():
    rng = random.Random(7)
    s3 = symmetric_group(3)
    for _ in range(200):
        a = rng.randrange(6)
        b = rng.randrange(6)
        c = rng.randrange(6)
        assert s3.mul(s3.mul(a, b), c) == s3.mul(a, s3.mul(b, c))


def test_constructions_refuse_past_the_cap(monkeypatch):
    """A construction refuses, as "group table", an order whose order**2
    table is past the default max_tabulate, before it builds and validates
    that table: Z1415, S7 and Z40 x Z40. S5 is built."""
    import polyadic.groups as groups

    s5 = symmetric_group(5)
    assert s5.order == 120 and s5.name(s5.identity) == "01234"
    z40 = cyclic_group(40)

    def no_table(*args, **kwargs):
        raise AssertionError("table built past the cap")

    monkeypatch.setattr(groups, "validate_group", no_table)
    for build, order in (
        (lambda: cyclic_group(1415), 1415),
        (lambda: symmetric_group(7), 5040),
        (lambda: direct_product(z40, z40), 1600),
    ):
        with pytest.raises(SizeCapExceeded) as info:
            build()
        got = (info.value.what, info.value.size, info.value.cap)
        assert got == ("group table", order * order, 2 * 10 ** 6)


def test_validate_group_caps_its_table_and_its_scan():
    """validate_group refuses a table whose N**2 entries pass max_tabulate
    before it reads a row, and the N**3 scan for the least non-associative
    triple, which runs only when Light's test fails, past max_axiom_tuples."""
    z3 = cyclic_group(3)
    with pytest.raises(SizeCapExceeded) as info:
        validate_group(z3.names(), [[0]], caps=Caps(max_tabulate=8))
    assert (info.value.what, info.value.size, info.value.cap) == ("group table", 9, 8)
    assert validate_group(z3.names(), z3.table, caps=Caps(max_tabulate=9, max_axiom_tuples=1))
    with pytest.raises(SizeCapExceeded) as info:
        validate_group(list("abcde"), LOOP5, caps=Caps(max_axiom_tuples=124))
    assert (info.value.what, info.value.size, info.value.cap) == ("associativity triples", 125, 124)
    with pytest.raises(NotAssociative):
        validate_group(list("abcde"), LOOP5, caps=Caps(max_axiom_tuples=125))
