import itertools
import random

import pytest

from polyadic.caps import Caps
from polyadic.core import _decode, _first_difference, derive, prefix_products, retract
from polyadic.core import tabulate
from polyadic.cover import (
    GroupPresentation,
    PolyadicPresentation,
    _product_mismatch,
    build_post_cover,
    coset_enumerate,
    extend_hom_to_cover,
    positive_form,
    presentation_to_group,
)
from polyadic.errors import (
    CapExceeded,
    EmptyGeneratorSet,
    NotPolyadicHom,
    PropertyFailure,
    SizeCapExceeded,
)
from polyadic.groups import (
    TableGroup,
    are_isomorphic,
    cyclic_group,
    enumerate_homs,
    identity_automorphism,
    symmetric_group,
)
from polyadic.terms import parse_term
from polyadic.words import generator, parse_word


def test_cover_order_all_catalog(catalog):
    for key, p in catalog.items():
        c = build_post_cover(p)
        assert c.order == (p.n - 1) * p.order, key
        # the embedded copy sits at grade 1 and multiplies like f
        for g in p.elements():
            assert c.grade(c.embed_index(g)) == 1


def test_cover_of_p1_is_z6(p1):
    c = build_post_cover(p1)
    ok, wit = are_isomorphic(c.group, cyclic_group(6))
    assert ok and wit.is_valid()


def test_cover_of_p2_is_s3(p2):
    c = build_post_cover(p2)
    ok, wit = are_isomorphic(c.group, symmetric_group(3))
    assert ok and wit.is_valid()


def test_cover_f_is_product_of_embeds(p4):
    c = build_post_cover(p4)
    for args in itertools.product(p4.elements(), repeat=p4.n):
        acc = c.embed_index(args[0])
        for x in args[1:]:
            acc = c.group.mul(acc, c.embed_index(x))
        assert c.grade(acc) == 1
        assert acc == c.embed_index(p4.f(list(args)))


def test_cover_r_subgroup_is_retract(p4):
    c = build_post_cover(p4)
    r = c.r_subgroup()
    assert len(r) == p4.order
    assert all(c.grade(x) == 0 for x in r)


def test_cover_grade_map(p7):
    c = build_post_cover(p7)
    n1 = p7.n - 1
    for x in range(c.order):
        for y in range(c.order):
            assert c.grade(c.group.mul(x, y)) == (c.grade(x) + c.grade(y)) % n1


def test_cover_of_table_form(p2):
    c = build_post_cover(tabulate(p2))
    assert c.order == 6


def _relabelled(g, u, v):
    """g's table with the labels u and v swapped: a group isomorphic to g."""
    swap = list(range(g.order))
    swap[u], swap[v] = v, u
    table = [[None] * g.order for _ in swap]
    for x in g.elements():
        for y in g.elements():
            table[swap[x]][swap[y]] = swap[g.mul(x, y)]
    inverses = [swap[g.inv(swap[x])] for x in g.elements()]
    return TableGroup(g.names(), table, swap[g.identity], inverses, name="relabelled")


def test_property_2_refuses_a_relabelled_retract(catalog, monkeypatch):
    """The retract with two non-identity labels swapped, where that changes
    its table, is still isomorphic to R, but (x, 0) -> x . s no longer maps
    R onto it: property 2 fails, before property 4 reads the retract."""
    import polyadic.cover

    checked = 0
    for key, p in catalog.items():
        ret = retract(p, 0)
        others = [x for x in ret.elements() if x != ret.identity]
        pairs = [(u, v) for u, v in itertools.combinations(others, 2)
                 if _relabelled(ret, u, v).table != ret.table]
        if not pairs:  # every swap is an automorphism, as in Z3 and K4
            continue
        bad = _relabelled(ret, *pairs[0])
        monkeypatch.setattr(polyadic.cover, "retract", lambda p, a, caps: bad)
        with pytest.raises(PropertyFailure) as e:
            build_post_cover(p)
        assert e.value.index == 2, key
        monkeypatch.undo()
        checked += 1
    assert checked == 4


def test_extend_hom_to_cover(p1):
    cover = build_post_cover(p1)
    z6 = cyclic_group(6)
    g = retract(p1, 0)
    betas = [h for h in enumerate_homs(g, z6)]
    valid = 0
    for beta in betas:
        images = tuple(beta(x) for x in p1.elements())
        try:
            h = extend_hom_to_cover(cover, images, z6)
        except NotPolyadicHom:
            continue
        valid += 1
        assert h.is_valid()
        for x in p1.elements():
            assert h(cover.embed_index(x)) == images[x]
    assert valid > 0


def test_extend_hom_rejects_non_hom(p1):
    cover = build_post_cover(p1)
    z6 = cyclic_group(6)
    with pytest.raises(NotPolyadicHom):
        extend_hom_to_cover(cover, (0, 1, 1), z6)


def old_product_mismatch(p, images, row_of):
    """The product check as it was, frozen: the least bad tuple read off
    p's flat table and the |G|^n prefix products of images."""
    want = tuple(map(images.__getitem__, p.flat))
    level = prefix_products(images, [row_of] * (p.n - 1))
    if level == want:
        return None
    i = _first_difference(level, want)
    return _decode(p.order, p.n, i), want[i], level[i]


def target_rows(target, beta):
    return lambda c: tuple(target.mul(c, y) for y in beta)


@pytest.mark.parametrize("n", [3, 4])
def test_product_walk_matches_the_frozen_check(n, small_bases, every_derived):
    """Random maps from every derived n-ary group over Z2-Z5, S3 and K4
    into its cover, and into Z6, get the frozen check's witness, as does
    `extend_hom_to_cover`; a homomorphism gets None."""
    rng = random.Random(n)
    bad = 0
    for base in small_bases:
        for p in every_derived(base, n):
            cover = build_post_cover(p)
            homs = [tuple(cover.embedded())]
            maps = [tuple(rng.choice(list(cover.embedded())) for _ in p.elements())
                    for _ in range(6)]
            for target, betas in ((cover.group, homs + maps),
                                  (cyclic_group(6), [tuple(rng.randrange(6) for _ in p.elements())])):
                for beta in betas:
                    want = old_product_mismatch(p, beta, target_rows(target, beta))
                    assert _product_mismatch(p, beta, target_rows(target, beta)) == want
                    if want is None:
                        extend_hom_to_cover(cover, beta, target)
                        continue
                    bad += 1
                    with pytest.raises(NotPolyadicHom) as e:
                        extend_hom_to_cover(cover, beta, target)
                    assert str(e.value) == str(NotPolyadicHom(*want))
    assert bad >= 100


def test_non_hom_needs_no_flat_table():
    """A map that is not a homomorphism is answered under a max_tabulate
    that refuses the source's 3^7 table, with the frozen check's witness."""
    z3 = cyclic_group(3)
    caps = Caps(max_tabulate=1000)  # the cover's 18^2 entries, not 3^7
    p = derive(z3, identity_automorphism(z3), 0, 7, caps=caps)
    cover = build_post_cover(p, caps=caps)
    z6 = cyclic_group(6)
    with pytest.raises(NotPolyadicHom) as e:
        extend_hom_to_cover(cover, (0, 1, 1), z6)
    assert "flat" not in vars(p)
    oracle = derive(z3, identity_automorphism(z3), 0, 7)
    want = old_product_mismatch(oracle, (0, 1, 1), target_rows(z6, (0, 1, 1)))
    assert str(e.value) == str(NotPolyadicHom(*want))


def test_non_hom_on_derived_s4_at_n5():
    """Derived S4 at n = 5, whose 24^5 table max_tabulate refuses: the
    embedding with the images of 1 and 2 swapped is not a homomorphism,
    and every tuple before the witness maps to the product of its images.
    The walk's second row is the first bad one, so a cap of one row, under
    which the group is derived, stops it there."""
    s4 = symmetric_group(4)
    p = derive(s4, identity_automorphism(s4), s4.identity, 5)
    cover = build_post_cover(p)
    target = cover.group
    beta = list(cover.embedded())
    beta[1], beta[2] = beta[2], beta[1]
    with pytest.raises(NotPolyadicHom) as e:
        extend_hom_to_cover(cover, beta, target)
    t, expected, got = _product_mismatch(p, beta, target_rows(target, beta))
    assert str(e.value) == str(NotPolyadicHom(t, expected, got))
    assert (e.value.expected, e.value.got) == (expected, got) and expected != got
    for args in itertools.product(range(24), repeat=5):
        product = beta[args[0]]
        for x in args[1:]:
            product = target.mul(product, beta[x])
        if args == t:
            assert (beta[p.f(list(args))], product) == (expected, got)
            break
        assert product == beta[p.f(list(args))], args
    assert t[:4] == (0, 0, 0, 1)
    capped = derive(s4, identity_automorphism(s4), s4.identity, 5, caps=Caps(max_axiom_tuples=1))
    with pytest.raises(SizeCapExceeded) as e:
        extend_hom_to_cover(build_post_cover(capped), beta, target)
    assert (e.value.what, e.value.size, e.value.cap) == ("product rows", 2, 1)


def test_positive_form():
    x = generator("x")
    assert positive_form(x ** -2) == x ** 2
    assert positive_form(x ** 2) == x ** 2


def test_presentation_to_group_singleton():
    pres = PolyadicPresentation(
        ("x",), ((parse_term("~x", generators=["x"]), parse_term("x", generators=["x"])),)
    )
    gp = presentation_to_group(pres, 3)
    assert gp.generators == ("x",)
    assert [str(w) for w in gp.relators] == ["x^-2"]
    g = coset_enumerate(gp)
    assert g.order == 2


def test_presentation_free_generator_kept():
    pres = PolyadicPresentation(
        ("x", "y"),
        ((parse_term("~x", generators=["x", "y"]), parse_term("x", generators=["x", "y"])),),
    )
    gp = presentation_to_group(pres, 4)
    assert gp.generators == ("x", "y")
    assert [str(w) for w in gp.relators] == ["x^-3"]


def test_presentation_commutator_golden():
    # f(x, y, ~y) = f(y, x, ~y) flattens to the commutator relator
    gens = ["x", "y"]
    left = parse_term("f(x, y, ~y)", generators=gens)
    right = parse_term("f(y, x, ~y)", generators=gens)
    gp = presentation_to_group(PolyadicPresentation(tuple(gens), ((left, right),)), 3)
    assert [str(w) for w in gp.relators] == ["x*y*x^-1*y^-1"]


def test_presentation_requires_generators():
    with pytest.raises(EmptyGeneratorSet):
        presentation_to_group(PolyadicPresentation((), ()), 3)


def test_coset_enumeration_known_orders():
    x = generator("x")
    g = coset_enumerate(GroupPresentation(("x",), (x ** 6,)))
    assert g.order == 6
    ok, _ = are_isomorphic(g, cyclic_group(6))
    assert ok

    r, s = generator("r"), generator("s")
    s3 = coset_enumerate(GroupPresentation(("r", "s"), (r ** 3, s ** 2, r * s * r * s)))
    assert s3.order == 6
    ok, _ = are_isomorphic(s3, symmetric_group(3))
    assert ok

    d4 = coset_enumerate(GroupPresentation(("r", "s"), (r ** 4, s ** 2, r * s * r * s)))
    assert d4.order == 8
    assert d4.order_profile() == (1, 2, 2, 2, 2, 2, 4, 4)

    a, b = generator("a"), generator("b")
    a4 = coset_enumerate(GroupPresentation(("a", "b"), (a ** 3, b ** 3, a * b * a * b)))
    assert a4.order == 12

    q8 = coset_enumerate(
        GroupPresentation(
            ("a", "b"), (a ** 4, b ** 2 * a ** -2, b ** -1 * a * b * a)
        )
    )
    assert q8.order == 8
    assert q8.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)


def test_coset_enumeration_deterministic_names():
    x = generator("x")
    g1 = coset_enumerate(GroupPresentation(("x",), (x ** 4,)))
    g2 = coset_enumerate(GroupPresentation(("x",), (x ** 4,)))
    assert list(g1.names()) == ["c0", "c1", "c2", "c3"]
    assert g1.table == g2.table


def test_coset_enumeration_cap():
    a, b = generator("a"), generator("b")
    pres = GroupPresentation(("a", "b"), (a * b * a ** -1 * b ** -1,))
    with pytest.raises(CapExceeded):
        coset_enumerate(pres, cap=100)


def test_coset_enumeration_via_words():
    gp = GroupPresentation(
        ("x",), (parse_word("x^2"),)
    )
    assert coset_enumerate(gp).order == 2
