import itertools
import random

import pytest

from polyadic.core import (
    as_derived,
    closed_subsets_bruteforce,
    derive,
    derive_from_constant,
    dornte_check,
    eval_f,
    hosszu_gloskin,
    is_polyadic_hom,
    nary_identity,
    polyadic_from_table,
    polyadic_homs,
    polyadic_maps_bruteforce,
    polyadic_subgroups,
    retract,
    skew_search,
    skew_table,
    tabulate,
    verify_axioms,
)
from polyadic.errors import (
    ArityMismatch,
    ConditionOneFails,
    ConditionTwoFails,
    PolyadicError,
)
from polyadic.groups import (
    are_isomorphic,
    automorphism,
    cyclic_group,
    inner_automorphism,
    symmetric_group,
)

# frozen expected subgroup lists, computed independently by the
# exhaustive closed-subset scan before being inlined here
EXPECTED_SUBGROUPS = {
    "p1": ((0,), (0, 1, 2)),
    "p2": ((0,), (1,), (2,), (0, 1, 2)),
    "p3": ((0,), (1,), (2,), (3,), (0, 2), (1, 3), (0, 1, 2, 3)),
    "p4": ((0, 2), (1, 3), (0, 1, 2, 3)),
    "p5": ((3,), (0, 3), (1, 3), (2, 3), (0, 1, 2, 3)),
    "p6": ((1,), (2,), (5,), (0, 2), (2, 3), (2, 4), (1, 2, 5), (0, 1, 2, 3, 4, 5)),
    "p7": (
        (0,),
        (2,),
        (3,),
        (4,),
        (0, 2),
        (2, 3),
        (2, 4),
        (0, 3, 4),
        (1, 2, 5),
        (0, 1, 2, 3, 4, 5),
    ),
}


def test_axioms_all_catalog(catalog):
    for key, p in catalog.items():
        rep = verify_axioms(p)
        assert rep.ok, (key, rep)
        ok, wit = dornte_check(p)
        assert ok, (key, wit)


def test_arity_checks(p1):
    with pytest.raises(ArityMismatch):
        p1.f([0, 1])
    with pytest.raises(ArityMismatch):
        eval_f(p1, [0, 1, 2, 0])


def test_homs_refuse_mismatched_arity(catalog, monkeypatch):
    """A map between a ternary and a 4-ary group cannot preserve f: both
    searches refuse the pair, the fast one before it searches anything."""
    import polyadic.core as core

    def no_search(*args, **kwargs):
        raise AssertionError("searched across arities")

    p1, p5 = catalog["p1"], catalog["p5"]
    monkeypatch.setattr(core, "enumerate_homs", no_search)
    for p, q in ((p1, p5), (p5, p1), (tabulate(p1), p5)):
        with pytest.raises(ArityMismatch) as info:
            polyadic_homs(p, q)
        assert (info.value.expected, info.value.got) == (p.n, q.n)
        with pytest.raises(ArityMismatch):
            polyadic_maps_bruteforce(p, q)


def test_derive_rejects_bad_conditions():
    z4 = cyclic_group(4)
    neg = automorphism(z4, (0, 3, 2, 1))
    with pytest.raises(ConditionOneFails):
        derive(z4, neg, 1, 3)
    s3 = symmetric_group(3)
    t = s3.index("102")
    with pytest.raises(ConditionTwoFails):
        derive(s3, inner_automorphism(s3, t), t, 3)


def test_derive_from_constant():
    z4 = cyclic_group(4)
    p = derive_from_constant(z4, 2, 3)
    assert p.f([1, 1, 1]) == (1 + 1 + 1 + 2) % 4
    assert verify_axioms(p).ok


def test_skew_closed_form_vs_search(catalog):
    for key, p in catalog.items():
        for x in p.elements():
            assert p.skew(x) == skew_search(p, x), (key, x)
        st = skew_table(p)
        assert list(st) == [p.skew(x) for x in p.elements()]


def test_skew_identity_on_p2(p2):
    assert [p2.skew(x) for x in p2.elements()] == [0, 1, 2]


def test_mutation_produces_witness(p1):
    t = tabulate(p1)
    flat = list(t.flat)
    flat[4] = (flat[4] + 1) % p1.order
    broken = polyadic_from_table(t.names(), t.n, flat)
    rep = verify_axioms(broken)
    ok, wit = dornte_check(broken)
    assert not (rep.ok and ok)
    if not rep.ok:
        assert (
            rep.associativity_witness is not None
            or rep.solvability_witness is not None
            or rep.uniqueness_witness is not None
        )


def test_retract_is_group_with_skew_identity(catalog):
    for key, p in catalog.items():
        for a in p.elements():
            g = retract(p, a)
            assert g.identity == p.skew(a), (key, a)


def test_hosszu_gloskin_golden_p4(p4):
    out = hosszu_gloskin(p4, 1)
    assert p4.skew(1) == 3
    assert tuple(out.theta(x) for x in range(4)) == (2, 1, 0, 3)
    assert out.b == 1
    assert out.base.identity == 3


def test_hosszu_gloskin_roundtrip_all_anchors(catalog):
    for key, p in catalog.items():
        for a in p.elements():
            out = hosszu_gloskin(p, a)
            # internal exhaustive reconstruction check already ran; spot
            # check a few tuples against the original
            rng = random.Random(11)
            for _ in range(20):
                args = [rng.randrange(p.order) for _ in range(p.n)]
                assert out.f(args) == p.f(args), (key, a, args)


def test_nary_identity(catalog):
    assert nary_identity(catalog["p1"]) == 0
    assert nary_identity(catalog["p4"]) is None
    assert nary_identity(catalog["p2"]) is None


def test_as_derived_on_table_form(p2):
    t = tabulate(p2)
    d = as_derived(t)
    for args in itertools.product(range(3), repeat=3):
        assert d.f(list(args)) == p2.f(list(args))


def test_subgroups_frozen_oracles(catalog):
    for key, p in catalog.items():
        assert tuple(polyadic_subgroups(p)) == EXPECTED_SUBGROUPS[key], key


def test_subgroups_match_bruteforce(catalog):
    for key, p in catalog.items():
        assert list(polyadic_subgroups(p)) == list(closed_subsets_bruteforce(p)), key


def test_polyadic_homs_match_bruteforce(catalog):
    pairs = [
        ("p1", "p1"),
        ("p2", "p2"),
        ("p1", "p2"),
        ("p2", "p1"),
        ("p3", "p4"),
        ("p4", "p4"),
        ("p7", "p7"),
    ]
    for a, b in pairs:
        p, q = catalog[a], catalog[b]
        fast = {h.images for h in polyadic_homs(p, q)}
        slow = set(polyadic_maps_bruteforce(p, q))
        assert fast == slow, (a, b)
        for img in fast:
            assert is_polyadic_hom(p, q, img)


def test_hom_counts_from_examples(catalog):
    p1, p2 = catalog["p1"], catalog["p2"]
    assert {h.images for h in polyadic_homs(p1, p1)} == {
        (0, 0, 0),
        (0, 1, 2),
        (0, 2, 1),
    }
    assert len(polyadic_homs(p2, p2)) == 9


def test_table_roundtrip(p4):
    t = tabulate(p4)
    again = polyadic_from_table(t.names(), t.n, t.flat)
    assert again.flat == t.flat
    assert [again.skew(x) for x in again.elements()] == [
        p4.skew(x) for x in p4.elements()
    ]


def test_retracts_of_p6_are_s3(catalog):
    p6 = catalog["p6"]
    g = retract(p6, 0)
    ok, _ = are_isomorphic(g, symmetric_group(3))
    assert ok


def test_polyadic_from_table_rejects_bad_shape():
    with pytest.raises(PolyadicError):
        polyadic_from_table(["a", "b"], 3, [0] * 7)
    with pytest.raises(PolyadicError):
        polyadic_from_table(["a", "b"], 2, [0, 1, 1, 0])
