from contextlib import contextmanager
from functools import reduce

import pytest

from polyadic import core
from polyadic.core import derive
from polyadic.groups import (
    GroupAutomorphism,
    automorphism,
    cyclic_group,
    direct_product,
    enumerate_homs,
    identity_automorphism,
    inner_automorphism,
    symmetric_group,
    validate_group,
)


def build_catalog():
    """Seven instances spanning abelian/nonabelian bases, trivial and
    nontrivial twists, arities 3 and 4."""
    z3 = cyclic_group(3)
    z4 = cyclic_group(4)
    k4 = direct_product(cyclic_group(2), cyclic_group(2), name="K4")
    s3 = symmetric_group(3)
    t = s3.index("102")
    neg4 = automorphism(z4, (0, 3, 2, 1))
    return {
        "p1": derive(z3, identity_automorphism(z3), 0, 3),
        "p2": derive(z3, automorphism(z3, (0, 2, 1)), 0, 3),
        "p3": derive(z4, neg4, 0, 3),
        "p4": derive(z4, neg4, 2, 3),
        "p5": derive(k4, identity_automorphism(k4), k4.index("1_1"), 4),
        "p6": derive(s3, inner_automorphism(s3, t), t, 4),
        "p7": derive(s3, inner_automorphism(s3, t), s3.identity, 3),
    }


@pytest.fixture
def no_table(monkeypatch):
    """`no_table(*groups)`: a context in which building the order**n table
    of a derived group, of any one or of one of groups, fails the test.
    `tabulate` builds every such table by `core.prefix_products` over the
    group's step tables, and the context makes that raise on them."""
    build = core.prefix_products

    @contextmanager
    def guard(*groups):
        def refuse(level, extend):
            used = {id(row_of.__self__) for row_of in extend}
            if not groups or any(id(rows) in used for g in groups for rows in g.steps):
                raise AssertionError("an n-ary table was built")
            return build(level, extend)

        with monkeypatch.context() as m:
            m.setattr(core, "prefix_products", refuse)
            yield

    return guard


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def p1(catalog):
    return catalog["p1"]


@pytest.fixture(scope="session")
def p2(catalog):
    return catalog["p2"]


@pytest.fixture(scope="session")
def p4(catalog):
    return catalog["p4"]


@pytest.fixture(scope="session")
def p7(catalog):
    return catalog["p7"]


@pytest.fixture(scope="session")
def small_bases():
    """Z2-Z5, S3 and Z2xZ2: bases small enough for the exhaustive oracles."""
    z2 = cyclic_group(2)
    return [
        z2,
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(5),
        symmetric_group(3),
        direct_product(z2, z2, name="K4"),
    ]


def derivation_pairs(g, n):
    """Every (theta, b) meeting both derivation conditions for arity n."""
    pairs = []
    for hom in enumerate_homs(g, g):
        if not hom.is_injective():
            continue
        theta = GroupAutomorphism(g, hom.images)
        top = theta.powers(n)[n - 1]
        for b in g.elements():
            if theta(b) == b and all(
                top[x] == g.conjugate(b, x) for x in g.elements()
            ):
                pairs.append((theta, b))
    return pairs


@pytest.fixture(scope="session")
def random_derived():
    """make(rng, base, arities): a derived n-ary group over base with n
    drawn from arities and (theta, b) drawn from all valid pairs."""
    cache = {}

    def make(rng, base, arities=(3, 4)):
        n = arities[0] if len(arities) == 1 else rng.choice(arities)
        key = (id(base), n)
        if key not in cache:
            cache[key] = derivation_pairs(base, n)
        theta, b = rng.choice(cache[key])
        return derive(base, theta, b, n)

    return make


@pytest.fixture(scope="session")
def every_derived():
    """every(base, n): the derived n-ary groups over base, one for each
    (theta, b) meeting both derivation conditions."""

    def every(base, n):
        return [derive(base, theta, b, n) for theta, b in derivation_pairs(base, n)]

    return every


@pytest.fixture(scope="session")
def induced():
    """induced(theta, k): theta applied coordinatewise on the k-fold
    `direct_product` of theta's group, as an automorphism of that power
    (mixed-radix indices, first coordinate most significant)."""

    def induced(theta, k):
        g = theta.group
        images = [0]
        for _ in range(k):
            images = [hi * g.order + theta(c) for hi in images for c in g.elements()]
        return GroupAutomorphism(reduce(direct_product, [g] * k), images)

    return induced


@pytest.fixture(scope="session")
def twist():
    """twist(base, u): base with the product x * y = x . u^-1 . y, whose
    identity is u, as a table through validate_group."""

    def twist(base, u):
        els, uinv = base.elements(), base.inv(u)
        table = [[base.mul(base.mul(x, uinv), y) for y in els] for x in els]
        return validate_group(base.names(), table, name=f"{base.group_name}^{base.name(u)}")

    return twist
