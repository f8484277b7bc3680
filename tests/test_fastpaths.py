"""Seeded differential tests: each success fast path against its oracle.

`verify_axioms` proves success by Hosszú–Gluskin reconstruction and falls
back to the exhaustive scans; its report must equal the exhaustive one on
random derived groups and on random corruptions of them. `validate_group`
proves associativity by Light's test; on random Latin loops and relabelled
group tables it must agree with a plain cubic scan, down to the triple.
"""

import random
from itertools import product

import pytest

from polyadic.core import (
    _verify_axioms_exhaustive,
    polyadic_from_table,
    tabulate,
    verify_axioms,
)
from polyadic.errors import NotAssociative
from polyadic.groups import (
    cyclic_group,
    direct_product,
    symmetric_group,
    validate_group,
)


def _corrupt(rng, t):
    flat = list(t.flat)
    i = rng.randrange(len(flat))
    if rng.random() < 0.5:
        flat[i] = rng.choice([v for v in range(t.order) if v != flat[i]])
    else:
        j = rng.choice([j for j in range(len(flat)) if flat[j] != flat[i]])
        flat[i], flat[j] = flat[j], flat[i]
    return polyadic_from_table(t.names(), t.n, flat)


@pytest.mark.parametrize("seed", range(8))
def test_verify_axioms_matches_exhaustive(seed, small_bases, random_derived):
    rng = random.Random(seed)
    for base in small_bases:
        # n = 4 over S3 would have the exhaustive oracle scan 6^7 tuples
        p = random_derived(rng, base, (3,) if base.order > 5 else (3, 4))
        t = tabulate(p)
        for q in (p, t):
            rep = verify_axioms(q)
            assert rep.ok, (base, q)
            assert rep == _verify_axioms_exhaustive(q)
        for _ in range(2):
            bad = _corrupt(rng, t)
            assert verify_axioms(bad) == _verify_axioms_exhaustive(bad)


def _relabel(rng, table):
    """The same operation with its elements renamed by a random permutation."""
    k = len(table)
    perm = list(range(k))
    rng.shuffle(perm)
    inv = [0] * k
    for x, y in enumerate(perm):
        inv[y] = x
    return [
        [perm[table[inv[x]][inv[y]]] for y in range(k)] for x in range(k)
    ]


def _least_nonassociative(table):
    k = len(table)
    for a, b, c in product(range(k), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def _intercalate_loop(rng, k):
    """Z_k (k even) with one 2x2 subsquare a b / b a swapped. Row and
    column 0 and every 0 entry stay, so 0 is still the identity and
    inverses are unchanged: the result is a Latin loop."""
    h = k // 2
    table = [[(x + y) % k for y in range(k)] for x in range(k)]
    r, c = rng.choice(
        [(r, c) for r in range(1, h) for c in range(1, k)
         if c != h and (r + c) % k not in (0, h)]
    )
    r2, c2 = r + h, (c + h) % k
    for x, y in ((r, c), (r, c2), (r2, c), (r2, c2)):
        table[x][y] = (table[x][y] + h) % k
    return table


def _check_validate_group(table):
    """validate_group against the cubic scan; returns the scan's triple."""
    names = [str(i) for i in range(len(table))]
    triple = _least_nonassociative(table)
    if triple is None:
        assert validate_group(names, table).table == tuple(map(tuple, table))
    else:
        with pytest.raises(NotAssociative) as info:
            validate_group(names, table)
        assert info.value.triple == triple
    return triple


@pytest.mark.parametrize("seed", range(8))
def test_validate_group_matches_cubic_scan(seed, small_bases):
    rng = random.Random(seed)
    for k in (6, 8, 10, 12):
        loop = _relabel(rng, _intercalate_loop(rng, k))
        assert _check_validate_group(loop) is not None
    s3z2 = direct_product(symmetric_group(3), cyclic_group(2))
    for base in small_bases + [s3z2]:
        table = _relabel(rng, [list(row) for row in base.table])
        assert _check_validate_group(table) is None
