"""Seeded differential tests: each fast path against its oracle.

`verify_axioms` proves success by Hosszú–Gluskin reconstruction and falls
back to the exhaustive scans; its report must equal the exhaustive one on
random derived groups and on random corruptions of them. The exhaustive
associativity scan compares whole blocks of the flat table; it must return
the witness of the plain per-tuple scan it replaced, frozen here. And
`validate_group` proves associativity by Light's test; on random Latin loops
and relabelled group tables it must agree with a plain cubic scan, down to
the triple, and its Latin, identity and inverse checks must fail first
where the quadratic searches they replaced, frozen here, failed first.
"""

import random
from itertools import product
from math import prod

import pytest

from polyadic.core import (
    _assoc_scan_flat,
    _verify_axioms_exhaustive,
    polyadic_from_table,
    tabulate,
    verify_axioms,
)
from polyadic.errors import (
    GroupValidationError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
)
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
        p = random_derived(rng, base, (3, 4))
        t = tabulate(p)
        for q in (p, t):
            rep = verify_axioms(q)
            assert rep.ok, (base, q)
            assert rep == _verify_axioms_exhaustive(tabulate(q))
        for _ in range(2):
            bad = _corrupt(rng, t)
            assert verify_axioms(bad) == _verify_axioms_exhaustive(bad)


def _per_tuple_assoc_scan(n, g, flat, strides):
    """The per-tuple associativity scan as it was before the blocked one:
    every (2n-1)-tuple in lexicographic order, every insertion position."""
    for t in product(range(g), repeat=2 * n - 1):
        w = 0
        for k in range(n):
            w = w * g + t[k]
        first = None
        prefix = 0
        for i in range(n):
            inner = flat[w]
            o = prefix + inner * strides[i]
            for k, pos in enumerate(range(i + n, 2 * n - 1)):
                o += t[pos] * strides[i + 1 + k]
            v = flat[o]
            if first is None:
                first = (i, v)
            elif v != first[1]:
                return (first[0] + 1, i + 1, t, first[1], v)
            if i < n - 1:
                prefix += t[i] * strides[i]
                w = (w - t[i] * strides[0]) * g + t[i + n]
    return None


SCAN_SIZES = [
    (g, n) for g in range(2, 8) for n in range(3, 6) if g ** (2 * n - 1) <= 10 ** 5
]


def _strides(g, n):
    return [g ** (n - 1 - k) for k in range(n)]


def _associative_tables(rng, g, n):
    """Monoid products u*x1*...*xn mod g, left zero and right zero."""
    u = rng.randrange(g)
    tuples = list(product(range(g), repeat=n))
    return [
        [u * prod(a) % g for a in tuples],
        [a[0] for a in tuples],
        [a[-1] for a in tuples],
    ]


def _corrupt_flat(rng, flat, g):
    """flat with one or two entries set to another value."""
    flat = list(flat)
    for i in rng.sample(range(len(flat)), rng.choice((1, 2))):
        flat[i] = rng.choice([v for v in range(g) if v != flat[i]])
    return flat


@pytest.mark.parametrize("seed", range(3))
def test_blocked_assoc_scan_matches_per_tuple_scan(seed):
    rng = random.Random(seed)
    for g, n in SCAN_SIZES:
        strides = _strides(g, n)
        tables = [[rng.randrange(g) for _ in range(g ** n)]]
        for flat in _associative_tables(rng, g, n):
            assert _assoc_scan_flat(n, g, flat, strides) is None, (g, n, flat)
            tables += [_corrupt_flat(rng, flat, g) for _ in range(2)]
        tables.append(_corrupt_flat(rng, tables[0], g))
        for flat in tables:
            want = _per_tuple_assoc_scan(n, g, flat, strides)
            assert _assoc_scan_flat(n, g, flat, strides) == want, (g, n, flat)


@pytest.mark.parametrize("g, n", [(2, 3), (3, 4), (4, 3), (2, 5)])
def test_blocked_assoc_scan_last_suffix_middle_position(g, n):
    """Right zero with f(g-1, ..., g-1) set to 0. The least bad tuple is
    0^(n-1) (g-1)^n, the last suffix of its head's block, and position 2
    (a middle one) is the first to disagree with position 1."""
    flat = [a[-1] for a in product(range(g), repeat=n)]
    flat[-1] = 0
    t = (0,) * (n - 1) + (g - 1,) * n
    want = (1, 2, t, 0, g - 1)
    strides = _strides(g, n)
    assert _per_tuple_assoc_scan(n, g, flat, strides) == want
    assert _assoc_scan_flat(n, g, flat, strides) == want


@pytest.mark.parametrize("g, n", [(3, 3), (4, 3), (3, 4)])
def test_blocked_assoc_scan_last_head(g, n):
    """The zero operation with f(g-1, ..., g-1, 1) set to 1: every head
    but the last, (g-1)^n, is associative on all its suffixes."""
    flat = [0] * g ** n
    flat[-g + 1] = 1
    strides = _strides(g, n)
    want = _per_tuple_assoc_scan(n, g, flat, strides)
    assert want[2][:n] == (g - 1,) * n
    assert _assoc_scan_flat(n, g, flat, strides) == want


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
    for base in small_bases + [s3z2, cyclic_group(1)]:
        table = _relabel(rng, [list(row) for row in base.table])
        assert _check_validate_group(table) is None


def _quadratic_table_checks(table):
    """The Latin, identity and inverse checks of `validate_group` as they
    were before the linear passes: the first failure, else the identity
    and the inverses."""
    n = len(table)
    full = set(range(n))
    for i, row in enumerate(table):
        if set(row) != full:
            return NotLatinSquare("row", i)
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            return NotLatinSquare("column", j)
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        return NoIdentity()
    inverses = [None] * n
    for x in range(n):
        for y in range(n):
            if table[x][y] == identity and table[y][x] == identity:
                inverses[x] = y
                break
        if inverses[x] is None:
            return NoInverse(x)
    return identity, tuple(inverses)


def _random_loop(rng, k, e):
    """A random Latin square on 0..k-1 whose row and column e are those of
    an identity, filled cell by cell with backtracking."""
    table = [[x if e in (r, x) else None for x in range(k)] for r in range(k)]
    for r in range(k):
        table[r][e] = r
    cells = [(r, c) for r in range(k) for c in range(k) if e not in (r, c)]

    def fill(i):
        if i == len(cells):
            return True
        r, c = cells[i]
        used = set(table[r]) | {row[c] for row in table}
        free = [v for v in range(k) if v not in used]
        rng.shuffle(free)
        for v in free:
            table[r][c] = v
            if fill(i + 1):
                return True
        table[r][c] = None
        return False

    assert fill(0)
    return table


def _damage(rng, table):
    """table with one entry changed, two entries of a row, two rows or two
    columns swapped, or left as it is."""
    table = [list(row) for row in table]
    k = len(table)
    kind = rng.randrange(5)
    if kind == 3:
        row = rng.choice(table)
        a, b = rng.sample(range(k), 2)
        row[a], row[b] = row[b], row[a]
    elif kind == 0:
        r, c = rng.randrange(k), rng.randrange(k)
        table[r][c] = rng.choice([v for v in range(k) if v != table[r][c]])
    elif kind == 1:
        a, b = rng.sample(range(k), 2)
        table[a], table[b] = table[b], table[a]
    elif kind == 2:
        a, b = rng.sample(range(k), 2)
        for row in table:
            row[a], row[b] = row[b], row[a]
    return table


@pytest.mark.parametrize("seed", range(4))
def test_validate_group_first_failure_matches_quadratic_checks(seed, small_bases):
    rng = random.Random(seed)
    tables = []
    for k in range(2, 8):
        for _ in range(6):
            tables.append(_random_loop(rng, k, rng.randrange(k // 2, k)))
    for base in small_bases:
        tables.append(_relabel(rng, [list(row) for row in base.table]))
    kinds = set()
    for table in tables:
        for bad in (table, _damage(rng, table), _damage(rng, table)):
            want = _quadratic_table_checks(bad)
            names = [str(i) for i in range(len(bad))]
            try:
                got = validate_group(names, bad)
            except NotAssociative:
                assert isinstance(want, tuple)
                continue
            except GroupValidationError as err:
                assert type(err) is type(want) and vars(err) == vars(want)
                kinds.add(type(err))
                continue
            assert (got.identity, got.inverses) == want
    assert kinds == {NotLatinSquare, NoIdentity, NoInverse}
