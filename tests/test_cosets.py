"""Seeded differential test of `coset_enumerate` against a frozen copy of
the original full-rescan enumerator.

The oracle below rescans every relator at every live coset after each
definition. It is kept as it was, apart from skipping the input checks
and the final group validation, and from returning the raw table, the
number of cosets it defined and whether a scan ever changed the table
from a coset that an earlier scan of the same pass had merged away.
Such a scan can write half of a deduction into the dead row and lose
it, and the oracle then spends definitions on entries the relators
already determine. Only there may the Felsch enumerator define fewer
cosets; everywhere else both define the same cosets in the same order.

Every closed table is also checked against `validate_group`, which the
enumerator's certified readout replaces: the oracle must accept the table
read out and find the same identity and inverses.
"""

import itertools
import random

import pytest

from polyadic.caps import Caps
from polyadic.cover import GroupPresentation, _regular_group, coset_enumerate
from polyadic.errors import CapExceeded, NotRegular, SizeCapExceeded
from polyadic.groups import validate_group
from polyadic.words import parse_word


def _rescan_enumerate(pres, cap):
    """Returns (mul_table or None on a cap hit, cosets defined, lost)."""
    k = len(pres.generators)
    ncols = 2 * k
    gen_pos = {g: i for i, g in enumerate(pres.generators)}
    rels = []
    for w in pres.relators:
        cols = [2 * gen_pos[g] + (0 if s > 0 else 1) for g, s in w.letters()]
        if cols:
            rels.append(tuple(cols))

    table = [[None] * ncols]
    parent = [0]
    lost = False

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def get(a, c):
        v = table[a][c]
        return None if v is None else find(v)

    def define(a, c):
        if len(table) >= cap:
            raise CapExceeded(cap)
        b = len(table)
        table.append([None] * ncols)
        parent.append(b)
        table[a][c] = b
        table[b][c ^ 1] = a

    def coincide(a, b):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop(0)
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            for c in range(ncols):
                d = table[b][c]
                if d is None:
                    continue
                d = find(d)
                e = get(a, c)
                if e is None:
                    table[a][c] = d
                elif e != d:
                    queue.append((e, d))
                r = get(d, c ^ 1)
                if r is None:
                    table[d][c ^ 1] = a
                elif r != a:
                    queue.append((r, a))

    def scan(a, rel):
        f = a
        i = 0
        while i < len(rel):
            nxt = get(f, rel[i])
            if nxt is None:
                break
            f = nxt
            i += 1
        if i == len(rel):
            if f != a:
                coincide(f, a)
                return True
            return False
        b = a
        j = len(rel) - 1
        while j >= i:
            prv = get(b, rel[j] ^ 1)
            if prv is None:
                break
            b = prv
            j -= 1
        if j < i:
            if f != b:
                coincide(f, b)
                return True
            return False
        if j == i:
            table[f][rel[i]] = b
            table[b][rel[i] ^ 1] = f
            return True
        return False

    try:
        while True:
            progress = True
            while progress:
                progress = False
                for a in range(len(table)):
                    if find(a) != a:
                        continue
                    for rel in rels:
                        merged = find(a) != a
                        if scan(a, rel):
                            progress = True
                            lost = lost or merged
            gap = None
            for a in range(len(table)):
                if find(a) != a:
                    continue
                for c in range(ncols):
                    if get(a, c) is None:
                        gap = (a, c)
                        break
                if gap:
                    break
            if gap is None:
                break
            define(*gap)
    except CapExceeded:
        return None, len(table), lost

    root = find(0)
    order_bfs = [root]
    seen = {root}
    head = 0
    paths = {root: ()}
    while head < len(order_bfs):
        x = order_bfs[head]
        head += 1
        for c in range(ncols):
            y = get(x, c)
            if y not in seen:
                seen.add(y)
                paths[y] = paths[x] + (c,)
                order_bfs.append(y)
    label = {x: i for i, x in enumerate(order_bfs)}

    def trace(a, path):
        for c in path:
            a = get(a, c)
        return a

    mul_table = tuple(
        tuple(label[trace(x, paths[y])] for y in order_bfs) for x in order_bfs
    )
    return mul_table, len(table), lost


def _pres(gens, rels):
    return GroupPresentation(tuple(gens), tuple(parse_word(r) for r in rels))


def _random_word(rng, gens, length):
    letters = []
    while len(letters) < length:
        g, e = rng.choice(gens), rng.choice((1, -1))
        if letters and letters[-1] == (g, -e):
            letters.pop()
        else:
            letters.append((g, e))
    return "*".join(g if e > 0 else f"{g}^-1" for g, e in letters)


def _random_presentations(seed, count):
    """Power relators on most generators plus 1-3 random reduced words:
    most close within a few hundred cosets, some are infinite."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = "abc"[: rng.choice((2, 2, 3))]
        rels = [f"{g}^{rng.randint(2, 5)}" for g in gens if rng.random() < 0.8]
        rels += [_random_word(rng, gens, rng.randint(2, 9)) for _ in range(rng.randint(1, 3))]
        out.append(_pres(gens, rels))
    return out


A5 = GroupPresentation(
    ("a", "b"), (parse_word("a^2"), parse_word("b^3"), parse_word("a*b") ** 5)
)
PSL27 = GroupPresentation(
    ("a", "b"),
    (
        parse_word("a^2"),
        parse_word("b^3"),
        parse_word("a*b") ** 7,
        parse_word("a*b*a*b^-1") ** 4,
    ),
)
CAP = 120


def _check_readout(g):
    """validate_group accepts the group read out and agrees on its table,
    identity and inverses."""
    want = validate_group(g.names(), g.table, name=g.group_name)
    assert (g.table, g.identity, g.inverses) == (want.table, want.identity, want.inverses)


def _enumerate(pres, cap):
    try:
        g = coset_enumerate(pres, cap=cap)
    except CapExceeded:
        return None
    _check_readout(g)
    return g.table


@pytest.mark.parametrize(
    "pres, order", [(A5, 60), (PSL27, 168)], ids=["A5", "PSL(2,7)"]
)
def test_named_groups_match_rescan(pres, order):
    want, k, lost = _rescan_enumerate(pres, 10_000)
    assert len(want) == order and not lost
    assert _enumerate(pres, k) == want
    assert _enumerate(pres, k - 1) is None
    assert _rescan_enumerate(pres, k - 1)[0] is None


def test_random_presentations_match_rescan():
    closed = 0
    for pres in _random_presentations(1009, 60):
        want, k, lost = _rescan_enumerate(pres, CAP)
        got = _enumerate(pres, CAP)
        if want is None:
            assert got is None or lost, pres
            continue
        closed += 1
        assert got == want, pres
        assert _enumerate(pres, k) == want, pres
        if not lost:
            assert _enumerate(pres, k - 1) is None, pres
            if k > 1:
                assert _rescan_enumerate(pres, k - 1)[0] is None, pres
    assert closed >= 30


@pytest.mark.parametrize(
    "gens, rels, order",
    [("ab", ["b", "a^5"], 5), ("a", ["a"], 1), ("ab", ["a^-1", "b^3"], 3), ("ab", ["a*b", "b"], 1)],
)
def test_one_letter_relators_match_rescan(gens, rels, order):
    """A one-letter relator is scanned at every new coset, before the
    deductions: the table and its numbering are the oracle's."""
    pres = _pres(gens, rels)
    want, k, lost = _rescan_enumerate(pres, CAP)
    assert len(want) == order and not lost
    assert _enumerate(pres, k) == want
    assert _enumerate(pres, CAP) == want


def test_fewer_definitions_where_rescan_loses_a_deduction():
    # the oracle scans c*a at a coset merged away by a^3 in the same pass,
    # writes 0.c^-1 = 0 but loses 0.c = 0, and later defines 0.c anyway
    pres = _pres("abc", ["a^3", "b^5", "c^3", "c*a", "a^-2", "c^3*b*c*a^-1*b^-1*a^-1*c^-1"])
    want, k, lost = _rescan_enumerate(pres, CAP)
    assert len(want) == 5 and k == 12 and lost
    assert _enumerate(pres, 10) == want
    assert _enumerate(pres, 9) is None


@pytest.mark.parametrize("order", [300, 600])
def test_dihedral_readout_matches_validate_group(order):
    # the readout needs no validate_group: the coset cap bounds the order,
    # and 600^2 entries fit max_tabulate
    pres = _pres("ab", [f"a^{order // 2}", "b^2", "a*b*a*b"])
    g = coset_enumerate(pres)
    assert g.order == order
    _check_readout(g)


def test_readout_caps_its_table():
    """The dihedral group of order 12 read out holds 144 entries, checked
    against max_tabulate as validate_group checks a table."""
    pres = _pres("ab", ["a^6", "b^2", "a*b*a*b"])
    with pytest.raises(SizeCapExceeded) as e:
        coset_enumerate(pres, caps=Caps(max_tabulate=143))
    assert (e.value.what, e.value.size, e.value.cap) == ("group table", 144, 143)
    assert coset_enumerate(pres, caps=Caps(max_tabulate=144)).order == 12


def _action_table(perms, cosets):
    """Coset table of the right action on `cosets` (frozensets of
    permutations, coset 0 first) by each permutation and its inverse."""
    def compose(x, y):
        return tuple(y[i] for i in x)

    def inverse(x):
        out = [0] * len(x)
        for i, v in enumerate(x):
            out[v] = i
        return tuple(out)

    index = {c: i for i, c in enumerate(cosets)}
    cols = [q for p in perms for q in (p, inverse(p))]
    return [
        [index[frozenset(compose(x, q) for x in c)] for q in cols] for c in cosets
    ]


@pytest.mark.parametrize("gens", ["ab", "ba"])
def test_certificate_rejects_a_table_that_is_not_regular(gens):
    """S3 = <a, b | a^2, b^3, (ab)^2> acting on the 3 cosets of <a>,
    a = (0 1): a complete table, on which every relator closes at every
    coset, whose columns are permutations in inverse pairs, but which is
    not regular. Either generator may come first."""
    perm = {"a": (1, 0, 2), "b": (1, 2, 0)}
    col = {g: 2 * i for i, g in enumerate(gens)}
    s3 = sorted(itertools.permutations(range(3)))
    cosets = []
    for g in s3:
        c = frozenset(tuple(g[i] for i in h) for h in ((0, 1, 2), perm["a"]))
        if c not in cosets:
            cosets.append(c)
    assert len(cosets) == 3
    perms = [perm[g] for g in gens]
    table = _action_table(perms, cosets)
    for rel in ("aa", "bbb", "abab"):
        for x in range(3):
            y = x
            for g in rel:
                y = table[y][col[g]]
            assert y == x
    with pytest.raises(NotRegular, match="does not commute"):
        _regular_group(table)
    # the regular action of S3 on the cosets of the trivial subgroup passes
    g = _regular_group(_action_table(perms, [frozenset([g]) for g in s3]))
    assert g.order == 6
    _check_readout(g)


def test_certificate_rejects_a_column_without_its_inverse():
    # Z3 = <a | a^3> with a^-1 acting as a
    table = [[(x + 1) % 3, (x + 1) % 3] for x in range(3)]
    with pytest.raises(NotRegular, match="does not invert"):
        _regular_group(table)
