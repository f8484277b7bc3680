"""Seeded differential tests: derived groups decided by their derivation data.

A derived group's data meets both derivation conditions, so it is an n-ary
group (Hosszú–Gluskin) whose cover formula is associative (Post).
`verify_axioms`, `hosszu_gloskin` and `build_post_cover` decide it from that
data, building no order**n table. Here they must agree with the proofs they
replaced, frozen below: the recovery that compares both flat tables, the
exhaustive axiom scans, and the cover validated by `validate_group` and
checked by `_product_mismatch` on every tuple. Table forms keep the flat
proofs; on corrupted tables the CLI must print what those proofs give.
"""

import json
import random
from contextlib import nullcontext

import pytest

from polyadic import cli
from polyadic.caps import Caps
from polyadic.core import (
    DerivedPolyadicGroup,
    TablePolyadicGroup,
    _decode,
    _first_difference,
    _verify_axioms_exhaustive,
    derive,
    dornte_check,
    hosszu_gloskin,
    retract,
    tabulate,
    verify_axioms,
)
from polyadic.cover import (
    _coset_mismatch,
    _product_mismatch,
    build_post_cover,
    extend_hom_to_cover,
)
from polyadic.errors import PolyadicError, ReconstructionMismatch
from polyadic.fileio import polyadic_from_doc, polyadic_to_doc
from polyadic.groups import (
    GroupAutomorphism,
    Hom,
    are_isomorphic,
    inner_automorphism,
    subgroup_table,
    symmetric_group,
    validate_group,
)

# ---------------------------------------------------------------------------
# the replaced proofs, frozen


def flat_hosszu_gloskin(p, a, caps=Caps()):
    """The recovery at anchor a, checked to rebuild f as the derived
    group's flat table against p's, on either form."""
    g = retract(p, a, caps=caps)
    sa = p.skew(a)
    theta_images = p.line([sa, None] + [a] * (p.n - 2), 1)
    theta = GroupAutomorphism(g, theta_images)
    if not theta.is_valid():
        raise ReconstructionMismatch(("theta", a), "automorphism", theta_images)
    b = p.f([sa] * p.n)
    out = derive(g, theta, b, p.n, caps=caps)
    got, want = tabulate(out, caps).flat, tabulate(p, caps).flat
    if got != want:
        i = _first_difference(got, want)
        raise ReconstructionMismatch(_decode(p.order, p.n, i), want[i], got[i])
    return out


def validated_cover(p, caps=Caps()):
    """(derived group, cover group) as the cover was proved before: its
    table through validate_group, property 4 by `_product_mismatch` over
    all |G|^n tuples."""
    d = p if isinstance(p, DerivedPolyadicGroup) else flat_hosszu_gloskin(p, 0, caps)
    base, n, q = d.base, d.n, d.order
    m = n - 1
    names = [f"{base.name(g)}_{i}" for i in range(m) for g in range(q)]
    table = []
    for i in range(m):
        for g in range(q):
            plain = [base.mul(g, d.theta_pows[i][h]) for h in range(q)]
            carry = [base.mul(x, d.b) for x in plain]
            table.append([(i + j) % m * q + x for j in range(m)
                          for x in (carry if i + j >= m else plain)])
    group = validate_group(names, table, name="cover", caps=caps)
    assert _product_mismatch(d, range(q, 2 * q), lambda c: group.table[c][q:2 * q]) is None
    return d, group


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args):
    try:
        out = fn(*args)
    except PolyadicError as e:
        return type(e).__name__, str(e), vars(e)
    return "ok", out.base.table, out.theta.images, out.b, out.n


def instances(seed, small_bases, random_derived):
    """A derived group at n = 3, 4 and 5 over each small base, and its
    table form."""
    rng = random.Random(seed)
    for base in small_bases:
        for n in (3, 4, 5):
            p = random_derived(rng, base, (n,))
            yield rng, p, tabulate(p)


def fresh(p):
    """A derived group with p's data and none of its cached step tables."""
    return derive(p.base, p.theta, p.b, p.n)


def product_of_embeds(rows, q, args):
    acc = q + args[0]
    for x in args[1:]:
        acc = rows[acc][q + x]
    return acc


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# the library against the frozen proofs


@pytest.mark.parametrize("seed", range(3))
def test_recovery_matches_the_flat_comparison(seed, small_bases, random_derived, no_table):
    for rng, p, t in instances(seed, small_bases, random_derived):
        d = fresh(p)
        for a in sorted(rng.sample(range(p.order), min(3, p.order))):
            with no_table():
                got = outcome(hosszu_gloskin, d, a)
            assert got == outcome(flat_hosszu_gloskin, p, a), (p, a)
            assert outcome(hosszu_gloskin, t, a) == got, (t, a)


@pytest.mark.parametrize("seed", range(3))
def test_axioms_match_the_exhaustive_scan(seed, small_bases, random_derived, no_table):
    for _, p, t in instances(seed, small_bases, random_derived):
        d = fresh(p)
        with no_table():
            rep = verify_axioms(d, caps=Caps(max_axiom_tuples=1, max_tabulate=1))
        assert rep.ok
        assert rep == verify_axioms(t) == _verify_axioms_exhaustive(tabulate(d))


@pytest.mark.parametrize("seed", range(3))
def test_cover_matches_the_validated_cover(seed, small_bases, random_derived, no_table):
    for _, p, t in instances(seed, small_bases, random_derived):
        d = fresh(p)
        for form in (d, t):
            # the recovery of t is checked through its table; d builds none
            with no_table() if form is d else nullcontext():
                c = build_post_cover(form)
            want_d, group = validated_cover(p if form is d else t)
            got = c.group
            assert (got.names(), got.table) == (group.names(), group.table), form
            assert (got.identity, got.inverses) == (group.identity, group.inverses)
            assert [c.embed_index(x) for x in form.elements()] == list(c.embedded())
            assert list(c.embedded()) == [form.order + x for x in form.elements()]
            assert c.polyadic.base.table == want_d.base.table
            # (x, 0) -> x . s, s = skew 0: an isomorphism from R onto the retract
            q, base, ret = form.order, want_d.base, retract(want_d, 0)
            assert c.retract_iso.images == tuple(base.mul(x, ret.identity) for x in range(q))
            iso = Hom(subgroup_table(group, range(q)), ret, c.retract_iso.images)
            assert iso.is_valid() and iso.is_injective()


def test_property_4_names_a_mismatch_on_each_corrupted_cell(small_bases, random_derived):
    """One cell on the way to a product that the Hosszú–Gluskin comparison
    reads (a retract entry, a theta_0 image, b_0) changed to another element
    of its grade: `_coset_mismatch` must name a tuple of that data where the
    product of embeddings, left to right, leaves (f(tuple), 1)."""
    rng = random.Random(11)
    checked = 0
    for base in small_bases:
        for n in (3, 4, 5):
            d = random_derived(rng, base, (n,))
            rows = build_post_cover(d).group.table
            q, mid, s = d.order, (0,) * (n - 2), d.skew(0)
            ret = retract(d, 0)
            assert _coset_mismatch(d, ret, rows) is None
            retracts = [(x,) + mid + (y,) for x in range(q) for y in range(q)]
            thetas = [(s, x) + mid for x in range(q)]
            tuples = retracts + thetas + [(s,) * n]
            for args in (rng.choice(retracts), rng.choice(thetas), (s,) * n):
                k = rng.randrange(1, n)
                c = product_of_embeds(rows, q, args[:k])
                old = rows[c][q + args[k]]
                grade = old // q * q
                bad = [list(r) for r in rows]
                bad[c][q + args[k]] = rng.choice([v for v in range(grade, grade + q) if v != old])
                bad = tuple(map(tuple, bad))
                found = _coset_mismatch(d, ret, bad)
                assert found is not None, (d, args, k)
                t, want, got = found
                assert t in tuples and want == q + d.f(list(t)) != got
                assert got == product_of_embeds(bad, q, t)
                checked += 1
    assert checked == 3 * 3 * len(small_bases)


# ---------------------------------------------------------------------------
# the CLI past the old caps


def _s4_doc(n):
    """Derived S4 with theta conjugation by a 3-cycle t (n = 5) or a
    4-cycle t (n = 4) and b = t^(n-1), which meets both conditions."""
    s4 = symmetric_group(4)
    t = s4.index("1203" if n == 5 else "1230")
    b = s4.power(t, n - 1)
    return polyadic_to_doc(derive(s4, inner_automorphism(s4, t), b, n))


def test_hg_on_derived_s4_at_n5_rebuilds_f(tmp_path, capsys):
    doc = _s4_doc(5)
    p = polyadic_from_doc(doc)
    path = write(tmp_path, "s4n5.json", doc)
    rng = random.Random(5)
    for a in rng.sample(range(24), 3):
        code, out = run(capsys, "hg", "--polyadic", path, "--anchor", p.name(a))
        assert code == 0 and out["anchor"] == p.name(a)
        rec = polyadic_from_doc(out["polyadic"])
        assert out["polyadic"]["n"] == 5 and rec.order == 24
        mid = [a] * 3
        assert [rec.f([x] + mid + [y]) for x in range(24) for y in range(24)] == [
            p.f([x] + mid + [y]) for x in range(24) for y in range(24)
        ]
        for _ in range(300):
            args = [rng.randrange(24) for _ in range(5)]
            assert rec.f(args) == p.f(args), (a, args)


def test_validate_on_derived_s4_at_n5(tmp_path, capsys):
    code, out = run(capsys, "validate", "--polyadic", write(tmp_path, "s4n5.json", _s4_doc(5)))
    assert code == 0
    assert out == {"ok": True, "kind": "polyadic", "order": 24, "n": 5,
                   "associative": True, "solvable": True, "unique": True, "dornte": True}


def test_embedding_extends_to_the_identity_on_derived_s4_at_n5():
    cover = build_post_cover(polyadic_from_doc(_s4_doc(5)))
    assert cover.order == 96
    hom = extend_hom_to_cover(cover, cover.embedded(), cover.group)
    assert hom.images == tuple(range(96))


def test_postcover_on_derived_s4_at_n4(tmp_path, capsys):
    doc = _s4_doc(4)
    p = polyadic_from_doc(doc)
    code, out = run(capsys, "postcover", "--polyadic", write(tmp_path, "s4n4.json", doc))
    assert code == 0 and out["order"] == 72
    gd = out["group"]
    pos = {s: i for i, s in enumerate(gd["elements"])}
    table = [[pos[v] for v in row] for row in gd["table"]]
    g = validate_group(gd["elements"], table)
    embed = [pos[out["embed"][p.name(x)]] for x in range(24)]
    rng = random.Random(4)
    for _ in range(300):
        args = [rng.randrange(24) for _ in range(4)]
        acc = embed[args[0]]
        for x in args[1:]:
            acc = g.mul(acc, embed[x])
        assert acc == embed[p.f(args)], args
    ret = retract(p, 0)
    r = [pos[s] for s in out["retract_subgroup"]]
    assert are_isomorphic(subgroup_table(g, r), ret)[0]


def _swapped(rng, p, a):
    """p's table with two entries of different values swapped outside every
    line that the skew, the Dornte identities and the recovery at anchor a
    read, as refute's swap fixtures are made."""
    n, k = p.n, p.order
    t = tabulate(p)

    def at(args):
        return sum(x * k ** (n - 1 - i) for i, x in enumerate(args))

    sa = p.skew(a)
    keep = {at([sa] * n)}
    for x in range(k):
        sx = p.skew(x)
        keep.add(at([sa, x] + [a] * (n - 2)))
        keep.add(at([sa] + [x] * (n - 3) + [sx, sa]))
        for y in range(k):
            keep.add(at([x] * (n - 1) + [y]))
            keep.add(at([x] + [a] * (n - 2) + [y]))
            for i in range(2, n + 1):
                keep.add(at([x] * (i - 2) + [sx] + [x] * (n - i) + [y]))
                keep.add(at([y] + [x] * (n - i) + [sx] + [x] * (i - 2)))
    free = [i for i in range(len(t.flat)) if i not in keep]
    while True:
        i, j = sorted(rng.sample(free, 2))
        if t.flat[i] != t.flat[j]:
            break
    flat = list(t.flat)
    flat[i], flat[j] = flat[j], flat[i]
    return TablePolyadicGroup(t.names(), n, flat)


@pytest.mark.parametrize("seed", range(3))
def test_corrupted_tables_keep_their_exit_codes_and_witnesses(
    tmp_path, capsys, seed, small_bases, random_derived
):
    """Swapped table forms still fail through the flat proofs: `hg` at the
    anchor and `postcover` (recovering at 0) with the frozen recovery's
    mismatch, `validate` with the exhaustive scan's witnesses."""
    rng = random.Random(seed)
    for base in small_bases[1:]:
        p = random_derived(rng, base, (3, 4))
        a = rng.randrange(p.order)
        bad = _swapped(rng, p, a)
        path = write(tmp_path, "bad.json", polyadic_to_doc(bad))
        with pytest.raises(ReconstructionMismatch) as e:
            flat_hosszu_gloskin(bad, a)
        code, out = run(capsys, "hg", "--polyadic", path, "--anchor", bad.name(a))
        assert (code, out) == (1, {"ok": False, "error": cli._error_doc(e.value)})
        with pytest.raises(PolyadicError) as e:
            flat_hosszu_gloskin(bad, 0)
        code, out = run(capsys, "postcover", "--polyadic", path)
        assert (code, out) == (2, {"error": cli._error_doc(e.value)})
        rep = _verify_axioms_exhaustive(bad)
        dok, dwit = dornte_check(bad)
        code, out = run(capsys, "validate", "--polyadic", path)
        assert code == 1 and not out["ok"] and out["dornte"] == dok and dwit is None
        assert (out["associative"], out["unique"]) == (rep.associative, rep.unique)
        for field in ("associativity_witness", "uniqueness_witness"):
            wit = getattr(rep, field)
            assert out.get(field) == (None if wit is None else json.loads(json.dumps(wit)))
