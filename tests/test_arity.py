"""The arity n is data: every verb answers at n in the hundreds and
thousands, and an n that no table could hold is refused at once, as a
typed error.

One function, `core.check_arity`, takes every n: a derived group is
bounded by its n - 1 step tables, a table form by its order**n table, a
presentation by the runs its skews' powers join.
"""

import json
import time

import pytest

from polyadic.cli import main
from polyadic.caps import Caps
from polyadic.core import check_arity, derive, derive_from_constant
from polyadic.errors import PolyadicError, SizeCapExceeded
from polyadic.fileio import polyadic_to_doc
from polyadic.geometry import coordinate_group
from polyadic.groups import cyclic_group, inner_automorphism, symmetric_group
from polyadic.terms import eval_term, parse_equation

HUGE = 10 ** 12
CAP = 2 * 10 ** 6  # the default max_tabulate
Z3 = {"name": "Z3", "elements": ["0", "1", "2"],
      "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]}
PRES = {"generators": ["a", "b"], "relations": [["~a", "b"]]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def derived(k, n):
    """S_k with theta conjugation by a transposition and b the identity:
    derived at every n with n - 1 even, as theta has order 2."""
    g = symmetric_group(k)
    return derive(g, inner_automorphism(g, g.index("1023"[:k])), g.identity, n)


def system(n):
    """Two equations with f nodes of n arguments each."""
    return [
        "f(" + ",".join(["x1"] * (n - 1) + ["x2"]) + ") = x1",
        "f(x2," + ",".join(["x1"] * (n - 1)) + ") = ~x2",
    ]


VERBS = ["validate", "skew", "identity", "subgroups", "hg", "retract", "homs", "solve", "minsys"]


@pytest.mark.parametrize("n", [7, 101, 1001])
@pytest.mark.parametrize("k", [3, 4])
def test_verbs_answer_at_large_arity(tmp_path, capsys, k, n):
    p = derived(k, n)
    path = write(tmp_path, "p.json", polyadic_to_doc(p))
    anchor = p.name(1)
    sys_path = write(tmp_path, "s.json", {"polyadic": "p.json", "vars": 2, "equations": system(n)})
    argv = {
        "hg": ["--polyadic", path, "--anchor", anchor],
        "retract": ["--polyadic", path, "--anchor", anchor],
        "homs": [path, path],
        "solve": ["--system", sys_path],
        "minsys": ["--system", sys_path],
    }
    out = {}
    for verb in VERBS:
        code, out[verb] = run(capsys, verb, *argv.get(verb, ["--polyadic", path]))
        assert code == 0, (verb, out[verb])
    assert out["validate"]["ok"] and out["validate"]["n"] == n
    assert out["hg"]["polyadic"]["n"] == n
    if k == 3:
        # the solutions against per-point evaluation
        eqs = [parse_equation(s, element_names=p.names()) for s in system(n)]
        want = [
            [p.name(x), p.name(y)]
            for x in p.elements()
            for y in p.elements()
            if all(eval_term(e.left, (x, y), p) == eval_term(e.right, (x, y), p) for e in eqs)
        ]
        assert out["solve"]["points"] == want


@pytest.mark.parametrize("k, n", [(3, 7), (3, 101), (4, 7)])
def test_postcover_at_large_arity(tmp_path, capsys, k, n):
    path = write(tmp_path, "p.json", polyadic_to_doc(derived(k, n)))
    code, doc = run(capsys, "postcover", "--polyadic", path)
    assert code == 0 and doc["order"] == (n - 1) * len(doc["embed"])


def test_coordinate_group_is_linear_in_n():
    """The power's theta has n powers built from theta's own, not one
    composition chain per power."""
    g = symmetric_group(3)
    p = derive(g, inner_automorphism(g, 1), g.identity, 4001)
    start = time.perf_counter()
    cg = coordinate_group(p, [(0, 1), (2, 3)])
    assert time.perf_counter() - start < 1.0
    assert cg.order > 1


@pytest.mark.parametrize("n", [1, 2, 0, -5])
@pytest.mark.parametrize("verb", ["present2group", "cosets"])
def test_presentations_refuse_arities_below_3(tmp_path, capsys, verb, n):
    path = write(tmp_path, "pres.json", PRES)
    code, doc = run(capsys, verb, "--presentation", path, "--n", str(n))
    assert code == 2
    assert doc["error"] == {"type": "PolyadicError", "message": "arity must be at least 3"}


def test_freereduce_takes_any_arity_from_3(capsys):
    """Membership is arithmetic on the height: no table bounds n."""
    code, doc = run(capsys, "freereduce", "x^4", "--n", "2")
    assert (code, doc["error"]["message"]) == (2, "arity must be at least 3")
    code, doc = run(capsys, "freereduce", "x^4", "--n", str(HUGE))
    assert (code, doc["f_pol_member"]) == (0, False)
    code, doc = run(capsys, "freereduce", "x", "--n", str(HUGE))
    assert (code, doc["f_pol_member"]) == (0, True)


def test_derive_counts_its_powers_and_step_tables():
    """n powers of theta (|G| entries in a tuple) and n - 1 step tables
    (|G|^2 entries in |G| + 1 tuples), each tuple counted as an entry."""
    z1 = cyclic_group(1)
    caps = Caps(max_tabulate=97)  # 5n - 3 over Z1
    assert derive_from_constant(z1, 0, 20, caps).n == 20
    with pytest.raises(SizeCapExceeded) as e:
        derive_from_constant(z1, 0, 21, caps)
    assert (e.value.what, e.value.size) == ("arity", 102)
    s3 = symmetric_group(3)
    size = lambda n: n * 7 + (n - 1) * 43
    assert size(40000) <= CAP < size(40001)
    assert derive_from_constant(s3, s3.identity, 9, Caps(max_tabulate=size(9))).n == 9
    with pytest.raises(SizeCapExceeded):
        derive_from_constant(s3, s3.identity, 9, Caps(max_tabulate=size(9) - 1))


def test_check_arity():
    for n in (2, 0, -5):
        with pytest.raises(PolyadicError, match="arity must be at least 3"):
            check_arity(n)
    check_arity(3)
    check_arity(10 ** 12)


@pytest.mark.parametrize(
    "verb, flag, doc, want",
    [
        ("validate", "--polyadic", {"group": Z3, "theta": {"map": {"0": "0", "1": "1", "2": "2"}}, "b": "0"},
         ("arity", HUGE * 4 + (HUGE - 1) * 13, CAP)),
        ("skew", "--polyadic", {"elements": ["e"], "table": ["e"]}, ("arity", HUGE, 21)),
        ("validate", "--polyadic", {"elements": ["0", "1"], "table": ["0", "1"]}, ("arity", HUGE, 21)),
        ("present2group", "--presentation", PRES, ("flattened word", HUGE - 2, CAP)),
        ("cosets", "--presentation", PRES, ("flattened word", HUGE - 2, CAP)),
    ],
    ids=["derived", "one-element-table", "two-element-table", "present2group", "cosets"],
)
def test_huge_arity_exits_2_at_once(tmp_path, capsys, verb, flag, doc, want):
    """n = 10^12 is refused on the tables it would build, before any
    power or list of size n."""
    path = write(tmp_path, "doc.json", doc)
    start = time.perf_counter()
    code, out = run(capsys, verb, flag, path, "--n", str(HUGE))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = out["error"]
    assert (err["type"], err["what"], err["size"], err["cap"]) == ("SizeCapExceeded",) + want


def test_long_skew_power_exits_2_fast(tmp_path, capsys):
    path = write(tmp_path, "pres.json", PRES)
    start = time.perf_counter()
    code, doc = run(capsys, "present2group", "--presentation", path, "--n", str(10 ** 8))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc["error"]["what"] == "flattened word"
    code, doc = run(capsys, "present2group", "--presentation", path, "--n", "1001")
    assert code == 0 and doc["relators"] == ["a^-999*b^-1"]
