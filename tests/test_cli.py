import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from polyadic import cli, core
from polyadic.cli import main
from polyadic.core import tabulate
from polyadic.fileio import (
    group_from_doc,
    group_to_doc,
    polyadic_from_doc,
    polyadic_to_doc,
)
from polyadic.groups import are_isomorphic, cyclic_group

Z3 = {
    "name": "Z3",
    "elements": ["0", "1", "2"],
    "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]],
}
P2 = {"group": Z3, "theta": {"map": {"0": "0", "1": "2", "2": "1"}}, "b": "0", "n": 3}
P1 = {"group": Z3, "theta": {"map": {"0": "0", "1": "1", "2": "2"}}, "b": "0", "n": 3}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_group_ok(tmp_path, capsys):
    path = write(tmp_path, "z3.json", Z3)
    code, doc = run(capsys, "validate", "--group", path)
    assert code == 0
    assert doc["ok"] and doc["identity"] == "0"


def test_validate_group_bad_exit1(tmp_path, capsys):
    bad = dict(Z3, table=[["0", "1", "2"], ["1", "2", "0"], ["2", "0", "0"]])
    path = write(tmp_path, "bad.json", bad)
    code, doc = run(capsys, "validate", "--group", path)
    assert code == 1
    assert not doc["ok"]
    assert doc["error"]["type"] == "NotLatinSquare"


def test_validate_polyadic_table_corruption_exit1(tmp_path, capsys):
    good = write(tmp_path, "p2.json", P2)
    code, doc = run(capsys, "derive", "--polyadic", good)
    assert code == 0
    table_doc = doc["polyadic"]
    # tabulated copy of the same group
    code, doc2 = run(
        capsys, "validate", "--polyadic", write(tmp_path, "p2b.json", table_doc)
    )
    assert code == 0 and doc2["ok"]


def _table_doc(k, n, op):
    names = [str(i) for i in range(k)]
    table = [names[op(args)] for args in product(range(k), repeat=n)]
    return {"elements": names, "n": n, "table": table}


def _monoid(u, k):
    def op(args):
        v = u
        for x in args:
            v = v * x % k
        return v
    return op


@pytest.mark.parametrize(
    "doc, witness",
    [
        # u*x1*...*xn mod k: associative, f(0, 0, 0, x) = 0 for every x
        (_table_doc(5, 4, _monoid(2, 5)), [0, [0, 0, 0], 0, 0, 1]),
        (_table_doc(6, 4, _monoid(5, 6)), [0, [0, 0, 0], 0, 0, 1]),
        # left zero, f = x1: associative, f(0, x, 0) = 0 for every x
        (_table_doc(4, 3, lambda args: args[0]), [1, [0, 0], 0, 0, 1]),
    ],
)
def test_validate_associative_not_solvable_exit1(tmp_path, capsys, doc, witness):
    path = write(tmp_path, "op.json", doc)
    code, out = run(capsys, "validate", "--polyadic", path)
    assert code == 1
    assert not out["ok"] and out["associative"] and "associativity_witness" not in out
    assert out["unique"] is False and out["uniqueness_witness"] == witness
    assert out["dornte"] is False and out["dornte_witness"] == ["no-skew", 0]


def test_validate_cap_keyed_on_each_path(tmp_path, capsys):
    z7 = {
        "name": "Z7",
        "elements": [str(i) for i in range(7)],
        "table": [[str((i + j) % 7) for j in range(7)] for i in range(7)],
    }
    ident = {"map": {str(i): str(i) for i in range(7)}}
    path = write(tmp_path, "z7n5.json", {"group": z7, "theta": ident, "b": "0", "n": 5})
    # 7^5 tuples prove it by reconstruction; the 7^9 scan would exceed the cap
    code, doc = run(capsys, "validate", "--polyadic", path)
    assert code == 0 and doc["ok"] and doc["dornte"]
    # a corrupted table falls back to the scan, which the cap still guards
    table = _table_doc(7, 5, lambda args: sum(args) % 7)
    table["table"][1] = "0"
    path = write(tmp_path, "z7n5bad.json", table)
    code, doc = run(capsys, "validate", "--polyadic", path)
    assert code == 2
    assert doc["error"]["type"] == "SizeCapExceeded"
    assert doc["error"]["what"] == "associativity tuples"


def test_derive_condition_failure_exit1(tmp_path, capsys):
    bad = dict(P2, b="1")
    # theta(1) = 2 != 1, so condition 1 fails
    path = write(tmp_path, "badb.json", bad)
    code, doc = run(capsys, "derive", "--polyadic", path)
    assert code == 1
    assert doc["condition"] == 1
    assert (doc["b"], doc["theta_of_b"]) == ("1", "2")


def test_derive_condition_two_failure_names_the_elements(tmp_path, capsys):
    """Z3 with theta(x) = 2x, b = 0 and n = 4: theta^3 = theta is not
    conjugation by b, the identity, first at x = 1; the document's own
    element names are printed, not indices."""
    names = {"0": "e", "1": "g", "2": "h"}
    group = {
        "elements": ["e", "g", "h"],
        "table": [[names[v] for v in row] for row in Z3["table"]],
    }
    doc = {"group": group, "theta": {"map": {"e": "e", "g": "h", "h": "g"}}, "b": "e", "n": 4}
    code, out = run(capsys, "derive", "--polyadic", write(tmp_path, "c2.json", doc))
    assert code == 1
    assert out["ok"] is False and out["condition"] == 2
    assert (out["x"], out["lhs"], out["rhs"]) == ("g", "h", "g")


def test_skew_and_identity(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", P2)
    code, doc = run(capsys, "skew", "--polyadic", p2)
    assert code == 0
    assert doc["skew"] == {"0": "0", "1": "1", "2": "2"}
    p1 = write(tmp_path, "p1.json", P1)
    code, doc = run(capsys, "identity", "--polyadic", p1)
    assert code == 0 and doc["identity"] == "0"
    code, doc = run(capsys, "identity", "--polyadic", p2)
    assert code == 0 and doc["identity"] is None


def test_postcover_group_roundtrip(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", P2)
    code, doc = run(capsys, "postcover", "--polyadic", p2)
    assert code == 0
    assert doc["order"] == 6
    g = group_from_doc(doc["group"])
    assert group_to_doc(g) == doc["group"]
    assert set(doc["embed"].values()) <= set(doc["group"]["elements"])


def test_polyadic_doc_roundtrip(tmp_path, capsys):
    p = polyadic_from_doc(P2)
    doc = polyadic_to_doc(p)
    again = polyadic_from_doc(doc)
    assert polyadic_to_doc(again) == doc


def test_solve_and_minsys(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", P2)
    sysdoc = {"polyadic": "p2.json", "vars": 1, "equations": ["f(x1,x1,x1) = 2"]}
    spath = write(tmp_path, "sys.json", sysdoc)
    code, doc = run(capsys, "solve", "--system", spath)
    assert code == 0
    assert doc["points"] == [["2"]]
    code, doc = run(capsys, "minsys", "--system", spath)
    assert code == 0 and doc["count"] == 1


def test_system_polyadic_override(tmp_path, capsys):
    sysdoc = {"polyadic": "absent.json", "vars": 1, "equations": ["f(x1,x1,x1) = 2"]}
    spath = write(tmp_path, "sys.json", sysdoc)
    p2 = write(tmp_path, "p2.json", P2)
    code, doc = run(capsys, "solve", "--system", spath, "--polyadic", p2)
    assert code == 0 and doc["count"] == 1


def test_closure_and_irreducible_from_points(tmp_path, capsys):
    write(tmp_path, "p2.json", P2)
    pts = {"polyadic": "p2.json", "vars": 1, "points": [["0"], ["1"]]}
    ppath = write(tmp_path, "pts.json", pts)
    code, doc = run(capsys, "closure", "--system", ppath)
    assert code == 0
    assert doc["points"] == [["0"], ["1"], ["2"]]
    code, doc = run(capsys, "irreducible", "--system", ppath)
    assert code == 0
    assert doc["irreducible"] is False
    assert doc["witness"] is not None


def test_coordgroup_emits_polyadic_file(tmp_path, capsys):
    write(tmp_path, "p2.json", P2)
    sysdoc = {"polyadic": "p2.json", "vars": 1, "equations": ["f(x1,x1,x1) = 2"]}
    spath = write(tmp_path, "sys.json", sysdoc)
    code, doc = run(capsys, "coordgroup", "--system", spath)
    assert code == 0
    assert doc["order"] == 3
    emitted = polyadic_from_doc(doc["polyadic"])
    assert emitted.order == 3


def test_coordgroup_on_many_points_exits_2_fast(tmp_path, capsys):
    """Z2 in 16 free variables has 65536 points: the closure holds tuples
    of 65536 entries, and max_tabulate allows 30 of them."""
    z2 = {"name": "Z2", "elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]}
    write(tmp_path, "z2.json", {"group": z2, "theta": {"map": {"0": "0", "1": "1"}},
                                "b": "0", "n": 3})
    sysdoc = {"polyadic": "z2.json", "vars": 16, "equations": ["x1 = x1"]}
    start = time.perf_counter()
    code, doc = run(capsys, "coordgroup", "--system", write(tmp_path, "s.json", sysdoc))
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert doc["error"]["what"] == "closure"
    assert doc["error"]["cap"] == 2 * 10 ** 6 // 2 ** 16


@pytest.mark.parametrize("verb", ["closure", "irreducible"])
def test_term_functions_on_many_points_exit_2_fast(tmp_path, capsys, verb):
    """Z3 in 7 variables has 2187 points: the 6561 term functions hold
    2187 entries each, and max_tabulate allows 914 of them. In 20
    variables the grid of 3^20 points exceeds max_points, and is never
    built."""
    write(tmp_path, "p1.json", P1)
    for m, what, size, cap in (
        (7, "term algebra", None, 2 * 10 ** 6 // 3 ** 7),
        (20, "term function grid", 3 ** 20, 10 ** 6),
    ):
        sysdoc = {"polyadic": "p1.json", "vars": m, "points": [["0"] * m]}
        start = time.perf_counter()
        code, doc = run(capsys, verb, "--system", write(tmp_path, "s.json", sysdoc))
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert doc["error"]["what"] == what
        assert doc["error"]["cap"] == cap
        assert size is None or doc["error"]["size"] == size


def test_thm63_exit_codes(tmp_path, capsys):
    write(tmp_path, "p2.json", P2)
    good = write(
        tmp_path,
        "good.json",
        {"polyadic": "p2.json", "vars": 1, "equations": ["~x1 = x1"]},
    )
    code, doc = run(capsys, "thm63", "--system", good)
    assert code == 0 and doc["ok"]
    bad = write(
        tmp_path,
        "badsys.json",
        {"polyadic": "p2.json", "vars": 1, "equations": ["x1 = x1"]},
    )
    code, doc = run(capsys, "thm63", "--system", bad)
    assert code == 1 and not doc["ok"]
    assert doc["gamma_star_order"] == 6


def _not_a_group_doc():
    """P2 in table form with f(0,0,1) changed to f(0,0,0): its retract at 0
    repeats a value in a row, so it is not a 3-ary group."""
    doc = polyadic_to_doc(tabulate(polyadic_from_doc(P2)))
    doc["table"][1] = doc["table"][0]
    return doc


def test_equation_verbs_refuse_a_table_that_is_not_a_group(tmp_path, capsys):
    """Every verb that solves or closes runs on the Hosszú–Gluskin recovery
    of a table form, so each prints the error document of the recovery."""
    write(tmp_path, "bad.json", _not_a_group_doc())
    sysdoc = {"polyadic": "bad.json", "vars": 1, "equations": ["f(x1,x1,x1) = x1"]}
    spath = write(tmp_path, "sys.json", sysdoc)
    pdoc = {"polyadic": "bad.json", "vars": 1, "points": [["0"], ["1"]]}
    ppath = write(tmp_path, "pts.json", pdoc)
    errors = []
    for verb, path in (
        ("solve", spath), ("minsys", spath), ("coordgroup", spath), ("closure", spath),
        ("irreducible", spath), ("thm63", spath), ("coordgroup", ppath),
        ("closure", ppath), ("irreducible", ppath),
    ):
        code = main([verb, "--system", path])
        captured = capsys.readouterr()
        assert code == 2, verb
        assert captured.err == ""
        errors.append(json.loads(captured.out)["error"])
    assert all(e == errors[0] for e in errors), errors
    assert errors[0]["type"] == "NotLatinSquare"


@pytest.mark.parametrize("verb", ["solve", "minsys", "coordgroup", "closure", "irreducible",
                                  "thm63"])
def test_equation_verbs_recover_a_table_form_once(tmp_path, capsys, monkeypatch, verb):
    calls = []
    recover = core.hosszu_gloskin

    def spy(*args, **kwargs):
        calls.append(args[1])
        return recover(*args, **kwargs)

    monkeypatch.setattr(core, "hosszu_gloskin", spy)
    write(tmp_path, "p2t.json", polyadic_to_doc(tabulate(polyadic_from_doc(P2))))
    sysdoc = {"polyadic": "p2t.json", "vars": 1,
              "equations": ["f(x1,x1,x1) = x1", "~x1 = x1"]}
    code = main([verb, "--system", write(tmp_path, "s.json", sysdoc)])
    capsys.readouterr()
    assert code in (0, 1) and calls == [0]


def _systems(names, n):
    """Systems over the elements names at arity n, with constants, skews,
    pivots, free variables, repeated and redundant equations."""
    a, b, c = names[1], names[2], names[-1]
    tail = ",".join(["x1"] * (n - 2))
    return [
        (1, [f"f({tail},x1,x1) = {a}"]),
        (2, [f"f(x1,{tail},~x2) = {b}", f"f(x2,{tail},x2) = f(x2,{tail},x2)"]),
        (3, [f"f(x1,x2,{tail}) = f(x2,x1,{tail})", f"~x3 = f({c},{tail},x1)",
             f"f(x1,x2,{tail}) = f(x2,x1,{tail})"]),
        (3, [f"f(x3,{tail},x2) = f(x2,{tail},x3)", f"x1 = ~x1",
             f"f(x1,x1,{tail}) = f(x1,x1,{tail})", f"~~x2 = {a}"]),
    ]


@pytest.mark.parametrize("name", ["p7", "p6"])
def test_table_form_solves_as_its_derived_form(tmp_path, capsys, catalog, name):
    """`solve` and `minsys` print the same bytes for a table document as
    for the derived document of the same group: S3 at n = 3 and n = 4."""
    p = catalog[name]
    write(tmp_path, "derived.json", polyadic_to_doc(p))
    write(tmp_path, "table.json", polyadic_to_doc(tabulate(p)))
    for m, texts in _systems(p.names(), p.n):
        outputs = []
        for form in ("derived.json", "table.json"):
            spath = write(tmp_path, "sys.json", {"polyadic": form, "vars": m, "equations": texts})
            for verb in ("solve", "minsys"):
                code = main([verb, "--system", spath])
                outputs.append((verb, code, capsys.readouterr().out))
        assert outputs[:2] == outputs[2:], texts
        assert [code for _, code, _ in outputs] == [0] * 4


# coordgroup's stdout on no points over P2: the one empty tuple, named "1"
EMPTY_COORDGROUP = (
    '{\n  "order": 1,\n  "vars": 1,\n  "points": [],\n  "elements": [\n    []\n  ],\n'
    '  "projections": [\n    []\n  ],\n  "polyadic": {\n    "elements": [\n      "1"\n'
    '    ],\n    "n": 3,\n    "table": [\n      "1"\n    ]\n  }\n}\n'
)


@pytest.mark.parametrize("verb, want", [
    ("closure", {"vars": 1, "count": 0, "points": []}),
    ("irreducible", {"irreducible": True, "witness": None}),
])
def test_explicit_empty_points_are_the_empty_set(tmp_path, capsys, verb, want):
    """"points": [] is the empty point set, not a missing field: the
    closure of no points over Z3 (n = 3, theta = x -> 2x) is empty and
    its coordinate group has one element, while without the field the
    verbs read the solution set of the equations, all of Z3."""
    write(tmp_path, "p2.json", P2)
    empty = {"polyadic": "p2.json", "vars": 1, "equations": ["x1 = x1"], "points": []}
    code, doc = run(capsys, verb, "--system", write(tmp_path, "e.json", empty))
    assert (code, doc) == (0, want)
    code = main(["coordgroup", "--system", write(tmp_path, "e.json", empty)])
    assert (code, capsys.readouterr().out) == (0, EMPTY_COORDGROUP)
    absent = {"polyadic": "p2.json", "vars": 1, "equations": ["x1 = x1"]}
    code, doc = run(capsys, "closure", "--system", write(tmp_path, "a.json", absent))
    assert code == 0 and doc["count"] == 3
    code, doc = run(capsys, "coordgroup", "--system", write(tmp_path, "a.json", absent))
    assert code == 0 and doc["order"] == 9 and len(doc["points"]) == 3


@pytest.mark.parametrize("field, value", [
    ("vars", True), ("vars", False), ("vars", 1.7), ("vars", -0.5),
    ("n", 3.9), ("n", True), ("n", float("inf")), ("n", float("nan")),
])
def test_integer_fields_refuse_booleans_and_fractions(tmp_path, capsys, field, value):
    """A JSON boolean or a number with a fractional part is refused for n
    and vars, with an error naming the field, not truncated by int()."""
    pdoc, sysdoc = dict(P2), {"polyadic": "p2.json", "vars": 1, "equations": ["x1 = 2"]}
    (sysdoc if field == "vars" else pdoc)[field] = value
    write(tmp_path, "p2.json", pdoc)
    code = main(["solve", "--system", write(tmp_path, "s.json", sysdoc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "PolyadicError"
    assert error["message"].startswith(f"{field} must be an integer")


@pytest.mark.parametrize("vars_, n", [(1.0, 3), ("1", 3.0), (1, "3")])
def test_integer_fields_accept_integral_numbers_and_digit_strings(tmp_path, capsys, vars_, n):
    write(tmp_path, "p2.json", dict(P2, n=n))
    sysdoc = {"polyadic": "p2.json", "vars": vars_, "equations": ["x1 = 2"]}
    code, doc = run(capsys, "solve", "--system", write(tmp_path, "s.json", sysdoc))
    assert (code, doc) == (0, {"vars": 1, "count": 1, "points": [["2"]]})


def test_present2group_and_cosets(tmp_path, capsys):
    pres = {"generators": ["x"], "relations": [["~x", "x"]]}
    ppath = write(tmp_path, "pres.json", pres)
    code, doc = run(capsys, "present2group", "--presentation", ppath, "--n", "3")
    assert code == 0
    assert doc["relators"] == ["x^-2"]
    gpath = write(tmp_path, "gp.json", doc)
    code, doc = run(capsys, "cosets", "--presentation", gpath)
    assert code == 0 and doc["order"] == 2
    # the polyadic presentation enumerates directly as well
    code, doc = run(capsys, "cosets", "--presentation", ppath, "--n", "3")
    assert code == 0 and doc["order"] == 2


def test_cosets_cap_exit2(tmp_path, capsys):
    zz = {"generators": ["a", "b"], "relators": ["a*b*a^-1*b^-1"]}
    path = write(tmp_path, "zz.json", zz)
    code, doc = run(capsys, "cosets", "--presentation", path, "--cap", "64")
    assert code == 2
    assert doc["error"]["type"] == "CapExceeded"


@pytest.mark.parametrize("gens, message", [
    (["a", "b", "a"], "duplicate generator name 'a'"),
    (["1", "a"], '"1" is the empty word, not a generator name'),
], ids=["duplicate", "one"])
def test_presentation_generators_are_distinct_words(tmp_path, capsys, gens, message):
    """A repeated generator, or "1", which the word grammar reads as the
    empty word, is refused before anything is flattened or enumerated."""
    nary = {"generators": gens, "relations": [["f(a,a,a)", "a"]]}
    group = {"generators": gens, "relators": ["a^2"]}
    for verb, doc in (("present2group", nary), ("cosets", nary), ("cosets", group)):
        path = write(tmp_path, "p.json", doc)
        code, out = run(capsys, verb, "--presentation", path, "--n", "3")
        assert (code, out["error"]) == (2, {"type": "PolyadicError", "message": message})


def test_freereduce(capsys):
    code, doc = run(capsys, "freereduce", "x*y*y^-1*x")
    assert code == 0
    assert doc == {"word": "x^2", "height": 2, "length": 2}
    code, doc = run(capsys, "freereduce", "x^4", "--n", "4")
    assert code == 0 and doc["f_pol_member"] is True
    # nine digits are still an exponent; more exit 2 (test_long_exponent_exit2)
    code, doc = run(capsys, "freereduce", "x^-" + "9" * 9)
    assert code == 0 and doc["height"] == -999999999
    code, doc = run(capsys, "freereduce", "a  $")
    assert code == 2
    assert doc["error"] == {"type": "ParseError", "column": 3, "line": 1,
                            "message": "line 1, column 3: unexpected character '$'"}


def test_translate_directions(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", P2)
    code, doc = run(
        capsys, "translate", "g2p", "--polyadic", p2, "--anchor", "1", "x1*x2 = 1"
    )
    assert code == 0
    assert doc["equation"] == "f(x1,1,x2) = ~1"
    code, doc = run(capsys, "translate", "p2g", "--polyadic", p2, "f(x1,x2,c2) = x1")
    assert code == 0
    assert doc["equation"] == "x1*x2*2_1 = x1"


def test_translate_p2g_wide_translation_exits_2_fast(tmp_path, capsys):
    """At n = 5 each skew prints its child three times: 20 nested skews
    would print 3^20 copies of x1, and exit 2 instead; shallow terms print
    as before."""
    path = write(tmp_path, "p1n5.json", dict(P1, n=5))
    start = time.perf_counter()
    code = main(["translate", "p2g", "--polyadic", path, "~" * 20 + "x1 = x1"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(captured.out)["error"]["what"] == "translated term nodes"
    assert captured.err == ""
    inner = "x1*1_1*x2*(x1*x1*x1)^-1*x2"
    for text, want in (
        ("~x1 = x1", "(x1*x1*x1)^-1 = x1"),
        ("~~f(x1,c1,x2,~x1,x2) = ~x2",
         "(" + "*".join([f"({'*'.join([inner] * 3)})^-1"] * 3) + ")^-1 = (x2*x2*x2)^-1"),
    ):
        code, doc = run(capsys, "translate", "p2g", "--polyadic", path, text)
        assert (code, doc["equation"]) == (0, want)


def test_missing_file_exit2(capsys):
    code, doc = run(capsys, "validate", "--group", "no-such-file.json")
    assert code == 2
    assert doc["error"]["type"] == "IOError"


def test_parse_error_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, doc = run(capsys, "validate", "--group", str(path))
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


def _nested_table_doc():
    doc = polyadic_to_doc(tabulate(polyadic_from_doc(P2)))
    doc["table"][5] = [doc["table"][5], doc["table"][5]]
    return doc


def _g2p(equation, n=3):
    """A translate g2p case: P2 at arity 3, else P1 (identity theta, so
    every arity is a derivation) at arity n."""
    doc = P2 if n == 3 else dict(P1, n=n)
    return ("translate", "--polyadic", doc, ["g2p", equation, "--anchor", "1"])


@pytest.mark.parametrize(
    "verb, flag, doc, rest",
    [
        ("validate", "--polyadic", dict(P2, n="three"), []),
        ("skew", "--polyadic", _nested_table_doc(), []),
        ("solve", "--system",
         {"polyadic": "p2.json", "vars": "x", "equations": ["f(x1,x1,x1) = x1"]}, []),
        ("solve", "--system",
         {"polyadic": "p2.json", "vars": 1, "equations": ["~" * 3000 + "x1 = x1"]}, []),
        _g2p("(" * 3000 + "x1" + ")" * 3000 + " = x1"),
        _g2p("x1^2000 = x1"),
        _g2p(" ".join(["x1"] * 3000) + " = x1"),
        _g2p("x1" + "'" * 3000 + " = x1"),
        _g2p("x1" + "^2" * 40 + " = x1"),
        _g2p("x1^" + "9" * 5000 + " = x1"),
        _g2p("x" + "9" * 5000 + " = x1"),
        _g2p("x1" + "'" * 20 + " = x1", n=6),
    ],
    ids=["n-string", "nested-table", "vars-string", "deep-skew", "g2p-deep-parens",
         "g2p-big-power", "g2p-long-product", "g2p-deep-inverse", "g2p-power-tower",
         "g2p-long-exponent", "g2p-long-variable", "g2p-wide-translation"],
)
def test_malformed_document_exit2(tmp_path, capsys, verb, flag, doc, rest):
    write(tmp_path, "p2.json", P2)
    path = write(tmp_path, "bad.json", doc)
    code = main([verb, flag, path, *rest])
    captured = capsys.readouterr()
    assert code == 2
    assert isinstance(json.loads(captured.out)["error"]["message"], str)
    assert captured.err == ""


SYSTEM = {"polyadic": "p2.json", "vars": 2, "equations": ["f(x1,x2,1) = ~x2"],
          "points": [["0", "1"], ["2", "2"]]}
NPRES = {"generators": ["x", "y"], "relations": [["~x", "y"], ["f(x,y,x)", "x"]]}
# (verb, flag, document or free word, trailing arguments)
FUZZ_CASES = [
    ("validate", "--polyadic", P2, []),
    ("derive", "--polyadic", P2, []),
    ("validate", "--group", Z3, []),
    ("solve", "--system", SYSTEM, []),
    ("coordgroup", "--system", SYSTEM, []),
    ("closure", "--system", SYSTEM, []),
    ("present2group", "--presentation", NPRES, ["--n", "3"]),
    ("cosets", "--presentation", NPRES, ["--n", "3"]),
    ("cosets", "--presentation", {"generators": ["a", "b"], "relators": ["a^3", "b^2", "abab"]}, []),
    ("freereduce", None, "x*y^-2*x'*y^3*x^12", []),
]
JUNK = [None, 0, -1, 2.5, True, "", "zz", [], ["0"], [["0"]], {}, {"a": 1}, "f(", "~" * 120 + "x1"]


def test_coordgroup_stdout_is_pinned(tmp_path, capsys):
    """coordgroup's whole stdout on SYSTEM: the 9 term functions on its two
    points, their names and the 9^3 table, byte for byte (10204 bytes,
    pinned by digest)."""
    write(tmp_path, "p2.json", P2)
    code = main(["coordgroup", "--system", write(tmp_path, "s.json", SYSTEM)])
    out = capsys.readouterr().out.encode()
    assert (code, len(out)) == (0, 10204)
    assert hashlib.sha256(out).hexdigest() == (
        "7f61348d1fae40dbd1c28ef2426e74b6aa48bbf2bf2b78a1129d0ec1075abbc7"
    )
    doc = json.loads(out)
    assert doc["elements"][:2] == [["0", "0"], ["0", "1"]]
    assert doc["projections"] == [["0", "2"], ["1", "2"]]


def _mutate(rng, doc):
    """doc with one value (or the whole document) replaced by junk, or one
    field deleted."""
    doc = json.loads(json.dumps(doc))
    paths = [[]]
    for path in paths:
        node = doc
        for k in path:
            node = node[k]
        if isinstance(node, dict):
            paths.extend(path + [k] for k in node)
        elif isinstance(node, list):
            paths.extend(path + [i] for i in range(len(node)))
    path = rng.choice(paths)
    if not path:
        return rng.choice(JUNK)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(JUNK)
    return doc


WORD_JUNK = ["^", "^-", "^0", "'", "*", "~", "1", "x", "(", " ", "\u00e9", "9" * 5000]


def _mutate_word(rng, word):
    """word with one to three junk insertions or character deletions."""
    chars = list(word)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(chars) + 1)
        if i < len(chars) and rng.random() < 0.4:
            del chars[i]
        else:
            chars.insert(i, rng.choice(WORD_JUNK))
    return "".join(chars)


@pytest.mark.parametrize("seed", range(2))
def test_mutated_documents_exit_cleanly(tmp_path, capsys, seed):
    rng = random.Random(seed)
    write(tmp_path, "p2.json", P2)
    for _ in range(300):
        verb, flag, doc, rest = rng.choice(FUZZ_CASES)
        if flag is None:
            argv = [verb, _mutate_word(rng, doc)]
        else:
            argv = [verb, flag, write(tmp_path, "doc.json", _mutate(rng, doc))]
        code = main(argv + rest)
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out), dict)


@pytest.mark.parametrize(
    "argv",
    [
        ["freereduce", "x^" + "9" * 5000],
        ["freereduce", "x*y^-" + "0" * 3 + "1" * 10],
        ["cosets", "--presentation", {"generators": ["a"], "relators": ["a^" + "9" * 5000]}],
    ],
    ids=["word", "negative-word", "relator"],
)
def test_long_exponent_exit2(tmp_path, capsys, argv):
    argv = [write(tmp_path, "pres.json", a) if isinstance(a, dict) else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "ParseError"
    assert captured.err == ""


def test_long_relator_exit2_fast(tmp_path, capsys):
    """A relator of period 1 has one distinct rotation, so a^2000000 costs
    2 * 2000000 letters of conjugates, which the cap refuses before they
    are built."""
    path = write(tmp_path, "a.json", {"generators": ["a"], "relators": ["a^2000000"]})
    start = time.perf_counter()
    code, doc = run(capsys, "cosets", "--presentation", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["what"] == "relator conjugates"
    assert doc["error"]["size"] == 4000000
    # a long relator whose rotations fit still enumerates up to the coset cap
    path = write(tmp_path, "b.json", {"generators": ["a"], "relators": ["a^4000"]})
    start = time.perf_counter()
    code, doc = run(capsys, "cosets", "--presentation", path, "--cap", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc["error"]["type"] == "CapExceeded"


def _z12n6(tmp_path):
    """Z12 with theta = id, b = 0 and n = 6: 12^6 = 2985984 tuples, more
    than max_tabulate."""
    z12 = {
        "name": "Z12",
        "elements": [str(i) for i in range(12)],
        "table": [[str((i + j) % 12) for j in range(12)] for i in range(12)],
    }
    ident = {"map": {str(i): str(i) for i in range(12)}}
    return write(tmp_path, "z12n6.json", {"group": z12, "theta": ident, "b": "0", "n": 6})


@pytest.mark.parametrize(
    "argv",
    [["hg", "--anchor", "0"], ["postcover"], ["validate"]],
    ids=lambda argv: argv[0],
)
def test_whole_operation_verbs_answer_from_derivation_data(tmp_path, capsys, argv):
    """A derived group is an n-ary group by its checked derivation data, so
    the recovery, the cover and the axioms answer on Z12 at n = 6, where
    they compared or scanned flat tables past max_tabulate and exited 2."""
    code, doc = run(capsys, argv[0], "--polyadic", _z12n6(tmp_path), *argv[1:])
    assert code == 0
    if argv[0] == "hg":
        # anchor 0: x * y = f(x, 0, 0, 0, 0, y) = x + y, theta = id, b = 0
        rec = polyadic_from_doc(doc["polyadic"])
        rng = random.Random(6)
        for _ in range(200):
            args = [rng.randrange(12) for _ in range(6)]
            assert int(rec.name(rec.f(args))) == sum(args) % 12
    elif argv[0] == "postcover":
        assert doc["order"] == 60
        g = group_from_doc(doc["group"])
        assert are_isomorphic(g, cyclic_group(60))[0]
        assert [doc["embed"][str(x)] for x in range(12)] == [f"{x}_1" for x in range(12)]
    else:
        assert doc == {"ok": True, "kind": "polyadic", "order": 12, "n": 6,
                       "associative": True, "solvable": True, "unique": True,
                       "dornte": True}


def test_element_verbs_need_no_flat_table(tmp_path, capsys):
    """Rows, lines and single values of a derived group come from its base
    group, so these answer on Z12 at n = 6."""
    path = _z12n6(tmp_path)
    for argv in (["skew"], ["subgroups"], ["derive"], ["retract", "--anchor", "0"], ["identity"]):
        code, doc = run(capsys, argv[0], "--polyadic", path, *argv[1:])
        assert code == 0, argv


def test_aperiodic_long_relator_capped(tmp_path, capsys):
    """An aperiodic relator of length L holds 2L rotations of L letters
    each: a^1000 b^1001 needs 8008002, more than max_tabulate, and now
    exits 2 where it enumerated the trivial group before."""
    doc = {"generators": ["a", "b"], "relators": ["a", "b^2", "a^1000 b^1001"]}
    code, out = run(capsys, "cosets", "--presentation", write(tmp_path, "p.json", doc))
    assert code == 2
    assert out["error"]["what"] == "relator conjugates"
    assert out["error"]["size"] == 2 + 4 + 8008002


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python converts ints of any length to decimal",
)
def test_size_past_decimal_limit_exits_2(tmp_path, capsys):
    """Z2 in 20000 variables: the grid's 2^20000 points have more than the
    4300 digits Python prints, so the size is reported as a bound."""
    z2 = {"name": "Z2", "elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]}
    write(tmp_path, "z2.json", {"group": z2, "theta": {"map": {"0": "0", "1": "1"}},
                                "b": "0", "n": 3})
    sysdoc = {"polyadic": "z2.json", "vars": 20000, "equations": ["x1 = x1"]}
    code, doc = run(capsys, "solve", "--system", write(tmp_path, "s.json", sysdoc))
    assert code == 2
    err = doc["error"]
    assert (err["type"], err["what"], err["cap"]) == ("SizeCapExceeded", "solution grid", 10 ** 6)
    assert err["size"] == ">= 2^20000"
    assert err["message"] == "solution grid: size >= 2^20000 exceeds cap 1000000"


@pytest.mark.parametrize(
    "verb", ["solve", "minsys", "coordgroup", "closure", "irreducible", "thm63"]
)
def test_huge_variable_count_exits_2(tmp_path, capsys, verb):
    """10^12 variables: each verb would build an m-entry list or |G|^m
    points first; the document is refused on its variable count."""
    write(tmp_path, "p1.json", P1)
    sysdoc = {"polyadic": "p1.json", "vars": 10 ** 12, "equations": ["x1 = x1"],
              "points": []}
    path = write(tmp_path, "s.json", sysdoc)
    start = time.perf_counter()
    code = main([verb, "--system", path])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert (err["what"], err["size"], err["cap"]) == ("variables", 10 ** 12, 2 * 10 ** 6)
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["frobnicate"], ["solve", "--n", "x"], ["skew", "--format", "xml"]],
)
def test_cached_parser_prints_what_a_fresh_one_does(capsys, argv):
    """The parser is built once per process and keeps its usage line; help
    and usage errors must read as those of a parser built for the call."""
    fresh = cli._parser.__wrapped__()
    fresh.usage = None
    outputs = []
    for parse in (fresh.parse_intermixed_args, main):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        captured = capsys.readouterr()
        outputs.append((info.value.code, captured.out, captured.err))
    assert outputs[0] == outputs[1]
    assert cli._parser() is cli._parser()


def test_homs_two_files(tmp_path, capsys):
    p1 = write(tmp_path, "p1.json", P1)
    code, doc = run(capsys, "homs", "--polyadic", p1, p1)
    assert code == 0
    assert doc["count"] == 3
    p2 = write(tmp_path, "p2.json", P2)
    code, doc = run(capsys, "homs", p2, p2)
    names = polyadic_from_doc(P2).names()
    assert code == 0
    assert doc["homs"] == [
        {"a": names[h.a], "images": {s: names[y] for s, y in zip(names, h.images)}}
        for h in core.polyadic_homs(polyadic_from_doc(P2), polyadic_from_doc(P2))
    ]


def test_homs_across_arities_exit2(tmp_path, capsys):
    p1 = write(tmp_path, "p1.json", P1)
    p1_4 = write(tmp_path, "p1-4.json", dict(P1, n=4))
    code, doc = run(capsys, "homs", p1, p1_4)
    assert code == 2
    assert doc["error"]["type"] == "ArityMismatch"
    assert doc["error"]["message"] == "expected 3 arguments, got 4"


def test_homs_arity_flag_reaches_both_files(tmp_path, capsys):
    """--n gives the arity of the target too when neither document has one."""
    bare = {k: v for k, v in P2.items() if k != "n"}
    a, b = write(tmp_path, "a.json", bare), write(tmp_path, "b.json", bare)
    code, doc = run(capsys, "homs", a, b, "--n", "3")
    assert (code, doc["count"]) == (0, 9)
    code, doc = run(capsys, "homs", a, b)
    assert code == 2 and doc["error"]["message"].startswith("no arity")


@pytest.mark.parametrize("bad, shown", [("7", "'7'"), (["1"], "['1']")],
                         ids=["unknown", "unhashable"])
def test_table_decoding_names_the_first_bad_entry(tmp_path, capsys, bad, shown):
    """A group row and a flat n-ary table decode in one map; on a bad
    entry after a valid prefix the message names that entry."""
    group = dict(Z3, table=[["0", "1", "2"], ["1", bad, "0"], ["2", "0", "1"]])
    flat = polyadic_to_doc(tabulate(polyadic_from_doc(P2)))
    flat["table"][5] = bad
    for verb, flag, doc in (("validate", "--group", group),
                            ("validate", "--polyadic", dict(P2, group=group)),
                            ("skew", "--polyadic", flat)):
        code, out = run(capsys, verb, flag, write(tmp_path, "bad.json", doc))
        assert code == 2
        assert out["error"]["message"] == f"unknown element name {shown} in table"


def test_output_determinism(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", P2)
    code1 = main(["subgroups", "--polyadic", p2])
    out1 = capsys.readouterr().out
    code2 = main(["subgroups", "--polyadic", p2])
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)


def test_table_format(tmp_path, capsys):
    p2 = write(tmp_path, "p2.json", P2)
    code = main(["identity", "--polyadic", p2, "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "identity: null"


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_stdout_does_not_depend_on_hash_seed(tmp_path, catalog):
    """Output is byte-identical across runs: no verb may let the order of a
    set or dict of strings, which PYTHONHASHSEED varies, reach stdout."""
    p6 = catalog["p6"]  # S3, n = 4, inner twist
    derived = write(tmp_path, "p6.json", polyadic_to_doc(p6))
    table = write(tmp_path, "p6t.json", polyadic_to_doc(tabulate(p6)))
    names = p6.names()
    equations = {"polyadic": "p6.json", "vars": 2,
                 "equations": [f"f(x1,x2,x1,{names[3]}) = f(x2,x1,x2,{names[3]})"]}
    points = {"polyadic": "p6t.json", "vars": 2,
              "points": [[names[1], names[4]], [names[5], names[2]]]}
    argvs = [
        ["solve", "--system", write(tmp_path, "eqs.json", equations)],
        ["coordgroup", "--system", write(tmp_path, "pts.json", points)],
        ["hg", "--polyadic", table, "--anchor", names[2]],
        ["postcover", "--polyadic", table],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        outputs[seed] = [
            subprocess.run(
                [sys.executable, "-m", "polyadic.cli", *argv],
                capture_output=True, env=env, timeout=120,
            )
            for argv in argvs
        ]
    for argv, zero, one in zip(argvs, outputs["0"], outputs["1"]):
        assert zero.returncode == one.returncode == 0, (argv, zero.stderr)
        assert zero.stdout == one.stdout, argv
        assert zero.stdout.startswith(b"{")


def test_closed_stdout_is_quiet(tmp_path):
    # a cyclic group of order 150 prints ~300 kB, more than a pipe buffers
    path = write(tmp_path, "c150.json", {"generators": ["x"], "relators": ["x^150"]})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    with subprocess.Popen(
        [sys.executable, "-m", "polyadic.cli", "cosets", "--presentation", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(64).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and err == ""


# ---------------------------------------------------------------------------
# degenerate documents

EMPTY_TABLE = {"elements": [], "n": 3, "table": []}
EMPTY_DERIVED = {"group": {"elements": [], "table": []}, "theta": {"map": {}}, "b": "0", "n": 3}
EXTRA_KEY = dict(P2, theta={"map": {"0": "0", "1": "2", "2": "1", "zz": "q"}})
LEFT_ZERO = _table_doc(3, 3, lambda args: args[0])
DEGENERATE = {
    "empty-table": EMPTY_TABLE,
    "empty-derived": EMPTY_DERIVED,
    "one-element-table": {"elements": ["e"], "n": 3, "table": ["e"]},
    "extra-theta-key": EXTRA_KEY,
    "left-zero": LEFT_ZERO,
}
SWEEP_SYSTEM = {"polyadic": "unused.json", "vars": 1, "equations": ["f(x1,x1,x1) = x1"]}


def polyadic_verbs(path, anchor, system):
    """Every verb that reads a --polyadic file, with the arguments it needs."""
    return [
        ["validate"], ["derive"], ["skew"], ["identity"], ["subgroups"], ["postcover"],
        ["retract", "--anchor", anchor], ["hg", "--anchor", anchor], ["homs", path],
        ["translate", "g2p", "x1 = x1", "--anchor", anchor],
        ["translate", "p2g", "f(x1,x1,x1) = x1"],
        *([verb, "--system", system] for verb in (
            "solve", "coordgroup", "closure", "irreducible", "minsys", "thm63")),
    ]


# on a table that is not an n-ary group, the verbs that read one property
# of the operation answer; `derive` reads only the derived form, and the
# verbs that compute inside the group refuse it
READS_THE_OPERATION = {"validate", "skew", "retract", "hg", "identity"}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_documents_exit_cleanly(tmp_path, capsys, name):
    path = write(tmp_path, "p.json", DEGENERATE[name])
    system = write(tmp_path, "sys.json", SWEEP_SYSTEM)
    for argv in polyadic_verbs(path, "0", system):
        code = main([argv[0], "--polyadic", path, *argv[1:]])
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        out = json.loads(captured.out)
        assert isinstance(out, dict), argv
        assert captured.err == "", argv
        if name != "left-zero":
            continue
        if argv[0] in READS_THE_OPERATION:
            assert code in (0, 1), argv
        else:
            assert code == 2 and "error" in out, argv
        if argv[0] == "skew":  # no skew element: a verdict, as in retract and hg
            assert code == 1 and out["ok"] is False, argv
            assert out["error"]["type"] == "NoSolution"
        if argv[0] == "identity":
            assert (code, out) == (0, {"identity": None})


@pytest.mark.parametrize("name", DEGENERATE)
def test_translate_reads_the_group_alike_in_both_directions(tmp_path, capsys, name):
    """Both directions read the group through its recovery, as the
    equation verbs do: each answers exactly when the other does, and on a
    table that is not an n-ary group (left-zero) both refuse it with the
    recovery's error."""
    doc = DEGENERATE[name]
    path = write(tmp_path, "p.json", doc)
    anchor = (doc.get("elements") or doc.get("group", {}).get("elements") or ["0"])[0]
    got = []
    for rest in (["g2p", "x1 = x1", "--anchor", anchor], ["p2g", "f(x1,x1,x1) = x1"]):
        code, out = run(capsys, "translate", "--polyadic", path, *rest)
        got.append((code, out.get("error", {}).get("type")))
    assert got[0] == got[1], got
    if name == "left-zero":
        assert got[0] == (2, "NotLatinSquare")


def test_empty_carrier_is_refused_alike_in_both_forms(tmp_path, capsys):
    """An empty carrier has no identity: `validate` reports NoIdentity with
    exit 1, and every other verb refuses it as NoIdentity with exit 2, in
    the table form as in the derived form."""
    system = write(tmp_path, "sys.json", SWEEP_SYSTEM)
    seen = []
    for doc in (EMPTY_TABLE, EMPTY_DERIVED):
        path = write(tmp_path, "p.json", doc)
        got = []
        for argv in polyadic_verbs(path, "0", system):
            if argv[0] == "derive":  # it reads only the derived form
                continue
            code, out = run(capsys, argv[0], "--polyadic", path, *argv[1:])
            assert out["error"]["type"] == "NoIdentity", (doc, argv)
            got.append((argv[0], code))
        seen.append(got)
    assert seen[0] == seen[1]
    assert {code for verb, code in seen[0] if verb != "validate"} == {2}
    assert dict(seen[0])["validate"] == 1


def test_theta_map_refuses_an_unknown_key(tmp_path, capsys):
    path = write(tmp_path, "p.json", EXTRA_KEY)
    for verb in ("derive", "validate", "skew"):
        code, out = run(capsys, verb, "--polyadic", path)
        assert code == 2, verb
        assert out["error"]["message"] == "unknown element name 'zz'"


@pytest.mark.parametrize(
    "doc, error",
    [
        (LEFT_ZERO, "NotLatinSquare"),
        # f(1, 1, y) = 0 for both y: 1 has no skew element
        ({"elements": ["0", "1"], "n": 3, "table": ["0", "1", "0", "0", "1", "0", "0", "0"]},
         "NoSolution"),
    ],
)
def test_failed_reconstruction_exits_1(tmp_path, capsys, doc, error):
    """`retract` and `hg` on a table that is not an n-ary group print the
    failure as a negative verdict, as `validate` does."""
    path = write(tmp_path, "p.json", doc)
    code, out = run(capsys, "validate", "--polyadic", path)
    assert code == 1 and not out["ok"]
    for verb in ("retract", "hg"):
        code, out = run(capsys, verb, "--polyadic", path, "--anchor", "0")
        assert code == 1, verb
        assert out["ok"] is False and out["error"]["type"] == error, verb


def test_retract_of_a_65_element_table_answers(tmp_path, capsys):
    """The retract of a 65-element table at n = 3 holds 65^2 entries, under
    max_tabulate, so `retract` and `hg` answer: Z65 with identity 0."""
    path = write(tmp_path, "p.json", _table_doc(65, 3, lambda args: sum(args) % 65))
    code, out = run(capsys, "retract", "--polyadic", path, "--anchor", "0")
    assert code == 0
    assert out["group"]["elements"] == [str(i) for i in range(65)]
    assert out["group"]["table"][1][64] == "0"
    code, out = run(capsys, "hg", "--polyadic", path, "--anchor", "0")
    assert code == 0
    assert (out["anchor"], out["polyadic"]["b"], out["polyadic"]["n"]) == ("0", "0", 3)
