"""`fileio.dump_json` against its reference, `json.dumps(doc, indent=2)`:
the CLI's stdout is the encoder's output, so the two must agree byte for
byte on every document that `json.dumps` accepts."""

import collections
import json
import random

import pytest

from polyadic import cli
from polyadic.core import tabulate
from polyadic.fileio import dump_json, polyadic_to_doc

_STRINGS = ["", "a", "0", "x1", "é", "日本", "\U0001f600", '"', "\\", "a\"b\\c",
            "\n\t\r\x00\x1f\x7f", " ", "/", "\u00a0\u2028"]
_SCALARS = [None, True, False, 0, -1, 7, 2 ** 70, 1.5, -0.0, 0.0, 1e300, -1e-300,
            float("nan"), float("inf"), float("-inf")]


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


_Pair = collections.namedtuple("_Pair", "a b")


def _leaf(rng):
    return rng.choice(_STRINGS) if rng.random() < 0.5 else rng.choice(_SCALARS)


def _random_doc(rng, depth):
    """A nested document mixing the encoder's fast paths (lists of only
    str or only int, str -> str dicts, empty containers) with what takes
    none of them."""
    if depth == 0 or rng.random() < 0.15:
        return _leaf(rng)
    size = rng.choice((0, 1, 2, 3, 6))
    kind = rng.randrange(10)
    if kind == 0:
        return [rng.choice(_STRINGS) for _ in range(size)]
    if kind == 1:
        items = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(size)]
        if items and rng.random() < 0.5:  # a bool is an int to isinstance
            items[rng.randrange(size)] = rng.choice((True, False))
        return items
    if kind == 2:
        return {rng.choice(_STRINGS) + str(i): rng.choice(_STRINGS) for i in range(size)}
    if kind == 3:
        return tuple(_random_doc(rng, depth - 1) for _ in range(size))
    if kind == 4:
        return {rng.choice(_STRINGS) + str(i): _random_doc(rng, depth - 1) for i in range(size)}
    if kind == 5:  # keys json.dumps converts to str
        keys = (7, -0.5, True, None, "s")
        return {keys[i] if i < 5 else i: _random_doc(rng, depth - 1) for i in range(size)}
    if kind == 6:  # subclasses, which json.dumps encodes as their base
        return rng.choice((
            _List(rng.choice(_STRINGS) for _ in range(size)),
            [_Str(rng.choice(_STRINGS)) for _ in range(size)],
            [_Int(i) for i in range(size)],
            _Pair(_random_doc(rng, depth - 1), rng.choice(_STRINGS)),
            collections.OrderedDict((str(i), _random_doc(rng, depth - 1)) for i in range(size)),
        ))
    if kind == 7:  # a deep chain
        doc = _leaf(rng)
        for _ in range(rng.randrange(10, 40)):
            doc = rng.choice(([doc], (doc, 1), {"k": doc}, [doc, "s"]))
        return doc
    return [_random_doc(rng, depth - 1) for _ in range(size)]


def test_matches_json_dumps_on_random_documents():
    rng = random.Random(20261019)
    docs = [_random_doc(rng, rng.randrange(1, 6)) for _ in range(500)]
    for doc in docs:
        assert dump_json(doc) == json.dumps(doc, indent=2), doc
    # every fast path and fallback was taken somewhere
    text = "".join(map(dump_json, docs))
    for piece in ("[]", "{}", "NaN", "-Infinity", "-0.0", "1e+300", "true", "null",
                  "\\u00e9", "\\ud83d\\ude00", '\\"', "\\\\", "\\u0000", '"-0.5":'):
        assert piece in text, piece


def test_matches_json_dumps_on_every_catalog_document(tmp_path, monkeypatch, catalog):
    """Every document the CLI prints for the catalog instances, checked as
    the handlers built it (tuples, bools and None included), before it is
    encoded."""
    docs = []

    def spy(doc):
        docs.append(doc)
        return dump_json(doc)

    monkeypatch.setattr(cli, "dump_json", spy)
    codes = []

    def put(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    for key, p in sorted(catalog.items()):
        d = put(f"{key}.json", polyadic_to_doc(p))
        t = put(f"{key}t.json", polyadic_to_doc(tabulate(p)))
        names, n = p.names(), p.n
        f = "f(" + ",".join(("x1", "x2")[i % 2] for i in range(n)) + ")"
        eqs = put(f"{key}e.json", {"polyadic": d, "vars": 2,
                                   "equations": [f"{f} = f({','.join(['x2'] * n)})"]})
        one = put(f"{key}1.json", {"polyadic": t, "vars": 1,
                                   "equations": [f"f({','.join(['x1'] * n)}) = x1"]})
        argvs = [
            ["validate", "--polyadic", d], ["validate", "--polyadic", t],
            ["derive", "--polyadic", d], ["skew", "--polyadic", t],
            ["retract", "--polyadic", t, "--anchor", names[1]],
            ["hg", "--polyadic", t, "--anchor", names[0]],
            ["identity", "--polyadic", d], ["subgroups", "--polyadic", d],
            ["homs", d, t], ["postcover", "--polyadic", d],
            ["translate", "g2p", "--polyadic", d, "--anchor", names[0], "x1*x2 = 1"],
            ["translate", "p2g", "--polyadic", d, f"{f} = x1"],
            ["solve", "--system", eqs], ["coordgroup", "--system", eqs],
            ["minsys", "--system", eqs], ["thm63", "--system", eqs],
            ["closure", "--system", one], ["irreducible", "--system", one],
            ["retract", "--polyadic", d, "--anchor", "nowhere"],
        ]
        for argv in argvs:
            codes.append(cli.main(argv))
    pres = put("s3.json", {"generators": ["a", "b"], "relators": ["a^3", "b^2", "a*b*a*b"]})
    for argv in (["cosets", "--presentation", pres], ["freereduce", "x*y^-2*x'", "--n", "3"],
                 ["freereduce", "a  $"]):
        codes.append(cli.main(argv))
    assert len(docs) == len(codes) == 19 * len(catalog) + 3
    assert codes.count(0) > len(codes) * 0.8 and {1, 2} <= set(codes)
    for doc in docs:
        assert dump_json(doc) == json.dumps(doc, indent=2), doc


@pytest.mark.parametrize("doc", [[], {}, (), [[]], {"a": {}}, [True, 1], [1, True],
                                 ["a", 1], [1, "a"], {"a": "b", "c": 1}, {1: "a"}])
def test_matches_json_dumps_at_fast_path_borders(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2)


def test_matches_json_dumps_on_long_lists_of_repeated_names():
    """A table form's flat table and a homs document's image dicts: a few
    names, each quoted once per document and repeated many times."""
    rng = random.Random(27)
    names = ["e", "a\"b", "é", "\U0001f600", "x_1"]
    flat = [rng.choice(names) for _ in range(5000)]
    images = [{s: rng.choice(names) for s in names} for _ in range(300)]
    for doc in (flat, {"elements": names, "table": flat}, {"homs": images},
                [flat[:50], flat[50:100]], [images, flat]):
        assert dump_json(doc) == json.dumps(doc, indent=2)


def test_a_mixed_list_after_a_str_list_takes_the_fallback():
    """The quotes of the first list are reused by the second, whose int and
    nested list send it to the per-item path halfway through."""
    for doc in (
        [["a", "b"], ["b", 1, "a"]],
        [["a", "b"], ["a", ["b"], None]],
        {"x": ["a", "b"], "y": ["b", "a", 2.5], "z": {"a": "b"}},
        [["a"], ["a", True], ["a", ("b",)]],
    ):
        assert dump_json(doc) == json.dumps(doc, indent=2), doc


def test_str_subclass_items_quote_as_their_value():
    doc = [["a", _Str("a"), _Str("b")], [_Str("b"), "b"], {"k": [_Str("k"), "k"]}]
    assert dump_json(doc) == json.dumps(doc, indent=2)
