"""`groups.picker` is the one kernel that composes table rows: it equals
the per-entry tuple for every number of indices, and no module of the
package composes a row through `tuple(map(<seq>.__getitem__, ...))`."""

import ast
from pathlib import Path

import pytest

from polyadic.groups import picker

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyadic"
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("idx", [(), (3,), (4, 0), (2, 2, 0, 5, 1, 4, 3)], ids=len)
@pytest.mark.parametrize("kind", [tuple, list])
def test_picker_matches_the_per_entry_tuple(idx, kind):
    seq = kind([10, 11, 12, 13, 14, 15])
    got = picker(kind(idx))(seq)
    assert type(got) is tuple
    assert got == tuple(seq[i] for i in idx)


def test_picker_keeps_its_indices():
    """The indices are read when the picker is made, as `itemgetter`
    reads them, so a list the caller extends later does not change it."""
    for idx in ([1], [0, 1]):
        pick = picker(idx)
        idx.append(2)
        assert pick("abc") == tuple("abc"[i] for i in idx[:-1])


def getitem_maps(source):
    """The line numbers of the `tuple(map(<expr>.__getitem__, ...))` calls
    in source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and node.args
            and isinstance(inner := node.args[0], ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "map"
            and inner.args
            and isinstance(inner.args[0], ast.Attribute)
            and inner.args[0].attr == "__getitem__"
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_rows_are_composed_by_the_picker(path):
    assert getitem_maps(path.read_text(encoding="utf-8")) == []


def test_getitem_map_is_reported():
    source = (
        "tuple(map(row.__getitem__, perm))\n"
        "picker(perm)(row)\n"
        "list(map(names.__getitem__, row))\n"
        "tuple(tuple(map(t[k].__getitem__, r)) for r in rows)\n"
        "tuple(map(itemgetter(1), rows))\n"
    )
    assert getitem_maps(source) == [1, 4]
