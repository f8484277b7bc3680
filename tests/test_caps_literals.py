"""Every limit a `_caps.check` call in the package compares against is a
`Caps` field or is worked out from one, never a number written in place:
a caller's `Caps` must reach every check it passes. And every field is
read by some check: no knob is dead."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from polyadic.caps import Caps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyadic"
MODULES = sorted(PACKAGE.glob("*.py"))


def _check_calls(source):
    """The `_caps.check(...)` call nodes in source."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "_caps"
        ):
            yield node


def literal_limits(source):
    """The line numbers of the `_caps.check(caps, what, size, limit)` calls
    in source whose limit holds a numeric literal."""
    lines = []
    for node in _check_calls(source):
        limits = node.args[3:] + [k.value for k in node.keywords if k.arg == "limit"]
        if any(
            isinstance(c, ast.Constant) and type(c.value) in (int, float, complex)
            for limit in limits
            for c in ast.walk(limit)
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caps_limits_hold_no_literal(path):
    assert literal_limits(path.read_text(encoding="utf-8")) == []


def test_literal_limit_is_reported():
    source = (
        "_caps.check(caps, 'a', n, 2 ** 16)\n"
        "_caps.check(caps, 'b', n, caps.max_tabulate)\n"
        "_caps.check(caps, 'c', n, limit=caps.max_tabulate // 2)\n"
        "_caps.check(caps, 'd', 2 ** n, caps.max_tabulate.bit_length())\n"
        "check(caps, 'e', n, 7)\n"
    )
    assert literal_limits(source) == [1, 3]


def checked_fields(source):
    """The names read as `caps.<name>` inside `_caps.check` calls."""
    return {
        a.attr
        for node in _check_calls(source)
        for a in ast.walk(node)
        if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name) and a.value.id == "caps"
    }


def test_every_caps_field_is_checked():
    read = set().union(*(checked_fields(p.read_text(encoding="utf-8")) for p in MODULES))
    assert {f.name for f in fields(Caps)} <= read


def test_checked_fields_are_found():
    source = (
        "_caps.check(caps, 'a', n, caps.max_points)\n"
        "_caps.check(caps, 'b', caps.max_tabulate // 2, limit)\n"
        "limit = caps.max_axiom_tuples\n"
        "check(caps, 'c', n, caps.max_other)\n"
    )
    assert checked_fields(source) == {"max_points", "max_tabulate"}


@pytest.mark.parametrize("name", ["max_power_order", "max_closure_algebra", "max_irreducible_points"])
def test_deleted_fields_are_refused(name):
    with pytest.raises(TypeError):
        Caps(**{name: 1})
