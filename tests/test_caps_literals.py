"""Every limit a `_caps.check` call in the package compares against is a
`Caps` field or is worked out from one, never a number written in place:
a caller's `Caps` must reach every check it passes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyadic"
MODULES = sorted(PACKAGE.glob("*.py"))


def literal_limits(source):
    """The line numbers of the `_caps.check(caps, what, size, limit)` calls
    in source whose limit holds a numeric literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "_caps"
        ):
            continue
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
