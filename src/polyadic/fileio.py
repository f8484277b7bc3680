"""JSON document formats for groups, polyadic groups, presentations,
and equation systems.

Group document: {"name": str?, "elements": [str], "table": [[str]]}
with table entries given by element name, rows indexed by the left
factor. Automorphism document: {"map": {str: str}} (the bare map object
is also accepted where an automorphism is expected).

Polyadic group document, derived form:
  {"group": <group doc>, "theta": <automorphism doc>, "b": str, "n": int}
and table form:
  {"elements": [str], "n": int, "table": [str]}
with the table flattened row-major over all n-tuples.

Presentation document: {"generators": [str], "relations": [[str, str]]}
where each relation is a pair of coefficient-free n-ary terms over the
generators. Its flattened image uses {"generators": [str],
"relators": [str]} with relators in the free-word syntax.

System document: {"polyadic": path, "vars": int, "equations": [str]}
with equations "lhs = rhs" in the term grammar; a "points" array of
name tuples may replace (or accompany) the equations for the verbs that
consume point sets, and an empty array is the empty set. The path is
resolved relative to the document's own directory unless a group is
supplied directly. n and vars are integral numbers or digit strings.
"""

import json
import os
from json.encoder import encode_basestring_ascii as _quote

from . import caps as _caps
from .core import DerivedPolyadicGroup, derive, polyadic_from_table
from .cover import GroupPresentation, PolyadicPresentation
from .errors import ParseError, PolyadicError
from .groups import automorphism, validate_group
from .terms import parse_equation, parse_term
from .words import parse_word


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", line=e.lineno, column=e.colno)


def dump_json(doc):
    """`json.dumps(doc, indent=2)`, byte for byte. With `indent` set, json
    encodes in Python generators; here each container is one join, each
    list of only str or only int and each str -> str dict one C-level
    pass, and everything else (floats, bools, None, subclasses, non-str
    keys) is `json.dumps` itself. Each distinct str is quoted once per
    document, through `_Quotes`."""
    return _dump(doc, "\n", _Quotes())


class _Quotes(dict):
    """str -> its JSON quoting, filled on first lookup; a key that is not
    a str raises TypeError from the quoting and is not stored."""

    def __missing__(self, s):
        q = self[s] = _quote(s)
        return q


def _dump(x, nl, quotes):
    t = type(x)
    if t is str:
        return quotes[x]
    inner = nl + "  "
    if t is list or t is tuple:
        if not x:
            return "[]"
        try:  # most lists in a document hold only str
            items = list(map(quotes.__getitem__, x))
        except TypeError:
            if set(map(type, x)) == {int}:
                items = map(int.__repr__, x)
            else:
                items = [_dump(v, inner, quotes) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if t is dict and set(map(type, x)) == {str}:
        keys = map(quotes.__getitem__, x)
        if set(map(type, x.values())) == {str}:
            items = map(": ".join, zip(keys, map(quotes.__getitem__, x.values())))
        else:
            items = [f"{k}: {_dump(v, inner, quotes)}" for k, v in zip(keys, x.values())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if isinstance(x, (list, tuple, dict)):
        # an empty dict, a subclass or non-str keys: indent=2 output has no
        # raw newline but those between lines, so it nests by re-indenting
        return json.dumps(x, indent=2).replace("\n", nl)
    return json.dumps(x)  # a scalar prints the same at any indent


def _object(doc, where):
    if not isinstance(doc, dict):
        raise PolyadicError(f"{where} document must be a JSON object")
    return doc


def _require(doc, field, where):
    if field not in _object(doc, where):
        raise PolyadicError(f"{where} document is missing the field {field!r}")
    return doc[field]


def _element(g, name):
    try:
        return g.index(name)
    except (KeyError, TypeError):
        raise PolyadicError(f"unknown element name {name!r}") from None


def _list(value, what):
    if not isinstance(value, list):
        raise PolyadicError(f"{what} must be a list, not {value!r}")
    return value


def _strings(value, what):
    for s in _list(value, what):
        if not isinstance(s, str):
            raise PolyadicError(f"{what} must hold strings, not {s!r}")
    return value


def _integer(value, what):
    """int(value), refusing booleans and fractions, which int() truncates."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise PolyadicError(f"{what} must be an integer, not {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise PolyadicError(f"{what} must be an integer, not {value!r}") from None


def _positions(names):
    """Element name -> index, for a list of distinct scalar names."""
    for s in _list(names, "elements"):
        if isinstance(s, (list, dict)):
            raise PolyadicError(f"element name {s!r} is not a scalar")
    pos = {s: i for i, s in enumerate(names)}
    if len(pos) != len(names):
        raise PolyadicError("duplicate element names")
    return pos


def _entry(pos, entry):
    if isinstance(entry, (list, dict)) or entry not in pos:
        raise PolyadicError(f"unknown element name {entry!r} in table")
    return pos[entry]


def _entries(pos, entries):
    """The indices of a list of table entries, in one C-level map; on a bad
    entry, the per-entry scan raises for the first one."""
    try:
        return list(map(pos.__getitem__, entries))
    except (KeyError, TypeError):
        return [_entry(pos, e) for e in entries]


def group_from_doc(doc, caps=_caps.DEFAULT):
    names = _require(doc, "elements", "group")
    rows = _list(_require(doc, "table", "group"), "table")
    pos = _positions(names)
    table = [_entries(pos, _list(row, "table row")) for row in rows]
    return validate_group(names, table, name=doc.get("name", "G"), caps=caps)


def group_to_doc(g):
    names = g.names()
    return {
        "name": g.group_name,
        "elements": names,
        "table": [list(map(names.__getitem__, row)) for row in g.table],
    }


def automorphism_map(doc):
    if isinstance(doc, dict) and set(doc.keys()) == {"map"}:
        doc = doc["map"]
    if not isinstance(doc, dict):
        raise PolyadicError("automorphism document must be a name-to-name map")
    return doc


def polyadic_from_doc(doc, n=None, caps=_caps.DEFAULT):
    """Build from either form; an explicit n argument overrides the
    document's arity."""
    if "group" in _object(doc, "polyadic"):
        g = group_from_doc(_require(doc, "group", "polyadic"), caps=caps)
        mapping = automorphism_map(_require(doc, "theta", "polyadic"))
        missing = [s for s in g.names() if s not in mapping]
        if missing:
            raise PolyadicError(f"theta map is missing {missing[0]!r}")
        for s in mapping:
            _element(g, s)
        theta = automorphism(g, [_element(g, mapping[s]) for s in g.names()])
        b = _element(g, _require(doc, "b", "polyadic"))
        arity = n if n is not None else doc.get("n")
        if arity is None:
            raise PolyadicError("no arity: the document has no n and none was given")
        return derive(g, theta, b, _integer(arity, "n"), caps=caps)
    if "table" in doc:
        names = _require(doc, "elements", "polyadic")
        arity = n if n is not None else doc.get("n")
        if arity is None:
            raise PolyadicError("no arity: the document has no n and none was given")
        pos = _positions(names)
        table = _list(_require(doc, "table", "polyadic"), "table")
        flat = _entries(pos, table)
        return polyadic_from_table(names, _integer(arity, "n"), flat, caps=caps)
    raise PolyadicError("polyadic document needs either a group or a table field")


def polyadic_to_doc(p):
    if isinstance(p, DerivedPolyadicGroup):
        g = p.base
        return {
            "group": group_to_doc(g),
            "theta": {"map": {g.name(i): g.name(p.theta(i)) for i in g.elements()}},
            "b": g.name(p.b),
            "n": p.n,
        }
    names = p.names()
    return {
        "elements": names,
        "n": p.n,
        "table": list(map(names.__getitem__, p.flat)),
    }


def _generators(doc, where):
    """The generator names of a presentation: distinct, and none of them
    "1", which the word grammar reads as the empty word."""
    gens = tuple(_strings(_require(doc, "generators", where), "generators"))
    if len(set(gens)) != len(gens):
        dup = next(s for i, s in enumerate(gens) if s in gens[:i])
        raise PolyadicError(f"duplicate generator name {dup!r}")
    if "1" in gens:
        raise PolyadicError('"1" is the empty word, not a generator name')
    return gens


def polyadic_presentation_from_doc(doc):
    gens = _generators(doc, "presentation")
    relations = []
    for pair in _list(_require(doc, "relations", "presentation"), "relations"):
        if len(_strings(pair, "relation")) != 2:
            raise PolyadicError("each relation must be a pair of terms")
        left = parse_term(pair[0], generators=gens)
        right = parse_term(pair[1], generators=gens)
        relations.append((left, right))
    return PolyadicPresentation(gens, tuple(relations))


def group_presentation_from_doc(doc):
    gens = _generators(doc, "group presentation")
    texts = _strings(_require(doc, "relators", "group presentation"), "relators")
    relators = tuple(parse_word(w) for w in texts)
    return GroupPresentation(gens, relators)


def group_presentation_to_doc(gp):
    return {
        "generators": list(gp.generators),
        "relators": [str(w) for w in gp.relators],
    }


def system_from_doc(doc, base_dir=".", p=None, n=None, caps=_caps.DEFAULT):
    """Resolve the group reference and parse equations and points.

    Returns (p, m, equations, points); equations are empty when the
    document omits them, and points are None when it has no points field
    (an empty one gives no points).
    """
    if p is None:
        ref = _require(doc, "polyadic", "system")
        if not isinstance(ref, str):
            raise PolyadicError(f"the polyadic field must be a file path, not {ref!r}")
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        p = polyadic_from_doc(load_json(path), n=n, caps=caps)
    m = _integer(_require(doc, "vars", "system"), "vars")
    if m < 0:
        raise PolyadicError("vars must be nonnegative")
    # every verb builds an m-entry list or |G|^m points
    _caps.check(caps, "variables", m, caps.max_tabulate)
    names = list(p.names())
    texts = _strings(doc.get("equations", []), "equations")
    equations = tuple(parse_equation(s, element_names=names) for s in texts)
    if "points" not in doc:
        return p, m, equations, None
    points = tuple(
        tuple(_element(p, nm) for nm in _list(pt, "point"))
        for pt in _list(doc["points"], "points")
    )
    for pt in points:
        if len(pt) != m:
            raise PolyadicError(f"point {pt} does not have {m} coordinates")
    return p, m, equations, points


def points_to_names(p, points):
    names = p.names()
    return [list(map(names.__getitem__, pt)) for pt in points]
