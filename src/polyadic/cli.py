"""Command line interface.

One verb per invocation; every verb maps to one library operation and
prints a single JSON document (or an indented plain-text rendering with
--format table) on standard output. Exit codes: 0 when the verb ran and
its answer is affirmative or neutral, 1 when the mathematical verdict
is negative (axiom violation found, derivation condition fails, no
epimorphism), 2 for unusable input (missing or malformed files, parse
errors, resource caps).
"""

import argparse
import functools
import os
import sys

from .core import (
    as_derived,
    check_arity,
    dornte_check,
    hosszu_gloskin,
    nary_identity,
    polyadic_homs,
    polyadic_subgroups,
    retract,
    verify_axioms,
)
from .cover import build_post_cover, coset_enumerate, presentation_to_group
from .errors import (
    ConditionOneFails,
    ConditionTwoFails,
    GroupValidationError,
    NoSolution,
    PolyadicError,
    PropertyFailure,
    ReconstructionMismatch,
)
from .fileio import (
    dump_json,
    group_from_doc,
    group_presentation_from_doc,
    group_presentation_to_doc,
    group_to_doc,
    load_json,
    points_to_names,
    polyadic_from_doc,
    polyadic_presentation_from_doc,
    polyadic_to_doc,
    system_from_doc,
)
from .geometry import (
    AlgebraicSet,
    EquationSystem,
    TermFunctions,
    closure,
    coordinate_group,
    minimal_subsystem,
    solve,
    theorem63_check,
)
from .terms import (
    group_term_to_string,
    group_to_polyadic_equation,
    parse_equation,
    parse_group_equation,
    polyadic_to_group_equation,
    term_to_string,
)
from .words import parse_word

@functools.cache
def _parser():
    """The parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="polyadic",
        description="compute with finite polyadic (n-ary) groups",
    )
    ap.add_argument("verb", choices=_HANDLERS)
    ap.add_argument(
        "rest",
        nargs="*",
        help="verb-specific positionals: translate DIRECTION EQUATION, "
        "freereduce WORD, homs TARGET_FILE",
    )
    ap.add_argument("--group", metavar="FILE")
    ap.add_argument("--polyadic", metavar="FILE")
    ap.add_argument("--system", metavar="FILE")
    ap.add_argument("--presentation", metavar="FILE")
    ap.add_argument("--n", type=int)
    ap.add_argument("--anchor", metavar="ELEM")
    ap.add_argument("--cap", type=int)
    ap.add_argument("--format", choices=("json", "table"), default="json")
    # parse_intermixed_args formats this same usage line on every call
    # when none is set
    ap.usage = ap.format_usage()[len("usage: "):]
    return ap


def _error_doc(e):
    doc = {"type": type(e).__name__, "message": str(e)}
    for k, v in vars(e).items():
        if isinstance(v, (bool, int, float, str, type(None))):
            doc[k] = v
        elif isinstance(v, (tuple, list)):
            doc[k] = list(v)
    return doc


def _need(value, flag):
    if value is None:
        raise PolyadicError(f"this verb needs {flag}")
    return value


def _load_polyadic(args):
    path = _need(args.polyadic, "--polyadic FILE")
    return polyadic_from_doc(load_json(path), n=args.n)


def _anchor_index(args, p):
    name = _need(args.anchor, "--anchor ELEM")
    try:
        return p.index(name)
    except KeyError:
        raise PolyadicError(f"unknown element name {name!r}") from None


def _load_system(args):
    path = _need(args.system, "--system FILE")
    doc = load_json(path)
    override = None
    if args.polyadic:
        override = polyadic_from_doc(load_json(args.polyadic), n=args.n)
    base_dir = os.path.dirname(os.path.abspath(path))
    return system_from_doc(doc, base_dir=base_dir, p=override, n=args.n)


def _point_set(args):
    """The working point set of a system document: its points field when
    present, even an empty one, otherwise the solution set of its
    equations; and the derived form of its group, recovered once."""
    p, m, eqs, pts = _load_system(args)
    p = as_derived(p)
    if pts is not None:
        return p, m, pts
    v = solve(p, EquationSystem(p, m, eqs))
    return p, m, v.points


def _cmd_validate(args):
    if args.group:
        try:
            g = group_from_doc(load_json(args.group))
        except GroupValidationError as e:
            return {"ok": False, "kind": "group", "error": _error_doc(e)}, 1
        return (
            {
                "ok": True,
                "kind": "group",
                "name": g.group_name,
                "order": g.order,
                "identity": g.name(g.identity),
            },
            0,
        )
    path = _need(args.polyadic, "--group FILE or --polyadic FILE")
    try:
        p = polyadic_from_doc(load_json(path), n=args.n)
    except (GroupValidationError, ConditionOneFails, ConditionTwoFails, NoSolution) as e:
        return {"ok": False, "kind": "polyadic", "error": _error_doc(e)}, 1
    rep = verify_axioms(p)
    dok, dwit = dornte_check(p)
    doc = {
        "ok": bool(rep.ok and dok),
        "kind": "polyadic",
        "order": p.order,
        "n": p.n,
        "associative": rep.associative,
        "solvable": rep.solvable,
        "unique": rep.unique,
        "dornte": dok,
    }
    if rep.associativity_witness is not None:
        doc["associativity_witness"] = list(rep.associativity_witness)
    if rep.uniqueness_witness is not None:
        doc["uniqueness_witness"] = list(rep.uniqueness_witness)
    if dwit is not None:
        doc["dornte_witness"] = list(dwit)
    return doc, 0 if doc["ok"] else 1


def _cmd_derive(args):
    path = _need(args.polyadic, "--polyadic FILE")
    raw = load_json(path)
    if not isinstance(raw, dict) or "group" not in raw:
        raise PolyadicError("derive needs the derived-form polyadic document")
    try:
        p = polyadic_from_doc(raw, n=args.n)
    except ConditionOneFails as e:
        names = raw["group"]["elements"]  # validated, in index order
        return (
            {
                "ok": False,
                "condition": 1,
                "b": names[e.b],
                "theta_of_b": names[e.image],
                "message": str(e),
            },
            1,
        )
    except ConditionTwoFails as e:
        names = raw["group"]["elements"]
        return (
            {
                "ok": False,
                "condition": 2,
                "x": names[e.x],
                "lhs": names[e.lhs],
                "rhs": names[e.rhs],
                "message": str(e),
            },
            1,
        )
    return {"ok": True, "order": p.order, "n": p.n, "polyadic": polyadic_to_doc(p)}, 0


def _cmd_skew(args):
    p = _load_polyadic(args)
    try:
        skew = {p.name(x): p.name(p.skew(x)) for x in p.elements()}
    except NoSolution as e:
        return {"ok": False, "error": _error_doc(e)}, 1
    return {"skew": skew}, 0


def _cmd_retract(args):
    p = _load_polyadic(args)
    a = _anchor_index(args, p)
    try:
        g = retract(p, a)
    except (GroupValidationError, NoSolution, ReconstructionMismatch) as e:
        return {"ok": False, "error": _error_doc(e)}, 1
    return {"anchor": p.name(a), "group": group_to_doc(g)}, 0


def _cmd_hg(args):
    p = _load_polyadic(args)
    a = _anchor_index(args, p)
    try:
        out = hosszu_gloskin(p, a)
    except (GroupValidationError, NoSolution, ReconstructionMismatch) as e:
        return {"ok": False, "error": _error_doc(e)}, 1
    return {"anchor": p.name(a), "polyadic": polyadic_to_doc(out)}, 0


def _cmd_identity(args):
    p = _load_polyadic(args)
    e = nary_identity(p)
    return {"identity": None if e is None else p.name(e)}, 0


def _cmd_subgroups(args):
    p = _load_polyadic(args)
    subs = polyadic_subgroups(p)
    return (
        {
            "count": len(subs),
            "subgroups": [[p.name(x) for x in sub] for sub in subs],
        },
        0,
    )


def _cmd_homs(args):
    paths = list(args.rest)
    if args.polyadic:
        paths = [args.polyadic] + paths
    if len(paths) != 2:
        raise PolyadicError("homs needs a source and a target polyadic file")
    p = polyadic_from_doc(load_json(paths[0]), n=args.n)
    q = polyadic_from_doc(load_json(paths[1]), n=args.n)
    hs = polyadic_homs(p, q)
    pnames, qnames = p.names(), q.names()
    out = [
        {
            "a": qnames[h.a],
            "images": dict(zip(pnames, map(qnames.__getitem__, h.images))),
        }
        for h in hs
    ]
    return {"count": len(hs), "homs": out}, 0


def _cmd_postcover(args):
    p = _load_polyadic(args)
    try:
        c = build_post_cover(p)
    except PropertyFailure as e:
        return {"ok": False, "error": _error_doc(e)}, 1
    return (
        {
            "order": c.order,
            "group": group_to_doc(c.group),
            "embed": {p.name(g): c.group.name(c.embed_index(g)) for g in p.elements()},
            "retract_subgroup": [c.group.name(x) for x in c.r_subgroup()],
        },
        0,
    )


def _cmd_present2group(args):
    path = _need(args.presentation, "--presentation FILE")
    n = _need(args.n, "--n INT")
    pres = polyadic_presentation_from_doc(load_json(path))
    gp = presentation_to_group(pres, n)
    return group_presentation_to_doc(gp), 0


def _cmd_cosets(args):
    path = _need(args.presentation, "--presentation FILE")
    doc = load_json(path)
    if isinstance(doc, dict) and "relators" in doc:
        gp = group_presentation_from_doc(doc)
    else:
        n = _need(args.n, "--n INT (to flatten an n-ary presentation)")
        gp = presentation_to_group(polyadic_presentation_from_doc(doc), n)
    g = coset_enumerate(gp) if args.cap is None else coset_enumerate(gp, cap=args.cap)
    return {"order": g.order, "group": group_to_doc(g)}, 0


def _cmd_freereduce(args):
    if len(args.rest) != 1:
        raise PolyadicError("freereduce needs one word argument")
    w = parse_word(args.rest[0])
    doc = {"word": str(w), "height": w.height, "length": len(w)}
    if args.n is not None:
        check_arity(args.n)
        doc["f_pol_member"] = (w.height - 1) % (args.n - 1) == 0
    return doc, 0


def _cmd_translate(args):
    if len(args.rest) != 2 or args.rest[0] not in ("g2p", "p2g"):
        raise PolyadicError("translate needs a direction (g2p or p2g) and an equation")
    direction, text = args.rest
    # read as the equation verbs read it: a table that is not an n-ary
    # group is refused by its recovery
    p = as_derived(_load_polyadic(args))
    if direction == "g2p":
        a = _anchor_index(args, p)
        left, right = parse_group_equation(text, list(p.names()))
        eq = group_to_polyadic_equation(left, right, a, p.n)
        rendered = f"{term_to_string(eq.left, p)} = {term_to_string(eq.right, p)}"
        return {"direction": "g2p", "anchor": p.name(a), "equation": rendered}, 0
    cover = build_post_cover(p)
    eq = parse_equation(text, element_names=list(p.names()))
    gl, gr = polyadic_to_group_equation(eq.left, eq.right, cover)
    rendered = (
        f"{group_term_to_string(gl, cover.group)}"
        f" = {group_term_to_string(gr, cover.group)}"
    )
    return {"direction": "p2g", "equation": rendered}, 0


def _cmd_solve(args):
    p, m, eqs, _ = _load_system(args)
    v = solve(p, EquationSystem(p, m, eqs))
    return (
        {"vars": m, "count": len(v.points), "points": points_to_names(p, v.points)},
        0,
    )


def _cmd_coordgroup(args):
    p, m, pts = _point_set(args)
    cg = coordinate_group(p, AlgebraicSet(m, tuple(pts)))
    return (
        {
            "order": cg.order,
            "vars": m,
            "points": points_to_names(p, pts),
            "elements": points_to_names(p, cg.elements),
            "projections": points_to_names(p, cg.projections),
            "polyadic": polyadic_to_doc(cg.as_polyadic()),
        },
        0,
    )


def _cmd_closure(args):
    p, m, pts = _point_set(args)
    c = closure(p, pts, m)
    return (
        {"vars": m, "count": len(c.points), "points": points_to_names(p, c.points)},
        0,
    )


def _cmd_irreducible(args):
    p, m, pts = _point_set(args)
    flag, witness = TermFunctions(p, m).irreducible(pts)
    doc = {"irreducible": flag}
    if witness is not None:
        doc["witness"] = [points_to_names(p, witness[0]), points_to_names(p, witness[1])]
    else:
        doc["witness"] = None
    return doc, 0


def _cmd_minsys(args):
    p, m, eqs, _ = _load_system(args)
    ms = minimal_subsystem(p, EquationSystem(p, m, eqs))
    rendered = [
        f"{term_to_string(eq.left, p)} = {term_to_string(eq.right, p)}"
        for eq in ms.equations
    ]
    return (
        {
            "count": len(ms.equations),
            "dropped": len(eqs) - len(ms.equations),
            "equations": rendered,
        },
        0,
    )


def _cmd_thm63(args):
    p, m, eqs, _ = _load_system(args)
    rep = theorem63_check(p, EquationSystem(p, m, eqs))
    doc = {
        "ok": rep.ok,
        "v_g_count": len(rep.v_g.points),
        "gamma_g_order": rep.gamma_g_order,
        "cover_order": rep.cover_order,
        "v_star_count": rep.v_star_count,
        "gamma_star_order": rep.gamma_star_order,
        "reason": rep.reason,
    }
    return doc, 0 if rep.ok else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "skew": _cmd_skew,
    "retract": _cmd_retract,
    "hg": _cmd_hg,
    "identity": _cmd_identity,
    "subgroups": _cmd_subgroups,
    "homs": _cmd_homs,
    "postcover": _cmd_postcover,
    "present2group": _cmd_present2group,
    "cosets": _cmd_cosets,
    "freereduce": _cmd_freereduce,
    "translate": _cmd_translate,
    "solve": _cmd_solve,
    "coordgroup": _cmd_coordgroup,
    "closure": _cmd_closure,
    "irreducible": _cmd_irreducible,
    "minsys": _cmd_minsys,
    "thm63": _cmd_thm63,
}


def _is_flat(v):
    return isinstance(v, (list, tuple)) and all(
        not isinstance(x, (list, tuple, dict)) for x in v
    )


def _scalar(v):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (list, tuple)):
        return " ".join(_scalar(x) for x in v)
    return str(v)


def _table_lines(value, depth=0):
    pad = "  " * depth
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, dict) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_table_lines(v, depth + 1))
            elif isinstance(v, (list, tuple)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_table_lines(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, (dict, list, tuple)) and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(_table_lines(v, depth + 1))
            else:
                lines.append(f"{pad}{_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _emit(doc, fmt):
    if fmt == "json":
        print(dump_json(doc))
    else:
        print("\n".join(_table_lines(doc)))


def main(argv=None):
    args = _parser().parse_intermixed_args(argv)
    try:
        doc, status = _HANDLERS[args.verb](args)
    except PolyadicError as e:
        doc, status = {"error": _error_doc(e)}, 2
    except OSError as e:
        doc, status = {"error": {"type": "IOError", "message": str(e)}}, 2
    try:
        _emit(doc, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
