"""Seeded fixture documents and per-job oracles for the four workloads.

`build(workload, rng, workdir)` writes every input document a workload
needs into `workdir` and returns its jobs in their fixed run order. A
job is one CLI invocation with the exit code the README documents for
it and a check of its JSON output. The checks use only `algebra` (never
`polyadic`), run outside the timed region, and return None when the
output is right or a one-line reason when it is not.

The seed chooses element orderings, automorphisms and constants,
corrupted positions, generator names, words and equations. It never
chooses sizes: every workload runs the same orders, arities and grid
sizes under every seed, so run-to-run spread measures the host rather
than the instance draw.

Why each workload and family (all stay inside the CLI's default caps,
apart from the one deliberate `--cap` hit in `present`):

structure -- the success path of `core` and `groups`. Valid n-ary
    groups over Z3, Z5, K4, S3, S3xZ2 and S4 with arity 3-5, nontrivial
    theta and b where the base allows them, in derived and table form.
    `validate` runs the |G|^(2n-1) associativity scan, which is where a
    reconstruction fast path has to show; sizes span 1e4 to 3e5 tuples
    so the scan's growth can be fitted. S4 stays out of `validate`
    (8e6 tuples) and `subgroups` (seconds in the lattice completion):
    it exercises `hg`, `homs` and `postcover` at order 24.
refute -- the same verbs where the documented verdict is negative, so a
    fast path that wins on `structure` pays for its fallback here.
    Monoid products u*x1*...*xn mod k and left-zero operations are
    associative but not solvable, forcing a full scan; corrupted tables
    (two entries swapped away from every line `hg` and the skew use)
    fail within the first |G|^n tuples; theta/b pairs break a derivation
    condition; intercalate-swapped cyclic tables are Latin loops that are
    not associative; malformed documents include the four inputs that
    raise a traceback at the seed commit. Witnesses are recomputed here
    and must be the lexicographically least ones.
present -- `cover` and `words` with no `core` work: dihedral
    presentations of order 100-250 (order 300 already takes 4 s and 600
    takes 30 s), abelian ones, an n-ary presentation flattened by
    `present2group` and enumerated by `cosets --n`, one `--cap` hit on
    the free abelian group of rank 2, and `freereduce` on long words.
equations -- `geometry` and `terms`: `solve` on grids of 2e4-8e4
    points beside closure construction (`coordgroup` on two points of
    Z3, Z5 and S3; `closure`; `irreducible`), plus `minsys`, `thm63` and
    `translate`. Grids of 2e5 and more, S3 closures and S3 `thm63` take
    a second or more each and are left out to keep a pass near 5 s. Systems are
    triangular -- each equation holds one pivot variable exactly once --
    so the solution count is known in advance, |G|^(m - equations).
"""

import functools
import json
import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Callable

from . import algebra as A

WORKLOADS = ("structure", "refute", "present", "equations")


@dataclass
class Job:
    name: str
    argv: list
    expect: object    # the documented exit code, or a tuple of allowed ones
    check: Callable   # doc -> None or a reason
    defect: str = None  # how the seed commit fails it: "raises" or "exit N"


class Dir:
    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name, doc):
        return self.put_text(name, json.dumps(doc))

    def put_text(self, name, text):
        path = os.path.join(self.root, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _bases():
    z2 = A.cyclic(2)
    return {
        "Z3": A.cyclic(3),
        "Z5": A.cyclic(5),
        "K4": A.direct(z2, z2, "K4"),
        "S3": A.symmetric(3),
        "S3xZ2": A.direct(A.symmetric(3), z2),
        "S4": A.symmetric(4),
    }


def _instance(rng, base, n):
    """A derived n-ary group over base with seeded (theta, b) and element
    order. The pairs are enumerated on the unshuffled base, whose
    generating set, and so the enumeration cost, is the same every seed."""
    theta, b = rng.choice(A.derivation_pairs(base, n))
    g, theta, b = base.relabel(rng, theta, b)
    return g, theta, b, A.derived_op(g, theta, b, n)


def build(workload, rng, workdir):
    return {
        "structure": _structure,
        "refute": _refute,
        "present": _present,
        "equations": _equations,
    }[workload](rng, Dir(workdir))


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _expect_equal(want):
    def check(doc):
        return None if doc == want else f"expected {want}, got {_clip(doc)}"
    return check


def _clip(doc):
    text = json.dumps(doc)
    return text if len(text) < 200 else text[:200] + "..."


def _error_check(types=None, **fields):
    """Exit-2 document: {"error": {"type", "message", ...}}."""
    def check(doc):
        err = doc.get("error") if isinstance(doc, dict) else None
        if not isinstance(err, dict) or not isinstance(err.get("message"), str):
            return f"no error document: {_clip(doc)}"
        if types is not None and err.get("type") not in types:
            return f"error type {err.get('type')!r}, wanted one of {types}"
        for k, v in fields.items():
            if err.get(k) != v:
                return f"error field {k}={err.get(k)!r}, wanted {v!r}"
        return None
    return check


def _idx(names, value):
    pos = {s: i for i, s in enumerate(names)}
    return [pos[s] for s in value]


# ---------------------------------------------------------------------------
# structure


def _structure(rng, d):
    bases = _bases()
    plan = [
        ("K4", 4, ("derived", "table")),
        ("Z3", 5, ("derived",)),
        ("S3", 3, ("table",)),
        ("Z5", 4, ("derived", "table")),
        ("S3", 4, ("derived",)),
        ("S3xZ2", 3, ("table",)),
        ("S4", 3, ("derived",)),
    ]
    jobs = []
    for label, n, forms in plan:
        g, theta, b, op = _instance(rng, bases[label], n)
        tag = f"{label}n{n}"
        files = {}
        if "derived" in forms:
            files["derived"] = d.put(f"{tag}-derived", A.derived_doc(g, theta, b, n))
        if "table" in forms:
            files["table"] = d.put(f"{tag}-table", op.table_doc())
        first = files[forms[0]]
        names = g.names
        if label != "S4":
            for form in forms:
                want = {"ok": True, "kind": "polyadic", "order": g.k, "n": n,
                        "associative": True, "solvable": True, "unique": True,
                        "dornte": True}
                jobs.append(Job(f"validate {tag} {form}",
                                ["validate", "--polyadic", files[form]], 0,
                                _expect_equal(want)))
        if "derived" in forms:
            want = {"ok": True, "order": g.k, "n": n,
                    "polyadic": A.derived_doc(g, theta, b, n)}
            jobs.append(Job(f"derive {tag}", ["derive", "--polyadic", files["derived"]],
                            0, _expect_equal(want)))
        for form in forms:
            a = rng.randrange(g.k)
            jobs.append(Job(f"hg {tag} {form}",
                            ["hg", "--polyadic", files[form], "--anchor", names[a]], 0,
                            _hg_check(op, a)))
        a = rng.randrange(g.k)
        jobs.append(Job(f"retract {tag}",
                        ["retract", "--polyadic", first, "--anchor", names[a]], 0,
                        _retract_check(op, a)))
        jobs.append(Job(f"skew {tag}", ["skew", "--polyadic", first], 0,
                        _expect_equal({"skew": {names[x]: names[op.skew(x)]
                                                for x in range(g.k)}})))
        e = A.nary_identity(op)
        jobs.append(Job(f"identity {tag}", ["identity", "--polyadic", first], 0,
                        _expect_equal({"identity": None if e is None else names[e]})))
        if label != "S4":
            jobs.append(Job(f"subgroups {tag}", ["subgroups", "--polyadic", first], 0,
                            _subgroups_check(op)))
        jobs.append(Job(f"homs {tag}", ["homs", first, files[forms[-1]]], 0,
                        _homs_check(op)))
        jobs.append(Job(f"postcover {tag}", ["postcover", "--polyadic", first], 0,
                        _postcover_check(op)))
    return jobs


def _hg_check(op, a):
    names = op.names

    def check(doc):
        if doc.get("anchor") != names[a]:
            return f"anchor {doc.get('anchor')!r}"
        pd = doc["polyadic"]
        gd = pd["group"]
        pos = {s: i for i, s in enumerate(names)}
        order = [pos[s] for s in gd["elements"]]
        table = [[None] * op.k for _ in range(op.k)]
        for i, row in enumerate(gd["table"]):
            for j, v in enumerate(row):
                table[order[i]][order[j]] = pos[v]
        mid = [a] * (op.n - 2)
        for x in range(op.k):
            for y in range(op.k):
                if table[x][y] != op.f([x] + mid + [y]):
                    return f"group is not the retract at {names[a]}"
        theta = [None] * op.k
        for s, t in pd["theta"]["map"].items():
            theta[pos[s]] = pos[t]
        b = pos[pd["b"]]
        pows = [list(range(op.k))]
        for _ in range(op.n - 1):
            pows.append([theta[x] for x in pows[-1]])
        for idx, args in enumerate(product(range(op.k), repeat=op.n)):
            acc = args[0]
            for i in range(1, op.n):
                acc = table[acc][pows[i][args[i]]]
            if table[acc][b] != op.flat[idx]:
                return f"recovered data does not rebuild f at {args}"
        return None
    return check


def _retract_check(op, a):
    names = op.names
    mid = [a] * (op.n - 2)
    want = [[names[op.f([x] + mid + [y])] for y in range(op.k)] for x in range(op.k)]

    def check(doc):
        if doc.get("anchor") != names[a]:
            return f"anchor {doc.get('anchor')!r}"
        g = doc["group"]
        if g["elements"] != names or g["table"] != want:
            return "retract table differs from f(x, a, ..., a, y)"
        return None
    return check


def _subgroups_check(op):
    def check(doc):
        exact = A.closed_subsets(op) if op.k <= 8 else None
        subs = [tuple(sorted(_idx(op.names, s))) for s in doc["subgroups"]]
        if doc["count"] != len(subs) or len(set(subs)) != len(subs):
            return "count or duplicate carriers"
        if subs != sorted(subs, key=lambda s: (len(s), s)):
            return "carriers not in (size, elements) order"
        if exact is not None:
            return None if subs == exact else f"carriers differ from brute force ({len(exact)})"
        if tuple(range(op.k)) not in subs:
            return "whole carrier missing"
        bad = [s for s in subs if not A.is_closed(op, s)]
        return f"carrier {bad[0]} not closed" if bad else None
    return check


def _homs_check(op):
    def check(doc):
        exact = None
        if op.k <= 6:
            tuples = list(product(range(op.k), repeat=op.n))
            exact = sum(
                all(m[op.f(t)] == op.f([m[x] for x in t]) for t in tuples)
                for m in product(range(op.k), repeat=op.k)
            )
        maps = []
        for h in doc["homs"]:
            imgs = h["images"]
            maps.append(tuple(_idx(op.names, [imgs[s] for s in op.names])))
        if doc["count"] != len(maps) or len(set(maps)) != len(maps):
            return "count or duplicate maps"
        if maps != sorted(maps):
            return "maps not sorted by image array"
        if exact is not None and len(maps) != exact:
            return f"{len(maps)} maps, brute force finds {exact}"
        for m in maps:
            for t in product(range(op.k), repeat=op.n):
                if m[op.f(t)] != op.f([m[x] for x in t]):
                    return f"map {m} does not preserve f at {t}"
        return None
    return check


def _postcover_check(op):
    def check(doc):
        g = doc["group"]
        cn = g["elements"]
        m = (op.n - 1) * op.k
        if doc["order"] != m or len(cn) != m:
            return f"cover order {doc['order']}, wanted {m}"
        pos = {s: i for i, s in enumerate(cn)}
        table = [[pos[v] for v in row] for row in g["table"]]
        emb = [pos[doc["embed"][s]] for s in op.names]
        if not A.is_group_table(table, gens=emb):
            return "cover table is not a group generated by the embedded coset"
        for t in product(range(op.k), repeat=op.n):
            acc = emb[t[0]]
            for x in t[1:]:
                acc = table[acc][emb[x]]
            if acc != emb[op.f(t)]:
                return f"product of embeddings differs from f at {t}"
        r = [pos[s] for s in doc["retract_subgroup"]]
        rs = set(r)
        if len(rs) != op.k or any(table[x][y] not in rs for x in r for y in r):
            return "retract subgroup is not a subgroup of order |G|"
        return None
    return check


# ---------------------------------------------------------------------------
# refute


def _refute(rng, d):
    bases = _bases()
    jobs = []

    # Associative, not solvable: the full scan runs before the verdict.
    # The README documents exit 1 with ok: false for these; the seed
    # commit exits 2 with NoSolution (`dornte_check` runs outside the
    # handler's `try`), a pinned defect.
    for kind, k, n in (("monoid", 5, 4), ("monoid", 6, 4), ("leftzero", 4, 4)):
        names = [str(i) for i in range(k)]
        rng.shuffle(names)
        if kind == "monoid":
            u = rng.choice([x for x in range(1, k) if math.gcd(x, k) == 1])
            flat = []
            for args in product(range(k), repeat=n):
                v = u
                for x in args:
                    v = v * int(names[x]) % k
                flat.append(names.index(str(v)))
        else:
            flat = [args[0] for args in product(range(k), repeat=n)]
        op = A.NaryOp(names, n, flat)
        path = d.put(f"{kind}{k}n{n}", op.table_doc())
        jobs.append(Job(f"validate {kind}{k} n{n}", ["validate", "--polyadic", path], 1,
                        _not_solvable_check(op), defect="exit 2"))

    # Two swapped entries, away from the skew, Dornte and anchor lines.
    for label, n in (("Z5", 3), ("S3", 3), ("K4", 4)):
        g, theta, b, op = _instance(rng, bases[label], n)
        a = rng.randrange(g.k)
        bad, i, j = _swapped(rng, op, a)
        path = d.put(f"swap-{label}n{n}", bad.table_doc())
        want = {"ok": False, "kind": "polyadic", "order": g.k, "n": n}
        aw = A.assoc_witness(bad)
        sw = A.solvability_witnesses(bad)
        want["associative"] = aw is None
        want["solvable"] = not (sw and sw[0] == "solvable")
        want["unique"] = not (sw and sw[0] == "unique")
        want["dornte"] = A.dornte_ok(bad)
        if aw is not None:
            want["associativity_witness"] = aw
        if sw is not None:
            want[("solvability_witness", "uniqueness_witness")[sw[0] == "unique"]] = sw[1]
        jobs.append(Job(f"validate swap {label}n{n}", ["validate", "--polyadic", path], 1,
                        _expect_equal(want)))
        jobs.append(Job(f"hg swap {label}n{n}",
                        ["hg", "--polyadic", path, "--anchor", g.names[a]], 1,
                        _mismatch_check(bad.flat[i], op.flat[i])))

    # Derivation conditions: theta(b) != b, or theta^(n-1) is not
    # conjugation by b.
    for label, n, cond in (("Z5", 4, 2), ("K4", 3, 2), ("S3", 3, 1)):
        base = bases[label]
        pairs = []
        for t in A.automorphisms(base):
            tn = A.iterate(t, n - 1)
            pairs += [(t, b) for b in range(base.k)
                      if (t[b] != b if cond == 1 else
                          t[b] == b and tn != [base.mul(base.mul(b, x), base.inv[b])
                                               for x in range(base.k)])]
        g, theta, b = base.relabel(rng, *rng.choice(pairs))
        path = d.put(f"cond-{label}n{n}", A.derived_doc(g, theta, b, n))
        jobs.append(Job(f"derive cond{cond} {label}n{n}", ["derive", "--polyadic", path], 1,
                        _condition_check(g, theta, b, n)))
        ctype = ("ConditionOneFails", "ConditionTwoFails")[cond - 1]
        jobs.append(Job(f"validate cond{cond} {label}n{n}", ["validate", "--polyadic", path], 1,
                        _group_error_check("polyadic", ctype)))

    # Latin loops that are not groups, and a square that is not Latin.
    for k in (6, 10, 12):
        table, triple = _loop(rng, k)
        names = [str(i) for i in range(k)]
        path = d.put(f"loop{k}", {"name": f"L{k}", "elements": names,
                                  "table": [[names[v] for v in row] for row in table]})
        jobs.append(Job(f"validate loop{k}", ["validate", "--group", path], 1,
                        _group_error_check("group", "NotAssociative", triple=triple)))
    g = bases["S3xZ2"].relabel(rng)
    doc = g.doc()
    r, c = rng.randrange(g.k), rng.randrange(g.k)
    doc["table"][r][c] = doc["table"][r][(c + 1) % g.k]
    path = d.put("notlatin", doc)
    jobs.append(Job("validate notlatin", ["validate", "--group", path], 1,
                    _group_error_check("group", "NotLatinSquare", kind="row", index=r)))

    # Malformed documents: exit 2 with an error document. The first four
    # raise a traceback at the seed commit.
    g, theta, b, op = _instance(rng, bases["S3"], 3)
    good = A.derived_doc(g, theta, b, 3)
    good_path = d.put("good-S3n3", good)
    bad = dict(good, n="three")
    jobs.append(Job("malformed n-string", ["validate", "--polyadic", d.put("m-nstr", bad)],
                    2, _error_check(), defect="raises"))
    tdoc = op.table_doc()
    at = rng.randrange(len(tdoc["table"]))
    tdoc["table"][at] = [tdoc["table"][at], tdoc["table"][at]]
    jobs.append(Job("malformed nested-table", ["skew", "--polyadic", d.put("m-nested", tdoc)],
                    2, _error_check(), defect="raises"))
    sysdoc = {"polyadic": os.path.basename(good_path), "vars": "x",
              "equations": ["f(x1, x1, x1) = x1"]}
    jobs.append(Job("malformed vars-string", ["solve", "--system", d.put("m-vars", sysdoc)],
                    2, _error_check(), defect="raises"))
    deep = {"polyadic": os.path.basename(good_path), "vars": 1,
            "equations": ["~" * 3000 + "x1 = x1"]}
    jobs.append(Job("malformed deep-skew", ["solve", "--system", d.put("m-deep", deep)],
                    2, _error_check(), defect="raises"))
    text = json.dumps(good, indent=1)
    cut = rng.randrange(len(text) // 4, len(text) - 1)
    line, col = _json_error_at(text[:cut])
    jobs.append(Job("malformed truncated", ["derive", "--polyadic", d.put_text("m-trunc", text[:cut])],
                    2, _error_check(("ParseError",), line=line, column=col)))
    nob = {k: v for k, v in good.items() if k != "b"}
    jobs.append(Job("malformed missing-b", ["derive", "--polyadic", d.put("m-nob", nob)],
                    2, _error_check(("PolyadicError",))))
    gdoc = g.doc()
    gdoc["table"][rng.randrange(g.k)][rng.randrange(g.k)] = "zz"
    jobs.append(Job("malformed unknown-name", ["validate", "--group", d.put("m-name", gdoc)],
                    2, _error_check(("PolyadicError",))))
    tdoc = op.table_doc()
    tdoc["table"].pop(rng.randrange(len(tdoc["table"])))
    jobs.append(Job("malformed table-size", ["skew", "--polyadic", d.put("m-size", tdoc)],
                    2, _error_check(("PolyadicError",))))
    jobs.append(Job("malformed no-file", ["retract", "--anchor", g.names[0]], 2,
                    _error_check(("PolyadicError",))))
    return jobs


def _not_solvable_check(op):
    kind, witness = A.solvability_witnesses(op)

    def check(doc):
        for key, want in (("ok", False), ("kind", "polyadic"), ("order", op.k),
                          ("n", op.n), ("associative", True)):
            if doc.get(key) != want:
                return f"{key}={doc.get(key)!r}, wanted {want!r}"
        if "associativity_witness" in doc:
            return "associativity witness on an associative operation"
        wkey = "uniqueness_witness" if kind == "unique" else "solvability_witness"
        if doc.get(kind) is not False or doc.get(wkey) != witness:
            return f"{wkey}={doc.get(wkey)!r}, wanted {witness!r}"
        return None
    return check


def _swapped(rng, op, a):
    """Copy of op with two entries swapped outside every line that skew,
    the Dornte identities and reconstruction at anchor a read; returns
    (table, lower index, higher index)."""
    n, k = op.n, op.k
    keep = set()
    skews = [op.skew(x) for x in range(k)]
    sa = skews[a]
    for x in range(k):
        sx = skews[x]
        keep.add(op.index_of([sa, x] + [a] * (n - 2)))
        keep.add(op.index_of([sa] + [x] * (n - 3) + [sx, sa]))
        for y in range(k):
            keep.add(op.index_of([x] * (n - 1) + [y]))
            keep.add(op.index_of([x] + [a] * (n - 2) + [y]))
            for i in range(2, n + 1):
                keep.add(op.index_of([x] * (i - 2) + [sx] + [x] * (n - i) + [y]))
                keep.add(op.index_of([y] + [x] * (n - i) + [sx] + [x] * (i - 2)))
    keep.add(op.index_of([sa] * n))
    free = [i for i in range(len(op.flat)) if i not in keep]
    while True:
        i, j = sorted(rng.sample(free, 2))
        if op.flat[i] != op.flat[j]:
            break
    flat = list(op.flat)
    flat[i], flat[j] = flat[j], flat[i]
    return A.NaryOp(op.names, n, flat), i, j


def _mismatch_check(expected, got):
    def check(doc):
        err = doc.get("error", {})
        if doc.get("ok") is not False or err.get("type") != "ReconstructionMismatch":
            return f"wanted ReconstructionMismatch, got {_clip(doc)}"
        if err.get("expected") != expected or err.get("got") != got:
            return f"mismatch {err.get('expected')}/{err.get('got')}, wanted {expected}/{got}"
        return None
    return check


def _condition_check(g, theta, b, n):
    nm = g.names
    if theta[b] != b:
        want = {"ok": False, "condition": 1, "b": nm[b], "theta_of_b": nm[theta[b]]}
    else:
        tn = A.iterate(theta, n - 1)
        x = next(x for x in range(g.k) if tn[x] != g.mul(g.mul(b, x), g.inv[b]))
        want = {"ok": False, "condition": 2, "x": nm[x], "lhs": nm[tn[x]],
                "rhs": nm[g.mul(g.mul(b, x), g.inv[b])]}

    def check(doc):
        got = {k: v for k, v in doc.items() if k != "message"}
        return None if got == want else f"expected {want}, got {_clip(doc)}"
    return check


def _group_error_check(doc_kind, etype, **fields):
    inner = _error_check((etype,), **fields)

    def check(doc):
        if doc.get("ok") is not False or doc.get("kind") != doc_kind:
            return f"wanted ok: false for a {doc_kind}, got {_clip(doc)}"
        return inner(doc)
    return check


def _loop(rng, k):
    """Z_k with one intercalate swapped, redrawn until it is Latin with
    identity 0 and two-sided inverses but not associative -- so the first
    axiom `validate --group` finds broken is associativity. Returns
    (table, first failing triple)."""
    h = k // 2
    while True:
        i, j = rng.randrange(1, h), rng.randrange(1, h)
        t = [[(x + y) % k for y in range(k)] for x in range(k)]
        for r, c in ((i, j), (i, j + h), (i + h, j), (i + h, j + h)):
            t[r][c] = (t[r][c] + h) % k
        if any(not any(t[x][y] == 0 == t[y][x] for y in range(k)) for x in range(k)):
            continue
        for a, b, c in product(range(k), repeat=3):
            if t[t[a][b]][c] != t[a][t[b][c]]:
                return t, [a, b, c]


def _json_error_at(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return e.lineno, e.colno
    raise ValueError("truncated document still parses")


# ---------------------------------------------------------------------------
# present


def _present(rng, d):
    pool = ["r", "s", "t", "u", "a", "b", "p", "q", "g", "h"]
    jobs = []
    for m in (50, 75, 100, 125):
        r, s = rng.sample(pool, 2)
        path = d.put(f"dihedral{2 * m}", {"generators": [r, s],
                                          "relators": [f"{r}^{m}", f"{s}^2", f"{s} {r} {s} {r}"]})
        jobs.append(Job(f"cosets dihedral{2 * m}", ["cosets", "--presentation", path], 0,
                        _cosets_check(2 * m, abelian=False, max_order=m)))
    for a, b in (rng.choice([(6, 8), (8, 6), (4, 12), (12, 4)]),
                 rng.choice([(5, 9), (9, 5), (3, 15), (15, 3)])):
        x, y = rng.sample(pool, 2)
        path = d.put(f"abelian{a}x{b}", {"generators": [x, y],
                                         "relators": [f"{x}^{a}", f"{y}^{b}", f"{x} {y} {x}' {y}'"]})
        jobs.append(Job(f"cosets abelian{a}x{b}", ["cosets", "--presentation", path], 0,
                        _cosets_check(a * b, abelian=True, max_order=a * b // math.gcd(a, b))))

    # n-ary presentation whose cover is dihedral of order 4k: x^(2k),
    # y^2 and (yx)^2 once flattened.
    k = 25
    x, y = rng.sample(pool, 2)
    rels = [(_power_term(rng, 2 * k + 1), ("v", 0)),
            (("f", (("v", 1),) * 3), ("v", 1)),
            (("f", (("v", 1), ("v", 0), ("v", 1))), ("s", ("v", 0)))]
    path = _put_presentation(d, "nary3", [x, y], rels)
    jobs.append(Job("present2group nary3", ["present2group", "--presentation", path, "--n", "3"],
                    0, _flatten_check([x, y], rels, 3)))
    jobs.append(Job("cosets nary3", ["cosets", "--presentation", path, "--n", "3"], 0,
                    _cosets_check(4 * k, abelian=False, max_order=2 * k)))
    gens = rng.sample(pool, 3)
    rels = [(_random_term(rng, 4, 3, 3, []), _random_term(rng, 4, 3, 2, [])) for _ in range(3)]
    path = _put_presentation(d, "nary4", gens, rels)
    jobs.append(Job("present2group nary4", ["present2group", "--presentation", path, "--n", "4"],
                    0, _flatten_check(gens, rels, 4)))

    x, y = rng.sample(pool, 2)
    path = d.put("freeabelian", {"generators": [x, y], "relators": [f"{x} {y} {x}' {y}'"]})
    jobs.append(Job("cosets cap", ["cosets", "--presentation", path, "--cap", "400"], 2,
                    _error_check(("CapExceeded",), cap=400)))

    for length, n in ((2000, 3), (8000, 4), (30000, 5)):
        text, letters = _random_word(rng, length, rng.sample(pool, 3))
        jobs.append(Job(f"freereduce {length}", ["freereduce", text, "--n", str(n)], 0,
                        _freereduce_check(letters, n)))
    return jobs


def _put_presentation(d, name, gens, rels):
    return d.put(name, {"generators": gens,
                        "relations": [[A.term_str(u, (), gens), A.term_str(v, (), gens)]
                                      for u, v in rels]})


def _power_term(rng, h):
    """A ternary term over generator 0 whose word is x^h (h odd), nested
    at seeded positions."""
    t = ("v", 0)
    for _ in range((h - 1) // 2):
        kids = [("v", 0), ("v", 0)]
        kids.insert(rng.randrange(3), t)
        t = ("f", tuple(kids))
    return t


def _random_term(rng, n, nvars, depth, consts):
    if depth == 0 or rng.random() < 0.2:
        if consts and rng.random() < 0.3:
            return ("c", rng.choice(consts))
        return ("v", rng.randrange(nvars))
    if rng.random() < 0.25:
        return ("s", _random_term(rng, n, nvars, depth - 1, consts))
    return ("f", tuple(_random_term(rng, n, nvars, depth - 1, consts) for _ in range(n)))


def _word(t, n):
    tag = t[0]
    if tag == "v":
        return [(t[1], 1)]
    if tag == "s":
        inner = _word(t[1], n)
        inv = [(g, -s) for g, s in reversed(inner)]
        return inv * (n - 2)
    out = []
    for c in t[1]:
        out.extend(_word(c, n))
    return out


def _flatten_check(gens, rels, n):
    want = []
    for u, v in rels:
        wv = _word(v, n)
        r = A.reduce_letters(_word(u, n) + [(g, -s) for g, s in reversed(wv)])
        if r:
            want.append(A.word_str([(gens[g], s) for g, s in r]))
    return _expect_equal({"generators": list(gens), "relators": want})


def _cosets_check(order, abelian, max_order):
    def check(doc):
        g = doc["group"]
        if doc["order"] != order or len(g["elements"]) != order:
            return f"order {doc['order']}, wanted {order}"
        pos = {s: i for i, s in enumerate(g["elements"])}
        table = [[pos[v] for v in row] for row in g["table"]]
        if not A.is_group_table(table, gens=list(range(1, min(order, 5)))):
            return "enumerated table is not a group"
        commutes = all(table[x][y] == table[y][x] for x in range(order) for y in range(order))
        if commutes != abelian:
            return "abelian" if commutes else "not abelian"
        top = 0
        for x in range(order):
            acc, ordx = x, 1
            while acc != 0:
                acc, ordx = table[acc][x], ordx + 1
            top = max(top, ordx)
        return None if top == max_order else f"largest element order {top}, wanted {max_order}"
    return check


def _random_word(rng, length, gens):
    """Word text with planted cancellations, and its letter list."""
    letters = []
    while len(letters) < length:
        if letters and rng.random() < 0.3:
            w = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(1, 6))]
            letters.extend(w + [(g, -s) for g, s in reversed(w)])
        else:
            letters.append((rng.choice(gens), rng.choice((1, -1))))
    parts = []
    i = 0
    while i < len(letters):
        g, s = letters[i]
        j = i
        while j < len(letters) and letters[j] == (g, s) and j - i < 4:
            j += 1
        run = j - i
        if run > 1:
            parts.append(f"{g}^{s * run}")
        else:
            parts.append(g if s > 0 else g + "'")
        i = j
    return rng.choice((" ", "*", " * ")).join(parts), letters


def _freereduce_check(letters, n):
    red = A.reduce_letters(letters)
    height = sum(s for _, s in letters)
    return _expect_equal({"word": A.word_str(red), "height": height, "length": len(red),
                          "f_pol_member": (height - 1) % (n - 1) == 0})


# ---------------------------------------------------------------------------
# equations


def _triangular(rng, op, m, e, depth, consts=True):
    """Equations whose pivots each occur once, on the left of their own
    equation; every other variable is free. Each left side wraps its
    pivot in `depth` applications of f, with one skew after the first, and
    each right side is f of free atoms, so the evaluation cost per point
    is the same under every seed. Returns term pairs."""
    pivots = rng.sample(range(m), e)
    free = [v for v in range(m) if v not in pivots]
    cs = list(range(op.k)) if consts else []

    def free_atom():
        if cs and (not free or rng.random() < 0.3):
            return ("c", rng.choice(cs))
        return ("v", rng.choice(free))

    eqs = []
    for p in pivots:
        t = ("v", p)
        for level in range(depth):
            kids = [free_atom() for _ in range(op.n - 1)]
            kids.insert(rng.randrange(op.n), t)
            t = ("f", tuple(kids))
            if level == 0:
                t = ("s", t)
        eqs.append((t, ("f", tuple(free_atom() for _ in range(op.n)))))
    return eqs


def _system(d, name, poly_path, op, m, eqs=(), points=()):
    doc = {"polyadic": os.path.basename(poly_path), "vars": m}
    if eqs:
        doc["equations"] = [f"{A.term_str(u, op.names)} = {A.term_str(v, op.names)}" for u, v in eqs]
    if points:
        doc["points"] = [[op.names[c] for c in pt] for pt in points]
    return d.put(name, doc)


def _solutions(op, m, eqs):
    skews = [op.skew(x) for x in range(op.k)]
    return [pt for pt in product(range(op.k), repeat=m)
            if all(A.term_eval(u, pt, op, skews) == A.term_eval(v, pt, op, skews) for u, v in eqs)]


def _equations(rng, d):
    bases = _bases()
    groups, covers = {}, {}
    for label in ("Z3", "Z5", "S3"):
        g, theta, b, op = _instance(rng, bases[label], 3)
        groups[label] = (op, d.put(f"{label}n3", A.derived_doc(g, theta, b, 3)))
        covers[label] = (g, theta, b)
    jobs = []

    for label, m, e in (("Z3", 9, 3), ("S3", 6, 3), ("Z5", 7, 3)):
        op, poly = groups[label]
        eqs = _triangular(rng, op, m, e, depth=2)
        path = _system(d, f"solve-{label}m{m}", poly, op, m, eqs)
        jobs.append(Job(f"solve {label} m{m}", ["solve", "--system", path], 0,
                        _solve_check(op, m, eqs)))

    op, poly = groups["S3"]
    eqs = _triangular(rng, op, 4, 2, depth=2)
    dup = [eqs[0], (eqs[1][1], eqs[1][0])]
    allq = dup + eqs
    path = _system(d, "minsys-S3m4", poly, op, 4, allq)
    jobs.append(Job("minsys S3 m4", ["minsys", "--system", path], 0,
                    _minsys_check(op, allq, eqs)))

    # Two points whose coordinate group is all of G^2, so the closure size
    # does not depend on the seed (some S3 pairs only reach order 18).
    for label in ("Z3", "Z5", "S3"):
        op, poly = groups[label]
        m, npts = 2, 2
        while True:
            pts = tuple(rng.sample(list(product(range(op.k), repeat=m)), npts))
            if len(_term_closure(op, m, pts)) == op.k ** npts:
                break
        path = _system(d, f"coord-{label}", poly, op, m, points=pts)
        jobs.append(Job(f"coordgroup {label} {npts}pts", ["coordgroup", "--system", path], 0,
                        _coordgroup_check(op, m, pts)))

    for label, m in (("Z3", 2), ("Z5", 2)):
        op, poly = groups[label]
        eqs = _triangular(rng, op, m, 1, depth=2)
        path = _system(d, f"closure-{label}m{m}", poly, op, m, eqs)
        want = _solutions(op, m, eqs)
        jobs.append(Job(f"closure {label} m{m}", ["closure", "--system", path], 0,
                        _expect_equal({"vars": m, "count": len(want),
                                       "points": [[op.names[c] for c in pt] for pt in want]})))

    for label, m, npts in (("Z5", 1, 2), ("Z3", 2, 6), ("S3", 1, 4)):
        op, poly = groups[label]
        pts = sorted(rng.sample(list(product(range(op.k), repeat=m)), npts))
        path = _system(d, f"irred-{label}", poly, op, m, points=pts)
        jobs.append(Job(f"irreducible {label} {npts}pts", ["irreducible", "--system", path], 0,
                        _irreducible_check(op, pts)))

    # Coefficient-free solution sets in two variables have at least |G|
    # points; larger ones make the coordinate group's power huge.
    op, poly = groups["Z3"]
    while True:
        eqs = [(_random_term(rng, 3, 2, 2, []), _random_term(rng, 3, 2, 1, []))]
        sols = _solutions(op, 2, eqs)
        if len(sols) == op.k:
            break
    path = _system(d, "thm63-Z3", poly, op, 2, eqs)
    jobs.append(Job("thm63 Z3", ["thm63", "--system", path], (0, 1),
                    _thm63_check(op, covers["Z3"], eqs, sols)))

    op, poly = groups["S3"]
    a = rng.randrange(op.k)
    gl, gr = _group_term(rng, op.k, 2, 3), _group_term(rng, op.k, 2, 2)
    text = f"{_gterm_str(gl, op.names)} = {_gterm_str(gr, op.names)}"
    jobs.append(Job("translate g2p S3", ["translate", "g2p", text, "--polyadic", poly,
                                          "--anchor", op.names[a]], 0,
                    _g2p_check(op, a, gl, gr)))
    u, v = _random_term(rng, 3, 2, 2, list(range(op.k))), _random_term(rng, 3, 2, 2, [])
    text = f"{A.term_str(u, op.names)} = {A.term_str(v, op.names)}"
    jobs.append(Job("translate p2g S3", ["translate", "p2g", text, "--polyadic", poly], 0,
                    _p2g_check(op, covers["S3"], u, v)))
    return jobs


def _names_to_points(op, rows):
    return [tuple(_idx(op.names, r)) for r in rows]


def _solve_check(op, m, eqs):
    skews = [op.skew(x) for x in range(op.k)]
    count = op.k ** (m - len(eqs))

    def check(doc):
        pts = _names_to_points(op, doc["points"])
        if doc["vars"] != m or doc["count"] != count or len(pts) != count:
            return f"count {doc['count']}, wanted {count}"
        if pts != sorted(set(pts)):
            return "points not in lexicographic order"
        for pt in pts:
            if any(A.term_eval(u, pt, op, skews) != A.term_eval(v, pt, op, skews) for u, v in eqs):
                return f"{pt} is not a solution"
        return None
    return check


def _minsys_check(op, allq, core):
    text = {}
    for i, (u, v) in enumerate(allq):
        text[f"{A.term_str(u, op.names)} = {A.term_str(v, op.names)}"] = i
    pivot_of = {}
    for i, (u, v) in enumerate(allq):
        for j, (cu, cv) in enumerate(core):
            if (u, v) in ((cu, cv), (cv, cu)):
                pivot_of[i] = j

    def check(doc):
        if doc["count"] != len(core) or doc["dropped"] != len(allq) - len(core):
            return f"kept {doc['count']}, wanted {len(core)}"
        kept = [text.get(s) for s in doc["equations"]]
        if None in kept or sorted(pivot_of[i] for i in kept) != list(range(len(core))):
            return "kept equations are not one per pivot"
        return None
    return check


def _coordgroup_check(op, m, pts):
    def check(doc):
        want = _term_closure(op, m, pts)
        got = {tuple(x) for x in doc["elements"]}
        if doc["order"] != len(want) or got != want or len(doc["elements"]) != len(want):
            return f"order {doc['order']}, wanted {len(want)}"
        if doc["projections"] != [[op.names[pt[j]] for pt in pts] for j in range(m)]:
            return "projections differ"
        tab = doc["polyadic"]
        if tab["n"] != op.n or len(tab["elements"]) != len(want):
            return "polyadic table header differs"
        return None
    return check


def _term_closure(op, m, pts):
    """Names of the f/skew closure of the projections and the diagonal
    constants inside G^|pts|, by saturation over tuples touching a new
    element."""
    return _term_closure_cached(tuple(op.names), op.n, tuple(op.flat), m, tuple(pts))


@functools.lru_cache(maxsize=16)
def _term_closure_cached(names, n, flat, m, pts):
    op = A.NaryOp(names, n, flat)
    k = len(pts)
    skews = [op.skew(x) for x in range(op.k)]
    gens = [tuple(pt[j] for pt in pts) for j in range(m)]
    gens += [(c,) * k for c in range(op.k)]
    closed = set(gens)
    frontier = set(gens)
    while frontier:
        fresh = {tuple(skews[c] for c in x) for x in frontier}
        snap = sorted(closed)
        for args in product(snap, repeat=op.n):
            if any(a in frontier for a in args):
                fresh.add(tuple(op.f([a[i] for a in args]) for i in range(k)))
        frontier = fresh - closed
        closed |= fresh
    return {tuple(op.names[c] for c in x) for x in closed}


def _irreducible_check(op, pts):
    """The verdict from the algebraic subsets of the set, each the closure
    of one of its subsets under the oracle's own term functions; a
    reducing witness must be two of them covering the set."""
    y = frozenset(pts)

    def check(doc):
        points, fns = A.term_functions(op, len(pts[0]))
        algebraic = set()
        for mask in range(1, 2 ** len(pts)):
            z = A.zariski_closure(points, fns, [p for i, p in enumerate(pts) if mask >> i & 1])
            if z < y:
                algebraic.add(z)
        reducible = any(z1 | z2 == y for z1 in algebraic for z2 in algebraic)
        if doc["irreducible"] == reducible:
            return f"irreducible: {doc['irreducible']}, brute force finds {not reducible}"
        w = doc["witness"]
        if not reducible:
            return None if w is None else "witness on an irreducible set"
        z1, z2 = (frozenset(_names_to_points(op, z)) for z in w)
        if z1 not in algebraic or z2 not in algebraic or z1 | z2 != y:
            return "witness is not two proper algebraic subsets covering the set"
        return None
    return check


def _thm63_check(op, gtb, eqs, sols):
    """Recompute the comparison: Gamma is the f/skew closure of the
    projections of V_G; V* solves the system in Post's cover C, reading f
    as the n-fold product and skew as the (2-n)-th power; the cover of
    Gamma is the subgroup of C^|V_G| generated by the embedded projections.
    The homomorphism to the word functions on V* exists exactly when the
    subgroup of pairs generated by (embedded projection, projection on
    V*) is the graph of a map."""
    n, m, k = op.n, 2, len(sols)

    def cover_eval(t, pt, table):
        if t[0] == "v":
            return pt[t[1]]
        if t[0] == "s":
            return A.power(table, cover_eval(t[1], pt, table), 2 - n)
        acc = None
        for c in t[1]:
            v = cover_eval(c, pt, table)
            acc = v if acc is None else table[acc][v]
        return acc

    def check(doc):
        skews = [op.skew(x) for x in range(op.k)]
        proj = [tuple(pt[j] for pt in sols) for j in range(m)]
        gamma, frontier = set(proj), set(proj)
        while frontier:
            fresh = {tuple(skews[c] for c in x) for x in frontier}
            for args in product(sorted(gamma), repeat=n):
                if any(a in frontier for a in args):
                    fresh.add(tuple(op.f([a[i] for a in args]) for i in range(k)))
            frontier = fresh - gamma
            gamma |= fresh
        _, table = A.post_cover(*gtb, n)
        vstar = [pt for pt in product(range(len(table)), repeat=m)
                 if all(cover_eval(u, pt, table) == cover_eval(v, pt, table) for u, v in eqs)]
        star_proj = [tuple(pt[j] for pt in vstar) for j in range(m)]
        star = A.tuple_span(table, star_proj)
        emb = [tuple(op.k + c for c in p) for p in proj]
        pairs = A.tuple_span(table, [a + b for a, b in zip(emb, star_proj)])
        ok = len({p[:k] for p in pairs}) == len(pairs)
        want = {"ok": ok, "v_g_count": k, "gamma_g_order": len(gamma),
                "cover_order": (n - 1) * len(gamma), "v_star_count": len(vstar),
                "gamma_star_order": len(star)}
        got = {key: doc[key] for key in want}
        if got != want:
            return f"{got}, brute force finds {want}"
        if (doc["reason"] is None) != doc["ok"]:
            return "reason and verdict disagree"
        return None
    return check


def _group_term(rng, k, nvars, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return ("gc", rng.randrange(k))
        return ("gv", rng.randrange(nvars))
    if rng.random() < 0.3:
        return ("gi", _group_term(rng, k, nvars, depth - 1))
    return ("gm", _group_term(rng, k, nvars, depth - 1), _group_term(rng, k, nvars, depth - 1))


def _gterm_str(t, names):
    if t[0] == "gv":
        return f"x{t[1] + 1}"
    if t[0] == "gc":
        return "c" + names[t[1]]
    if t[0] == "gi":
        return f"({_gterm_str(t[1], names)})'"
    return f"({_gterm_str(t[1], names)})*({_gterm_str(t[2], names)})"


def _g2p_check(op, a, gl, gr):
    """The n-ary equation must have the group equation's solutions, the
    group being the retract at a: x*y = f(x, a, ..., a, y)."""
    mid = [a] * (op.n - 2)
    mul = [[op.f([x] + mid + [y]) for y in range(op.k)] for x in range(op.k)]
    e = op.skew(a)
    inv = [next(y for y in range(op.k) if mul[x][y] == e) for x in range(op.k)]

    def geval(t, pt):
        if t[0] == "gv":
            return pt[t[1]]
        if t[0] == "gc":
            return t[1]
        if t[0] == "gi":
            return inv[geval(t[1], pt)]
        return mul[geval(t[1], pt)][geval(t[2], pt)]

    grid = list(product(range(op.k), repeat=2))
    want = [pt for pt in grid if geval(gl, pt) == geval(gr, pt)]
    skews = [op.skew(x) for x in range(op.k)]

    def check(doc):
        if doc["direction"] != "g2p" or doc["anchor"] != op.names[a]:
            return "direction or anchor differs"
        left, right = doc["equation"].split(" = ")
        u, v = A.parse_term(left, op.names), A.parse_term(right, op.names)
        got = [pt for pt in grid if A.term_eval(u, pt, op, skews) == A.term_eval(v, pt, op, skews)]
        return None if got == want else "translated equation has other solutions"
    return check


def _p2g_check(op, gtb, u, v):
    """Both sides, read in Post's cover with x1, x2 ranging over the
    embedded copy (x, 1) of G, must take the embedded values of the n-ary
    sides. The cover is generated by that copy, so this does not depend
    on which (theta, b) the library derives it from."""
    names, table = A.post_cover(*gtb, op.n)
    emb = [op.k + x for x in range(op.k)]
    skews = [op.skew(x) for x in range(op.k)]

    def check(doc):
        if doc["direction"] != "p2g":
            return f"direction {doc['direction']!r}"
        left, right = doc["equation"].split(" = ")
        sides = ((A.parse_group_term(left, names), u), (A.parse_group_term(right, names), v))
        for pt in product(range(op.k), repeat=2):
            ept = [emb[x] for x in pt]
            for gt, t in sides:
                if A.group_eval(gt, ept, table) != emb[A.term_eval(t, pt, op, skews)]:
                    return f"translated equation differs from the n-ary one at {pt}"
        return None
    return check
