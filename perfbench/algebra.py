"""Independent small-group algebra for the benchmark's fixtures and oracles.

Nothing here imports `polyadic`: the generator builds inputs and the
oracle re-checks outputs with its own tables, so a defect in the library
cannot hide itself by also being in the check.

Elements are integer indices into a list of names. A binary group is a
square table; an n-ary operation is a flat row-major table of length
k**n (first argument most significant), as in the polyadic table form.
"""

import re
from itertools import permutations, product


# ---------------------------------------------------------------------------
# binary groups


class Group:
    def __init__(self, label, names, table):
        self.label = label
        self.names = list(names)
        self.table = [list(r) for r in table]
        self.k = len(names)
        self.e = next(
            a for a in range(self.k)
            if all(self.table[a][x] == x for x in range(self.k))
        )
        self.inv = [
            next(y for y in range(self.k) if self.table[x][y] == self.e)
            for x in range(self.k)
        ]

    def mul(self, a, b):
        return self.table[a][b]

    def doc(self):
        nm = self.names
        return {
            "name": self.label,
            "elements": list(nm),
            "table": [[nm[v] for v in row] for row in self.table],
        }

    def relabel(self, rng, theta=None, b=None):
        """The same group with its element list in a seeded order, and
        theta and b carried over to the new indices."""
        order = list(range(self.k))
        rng.shuffle(order)
        pos = {old: new for new, old in enumerate(order)}
        table = [[pos[self.table[a][c]] for c in order] for a in order]
        g = Group(self.label, [self.names[a] for a in order], table)
        if theta is None:
            return g
        moved = [None] * self.k
        for x in range(self.k):
            moved[pos[x]] = pos[theta[x]]
        return g, moved, pos[b]


def cyclic(k):
    return Group(f"Z{k}", [str(i) for i in range(k)],
                 [[(i + j) % k for j in range(k)] for i in range(k)])


def symmetric(k):
    perms = sorted(permutations(range(k)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(a[b[i]] for i in range(k))] for b in perms] for a in perms]
    return Group(f"S{k}", ["".join(map(str, p)) for p in perms], table)


def direct(g, h, label=None):
    pairs = [(a, b) for a in range(g.k) for b in range(h.k)]
    idx = {p: i for i, p in enumerate(pairs)}
    table = [[idx[(g.mul(a, c), h.mul(b, d))] for c, d in pairs] for a, b in pairs]
    names = [f"{g.names[a]}_{h.names[b]}" for a, b in pairs]
    return Group(label or f"{g.label}x{h.label}", names, table)


def generators(g):
    """Greedy generating set: lowest element outside the current span."""
    gens, span = [], {g.e}
    while len(span) < g.k:
        gens.append(min(x for x in range(g.k) if x not in span))
        span = closure_binary(g, gens)
    return gens


def closure_binary(g, gens):
    seen = {g.e}
    frontier = [g.e]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def automorphisms(g):
    """All automorphisms as image lists, by generator images (orders <= 24)."""
    gens = generators(g)
    words = {g.e: []}
    frontier = [g.e]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, s in enumerate(gens):
                y = g.mul(x, s)
                if y not in words:
                    words[y] = words[x] + [pos]
                    nxt.append(y)
        frontier = nxt
    out = []
    for imgs in product(range(g.k), repeat=len(gens)):
        m = [None] * g.k
        for x, w in words.items():
            acc = g.e
            for pos in w:
                acc = g.mul(acc, imgs[pos])
            m[x] = acc
        if len(set(m)) != g.k:
            continue
        if all(m[g.mul(a, b)] == g.mul(m[a], m[b]) for a in range(g.k) for b in range(g.k)):
            out.append(m)
    return out


def iterate(theta, k):
    out = list(range(len(theta)))
    for _ in range(k):
        out = [theta[x] for x in out]
    return out


def derivation_pairs(g, n):
    """(theta, b) meeting both derivation conditions, nontrivial first."""
    conj = [[g.mul(g.mul(b, x), g.inv[b]) for x in range(g.k)] for b in range(g.k)]
    good = []
    for theta in automorphisms(g):
        tn = iterate(theta, n - 1)
        for b in range(g.k):
            if theta[b] == b and tn == conj[b]:
                good.append((theta, b))
    ident = list(range(g.k))
    best = [tb for tb in good if tb[0] != ident and tb[1] != g.e]
    return best or [tb for tb in good if tb[0] != ident or tb[1] != g.e] or good


# ---------------------------------------------------------------------------
# n-ary operations


class NaryOp:
    """Flat n-ary table over k named elements."""

    def __init__(self, names, n, flat):
        self.names = list(names)
        self.k = len(self.names)
        self.n = n
        self.flat = list(flat)
        self.strides = [self.k ** (n - 1 - i) for i in range(n)]

    def f(self, args):
        idx = 0
        for a in args:
            idx = idx * self.k + a
        return self.flat[idx]

    def index_of(self, args):
        return sum(a * s for a, s in zip(args, self.strides))

    def table_doc(self):
        nm = self.names
        return {"elements": list(nm), "n": self.n, "table": [nm[v] for v in self.flat]}

    def skew(self, x):
        sols = [y for y in range(self.k) if self.f([x] * (self.n - 1) + [y]) == x]
        return sols[0] if len(sols) == 1 else None


def derived_op(g, theta, b, n):
    pows = [list(range(g.k))]
    for _ in range(n - 1):
        pows.append([theta[x] for x in pows[-1]])
    flat = []
    for args in product(range(g.k), repeat=n):
        acc = args[0]
        for i in range(1, n):
            acc = g.table[acc][pows[i][args[i]]]
        flat.append(g.table[acc][b])
    return NaryOp(g.names, n, flat)


def derived_doc(g, theta, b, n):
    nm = g.names
    return {
        "group": g.doc(),
        "theta": {"map": {nm[x]: nm[theta[x]] for x in range(g.k)}},
        "b": nm[b],
        "n": n,
    }


def assoc_witness(op):
    """First (2n-1)-tuple in lexicographic order where two insertion
    positions disagree: (i, j, tuple, value_i, value_j), 1-based i < j."""
    n, k = op.n, op.k
    for t in product(range(k), repeat=2 * n - 1):
        first = None
        for i in range(n):
            v = op.f(list(t[:i]) + [op.f(t[i:i + n])] + list(t[i + n:]))
            if first is None:
                first = (i, v)
            elif v != first[1]:
                return [first[0] + 1, i + 1, list(t), first[1], v]
    return None


def solvability_witnesses(op):
    """Position-major scan for the first line that repeats a value
    (uniqueness) or misses one (solvability); (kind, witness) or None."""
    n, k = op.n, op.k
    for pos in range(n):
        for rest in product(range(k), repeat=n - 1):
            seen = {}
            args = list(rest[:pos]) + [0] + list(rest[pos:])
            for x in range(k):
                args[pos] = x
                v = op.f(args)
                if v in seen:
                    return "unique", [pos, list(rest), v, seen[v], x]
                seen[v] = x
            if len(seen) != k:
                return "solvable", [pos, list(rest), min(set(range(k)) - set(seen))]
    return None


def dornte_ok(op):
    n = op.n
    for x in range(op.k):
        sx = op.skew(x)
        for i in range(2, n + 1):
            left = [x] * (i - 2) + [sx] + [x] * (n - i)
            right = [x] * (n - i) + [sx] + [x] * (i - 2)
            for y in range(op.k):
                if op.f(left + [y]) != y or op.f([y] + right) != y:
                    return False
    return True


def nary_identity(op):
    n = op.n
    for a in range(op.k):
        if all(
            op.f([a] * (i - 1) + [x] + [a] * (n - i)) == x
            for i in range(1, n + 1)
            for x in range(op.k)
        ):
            return a
    return None


def is_closed(op, carrier):
    h = set(carrier)
    if any(op.skew(x) not in h for x in h):
        return False
    return all(op.f(args) in h for args in product(sorted(h), repeat=op.n))


def closed_subsets(op):
    """Every nonempty carrier closed under f and skew (small orders only)."""
    out = []
    for mask in range(1, 2 ** op.k):
        sub = [x for x in range(op.k) if mask >> x & 1]
        if is_closed(op, sub):
            out.append(tuple(sub))
    return sorted(out, key=lambda s: (len(s), s))


def is_group_table(table, gens):
    """Latin square with identity, gens generating it, and Light's
    associativity test on them: (x g) y == x (g y) for every generator g."""
    k = len(table)
    full = set(range(k))
    if any(set(r) != full for r in table):
        return False
    if any({table[i][j] for i in range(k)} != full for j in range(k)):
        return False
    e = next((a for a in range(k) if all(table[a][x] == x for x in range(k))), None)
    if e is None or any(table[x][e] != x for x in range(k)):
        return False
    span, frontier = {e}, [e]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = table[x][s]
                if y not in span:
                    span.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(span) != k:
        return False
    for g in gens:
        col = [table[x][g] for x in range(k)]
        row = table[g]
        for x in range(k):
            tx = table[col[x]]
            rx = table[x]
            for y in range(k):
                if tx[y] != rx[row[y]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# n-ary terms, as nested tuples: ("v", i), ("c", e), ("s", t), ("f", (t1..tn))


def term_str(t, names, var_names=None):
    """The CLI's rendering; var_names prints variables as presentation
    generators instead of x1, x2, ..."""
    tag = t[0]
    if tag == "v":
        return var_names[t[1]] if var_names else f"x{t[1] + 1}"
    if tag == "c":
        return names[t[1]]
    if tag == "s":
        return "~" + term_str(t[1], names, var_names)
    return "f(" + ",".join(term_str(c, names, var_names) for c in t[1]) + ")"


def term_eval(t, pt, op, skews):
    tag = t[0]
    if tag == "v":
        return pt[t[1]]
    if tag == "c":
        return t[1]
    if tag == "s":
        return skews[term_eval(t[1], pt, op, skews)]
    return op.f([term_eval(c, pt, op, skews) for c in t[1]])


def parse_term(text, names):
    """Inverse of term_str for the rendering the CLI prints."""
    index = {s: i for i, s in enumerate(names)}
    text = text.replace(" ", "")
    pos = 0

    def atom():
        nonlocal pos
        if text.startswith("~", pos):
            pos += 1
            return ("s", atom())
        if text.startswith("f(", pos):
            pos += 2
            kids = [atom()]
            while text[pos] == ",":
                pos += 1
                kids.append(atom())
            if text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            pos += 1
            return ("f", tuple(kids))
        end = pos
        while end < len(text) and (text[end].isalnum() or text[end] == "_"):
            end += 1
        tok = text[pos:end]
        pos = end
        if tok.startswith("x") and tok[1:].isdigit():
            return ("v", int(tok[1:]) - 1)
        if tok in index:
            return ("c", index[tok])
        if tok.startswith("c") and tok[1:] in index:
            return ("c", index[tok[1:]])
        raise ValueError(f"unknown name {tok!r}")

    t = atom()
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return t


def term_functions(op, m):
    """Value tuples, over the points of G^m in lexicographic order, of
    every term function with constants. Saturates the projections and
    the constants under x.y = f(x, a, ..., a, y) and
    psi(x) = f(skew(a), x, a, ..., a) at a = 0, pointwise: both are terms
    with constants, and by Hosszu-Gluskin f(x1, ..., xn) =
    x1.psi(x2)...psi^(n-1)(xn).f(skew(a), ..., skew(a)), so the closure
    is closed under f; skew follows in a finite group."""
    points = list(product(range(op.k), repeat=m))
    a, abar = 0, op.skew(0)
    mid = [a] * (op.n - 2)
    dot = [[op.f([x] + mid + [y]) for y in range(op.k)] for x in range(op.k)]
    psi = [op.f([abar, x] + mid) for x in range(op.k)]
    gens = [tuple(pt[j] for pt in points) for j in range(m)]
    gens += [(c,) * len(points) for c in range(op.k)]
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        fresh = set()
        for x in frontier:
            for y in [tuple(psi[c] for c in x)] + [
                    tuple(dot[u][v] for u, v in zip(p, q))
                    for z in list(closed) for p, q in ((x, z), (z, x))]:
                if y not in closed and y not in fresh:
                    fresh.add(y)
        closed |= fresh
        frontier = list(fresh)
    return points, sorted(closed)


def zariski_closure(points, functions, z):
    """Points where every two term functions that agree on z agree."""
    zi = sorted(points.index(pt) for pt in set(z))
    buckets = {}
    for fn in functions:
        buckets.setdefault(tuple(fn[i] for i in zi), []).append(fn)
    return frozenset(pt for i, pt in enumerate(points)
                     if all(len({fn[i] for fn in fs}) == 1 for fs in buckets.values()))


# ---------------------------------------------------------------------------
# Post's cover, and group terms over it


def post_cover(g, theta, b, n):
    """Multiplication table of the cover of der(g, theta, b), elements
    (x, i) at index i*|g| + x: (x, i)(y, j) = (x.theta^i(y).b^[i+j >= n-1],
    (i+j) mod (n-1)); x embeds as (x, 1). Names are `<x>_<i>`."""
    q, m = g.k, n - 1
    pows = [list(range(q))]
    for _ in range(m):
        pows.append([theta[x] for x in pows[-1]])
    table = []
    for i in range(m):
        for x in range(q):
            row = []
            for j in range(m):
                for y in range(q):
                    v = g.mul(x, pows[i][y])
                    if i + j >= m:
                        v = g.mul(v, b)
                    row.append((i + j) % m * q + v)
            table.append(row)
    names = [f"{g.names[x]}_{i}" for i in range(m) for x in range(q)]
    return names, table


def identity(table):
    return next(a for a in range(len(table)) if table[a][a] == a)


def power(table, x, e):
    """x^e in a finite group table (e may be negative)."""
    ident = identity(table)
    if e < 0:
        x = table[x].index(ident)
        e = -e
    acc = ident
    for _ in range(e):
        acc = table[acc][x]
    return acc


def tuple_span(table, gens):
    """Subgroup of table^len generated by the tuples gens, pointwise."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        fresh = []
        for x in frontier:
            for s in gens:
                y = tuple(table[u][v] for u, v in zip(x, s))
                if y not in closed:
                    closed.add(y)
                    fresh.append(y)
        frontier = fresh
    return closed


def parse_group_term(text, names):
    """The CLI's rendering of a group term: x1, x2, ... for variables,
    element names, `1`, `*` and postfix `^-1`, with parentheses. Returns
    nested tuples ("gv", i), ("gc", e), ("g1",), ("gi", t), ("gm", t, u)."""
    index = {s: i for i, s in enumerate(names)}
    toks = re.findall(r"\^-1|[()*]|[A-Za-z0-9_]+|\S", text)
    pos = 0

    def product_():
        nonlocal pos
        t = factor()
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            t = ("gm", t, factor())
        return t

    def factor():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            t = product_()
            if toks[pos] != ")":
                raise ValueError(f"expected ')' in {text!r}")
            pos += 1
        elif tok == "1":
            t = ("g1",)
        elif re.fullmatch(r"x\d+", tok):
            t = ("gv", int(tok[1:]) - 1)
        elif tok in index:
            t = ("gc", index[tok])
        else:
            raise ValueError(f"unknown name {tok!r} in {text!r}")
        while pos < len(toks) and toks[pos] == "^-1":
            pos += 1
            t = ("gi", t)
        return t

    t = product_()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return t


def group_eval(t, pt, table):
    tag = t[0]
    if tag == "gv":
        return pt[t[1]]
    if tag == "gc":
        return t[1]
    if tag == "g1":
        return identity(table)
    if tag == "gi":
        return power(table, group_eval(t[1], pt, table), -1)
    return table[group_eval(t[1], pt, table)][group_eval(t[2], pt, table)]


# ---------------------------------------------------------------------------
# free words


def reduce_letters(letters):
    """Free reduction of (generator, +1/-1) letters."""
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return out


def word_str(letters):
    """Run-length rendering: runs joined by '*', exponent shown unless 1."""
    if not letters:
        return "1"
    runs = []
    for g, s in letters:
        if runs and runs[-1][0] == g:
            runs[-1][1] += s
        else:
            runs.append([g, s])
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in runs)
