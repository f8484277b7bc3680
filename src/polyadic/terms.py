"""Terms over a polyadic group, their normal forms, and the two-way
translation between binary group equations and n-ary equations.

A polyadic term is a tree built from variables, constants of a fixed
group P, the n-ary operation, and the skew. Terms with coefficients are
normalized inside the free product of P's cover with a free group: the
normal form is an alternating word of cover constants and variable
powers, and two terms denote the same element exactly when their normal
forms coincide.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from . import caps as _caps
from .core import as_derived
from .errors import (
    ArityMismatch,
    ParseError,
    PolyadicError,
    SizeCapExceeded,
    UnboundVariable,
)
from .words import FreeWord, generator

# Deepest nesting of f(...) and ~ that the term parser accepts. Every walker
# over terms recurses once per level (the translation to group terms and
# its printer up to n-1 times), so parsed terms stay well inside the
# interpreter's recursion limit. The group-term parser applies the same
# bound to parentheses, to the depth of the term it builds and to exponents.
MAX_TERM_DEPTH = 100
# Most nodes a group term may have, counting every copy of a repeated
# subterm (a power repeats its base), as parsed and as translated to the
# n-ary language. Walkers and printers visit every copy.
MAX_TERM_NODES = MAX_TERM_DEPTH ** 2


@dataclass(frozen=True)
class Variable:
    index: int


@dataclass(frozen=True)
class Constant:
    element: int


@dataclass(frozen=True)
class Apply:
    children: tuple


@dataclass(frozen=True)
class Skew:
    child: "object"


@dataclass(frozen=True)
class Equation:
    left: "object"
    right: "object"


def term_variables(t):
    if isinstance(t, Variable):
        return {t.index}
    if isinstance(t, Constant):
        return set()
    if isinstance(t, Skew):
        return term_variables(t.child)
    out = set()
    for c in t.children:
        out |= term_variables(c)
    return out


def validate_term(t, n, m):
    """Check Apply arities against n and variable indices against m."""
    if isinstance(t, Variable):
        if not 0 <= t.index < m:
            raise UnboundVariable(t.index)
        return
    if isinstance(t, Constant):
        return
    if isinstance(t, Skew):
        validate_term(t.child, n, m)
        return
    if len(t.children) != n:
        raise ArityMismatch(n, len(t.children))
    for c in t.children:
        validate_term(c, n, m)


def eval_term(t, assignment, p):
    """Evaluate over the polyadic group p; assignment is a sequence of
    element indices, one per variable."""
    if isinstance(t, Variable):
        if t.index >= len(assignment) or assignment[t.index] is None:
            raise UnboundVariable(t.index)
        return assignment[t.index]
    if isinstance(t, Constant):
        return t.element
    if isinstance(t, Skew):
        return p.skew(eval_term(t.child, assignment, p))
    if len(t.children) != p.n:
        raise ArityMismatch(p.n, len(t.children))
    return p.f([eval_term(c, assignment, p) for c in t.children])


def eval_equation(eq, assignment, p):
    return eval_term(eq.left, assignment, p) == eval_term(eq.right, assignment, p)


class TermCompiler:
    """Compiles terms over p into evaluators.

    Terms are compiled over `as_derived(p)`, which has p's carrier and
    operation: a table form over its Hosszú–Gluskin recovery, which raises
    for a table that is not an n-ary group or whose retract the caps refuse.

    A compiled term is a closure that takes an assignment (a sequence of
    element indices, one per variable, each bound) and returns the value
    `eval_term` gives. An f node is one run of `_lookups` in the transposed
    step tables, one per argument after the first, so its cost and depth
    do not grow with n. Subterms without variables are evaluated once, at
    compile time, and skew values are tabulated on first use.

    `solver` inverts a term in a variable that occurs once in it, along the
    path from the root to that variable. At an f node the child's value is
    the unique solution in its position, which the inverses of the step
    tables give. At a skew node the child's value is each preimage under
    the skew, which need not be a bijection.
    """

    def __init__(self, p):
        self.p = as_derived(p)

    def __call__(self, t):
        return _callable(self.node(t))

    @cached_property
    def _skews(self):
        return tuple(self.p.skew(x) for x in self.p.elements())

    @cached_property
    def _preimages(self):
        """_preimages[y]: the x with skew(x) = y, in increasing order."""
        pre = [[] for _ in self._skews]
        for x, y in enumerate(self._skews):
            pre[y].append(x)
        return tuple(map(tuple, pre))

    def node(self, t):
        """t compiled: an int for a constant, else a closure over the
        assignment."""
        if isinstance(t, Variable):
            return itemgetter(t.index)
        if isinstance(t, Constant):
            return t.element
        if isinstance(t, Skew):
            skews = self._skews
            kid = self.node(t.child)
            if isinstance(kid, int):
                return skews[kid]
            return lambda a: skews[kid(a)]
        self._check_arity(t)
        return self._apply([self.node(c) for c in t.children])

    def _apply(self, kids):
        """The compiled f node over the compiled kids: one run of lookups
        in the transposed step tables, folded to an int when every kid is
        one."""
        first = kids[0]
        if len(kids) == 1:
            return first
        step = _lookups([_bind(c, kid) for c, kid in zip(self._cols, kids[1:])])
        if isinstance(first, int):
            if all(isinstance(k, int) for k in kids):
                return step(None, first)
            return lambda a: step(a, first)
        return lambda a: step(a, first(a))

    def solver(self, t, x, target):
        """A closure a -> the values of variable x, which occurs once in t,
        at which t equals the term target, every other variable read from
        a. The values are distinct.

        Each step from the root down maps a wanted value of a node to the
        wanted values of its child on the path. A step is a list of table
        lookups, with one answer, or a function giving all answers. Runs of
        lookups are joined into one loop, and runs of lookups without a
        variable into one table."""
        segments, ops = [], []  # (step, one answer) from the root down
        for node, pos in _path(t, x):
            if pos is None:
                step = self._skew_step()
            else:
                self._check_arity(node)
                kids = [0 if i == pos else self.node(c) for i, c in enumerate(node.children)]
                step = self._f_step(kids, pos)
            if isinstance(step, list):
                ops += step
                continue
            if ops:
                segments.append((_lookups(ops), True))
                ops = []
            segments.append((step, False))
        if ops:
            segments.append((_lookups(ops), True))
        goal = _callable(self.node(target))
        if not segments:
            return lambda a: (goal(a),)
        if len(segments) == 1 and segments[0][1]:
            step = segments[0][0]
            return lambda a: (step(a, goal(a)),)

        def values(a):
            cs = (goal(a),)
            for step, one in segments:
                cs = [step(a, c) for c in cs] if one else [y for c in cs for y in step(a, c)]
            return cs

        return values

    def fanout(self, t, x):
        """A bound on how many values `solver(t, x, ...)` returns: the
        product over x's path of the largest skew fibre at each skew node,
        at most |G|."""
        skews = sum(pos is None for _, pos in _path(t, x))
        if not skews:
            return 1
        return min(self.p.order, max(map(len, self._preimages)) ** skews)

    def _skew_step(self):
        """The skew's inverse as one lookup when the skew is a bijection,
        else a function giving the tuple of preimages."""
        pre = self._preimages
        if max(map(len, pre)) == 1:
            return [(tuple(xs[0] for xs in pre), None)]
        return lambda a, y: pre[y]

    def _f_step(self, kids, pos):
        """The step solving f(kids) = c in position pos, the kids compiled
        and kids[pos] a placeholder: a list of lookups (table, kid) reading
        table[c], or table[kid(a)][c] when kid is not None."""
        rows, cols = self._division
        # undo the arguments after pos, the last first, through column
        # inverses; what is left is the step value of args[:pos+1], and x
        # is read from it by the row inverse at the step value of args[:pos]
        ops = [_bind(cols[k - 1], kids[k]) for k in range(self.p.n - 1, pos, -1)]
        if pos:
            ops.append(_bind(rows[pos - 1], self._apply(kids[:pos])))
        return ops

    @cached_property
    def _cols(self):
        """The step tables transposed: _cols[k][x][v] = steps[k][v][x], the
        lookup of argument k + 1."""
        return [tuple(zip(*level)) for level in self.p.steps]

    @cached_property
    def _division(self):
        """Inverses of the step tables, which are bijective in each
        argument (v . theta^(k+1)(x), times b at the last level):
        rows[k][v][w] is the x with steps[k][v][x] = w, and cols[k][x][w]
        the v with steps[k][v][x] = w."""
        rows = [tuple(map(_inverse, level)) for level in self.p.steps]
        cols = [tuple(map(_inverse, level)) for level in self._cols]
        return rows, cols

    def _check_arity(self, t):
        if len(t.children) != self.p.n:
            raise ArityMismatch(self.p.n, len(t.children))


def _path(t, x):
    """(node, position) from t's root down to the variable x, which occurs
    once in t; the position is None at a skew node."""
    while not isinstance(t, Variable):
        if isinstance(t, Skew):
            yield t, None
            t = t.child
        else:
            pos = next(i for i, c in enumerate(t.children) if x in term_variables(c))
            yield t, pos
            t = t.children[pos]


def _bind(tables, kid):
    """The lookup tables[kid][c]: one table when kid is a constant."""
    return (tables[kid], None) if isinstance(kid, int) else (tables, kid)


def _lookups(ops):
    """step(a, c) applying the lookups in turn. A lookup without a variable
    is folded into the next one, or into the one before when it ends the
    run, so each step left reads table[kid(a)][c]; a single step is one
    expression."""
    joined, pending = [], None  # pending: a table without a variable
    for table, kid in ops:
        if pending is not None:
            if kid is None:
                table = tuple(map(table.__getitem__, pending))
            else:
                table = tuple(tuple(map(row.__getitem__, pending)) for row in table)
            pending = None
        if kid is None:
            pending = table
        else:
            joined.append((table, kid))
    if pending is not None:
        if not joined:
            return lambda a, c: pending[c]
        table, kid = joined.pop()
        joined.append((tuple(tuple(map(pending.__getitem__, row)) for row in table), kid))
    if len(joined) == 1:
        ((t, k),) = joined
        return lambda a, c: t[k(a)][c]

    def step(a, c):
        for table, kid in joined:
            c = table[kid(a)][c]
        return c

    return step


def _inverse(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def _callable(node):
    if isinstance(node, int):
        return lambda a: node
    return node


def is_coefficient_free(t):
    if isinstance(t, Constant):
        return False
    if isinstance(t, Skew):
        return is_coefficient_free(t.child)
    if isinstance(t, Apply):
        return all(is_coefficient_free(c) for c in t.children)
    return True


# ---------------------------------------------------------------------------
# normal form in the free product of the cover with a free group


@dataclass(frozen=True)
class SyllableWord:
    """Syllables ("c", cover index), never the cover identity, and ("v",
    variable, nonzero exponent), reduced: no two adjacent constants or
    powers of one variable. Identical syllable tuples mean equal elements."""

    syllables: tuple

    def __str__(self):
        return "*".join(
            f"<{s[1]}>" if s[0] == "c"
            else f"x{s[1] + 1}" if s[2] == 1
            else f"x{s[1] + 1}^{s[2]}"
            for s in self.syllables
        ) or "1"

    def height(self, cover):
        """Variable exponent sum plus grades of constant syllables."""
        return sum(cover.grade(s[1]) if s[0] == "c" else s[2] for s in self.syllables)


def _reduce_syllables(syllables, group):
    """One pass, as `words._reduce_runs`: constants multiply in the cover,
    powers of one variable add, and the top is dropped at the identity or
    exponent 0. SizeCapExceeded past MAX_TERM_NODES syllables."""
    if len(syllables) > MAX_TERM_NODES:
        raise SizeCapExceeded("normal form syllables", len(syllables), MAX_TERM_NODES)
    stack = []
    for syl in syllables:
        top = stack[-1] if stack else ("",)
        if syl[0] != top[0] or syl[0] == "v" and syl[1] != top[1]:
            stack.append(syl)
            continue
        stack.pop()
        if syl[0] == "c":
            c = group.mul(top[1], syl[1])
            if c != group.identity:
                stack.append(("c", c))
        elif top[2] + syl[2]:
            stack.append(("v", syl[1], top[2] + syl[2]))
    return tuple(stack)


def normalize_term(t, p, cover=None):
    """Normal form of a term as an element of the free product of p's
    cover with the free group on the variables. Equal terms (under the
    n-ary laws and the cover relations) get identical normal forms. Each
    node is one `_reduce_syllables`: of its children's forms joined at an
    f node, of n-2 copies of its child's inverse at a skew."""
    if cover is None:
        from .cover import build_post_cover

        cover = build_post_cover(p)
    grp, n = cover.group, cover.n

    def rec(t):
        if isinstance(t, Variable):
            return (("v", t.index, 1),)
        if isinstance(t, Constant):
            return (("c", cover.embed_index(t.element)),)
        if isinstance(t, Skew):
            w = [("c", grp.inv(s[1])) if s[0] == "c" else ("v", s[1], -s[2]) for s in rec(t.child)]
            return _reduce_syllables(w[::-1] * (n - 2), grp)
        if len(t.children) != n:
            raise ArityMismatch(n, len(t.children))
        return _reduce_syllables(tuple(s for c in t.children for s in rec(c)), grp)

    word = SyllableWord(rec(t))
    if word.height(cover) % (n - 1) != 1 % (n - 1):
        raise PolyadicError(f"normal form height {word.height(cover)} not 1 mod {n - 1}")
    return word


def terms_equal(s, t, p, cover=None):
    if cover is None:
        from .cover import build_post_cover

        cover = build_post_cover(p)
    return normalize_term(s, p, cover) == normalize_term(t, p, cover)


# ---------------------------------------------------------------------------
# binary group terms and the two-way translation


@dataclass(frozen=True)
class GVar:
    index: int


@dataclass(frozen=True)
class GConst:
    element: int


@dataclass(frozen=True)
class GMul:
    left: "object"
    right: "object"


@dataclass(frozen=True)
class GInv:
    child: "object"


@dataclass(frozen=True)
class GOne:
    pass


def eval_group_term(t, assignment, g):
    """Evaluate a binary group term. A subterm that occurs more than once
    as the same object, as `polyadic_to_group` repeats the child of a skew,
    is evaluated once."""
    done = {}

    def rec(t):
        key = id(t)
        if key in done:
            return done[key]
        if isinstance(t, GVar):
            if t.index >= len(assignment) or assignment[t.index] is None:
                raise UnboundVariable(t.index)
            v = assignment[t.index]
        elif isinstance(t, GConst):
            v = t.element
        elif isinstance(t, GOne):
            v = g.identity
        elif isinstance(t, GInv):
            v = g.inv(rec(t.child))
        else:
            v = g.mul(rec(t.left), rec(t.right))
        done[key] = v
        return v

    return rec(t)


def group_to_polyadic(t, a, n):
    """Rewrite a binary group term into the n-ary language, relative to
    an anchor a: products become f(u, a, ..., a, v) with n-2 anchors,
    inverses become f(~a, u, ..., u, ~u, ~a) with n-3 middle copies, and
    the group identity becomes ~a. Evaluating the result in P equals
    evaluating the input in the retract of P at a."""
    anchor = Constant(a)
    if isinstance(t, GVar):
        return Variable(t.index)
    if isinstance(t, GConst):
        return Constant(t.element)
    if isinstance(t, GOne):
        return Skew(anchor)
    if isinstance(t, GMul):
        u = group_to_polyadic(t.left, a, n)
        v = group_to_polyadic(t.right, a, n)
        return Apply((u,) + (anchor,) * (n - 2) + (v,))
    u = group_to_polyadic(t.child, a, n)
    return Apply((Skew(anchor),) + (u,) * (n - 3) + (Skew(u), Skew(anchor)))


def group_to_polyadic_equation(left, right, a, n):
    """Both sides through `group_to_polyadic`; SizeCapExceeded when the
    result has more than MAX_TERM_NODES nodes."""
    left, right = _capped(group_to_polyadic(left, a, n), group_to_polyadic(right, a, n))
    return Equation(left, right)


def _capped(left, right):
    """The two translated sides, unless their trees have more than
    MAX_TERM_NODES nodes. Each builder shares the repeated child of a skew
    or inverse, so what it built is linear in its input; the trees need not be."""
    memo = {}
    size = _tree_nodes(left, memo) + _tree_nodes(right, memo)
    if size > MAX_TERM_NODES:
        raise SizeCapExceeded("translated term nodes", size, MAX_TERM_NODES)
    return left, right


def _tree_nodes(t, memo):
    """Nodes of t as a tree, every copy of a shared subterm counted; memo
    holds the count of each subterm, by identity."""
    key = id(t)
    if key not in memo:
        if isinstance(t, Apply):
            kids = t.children
        elif isinstance(t, GMul):
            kids = (t.left, t.right)
        else:
            kids = (t.child,) if isinstance(t, (Skew, GInv)) else ()
        size = 1
        for c in kids:
            size += _tree_nodes(c, memo)
        memo[key] = size
    return memo[key]


def polyadic_to_group(t, cover):
    """Rewrite an n-ary term as a binary term over the cover: the n-ary
    operation becomes the n-fold product, skew becomes the (2-n)-th
    power, constants embed into the cover. For assignments with values
    in the embedded copy of P, evaluation in the cover group agrees with
    evaluation of the original term in P."""
    n = cover.n
    if isinstance(t, Variable):
        return GVar(t.index)
    if isinstance(t, Constant):
        return GConst(cover.embed_index(t.element))
    if isinstance(t, Skew):
        u = polyadic_to_group(t.child, cover)
        return GInv(_gproduct([u] * (n - 2)))
    if len(t.children) != n:
        raise ArityMismatch(n, len(t.children))
    return _gproduct([polyadic_to_group(c, cover) for c in t.children])


def polyadic_to_group_equation(left, right, cover):
    """Both sides through `polyadic_to_group`; SizeCapExceeded when the
    result has more than MAX_TERM_NODES nodes."""
    return _capped(polyadic_to_group(left, cover), polyadic_to_group(right, cover))


def _gproduct(factors):
    out = factors[-1]
    for u in reversed(factors[:-1]):
        out = GMul(u, out)
    return out


def term_to_free_word(t, generators, n, caps=_caps.DEFAULT):
    """Coefficient-free flattening into the free group on the generator
    names: variables map to generators, the operation to concatenation,
    skew to the (2-n)-th power. A skew's power joins |n-2| copies of its
    child's runs before it reduces them: max_tabulate caps that count."""
    if isinstance(t, Variable):
        return generator(generators[t.index])
    if isinstance(t, Constant):
        raise PolyadicError("constants are not allowed in presentations")
    if isinstance(t, Skew):
        w = term_to_free_word(t.child, generators, n, caps)
        _caps.check(caps, "flattened word", len(w.runs) * abs(n - 2), caps.max_tabulate)
        return w ** (2 - n)
    if len(t.children) != n:
        raise ArityMismatch(n, len(t.children))
    return FreeWord(
        [r for c in t.children for r in term_to_free_word(c, generators, n, caps).runs]
    )


# ---------------------------------------------------------------------------
# text grammar

# the second alternative matches (empty) before the first character that
# starts no token, so an error names that character
_TOKEN = re.compile(r"\s*(?:([A-Za-z0-9_]+|\^-?[0-9]+|[(),=~*'])|(?=(\S)))")
_VAR = re.compile(r"x([0-9]+)$")
_NAME = re.compile(r"[A-Za-z0-9_]+")


def _tokenize(text):
    out = []
    for m in _TOKEN.finditer(text):
        tok, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", column=m.start(2))
        out.append((tok, m.start(1)))
    return out


def _variable_index(name, col):
    """k - 1 for a variable name xk, else None."""
    m = _VAR.match(name)
    if m is None:
        return None
    digits = m.group(1).lstrip("0")
    if not digits:
        raise ParseError("variables are numbered from x1", column=col)
    if len(digits) > 9:
        raise ParseError("variable index has more than 9 digits", column=col)
    return int(digits) - 1


class _Resolver:
    """Classifies identifiers. Variables are x1, x2, ...; other names are
    either generator names (presentations) or element names of the loaded
    group, with an optional leading c before an element name."""

    def __init__(self, element_names=None, generators=None):
        self.elements = {s: i for i, s in enumerate(element_names or ())}
        self.generators = (
            {s: i for i, s in enumerate(generators)} if generators is not None else None
        )

    def atom(self, name, col):
        if self.generators is not None:
            if name in self.generators:
                return Variable(self.generators[name])
            raise ParseError(f"unknown generator {name!r}", column=col)
        k = _variable_index(name, col)
        if k is not None:
            return Variable(k)
        return Constant(_element(self.elements, name, col))


def _element(elements, name, col):
    """The index of an element name, or of the name without a leading c;
    else a ParseError at col."""
    if name in elements:
        return elements[name]
    if name[0] == "c" and name[1:] in elements:
        return elements[name[1:]]
    raise ParseError(f"unknown name {name!r}", column=col)


class _Cursor:
    """A position in a token list, for both term grammars."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", column=col)

    def finish(self):
        """A ParseError at the first token left unread, if any."""
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok!r}", column=col)


class _TermParser(_Cursor):
    def __init__(self, tokens, resolver):
        super().__init__(tokens)
        self.resolver = resolver

    def term(self, depth=0):
        tok, col = self.next()
        nests = tok == "~" or (tok == "f" and self.peek() == "(")
        if nests and depth == MAX_TERM_DEPTH:
            raise ParseError(
                f"term nested deeper than {MAX_TERM_DEPTH} levels", column=col
            )
        if tok == "~":
            return Skew(self.term(depth + 1))
        if tok == "f" and self.peek() == "(":
            self.next()
            children = [self.term(depth + 1)]
            while self.peek() == ",":
                self.next()
                children.append(self.term(depth + 1))
            self.expect(")")
            return Apply(tuple(children))
        if not _NAME.fullmatch(tok):
            raise ParseError(f"expected a term, found {tok!r}", column=col)
        return self.resolver.atom(tok, col)


def parse_term(text, element_names=None, generators=None):
    """Parse the n-ary term grammar: f(t1,...,tn), ~t for the skew,
    x1, x2, ... for variables, anything else a constant (optionally
    written with a leading c, as in c2 for the element named 2)."""
    parser = _TermParser(_tokenize(text), _Resolver(element_names, generators))
    t = parser.term()
    parser.finish()
    return t


def parse_equation(text, element_names=None, generators=None):
    parser = _TermParser(_tokenize(text), _Resolver(element_names, generators))
    left = parser.term()
    parser.expect("=")
    right = parser.term()
    parser.finish()
    return Equation(left, right)


def term_to_string(t, p=None, generators=None):
    def name_of(e):
        return p.name(e) if p is not None else str(e)

    if isinstance(t, Variable):
        if generators is not None:
            return generators[t.index]
        return f"x{t.index + 1}"
    if isinstance(t, Constant):
        return name_of(t.element)
    if isinstance(t, Skew):
        return "~" + term_to_string(t.child, p, generators)
    inner = ",".join(term_to_string(c, p, generators) for c in t.children)
    return f"f({inner})"


class _GroupTermParser(_Cursor):
    """Binary group terms: juxtaposition or * for products (grouped to
    the right), postfix ' or ^-1 for inverses, ^k for powers, 1 for the
    identity, parentheses for grouping.

    Parentheses nest at most MAX_TERM_DEPTH deep and exponents are at most
    MAX_TERM_DEPTH in absolute value. The term built is at most
    MAX_TERM_DEPTH deep, so a product has at most that many factors, and has
    at most MAX_TERM_NODES nodes. Each bound is checked before the term that
    would break it is built. Subterms are carried as (term, depth, nodes).
    """

    def __init__(self, tokens, element_names):
        super().__init__(tokens)
        self.elements = {s: i for i, s in enumerate(element_names)}

    def product(self, nest=0):
        factors = [self.factor(nest)]
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
            elif nxt is None or not (nxt == "(" or _NAME.fullmatch(nxt)):
                break
            if len(factors) == MAX_TERM_DEPTH:
                raise ParseError(
                    f"product of more than {MAX_TERM_DEPTH} factors",
                    column=self.tokens[self.pos - 1][1],
                )
            factors.append(self.factor(nest))
        out = factors[-1]
        for u in reversed(factors[:-1]):
            out = self._mul(u, out)
        return out

    def factor(self, nest):
        tok, col = self.next()
        if tok == "(":
            if nest == MAX_TERM_DEPTH:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_TERM_DEPTH} levels",
                    column=col,
                )
            base = self.product(nest + 1)
            self.expect(")")
        elif _NAME.fullmatch(tok):
            base = (self.atom(tok, col), 1, 1)
        else:
            raise ParseError(f"expected a factor, found {tok!r}", column=col)
        while True:
            nxt = self.peek()
            if nxt == "'":
                self.next()
                base = self._inv(base)
            elif nxt is not None and nxt.startswith("^"):
                _, col = self.next()
                # a long digit string is refused before int() reads it
                k = int(nxt[1:]) if len(nxt[1:].lstrip("-0")) <= 3 else None
                if k is None or abs(k) > MAX_TERM_DEPTH:
                    raise ParseError(
                        f"exponent outside -{MAX_TERM_DEPTH}..{MAX_TERM_DEPTH}",
                        column=col,
                    )
                base = self._power(base, k)
            else:
                return base

    def _power(self, base, k):
        if k == 0:
            return GOne(), 1, 1
        if k < 0:
            return self._inv(self._power(base, -k))
        out = base
        for _ in range(k - 1):
            out = self._mul(base, out)
        return out

    def _mul(self, u, v):
        return self._bounded(GMul(u[0], v[0]), max(u[1], v[1]) + 1, u[2] + v[2] + 1)

    def _inv(self, u):
        return self._bounded(GInv(u[0]), u[1] + 1, u[2] + 1)

    def _bounded(self, term, depth, nodes):
        """(term, depth, nodes), or a ParseError at the last token read."""
        col = self.tokens[self.pos - 1][1]
        if depth > MAX_TERM_DEPTH:
            raise ParseError(
                f"term nested deeper than {MAX_TERM_DEPTH} levels", column=col
            )
        if nodes > MAX_TERM_NODES:
            raise ParseError(f"term of more than {MAX_TERM_NODES} nodes", column=col)
        return term, depth, nodes

    def atom(self, name, col):
        if name == "1":
            return GOne()
        k = _variable_index(name, col)
        if k is not None:
            return GVar(k)
        return GConst(_element(self.elements, name, col))


def parse_group_term(text, element_names):
    parser = _GroupTermParser(_tokenize(text), element_names)
    t = parser.product()[0]
    parser.finish()
    return t


def parse_group_equation(text, element_names):
    parser = _GroupTermParser(_tokenize(text), element_names)
    left = parser.product()[0]
    parser.expect("=")
    right = parser.product()[0]
    parser.finish()
    return left, right


def group_term_to_string(t, g=None):
    def name_of(e):
        return g.name(e) if g is not None else str(e)

    if isinstance(t, GVar):
        return f"x{t.index + 1}"
    if isinstance(t, GConst):
        return name_of(t.element)
    if isinstance(t, GOne):
        return "1"
    if isinstance(t, GInv):
        inner = group_term_to_string(t.child, g)
        if isinstance(t.child, (GMul, GInv)):
            return f"({inner})^-1"
        return f"{inner}^-1"
    left = group_term_to_string(t.left, g)
    right = group_term_to_string(t.right, g)
    return f"{left}*{right}"
