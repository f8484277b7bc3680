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
from operator import itemgetter

from .core import DerivedPolyadicGroup, TablePolyadicGroup
from .errors import ArityMismatch, ParseError, PolyadicError, UnboundVariable
from .groups import TableGroup
from .words import FreeWord, generator

# Deepest nesting of f(...) and ~ that the term parser accepts. Every walker
# over terms recurses once per level (the translation to group terms and
# its printer up to n-1 times), so parsed terms stay well inside the
# interpreter's recursion limit.
MAX_TERM_DEPTH = 100


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


def term_compiler(p):
    """A function that compiles terms over p into evaluators.

    A compiled term is a closure that takes an assignment (a sequence of
    element indices, one per variable, each bound) and returns the value
    `eval_term` gives. It reads p's own tables: for the derived form the
    base group's table with theta's powers and b folded into one |G|^2
    table per argument position, for the table form the flat table,
    otherwise p.f. Subterms without variables are evaluated once, at
    compile time, and skew values are tabulated on first use.
    """
    n = p.n
    if isinstance(p, TablePolyadicGroup):
        flat, order = p.flat, p.order

        def apply(kids):
            if all(isinstance(k, int) for k in kids):
                return p.f(kids)
            idx = _callable(kids[0])
            for kid in kids[1:]:
                idx = _shift_add(idx, _callable(kid), order)
            return lambda a: flat[idx(a)]

    elif isinstance(p, DerivedPolyadicGroup) and isinstance(p.base, TableGroup):
        # steps[k-1][acc][x] = acc . theta^k(x), times b at the last position
        tab = p.base.table
        steps = [
            tuple(tuple(row[t] for t in p.theta_pows[k]) for row in tab)
            for k in range(1, n)
        ]
        steps[-1] = tuple(tuple(tab[v][p.b] for v in row) for row in steps[-1])

        def apply(kids):
            acc = kids[0]
            for rows, kid in zip(steps, kids[1:]):
                acc = _lookup(rows, acc, kid)
            return acc

    else:
        f = p.f

        def apply(kids):
            if all(isinstance(k, int) for k in kids):
                return f(list(kids))
            fns = [_callable(k) for k in kids]
            return lambda a: f([fn(a) for fn in fns])

    skews = None

    def walk(t):
        # an int is a constant, anything else a closure over the assignment
        nonlocal skews
        if isinstance(t, Variable):
            return itemgetter(t.index)
        if isinstance(t, Constant):
            return t.element
        if isinstance(t, Skew):
            if skews is None:
                skews = tuple(p.skew(x) for x in p.elements())
            kid = walk(t.child)
            if isinstance(kid, int):
                return skews[kid]
            return lambda a: skews[kid(a)]
        if len(t.children) != n:
            raise ArityMismatch(n, len(t.children))
        return apply([walk(c) for c in t.children])

    return lambda t: _callable(walk(t))


def _callable(node):
    if isinstance(node, int):
        return lambda a: node
    return node


def _shift_add(high, low, order):
    return lambda a: high(a) * order + low(a)


def _lookup(rows, left, right):
    """rows[left][right], with either side a compiled constant."""
    if isinstance(left, int):
        if isinstance(right, int):
            return rows[left][right]
        row = rows[left]
        return lambda a: row[right(a)]
    if isinstance(right, int):
        col = tuple(r[right] for r in rows)
        return lambda a: col[left(a)]
    return lambda a: rows[left(a)][right(a)]


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

SYL_CONST = "c"
SYL_VAR = "v"


@dataclass(frozen=True)
class SyllableWord:
    """Alternating constant and variable-power syllables; constants are
    cover element indices, never the cover identity; variable exponents
    are nonzero. Identical syllable tuples mean equal elements."""

    syllables: tuple

    def __str__(self):
        if not self.syllables:
            return "1"
        parts = []
        for s in self.syllables:
            if s[0] == SYL_CONST:
                parts.append(f"<{s[1]}>")
            else:
                parts.append(
                    f"x{s[1] + 1}" if s[2] == 1 else f"x{s[1] + 1}^{s[2]}"
                )
        return "*".join(parts)

    def to_string(self, cover):
        if not self.syllables:
            return "1"
        parts = []
        for s in self.syllables:
            if s[0] == SYL_CONST:
                parts.append(cover.group.name(s[1]))
            else:
                parts.append(
                    f"x{s[1] + 1}" if s[2] == 1 else f"x{s[1] + 1}^{s[2]}"
                )
        return "*".join(parts)

    def height(self, cover):
        """Variable exponent sum plus grades of constant syllables."""
        total = 0
        for s in self.syllables:
            total += cover.grade(s[1]) if s[0] == SYL_CONST else s[2]
        return total


def _push_syllable(stack, syl, grp):
    while True:
        if syl is None:
            return
        if not stack:
            stack.append(syl)
            return
        top = stack[-1]
        if top[0] == SYL_CONST and syl[0] == SYL_CONST:
            c = grp.mul(top[1], syl[1])
            stack.pop()
            if c == grp.identity:
                return
            syl = (SYL_CONST, c)
            continue
        if top[0] == SYL_VAR and syl[0] == SYL_VAR and top[1] == syl[1]:
            e = top[2] + syl[2]
            stack.pop()
            if e == 0:
                return
            syl = (SYL_VAR, top[1], e)
            continue
        stack.append(syl)
        return


def _syl_mul(a, b, grp):
    stack = list(a)
    for syl in b:
        _push_syllable(stack, syl, grp)
    return tuple(stack)


def _syl_inv(a, grp):
    out = []
    for s in reversed(a):
        if s[0] == SYL_CONST:
            out.append((SYL_CONST, grp.inv(s[1])))
        else:
            out.append((SYL_VAR, s[1], -s[2]))
    return tuple(out)


def _syl_pow(a, k, grp):
    if k < 0:
        return _syl_pow(_syl_inv(a, grp), -k, grp)
    out = ()
    for _ in range(k):
        out = _syl_mul(out, a, grp)
    return out


def normalize_term(t, p, cover=None):
    """Normal form of a term as an element of the free product of p's
    cover with the free group on the variables. Equal terms (under the
    n-ary laws and the cover relations) get identical normal forms."""
    if cover is None:
        from .cover import build_post_cover

        cover = build_post_cover(p)
    grp = cover.group
    n = cover.n

    def rec(t):
        if isinstance(t, Variable):
            return ((SYL_VAR, t.index, 1),)
        if isinstance(t, Constant):
            return ((SYL_CONST, cover.embed_index(t.element)),)
        if isinstance(t, Skew):
            return _syl_pow(rec(t.child), 2 - n, grp)
        if len(t.children) != n:
            raise ArityMismatch(n, len(t.children))
        acc = ()
        for c in t.children:
            acc = _syl_mul(acc, rec(c), grp)
        return acc

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
    if isinstance(t, GVar):
        if t.index >= len(assignment) or assignment[t.index] is None:
            raise UnboundVariable(t.index)
        return assignment[t.index]
    if isinstance(t, GConst):
        return t.element
    if isinstance(t, GOne):
        return g.identity
    if isinstance(t, GInv):
        return g.inv(eval_group_term(t.child, assignment, g))
    return g.mul(
        eval_group_term(t.left, assignment, g),
        eval_group_term(t.right, assignment, g),
    )


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
    return Equation(group_to_polyadic(left, a, n), group_to_polyadic(right, a, n))


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


def _gproduct(factors):
    out = factors[-1]
    for u in reversed(factors[:-1]):
        out = GMul(u, out)
    return out


def term_to_free_word(t, generators, n):
    """Coefficient-free flattening into the free group on the generator
    names: variables map to generators, the operation to concatenation,
    skew to the (2-n)-th power."""
    if isinstance(t, Variable):
        return generator(generators[t.index])
    if isinstance(t, Constant):
        raise PolyadicError("constants are not allowed in presentations")
    if isinstance(t, Skew):
        return term_to_free_word(t.child, generators, n) ** (2 - n)
    if len(t.children) != n:
        raise ArityMismatch(n, len(t.children))
    acc = FreeWord()
    for c in t.children:
        acc = acc * term_to_free_word(c, generators, n)
    return acc


# ---------------------------------------------------------------------------
# text grammar

_TOKEN = re.compile(r"\s*([A-Za-z0-9_]+|\^-?[0-9]+|[(),=~*'])")
_VAR = re.compile(r"x([0-9]+)$")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Resolver:
    """Classifies identifiers. Variables are x1, x2, ...; other names are
    either generator names (presentations) or element names of the loaded
    group, with an optional leading c before an element name."""

    def __init__(self, element_names=None, generators=None):
        self.elements = (
            {s: i for i, s in enumerate(element_names)} if element_names else None
        )
        self.generators = (
            {s: i for i, s in enumerate(generators)} if generators is not None else None
        )

    def atom(self, name, col):
        if self.generators is not None:
            if name in self.generators:
                return Variable(self.generators[name])
            raise ParseError(f"unknown generator {name!r}", column=col)
        m = _VAR.match(name)
        if m:
            k = int(m.group(1))
            if k < 1:
                raise ParseError("variables are numbered from x1", column=col)
            return Variable(k - 1)
        if self.elements is not None:
            if name in self.elements:
                return Constant(self.elements[name])
            if name[0] == "c" and name[1:] in self.elements:
                return Constant(self.elements[name[1:]])
        raise ParseError(f"unknown name {name!r}", column=col)


class _TermParser:
    def __init__(self, tokens, resolver):
        self.tokens = tokens
        self.pos = 0
        self.resolver = resolver

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
        if not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            raise ParseError(f"expected a term, found {tok!r}", column=col)
        return self.resolver.atom(tok, col)


def parse_term(text, element_names=None, generators=None):
    """Parse the n-ary term grammar: f(t1,...,tn), ~t for the skew,
    x1, x2, ... for variables, anything else a constant (optionally
    written with a leading c, as in c2 for the element named 2)."""
    parser = _TermParser(_tokenize(text), _Resolver(element_names, generators))
    t = parser.term()
    if parser.pos != len(parser.tokens):
        raise ParseError(
            f"trailing input {parser.tokens[parser.pos][0]!r}",
            column=parser.tokens[parser.pos][1],
        )
    return t


def parse_equation(text, element_names=None, generators=None):
    parser = _TermParser(_tokenize(text), _Resolver(element_names, generators))
    left = parser.term()
    parser.expect("=")
    right = parser.term()
    if parser.pos != len(parser.tokens):
        raise ParseError(
            f"trailing input {parser.tokens[parser.pos][0]!r}",
            column=parser.tokens[parser.pos][1],
        )
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


class _GroupTermParser:
    """Binary group terms: juxtaposition or * for products (grouped to
    the right), postfix ' or ^-1 for inverses, ^k for powers, 1 for the
    identity, parentheses for grouping."""

    def __init__(self, tokens, element_names):
        self.tokens = tokens
        self.pos = 0
        self.elements = {s: i for i, s in enumerate(element_names)}

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def product(self):
        factors = [self.factor()]
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
                factors.append(self.factor())
            elif nxt is not None and (re.fullmatch(r"[A-Za-z0-9_]+", nxt) or nxt == "("):
                factors.append(self.factor())
            else:
                break
        return _gproduct(factors)

    def factor(self):
        tok, col = self.next()
        if tok == "(":
            base = self.product()
            tok2, col2 = self.next()
            if tok2 != ")":
                raise ParseError(f"expected ')', found {tok2!r}", column=col2)
        elif re.fullmatch(r"[A-Za-z0-9_]+", tok):
            base = self.atom(tok, col)
        else:
            raise ParseError(f"expected a factor, found {tok!r}", column=col)
        while True:
            nxt = self.peek()
            if nxt == "'":
                self.next()
                base = GInv(base)
            elif nxt is not None and nxt.startswith("^"):
                self.next()
                base = _gpower(base, int(nxt[1:]))
            else:
                return base

    def atom(self, name, col):
        if name == "1":
            return GOne()
        m = _VAR.match(name)
        if m:
            k = int(m.group(1))
            if k < 1:
                raise ParseError("variables are numbered from x1", column=col)
            return GVar(k - 1)
        if name in self.elements:
            return GConst(self.elements[name])
        if name[0] == "c" and name[1:] in self.elements:
            return GConst(self.elements[name[1:]])
        raise ParseError(f"unknown name {name!r}", column=col)


def _gpower(base, k):
    if k == 0:
        return GOne()
    if k < 0:
        return GInv(_gpower(base, -k))
    return _gproduct([base] * k)


def parse_group_term(text, element_names):
    parser = _GroupTermParser(_tokenize(text), element_names)
    t = parser.product()
    if parser.pos != len(parser.tokens):
        raise ParseError(
            f"trailing input {parser.tokens[parser.pos][0]!r}",
            column=parser.tokens[parser.pos][1],
        )
    return t


def parse_group_equation(text, element_names):
    parser = _GroupTermParser(_tokenize(text), element_names)
    left = parser.product()
    tok, col = parser.next()
    if tok != "=":
        raise ParseError(f"expected '=', found {tok!r}", column=col)
    right = parser.product()
    if parser.pos != len(parser.tokens):
        raise ParseError(
            f"trailing input {parser.tokens[parser.pos][0]!r}",
            column=parser.tokens[parser.pos][1],
        )
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
