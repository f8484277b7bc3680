import itertools
import random

import pytest

from polyadic.core import derive, retract
from polyadic.cover import build_post_cover
from polyadic.errors import (
    ArityMismatch,
    ParseError,
    PolyadicError,
    SizeCapExceeded,
    UnboundVariable,
)
from polyadic import terms
from polyadic.groups import automorphism, cyclic_group, identity_automorphism
from polyadic.terms import (
    MAX_TERM_DEPTH,
    MAX_TERM_NODES,
    Apply,
    Constant,
    Equation,
    GConst,
    GInv,
    GMul,
    GOne,
    GVar,
    Skew,
    TermCompiler,
    Variable,
    eval_equation,
    eval_group_term,
    eval_term,
    group_term_to_string,
    group_to_polyadic,
    group_to_polyadic_equation,
    is_coefficient_free,
    normalize_term,
    parse_equation,
    parse_group_equation,
    parse_group_term,
    parse_term,
    polyadic_to_group,
    polyadic_to_group_equation,
    term_to_free_word,
    term_to_string,
    terms_equal,
    term_variables,
    validate_term,
)

NAMES = ["0", "1", "2"]


def test_parse_term_variables_and_constants():
    t = parse_term("f(x1, ~x2, c2)", element_names=NAMES)
    assert t == Apply((Variable(0), Skew(Variable(1)), Constant(2)))
    assert term_variables(t) == {0, 1}
    assert not is_coefficient_free(t)
    assert is_coefficient_free(parse_term("f(x1,x1,x1)", element_names=NAMES))


def test_parse_term_bare_constant_names():
    assert parse_term("2", element_names=NAMES) == Constant(2)
    assert parse_term("c2", element_names=NAMES) == Constant(2)
    with pytest.raises(ParseError):
        parse_term("q", element_names=NAMES)
    with pytest.raises(ParseError):
        parse_term("f(x1,x2", element_names=NAMES)


@pytest.mark.parametrize(
    "text, char, column",
    [("x1 $", "$", 3), ("f(x1,\t  %", "%", 8), ("x1$", "$", 2), ("  !", "!", 2)],
)
def test_tokenizer_names_the_first_bad_character(text, char, column):
    """The error names the first character that starts no token, not the
    whitespace before it, at its 0-based offset."""
    with pytest.raises(ParseError) as info:
        parse_term(text, element_names=NAMES)
    assert str(info.value) == f"line 1, column {column}: unexpected character {char!r}"
    with pytest.raises(ParseError) as info:
        parse_equation(text + " = x1", element_names=NAMES)
    assert info.value.column == column


def test_parse_depth_bound_keeps_walkers_inside_the_stack():
    z3 = cyclic_group(3)
    p = derive(z3, identity_automorphism(z3), 0, 6)
    names = list(p.names())
    # nested in the last argument, the deepest chain in the group
    # translation; the innermost ~x1 is at the bound
    levels = MAX_TERM_DEPTH - 1
    deepest = "f(x1,1,x1,~x1,2," * levels + "x1" + ")" * levels
    t = parse_term(deepest, element_names=names)
    assert term_to_string(t, p) == deepest
    value = eval_term(t, [1], p)
    assert TermCompiler(p)(t)([1]) == value
    cover = build_post_cover(p)
    g = polyadic_to_group(t, cover)
    group_term_to_string(g, cover.group)
    assert eval_group_term(g, [cover.embed_index(1)], cover.group) == cover.embed_index(value)
    normalize_term(t, p, cover)
    skews = "~" * MAX_TERM_DEPTH + "x1"
    assert term_to_string(parse_term(skews, element_names=names), p) == skews
    for text in ("~" + skews, "f(x1,x1,x1,x1,x1," + deepest + ")"):
        with pytest.raises(ParseError):
            parse_term(text, element_names=names)
    with pytest.raises(ParseError):
        parse_equation("x1 = ~" + skews, element_names=names)


def test_compiled_f_nodes_are_one_loop_at_any_arity():
    """An f node compiles to one run of lookups, not one closure per
    argument: 1001-ary terms evaluate as eval_term does, within the
    interpreter's stack, and a variable-free one is a constant at compile
    time."""
    z3 = cyclic_group(3)
    n = 1001
    p = derive(z3, automorphism(z3, (0, 2, 1)), 0, n)
    compiler = TermCompiler(p)
    rng = random.Random(7)
    leaves = [Variable(0), Variable(1), Constant(1), Constant(2), Skew(Variable(0))]
    for _ in range(3):
        inner = Apply(tuple(rng.choice(leaves) for _ in range(n)))
        kids = [rng.choice(leaves) for _ in range(n)]
        kids[rng.randrange(n)] = inner
        t = Apply(tuple(kids))
        fn = compiler(t)
        for a in itertools.product(range(3), repeat=2):
            assert fn(a) == eval_term(t, a, p)
    constant = Apply(tuple(Constant(rng.randrange(3)) for _ in range(n)))
    assert compiler.node(constant) == eval_term(constant, (), p)


def test_parse_term_generator_mode():
    t = parse_term("f(~x, y, x)", generators=["x", "y"])
    assert t == Apply((Skew(Variable(0)), Variable(1), Variable(0)))
    with pytest.raises(PolyadicError):
        term_to_free_word(
            parse_term("c1", element_names=NAMES), ["x"], 3
        )


def test_eval_term_and_equation(p2):
    t = parse_term("f(x1, x1, x1)", element_names=NAMES)
    assert eval_term(t, (2,), p2) == 2
    assert eval_term(t, (1,), p2) == 1
    eq = parse_equation("f(x1,x1,x1) = c2", element_names=NAMES)
    assert eval_equation(eq, (2,), p2)
    assert not eval_equation(eq, (0,), p2)
    with pytest.raises(UnboundVariable):
        eval_term(parse_term("x3", element_names=NAMES), (0, 1), p2)
    with pytest.raises(ArityMismatch):
        eval_term(Apply((Variable(0), Variable(0))), (1,), p2)


def test_validate_term():
    validate_term(parse_term("f(x1,x2,x1)", element_names=NAMES), 3, 2)
    with pytest.raises(UnboundVariable):
        validate_term(parse_term("x3", element_names=NAMES), 3, 2)
    with pytest.raises(ArityMismatch):
        validate_term(Apply((Variable(0),) * 4), 3, 2)


def test_term_to_string_roundtrip(p2):
    for text in ("f(x1,~x2,2)", "~f(x1,x1,x1)", "f(f(x1,x1,x1),x2,c0)"):
        t = parse_term(text, element_names=NAMES)
        s = term_to_string(t, p2)
        assert parse_term(s, element_names=NAMES) == t


def test_normalize_reassociation(p2):
    # nested applications that flatten to the same syllable word
    inner = parse_term("f(x1,x2,x3)", element_names=NAMES)
    left = Apply((inner, Variable(3), Variable(4)))
    right = Apply((Variable(0), Apply((Variable(1), Variable(2), Variable(3))), Variable(4)))
    assert terms_equal(left, right, p2)
    nl = normalize_term(left, p2)
    nr = normalize_term(right, p2)
    assert nl == nr


def test_normalize_detects_difference(p2):
    a = parse_term("f(x1,x2,x3)", element_names=NAMES)
    b = parse_term("f(x2,x1,x3)", element_names=NAMES)
    assert not terms_equal(a, b, p2)


def test_normalize_skew_cancellation(p2):
    # f(x,...,x, ~x) with n-1 copies equals x in every polyadic group,
    # and the normal form agrees
    t = Apply((Variable(0), Variable(0), Skew(Variable(0))))
    assert terms_equal(t, Variable(0), p2)


def old_normal_form(t, cover):
    """The syllables of normalize_term as computed before its one-pass
    reducer: each syllable pushed with cascading merges, an f node as n-1
    products of its children's forms, a skew as n-2 products of its
    child's inverse. Frozen here as the oracle."""
    grp, n = cover.group, cover.n

    def push(stack, syl):
        while True:
            if syl is None:
                return
            if not stack:
                stack.append(syl)
                return
            top = stack[-1]
            if top[0] == "c" and syl[0] == "c":
                c = grp.mul(top[1], syl[1])
                stack.pop()
                if c == grp.identity:
                    return
                syl = ("c", c)
                continue
            if top[0] == "v" and syl[0] == "v" and top[1] == syl[1]:
                e = top[2] + syl[2]
                stack.pop()
                if e == 0:
                    return
                syl = ("v", top[1], e)
                continue
            stack.append(syl)
            return

    def mul(a, b):
        stack = list(a)
        for syl in b:
            push(stack, syl)
        return tuple(stack)

    def inv(a):
        return tuple(
            ("c", grp.inv(s[1])) if s[0] == "c" else ("v", s[1], -s[2]) for s in reversed(a)
        )

    def power(a, k):
        if k < 0:
            return power(inv(a), -k)
        out = ()
        for _ in range(k):
            out = mul(out, a)
        return out

    def rec(t):
        if isinstance(t, Variable):
            return (("v", t.index, 1),)
        if isinstance(t, Constant):
            return (("c", cover.embed_index(t.element)),)
        if isinstance(t, Skew):
            return power(rec(t.child), 2 - n)
        acc = ()
        for c in t.children:
            acc = mul(acc, rec(c))
        return acc

    return rec(t)


def group_power(g, x, k):
    if k < 0:
        x, k = g.inv(x), -k
    out = g.identity
    while k:
        if k & 1:
            out = g.mul(out, x)
        x, k = g.mul(x, x), k >> 1
    return out


def eval_normal_form(word, assignment, cover):
    """The normal form's value in the cover group, each variable at the
    embedded value the assignment gives it."""
    g = cover.group
    acc = g.identity
    for s in word.syllables:
        if s[0] == "c":
            acc = g.mul(acc, s[1])
        else:
            acc = g.mul(acc, group_power(g, cover.embed_index(assignment[s[1]]), s[2]))
    return acc


def random_term(rng, n, order, m, depth):
    r = rng.random()
    if depth == 0 or r < 0.25:
        if r < 0.1:
            return Constant(rng.randrange(order))
        return Variable(rng.randrange(m))
    if r < 0.5:
        return Skew(random_term(rng, n, order, m, depth - 1))
    return Apply(tuple(random_term(rng, n, order, m, depth - 1) for _ in range(n)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_normal_form_matches_the_frozen_reducer(n, small_bases, random_derived):
    """On seeded random terms with constants and nested skews, over every
    small base with theta and b drawn from all valid pairs: the one-pass
    normal form has the frozen reducer's syllables, and evaluates in the
    cover, at embedded values, to the embedded value of the term."""
    rng = random.Random(1800 + n)
    twisted = nested = 0
    kinds = set()
    for base in small_bases * 3:
        p = random_derived(rng, base, (n,))
        twisted += any(p.theta(x) != x for x in p.elements())
        cover = build_post_cover(p)
        for _ in range(15):
            t = random_term(rng, n, p.order, 3, 3)
            word = normalize_term(t, p, cover)
            assert word.syllables == old_normal_form(t, cover), t
            a = [rng.randrange(p.order) for _ in range(3)]
            want = cover.embed_index(eval_term(t, a, p))
            assert eval_normal_form(word, a, cover) == want, (t, a)
            kinds |= {s[0] for s in word.syllables}
            nested += "~~" in term_to_string(t)
    assert twisted and nested and kinds == {"c", "v"}


def test_normal_form_refuses_a_reduction_past_max_term_nodes():
    """Over Z3 at n = 5 each skew over f(x1,1,x2,2,x1) triples its normal
    form: up to 7 skews match the frozen reducer, the 8th would reduce
    3 * 8749 syllables and is refused, and 100 skews over x1 are one
    syllable."""
    z3 = cyclic_group(3)
    p = derive(z3, identity_automorphism(z3), 0, 5)
    cover = build_post_cover(p)
    lengths = []
    for d in range(1, 8):
        t = parse_term("~" * d + "f(x1,1,x2,2,x1)", element_names=NAMES)
        word = normalize_term(t, p, cover)
        assert word.syllables == old_normal_form(t, cover)
        lengths.append(len(word.syllables))
    assert lengths == [13, 37, 109, 325, 973, 2917, 8749]
    t = parse_term("~" * 8 + "f(x1,1,x2,2,x1)", element_names=NAMES)
    assert len(old_normal_form(t, cover)) == 26245
    with pytest.raises(SizeCapExceeded) as e:
        normalize_term(t, p, cover)
    assert (e.value.what, e.value.size, e.value.cap) == (
        "normal form syllables", 3 * 8749, MAX_TERM_NODES
    )
    with pytest.raises(SizeCapExceeded):
        terms_equal(t, Variable(0), p, cover)
    skews = parse_term("~" * MAX_TERM_DEPTH + "x1", element_names=NAMES)
    word = normalize_term(skews, p, cover)
    assert word.syllables == old_normal_form(skews, cover) == (("v", 0, 3 ** 100),)


def test_group_term_parse_and_string():
    t = parse_group_term("x1*x2'", ["a", "b"])
    assert t == GMul(GVar(0), GInv(GVar(1)))
    assert group_term_to_string(t) == "x1*x2^-1"
    t2 = parse_group_term("a x1 b^2", ["a", "b"])
    assert isinstance(t2, GMul)
    assert parse_group_term("1", ["a", "b"]) == GOne()
    left, right = parse_group_equation("x1*x2 = 1", ["a", "b"])
    assert right == GOne()


def test_group_term_bounds_accept_their_limit():
    """Each bound of the group-term grammar admits its limit and refuses
    one more; the translation refuses what would exceed MAX_TERM_NODES."""
    names = ["a", "b"]
    m = MAX_TERM_DEPTH
    at_limit = [
        "(" * m + "x1" + ")" * m,
        f"x1^{m}",
        f"x1^-{m - 1}",
        " ".join(["x1"] * m),
        "x1" + "'" * (m - 1),
        "x1^0001",
    ]
    past_limit = [
        "(" * (m + 1) + "x1" + ")" * (m + 1),
        f"x1^{m + 1}",
        f"x1^-{m}",
        " ".join(["x1"] * (m + 1)),
        "x1" + "'" * m,
        "x1" + "^2" * 13,
        "x1234567890",
    ]
    for text in at_limit:
        parse_group_term(text, names)
    for text in past_limit:
        with pytest.raises(ParseError):
            parse_group_term(text, names)
    assert parse_group_term("x1^0001", names) == GVar(0)
    # 2^12 leaves and 2^12 - 1 products parse; one more doubling does not
    parse_group_term("x1" + "^2" * 12, names)
    assert 2 ** 13 - 1 <= MAX_TERM_NODES < 2 ** 14 - 1
    # an inverse repeats its argument n - 2 times in the translation
    deep = parse_group_term("x1" + "'" * 12, names)
    group_to_polyadic_equation(deep, GOne(), 0, 3)
    with pytest.raises(SizeCapExceeded):
        group_to_polyadic_equation(deep, GOne(), 0, 6)


def test_group_term_eval():
    from polyadic.groups import cyclic_group

    z3 = cyclic_group(3)
    t = parse_group_term("x1*x2'", ["0", "1", "2"])
    assert eval_group_term(t, (1, 2), z3) == (1 - 2) % 3
    assert eval_group_term(GOne(), (), z3) == 0


def test_group_to_polyadic_matches_retract(p2):
    # evaluating the translated term in P equals evaluating the original
    # in the retract at a, for every anchor and assignment
    t = GMul(GVar(0), GMul(GConst(1), GInv(GVar(1))))
    for a in p2.elements():
        g = retract(p2, a)
        pt = group_to_polyadic(t, a, p2.n)
        for asg in itertools.product(range(3), repeat=2):
            want = eval_group_term(t, asg, g)
            got = eval_term(pt, asg, p2)
            assert want == got, (a, asg)


def test_polyadic_to_group_matches_cover(p2):
    cover = build_post_cover(p2)
    t = parse_term("f(x1, ~x2, c2)", element_names=NAMES)
    gt = polyadic_to_group(t, cover)
    for asg in itertools.product(range(3), repeat=2):
        lifted = tuple(cover.embed_index(v) for v in asg)
        want = cover.embed_index(eval_term(t, asg, p2))
        got = eval_group_term(gt, lifted, cover.group)
        assert want == got, asg


def test_nested_skews_evaluate_in_linear_time():
    """`polyadic_to_group` repeats a skew's child n-2 times as one object;
    evaluating it once keeps nested skews linear in their depth."""

    class CountingGroup:
        def __init__(self, g):
            self.g, self.identity, self.muls = g, g.identity, 0

        def mul(self, a, b):
            self.muls += 1
            return self.g.mul(a, b)

        def inv(self, a):
            return self.g.inv(a)

    z3 = cyclic_group(3)
    p = derive(z3, identity_automorphism(z3), 0, 6)
    cover = build_post_cover(p)
    t = parse_term("~" * 8 + "x1", element_names=NAMES)
    counting = CountingGroup(cover.group)
    got = eval_group_term(polyadic_to_group(t, cover), [cover.embed_index(1)], counting)
    assert got == cover.embed_index(eval_term(t, [1], p))
    assert counting.muls == 8 * 3


def group_nodes(t):
    """Nodes of a binary group term, every copy of a shared subterm
    counted, as its printed form shows them."""
    if isinstance(t, GMul):
        return 1 + group_nodes(t.left) + group_nodes(t.right)
    if isinstance(t, GInv):
        return 1 + group_nodes(t.child)
    return 1


def test_polyadic_to_group_equation_counts_printed_nodes():
    """At n = 5 a skew becomes the inverse of a product of three copies of
    its child: 7 nested skews stay under MAX_TERM_NODES, 8 do not, and the
    cap error gives the size of the tree it would have built."""
    z3 = cyclic_group(3)
    cover = build_post_cover(derive(z3, identity_automorphism(z3), 0, 5))
    right = parse_term("f(x1,c1,x2,~x1,x2)", element_names=NAMES)
    for depth in (0, 1, 2, 7, 8):
        left = parse_term("~" * depth + "x1", element_names=NAMES)
        want = [polyadic_to_group(left, cover), polyadic_to_group(right, cover)]
        size = sum(map(group_nodes, want))
        if size <= MAX_TERM_NODES:
            assert list(polyadic_to_group_equation(left, right, cover)) == want
            continue
        assert depth == 8
        with pytest.raises(SizeCapExceeded) as e:
            polyadic_to_group_equation(left, right, cover)
        assert (e.value.what, e.value.size) == ("translated term nodes", size)


def old_translated_nodes(t, n, memo):
    """Frozen counter: nodes of group_to_polyadic(t, a, n), read off t by
    the builder's expansion rule before anything was built."""
    key = id(t)
    if key not in memo:
        if isinstance(t, (GVar, GConst)):
            memo[key] = 1
        elif isinstance(t, GOne):
            memo[key] = 2
        elif isinstance(t, GMul):
            memo[key] = (
                n - 1 + old_translated_nodes(t.left, n, memo)
                + old_translated_nodes(t.right, n, memo)
            )
        else:
            memo[key] = 6 + (n - 2) * old_translated_nodes(t.child, n, memo)
    return memo[key]


def old_group_nodes(t, n, memo):
    """Frozen counter: nodes of polyadic_to_group(t, cover) at arity n."""
    key = id(t)
    if key not in memo:
        if isinstance(t, (Variable, Constant)):
            memo[key] = 1
        elif isinstance(t, Skew):
            memo[key] = (n - 2) * (1 + old_group_nodes(t.child, n, memo))
        else:
            memo[key] = n - 1 + sum(old_group_nodes(c, n, memo) for c in t.children)
    return memo[key]


def random_group_text(rng, depth):
    """A binary group term in the text grammar, with powers, inverses and
    the identity; a power repeats its base as one object when parsed."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice(["x1", "x2", "x3", "1", "0", "2"])
    if r < 0.5:
        suffix = rng.choice(["'", "^-1", f"^{rng.randint(-4, 4)}"])
        return f"({random_group_text(rng, depth - 1)}){suffix}"
    factors = [random_group_text(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return " * ".join(factors)


def assert_counted(translate, want):
    """translate() refuses exactly when want is past MAX_TERM_NODES,
    naming it, and otherwise returns two sides whose trees have want
    nodes. Returns whether it refused."""
    try:
        got = translate()
    except SizeCapExceeded as e:
        assert (e.what, e.size) == ("translated term nodes", want)
        assert want > MAX_TERM_NODES
        return True
    if isinstance(got, Equation):
        got = got.left, got.right
    memo = {}
    assert sum(terms._tree_nodes(t, memo) for t in got) == want <= MAX_TERM_NODES
    return False


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_translated_node_counts_match_the_frozen_counters(n):
    """Both translations count the trees they built. On seeded n-ary terms
    up to depth 6 and parsed group equations up to depth 5, that count is
    what the frozen counters gave, so the cap refuses the same cases
    (from n = 5, where a skew repeats its child three times)."""
    rng = random.Random(2400 + n)
    z3 = cyclic_group(3)
    cover = build_post_cover(derive(z3, identity_automorphism(z3), 0, n))
    verdicts = set()
    for _ in range(60):
        left, right = (random_term(rng, n, 3, 3, 6) for _ in range(2))
        memo = {}
        want = old_group_nodes(left, n, memo) + old_group_nodes(right, n, memo)
        verdicts.add(assert_counted(
            lambda: polyadic_to_group_equation(left, right, cover), want
        ))
        text = f"{random_group_text(rng, 5)} = {random_group_text(rng, 5)}"
        left, right = parse_group_equation(text, NAMES)
        a = rng.randrange(3)
        memo = {}
        want = old_translated_nodes(left, n, memo) + old_translated_nodes(right, n, memo)
        verdicts.add(assert_counted(
            lambda: group_to_polyadic_equation(left, right, a, n), want
        ))
    assert verdicts == ({False, True} if n >= 5 else {False})


def test_group_to_polyadic_identity_and_inverse_forms(p2):
    n = p2.n
    anchor = Constant(1)
    t = group_to_polyadic(GOne(), 1, n)
    assert t == Skew(anchor)
    t2 = group_to_polyadic(GInv(GVar(0)), 1, n)
    assert isinstance(t2, Apply)
    assert t2.children[0] == Skew(anchor)
    assert t2.children[-1] == Skew(anchor)
    assert t2.children[-2] == Skew(Variable(0))


def test_nested_translation_keeps_inner_constant(p7):
    # golden shape for the worked two-variable equation with coefficients
    # b x^2 y^-1 c x = 1: the translation must keep the constant c inside
    # the nest (dropping it is a known transcription slip)
    s3names = list(p7.names())
    b = p7.index("021")
    c = p7.index("120")
    a = p7.index("102")
    t = GMul(
        GConst(b),
        GMul(GVar(0), GMul(GVar(0), GMul(GInv(GVar(1)), GMul(GConst(c), GVar(0))))),
    )
    pt = group_to_polyadic(t, a, p7.n)
    rendered = term_to_string(pt, p7)
    assert s3names[c] in rendered
    # eliding c reproduces the shorter display shape
    t_no_c = GMul(GConst(b), GMul(GVar(0), GMul(GVar(0), GMul(GInv(GVar(1)), GVar(0)))))
    short = term_to_string(group_to_polyadic(t_no_c, a, p7.n), p7)
    assert short != rendered
    assert len(short) < len(rendered)


def test_random_translation_agreement(p4):
    # random binary trees of group terms agree with their translations
    rng = random.Random(5)
    names = list(p4.names())

    def random_gterm(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if r < 0.1:
                return GConst(rng.randrange(4))
            return GVar(rng.randrange(2))
        if r < 0.5:
            return GInv(random_gterm(depth - 1))
        return GMul(random_gterm(depth - 1), random_gterm(depth - 1))

    for _ in range(25):
        t = random_gterm(3)
        for a in p4.elements():
            g = retract(p4, a)
            pt = group_to_polyadic(t, a, p4.n)
            for asg in itertools.product(range(4), repeat=2):
                assert eval_group_term(t, asg, g) == eval_term(pt, asg, p4)
