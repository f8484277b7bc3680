import random
import re

import pytest

import polyadic
from polyadic import errors, words
from polyadic.cli import main
from polyadic.terms import parse_term, term_to_free_word

from polyadic.errors import ArityMismatch, HeightViolation, ParseError, PolyadicError
from polyadic.words import (
    FreeWord,
    PolyadicFreeWord,
    f_free,
    generator,
    parse_word,
    reduce_word,
    skew_free,
)

x = generator("x")
y = generator("y")


def test_reduction_basics():
    assert str(x * y * y.inv() * x) == "x^2"
    assert (x * x.inv()).is_empty()
    assert str(FreeWord(())) == "1"
    w = reduce_word([("x", 1), ("x", 1), ("x", -1), ("y", 1)])
    assert str(w) == "x*y"


def test_height_and_powers():
    w = x ** 2 * y.inv() * x * y ** 2
    assert w.height == 4
    assert (x ** -3).height == -3
    assert w.inv().height == -4
    assert len(x ** 2 * y) == 3


def test_parse_word_syntax():
    assert str(parse_word("x*y*y^-1*x")) == "x^2"
    assert str(parse_word("x y y' x")) == "x^2"
    assert str(parse_word("x^3*y^-2")) == "x^3*y^-2"
    assert parse_word("1").is_empty()
    assert str(parse_word("xy' * z")) == "xy^-1*z"
    with pytest.raises(ParseError):
        parse_word("x +")
    with pytest.raises(ParseError):
        parse_word("~x")


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("a  $", "unexpected character '$'", 3),
        ("a$", "unexpected character '$'", 1),
        ("\t+", "unexpected character '+'", 1),
        ("x ^ 2", "unexpected character '^'", 2),
        ("x ~y", "skew marks are not free-group syntax", 3),
        (" ' x", "power with no base", 2),
        ("x^1234567890", "exponent has more than 9 digits", 12),
    ],
)
def test_parse_word_error_columns(text, message, column):
    """A bad character is the first one that starts no token, after any
    whitespace before it, at its 0-based offset; a bad token is reported
    at its end."""
    with pytest.raises(ParseError) as info:
        parse_word(text)
    assert str(info.value) == f"line 1, column {column}: {message}"
    assert info.value.column == column


def test_parse_word_ignores_trailing_whitespace():
    assert str(parse_word(" x\t y' \n ")) == "x*y^-1"
    assert parse_word(" \t ").is_empty()


@pytest.mark.parametrize(
    "text, word",
    [
        ("b 1'", "b"),
        ("b 1^-1", "b"),
        ("b*1^3", "b"),
        ("b 1 '", "b"),
        ("1'", "1"),
        ("1^2", "1"),
        ("1^2'^-5 a", "a"),
        ("a^2^3", "a^6"),
        ("a'^2 1", "a^-2"),
    ],
)
def test_postfix_acts_on_the_base_before_it(text, word):
    """'1' is a base whose powers are empty, so a postfix after it never
    reaches back to the run before it."""
    assert str(parse_word(text)) == word


def test_freereduce_powers_of_1(capsys):
    assert main(["freereduce", "b 1'"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "word": "b",\n  "height": 1,\n  "length": 1\n}\n'
    )


def test_powers_reduce_once(monkeypatch):
    """w^k is one reduction over k copies of the runs, not k products each
    re-reducing the word so far; an f node is one reduction over its
    children's runs."""
    calls = []
    reduce_runs = words._reduce_runs
    monkeypatch.setattr(
        words, "_reduce_runs", lambda runs: calls.append(1) or reduce_runs(runs)
    )
    w = x * y
    calls.clear()
    assert (w ** 1000).runs == (("x", 1), ("y", 1)) * 1000
    assert len(calls) == 1
    assert (w ** -3).runs == (("y", -1), ("x", -1)) * 3
    assert (w ** 0).is_empty()
    n = 51
    calls.clear()
    t = parse_term("~f(" + ",".join(["x1", "x2"] * 25 + ["x1"]) + ")")
    got = term_to_free_word(t, ["x", "y"], n)
    # one per leaf, one for the f node, two for the skew power (w^-1 first)
    assert len(calls) == n + 3
    want = FreeWord()
    for _ in range(n - 2):
        want = want * FreeWord((("x", -1),) + (("y", -1), ("x", -1)) * 25)
    assert got == want
    calls.clear()
    assert f_free([x] * n, n).word.runs == (("x", n),)
    assert len(calls) == 1


# the tokenizer parse_word replaced (one finditer match per token), with 1
# made a base whose powers are empty, and the stack reduction before it:
# frozen references for the split-based parse and the one-pass reduction
_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z0-9_]+)|(?P<inv>')|(?P<power>\^-?[0-9]+)|\*"
    r"|(?P<skew>~)|(?=(?P<bad>\S)))"
)


def _reference_parse(text):
    runs = []
    for m in _REFERENCE_TOKEN.finditer(text):
        name, inv, power, skew, bad = m.groups()
        if name:
            runs.append((name, 0 if name == "1" else 1))
        elif inv or power:
            if not runs:
                raise ParseError("power with no base", column=m.end())
            g, e = runs.pop()
            runs.append((g, -e if inv else e * _reference_exponent(power, m.end())))
        elif skew:
            raise ParseError("skew marks are not free-group syntax", column=m.end())
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", column=m.start("bad"))
    return _reference_reduce(runs)


def _reference_exponent(tok, col):
    digits = tok.lstrip("^-").lstrip("0") or "0"
    if len(digits) > 9:
        raise ParseError("exponent has more than 9 digits", column=col)
    return -int(digits) if tok[1] == "-" else int(digits)


def _reference_reduce(runs):
    stack = []
    for g, e in runs:
        if e == 0:
            continue
        while stack and stack[-1][0] == g:
            e += stack.pop()[1]
            if e == 0:
                break
        if e != 0:
            stack.append((g, e))
    return tuple(stack)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.column


# names (1, 01 and 1a among them), lone and attached postfixes with leading
# zeros and 10 or more digits, ~ $ - and a bare ^, separators including
# non-ASCII whitespace; fragments also glue into longer names and exponents
_FRAGMENTS = (
    ["a", "b", "ab", "x_1", "1", "01", "1a", "0", "7", "_"]
    + ["'", "^2", "^-3", "^0", "^-0", "^007", "^-0001", "^999999999"]
    + ["^1234567890", "^-98765432101", "^00000000000042"]
    + ["~", "$", "^", "-", "é"]
    + ["*", " ", "  ", "\t", "\n", "\u00a0", "\u2003", " * "]
)


def test_parse_word_matches_the_finditer_reference():
    rng = random.Random(1515)
    for _ in range(100_000):
        text = rng.choice(("", "a")) + "".join(
            rng.choice(_FRAGMENTS) for _ in range(rng.randrange(13))
        )
        got = _outcome(lambda s: parse_word(s).runs, text)
        assert got == _outcome(_reference_parse, text), text


def test_reduction_matches_the_stack_reference():
    rng = random.Random(1516)
    for _ in range(20_000):
        runs = tuple(
            (rng.choice("abc"), rng.randint(-2, 2)) for _ in range(rng.randrange(16))
        )
        assert FreeWord(runs).runs == _reference_reduce(runs), runs


def test_polyadic_free_word_membership():
    PolyadicFreeWord(x ** 4, 4)
    with pytest.raises(HeightViolation):
        PolyadicFreeWord(x ** 2, 4)
    w = x ** 2 * y.inv() * x * y ** 2
    PolyadicFreeWord(w, 4)
    for n in (0, 1, 2):
        with pytest.raises(PolyadicError, match="arity must be at least 3"):
            PolyadicFreeWord(x, n)


def test_f_free_heights_and_arity():
    out = f_free([x, y, x], 3)
    assert out.word == x * y * x
    with pytest.raises(ArityMismatch):
        f_free([x, y], 3)
    with pytest.raises(HeightViolation) as info:
        f_free([x, x ** 2, x], 3)
    assert info.value.index == 1
    for n in (0, 1, 2):
        with pytest.raises(PolyadicError, match="arity must be at least 3"):
            f_free([x] * n, n)


def test_skew_free_checks_the_arity(monkeypatch):
    """The arity is checked before w^(2-n) builds |n - 2| copies of w."""
    for n in (0, 1, 2):
        with pytest.raises(PolyadicError, match="arity must be at least 3"):
            skew_free(x, n)
    powers = []
    monkeypatch.setattr(FreeWord, "__pow__", lambda w, k: powers.append(k))
    with pytest.raises(PolyadicError, match="arity must be at least 3"):
        skew_free(x, -10 ** 12)
    assert powers == []


def test_f_free_associativity_random():
    rng = random.Random(2024)
    gens = [generator(g) for g in "abc"]
    for _ in range(300):
        n = rng.choice((3, 4, 5))
        words = []
        for _ in range(2 * n - 1):
            w = FreeWord(())
            for _ in range(n - 1):
                w = w * rng.choice(gens) ** rng.choice((1, 1, -1, 2))
            # adjust to height 1 mod n-1
            h = w.height
            w = w * gens[0] ** ((1 - h) % (n - 1))
            words.append(w)
        left = f_free([f_free(words[:n], n)] + words[n:], 3 if n == 3 else n).word
        for i in range(1, n):
            inner = f_free(words[i : i + n], n)
            outer = f_free(words[:i] + [inner] + words[i + n :], n)
            assert outer.word == left, (n, i)


def test_skew_free_defining_identity_random():
    rng = random.Random(77)
    gens = [generator(g) for g in "uvw"]
    for _ in range(300):
        n = rng.choice((3, 4, 5))
        w = FreeWord(())
        while (w.height - 1) % (n - 1) != 0 or w.is_empty():
            w = w * rng.choice(gens) ** rng.choice((-2, -1, 1, 2, 3))
        s = skew_free(w, n)
        assert s.word == w ** (2 - n)
        got = f_free([w] * (n - 1) + [s], n)
        assert got.word == w



def test_deleted_letter_model_is_gone():
    """Free n-ary words have one model, the free-group words of height 1
    mod n - 1; a skew mark is no word syntax."""
    deleted = [
        "MpWord",
        "cancellation_piece",
        "insert_piece",
        "delete_piece",
        "mp_embed",
        "mp_equal",
        "mp_f",
        "parse_mp_word",
        "LengthViolation",
    ]
    for module in (polyadic, words, errors):
        for name in deleted:
            assert not hasattr(module, name), (module.__name__, name)
    with pytest.raises(ParseError, match="skew marks are not free-group syntax"):
        parse_word("x ~x x")
