"""Free groups of words and two models of the free n-ary group.

A free n-ary group on a generating set X sits inside the ordinary free
group on X as the words whose exponent sum (height) is congruent to 1
modulo n - 1; the n-ary operation is concatenation and the skew element
of w is w^(2-n). The second model works over the alphabet X together
with marked letters ~x and identifies words that differ by inserting or
deleting a block x^(i) ~x x^(n-2-i); equality there is decided through
the embedding x -> x, ~x -> x^(2-n).
"""

import re

from .errors import HeightViolation, LengthViolation, ParseError


class FreeWord:
    """Freely reduced word, stored as runs (generator, nonzero exponent)
    with distinct adjacent generators. Immutable and hashable."""

    __slots__ = ("runs",)

    def __init__(self, runs=()):
        self.runs = _reduce_runs(runs)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __mul__(self, other):
        return FreeWord(self.runs + other.runs)

    def inv(self):
        return FreeWord(tuple((g, -e) for g, e in reversed(self.runs)))

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = FreeWord()
        for _ in range(k):
            out = out * self
        return out

    @property
    def height(self):
        return sum(e for _, e in self.runs)

    def __len__(self):
        return sum(abs(e) for _, e in self.runs)

    def is_empty(self):
        return not self.runs

    def letters(self):
        """Expand runs into single-exponent letters (g, +1) / (g, -1)."""
        out = []
        for g, e in self.runs:
            step = 1 if e > 0 else -1
            out.extend((g, step) for _ in range(abs(e)))
        return out

    def __str__(self):
        if not self.runs:
            return "1"
        return "*".join(
            g if e == 1 else f"{g}^{e}" for g, e in self.runs
        )

    def __repr__(self):
        return f"FreeWord({self})"


def _reduce_runs(runs):
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


def generator(name):
    return FreeWord(((name, 1),))


def reduce_word(letters):
    """Free reduction of any iterable of (generator, exponent) pairs."""
    return FreeWord(tuple(letters))


def height(w):
    return w.height


class PolyadicFreeWord:
    """A free-group word together with the arity it lives under.

    Membership requires height congruent to 1 modulo n - 1.
    """

    __slots__ = ("word", "n")

    def __init__(self, word, n):
        if word.height % (n - 1) != 1 % (n - 1):
            raise HeightViolation(0, word.height, n)
        self.word = word
        self.n = n

    def __eq__(self, other):
        return (
            isinstance(other, PolyadicFreeWord)
            and self.word == other.word
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.word, self.n))

    def __str__(self):
        return str(self.word)

    def __repr__(self):
        return f"PolyadicFreeWord({self.word}, n={self.n})"


def f_free(operands, n):
    """n-ary operation on free polyadic words: concatenate and reduce."""
    if len(operands) != n:
        from .errors import ArityMismatch

        raise ArityMismatch(n, len(operands))
    acc = FreeWord()
    for i, w in enumerate(operands):
        w = w.word if isinstance(w, PolyadicFreeWord) else w
        if w.height % (n - 1) != 1 % (n - 1):
            raise HeightViolation(i, w.height, n)
        acc = acc * w
    return PolyadicFreeWord(acc, n)


def skew_free(w, n=None):
    """Skew element in the free model: the (2-n)-th power."""
    if isinstance(w, PolyadicFreeWord):
        n = w.n
        w = w.word
    return PolyadicFreeWord(w ** (2 - n), n)


# ---------------------------------------------------------------------------
# the letter model with marked skews


class MpWord:
    """Word over the alphabet X plus marked letters ~x, of length
    congruent to 1 modulo n - 1. Letters are (generator, marked) pairs."""

    __slots__ = ("letters", "n")

    def __init__(self, letters, n):
        letters = tuple((g, bool(m)) for g, m in letters)
        if len(letters) % (n - 1) != 1 % (n - 1):
            raise LengthViolation(len(letters), n)
        self.letters = letters
        self.n = n

    def __eq__(self, other):
        return (
            isinstance(other, MpWord)
            and self.letters == other.letters
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.letters, self.n))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(("~" + g) if m else g for g, m in self.letters)

    def __repr__(self):
        return f"MpWord({self}, n={self.n})"


def cancellation_piece(gen, i, n):
    """The i-th deletable block over one generator: g^(i) ~g g^(n-2-i).

    Valid for 0 <= i <= n-2; the block has n-1 letters and embeds to the
    empty word, so inserting or deleting it preserves both the length
    invariant and the embedded element.
    """
    if not 0 <= i <= n - 2:
        raise ValueError(f"piece index {i} out of range 0..{n - 2}")
    return (
        tuple((gen, False) for _ in range(i))
        + ((gen, True),)
        + tuple((gen, False) for _ in range(n - 2 - i))
    )


def insert_piece(m, pos, gen, i):
    """New word with the block cancellation_piece(gen, i) inserted at pos."""
    piece = cancellation_piece(gen, i, m.n)
    return MpWord(m.letters[:pos] + piece + m.letters[pos:], m.n)


def delete_piece(m, pos, gen, i):
    """Inverse of insert_piece; the block must be present at pos."""
    piece = cancellation_piece(gen, i, m.n)
    if m.letters[pos : pos + len(piece)] != piece:
        raise ValueError(f"no piece ({gen}, {i}) at position {pos}")
    return MpWord(m.letters[:pos] + m.letters[pos + len(piece) :], m.n)


def mp_embed(m):
    """Embedding into the free model: g -> g, ~g -> g^(2-n)."""
    runs = tuple(
        (g, 2 - m.n) if marked else (g, 1) for g, marked in m.letters
    )
    return PolyadicFreeWord(FreeWord(runs), m.n)


def mp_equal(m1, m2):
    """Cancellation equivalence, decided through the embedding.

    Soundness (moves never change the embedded word) is exact; whether
    distinct cancellation classes can embed equal is an open question, so
    equality here is the embedded-word relation by definition.
    """
    if m1.n != m2.n:
        return False
    return mp_embed(m1) == mp_embed(m2)


def mp_f(operands, n):
    """n-ary operation in the letter model: concatenation."""
    if len(operands) != n:
        from .errors import ArityMismatch

        raise ArityMismatch(n, len(operands))
    letters = ()
    for m in operands:
        letters = letters + m.letters
    return MpWord(letters, n)


# ---------------------------------------------------------------------------
# text syntax

# one alternative per kind of token; the last matches (empty) before the
# first character that starts no token, so an error names that character
_WORD_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z0-9_]+)|(?P<inv>')|(?P<power>\^-?[0-9]+)|\*"
    r"|(?P<skew>~)|(?=(?P<bad>\S)))"
)


def parse_word(text):
    """Free-group word syntax: identifiers, postfix ' for inverse, ^k for
    integer powers of at most 9 digits, * or juxtaposition for
    concatenation, 1 for the empty word ("1" is therefore not usable as a
    generator name)."""
    runs = []
    for m in _WORD_TOKEN.finditer(text):
        name, inv, power, skew, bad = m.groups()
        if name:
            if name != "1":
                runs.append((name, 1))
        elif inv or power:
            if not runs:
                raise ParseError("power with no base", column=m.end())
            g, e = runs.pop()
            runs.append((g, -e if inv else e * _exponent(power, m.end())))
        elif skew:
            raise ParseError("skew marks are not free-group syntax", column=m.end())
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", column=m.start("bad"))
    return FreeWord(tuple(runs))


def _exponent(tok, col):
    """k of a ^k token; more than 9 digits is refused before int() runs."""
    digits = tok.lstrip("^-").lstrip("0") or "0"
    if len(digits) > 9:
        raise ParseError("exponent has more than 9 digits", column=col)
    return -int(digits) if tok[1] == "-" else int(digits)


def parse_mp_word(text, n):
    """Letter-model syntax: whitespace or * separated letters, ~g marked."""
    letters = []
    for raw in text.replace("*", " ").split():
        if raw.startswith("~"):
            name = raw[1:]
            marked = True
        else:
            name = raw
            marked = False
        if not re.fullmatch(r"[A-Za-z0-9_]+", name):
            raise ParseError(f"bad letter {raw!r}")
        letters.append((name, marked))
    return MpWord(tuple(letters), n)
