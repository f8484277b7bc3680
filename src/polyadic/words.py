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

from .errors import ArityMismatch, HeightViolation, LengthViolation, ParseError


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
        """One reduction over |k| copies of the runs of w or of w^-1."""
        base = self if k >= 0 else self.inv()
        return FreeWord(base.runs * abs(k))

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
    """One pass: a run merges into the stack top when their generators
    agree, and the top is dropped when the exponents cancel. Adjacent runs
    on the stack never share a generator, so no merge cascades."""
    stack = []
    top = None
    for g, e in runs:
        if e == 0:
            continue
        if top is not None and top[0] == g:
            e += top[1]
            if e:
                top = stack[-1] = (g, e)
            else:
                stack.pop()
                top = stack[-1] if stack else None
        else:
            top = (g, e)
            stack.append(top)
    return tuple(stack)


def generator(name):
    return FreeWord(((name, 1),))


def reduce_word(letters):
    """Free reduction of any iterable of (generator, exponent) pairs."""
    return FreeWord(tuple(letters))


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
    """n-ary operation on free polyadic words: concatenate, then reduce
    once."""
    if len(operands) != n:
        raise ArityMismatch(n, len(operands))
    runs = []
    for i, w in enumerate(operands):
        w = w.word if isinstance(w, PolyadicFreeWord) else w
        if w.height % (n - 1) != 1 % (n - 1):
            raise HeightViolation(i, w.height, n)
        runs.extend(w.runs)
    return PolyadicFreeWord(FreeWord(runs), n)


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
        raise ArityMismatch(n, len(operands))
    letters = ()
    for m in operands:
        letters = letters + m.letters
    return MpWord(letters, n)


# ---------------------------------------------------------------------------
# text syntax

# re.split on one capture group: the odd parts are the tokens, each a name
# with the postfixes written right after it, a lone postfix chain, or ~;
# the even parts lie between them and may hold only whitespace and *
_WORD_SPLIT = re.compile(r"((?:[A-Za-z0-9_]+|'|\^-?[0-9]+)(?:'|\^-?[0-9]+)*|~)")
_NAME = re.compile(r"[A-Za-z0-9_]*")
_POSTFIX = re.compile(r"'|\^-?[0-9]+")
_NOT_SEPARATOR = re.compile(r"[^\s*]")


def parse_word(text):
    """Free-group word syntax: identifiers, postfix ' for inverse, ^k for
    integer powers of at most 9 digits, * or juxtaposition for
    concatenation, 1 for the empty word ("1" is therefore not usable as a
    generator name). A postfix acts on the generator or 1 written before
    it, so a^2^3 is a^6 and 1^k is empty. An error names the first
    character that starts no token, or the end of the token at fault, by
    its 0-based column."""
    parts = _WORD_SPLIT.split(text)
    bad = {sep for sep in set(parts[::2]) if _NOT_SEPARATOR.search(sep)}
    end = len(parts)
    if bad:
        end = next(i for i in range(0, end, 2) if parts[i] in bad)
    if end > 1 and parts[1][0] in "'^":
        first = _POSTFIX.match(parts[1]).end()
        raise ParseError("power with no base", column=_column(parts, 1, first))
    runs = []
    known = {}
    for i in range(1, end, 2):
        run = known.get(parts[i])
        if run is None:
            run = known[parts[i]] = _token_run(parts, i)
        if run[0] is None:
            g, e = runs[-1]
            runs[-1] = (g, e * run[1])
        else:
            runs.append(run)
    if bad:
        col = _NOT_SEPARATOR.search(parts[end]).start()
        raise ParseError(
            f"unexpected character {parts[end][col]!r}",
            column=_column(parts, end, col),
        )
    return FreeWord(runs)


def _token_run(parts, i):
    """(name, exponent) of the token parts[i]: (g, e) for a generator with
    its postfixes, ("1", 0) for 1 with its postfixes, (None, factor) for a
    lone postfix chain, which scales the run before it."""
    tok = parts[i]
    if tok == "~":
        raise ParseError(
            "skew marks are not free-group syntax", column=_column(parts, i, 1)
        )
    pos = _NAME.match(tok).end()
    name = tok[:pos] or None
    e = 0 if name == "1" else 1
    for m in _POSTFIX.finditer(tok, pos):
        post = m.group()
        if post == "'":
            e = -e
        else:
            digits = post.lstrip("^-").lstrip("0") or "0"
            if len(digits) > 9:
                raise ParseError(
                    "exponent has more than 9 digits",
                    column=_column(parts, i, m.end()),
                )
            e *= -int(digits) if post[1] == "-" else int(digits)
    return name, e


def _column(parts, i, offset):
    """0-based column of the offset into parts[i]."""
    return sum(map(len, parts[:i])) + offset


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
