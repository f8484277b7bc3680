"""Exception types shared across the package.

Every mathematical precondition failure raises a typed error carrying the
first (lexicographically least) witness, so callers and the CLI can report
exactly where an input went wrong.
"""

import sys


class PolyadicError(Exception):
    """Base class for all errors raised by this package."""


class GroupValidationError(PolyadicError):
    """A binary operation table is not a group table."""


class NotAssociative(GroupValidationError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"not associative at {triple}")


class NoIdentity(GroupValidationError):
    def __init__(self):
        super().__init__("no two-sided identity element")


class NoInverse(GroupValidationError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no inverse")


class NotLatinSquare(GroupValidationError):
    def __init__(self, kind, index):
        self.kind = kind
        self.index = index
        super().__init__(f"{kind} {index} is not a permutation")


class NotRegular(GroupValidationError):
    """A closed coset table whose action fails the regularity certificate."""

    def __init__(self, detail):
        super().__init__(f"coset table is not a regular action: {detail}")


class SizeCapExceeded(PolyadicError):
    """A size above its cap. A size with more decimal digits than Python
    converts to text is kept as the lower bound ">= 2^k", k its bit length
    less one, so the error can always be printed."""

    def __init__(self, what, size, cap):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
        if limit and size >= 10 ** limit:
            size = f">= 2^{size.bit_length() - 1}"
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what}: size {size} exceeds cap {cap}")


class ArityMismatch(PolyadicError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"expected {expected} arguments, got {got}")


class ConditionOneFails(PolyadicError):
    """The twisting automorphism does not fix the derivation constant."""

    def __init__(self, b, image):
        self.b = b
        self.image = image
        super().__init__(f"theta(b) = {image} != b = {b}")


class ConditionTwoFails(PolyadicError):
    """theta^(n-1) is not conjugation by the derivation constant."""

    def __init__(self, x, lhs, rhs):
        self.x = x
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"theta^(n-1)({x}) = {lhs} but b*{x}*b^-1 = {rhs}")


class NoSolution(PolyadicError):
    def __init__(self, message):
        super().__init__(message)


class ReconstructionMismatch(PolyadicError):
    """Recovered (group, theta, b) data fails to rebuild the n-ary operation."""

    def __init__(self, args, expected, got):
        self.args = args
        self.expected = expected
        self.got = got
        super().__init__(f"reconstruction differs at {args}: {got} != {expected}")


class HeightViolation(PolyadicError):
    def __init__(self, index, height, n):
        self.index = index
        self.height = height
        self.n = n
        super().__init__(
            f"operand {index} has height {height} != 1 (mod {n - 1})"
        )


class LengthViolation(PolyadicError):
    def __init__(self, length, n):
        self.length = length
        self.n = n
        super().__init__(f"word length {length} != 1 (mod {n - 1})")


class UnboundVariable(PolyadicError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"variable x{index + 1} has no assigned value")


class EmptyGeneratorSet(PolyadicError):
    def __init__(self):
        super().__init__("presentation has no generators")


class CapExceeded(PolyadicError):
    """Coset enumeration did not close within the configured coset cap.

    This never claims the presented group is infinite; it only reports that
    the search budget ran out.
    """

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"coset enumeration exceeded cap of {cap} cosets")


class PropertyFailure(PolyadicError):
    """A structural property of a constructed cover does not hold."""

    def __init__(self, index, detail):
        self.index = index
        self.detail = detail
        super().__init__(f"cover property ({index}) fails: {detail}")


class NotPolyadicHom(PolyadicError):
    def __init__(self, args, expected, got):
        self.args = args
        self.expected = expected
        self.got = got
        super().__init__(
            f"map is not a polyadic homomorphism: at {args} image {got} != {expected}"
        )


class ParseError(PolyadicError):
    def __init__(self, message, line=1, column=0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
