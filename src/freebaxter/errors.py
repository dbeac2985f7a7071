"""Exception hierarchy shared by all freebaxter modules."""


class FreeBaxterError(Exception):
    """Base class for all library-level errors."""


class DivisorZero(FreeBaxterError):
    """Exact division was attempted with a zero divisor."""


class NotDivisible(FreeBaxterError):
    """No exact quotient exists for the requested division."""


class NamespaceViolation(FreeBaxterError):
    """A generator variable appeared where only coefficient variables are allowed,
    or vice versa."""


class KindMismatch(FreeBaxterError):
    """Module elements of different kinds were combined."""


class TruncMismatch(FreeBaxterError):
    """Two truncated values with different truncation levels were combined."""


class WeightMismatch(FreeBaxterError):
    """A target algebra's weight differs from the weight of the computation."""


class WeightZero(FreeBaxterError):
    """The operation requires a nonzero weight."""


class WeightNotZero(FreeBaxterError):
    """The operation requires the weight to evaluate to zero."""


class MissingGeneratorImage(FreeBaxterError):
    """A homomorphism extension needs an image for a generator that was not supplied."""


class NotInImage(FreeBaxterError):
    """A sequence element is not in the image of the canonical homomorphism
    (at the current truncation)."""


class NotScalarBase(FreeBaxterError):
    """A word contains a non-unit factor where only scalar (all-unit) words are allowed."""


class DegreeTooLow(FreeBaxterError):
    """A sequence does not vanish in enough leading entries for the operation."""


class ExprSyntaxError(FreeBaxterError):
    """Syntax error while parsing an expression or polynomial, with position info."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
