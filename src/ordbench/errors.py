"""Exception types shared across the package."""


class OrdbenchError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(OrdbenchError):
    """The declared order relation contains a cycle (antisymmetry fails)."""


class DuplicateLabel(OrdbenchError):
    pass


class UnknownLabel(OrdbenchError):
    pass


class IndexOutOfRange(OrdbenchError):
    pass


class DimensionMismatch(OrdbenchError):
    pass


class NotMonotone(OrdbenchError):
    pass


class SourceTargetMismatch(OrdbenchError):
    pass


class NotBounded(OrdbenchError):
    pass


class NotAnOrder(OrdbenchError, ValueError):
    """An order table is not reflexive or not transitive."""


class NotAdjoint(OrdbenchError, ValueError):
    """A left and a right map fail x <= g(f(x)) or f(g(y)) <= y: not adjoint."""


class MissingAdjoint(OrdbenchError, ValueError):
    """An operation needs an adjoint map that the connection lacks."""


class UnknownLaw(OrdbenchError, ValueError):
    """A law identifier that is not in the law table."""


class UnsupportedLaw(OrdbenchError, ValueError):
    """A known law that the requested check is not stated for."""


class PredicateSyntaxError(OrdbenchError, ValueError):
    """A search predicate that does not parse."""


class UnknownSuite(OrdbenchError, ValueError):
    """A suite name that is not in the suite table."""


class QuantaleAxiomError(OrdbenchError):
    """A multiplication table fails a quantale axiom; ``witness`` holds the elements."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCommutative(QuantaleAxiomError):
    pass


class NotAssociative(QuantaleAxiomError):
    pass


class NotJoinPreserving(QuantaleAxiomError):
    pass


class InvalidModulus(OrdbenchError):
    pass


class SizeBoundExceeded(OrdbenchError):
    pass


class ParseError(OrdbenchError):
    """A text-format error, carrying file name, line number and message."""

    def __init__(self, filename, line, message):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line
        self.message = message


class UnreadableFile(OrdbenchError):
    """An input file that cannot be opened or read."""


class NotUTF8(OrdbenchError):
    """An input file that is not UTF-8 text."""


class MissingBlock(OrdbenchError):
    """An input file with no block of the kind a verb reads."""
