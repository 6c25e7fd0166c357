"""Exception types shared across the package."""


class CircwordsError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyWordError(CircwordsError):
    """A circular word must contain at least one letter."""


class BadLetterError(CircwordsError):
    """A letter falls outside the alphabet 0..d-1 (or is not a digit)."""


class BadParameterError(CircwordsError, ValueError):
    """A size, length or label argument is out of range or malformed.

    It is also a ValueError, so callers that catch ValueError for a bad
    argument keep working.
    """


class EmptyFactorError(CircwordsError):
    """Occurrence counting is undefined for the empty factor."""


class AlphabetMismatchError(CircwordsError):
    """Operands were built over different alphabets."""


class SizeLimitError(CircwordsError):
    """A requested construction exceeds the configured size cap."""


class BrokenProjectionError(CircwordsError):
    """The square-graph projection lost path continuity.

    This signals an implementation bug: the projected edge sequence of a
    closed De Bruijn path provably stays a path on the four-vertex square
    graph, so user input can never trigger it.
    """


class NotInSpanError(CircwordsError):
    """The target functional is not in the rational span of the basis."""
