"""Typed errors raised by the engine.

Validation *reports* (see report.py) are used where a violation is an
answer rather than a failure; exceptions are reserved for misuse of an
operation's contract.
"""


class OplabError(Exception):
    """Base class for all engine errors."""


class IndexOutOfRange(OplabError):
    """An index fell outside the declared set."""


class LabelSetMismatch(OplabError):
    """Two graphs over different label sets where one set is required."""


class SourceTargetMismatch(OplabError):
    """Morphisms do not chain."""


class InvalidLabels(OplabError):
    """Malformed label set or labels not available in context."""


class NotLeftModular(OplabError):
    """Graph has an edge whose source is the basepoint."""


class NotRightModular(OplabError):
    """Graph has an edge whose target is the basepoint."""


class NotInert(OplabError):
    """An inert morphism was required."""


class NotActive(OplabError):
    """An active morphism was required."""


class NotAPath(OplabError):
    """Edges do not assemble into a single path."""


class SizeBoundExceeded(OplabError):
    """An enumeration would exceed the configured bound."""


class InvalidBound(OplabError):
    """A size bound given to a suite is negative."""


class InvalidCandidate(OplabError):
    """An enumerator produced a candidate that the validator rejects."""


class UnknownObject(OplabError):
    """Object name not present in the category."""


class BaseMismatch(OplabError):
    """Values live over different quantales or modules."""


class ObjectMismatch(OplabError):
    """Categories with different object sets where equal sets are required."""


class LabelMismatch(OplabError):
    """A graph does not live over the category's object set."""


class SchemaError(OplabError):
    """A JSON artifact does not match its schema."""


class ValidationError(OplabError):
    """A loaded artifact parses but violates its invariants."""
