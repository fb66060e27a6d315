"""Exception types shared across the package."""

from __future__ import annotations


class RecourseError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RecourseError):
    """Problem text could not be tokenized or parsed.

    Carries the 1-based source position and, when known, what the parser
    expected at that point.
    """

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        detail = f"line {line}, col {col}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = expected


SEMANTIC_KINDS = (
    "undeclared-feature",
    "type-mismatch",
    "causally-inconsistent-initial",
    "head-in-body",
    "duplicate-declaration",
    "missing-initial",
)


class SemanticError(RecourseError):
    """A syntactically valid problem violates a well-formedness rule."""

    def __init__(self, kind: str, message: str):
        if kind not in SEMANTIC_KINDS:
            raise ValueError(f"unknown semantic error kind: {kind}")
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class NotApplicable(RecourseError):
    """An action was applied to a state where it is not permitted."""


class EmptySequenceError(RecourseError):
    """The last entry of an empty trace was read or popped."""


class NotASolution(RecourseError):
    """A candidate path was requested from a trace that did not succeed."""


class CapExceeded(RecourseError):
    """The declared state space has more states than the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"state space has {needed} states, cap is {cap}")
        self.needed = needed
        self.cap = cap


class EmptyRange(RecourseError):
    """A numeric range [lo, hi] with hi < lo cannot be partitioned."""


class OutOfDomain(RecourseError):
    """An initial-block value lies outside the declared domain of its feature."""

    def __init__(self, feature: str, message: str):
        super().__init__(f"{feature}: {message}")
        self.feature = feature


class UnknownScenario(RecourseError):
    """Requested bundled scenario name is not recognized."""
