"""Exception types shared across the package.

Every error carries a short machine-readable ``rule`` string naming the
violated property, plus enough context to reproduce the failure.  The CLI
serializes these verbatim into its JSON failure reports.
"""

from __future__ import annotations


class MedianCertError(Exception):
    """Base class; ``rule`` names the violated property."""

    rule = "generic"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def report(self) -> dict:
        return {"error": self.rule, "message": str(self), **self.context}


class MedianViolation(MedianCertError):
    """A vertex triple whose three pairwise intervals do not meet in
    exactly one vertex."""

    rule = "unique-median"


class NotMedian(MedianCertError):
    """Structural failure: wall relation not transitive, a computed
    half-space not convex, or a wall not partitioning the graph."""

    rule = "wall-structure"


class CornerFailure(MedianCertError):
    """A cube step spans no cube: some of the 2^k vertices between its
    ends, k the number of walls it crosses, are missing."""

    rule = "cube-corner"


class ReductionFailure(MedianCertError):
    """Greedy generator reduction stalled above the rank bound."""

    rule = "generator-reduction"


class NotFound(MedianCertError):
    """Deep-point preconditions do not hold (candidate set leaves the
    interval), so no witness is defined."""

    rule = "deep-point-domain"


class EmptySet(MedianCertError):
    """Normalized indicator of the empty set requested."""

    rule = "empty-support"


class ConditionViolation(MedianCertError):
    """A witness-set family broke one of the certificate conditions;
    context carries the offending tuple."""

    rule = "witness-conditions"


class NotCoarseMedian(MedianCertError):
    """No admissible multiplicative constant fits the measured defects."""

    rule = "parameter-fit"


class PreconditionViolation(MedianCertError):
    """Caller broke a documented precondition of a coarse-interval check."""

    rule = "precondition"


class BudgetExceeded(MedianCertError):
    """A sweep or search hit its configured budget before finishing."""

    rule = "budget"
