"""Exception types shared across the package."""
from __future__ import annotations


class RiskAuditError(Exception):
    """Base class for all package errors."""


class InvalidInstanceError(RiskAuditError):
    """Raised by operations that require a valid instance."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid instance: " + "; ".join(self.violations))


class InvalidAssignmentError(RiskAuditError):
    """Raised when a risk assignment is malformed or does not match the instance."""


class DegenerateGroupError(RiskAuditError):
    """Raised when an operation needs a nonempty positive (or negative) class."""


class DomainError(RiskAuditError):
    """Raised when an operation's stated precondition fails."""


class ReductionInfeasibleError(RiskAuditError):
    """Raised when the subset-sum construction cannot produce a valid instance."""


class DocumentError(RiskAuditError):
    """Raised on malformed serialized documents. Carries a JSON-path hint."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
