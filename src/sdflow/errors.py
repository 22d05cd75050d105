"""Exception types shared across the toolchain.

Every error raised on a user-facing path derives from SdflowError so the
CLI can distinguish "your model is bad" (exit 1 / 2) from genuine bugs.
"""

from __future__ import annotations


class SdflowError(Exception):
    """Base class for all diagnosable failures."""


class SchemaError(SdflowError):
    """Malformed document: unknown field, bad kind, bad params."""


class ResolutionError(SdflowError):
    """Dangling reference: connection endpoint, port index, duplicate id."""


class SignalTypeError(SdflowError):
    """SignalSpec mismatch across a connection or block boundary."""


class NormalizationError(SdflowError):
    """Flatten / routing removal could not produce a well-formed model."""


class DepthWarning(UserWarning):
    """Requested flatten depth exceeds the model height; it was clamped."""


class NonHarmonicError(SdflowError):
    """Adjacent periods do not divide one another; no integer rate exists."""


class InconsistentError(SdflowError):
    """Balance equations admit only the zero solution, or an iteration does
    not return every channel to its delay."""


class DeadlockError(SdflowError):
    """No actor can fire before the iteration completes."""


class UnderflowError(SdflowError):
    """A firing tried to dequeue from an empty channel."""


class AlgebraicLoopError(SdflowError):
    """Zero-delay feedthrough cycle in the block diagram."""


class UnsupportedKindError(SdflowError):
    """Block kind outside the closed vocabulary reached a backend."""


class ShapeError(SdflowError):
    """Trace comparison saw mismatched signal sets or sample counts."""


class ValidationFailed(SdflowError):
    """A pipeline stage refused to run because the validator reported violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"{v.rule}@{v.location}" for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"model violates translation constraints: {lines}{more}")
