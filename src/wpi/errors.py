"""Exception types shared across the toolkit."""

from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class UndefinedMetricError(ValidationError):
    """A metric is mathematically undefined for the given inputs."""


class EnumerationBudgetExceeded(RuntimeError):
    """No program within the enumeration budget produced the target state.

    Carries enough context to distinguish "not found up to max_len" from a
    silent fallback; callers must handle or propagate it explicitly.
    """

    def __init__(self, bits: str, max_len: int, step_budget: int):
        self.bits = bits
        self.max_len = max_len
        self.step_budget = step_budget
        super().__init__(
            f"no program of length <= {max_len} bits produced state "
            f"{bits!r} within {step_budget} steps per program"
        )


class NonErgodicChainError(ValidationError):
    """The kernel is not irreducible and aperiodic (``wpi.markov.is_ergodic``)."""


class ImpossibleTransitionError(ValidationError):
    """A bound check was requested for a transition with zero probability."""


class ConfigError(ValidationError):
    """One or more configuration entries are invalid.

    ``issues`` is a list of (json_pointer, message) pairs covering every
    problem found, not just the first.  An object that checks its own
    fields (``MarkovModel``) gives pointers relative to itself, such as
    ``kernel/0``, which the config prefixes with the object's pointer.
    """

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = list(issues)
        lines = "; ".join(f"{ptr}: {msg}" for ptr, msg in self.issues)
        super().__init__(f"{len(self.issues)} config error(s): {lines}")


class TelemetryError(ValidationError):
    """Telemetry CSV rows failed validation; carries per-row errors."""

    def __init__(self, issues: list[tuple[int, str]]):
        self.issues = list(issues)
        lines = "; ".join(f"row {row}: {msg}" for row, msg in self.issues)
        super().__init__(f"{len(self.issues)} telemetry error(s): {lines}")
