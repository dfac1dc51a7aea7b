"""Substrate models and fixed-algorithm efficiency comparisons.

A substrate is described by its temperature, a multiplicative overhead
decomposition (memory traffic times control flow, optionally extended by
extra named factors), and an algorithmic yield.  Comparisons hold the
algorithm fixed (same task suite, same intrinsic operation count) and rank
substrates by phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ValidationError
from .metrics import (
    ExecutionTrace,
    TaskSuite,
    intelligence_score,
    modeled_energy,
    wpi_report,
)


@dataclass(frozen=True)
class Substrate:
    """Hardware model: temperature, overhead decomposition, and yield.

    ``overhead_source`` records where the factors came from ("default" for
    the illustrative shipped catalog, "user" for caller-supplied values) and
    is echoed in every report.
    """

    name: str
    temperature: float
    overhead_mem: float
    overhead_ctrl: float
    algorithmic_yield: float
    extra_overheads: Mapping[str, float] = field(default_factory=dict)
    overhead_source: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "extra_overheads", dict(self.extra_overheads))
        if not self.name:
            raise ValidationError("substrate name must be non-empty")
        if not (self.temperature > 0.0):
            raise ValidationError(
                f"substrate {self.name!r}: temperature must be > 0 K, got {self.temperature}"
            )
        for label, value in (("overhead_mem", self.overhead_mem),
                             ("overhead_ctrl", self.overhead_ctrl)):
            if not (value >= 1.0):
                raise ValidationError(
                    f"substrate {self.name!r}: {label} must be >= 1, got {value}"
                )
        for label, value in self.extra_overheads.items():
            if not (value >= 1.0):
                raise ValidationError(
                    f"substrate {self.name!r}: extra overhead {label!r} must be >= 1, got {value}"
                )
        if not (self.algorithmic_yield > 0.0):
            raise ValidationError(
                f"substrate {self.name!r}: algorithmic yield must be > 0, "
                f"got {self.algorithmic_yield}"
            )


def total_overhead(substrate: Substrate) -> float:
    """Total multiplicative overhead factor of a substrate."""
    factor = substrate.overhead_mem * substrate.overhead_ctrl
    for value in substrate.extra_overheads.values():
        factor *= value
    return factor


@dataclass(frozen=True)
class SubstrateRun:
    """One substrate executing one traced workload against one task suite."""

    substrate: Substrate
    trace: ExecutionTrace
    suite: TaskSuite

    def effective_ops(self) -> float:
        """Effective irreversible operations: overhead times intrinsic count."""
        return total_overhead(self.substrate) * self.trace.irreversible_ops


@dataclass(frozen=True)
class ComparisonRow:
    """Energy and phi accounting of one run, as computed by :func:`account_run`."""

    name: str
    overhead: float
    overhead_source: str
    effective_ops: float
    energy: float
    power: float
    intelligence: float
    phi: float
    lower_bound: float
    slack: float
    landauer_floor: float
    reversible_floor: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class ComparisonReport:
    """Per-substrate metrics, rows and ordering both ascending by phi."""

    rows: tuple[ComparisonRow, ...]
    ordering: tuple[str, ...]


def account_run(run: SubstrateRun) -> ComparisonRow:
    """Energy, phi, its lower bound and slack for one run.

    This is the one bound policy every table uses.  The bound takes the
    overhead factor actually used, with two exceptions, both flagged in the
    energy report's warnings: an infinite back-solved factor (a zero-op
    trace with a positive measured energy) falls back to the substrate's
    modeled factor, and a sub-Landauer factor below 1 clamps to 1, the
    reversible floor.  Effective operations are the factor times the
    intrinsic count, and 0 for a zero-op trace.
    """
    sub, ops = run.substrate, run.trace.irreversible_ops
    modeled = total_overhead(sub)
    energy = modeled_energy(run.trace, modeled, sub.temperature)
    used = energy.overhead_factor_used
    score = intelligence_score(run.suite)
    report = wpi_report(
        energy.power, score, sub.temperature,
        max(1.0, used if math.isfinite(used) else modeled),
        sub.algorithmic_yield, run.trace.duration,
    )
    return ComparisonRow(
        name=sub.name,
        overhead=used,
        overhead_source=(sub.overhead_source if energy.overhead_source == "modeled"
                         else energy.overhead_source),
        effective_ops=used * ops if ops else 0.0,
        energy=energy.energy,
        power=energy.power,
        intelligence=score.value,
        phi=report.phi,
        lower_bound=report.lower_bound,
        slack=report.slack,
        landauer_floor=energy.landauer_floor,
        reversible_floor=report.reversible_floor,
        warnings=energy.warnings,
    )


def run_comparison(runs: Sequence[SubstrateRun]) -> ComparisonReport:
    """Rank substrates running the same algorithm by watts per intelligence.

    All runs must share an identical task suite and an identical intrinsic
    irreversible-operation count; otherwise the phi ordering would conflate
    algorithm changes with substrate changes.  Ties are broken by name.
    """
    if len(runs) < 2:
        raise ValidationError("comparison requires at least 2 runs")
    reference = runs[0]
    for run in runs[1:]:
        if run.suite.tasks != reference.suite.tasks:
            raise ValidationError("comparison requires fixed algorithm: task suites differ")
        if run.trace.irreversible_ops != reference.trace.irreversible_ops:
            raise ValidationError(
                "comparison requires fixed algorithm: intrinsic operation counts differ"
            )
    rows = sorted((account_run(run) for run in runs), key=lambda r: (r.phi, r.name))
    return ComparisonReport(rows=tuple(rows), ordering=tuple(r.name for r in rows))


def default_substrates(temperature: float = 300.0) -> list[Substrate]:
    """Illustrative substrate catalog with overhead factors 200 / 20 / 4.

    The factors are configuration defaults for demonstration, not measured
    hardware characterizations; reports carry ``overhead_source="default"``
    so downstream consumers can tell them apart from user data.
    """
    return [
        Substrate("cpu", temperature, 40.0, 5.0, 1.0, overhead_source="default"),
        Substrate("gpu", temperature, 10.0, 2.0, 1.0, overhead_source="default"),
        Substrate("neuromorphic", temperature, 2.0, 2.0, 1.0, overhead_source="default"),
    ]


__all__ = [
    "Substrate",
    "SubstrateRun",
    "ComparisonRow",
    "ComparisonReport",
    "total_overhead",
    "account_run",
    "run_comparison",
    "default_substrates",
]
