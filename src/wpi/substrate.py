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
    phi_lower_bound,
    wpi,
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
        # each test fails on NaN and on infinity
        if not (0.0 < self.temperature < math.inf):
            raise ValidationError(
                f"substrate {self.name!r}: temperature must be finite and > 0 K, "
                f"got {self.temperature}"
            )
        for label, value in (("overhead_mem", self.overhead_mem),
                             ("overhead_ctrl", self.overhead_ctrl)):
            if not (1.0 <= value < math.inf):
                raise ValidationError(
                    f"substrate {self.name!r}: {label} must be finite and >= 1, got {value}"
                )
        for label, value in self.extra_overheads.items():
            if not (1.0 <= value < math.inf):
                raise ValidationError(
                    f"substrate {self.name!r}: extra overhead {label!r} must be finite "
                    f"and >= 1, got {value}"
                )
        if total_overhead(self) == math.inf:
            raise ValidationError(
                f"substrate {self.name!r}: total overhead (the product of all overhead "
                f"factors) must be finite, got inf"
            )
        if not (0.0 < self.algorithmic_yield < math.inf):
            raise ValidationError(
                f"substrate {self.name!r}: algorithmic_yield must be finite and > 0, "
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


def account_run(run: SubstrateRun) -> ComparisonRow:
    """Energy, phi, its lower bound, slack and reversible floor for one run.

    This is the one place that composes them, under the one bound policy
    every table uses.  The bound takes the overhead factor actually used,
    with two exceptions, both flagged in the energy report's warnings: an
    infinite back-solved factor (a zero-op trace with a positive measured
    energy) falls back to the substrate's modeled factor, and a sub-Landauer
    factor below 1 clamps to 1, the reversible floor.  Effective operations
    are the factor times the intrinsic count, and 0 for a zero-op trace.
    The bound assumes ``I <= alpha * N``; a run whose intelligence exceeds
    that cap, such as a modeled zero-op trace, keeps its numbers, so its
    slack may fall below 1, and a warning says why.
    """
    sub, ops = run.substrate, run.trace.irreversible_ops
    modeled = total_overhead(sub)
    energy = modeled_energy(run.trace, modeled, sub.temperature)
    used = energy.overhead_factor_used
    intelligence = intelligence_score(run.suite)
    phi = wpi(energy.power, intelligence)
    bound = phi_lower_bound(sub.temperature, max(1.0, used if math.isfinite(used) else modeled),
                            sub.algorithmic_yield, run.trace.duration)
    warnings = energy.warnings
    if intelligence > (cap := sub.algorithmic_yield * ops):
        warnings += (f"intelligence {intelligence!r} exceeds algorithmic_yield * irreversible_ops "
                     f"= {cap!r}; the phi lower bound assumes I <= alpha * N, so phi may fall "
                     f"below it",)
    if (effective_ops := used * ops if ops else 0.0) == math.inf:
        warnings += (f"effective_ops overflows to inf: overhead factor {used!r} times "
                     f"irreversible_ops {float(ops)!r} exceeds the largest float; the energy "
                     f"and phi do not use it",)
    return ComparisonRow(
        name=sub.name,
        overhead=used,
        overhead_source=(sub.overhead_source if energy.overhead_source == "modeled"
                         else energy.overhead_source),
        effective_ops=effective_ops,
        energy=energy.energy,
        power=energy.power,
        intelligence=intelligence,
        phi=phi,
        lower_bound=bound,
        slack=phi / bound,
        landauer_floor=energy.landauer_floor,
        reversible_floor=phi_lower_bound(sub.temperature, 1.0, sub.algorithmic_yield,
                                         run.trace.duration),
        warnings=warnings,
    )


def run_comparison(runs: Sequence[SubstrateRun]) -> list[ComparisonRow]:
    """Rank substrates running the same algorithm by watts per intelligence.

    All runs must share an identical task suite and an identical intrinsic
    irreversible-operation count; otherwise the phi ordering would conflate
    algorithm changes with substrate changes.  Rows ascend by phi, ties
    broken by name.
    """
    if len(runs) < 2:
        raise ValidationError("comparison requires at least 2 runs")
    reference = runs[0]
    for run in runs[1:]:
        if run.suite.tasks != reference.suite.tasks:
            raise ValidationError("comparison requires fixed algorithm: task suites differ")
        if run.trace.irreversible_ops != reference.trace.irreversible_ops:
            counts = ", ".join(f"{r.substrate.name}: {r.trace.irreversible_ops}" for r in runs)
            raise ValidationError(
                f"comparison requires fixed algorithm: intrinsic operation counts differ ({counts})"
            )
    return sorted((account_run(run) for run in runs), key=lambda r: (r.phi, r.name))

