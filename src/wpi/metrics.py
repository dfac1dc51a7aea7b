"""Core watts-per-intelligence metrics.

Units convention: intelligence is dimensionless, energies are joules,
powers are watts, temperatures are kelvin.  Phi is therefore watts per
intelligence unit.  All functions here are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import UndefinedMetricError, ValidationError

#: Boltzmann constant, exact SI value (J/K).
BOLTZMANN_CONSTANT = 1.380649e-23


@dataclass(frozen=True)
class TaskRecord:
    """One benchmark task: a difficulty weight and a performance in [0, 1]."""

    id: str
    weight: float
    performance: float

    def __post_init__(self):
        if not self.id:
            raise ValidationError("task id must be a non-empty string")
        if not (0.0 <= self.weight < math.inf):
            raise ValidationError(
                f"task {self.id!r}: weight must be finite and >= 0, got {self.weight}"
            )
        if not (0.0 <= self.performance <= 1.0):
            raise ValidationError(
                f"task {self.id!r}: performance must be in [0, 1], got {self.performance}"
            )


@dataclass(frozen=True)
class TaskSuite:
    """A finite, non-empty weighted task set; ids must be unique within the suite."""

    tasks: tuple[TaskRecord, ...]

    def __init__(self, tasks):
        records = tuple(
            t if isinstance(t, TaskRecord) else TaskRecord(*t) for t in tasks
        )
        if not records:
            raise ValidationError("a suite needs at least one task")
        seen: set[str] = set()
        for t in records:
            if t.id in seen:
                raise ValidationError(f"duplicate task id {t.id!r} in suite")
            seen.add(t.id)
        object.__setattr__(self, "tasks", records)
        try:  # performances are at most 1, so the score cannot overflow either
            self.total_weight()
        except OverflowError:
            raise ValidationError("the suite's total weight overflows a float") from None

    def total_weight(self) -> float:
        return math.fsum(t.weight for t in self.tasks)


@dataclass(frozen=True)
class ExecutionTrace:
    """Observed execution: irreversible-bit-operation count and wall time.

    ``measured_energy`` is optional telemetry in joules; when present it
    overrides the modeled energy and the overhead factor is back-solved.
    """

    irreversible_ops: int
    duration: float
    measured_energy: float | None = None

    def __post_init__(self):
        # NaN fails the first test, an infinity the second
        if not (self.irreversible_ops >= 0 and self.irreversible_ops % 1 == 0):
            raise ValidationError(
                f"irreversible_ops must be a non-negative integer, got {self.irreversible_ops}"
            )
        if self.irreversible_ops > sys.float_info.max:  # energies multiply it by a float
            raise ValidationError(
                f"irreversible_ops must be at most the largest float {sys.float_info.max!r}, "
                f"got a {self.irreversible_ops.bit_length()}-bit integer"
            )
        if not (0.0 < self.duration < math.inf):
            raise ValidationError(f"duration must be finite and > 0 seconds, got {self.duration}")
        if self.measured_energy is not None and not (0.0 <= self.measured_energy < math.inf):
            raise ValidationError(
                f"measured_energy must be finite and >= 0 joules, got {self.measured_energy}"
            )


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting for one trace on one substrate.

    ``energy == overhead_factor_used * irreversible_ops * c(T)``, computed left
    to right, holds exactly when the energy is modeled and that product is
    finite; when ``F * N`` alone overflows, the energy is ``F * (N * c)``.
    With telemetry the measurement wins and the factor is back-solved.
    ``warnings`` flags physically inconsistent inputs such as sub-Landauer
    measurements.
    """

    energy: float
    power: float
    landauer_floor: float
    overhead_factor_used: float
    overhead_source: str = "modeled"
    warnings: tuple[str, ...] = field(default_factory=tuple)


def landauer_constant(temperature: float) -> float:
    """Minimum dissipation per irreversible bit operation, k_B * T * ln 2 (J/bit)."""
    if not (0.0 < temperature < math.inf):
        raise ValidationError(f"temperature must be finite and > 0 K, got {temperature}")
    return BOLTZMANN_CONSTANT * temperature * math.log(2)


def intelligence_score(suite: TaskSuite) -> float:
    """Weighted sum of task performances.

    Terms are accumulated in ascending task-id order with exact (fsum)
    summation, so the result is reproducible and independent of the order
    tasks were listed in.
    """
    ordered = sorted(suite.tasks, key=lambda t: t.id)
    return math.fsum(t.weight * t.performance for t in ordered)


def modeled_energy(
    trace: ExecutionTrace, overhead: float, temperature: float
) -> EnergyReport:
    """Energy and power for a trace under the multiplicative overhead model.

    Modeled energy is ``overhead * N * c(T)``, or ``overhead * (N * c(T))``
    when ``overhead * N`` overflows a float.  If the trace carries a
    measured energy, the measurement replaces the model and the overhead
    factor actually used is back-solved as ``measured / (N * c)``.
    """
    if not (1.0 <= overhead < math.inf):
        raise ValidationError(
            f"sub-Landauer or infinite overhead: factor must be finite and >= 1, got {overhead}"
        )
    c = landauer_constant(temperature)
    n = trace.irreversible_ops
    floor = n * c
    warnings: list[str] = []

    if trace.measured_energy is not None:
        energy = trace.measured_energy
        source = "back-solved"
        if n == 0:
            factor = math.inf if energy > 0.0 else 1.0
            if energy > 0.0:
                warnings.append(
                    "measured energy is positive but the trace has zero irreversible "
                    "ops; overhead factor reported as infinity"
                )
        else:
            factor = energy / floor
            if energy < floor:
                warnings.append(
                    f"measured energy {energy!r} J is below the Landauer floor "
                    f"{floor!r} J; measurement is physically inconsistent"
                )
    else:
        energy = overhead * n * c
        if energy == math.inf:  # F * N overflowed, but the energy may be a float
            energy = overhead * floor
        factor = overhead
        source = "modeled"

    return EnergyReport(
        energy=energy,
        power=energy / trace.duration,
        landauer_floor=floor,
        overhead_factor_used=factor,
        overhead_source=source,
        warnings=tuple(warnings),
    )


def wpi(power: float, intelligence: float) -> float:
    """Watts per intelligence unit: power divided by the intelligence score."""
    if not (intelligence >= 0.0):
        raise ValidationError(f"intelligence must be >= 0, got {intelligence}")
    if intelligence == 0.0:
        raise UndefinedMetricError("phi undefined at zero intelligence")
    return power / intelligence


def phi_lower_bound(
    temperature: float, overhead: float, algorithmic_yield: float, duration: float
) -> float:
    """Thermodynamic lower bound on phi: c(T) * F / (alpha * tau).

    With ``overhead == 1`` this is bit-identical to the reversible-limit
    floor ``landauer_constant(T) / (alpha * tau)``.
    """
    if not (1.0 <= overhead < math.inf):
        raise ValidationError(
            f"sub-Landauer or infinite overhead: factor must be finite and >= 1, got {overhead}"
        )
    if not (0.0 < algorithmic_yield < math.inf):
        raise ValidationError(f"algorithmic yield must be finite and > 0, got {algorithmic_yield}")
    if not (0.0 < duration < math.inf):
        raise ValidationError(f"duration must be finite and > 0 seconds, got {duration}")
    return landauer_constant(temperature) * overhead / (algorithmic_yield * duration)
