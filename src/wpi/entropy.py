"""Ensemble-free algorithmic entropy over coarse-grained states.

The entropy of an individual state x relative to a positive measure pi is
``S(x) = K(x) + log2 pi(x)`` in bits, with K supplied by a declared
estimator.  A transition x -> y splits the total entropy change into an
irreversible part (the complexity change) and an exchanged part (the
measure-flow term); joules appear only when the irreversible part is
multiplied by the Landauer constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .complexity import CoarseState, Estimator, estimate_complexity
from .errors import ValidationError
from .metrics import landauer_constant


@dataclass(frozen=True)
class StateMeasure:
    """A positive, finite (not necessarily normalized) measure over a finite domain."""

    weights: Mapping[CoarseState, float]

    def __post_init__(self):
        weights = dict(self.weights)
        for state, w in weights.items():
            if not (0.0 < w < math.inf):
                raise ValidationError(
                    f"measure weight for state {state.bits!r} must be finite and > 0, got {w}"
                )
        object.__setattr__(self, "weights", weights)

    def __contains__(self, state: CoarseState) -> bool:
        return state in self.weights

    def log2_weight(self, state: CoarseState) -> float:
        if state not in self.weights:
            raise ValidationError(f"state {state.bits!r} is not in the measure domain")
        return math.log2(self.weights[state])


@dataclass(frozen=True)
class EntropyDelta:
    """Entropy change of a transition, split into its two components.

    ``irreversible`` is the complexity change ``K(y) - K(x)``;
    ``exchanged`` is the entropy exported to the environment,
    ``log2 pi(x) - log2 pi(y)``.  ``total == irreversible + exchanged``
    holds exactly: the total is computed as that sum, never re-derived
    along another floating-point path.  When ``pi(x) == pi(y)`` (isolated
    system) the exchange term vanishes and the total is purely
    irreversible.
    """

    total: float
    irreversible: float
    exchanged: float


def algorithmic_entropy(x: CoarseState, pi: StateMeasure, estimator: Estimator) -> float:
    """Per-state entropy ``K(x) + log2 pi(x)`` in bits; may be negative."""
    log_weight = pi.log2_weight(x)
    return estimate_complexity(x, estimator).bits + log_weight


def entropy_decomposition(
    x: CoarseState,
    y: CoarseState,
    pi: StateMeasure,
    estimator: Estimator,
) -> EntropyDelta:
    """Split the entropy change of x -> y into irreversible and exchanged parts."""
    exchanged = pi.log2_weight(x) - pi.log2_weight(y)
    kx = estimate_complexity(x, estimator).bits
    ky = estimate_complexity(y, estimator).bits
    irreversible = float(ky - kx)
    return EntropyDelta(
        total=irreversible + exchanged,
        irreversible=irreversible,
        exchanged=exchanged,
    )


def min_energy_of_change(delta: EntropyDelta, temperature: float) -> float:
    """Landauer floor (joules) for a transition's irreversible bits.

    A complexity decrease implies no positive dissipation floor, so negative
    irreversible changes clamp to zero energy.
    """
    return landauer_constant(temperature) * max(0.0, delta.irreversible)
