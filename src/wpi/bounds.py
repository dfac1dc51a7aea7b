"""Fluctuation-theorem and efficiency bound checks over Markov dynamics.

All logarithms are base 2 so that complexities, surprisals, and the
``log2(1/delta)`` confidence term share units (bits).  Probabilistic bound
checks record both sides of their inequality and the sample statistics;
pass/fail policies (such as a three-sigma sampling allowance) belong to the
caller, not to the arithmetic here.

The "coupled" suites construct the agent the way the bound's own derivation
does: intelligence proportional to the irreversible complexity change and
energy equal to its Landauer floor.  They default to natural units (energy
counted in bits, i.e. one Landauer quantum per bit, with unit yield and
unit duration); SI callers can pass ``energy_per_bit=landauer_constant(T)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .complexity import CoarseState, Estimator, conditional_complexity, estimate_complexity
from .errors import ImpossibleTransitionError, ValidationError
from .markov import MarkovModel, stationary_distribution


class AgentSpec(NamedTuple):
    """An agent summary for a single bound check."""

    intelligence: float
    power: float
    duration: float


@dataclass(frozen=True)
class BoundCheckResult:
    """Both sides of one inequality check plus sample statistics.

    ``holds`` is the raw comparison ``lhs <= rhs``; ``slack`` is
    ``rhs - lhs``.  ``empirical_ift`` carries the sample mean of
    ``2**(-delta_i_k)`` for whatever samples backed the check.
    """

    lhs: float
    rhs: float
    holds: bool
    slack: float
    delta: float
    samples: int
    estimator: Estimator | None
    empirical_ift: float | None

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must be in (0, 1), got {self.delta}")
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.holds != (self.lhs <= self.rhs):
            raise ValidationError("holds flag is inconsistent with lhs <= rhs")


@dataclass(frozen=True)
class IftCheckResult:
    """Empirical mean and standard error of 2**(-delta_i_k), with control.

    The surprisal control variable sigma has the exact identity
    ``E[2**(-sigma)] == 1`` on any stationary-kernel chain, so its empirical
    mean is reported side by side as a calibration for the estimator-based
    quantity (whose additive constants are not guaranteed to keep the mean
    at or below 1).
    """

    complexity_mean: float
    complexity_se: float
    surprisal_mean: float | None
    surprisal_se: float | None
    samples: int
    estimator: Estimator


@dataclass(frozen=True)
class CoupledSuiteResult:
    """Aggregate of bound checks with the derivation-coupled agent."""

    kind: str
    holds_rate: float
    valid_samples: int
    total_transitions: int
    delta: float
    estimator: Estimator
    checks: tuple[BoundCheckResult, ...]
    check_weights: tuple[int, ...]

    @property
    def rate_standard_error(self) -> float:
        if self.valid_samples == 0:
            return 0.0
        return math.sqrt(self.delta * (1.0 - self.delta) / self.valid_samples)


def delta_ik_samples(
    model: MarkovModel,
    paths: np.ndarray,
    estimator: Estimator,
) -> np.ndarray:
    """Irreversible complexity change K(target) - K(source) per transition.

    ``paths`` holds one trajectory per row, as returned by
    :func:`~wpi.markov.sample_trajectories`; the result lists the
    transitions in row-major order.
    """
    k = np.array(_complexity_by_index(model, estimator), dtype=float)
    return (k[paths[:, 1:]] - k[paths[:, :-1]]).ravel()


def ift_check(
    model: MarkovModel,
    counts: np.ndarray,
    estimator: Estimator,
    surprisal_control: bool = True,
) -> IftCheckResult:
    """Sample mean of 2**(-delta_i_k) over transitions, with exact control.

    The transitions are given as the ``(source, target)`` count matrix of
    :func:`~wpi.markov.transition_counts`.  The complexity-based mean uses
    the chosen estimator.  When ``surprisal_control`` is set, the
    stationary distribution is computed from the kernel (rejecting
    non-ergodic chains) and the control variable
    ``sigma = log2(P(y|x) pi(x)) - log2(P(x|y) pi(y))`` is averaged over the
    same transitions.
    """
    counts = _check_counts(model, counts)
    n_samples = int(counts.sum())
    if n_samples == 0:
        raise ValidationError("counts contain no transitions")

    k = _complexity_by_index(model, estimator)
    n = model.n_states
    complexity_values = np.array(
        [[2.0 ** (-(k[j] - k[i])) for j in range(n)] for i in range(n)]
    )
    c_mean, c_se = _counted_mean_se(complexity_values, counts)

    s_mean = s_se = None
    if surprisal_control:
        surprisal_values = surprisal_table(model)
        s_mean, s_se = _counted_mean_se(2.0 ** (-surprisal_values), counts)

    return IftCheckResult(
        complexity_mean=c_mean,
        complexity_se=c_se,
        surprisal_mean=s_mean,
        surprisal_se=s_se,
        samples=n_samples,
        estimator=Estimator(estimator),
    )


def surprisal_table(model: MarkovModel) -> np.ndarray:
    """Matrix of sigma(x, y) over all transition pairs of an ergodic chain.

    Entries with zero forward probability never occur in sampled data and
    are set to 0; a positive forward transition whose reverse has zero
    probability gets sigma = +inf (its 2**(-sigma) contribution is 0).
    """
    pi = stationary_distribution(model.kernel)
    kernel = model.kernel
    n = model.n_states
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            forward = kernel[i, j]
            if forward == 0.0:
                continue
            backward = kernel[j, i]
            if backward == 0.0:
                table[i, j] = math.inf
            else:
                table[i, j] = math.log2(forward * pi[i]) - math.log2(backward * pi[j])
    return table


def markov_tail_check(
    samples: Sequence[float] | np.ndarray,
    delta: float,
    estimator: Estimator | None = None,
) -> BoundCheckResult:
    """Markov-inequality tail check on samples of delta_i_k.

    With ``X = 2**(-delta_i_k)``, checks the empirical inequality
    ``Pr{X >= 1/delta} <= delta * mean(X)``.  This holds exactly for the
    empirical distribution, so any violation indicates an implementation
    error rather than sampling noise.
    """
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValidationError("tail check needs at least one sample")
    x = 2.0 ** (-values)
    lhs = float(np.mean(x >= 1.0 / delta))
    mean = float(x.mean())
    rhs = delta * mean
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        slack=rhs - lhs,
        delta=delta,
        samples=int(values.size),
        estimator=Estimator(estimator) if estimator is not None else None,
        empirical_ift=mean,
    )


def efficiency_bound_check(
    model: MarkovModel,
    x: CoarseState,
    y: CoarseState,
    agent: AgentSpec | tuple[float, float, float],
    delta: float,
    estimator: Estimator,
) -> BoundCheckResult:
    """Check intelligence-per-watts against its transition bound.

    For the transition x -> y with forward probability p, the bound is
    ``I / P <= (1/tau) * (log2(1/p) - K(x|y)) + log2(1/delta)``.
    """
    agent = AgentSpec(*agent)
    if not (agent.power > 0.0):
        raise ValidationError(f"agent power must be > 0, got {agent.power}")
    return _transition_bound_check(
        model, x, y, agent.intelligence / agent.power, agent.duration, delta, estimator
    )


def adaptivity_bound_check(
    structural_model: MarkovModel,
    s1: CoarseState,
    s2: CoarseState,
    deltas: tuple[float, float],
    tau: float,
    delta: float,
    estimator: Estimator,
) -> BoundCheckResult:
    """Check an adaptation's intelligence gain per joule against its bound.

    Identical arithmetic to :func:`efficiency_bound_check` with structural
    states: ``dI / dE <= (1/tau) * (log2(1/P(s2|s1)) - K(s1|s2)) +
    log2(1/delta)``.
    """
    d_intelligence, d_energy = deltas
    if not (d_energy > 0.0):
        raise ValidationError(
            f"adaptation energy must be positive, got {d_energy}"
        )
    return _transition_bound_check(
        structural_model, s1, s2, d_intelligence / d_energy, tau, delta, estimator
    )


def coupled_bound_suite(
    model: MarkovModel,
    counts: np.ndarray,
    estimator: Estimator,
    delta: float,
    kind: str = "efficiency",
    alpha: float = 1.0,
    tau: float = 1.0,
    energy_per_bit: float = 1.0,
) -> CoupledSuiteResult:
    """Run a bound check on every sampled transition with the coupled agent.

    For each observed transition x -> y with a positive irreversible
    complexity change ``d = K(y) - K(x)``, the agent is built exactly as in
    the bound's derivation: intelligence ``alpha * d`` and energy equal to
    the Landauer floor ``energy_per_bit * d``.  Transitions with ``d <= 0``
    admit no such agent (the floor is not positive) and are excluded from
    the rate.  Distinct (x, y) pairs are checked once and weighted by their
    observed counts, the ``(source, target)`` matrix of
    :func:`~wpi.markov.transition_counts`.
    """
    if kind not in ("efficiency", "adaptivity"):
        raise ValidationError(f"kind must be 'efficiency' or 'adaptivity', got {kind!r}")
    counts = _check_counts(model, counts)
    total = int(counts.sum())
    k = _complexity_by_index(model, estimator)

    checks: list[BoundCheckResult] = []
    weights: list[int] = []
    held = 0
    valid = 0
    for i in range(model.n_states):
        for j in range(model.n_states):
            weight = int(counts[i, j])
            if weight == 0:
                continue
            d = k[j] - k[i]
            if d <= 0:
                continue
            x, y = model.states[i], model.states[j]
            intelligence = alpha * d
            energy = energy_per_bit * d
            if kind == "efficiency":
                result = efficiency_bound_check(
                    model, x, y, AgentSpec(intelligence, energy / tau, tau),
                    delta, estimator,
                )
            else:
                result = adaptivity_bound_check(
                    model, x, y, (intelligence, energy), tau, delta, estimator,
                )
            checks.append(result)
            weights.append(weight)
            valid += weight
            if result.holds:
                held += weight

    rate = held / valid if valid else 1.0
    return CoupledSuiteResult(
        kind=kind,
        holds_rate=rate,
        valid_samples=valid,
        total_transitions=total,
        delta=delta,
        estimator=Estimator(estimator),
        checks=tuple(checks),
        check_weights=tuple(weights),
    )


def _transition_bound_check(
    model: MarkovModel,
    x: CoarseState,
    y: CoarseState,
    lhs: float,
    tau: float,
    delta: float,
    estimator: Estimator,
) -> BoundCheckResult:
    """``lhs <= (log2(1/P(y|x)) - K(x|y)) / tau + log2(1/delta)`` for one transition."""
    if not (tau > 0.0):
        raise ValidationError(f"duration tau must be > 0, got {tau}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    probability = float(model.kernel[model.index_of(x), model.index_of(y)])
    if probability == 0.0:
        raise ImpossibleTransitionError(
            f"impossible transition: P({y.bits!r} | {x.bits!r}) = 0"
        )
    k_cond = conditional_complexity(x, y, estimator).bits
    rhs = (math.log2(1.0 / probability) - k_cond) / tau + math.log2(1.0 / delta)
    kx = estimate_complexity(x, estimator).bits
    ky = estimate_complexity(y, estimator).bits
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        slack=rhs - lhs,
        delta=delta,
        samples=1,
        estimator=Estimator(estimator),
        empirical_ift=2.0 ** (-(ky - kx)),
    )


def _check_counts(model: MarkovModel, counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts)
    n = model.n_states
    if counts.shape != (n, n):
        raise ValidationError(f"counts must be {n}x{n}, got {counts.shape}")
    return counts


def _complexity_by_index(model: MarkovModel, estimator: Estimator) -> list[int]:
    return [estimate_complexity(s, estimator).bits for s in model.states]


def _counted_mean_se(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of per-pair values weighted by observed counts."""
    n = int(counts.sum())
    finite = np.isfinite(values)
    v = np.where(finite, values, 0.0)  # inf surprisal contributes 2**-inf == 0
    mean = float((v * counts).sum() / n)
    if n > 1:
        variance = float((counts * (v - mean) ** 2).sum() / (n - 1))
    else:
        variance = 0.0
    return mean, math.sqrt(variance / n)
