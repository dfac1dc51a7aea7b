"""Fluctuation-theorem and efficiency bound checks over Markov dynamics.

All logarithms are base 2 so that complexities, surprisals, and the
``log2(1/delta)`` confidence term share units (bits).  Every sample-based
check (:func:`ift_check`, :func:`markov_tail_check`,
:func:`coupled_bound_suite`) reads the sampled transitions as one
``(source, target)`` count matrix from :func:`~wpi.markov.transition_counts`.
The checks record both sides of their inequality and the sample
statistics; pass/fail policies (such as a three-sigma sampling allowance)
belong to the caller, not to the arithmetic here: ``wpi.report`` turns each
check into one verdict for both ``report.json`` and ``bounds.tsv``, and
writes each result's dataclass fields as they are.

The coupled suite constructs the agent the way the bound's own derivation
does: intelligence equal to the irreversible complexity change and energy
equal to its Landauer floor, over unit duration.  It works in natural
units only: energy is counted in bits, one Landauer quantum per bit, so
both sides of the bound are in bits and the lhs is 1.  For that agent the
efficiency bound (I/P) and the adaptivity bound (dI/dE) are the same
inequality, so one suite serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import CoarseState, Estimator, conditional_complexity, estimate_complexity
from .errors import ImpossibleTransitionError, NonErgodicChainError, ValidationError
from .markov import MarkovModel, stationary_distribution


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
    estimator: Estimator
    empirical_ift: float

    def __post_init__(self):
        _check_delta(self.delta)
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
    at or below 1).  A chain without a stationary law has no control:
    ``surprisal_mean`` and ``surprisal_se`` are None and ``surprisal_note``
    holds the :class:`~wpi.errors.NonErgodicChainError` message.
    """

    complexity_mean: float
    complexity_se: float
    surprisal_mean: float | None
    surprisal_se: float | None
    samples: int
    estimator: Estimator
    surprisal_note: str | None = None


@dataclass(frozen=True)
class CoupledSuiteResult:
    """Aggregate of bound checks with the derivation-coupled agent."""

    holds_rate: float
    valid_samples: int
    total_transitions: int
    delta: float
    estimator: Estimator
    checks: tuple[BoundCheckResult, ...]
    check_weights: tuple[int, ...]

    def __post_init__(self):
        _check_delta(self.delta)

    @property
    def rate_standard_error(self) -> float:
        if self.valid_samples == 0:
            return 0.0
        return math.sqrt(self.delta * (1.0 - self.delta) / self.valid_samples)


def ift_check(model: MarkovModel, counts: np.ndarray, estimator: Estimator) -> IftCheckResult:
    """Sample mean of 2**(-delta_i_k) over transitions, with exact control.

    The transitions are given as the ``(source, target)`` count matrix of
    :func:`~wpi.markov.transition_counts`.  The complexity-based mean uses
    the chosen estimator.  The control variable
    ``sigma = log2(P(y|x) pi(x)) - log2(P(x|y) pi(y))`` is averaged over the
    same transitions, with pi the kernel's stationary distribution; a
    non-ergodic chain gets no control and a ``surprisal_note`` instead.
    """
    counts, n_samples = _check_sampled_counts(model, counts)
    c_mean, c_se = _counted_mean_se(_complexity_ift_table(model, estimator), counts)
    s_mean = s_se = note = None
    try:
        sigma = surprisal_table(model)
    except NonErgodicChainError as exc:
        note = str(exc)
    else:
        s_mean, s_se = _counted_mean_se(2.0 ** (-sigma), counts)
    return IftCheckResult(
        complexity_mean=c_mean,
        complexity_se=c_se,
        surprisal_mean=s_mean,
        surprisal_se=s_se,
        samples=n_samples,
        estimator=Estimator(estimator),
        surprisal_note=note,
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
    model: MarkovModel,
    counts: np.ndarray,
    estimator: Estimator,
    delta: float,
) -> BoundCheckResult:
    """Markov-inequality tail check on the sampled values of 2**(-delta_i_k).

    With ``X = 2**(-delta_i_k)`` over the transitions of the count matrix,
    checks the empirical inequality ``Pr{X >= 1/delta} <= delta * mean(X)``.
    This holds exactly for the empirical distribution, so any violation
    indicates an implementation error rather than sampling noise.  The mean
    is the complexity mean of :func:`ift_check` on the same counts.
    """
    _check_delta(delta)  # before 1/delta
    counts, n_samples = _check_sampled_counts(model, counts)
    x = _complexity_ift_table(model, estimator)
    lhs = int(counts[x >= 1.0 / delta].sum()) / n_samples
    mean, _ = _counted_mean_se(x, counts)
    rhs = delta * mean
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        slack=rhs - lhs,
        delta=delta,
        samples=n_samples,
        estimator=Estimator(estimator),
        empirical_ift=mean,
    )


def efficiency_bound_check(
    model: MarkovModel,
    x: CoarseState,
    y: CoarseState,
    agent: tuple[float, float, float],
    delta: float,
    estimator: Estimator,
) -> BoundCheckResult:
    """Check one transition x -> y against the efficiency or adaptivity bound.

    ``agent`` is ``(I, P, tau)`` for efficiency, ``(dI, dE, tau)`` for
    adaptivity; with p the forward probability, both bounds read
    ``I / P <= (1/tau) * (log2(1/p) - K(x|y)) + log2(1/delta)``.
    """
    intelligence, power, duration = agent
    if not (power > 0.0):
        raise ValidationError(f"agent power (adaptation energy) must be > 0, got {power}")
    i, j = model.index_of(x), model.index_of(y)
    k_change = estimate_complexity(y, estimator).bits - estimate_complexity(x, estimator).bits
    return _pair_check(model, i, j, intelligence / power, duration, delta, estimator, k_change)


adaptivity_bound_check = efficiency_bound_check


def coupled_bound_suite(
    model: MarkovModel,
    counts: np.ndarray,
    estimator: Estimator,
    delta: float,
) -> CoupledSuiteResult:
    """Run a bound check on every sampled transition with the coupled agent.

    For each observed transition x -> y with a positive irreversible
    complexity change ``d = K(y) - K(x)``, the agent is built exactly as in
    the bound's derivation: intelligence ``d`` and energy equal to the
    Landauer floor ``d`` in natural units, over duration 1, so the lhs is 1.
    Transitions with ``d <= 0`` admit no such agent (the floor is not
    positive) and are excluded from the rate.  Distinct (x, y) pairs are
    checked once, in row-major order, and weighted by their observed counts,
    the ``(source, target)`` matrix of :func:`~wpi.markov.transition_counts`.
    """
    counts = _check_counts(model, counts)
    k = _complexity_by_index(model, estimator)

    checks: list[BoundCheckResult] = []
    weights: list[int] = []
    for i, j in zip(*np.nonzero(counts)):
        d = k[j] - k[i]
        if d <= 0:
            continue
        checks.append(_pair_check(model, i, j, 1.0, 1.0, delta, estimator, d))
        weights.append(int(counts[i, j]))

    valid = sum(weights)
    held = sum(w for check, w in zip(checks, weights) if check.holds)
    return CoupledSuiteResult(
        holds_rate=held / valid if valid else 1.0,
        valid_samples=valid,
        total_transitions=int(counts.sum()),
        delta=delta,
        estimator=Estimator(estimator),
        checks=tuple(checks),
        check_weights=tuple(weights),
    )


def _pair_check(
    model: MarkovModel,
    i: int,
    j: int,
    lhs: float,
    tau: float,
    delta: float,
    estimator: Estimator,
    k_change: int,
) -> BoundCheckResult:
    """``lhs <= (log2(1/P(y|x)) - K(x|y)) / tau + log2(1/delta)`` for states i -> j.

    P is read from the kernel and K(x|y) estimated here; ``k_change`` is
    ``K(y) - K(x)``, and ``empirical_ift`` is ``2**-k_change``.
    """
    if not (tau > 0.0):
        raise ValidationError(f"duration tau must be > 0, got {tau}")
    _check_delta(delta)  # before log2(1/delta)
    x, y = model.states[i], model.states[j]
    probability = float(model.kernel[i, j])
    if probability == 0.0:
        raise ImpossibleTransitionError(
            f"impossible transition: P({y.bits!r} | {x.bits!r}) = 0"
        )
    k_cond = conditional_complexity(x, y, estimator).bits
    rhs = (math.log2(1.0 / probability) - k_cond) / tau + math.log2(1.0 / delta)
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        slack=rhs - lhs,
        delta=delta,
        samples=1,
        estimator=Estimator(estimator),
        empirical_ift=2.0 ** (-k_change),
    )


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")


def _check_counts(model: MarkovModel, counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts)
    n = model.n_states
    if counts.shape != (n, n):
        raise ValidationError(f"counts must be {n}x{n}, got {counts.shape}")
    if counts.dtype.kind not in "biuf":
        raise ValidationError(f"counts must be numbers, got dtype {counts.dtype}")
    bad = counts < 0
    if counts.dtype.kind == "f":
        bad |= ~np.isfinite(counts) | (counts != np.floor(counts))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidationError(
            f"counts[{i}, {j}] must be a non-negative integer, got {counts[i, j].item()!r}"
        )
    return counts


def _check_sampled_counts(model: MarkovModel, counts: np.ndarray) -> tuple[np.ndarray, int]:
    counts = _check_counts(model, counts)
    n_samples = int(counts.sum())
    if n_samples == 0:
        raise ValidationError("counts contain no transitions")
    return counts, n_samples


def _complexity_by_index(model: MarkovModel, estimator: Estimator) -> list[int]:
    return [estimate_complexity(s, estimator).bits for s in model.states]


def _complexity_ift_table(model: MarkovModel, estimator: Estimator) -> np.ndarray:
    """``2**(-(K(y) - K(x)))`` for every (x, y) index pair."""
    k = np.array(_complexity_by_index(model, estimator), dtype=float)
    return 2.0 ** (k[:, None] - k[None, :])


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
