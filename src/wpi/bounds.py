"""Fluctuation-theorem and efficiency bound checks over Markov dynamics.

All logarithms are base 2 so that complexities, surprisals, and the
``log2(1/delta)`` confidence term share units (bits).  Every check reads
the :class:`ModelTable` that :func:`model_table` builds once per model and
estimator.  Each sample-based check (:func:`ift_check`,
:func:`markov_tail_check`, :func:`coupled_bound_suite`) reads it with the
sampled transitions as one ``(source, target)`` count matrix from
:func:`~wpi.markov.transition_counts`; a count on a transition of kernel
probability 0 is an :class:`~wpi.errors.ImpossibleTransitionError`.  The
checks record both sides of their inequality and the sample statistics;
pass/fail policies (such as a three-sigma sampling allowance) belong to
the caller, not to the arithmetic here: ``wpi.report`` turns each check
into one verdict for both ``report.json`` and ``bounds.tsv``, and writes
each result's dataclass fields as they are.

Each check of the coupled suite is :func:`efficiency_bound_check`, the one
per-transition bound arithmetic, on one sampled pair with the agent of the
bound's own derivation, ``(d, d, 1)``: intelligence equal to the
irreversible complexity change d and energy equal to its Landauer floor,
over unit duration.  Energy is counted in bits, one Landauer quantum per
bit, so both sides of the bound are in bits and the lhs is 1.  For that
agent the efficiency bound (I/P) and the adaptivity bound (dI/dE) are the
same inequality, so one suite serves both.
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


@dataclass(frozen=True, eq=False)
class ModelTable:
    """One model's inputs to every bound check, for one estimator.

    ``k`` is K of each state in bits, in state order; ``ift`` is
    ``2**(-(K(y) - K(x)))`` for every (x, y) index pair.  ``sigma`` is the
    model's :func:`surprisal_table`, or None on a chain without a stationary
    law, whose :class:`~wpi.errors.NonErgodicChainError` message is ``note``.
    """

    model: MarkovModel
    estimator: Estimator
    k: tuple[int, ...]
    ift: np.ndarray
    sigma: np.ndarray | None
    note: str | None


def model_table(model: MarkovModel, estimator: Estimator) -> ModelTable:
    """Estimate K of each state of ``model`` once, and tabulate what the checks read."""
    estimator = Estimator(estimator)
    k = tuple(estimate_complexity(s, estimator).bits for s in model.states)
    kf = np.array(k, dtype=float)
    sigma = note = None
    try:
        sigma = surprisal_table(model)
    except NonErgodicChainError as exc:
        note = str(exc)
    return ModelTable(model, estimator, k, 2.0 ** (kf[:, None] - kf[None, :]), sigma, note)


def ift_check(table: ModelTable, counts: np.ndarray) -> IftCheckResult:
    """Sample mean of 2**(-delta_i_k) over transitions, with exact control.

    The transitions are given as the ``(source, target)`` count matrix of
    :func:`~wpi.markov.transition_counts`.  The complexity-based mean uses
    the table's estimator.  The control variable
    ``sigma = log2(P(y|x) pi(x)) - log2(P(x|y) pi(y))`` is averaged over the
    same transitions, with pi the kernel's stationary distribution; a
    non-ergodic chain gets no control and a ``surprisal_note`` instead.
    """
    counts, n_samples = _check_sampled_counts(table.model, counts)
    c_mean, c_se = _counted_mean_se(table.ift, counts)
    s_mean = s_se = None
    if table.sigma is not None:
        s_mean, s_se = _counted_mean_se(2.0 ** (-table.sigma), counts)
    return IftCheckResult(
        complexity_mean=c_mean,
        complexity_se=c_se,
        surprisal_mean=s_mean,
        surprisal_se=s_se,
        samples=n_samples,
        estimator=table.estimator,
        surprisal_note=table.note,
    )


def surprisal_table(model: MarkovModel) -> np.ndarray:
    """Matrix of sigma(x, y) over all transition pairs of an ergodic chain.

    Entries with zero forward probability never occur in sampled data and
    are set to 0; a positive forward transition whose reverse has zero
    probability gets sigma = +inf (its 2**(-sigma) contribution is 0).
    """
    weighted = model.kernel * stationary_distribution(model.kernel)[:, None]
    positive = model.kernel > 0.0
    logs = np.zeros_like(weighted)
    # scalar math.log2: numpy's log2 can differ from it in the last bit
    logs[positive] = [math.log2(w) for w in weighted[positive].tolist()]
    table = logs - logs.T
    table[~positive.T] = math.inf
    table[~positive] = 0.0
    return table


def markov_tail_check(table: ModelTable, counts: np.ndarray, delta: float) -> BoundCheckResult:
    """Markov-inequality tail check on the sampled values of 2**(-delta_i_k).

    With ``X = 2**(-delta_i_k)`` over the transitions of the count matrix,
    checks the empirical inequality ``Pr{X >= 1/delta} <= delta * mean(X)``.
    This holds exactly for the empirical distribution, so any violation
    indicates an implementation error rather than sampling noise.  The mean
    is the complexity mean of :func:`ift_check` on the same counts.
    """
    _check_delta(delta)  # before 1/delta
    counts, n_samples = _check_sampled_counts(table.model, counts)
    lhs = int(counts[table.ift >= 1.0 / delta].sum()) / n_samples
    mean, _ = _counted_mean_se(table.ift, counts)
    rhs = delta * mean
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        slack=rhs - lhs,
        delta=delta,
        samples=n_samples,
        estimator=table.estimator,
        empirical_ift=mean,
    )


def efficiency_bound_check(
    table: ModelTable,
    x: CoarseState,
    y: CoarseState,
    agent: tuple[float, float, float],
    delta: float,
) -> BoundCheckResult:
    """Check one transition x -> y against the efficiency or adaptivity bound.

    ``agent`` is ``(I, P, tau)`` for efficiency, ``(dI, dE, tau)`` for
    adaptivity; with p the forward probability, both bounds read
    ``I / P <= (1/tau) * (log2(1/p) - K(x|y)) + log2(1/delta)``.  K(x) and
    K(y) are read from the table; K(x|y) is estimated here.
    """
    intelligence, power, duration = agent
    if not math.isfinite(intelligence):
        raise ValidationError(f"agent intelligence must be finite, got {intelligence}")
    if not 0.0 < power < math.inf:
        raise ValidationError(f"agent power (adaptation energy) must be finite and > 0, got {power}")
    if not 0.0 < duration < math.inf:
        raise ValidationError(f"agent duration tau must be finite and > 0, got {duration}")
    _check_delta(delta)  # before log2(1/delta)
    i, j = table.model.index_of(x), table.model.index_of(y)
    probability = float(table.model.kernel[i, j])
    if probability == 0.0:
        raise ImpossibleTransitionError(f"impossible transition: P({y.bits!r} | {x.bits!r}) = 0")
    k_change = table.k[j] - table.k[i]
    k_cond = conditional_complexity(x, y, table.estimator).bits
    lhs = intelligence / power
    # -log2(x), not log2(1/x): 1/x overflows to inf for x below 2**-1024
    rhs = (-math.log2(probability) - k_cond) / duration - math.log2(delta)
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        slack=rhs - lhs,
        delta=delta,
        samples=1,
        estimator=table.estimator,
        empirical_ift=2.0 ** (-k_change),
    )


adaptivity_bound_check = efficiency_bound_check


def coupled_bound_suite(table: ModelTable, counts: np.ndarray, delta: float) -> CoupledSuiteResult:
    """Run a bound check on every sampled transition with the coupled agent.

    Each observed transition x -> y with a positive irreversible complexity
    change ``d = K(y) - K(x)`` is checked by :func:`efficiency_bound_check`
    with the agent ``(d, d, 1.0)`` of the bound's derivation: intelligence
    ``d`` and energy its Landauer floor ``d`` in natural units, over duration
    1, so the lhs is 1.  Transitions with ``d <= 0`` admit no such agent (the
    floor is not positive) and are excluded from the rate.  Distinct (x, y)
    pairs are checked once, in row-major order, and weighted by their
    observed counts, the ``(source, target)`` matrix of
    :func:`~wpi.markov.transition_counts`.
    """
    model, k = table.model, np.array(table.k)
    counts = _check_counts(model, counts)

    checks: list[BoundCheckResult] = []
    weights: list[int] = []
    # flat indices of the checked pairs: ascending, so in row-major order
    for pair in np.flatnonzero((counts != 0) & (k[:, None] < k)).tolist():
        i, j = divmod(pair, model.n_states)
        d = int(k[j] - k[i])
        x, y = model.states[i], model.states[j]
        checks.append(efficiency_bound_check(table, x, y, (d, d, 1.0), delta))
        weights.append(int(counts[i, j]))

    valid = sum(weights)
    held = sum(w for check, w in zip(checks, weights) if check.holds)
    return CoupledSuiteResult(
        holds_rate=held / valid if valid else 1.0,
        valid_samples=valid,
        total_transitions=int(counts.sum()),
        delta=delta,
        estimator=table.estimator,
        checks=tuple(checks),
        check_weights=tuple(weights),
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
    impossible = (counts != 0) & (model.kernel == 0.0)
    if impossible.any():
        i, j = np.argwhere(impossible)[0]
        raise ImpossibleTransitionError(
            f"counts[{i}, {j}] = {counts[i, j].item()!r} on an impossible transition: "
            f"P({model.states[j].bits!r} | {model.states[i].bits!r}) = 0"
        )
    return counts


def _check_sampled_counts(model: MarkovModel, counts: np.ndarray) -> tuple[np.ndarray, int]:
    counts = _check_counts(model, counts)
    n_samples = int(counts.sum())
    if n_samples == 0:
        raise ValidationError("counts contain no transitions")
    return counts, n_samples


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
