"""Finite discrete-time Markov models and deterministic trajectory sampling.

Trajectory ``i`` of a sample draws all its randomness from the Philox4x64-10
counter-based stream keyed ``(seed, i)``: the same doubles that
``numpy.random.Generator(numpy.random.Philox(key=[seed, i])).random()``
returns.  Because the generator is counter-based, the sampler computes those
streams as array arithmetic over all trajectory indices at once, in fixed
chunks of trajectories, and returns the paths as one integer array.  A
stream's first draws do not depend on how many follow, so a path sampled
with more steps extends the shorter one.  Seeds range over
``[0, MAX_SEED]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import CoarseState
from .entropy import StateMeasure
from .errors import NonErgodicChainError, ValidationError

#: Tolerance on kernel row sums and the initial distribution, and, times the
#: number of states, on the stationary law's residual.
DISTRIBUTION_TOL = 1e-12

#: Largest sampling seed.  numpy reads a larger key in a ``Philox(key=[...])``
#: list through float64, so its stream would belong to a rounded seed.
MAX_SEED = 2**63 - 1


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Finite state space, transition kernel, measure, and initial law."""

    states: tuple[CoarseState, ...]
    kernel: np.ndarray
    measure: StateMeasure
    initial: np.ndarray
    name: str = "model"

    def __eq__(self, other):
        if not isinstance(other, MarkovModel):
            return NotImplemented
        return (
            self.name == other.name
            and self.states == other.states
            and [s.label for s in self.states] == [s.label for s in other.states]
            and np.array_equal(self.kernel, other.kernel)
            and self.measure == other.measure
            and np.array_equal(self.initial, other.initial)
        )

    def __init__(self, states, kernel, measure, initial, name="model"):
        states = tuple(states)
        if not states:
            raise ValidationError("model needs at least one state")
        if len({s.bits for s in states}) != len(states):
            raise ValidationError("model states must be distinct")
        n = len(states)

        kernel = np.array(kernel, dtype=float)
        if kernel.shape != (n, n):
            raise ValidationError(f"kernel must be {n}x{n}, got {kernel.shape}")
        if np.any(kernel < 0.0):
            raise ValidationError("kernel entries must be >= 0")
        row_sums = kernel.sum(axis=1)
        bad = np.nonzero(np.abs(row_sums - 1.0) > DISTRIBUTION_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"kernel row {bad[0]} sums to {row_sums[bad[0]]!r}, expected 1 "
                f"within {DISTRIBUTION_TOL}"
            )

        initial = np.array(initial, dtype=float)
        if initial.shape != (n,):
            raise ValidationError(f"initial distribution must have length {n}")
        if np.any(initial < 0.0):
            raise ValidationError("initial probabilities must be >= 0")
        if abs(initial.sum() - 1.0) > DISTRIBUTION_TOL:
            raise ValidationError(
                f"initial distribution sums to {initial.sum()!r}, expected 1 "
                f"within {DISTRIBUTION_TOL}"
            )

        for s in states:
            if s not in measure:
                raise ValidationError(f"measure is missing state {s.bits!r}")

        kernel.setflags(write=False)
        initial.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "name", name)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index_of(self, state: CoarseState) -> int:
        for i, s in enumerate(self.states):
            if s == state:
                return i
        raise ValidationError(f"state {state.bits!r} is not in the model")


def is_ergodic(kernel: np.ndarray) -> bool:
    """Irreducible and aperiodic as a directed graph on positive entries.

    Strong connectivity is checked by reachability from state 0 along the
    edges and against them.  The period is the gcd of
    ``level[u] + 1 - level[v]`` over all edges ``u -> v``, where ``level``
    is the breadth-first distance from state 0; the chain is aperiodic when
    that gcd is 1.
    """
    adjacency = np.asarray(kernel) > 0.0
    level = _bfs_levels(adjacency)
    if np.any(level < 0) or np.any(_bfs_levels(adjacency.T) < 0):
        return False
    sources, targets = np.nonzero(adjacency)
    return int(np.gcd.reduce(level[sources] + 1 - level[targets])) == 1


def _bfs_levels(adjacency: np.ndarray) -> np.ndarray:
    """Breadth-first distance of every state from state 0; -1 if unreachable."""
    level = np.full(adjacency.shape[0], -1, dtype=np.int64)
    frontier = np.zeros(adjacency.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = adjacency[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def stationary_distribution(kernel: np.ndarray) -> np.ndarray:
    """Stationary law by a direct solve of ``pi K = pi`` with ``sum(pi) = 1``.

    The last equation of ``pi (K - I) = 0`` is replaced by the
    normalisation, which leaves a nonsingular system for an ergodic kernel.
    The diagonal of ``K - I`` is taken as minus the off-diagonal row sum,
    which avoids the cancellation in ``K[i, i] - 1`` on slowly mixing chains.

    Non-ergodic kernels raise :class:`NonErgodicChainError`: without a
    unique positive stationary distribution the surprisal control quantity
    is ill-defined.  A solution that is not positive, or whose L1 residual
    ``|pi K - pi|`` exceeds ``n * DISTRIBUTION_TOL``, raises
    :class:`ValidationError`.
    """
    kernel = np.asarray(kernel, dtype=float)
    if not is_ergodic(kernel):
        raise NonErgodicChainError(
            "kernel is not ergodic (must be irreducible and aperiodic)"
        )
    n = kernel.shape[0]
    off_diagonal = kernel - np.diag(np.diag(kernel))
    system = (off_diagonal - np.diag(off_diagonal.sum(axis=1))).T
    system[-1] = 1.0
    pi = np.linalg.solve(system, np.eye(n)[-1])
    residual = float(np.abs(pi @ kernel - pi).sum())
    tolerance = n * DISTRIBUTION_TOL
    if not (residual <= tolerance and np.all(pi > 0.0)):
        raise ValidationError(
            f"stationary solve failed: residual |pi K - pi| = {residual!r} "
            f"(tolerance {tolerance!r}), min(pi) = {float(pi.min())!r}"
        )
    return pi


def sample_trajectories(model: MarkovModel, steps: int, count: int, seed: int) -> np.ndarray:
    """Sample ``count`` paths of ``steps`` transitions each.

    Returns an int64 array of shape ``(count, steps + 1)`` whose row ``i``
    lists the state indices visited by trajectory ``i``.  That trajectory
    draws its ``steps + 1`` uniforms from ``Philox(key=(seed, i))``: the
    first picks the initial state, the others one transition each.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be an integer in [0, 2**63 - 1], got {seed!r}")
    seed = int(seed)

    kernel_cdf = np.cumsum(model.kernel, axis=1)
    initial_cdf = np.cumsum(model.initial)
    last = model.n_states - 1
    paths = np.empty((count, steps + 1), dtype=np.int64)
    for lo in range(0, count, _CHUNK):
        index = np.arange(lo, min(lo + _CHUNK, count), dtype=np.uint64)
        path = paths[lo:lo + len(index)]
        u = _philox_uniforms(seed, index, steps + 1)
        path[:, 0] = np.minimum(np.searchsorted(initial_cdf, u[:, 0], side="right"), last)
        for k in range(steps):
            path[:, k + 1] = _row_searchsorted(kernel_cdf, path[:, k], u[:, k + 1])
    return paths


def transition_counts(model: MarkovModel, paths: np.ndarray) -> np.ndarray:
    """Count matrix of observed (source, target) transitions in ``paths``."""
    n = model.n_states
    pairs = paths[:, :-1] * n + paths[:, 1:]
    return np.bincount(pairs.ravel(), minlength=n * n).reshape(n, n)


def _row_searchsorted(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of entries <= ``u`` in ``cdf[rows]``, clipped to n - 1.

    A binary search run in lockstep over all rows; it equals
    ``searchsorted(cdf[row], u, side="right")`` for every nondecreasing row.
    """
    n = cdf.shape[1]
    lo = np.zeros(len(u), dtype=np.int64)
    hi = np.full(len(u), n, dtype=np.int64)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        right = cdf[rows, np.minimum(mid, n - 1)] <= u
        lo = np.where(right & (lo < hi), mid + 1, lo)
        hi = np.where(right, hi, mid)
    return np.minimum(lo, n - 1)


# Philox4x64-10 (Salmon et al., SC'11) as numpy draws it: block b of the
# stream keyed (k0, k1) is the 10-round bijection of counter (b + 1, 0, 0, 0).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Trajectories sampled together; bounds the sampler's working memory.
_CHUNK = 1 << 16


def _philox_uniforms(seed: int, index: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` doubles of ``Generator(Philox(key=[seed, i])).random`` per index."""
    blocks = [_philox_block(seed, index, b + 1) for b in range(-(-k // 4))]
    words = np.stack([w for block in blocks for w in block], axis=1)[:, :k]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _philox_block(seed: int, index: np.ndarray, counter: int) -> tuple[np.ndarray, ...]:
    """One 4-word output block for key ``(seed, index)`` at ``counter``."""
    zero = np.zeros_like(index)
    c0, c1, c2, c3 = zero + np.uint64(counter), zero, zero, zero
    k0, k1 = seed, index
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``m * x``, via 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, hi_lo = x_lo * m_lo, x_hi * m_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + x_lo * m_hi
    hi = x_hi * m_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * np.uint64(m)


def two_state_chain() -> MarkovModel:
    """Symmetric two-state chain; detailed balance makes surprisal exactly zero."""
    states = (CoarseState("0"), CoarseState("1"))
    kernel = [[0.875, 0.125],
              [0.125, 0.875]]
    measure = StateMeasure({states[0]: 1.0, states[1]: 0.5})
    return MarkovModel(states, kernel, measure, [0.5, 0.5], name="two-state")


def four_state_chain() -> MarkovModel:
    """Cyclically biased lazy chain over 4-bit states of unequal complexity.

    All probabilities are exact binary fractions (56/64, 4/64, 3/64, 1/64),
    the kernel is doubly stochastic (uniform stationary law), every
    transition has a positive reverse transition, and the bias makes the
    surprisal quantity genuinely fluctuate.
    """
    states = (
        CoarseState("0000"),
        CoarseState("0101"),
        CoarseState("0110"),
        CoarseState("1011"),
    )
    s, f, d, b = 0.875, 0.0625, 0.046875, 0.015625  # stay, +1, +2, -1
    kernel = [
        [s, f, d, b],
        [b, s, f, d],
        [d, b, s, f],
        [f, d, b, s],
    ]
    measure = StateMeasure({
        states[0]: 1.0,
        states[1]: 0.5,
        states[2]: 2.0,
        states[3]: 0.25,
    })
    return MarkovModel(states, kernel, measure, [0.25] * 4, name="four-state")


def eight_state_chain() -> MarkovModel:
    """Biased ring over the 3-bit states: forward 1/2, stay 5/16, back 3/16."""
    bits = ["000", "001", "011", "010", "110", "111", "101", "100"]
    states = tuple(CoarseState(b) for b in bits)
    n = len(states)
    kernel = np.zeros((n, n))
    for i in range(n):
        kernel[i, (i + 1) % n] = 0.5
        kernel[i, i] = 0.3125
        kernel[i, (i - 1) % n] = 0.1875
    measure = StateMeasure({s: 1.0 for s in states})
    return MarkovModel(states, kernel, measure, [1.0 / n] * n, name="eight-state")


def four_state_structural_chain() -> MarkovModel:
    """The four-state chain relabeled as architecture (structural) states."""
    base = four_state_chain()
    labels = ("arch-dense", "arch-sparse", "arch-routed", "arch-spiking")
    states = tuple(
        CoarseState(s.bits, label=lab) for s, lab in zip(base.states, labels)
    )
    measure = StateMeasure({s: base.measure.weights[s] for s in states})
    return MarkovModel(states, base.kernel, measure, base.initial, name="four-state-structural")


def shipped_chains() -> list[MarkovModel]:
    """The ergodic test chains bundled with the package."""
    return [two_state_chain(), four_state_chain(), eight_state_chain()]
