"""Finite discrete-time Markov models and deterministic trajectory sampling.

Trajectory ``i`` of a sample draws all its randomness from the Philox4x64-10
counter-based stream keyed ``(seed, i)``: the same doubles that
``numpy.random.Generator(numpy.random.Philox(key=[seed, i])).random()``
returns.  Because the generator is counter-based, the sampler computes those
streams as array arithmetic over the trajectory indices of one chunk of
``_CHUNK`` trajectories at a time, in passes of up to ``_CHUNK`` lanes: a
pass draws ``_CHUNK // rows`` consecutive Philox blocks (four keys each) of
a chunk's ``rows`` paths, and a last block of fewer keys has its own pass.
It returns the paths as one integer array, or, given a consumer, passes
each chunk of rows to it while the chunk is still in cache and makes no
array of all the paths: a :class:`_PathTally` consumer counts and hashes
the chunks as they are drawn.  Beyond the paths written (all of them, or
one chunk) and its tables, the sampler writes only one chunk's workspace
(:func:`path_buffer`), however many trajectories or steps it draws.  Each
double is a 53-bit integer key times ``2**-53``, and a state is picked from
its key by an exact guide-table lookup (:class:`_GuideTable`) whose answers
are those of a binary search of the row's CDF for the double.
A stream's first draws do not depend on how many follow, so a path sampled
with more steps extends the shorter one.  Seeds range over ``[0, MAX_SEED]``.

On the hot path (:func:`_philox_keys`, :func:`_mulhi`, :meth:`_GuideTable.search`)
each numpy call pays only its own dispatch, where the other forms took 1.6
to 6.3 times as long a call (``BENCH_27.json``): constants are read-only 0-d
arrays made at import or once a call, outputs are the third positional
argument, no array is updated by augmented assignment, and gathers call
``ndarray.take``.
"""

from __future__ import annotations

import hashlib
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complexity import CoarseState
from .errors import ConfigError, NonErgodicChainError, ValidationError

#: Tolerance on kernel row sums and the initial distribution, and, times the
#: number of states, on the stationary law's residual.
DISTRIBUTION_TOL = 1e-12

#: Largest sampling seed.  numpy reads a larger key in a ``Philox(key=[...])``
#: list through float64, so its stream would belong to a rounded seed.
MAX_SEED = 2**63 - 1


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Finite state space, transition kernel, and initial law.

    The constructor checks every rule of a model and raises one
    :class:`~wpi.errors.ConfigError` naming each problem by its field:
    ``name``, ``states``, ``kernel``, ``kernel/<j>`` or ``initial``.
    """

    states: tuple[CoarseState, ...]
    kernel: np.ndarray
    initial: np.ndarray
    name: str = "model"

    def __eq__(self, other):
        if not isinstance(other, MarkovModel):
            return NotImplemented
        return (
            self.name == other.name
            and self.states == other.states
            and np.array_equal(self.kernel, other.kernel)
            and np.array_equal(self.initial, other.initial)
        )

    def __init__(self, states, kernel, initial, name="model"):
        issues = [] if name else [("name", "model name must be non-empty")]
        states = tuple(states)
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        if not n:
            issues.append(("states", "must list at least one state"))
        elif len(index) != n:
            issues.append(("states", "model states must be distinct"))
        # without states there is no shape to check the laws against
        kernel = _float_array(kernel, (n, n), "kernel", issues) if n else None
        initial = _float_array(initial, (n,), "initial", issues) if n else None
        if kernel is not None:
            issues += ((f"kernel/{j}", f"kernel row {why}") for j, why in distribution_problems(kernel))
        if initial is not None:
            issues += (("initial", f"initial distribution {why}")
                       for _, why in distribution_problems(initial[None, :]))
        if issues:
            raise ConfigError(issues)

        kernel.setflags(write=False)
        initial.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_index", index)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index_of(self, state: CoarseState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ValidationError(f"state {state.bits!r} is not in the model") from None


def _float_array(values, shape: tuple[int, ...], field: str, issues: list) -> np.ndarray | None:
    """``values`` as a float array of ``shape``, or None with its faulty parts in ``issues``."""
    try:
        array = np.array(values, dtype=float)
        if array.shape == shape:
            return array
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or beyond the float range
        pass
    n, before = shape[0], len(issues)
    try:
        if len(values) != n:
            issues.append((field, f"must have {n} entries, got {len(values)}"))
        for j, row in enumerate(values if len(shape) == 2 else ()):
            _float_array(row, shape[1:], f"{field}/{j}", issues)
    except TypeError:  # no length: a number or an iterator
        pass
    if len(issues) == before:
        kind = "numbers" if len(shape) == 1 else "rows"
        issues.append((field, f"must be a list of {n} {kind}, got {reprlib.repr(values)}"))
    return None


def distribution_problems(rows: np.ndarray) -> list[tuple[int, str]]:
    """``(row, why)`` for each row of ``rows`` that is not a probability vector.

    ``rows`` is a 2-D float array of kernel rows or initial laws.  Entries
    must be >= 0 and sum to 1 within ``DISTRIBUTION_TOL``; a NaN sum fails
    the tolerance test.  Rows are listed in order.
    """
    negative = (rows < 0.0).any(axis=1)
    totals = rows.sum(axis=1)
    bad = negative | ~(np.abs(totals - 1.0) <= DISTRIBUTION_TOL)
    return [
        (int(row), "has a negative entry; entries must be >= 0" if negative[row]
         else f"sums to {float(totals[row])!r}, expected 1 within {DISTRIBUTION_TOL}")
        for row in np.flatnonzero(bad)
    ]


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

    A kernel that is not irreducible and aperiodic (:func:`is_ergodic`)
    raises :class:`NonErgodicChainError`, although a periodic irreducible
    kernel has a unique positive stationary law too.  A solution that is not
    positive, or whose L1 residual ``|pi K - pi|`` exceeds
    ``n * DISTRIBUTION_TOL``, raises :class:`ValidationError`.
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


def sample_trajectories(model: MarkovModel, steps: int, count: int, seed: int,
                        out: _Workspace | None = None,
                        each: Callable[[np.ndarray], object] | None = None) -> np.ndarray | None:
    """Sample ``count`` paths of ``steps`` transitions each.

    Returns an int64 array of shape ``(count, steps + 1)`` whose row ``i``
    lists the state indices visited by trajectory ``i``.  That trajectory
    draws its ``steps + 1`` uniforms from ``Philox(key=(seed, i))``: the
    first picks the initial state, the others one transition each.

    Given a consumer ``each``, no array of all the paths is made and None is
    returned: the rows are drawn ``_CHUNK`` at a time into ``out``, the
    workspace that :func:`path_buffer` returns for ``steps`` and ``count``
    (by default a new one), and each filled block is passed to ``each`` in
    row order before the next is drawn.  Any other ``out``, or one given
    without ``each``, is a :class:`ValidationError`.
    """
    _check_sample_size(steps, count)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be an integer in [0, 2**63 - 1], got {seed!r}")
    seed = int(seed)

    block = (min(count, _CHUNK), steps + 1)
    if out is None:
        out = _Workspace(count if each is None else block[0], steps)
    elif each is None or not (isinstance(out, _Workspace) and out.paths.shape == block):
        got = f"one of shape {out.paths.shape}" if isinstance(out, _Workspace) else reprlib.repr(out)
        raise ValidationError(f"out must be a workspace as path_buffer({steps}, {count}) returns, of shape "
                              f"{block}, given with each, got {got}{' without each' if each is None else ''}")

    initial = _guide_table(model.initial[None, :])
    kernel = _guide_table(model.kernel)
    full, tail = divmod(int(steps) + 1, 4)  # full-width Philox blocks, and the last one's width
    for lo in range(0, count, _CHUNK):
        rows = min(_CHUNK, count - lo)
        path = out.paths[lo:lo + rows] if each is None else out.paths[:rows]
        offsets = out.offsets[:rows]
        # the rounds leave their keys in words[:5]; the lookups' int64 scratch
        # is two of the multiplier's buffers, which no key occupies
        scratch = [*(w[:rows].view(np.int64) for w in out.words[-2:]), out.below[:rows]]
        group = _CHUNK // rows  # the full blocks of one pass, within _CHUNK lanes
        passes = [(range(b, min(b + group, full)), 4) for b in range(0, full, group)]
        if tail:
            passes.append((range(full, full + 1), tail))
        for blocks, width in passes:
            words = [w[:len(blocks) * rows] for w in out.words]
            keys = _philox_keys(seed, lo, offsets, blocks, width, words)
            for b, block_keys in zip(blocks, zip(*keys)):
                for k, key in enumerate(block_keys, 4 * b):
                    if k:
                        kernel.search(path[:, k - 1], key, path[:, k], scratch)
                    else:
                        initial.search(0, key, path[:, 0], scratch)
        if each is not None:
            each(path)
    return out.paths if each is None else None


class _Workspace:
    """All the sampler writes but its guide tables, as :func:`path_buffer` describes it.

    ``paths`` are ``rows`` uninitialised paths of ``steps`` transitions (too
    many to allocate is a :class:`ValidationError`); ``words`` are the eight
    uint64 buffers of :func:`_philox_keys`, as long as a chunk's largest pass;
    ``below`` the lookups' bool scratch and ``offsets`` the read-only offsets
    ``0, 1, ...`` of a chunk's trajectories, each of ``min(rows, _CHUNK)`` entries.
    """

    def __init__(self, rows: int, steps: int):
        shape = (int(rows), int(steps) + 1)
        try:
            self.paths = np.empty(shape, dtype=np.int64)
        except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
            raise ValidationError(
                f"cannot allocate the sampled paths: an int64 array of shape "
                f"{shape} needs {shape[0] * shape[1] * 8} bytes"
            ) from None
        rows = min(shape[0], _CHUNK)
        lanes = max(rows, min(_CHUNK, rows * (shape[1] // 4)))  # a pass's blocks of a chunk
        self.words = [np.empty(lanes, dtype=np.uint64) for _ in range(8)]
        self.below = np.empty(rows, dtype=bool)
        self.offsets = np.arange(rows, dtype=np.uint64)
        self.offsets.setflags(write=False)


def path_buffer(steps: int, count: int) -> _Workspace:
    """The workspace in which ``sample_trajectories(..., out=..., each=...)`` draws ``count`` paths.

    It holds everything the sampler writes but its guide tables: a block of
    ``min(count, _CHUNK)`` int64 paths of ``steps`` transitions, which each
    chunk overwrites, one pass's Philox words, 64 bytes a lane for up to
    ``_CHUNK`` lanes, and one chunk's lookup scratch and trajectory offsets,
    9 bytes a trajectory.  A call given a workspace allocates only its guide
    tables, so a run that samples several models of one shape in turn draws
    them all in one workspace, and the kernel zero-fills its pages once, not
    once a model (``BENCH_30.json``).
    """
    _check_sample_size(steps, count)
    return _Workspace(min(count, _CHUNK), steps)


def _check_sample_size(steps: int, count: int) -> None:
    for name, value in (("steps", steps), ("count", count)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")


class _PathTally:
    """Transition counts and the path digest of rows of paths added in order.

    :meth:`add` takes the rows of a sample in row order, in blocks of any
    size, and casts and reads about ``_CHUNK`` entries at a time.
    ``first_counts`` is the (source, target) matrix of each path's first
    step, ``counts`` that of every step (views of the tally's two arrays, or
    one while no path has two steps), and ``first_path`` row 0 as a list.
    ``digest``, kept only with ``digest``, is the sha256 of the rows as
    text: each row's decimal state indices joined by ``,`` and followed by
    ``;``, rows in order (``[[0, 1], [10, 2]]`` is ``0,1;10,2;``).
    :meth:`add` does not check its rows: it takes the sampler's own and
    those that :func:`transition_counts` has checked.
    """

    def __init__(self, n: int, digest: bool = True):
        self.n = n
        self.rows = 0
        self.first_path: list[int] | None = None
        self._first = np.zeros(n * n, dtype=np.intp)
        self._every = self._first  # every step is a first step until a path has two
        self._sha = hashlib.sha256() if digest else None
        if digest:
            # state s's token within a row, s and ",", and at a row's end, s
            # and ";", NUL-padded to the widest token; the text has no NUL,
            # so dropping them after the gather leaves the tokens joined
            width = len(str(n - 1)) + 1
            self._padded = n > 10  # state 10's token is wider than state 0's
            self._inner, self._end = (
                np.array([f"{s}{end}".encode() for s in range(n)], dtype=f"S{width}")
                for end in ",;")

    @property
    def first_counts(self) -> np.ndarray:
        return self._first.reshape(self.n, self.n)

    @property
    def counts(self) -> np.ndarray:
        return self._every.reshape(self.n, self.n)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def add(self, paths: np.ndarray) -> None:
        """Add the next rows: a 2-D integer array of state indices in ``[0, n)``, not re-checked."""
        if self.first_path is None and len(paths):
            self.first_path = paths[0].tolist()
        self.rows += len(paths)
        n, step = self.n, max(1, _CHUNK // paths.shape[1])
        for lo in range(0, len(paths), step):
            rows = paths[lo:lo + step].astype(np.intp, copy=False)
            if rows.shape[1] > 1:
                pairs = rows[:, :-1] * n
                np.add(pairs, rows[:, 1:], pairs)
                if rows.shape[1] > 2 and self._every is self._first:
                    self._every = self._first.copy()
                _count(self._first, pairs[:, 0])
                if self._every is not self._first:
                    _count(self._every, pairs.ravel())
                del pairs  # so that the next chunk's pairs are not made beside them
            if self._sha is not None:
                text = self._inner.take(rows)
                text[:, -1] = self._end.take(rows[:, -1])
                self._sha.update(text.tobytes().translate(None, b"\0") if self._padded else text)


def _count(counts: np.ndarray, codes: np.ndarray) -> None:
    """Add one to ``counts[c]`` for each ``c`` in ``codes``, one by one if there are fewer
    codes than the ``len(counts)`` entries a bincount zero-fills (``BENCH_29.json``)."""
    if len(codes) < len(counts):
        np.add.at(counts, codes, 1)
    else:
        np.add(counts, np.bincount(codes, minlength=len(counts)), counts)


def transition_counts(model: MarkovModel, paths: np.ndarray) -> np.ndarray:
    """Count matrix of observed (source, target) transitions in ``paths``.

    ``paths``, a 2-D integer array of at least one column of state indices in
    ``[0, n_states)``, is checked whole before any count array is made, then
    counted block by block.
    """
    n, paths = model.n_states, np.asarray(paths)
    if paths.ndim != 2 or paths.dtype.kind not in "iu":
        raise ValidationError(f"paths must be a 2-D integer array, got {paths.ndim}-D {paths.dtype}")
    if not paths.shape[1]:
        raise ValidationError(f"paths must have at least one column, got shape {paths.shape}")
    unsigned = paths.view(paths.dtype.str.replace("i", "u"))  # a negative index reads as >= n
    if unsigned.max(initial=0) >= n:
        r, c = divmod(int(np.argmax(unsigned >= n)), paths.shape[1])
        raise ValidationError(f"paths[{r}, {c}] = {paths[r, c]} is not a state index in [0, {n})")
    tally = _PathTally(n, digest=False)
    tally.add(paths)
    return tally.counts


def _constant(value: int, dtype=np.uint64) -> np.ndarray:
    """``value`` as a read-only 0-d array: a ufunc operand that no call converts or overwrites."""
    array = np.array(value, dtype=dtype)
    array.setflags(write=False)
    return array


#: Bits of a key: Philox word ``w`` gives key ``w >> 11``, the uniform ``key * 2**-53``.
_KEY_BITS = 53

#: Most entries in a guide table, unless ``2**ceil(log2 n)`` buckets a row take more.
_GUIDE_ENTRIES = 1 << 20

#: Entries of the work arrays with which :func:`_guide_table` reads a block of rows.
_BUILD_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class _GuideTable:
    """Row-wise inverse CDFs of a stochastic matrix on 53-bit integer keys.

    For row ``r`` and key ``v`` in ``[0, 2**53)``, :meth:`search` gives
    ``min(searchsorted(cumsum(p[r]), v * 2**-53, side="right"), n - 1)``:
    the number of the row's first ``n - 1`` CDF entries ``c`` with
    ``c <= v * 2**-53``.  Entry ``c`` becomes the threshold
    ``ceil(c * 2**53)``, and ``c <= v * 2**-53`` exactly when
    ``v >= ceil(c * 2**53)``, since scaling by a power of two is exact.
    Each row's keys fall into ``2**bits`` equal buckets (Chen & Asau's guide
    table), and ``guide`` holds the answer for each bucket's lowest key.
    Where no threshold falls strictly inside a bucket, that is the answer,
    and ``depth`` is 0.  Otherwise ``depth`` is the most thresholds below
    ``2**53`` in one bucket's range ``(b, b + 1] * 2**(53 - bits)``, and a
    key is finished by a binary search of its bucket's range in
    ``depth.bit_length()`` rounds.
    """

    bits: int
    depth: int
    #: row r's bucket b at r * 2**bits + b; with depth > 0, the answer's index
    #: in ``thresholds``, r * stride + answer
    guide: np.ndarray
    #: with depth > 0, row r's thresholds at r * stride (2**53 + 1 for one that
    #: no key reaches), then as many entries of 2**53 + 1 as a search reads past them
    thresholds: np.ndarray
    stride: int

    def __post_init__(self):  # a key's bucket is key >> shift; row r's start at r * width
        object.__setattr__(self, "shift", _constant(_KEY_BITS - self.bits, np.int64))
        object.__setattr__(self, "width", _constant(1 << self.bits, np.int64))

    def search(self, rows: np.ndarray | int, keys: np.ndarray, out: np.ndarray,
               scratch: list[np.ndarray]) -> None:
        """``out[i]`` is the answer for ``keys[i]`` in row ``rows[i]``.

        ``keys`` and ``rows`` are int64 arrays, or ``rows`` is 0 for every
        key, which needs no row offsets; ``scratch`` is two int64 and one
        bool array of ``len(keys)`` entries.
        """
        at, value, below = scratch
        np.right_shift(keys, self.shift, at)
        if isinstance(rows, np.ndarray):
            np.multiply(rows, self.width, value)
            np.add(at, value, at)
        self.guide.take(at, None, value, "clip")  # every index is in range
        if not self.depth:
            out[...] = value  # take would copy through a temporary into a strided ``out``
            return
        # a lockstep binary search over all rows: a threshold at or below its
        # key moves ``at`` past it, so the passed ones start the step's gather
        at, value = value, at
        step = 1 << (self.depth.bit_length() - 1)
        while step:
            self.thresholds[step - 1:].take(at, None, value, "clip")
            np.less_equal(value, keys, below)
            np.add(at, step, at, where=below)
            step >>= 1
        if isinstance(rows, np.ndarray):
            np.multiply(rows, self.stride, value)
            np.subtract(at, value, out)
        else:
            out[...] = at


def _guide_table(probabilities: np.ndarray) -> _GuideTable:
    """The :class:`_GuideTable` of the rows of ``probabilities``.

    ``bits`` is the least number for which every threshold below ``2**53``
    is a multiple of ``2**(53 - bits)``, so that no bucket needs a search,
    but at most ``ceil(log2 n) + 4``, lowered towards ``ceil(log2 n)`` while
    the table would exceed ``_GUIDE_ENTRIES`` entries.  Each threshold is
    counted into the first bucket whose lowest key reaches it, and a
    bucket's answer is the running count.  The rows are read in blocks of
    about ``_BUILD_BLOCK`` entries, so that the work arrays stay small; the
    table itself is written once.
    """
    rows, n = probabilities.shape
    block = min(rows, max(1, _BUILD_BLOCK // n))
    wide = (n - 1).bit_length()  # ceil(log2 n)
    # room for the entries that a search of depth n - 1 reads past a row's last
    stride = n + max((1 << wide >> 1) - 1, 0)
    thresholds = np.empty((rows, stride), dtype=np.int64)
    cdf = np.empty((block, n))
    union = 0  # its lowest bit is the finest of any threshold
    for lo in range(0, rows, block):
        part = cdf[:min(block, rows - lo)]
        np.cumsum(probabilities[lo:lo + len(part), :n - 1], axis=1, out=part[:, :n - 1])
        part[:, n - 1] = 1.0
        part *= 2.0**_KEY_BITS
        np.ceil(part, out=part)
        np.minimum(part, 2.0**_KEY_BITS, out=part)  # a row may sum to just above 1
        done = thresholds[lo:lo + len(part), :n]
        np.copyto(done, part, casting="unsafe")
        union |= int(np.bitwise_or.reduce(done, axis=None))
        done |= done >> _KEY_BITS  # 2**53, which no key reaches, is kept as 2**53 + 1
    exact_bits = _KEY_BITS + 1 - (union & -union).bit_length()
    cap = min(wide + 4, (_GUIDE_ENTRIES // rows).bit_length() - 1)
    bits = min(exact_bits, max(wide, cap))

    # column 0 of a row's counts is its thresholds at 0, column b + 1 those in
    # (b, b + 1] * 2**shift, and the last column those at 2**53 + 1
    shift, columns = _KEY_BITS - bits, (1 << bits) + 2
    guide = np.empty((rows, 1 << bits), dtype=np.int64)
    first = np.empty((block, n), dtype=np.int64)
    offsets = np.arange(0, block * columns, columns)[:, None]
    depth = 0
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        part, at = thresholds[lo:hi, :n], first[:hi - lo]
        np.add(part, (1 << shift) - 1, out=at)
        at >>= shift  # the first bucket whose lowest key reaches the threshold
        at += offsets[:hi - lo]
        counts = np.bincount(at.ravel(), minlength=(hi - lo) * columns).reshape(hi - lo, columns)
        if bits < exact_bits:
            depth = max(depth, int(counts[:, 1:-1].max()))
            counts[:, 0] += np.arange(lo * stride, hi * stride, stride)  # answers as indices
        np.cumsum(counts[:, :-2], axis=1, out=guide[lo:hi])
    if not depth:
        return _GuideTable(bits, 0, guide.ravel(), np.empty(0, dtype=np.int64), 0)
    thresholds[:, n:n + (1 << depth.bit_length() >> 1) - 1] = (1 << _KEY_BITS) + 1
    return _GuideTable(bits, depth, guide.ravel(), thresholds.ravel(), stride)


# Philox4x64-10 (Salmon et al., SC'11) as numpy draws it: block b of the
# stream keyed (k0, k1) is the 10-round bijection of counter (b + 1, 0, 0, 0).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
#: output lane j of a round reads input lanes _PHILOX_READS[j]
_PHILOX_READS = ((1, 2), (2,), (0, 3), (0,))
_MASK64 = (1 << 64) - 1
_M0, _M1 = (_constant(m) for m in _PHILOX_M)
#: each multiplier's low and high 32-bit halves, as _mulhi takes them
_M0_HALVES, _M1_HALVES = ((_constant(m & 0xFFFFFFFF), _constant(m >> 32)) for m in _PHILOX_M)
_LOW32 = _constant(0xFFFFFFFF)
_SHIFT32 = _constant(32)
_KEY_SHIFT = _constant(64 - _KEY_BITS)


def _live_lanes(width: int) -> tuple[tuple[bool, ...], ...]:
    """Whether rounds 2 to 9 compute each output lane, for a block's first ``width`` words."""
    live = [set(range(width))]
    while len(live) < _PHILOX_ROUNDS - 2:  # the lanes of rounds 9 down to 2
        live.append({i for lane in live[-1] for i in _PHILOX_READS[lane]})
    return tuple(tuple(lane in lanes for lane in range(4)) for lanes in reversed(live))


#: the lane schedule of each number of words a block returns
_PHILOX_LIVE = {width: _live_lanes(width) for width in range(1, 5)}

#: Trajectories sampled together, the most Philox lanes of one pass (a chunk of
#: ``rows`` paths draws ``_CHUNK // rows`` blocks a pass), and about the entries
#: :class:`_PathTally` reads at a time; on the shipped chains 8,192 and 16,384
#: were the fastest chunks of the sizes from 4,096 to 65,536 (``BENCH_23.json``).
_CHUNK = 1 << 14


def _philox_keys(seed: int, start: int, offsets: np.ndarray, blocks: range, width: int,
                 words: list[np.ndarray]) -> list[np.ndarray]:
    """The first ``width <= 4`` 53-bit keys of each of the ``blocks`` of ``Philox(key=[seed, i])``.

    ``Generator(Philox(key=[seed, i])).random(k)`` is exactly a stream's keys
    times ``2**-53``, four to a block, so block ``b`` holds keys ``4 b`` on.
    Key ``j`` is returned as a ``(len(blocks), len(offsets))`` int64 view of
    one of ``words[:5]``, whose entry ``(b, t)`` is the key of block
    ``blocks[b]`` of trajectory ``i = start + offsets[t]`` (mod ``2**64``).
    Each round computes only the lanes that later rounds read, walking back
    from the words returned (``_PHILOX_LIVE``): output lane j of a round
    reads input lanes ``_PHILOX_READS[j]``.  The rounds run in place in
    ``words``, eight uint64 arrays of ``len(blocks) * len(offsets)`` lanes,
    and each word is shifted into its key where it lies; nothing else is written.
    """
    c0, c1, c2, c3, h1, *scratch = words
    rows, n = len(offsets), len(blocks)
    # lane 2 by block: a ufunc that broadcast k1 or a block's value would buffer 64 KiB an operand
    blockwise = list(c2.reshape(n, rows))
    k1 = scratch[2][:rows]  # round r's key word, made once the _mulhi before it is done
    # round 0 maps (b + 1, 0, 0, 0) to (k0, 0, hi(M0 (b + 1)) ^ k1, lo(M0 (b + 1))): one value
    # a block but for the key word k1 = i, so round 1's lane 2 is k1 ^ a block's value, lane 3
    # a fill.  Round r's key words are k0 = seed + r W0 and k1 = offsets + (start + r W1);
    # these values and each k0 and start + r W1 become operands at once
    counters, key = [_PHILOX_M[0] * (b + 1) for b in blocks], _PHILOX_M[0] * seed
    values = np.array(
        [*(c >> 64 for c in counters), *((key >> 64) ^ (c & _MASK64) for c in counters),
         key & _MASK64, *((seed + r * _PHILOX_W[0]) & _MASK64 for r in range(_PHILOX_ROUNDS)),
         *((start + r * _PHILOX_W[1]) & _MASK64 for r in range(_PHILOX_ROUNDS))],
        dtype=np.uint64)[:, None]
    counter_hi, lane2, (lane3, *schedule) = values[:n], values[n:2 * n], values[2 * n:]
    k0, w1 = schedule[:_PHILOX_ROUNDS], schedule[_PHILOX_ROUNDS:]
    np.add(offsets, w1[0], k1)
    for word, value in zip(blockwise, counter_hi):
        np.bitwise_xor(k1, value, word)
    _mulhi(_M1_HALVES, c2, h1, scratch)
    np.bitwise_xor(h1, k0[1], h1)
    np.multiply(c2, _M1, c1)
    np.add(offsets, w1[1], k1)
    for word, value in zip(blockwise, lane2):  # lanes 0 and 1 have read c2
        np.bitwise_xor(k1, value, word)
    c3[...] = lane3
    c0, h1 = h1, c0
    for r, (l0, l1, l2, l3) in enumerate(_PHILOX_LIVE[width], 2):
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0));
        # lane 2 overwrites c2 once lanes 0 and 1 have read it
        if l0:
            _mulhi(_M1_HALVES, c2, h1, scratch)
            np.bitwise_xor(h1, c1, h1)
            np.bitwise_xor(h1, k0[r], h1)
        if l1:
            np.multiply(c2, _M1, c1)
        if l2:
            _mulhi(_M0_HALVES, c0, c2, scratch)
            np.bitwise_xor(c2, c3, c2)
            np.add(offsets, w1[r], k1)
            for word in blockwise:
                np.bitwise_xor(word, k1, word)
        if l3:
            np.multiply(c0, _M0, c3)
        c0, h1 = h1, c0
    keys = (c0, c1, c2, c3)[:width]
    for word in keys:
        np.right_shift(word, _KEY_SHIFT, word)
    return [word.view(np.int64).reshape(n, rows) for word in keys]


def _mulhi(m: tuple, x: np.ndarray, out: np.ndarray, scratch: list[np.ndarray]) -> None:
    """High word of ``m * x`` into ``out``; ``m`` is a multiplier's 32-bit halves, low first."""
    m_lo, m_hi = m
    x_lo, x_hi, part = scratch
    np.bitwise_and(x, _LOW32, x_lo)
    np.right_shift(x, _SHIFT32, x_hi)
    np.multiply(x_lo, m_lo, part)
    np.right_shift(part, _SHIFT32, part)
    np.multiply(x_lo, m_hi, x_lo)
    np.add(x_lo, part, x_lo)  # x_lo m_hi + (x_lo m_lo >> 32)
    np.multiply(x_hi, m_lo, part)
    np.multiply(x_hi, m_hi, x_hi)
    np.right_shift(part, _SHIFT32, out)
    np.add(out, x_hi, out)  # x_hi m_hi + (x_hi m_lo >> 32)
    np.bitwise_and(part, _LOW32, part)
    np.add(x_lo, part, x_lo)  # the middle 32-bit column with its carry; < 2**64
    np.right_shift(x_lo, _SHIFT32, x_lo)
    np.add(out, x_lo, out)
