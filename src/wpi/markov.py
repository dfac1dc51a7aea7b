"""Finite discrete-time Markov models and deterministic trajectory sampling.

Trajectory ``i`` of a sample draws all its randomness from the Philox4x64-10
counter-based stream keyed ``(seed, i)``: the same doubles that
``numpy.random.Generator(numpy.random.Philox(key=[seed, i])).random()``
returns.  Because the generator is counter-based, the sampler computes those
streams as array arithmetic over the trajectory indices of one chunk at a
time, and returns the paths as one integer array.  Given ``out``, a
writeable C-contiguous int64 array of the paths' shape, it overwrites every
entry of that array instead of allocating one, so a run that samples several
models of one shape in turn holds one path array, and the kernel need not
zero-fill fresh pages for each model.  Each double is a 53-bit
integer key times ``2**-53``, and the sampler works on the keys: a state is
picked by an exact guide-table lookup (a shift and a gather, and a binary
search within the bucket where CDF entries fall inside it; see
:class:`_GuideTable`), whose answers are those of a binary search of the
row's CDF for the double.  A Philox block gives four keys; the sampler
draws one block of a chunk, runs its steps' lookups and then draws the
next, and each block's rounds compute only the lanes that its keys read.
The rounds and the lookups run in place in buffers of one chunk, so the
working memory beyond the path array and the tables is set by ``_CHUNK``,
not by the number of trajectories or of steps; :func:`transition_counts`
counts a path array about ``2 * _CHUNK`` entries at a time.  A stream's
first draws do not depend on how many follow, so a path sampled with more
steps extends the shorter one.  Seeds range over ``[0, MAX_SEED]``.

On the hot path (:func:`_philox_keys`, :func:`_mulhi`, :meth:`_GuideTable.search`)
each numpy call pays only its own dispatch: constants are read-only 0-d
arrays made at import (the seed's and the block's words, one-element arrays
made once a call), outputs are the third positional argument, no array is
updated by augmented assignment, and gathers call ``ndarray.take``.  On
one-element uint64 arrays (Python 3.11, numpy 2.4, 2-CPU x86-64; see
``BENCH_27.json``), ``np.right_shift(x, np.uint64(32), out=y)`` took 0.61 µs
a call and ``np.right_shift(x, c, y)`` with a 0-d ``c`` 0.38 µs;
``y >>= np.uint64(32)`` took 1.1 µs, and ``np.take(t, i, out=y, mode="clip")``
1.3 µs against 0.23 to 0.35 µs for ``t.take(i, None, y, "clip")``.  A call
whose output is also an input pays about 0.9 µs in either form.
"""

from __future__ import annotations

import hashlib
import reprlib
from dataclasses import dataclass

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


def sample_trajectories(model: MarkovModel, steps: int, count: int, seed: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Sample ``count`` paths of ``steps`` transitions each.

    Returns an int64 array of shape ``(count, steps + 1)`` whose row ``i``
    lists the state indices visited by trajectory ``i``.  That trajectory
    draws its ``steps + 1`` uniforms from ``Philox(key=(seed, i))``: the
    first picks the initial state, the others one transition each.  Given
    ``out``, a writeable C-contiguous int64 array of that shape, the paths
    overwrite every entry of it and ``out`` is returned; anything else as
    ``out`` is a :class:`ValidationError`.
    """
    for name, value in (("steps", steps), ("count", count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be an integer in [0, 2**63 - 1], got {seed!r}")
    seed = int(seed)

    shape = (count, steps + 1)
    if out is None:
        try:
            out = np.empty(shape, dtype=np.int64)
        except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
            raise ValidationError(
                f"cannot allocate the sampled paths: an int64 array of shape "
                f"{shape} needs {count * (steps + 1) * 8} bytes"
            ) from None
    elif not (isinstance(out, np.ndarray) and out.dtype == np.int64 and out.shape == shape
              and out.flags.c_contiguous and out.flags.writeable):
        got = (f"a {'writeable' if out.flags.writeable else 'read-only'} "
               f"{'' if out.flags.c_contiguous else 'non-'}C-contiguous {out.dtype} "
               f"array of shape {out.shape}" if isinstance(out, np.ndarray) else reprlib.repr(out))
        raise ValidationError(
            f"out must be a writeable C-contiguous int64 array of shape {shape}, got {got}"
        )

    initial = _guide_table(model.initial[None, :])
    kernel = _guide_table(model.kernel)
    chunk_rows = min(count, _CHUNK)
    buffers = [np.empty(chunk_rows, dtype=np.uint64) for _ in range(10)]
    keys = np.empty((4, chunk_rows), dtype=np.uint64)
    below = np.empty(chunk_rows, dtype=bool)
    for lo in range(0, count, _CHUNK):
        index = np.arange(lo, min(lo + _CHUNK, count), dtype=np.uint64)
        path = out[lo:lo + len(index)]
        chunk = [b[:len(index)] for b in buffers]
        # a block's words are shifted into ``keys`` before its lookups use chunk[:2]
        scratch = [*(b.view(np.int64) for b in chunk[:2]), below[:len(index)]]
        for first in range(0, steps + 1, 4):
            block = keys[:min(4, steps + 1 - first), :len(index)]
            for k, key in enumerate(_philox_keys(seed, index, first // 4, chunk, block), first):
                if k:
                    kernel.search(path[:, k - 1], key, path[:, k], scratch)
                else:
                    initial.search(0, key, path[:, 0], scratch)
    return out


def transition_counts(model: MarkovModel, paths: np.ndarray) -> np.ndarray:
    """Count matrix of observed (source, target) transitions in ``paths``.

    ``paths`` is a 2-D integer array of state indices in ``[0, n_states)``.
    The pairs are checked, coded and counted :func:`_chunk_rows` rows at a
    time, so the temporaries hold about ``2 * _CHUNK`` entries, however
    long the paths.
    """
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.dtype.kind not in "iu":
        raise ValidationError(f"paths must be a 2-D integer array, got {paths.ndim}-D {paths.dtype}")
    unsigned = paths.view(paths.dtype.str.replace("i", "u"))  # a negative index reads as >= n
    n = model.n_states
    counts = np.zeros(n * n, dtype=np.intp)
    chunk = _chunk_rows(paths)
    for lo in range(0, len(paths), chunk):
        rows = paths[lo:lo + chunk]
        if unsigned[lo:lo + chunk].max(initial=0) >= n:
            r, c = np.argwhere((rows < 0) | (rows >= n))[0]
            raise ValidationError(
                f"paths[{lo + r}, {c}] = {rows[r, c]} is not a state index in [0, {n})"
            )
        pairs = rows[:, :-1] * n
        pairs += rows[:, 1:]
        counts += np.bincount(pairs.ravel(), minlength=n * n)
    return counts.reshape(n, n)


def path_digest(paths: np.ndarray, n: int) -> str:
    """sha256 of ``paths`` written as ``"a,b,...;"`` per row, rows in order.

    ``paths`` is a 2-D integer array of state indices in ``[0, n)``, as
    :func:`sample_trajectories` returns it.  The rows are hashed
    :func:`_chunk_rows` at a time, so the temporaries hold about
    ``2 * _CHUNK`` entries, however long the paths.
    """
    # token s (or n + s) is state s followed by "," (or by ";", row end),
    # NUL-padded to the widest token; the text has no NUL, so dropping them
    # after the gather leaves the tokens joined
    tokens = np.array([f"{s}{end}".encode() for end in ",;" for s in range(n)],
                      dtype=f"S{len(str(n - 1)) + 1}")
    digest = hashlib.sha256()
    chunk = _chunk_rows(paths)
    for lo in range(0, len(paths), chunk):
        codes = paths[lo:lo + chunk].copy()
        codes[:, -1] += n
        digest.update(tokens[codes].tobytes().replace(b"\0", b""))
    return digest.hexdigest()


def _chunk_rows(paths: np.ndarray) -> int:
    """Rows of ``paths`` read together: about ``2 * _CHUNK`` entries, and at least one row."""
    return max(1, 2 * _CHUNK // max(1, paths.shape[1]))


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
#: round r's key word k1 is index + r W1
_ROUND_W1 = tuple(_constant(r * _PHILOX_W[1] & _MASK64) for r in range(_PHILOX_ROUNDS))
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

#: Trajectories sampled together.  Besides the paths it returns, the sampler
#: holds ten uint64 Philox buffers of one chunk, two of which are the lookups'
#: scratch once a block's words are keys, one bool per trajectory and the
#: four int64 keys of one block: about ``81 + 32`` bytes per trajectory
#: whatever the number of steps, 1.9 MB a chunk.  Its guide tables add
#: ``2**bits`` answers a row, at most ``_GUIDE_ENTRIES`` unless
#: ``2**ceil(log2 n)`` a row take more, and, for a kernel that needs the
#: search, one int64 threshold per kernel entry and less than as many again
#: of padding.  On the shipped chains (100,000 one-step or 65,536 16-step
#: paths), 8,192 and 16,384 were the fastest, within 20% of one another;
#: 4,096, 32,768 and 65,536 took 7% to 46% longer than 16,384.  Paths are
#: counted and digested about ``2 * _CHUNK`` entries at a time
#: (:func:`_chunk_rows`).  Measured and dropped: a contiguous buffer of the
#: current states, in place of the strided path columns that the lookups
#: read and write, made one-step sampling of the shipped chains slower (0.987
#: of the time before the rounds' calls took their present form, against
#: 0.918 without it) and gained 10% only at 1,000 steps and 16,384 paths;
#: computing a chunk's Philox blocks in one pass, not block by block, took
#: the wide-chain benchmark's three models from 10.64 to 10.88 ms; and
#: giving each call of the rounds an output other than its inputs, which
#: spares numpy's overlap handling, took about 5% longer on the shipped
#: chains and the wide chain, for the extra memory traffic.
_CHUNK = 1 << 14


def _philox_keys(seed: int, index: np.ndarray, block: int, buffers: list[np.ndarray],
                 out: np.ndarray) -> np.ndarray:
    """The first ``len(out) <= 4`` 53-bit keys of block ``block`` of ``Philox(key=[seed, i])``.

    ``Generator(Philox(key=[seed, i])).random(k)`` is exactly a stream's keys
    times ``2**-53``, four to a block, so block ``b`` holds keys ``4 b`` on.
    ``out`` is a uint64 array of shape ``(len(out), len(index))`` whose
    column ``i`` receives the keys of ``index[i]``; it is returned as int64.
    Each round computes only the lanes that later rounds read, walking back
    from the words returned (``_PHILOX_LIVE``): output lane j of a round
    reads input lanes ``_PHILOX_READS[j]``.  The rounds run in place in
    ``buffers``, ten uint64 arrays of ``len(index)`` entries; nothing else is
    written.
    """
    c0, c1, c2, c3, h0, h1, k1, *scratch = buffers
    # round 0 maps (block + 1, 0, 0, 0) to (k0, 0, hi(M0 (block + 1)) ^ k1, lo(M0 (block + 1))):
    # scalars but for the key word k1 = index, so round 1's lane 2 is k1 ^ a scalar, lane 3 a
    # fill; these scalars and each round's key word k0 = seed + r W0 become operands at once
    counter, key = _PHILOX_M[0] * (block + 1), _PHILOX_M[0] * seed
    counter_hi, lane2, lane3, *k0 = np.array(
        [counter >> 64, (key >> 64) ^ (counter & _MASK64), key & _MASK64,
         *((seed + r * _PHILOX_W[0]) & _MASK64 for r in range(_PHILOX_ROUNDS))],
        dtype=np.uint64)[:, None]
    np.bitwise_xor(index, counter_hi, c2)
    _mulhi(_M1_HALVES, c2, h1, scratch)
    np.bitwise_xor(h1, k0[1], h1)
    np.multiply(c2, _M1, c1)
    np.add(index, _ROUND_W1[1], h0)
    np.bitwise_xor(h0, lane2, h0)
    c3[...] = lane3
    c0, c2, h1, h0 = h1, h0, c0, c2
    for r, (l0, l1, l2, l3) in enumerate(_PHILOX_LIVE[len(out)], 2):
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        if l0:
            _mulhi(_M1_HALVES, c2, h1, scratch)
            np.bitwise_xor(h1, c1, h1)
            np.bitwise_xor(h1, k0[r], h1)
        if l1:
            np.multiply(c2, _M1, c1)
        if l2:
            _mulhi(_M0_HALVES, c0, h0, scratch)
            np.bitwise_xor(h0, c3, h0)
            np.add(index, _ROUND_W1[r], k1)
            np.bitwise_xor(h0, k1, h0)
        if l3:
            np.multiply(c0, _M0, c3)
        c0, c2, h1, h0 = h1, h0, c0, c2
    for word, row in zip((c0, c1, c2, c3), out):
        np.right_shift(word, _KEY_SHIFT, row)
    return out.view(np.int64)


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
