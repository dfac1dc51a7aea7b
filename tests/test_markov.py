"""Markov model validation, deterministic sampling, stationary laws."""

import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wpi import (
    CoarseState,
    ConfigError,
    MarkovModel,
    NonErgodicChainError,
    MAX_SEED,
    ValidationError,
    eight_state_chain,
    four_state_chain,
    is_ergodic,
    sample_trajectories,
    shipped_chains,
    stationary_distribution,
    transition_counts,
    two_state_chain,
)
import wpi.markov
from wpi.cli import main
from wpi.markov import (DISTRIBUTION_TOL, _CHUNK, _PathTally, _guide_table, _mulhi,
                        _philox_keys, distribution_problems, path_buffer)


def read_only(array):
    array.setflags(write=False)
    return array


def simple_model(kernel, n=2, initial=None):
    states = [CoarseState(f"{i:0{max(1, (n - 1).bit_length())}b}") for i in range(n)]
    return MarkovModel(states, kernel, initial or [1.0 / n] * n)


class TestModelValidation:
    def test_row_sum_checked(self):
        with pytest.raises(ValidationError, match="kernel/0: kernel row sums to 0.9"):
            simple_model([[0.5, 0.4], [0.5, 0.5]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            simple_model([[1.2, -0.2], [0.5, 0.5]])

    def test_nan_row_rejected(self):
        # a NaN row sum compares false against the tolerance in both directions
        with pytest.raises(ValidationError, match="kernel/1: kernel row sums to nan"):
            simple_model([[0.5, 0.5], [float("nan"), 0.5]])

    def test_initial_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="initial"):
            simple_model([[1.0, 0.0], [0.0, 1.0]], initial=[0.7, 0.2])

    def test_nan_initial_rejected(self):
        # a NaN sum passed `abs(sum - 1) > tol`, and every path then started in state 0
        with pytest.raises(ValidationError, match="initial"):
            simple_model([[0.5, 0.5], [0.5, 0.5]], initial=[float("nan"), 0.5])

    def test_negative_initial_rejected(self):
        with pytest.raises(ValidationError, match="initial.*>= 0"):
            simple_model([[0.5, 0.5], [0.5, 0.5]], initial=[1.5, -0.5])

    def test_duplicate_states_rejected(self):
        states = [CoarseState("0"), CoarseState("0")]
        with pytest.raises(ValidationError, match="distinct"):
            MarkovModel(states, [[0.5, 0.5]] * 2, [0.5, 0.5])

    def test_empty_name_rejected(self):
        states = [CoarseState("0")]
        with pytest.raises(ValidationError, match="name must be non-empty"):
            MarkovModel(states, [[1.0]], [1.0], name="")

    def test_no_states_rejected(self):
        with pytest.raises(ValidationError, match="at least one state"):
            MarkovModel([], np.zeros((0, 0)), [])

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ValidationError, match=r"kernel/0: must have 2 entries, got 3; "
                           r"kernel/1: must have 2 entries, got 3$"):
            simple_model([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])

    def test_wrong_length_initial_rejected(self):
        with pytest.raises(ValidationError, match="initial: must have 2 entries, got 3"):
            simple_model([[0.5, 0.5], [0.5, 0.5]], initial=[0.5, 0.25, 0.25])

    @pytest.mark.parametrize("kernel, initial, issues", [
        ([[0.5, 0.5]], [0.5, 0.5], [("kernel", "must have 2 entries, got 1")]),
        ([[0.5], [0.5, 0.5]], [0.5, 0.5], [("kernel/0", "must have 2 entries, got 1")]),
        ([[0.5, 0.5, 0.0], [1.0]], [0.5, 0.5],
         [("kernel/0", "must have 2 entries, got 3"), ("kernel/1", "must have 2 entries, got 1")]),
        ([0.5, 0.5], [0.5, 0.5], [("kernel/0", "must be a list of 2 numbers, got 0.5"),
                                  ("kernel/1", "must be a list of 2 numbers, got 0.5")]),
        (1.0, [0.5, 0.5], [("kernel", "must be a list of 2 rows, got 1.0")]),
        ([["a", 0.5], [0.5, 0.5]], [0.5, 0.5],
         [("kernel/0", "must be a list of 2 numbers, got ['a', 0.5]")]),
        ([[0.5, 0.5], [0.5, 0.5]], [1.0], [("initial", "must have 2 entries, got 1")]),
        ([[0.5, 0.5], [0.5, 0.5]], [[0.5], [0.5]],
         [("initial", "must be a list of 2 numbers, got [[0.5], [0.5]]")]),
        ([[0.5, 0.4], [1.5, -0.5]], [0.5, 0.5],
         [("kernel/0", "kernel row sums to 0.9, expected 1 within 1e-12"),
          ("kernel/1", "kernel row has a negative entry; entries must be >= 0")]),
    ], ids=["few-rows", "short-row", "ragged", "1-D", "scalar", "non-numeric", "short-initial",
            "2-D-initial", "two-bad-rows"])
    def test_every_problem_named_by_field(self, kernel, initial, issues):
        with pytest.raises(ConfigError) as info:
            simple_model(kernel, initial=initial)
        assert info.value.issues == issues

    def test_problems_of_every_field_raised_together(self):
        # the probability rule runs only on the laws whose shape is right
        with pytest.raises(ConfigError) as info:
            MarkovModel([CoarseState("0")] * 2, [[0.5, 0.5], [0.5]], [0.7, 0.2], name="")
        assert info.value.issues == [
            ("name", "model name must be non-empty"),
            ("states", "model states must be distinct"),
            ("kernel/1", "must have 2 entries, got 1"),
            ("initial", "initial distribution sums to 0.8999999999999999, expected 1 within 1e-12"),
        ]

    def test_kernel_not_shared_with_caller(self):
        kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = simple_model(kernel)
        kernel[0, 0] = 0.9
        assert model.kernel[0, 0] == 0.5

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 1024])
    def test_problems_match_the_per_row_rule(self, n):
        # rows scaled to sums just inside and just outside the tolerance, down
        # to the last bits, so a sum that differed from the row's own would show
        rng = np.random.default_rng(n)
        base = rng.uniform(0.0, 1.0, (6, n))
        base /= base.sum(axis=1, keepdims=True)
        rows = [row * (1.0 + f * DISTRIBUTION_TOL) for row in base for f in (-1.1, -0.9, 0.9, 1.1)]
        rows += [row * ((1.0 + f * DISTRIBUTION_TOL) / row.sum()) for row in base for f in (-1, 1)]
        for value in (np.nan, -0.0, -0.25, np.inf):
            rows.append(base[0].copy())
            rows[-1][n // 2] = value
        rows = np.array(rows)
        expected = [(i, problem) for i, row in enumerate(rows) if (problem := row_problem(row))]
        assert 0 < len(expected) < len(rows)
        assert distribution_problems(rows) == expected


def row_problem(vector):
    """Why one row is not a probability vector, or None: the per-row rule, as an oracle."""
    if np.any(vector < 0.0):
        return "has a negative entry; entries must be >= 0"
    total = float(vector.sum())
    if not abs(total - 1.0) <= DISTRIBUTION_TOL:
        return f"sums to {total!r}, expected 1 within {DISTRIBUTION_TOL}"
    return None


def guide_search(table, rows, keys):
    # read-only inputs: a search writes only to its ``out`` and ``scratch``
    keys = read_only(np.array(keys, dtype=np.int64))
    if not isinstance(rows, int):
        rows = read_only(np.array(rows, dtype=np.int64))
    out = np.empty(len(keys), dtype=np.int64)
    scratch = [*np.empty((2, len(keys)), dtype=np.int64), np.empty(len(keys), dtype=bool)]
    table.search(rows, keys, out, scratch)
    return out.tolist()


def dense_model(n, seed):
    """A seeded dense kernel and initial law with no dyadic CDF entries."""
    rng = np.random.default_rng(seed)
    laws = rng.random((n + 1, n)) + 0.01
    laws /= laws.sum(axis=1, keepdims=True)
    return simple_model(laws[:n], n, laws[n].tolist())


def shallow_model(n):
    """Every row puts 1e-9 / 3 on each state but the last: all its thresholds share a bucket."""
    kernel = np.full((n, n), 1e-9 / 3)
    kernel[:, -1] = 1.0 - (n - 1) * 1e-9 / 3
    return simple_model(kernel, n)


def metastable_model(n):
    """Each row stays with 1 - 1e-6 and spreads 1e-6 over the other states."""
    kernel = np.full((n, n), 1e-6 / (n - 1))
    np.fill_diagonal(kernel, 1.0 - 1e-6)
    return simple_model(kernel, n)


def oracle_path(model, steps, seed, index):
    """One trajectory drawn the slow way, from numpy's own Philox generator."""
    u = np.random.Generator(np.random.Philox(key=[seed, index])).random(steps + 1)
    last = model.n_states - 1
    state = min(int(np.searchsorted(np.cumsum(model.initial), u[0], side="right")), last)
    path = [state]
    for x in u[1:]:
        state = min(int(np.searchsorted(np.cumsum(model.kernel[state]), x, side="right")), last)
        path.append(state)
    return path


def text_digest(paths):
    """sha256 of each row's states joined by "," and followed by ";", the slow way."""
    text = "".join(",".join(map(str, row)) + ";" for row in paths.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


class TestSampling:
    def test_identity_kernel_gives_constant_trajectories(self):
        model = simple_model([[1.0, 0.0], [0.0, 1.0]])
        paths = sample_trajectories(model, 5, 50, seed=1)
        assert paths.shape == (50, 6)
        assert np.all(paths == paths[:, :1])

    def test_symmetric_half_kernel_splits_evenly(self):
        model = simple_model([[0.5, 0.5], [0.5, 0.5]])
        paths = sample_trajectories(model, 1, 100_000, seed=7)
        assert paths[:, 1].sum() / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_same_seed_bit_identical(self):
        model = four_state_chain()
        a = sample_trajectories(model, 3, 500, seed=42)
        b = sample_trajectories(model, 3, 500, seed=42)
        assert a.dtype == np.int64
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        model = four_state_chain()
        a = sample_trajectories(model, 3, 500, seed=42)
        b = sample_trajectories(model, 3, 500, seed=43)
        assert not np.array_equal(a, b)

    def test_chunking_does_not_change_results(self):
        # rows on either side of a chunk boundary equal the same rows
        # sampled alone, and the first rows do not depend on the count
        model = eight_state_chain()
        paths = sample_trajectories(model, 2, _CHUNK + 2, seed=9)
        assert np.array_equal(paths[:120], sample_trajectories(model, 2, 120, seed=9))
        for i in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
            assert paths[i].tolist() == oracle_path(model, 2, 9, i)

    def test_row_i_draws_from_stream_seed_i(self):
        model = eight_state_chain()
        paths = sample_trajectories(model, 16, 50, seed=np.int64(17))
        assert paths.tolist() == [oracle_path(model, 16, 17, i) for i in range(50)]

    def test_steps_carry_kernel_probability(self):
        model = eight_state_chain()
        paths = sample_trajectories(model, 4, 2_000, seed=3)
        assert np.all(model.kernel[paths[:, :-1], paths[:, 1:]] > 0.0)

    def test_empirical_frequencies_approach_kernel(self):
        model = four_state_chain()
        paths = sample_trajectories(model, 1, 40_000, seed=11)
        counts = transition_counts(model, paths)
        rows = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(rows - model.kernel)) < 0.02

    def test_transition_counts_tally_every_step(self):
        model = eight_state_chain()
        paths = sample_trajectories(model, 3, 300, seed=5)
        expected = np.zeros((8, 8), dtype=np.int64)
        for row in paths.tolist():
            for a, b in zip(row, row[1:]):
                expected[a, b] += 1
        assert np.array_equal(transition_counts(model, paths), expected)

    def test_transition_counts_across_chunks_match_a_counter(self):
        # the pairs are counted about _CHUNK entries at a time: in chunks of
        # 3,276 rows of 5 states, and of 40 rows of 401; on 100 states, a
        # chunk's 40 first-step codes are fewer than the 10,000 counts, so
        # np.add.at adds them, and its 16,000 codes of every step are not, so
        # a bincount does, while the last chunk's 4,000 go back to np.add.at
        for n, shape in ((8, (_CHUNK + 3, 5)), (8, (170, 401)), (100, (170, 401))):
            model = simple_model(np.full((n, n), 1.0 / n), n)
            paths = np.random.default_rng(4).integers(0, n, shape)
            oracle = Counter(pair for row in paths.tolist() for pair in zip(row, row[1:]))
            expected = [[oracle[a, b] for b in range(n)] for a in range(n)]
            assert transition_counts(model, paths).tolist() == expected

    def test_transition_counts_hold_two_count_arrays(self):
        # the first-step and later-step counts were summed into a third n x n
        # array for the result: 25.2 MB traced for an 8.4 MB result here
        n = 1024
        model = simple_model(np.full((n, n), 1.0 / n), n)
        paths = np.random.default_rng(2).integers(0, n, (100_000, 5))
        tracemalloc.start()
        try:
            counts = transition_counts(model, paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 400_000
        assert peak < 2 * counts.nbytes + (1 << 20), peak

    def test_narrow_paths_are_cast_a_block_at_a_time(self):
        # an int32 array cast to intp whole traced 21.0 MB here, against the
        # 17.8 MB bound of the test above
        n = 1024
        model = simple_model(np.full((n, n), 1.0 / n), n)
        paths = np.random.default_rng(2).integers(0, n, (100_000, 5)).astype(np.int32)
        tracemalloc.start()
        try:
            counts = transition_counts(model, paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 400_000
        assert peak < 2 * counts.nbytes + (1 << 20), peak

    def test_a_bad_entry_is_found_before_any_count_array(self):
        # the tally's 8 MB count array was made before the first chunk was
        # checked, and np.argwhere over the whole array traced 16.5 MB
        n = 1024
        model = simple_model(np.full((n, n), 1.0 / n), n)
        paths = np.full((100_000, 5), n, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=r"paths\[0, 0\] = 1024 is not a state index in \[0, 1024\)"):
                transition_counts(model, paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("paths, message", [
        (np.array([[0, 2]]), r"paths\[0, 1\] = 2 is not a state index in \[0, 2\)"),
        (np.array([[0, -1]]), r"paths\[0, 1\] = -1 is not a state index in \[0, 2\)"),
        (np.array([[1, 0], [0, 1], [1, 7]], dtype=np.int8), r"paths\[2, 1\] = 7"),
        (np.array([[True, False]]), "2-D integer array, got 2-D bool"),
        (np.array([[0.0, 1.0]]), "2-D integer array, got 2-D float64"),
        (np.array([0, 1]), "2-D integer array, got 1-D int64"),
        (np.array([[0, -3]]), r"paths\[0, 1\] = -3 is not a state index in \[0, 2\)"),
    ])
    def test_transition_counts_rejects_what_is_not_a_path_array(self, paths, message):
        # [[0, 2]] and [[True, False]] each counted a 1 -> 0 transition; -1, a
        # float array and a 1-D array raised bare numpy errors
        with pytest.raises(ValidationError, match=message):
            transition_counts(two_state_chain(), paths)

    @pytest.mark.parametrize("call", [
        lambda paths: transition_counts(two_state_chain(), paths),
    ], ids=["counts"])
    def test_path_array_without_columns_rejected(self, call):
        # transition_counts counted nothing
        with pytest.raises(ValidationError, match=r"at least one column, got shape \(1, 0\)"):
            call(np.zeros((1, 0), dtype=np.int64))

    @pytest.mark.parametrize("state", [2, -2])
    def test_transition_counts_checks_every_chunk(self, state):
        paths = np.zeros((_CHUNK + 3, 3), dtype=np.int64)
        paths[_CHUNK + 1, 2] = state
        with pytest.raises(ValidationError, match=rf"paths\[{_CHUNK + 1}, 2\] = {state}"):
            transition_counts(two_state_chain(), paths)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_narrow_dtypes_do_not_wrap(self, dtype):
        # a pair code s * 100 + t wrapped in the paths' own dtype: int8 counts
        # raised a bare numpy ValueError and uint8 counts came out wrong
        n = 100
        model = simple_model(np.full((n, n), 1.0 / n), n)
        paths = np.random.default_rng(1).integers(0, n, (50, 4))
        oracle = Counter(pair for row in paths.tolist() for pair in zip(row, row[1:]))
        expected = [[oracle[a, b] for b in range(n)] for a in range(n)]
        assert transition_counts(model, paths.astype(dtype)).tolist() == expected

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64, ">i8"])
    def test_transition_counts_accepts_every_integer_dtype(self, dtype):
        model = four_state_chain()
        paths = sample_trajectories(model, 3, 500, seed=6)
        expected = transition_counts(model, paths)
        assert np.array_equal(transition_counts(model, paths.astype(dtype)), expected)
        assert transition_counts(model, paths[:0]).sum() == 0

    def test_guide_search_equals_searchsorted_right(self):
        # a key equal to a CDF entry's threshold ceil(c * 2**53), or one below
        # it, and rows with repeated entries (zero-probability states), are
        # where "<=" and "<" part ways; n around powers of two changes the
        # bucket count; a row whose sum ends just above 1 (within the kernel
        # tolerance) and key 2**53 - 1, the largest Philox gives, probe the
        # last entry.  The random rows are not dyadic, so the buckets need
        # correction steps.  Keys stop at 2**53 - 1: u = 1.0 is not a value
        # Philox produces.
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 8, 40, 63, 64, 65, 256, 257):
            kernel = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            kernel[:, -1] += 1e-3
            kernel /= kernel.sum(axis=1, keepdims=True)
            kernel[0] *= 1.0 + 1e-13
            cdf = np.cumsum(kernel, axis=1)
            assert cdf[0, -1] > 1.0
            on_entry = np.ceil(cdf * 2.0**53).astype(np.int64)
            rows = rng.integers(0, n, 500)
            keys = np.where(rng.random(500) < 0.5,
                            on_entry[rows, rng.integers(0, n, 500)] - rng.integers(0, 2, 500),
                            rng.integers(0, 2**53, 500))
            keys[:3] = 0, 2**53 - 1, 2**53 - 2
            rows[3:6] = 0
            keys[3:6] = 2**53 - 1, on_entry[0, -1], on_entry[0, max(n - 2, 0)]
            keys = np.clip(keys, 0, 2**53 - 1)
            expected = [min(int(np.searchsorted(cdf[r], k * 2.0**-53, side="right")), n - 1)
                        for r, k in zip(rows, keys)]
            assert guide_search(_guide_table(kernel), rows, keys) == expected
            # the initial law's table has one row, searched with row 0
            assert guide_search(_guide_table(kernel[:1]), 0, keys) == [
                min(int(np.searchsorted(cdf[0], k * 2.0**-53, side="right")), n - 1)
                for k in keys]

    @pytest.mark.parametrize("n", [2, 3, 40, 257])
    @pytest.mark.parametrize("make", [shallow_model, metastable_model])
    def test_guide_search_at_full_correction_depth(self, make, n):
        # n - 1 thresholds of a row share one bucket, so a key there takes
        # every round of the binary search, and a table row too short to hold
        # them would read the next row's; every row is probed at each of its
        # thresholds, one below it, and at keys 0 and 2**53 - 1
        kernel = make(n).kernel
        table = _guide_table(kernel)
        assert table.depth == n - 1
        cdf = np.cumsum(kernel, axis=1)
        on_entry = np.ceil(cdf * 2.0**53).astype(np.int64)
        keys = np.concatenate([on_entry - 1, on_entry, np.full((n, 1), 0),
                               np.full((n, 1), 2**53 - 1)], axis=1)
        keys = np.clip(keys, 0, 2**53 - 1)
        rows = np.repeat(np.arange(n), keys.shape[1])
        expected = np.minimum([np.searchsorted(c, k * 2.0**-53, side="right")
                               for c, k in zip(cdf, keys)], n - 1).ravel()
        assert guide_search(table, rows, keys.ravel()) == expected.tolist()
        assert set(expected.tolist()) == set(range(n))

    def test_dyadic_kernels_need_no_correction(self):
        # a threshold on a bucket boundary is answered by the guide alone
        tables = {m.name: _guide_table(m.kernel) for m in shipped_chains()}
        assert {name: (t.bits, t.depth) for name, t in tables.items()} == {
            "two-state": (3, 0), "four-state": (6, 0), "eight-state": (4, 0)}

    def test_one_state_model(self):
        model = MarkovModel([CoarseState("0")], [[1.0]], [1.0])
        table = _guide_table(model.kernel)
        assert (table.bits, table.depth) == (0, 0)
        paths = sample_trajectories(model, 3, 40, seed=2)
        assert paths.shape == (40, 4) and not paths.any()

    def test_unallocatable_paths_raise_a_validation_error(self):
        # numpy refuses an array of 2**61 int64 entries before any malloc;
        # that was a bare ValueError from np.empty
        count = 2**60
        with pytest.raises(ValidationError,
                           match=rf"shape \({count}, 2\).*{count * 16} bytes"):
            sample_trajectories(two_state_chain(), 1, count, seed=1)

    @pytest.mark.parametrize("steps", [1, 4, 16])
    def test_streamed_tally_matches_the_path_array(self, steps):
        # the run's one buffer takes _CHUNK rows, so the last 3 rows are a
        # second block
        model, count = eight_state_chain(), _CHUNK + 3
        paths = sample_trajectories(model, steps, count, seed=5)
        buffer = path_buffer(steps, count)
        assert buffer.paths.shape == (_CHUNK, steps + 1)
        tally = _PathTally(model.n_states)
        assert sample_trajectories(model, steps, count, seed=5, out=buffer, each=tally.add) is None
        assert np.array_equal(tally.counts, transition_counts(model, paths))
        assert np.array_equal(tally.first_counts, transition_counts(model, paths[:, :2]))
        assert tally.digest == text_digest(paths)
        assert tally.first_path == paths[0].tolist()
        assert tally.rows == count

    def test_each_block_is_passed_in_row_order(self):
        model, count = four_state_chain(), 2 * _CHUNK + 5
        paths = sample_trajectories(model, 3, count, seed=8)
        blocks = []
        out = path_buffer(3, count)
        sample_trajectories(model, 3, count, seed=8, out=out, each=lambda rows: blocks.append(rows.copy()))
        assert [len(b) for b in blocks] == [_CHUNK, _CHUNK, 5]
        assert np.array_equal(np.concatenate(blocks), paths)
        blocks.clear()
        sample_trajectories(model, 3, 40, seed=8, each=blocks.append)  # one block of all 40
        assert len(blocks) == 1 and np.array_equal(blocks[0], paths[:40])

    @pytest.mark.parametrize("make, each", [
        (lambda: path_buffer(2, 7), print),
        (lambda: path_buffer(1, 10), print),
        (lambda: path_buffer(2, _CHUNK + 1), print),
        (lambda: np.zeros((10, 3), dtype=np.int64), print),
        (lambda: np.zeros((10, 3), dtype=np.int32), print),
        (lambda: np.zeros((10, 6), dtype=np.int64)[:, ::2], print),
        (lambda: read_only(np.zeros((10, 3), dtype=np.int64)), print),
        (lambda: path_buffer(2, 10), None),
    ], ids=["rows", "columns", "chunk", "array", "int32", "strided", "read-only", "without-each"])
    def test_unusable_block_buffer_rejected(self, make, each):
        # the workspace is what path_buffer(2, 10) returns, with a block of
        # all 10 rows, given with a consumer; one made for another shape, a
        # bare array, or the right one without a consumer, is refused
        with pytest.raises(ValidationError, match=r"path_buffer\(2, 10\).*of shape \(10, 3\)"):
            sample_trajectories(two_state_chain(), 2, 10, seed=1, out=make(), each=each)

    def test_workspace_serves_every_count_of_its_shape(self):
        # a count past one chunk needs a block of _CHUNK rows, whatever the count
        model, work = four_state_chain(), path_buffer(2, _CHUNK + 5)
        for count in (_CHUNK, _CHUNK + 5, 3 * _CHUNK):
            tally = _PathTally(model.n_states)
            sample_trajectories(model, 2, count, seed=4, out=work, each=tally.add)
            assert tally.digest == text_digest(sample_trajectories(model, 2, count, seed=4))

    @pytest.mark.parametrize("count, steps", [(2 * _CHUNK + 5, 1), (2 * _CHUNK + 5, 16), (1_000, 256)],
                             ids=["1", "16", "1000x256"])
    def test_a_call_given_a_workspace_allocates_no_chunk(self, count, steps):
        # without it, a call makes eight Philox buffers, the offsets and a bool
        # array of _CHUNK entries, and the block of paths; a peak below
        # _CHUNK bytes leaves room for no array of one entry per trajectory,
        # only for the guide tables of a small model and numpy's temporaries;
        # 1,000 paths of 256 steps draw 16 blocks a pass, four passes a chunk
        model = eight_state_chain()
        work = path_buffer(steps, count)
        tracemalloc.start()
        try:
            sample_trajectories(model, steps, count, seed=6, out=work, each=lambda rows: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < _CHUNK, peak

    def test_parameter_validation(self):
        model = two_state_chain()
        with pytest.raises(ValidationError):
            sample_trajectories(model, 0, 10, seed=1)
        with pytest.raises(ValidationError):
            sample_trajectories(model, 1, 0, seed=1)
        for seed in (-1, MAX_SEED + 1, 1.5):
            with pytest.raises(ValidationError, match="seed"):
                sample_trajectories(model, 1, 10, seed=seed)

    @pytest.mark.parametrize("name", ["steps", "count", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.True_, "2", None])
    def test_non_integer_arguments_rejected(self, name, value):
        # a float steps or count raised numpy's TypeError; seed=True sampled seed 1
        arguments = {"steps": 1, "count": 10, "seed": 1, name: value}
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            sample_trajectories(two_state_chain(), **arguments)

    def test_numpy_integer_arguments_accepted(self):
        model = two_state_chain()
        paths = sample_trajectories(model, np.int64(2), np.int32(10), seed=np.uint64(1))
        assert np.array_equal(paths, sample_trajectories(model, 2, 10, seed=1))


def philox_keys(seed, start, offsets, blocks, width):
    """``_philox_keys`` in fresh words, as one row of keys in stream order per offset."""
    offsets = np.array(offsets, dtype=np.uint64)
    words = [np.empty(len(blocks) * len(offsets), dtype=np.uint64) for _ in range(8)]
    keys = _philox_keys(seed, start, offsets, blocks, width, words)
    return np.array(keys).transpose(2, 1, 0).reshape(len(offsets), -1)


class TestPhiloxStreams:
    """The vectorised kernel against ``Generator(Philox(key=[seed, i]))``."""

    @pytest.mark.parametrize("seed", [0, 42, 2**53 + 1, MAX_SEED])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
    def test_uniforms_match_numpy(self, seed, k):
        # each uniform is its 53-bit key times 2**-53; as the sampler draws
        # them, the k // 4 full blocks come from one call and a last block of
        # fewer keys from its own, which computes only the lanes its first 1,
        # 2 or 3 words read; k = 5 to 7 ask for each of those in a later
        # block, and k = 8, 9 and 17 for two or four full blocks in one call
        index = [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2**32 - 1, 2**32, 2**40 + 3]
        full, tail = divmod(k, 4)
        parts = []
        if full:
            parts.append(philox_keys(seed, 0, index, range(0, full), 4))
        if tail:
            parts.append(philox_keys(seed, 0, index, range(full, full + 1), tail))
        got = np.concatenate(parts, axis=1)
        expected = [np.random.Generator(np.random.Philox(key=[seed, i])).random(k) for i in index]
        assert got.dtype == np.int64 and got.min() >= 0 and got.max() < 2**53
        assert np.array_equal(got * 2.0**-53, np.array(expected))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("start", [0, 2**63 - 2], ids=["start-0", "start-wraps"])
    def test_keys_are_shifted_in_place_in_the_words(self, width, start):
        # each key is an int64 view of its own buffer among the first five
        # words, which the lookups leave alone; trajectory start + offset
        # wraps past 2**64 - 1 as a uint64 does; every call names its output
        # positionally, and a swapped argument that wrote into the offsets
        # would raise on the read-only array; one call computes several
        # consecutive blocks, as many as 16 in a sampler pass
        offsets = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        given = read_only(np.array(offsets, dtype=np.uint64))
        for blocks in (range(0, 1), range(1, 2), range(1, 4), range(3, 19)):
            words = [np.empty(len(blocks) * len(offsets), dtype=np.uint64) for _ in range(8)]
            keys = _philox_keys(MAX_SEED, start, given, blocks, width, words)
            owners = [[np.shares_memory(key, w) for w in words].index(True) for key in keys]
            assert all(key.dtype == np.int64 for key in keys)
            assert all(key.shape == (len(blocks), len(offsets)) for key in keys)
            assert len(set(owners)) == width and max(owners) < 5
            # a uint64 key array, as a list's entries past 2**53 go through float64
            expected = [[np.random.Generator(np.random.Philox(
                key=np.array([MAX_SEED, (start + i) % 2**64], np.uint64)))
                .random(4 * b + width)[4 * b:] for i in offsets] for b in blocks]
            assert np.array_equal(np.array(keys).transpose(1, 2, 0) * 2.0**-53, np.array(expected))

    @pytest.mark.parametrize("halves", ["_M0_HALVES", "_M1_HALVES"])
    def test_mulhi_equals_the_python_int_product(self, halves):
        # the edge words carry into every 32-bit column of the product
        m = PHILOX_CONSTANTS[halves.replace("_HALVES", "")]
        words = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
                 *np.random.default_rng(17).integers(0, 2**64, 10_000, dtype=np.uint64).tolist()]
        x = read_only(np.array(words, dtype=np.uint64))
        out = np.empty(len(words), dtype=np.uint64)
        scratch = list(np.empty((3, len(words)), dtype=np.uint64))
        _mulhi(getattr(wpi.markov, halves), x, out, scratch)
        assert out.tolist() == [(m * w) >> 64 for w in words]
        assert x.tolist() == words

    @pytest.mark.parametrize("seed", [0, 42, 2**53 + 1, MAX_SEED])
    def test_paths_match_numpy_across_a_chunk_boundary(self, seed):
        model = eight_state_chain()
        paths = sample_trajectories(model, 4, _CHUNK + 2, seed=seed)
        for i in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            assert paths[i].tolist() == oracle_path(model, 4, seed, i)

    @pytest.mark.parametrize("seed", [0, MAX_SEED])
    @pytest.mark.parametrize("model", [dense_model(40, 5), shallow_model(9), metastable_model(65)],
                             ids=["dense-40", "shallow-9", "metastable-65"])
    def test_non_dyadic_paths_match_numpy_across_a_chunk_boundary(self, seed, model):
        # every threshold of these kernels lies strictly inside a bucket
        assert _guide_table(model.kernel).depth > 0
        paths = sample_trajectories(model, 4, _CHUNK + 2, seed=seed)
        for i in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            assert paths[i].tolist() == oracle_path(model, 4, seed, i)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
    def test_paths_of_each_length_match_numpy_across_a_chunk_boundary(self, steps):
        # the first chunk draws each full block of four keys in a pass of its
        # own, the second chunk's 2 rows all of them in one; a path's last
        # block reads one, two, three or four of its words
        model = eight_state_chain()
        paths = sample_trajectories(model, steps, _CHUNK + 2, seed=2**53 + 1)
        for i in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            assert paths[i].tolist() == oracle_path(model, steps, 2**53 + 1, i)

    @pytest.mark.parametrize("count, steps", [
        (4_000, 16), (5_461, 63), (1_000, 256), (3, 7), (_CHUNK + 4_000, 16)])
    def test_grouped_passes_match_numpy(self, count, steps):
        # a pass draws _CHUNK // rows full blocks of a chunk: 4 + a tail of
        # one key, five passes of 3 and one of 1, 4 of 16 + a tail, one of 2,
        # and 1 a pass in the first chunk, 4 in the second; every row reads
        # each pass's blocks, and the first and last rows their edge lanes
        model = eight_state_chain()
        paths = sample_trajectories(model, steps, count, seed=9)
        for i in sorted({0, 1, count // 2, count - 1, min(_CHUNK, count) - 1, min(_CHUNK, count - 1)}):
            assert paths[i].tolist() == oracle_path(model, steps, 9, i), i

    @pytest.mark.parametrize("seed", [0, 2**53 + 1])
    def test_one_step_paths_match_numpy_across_a_chunk_boundary(self, seed):
        # a one-step path reads only the first two words of its Philox block
        model = eight_state_chain()
        paths = sample_trajectories(model, 1, _CHUNK + 2, seed=seed)
        for i in (0, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            assert paths[i].tolist() == oracle_path(model, 1, seed, i)


#: Every constant array that wpi.markov holds at module level, by name, as
#: the integers that define it.
PHILOX_CONSTANTS = {
    "_M0": 0xD2E7470EE14C6C93,
    "_M1": 0xCA5A826395121157,
    "_M0_HALVES": (0xE14C6C93, 0xD2E7470E),
    "_M1_HALVES": (0x95121157, 0xCA5A8263),
    "_LOW32": 2**32 - 1,
    "_SHIFT32": 32,
    "_KEY_SHIFT": 64 - 53,
}


def held_arrays(value):
    """The arrays in ``value``: itself, or those in its tuples and dict values."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in held_arrays(item)]
    return []


class TestSamplerConstants:
    """The module-level operands that every sampler call shares."""

    def test_every_constant_array_is_listed(self):
        held = {name for name, value in vars(wpi.markov).items() if held_arrays(value)}
        assert held == set(PHILOX_CONSTANTS)

    @pytest.mark.parametrize("name", sorted(PHILOX_CONSTANTS))
    def test_constants_are_read_only(self, name):
        for array in held_arrays(getattr(wpi.markov, name)):
            # checked before any write, so a writeable one is not overwritten
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                np.add(array, array, array)

    def test_constants_keep_their_values_through_a_report(self, tmp_path):
        assert main(["report", "--assert", "--out", str(tmp_path)]) == 0
        for name, expected in PHILOX_CONSTANTS.items():
            arrays = held_arrays(getattr(wpi.markov, name))
            assert all(a.shape == () and a.dtype == np.uint64 for a in arrays), name
            got = tuple(int(a) for a in arrays)
            assert got == (expected if isinstance(expected, tuple) else (expected,)), name


class TestStationary:
    def test_known_two_state_asymmetric(self):
        kernel = np.array([[0.7, 0.3], [0.4, 0.6]])
        pi = stationary_distribution(kernel)
        assert pi == pytest.approx([4 / 7, 3 / 7], abs=1e-10)

    def test_identity_rejected_as_non_ergodic(self):
        with pytest.raises(NonErgodicChainError):
            stationary_distribution(np.eye(2))

    def test_periodic_two_cycle_rejected(self):
        with pytest.raises(NonErgodicChainError):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_reducible_rejected(self):
        kernel = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(NonErgodicChainError):
            stationary_distribution(kernel)

    def test_slowly_mixing_chain_solved(self):
        # ergodic, but power iteration needs millions of steps to converge
        pi = stationary_distribution([[1 - 1e-6, 1e-6], [3e-6, 1 - 3e-6]])
        assert pi == pytest.approx([0.75, 0.25], rel=0, abs=1e-12)

    def test_failed_residual_names_the_residual(self):
        # strongly connected and aperiodic, but row 0 sums to 1.1: no law
        # satisfies pi K = pi with entries summing to 1
        with pytest.raises(ValidationError, match="residual") as caught:
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))
        assert not isinstance(caught.value, NonErgodicChainError)

    def test_residual_contract(self):
        pi = stationary_distribution(four_state_chain().kernel)
        residual = np.abs(pi @ four_state_chain().kernel - pi).sum()
        assert residual <= 1e-12


def boolean_power(adjacency, k):
    """``adjacency ** k`` in boolean arithmetic, by repeated squaring."""
    result = np.eye(len(adjacency), dtype=np.int64)
    adjacency = adjacency.astype(np.int64)
    while k:
        if k & 1:
            result = np.minimum(result @ adjacency, 1)
        adjacency = np.minimum(adjacency @ adjacency, 1)
        k >>= 1
    return result > 0


class TestErgodicity:
    def test_matches_matrix_power_oracle_on_random_sparse_kernels(self):
        # oracle: a graph on n nodes is strongly connected iff (I + A)^(n-1) > 0,
        # and connected and aperiodic iff A^((n-1)^2 + 1) > 0 (Wielandt)
        rng = np.random.default_rng(2025)
        seen = {"ergodic": 0, "reducible": 0, "periodic": 0}
        for _ in range(400):
            n = int(rng.integers(1, 10))
            adjacency = rng.random((n, n)) < rng.uniform(0.1, 0.5)
            if rng.random() < 0.3:  # a ring, optionally with chords: often periodic
                adjacency = np.roll(np.eye(n, dtype=bool), 1, axis=1) | (
                    adjacency & (rng.random((n, n)) < 0.1))
            connected = boolean_power(adjacency | np.eye(n, dtype=bool), n - 1).all()
            expected = bool(boolean_power(adjacency, (n - 1) ** 2 + 1).all())
            assert is_ergodic(adjacency.astype(float)) == expected, adjacency.astype(int)
            seen["ergodic" if expected else "periodic" if connected else "reducible"] += 1
        assert min(seen.values()) >= 40, seen

    def test_self_loop_breaks_a_cycle_period(self):
        ring = np.roll(np.eye(3), 1, axis=1)
        assert not is_ergodic(ring)
        ring[0, 0] = 1.0
        assert is_ergodic(ring)


class TestShippedChains:
    def test_all_shipped_chains_are_ergodic(self):
        for model in shipped_chains():
            assert is_ergodic(model.kernel)

    def test_doubly_stochastic_chains_have_uniform_stationary_law(self):
        for model in shipped_chains():
            pi = stationary_distribution(model.kernel)
            assert pi == pytest.approx([1.0 / model.n_states] * model.n_states, abs=1e-12)

    def test_positive_transitions_have_positive_reverses(self):
        for model in shipped_chains():
            forward = model.kernel > 0
            assert np.array_equal(forward, forward.T)

    def test_two_state_chain_is_symmetric(self):
        kernel = two_state_chain().kernel
        assert np.array_equal(kernel, kernel.T)

    def test_four_state_kernel_is_exact_binary_fractions(self):
        scaled = four_state_chain().kernel * 64
        assert np.array_equal(scaled, np.round(scaled))

    def test_eight_state_ring_steps(self):
        kernel = eight_state_chain().kernel
        n = len(kernel)
        for i in range(n):
            assert kernel[i, (i + 1) % n] == 0.5
            assert kernel[i, i] == 0.3125
            assert kernel[i, (i - 1) % n] == 0.1875
