"""Markov model validation, deterministic sampling, stationary laws."""

import numpy as np
import pytest

from wpi import (
    CoarseState,
    MarkovModel,
    NonErgodicChainError,
    MAX_SEED,
    StateMeasure,
    ValidationError,
    eight_state_chain,
    four_state_chain,
    four_state_structural_chain,
    is_ergodic,
    sample_trajectories,
    shipped_chains,
    stationary_distribution,
    transition_counts,
    two_state_chain,
)
from wpi.markov import _CHUNK, _philox_uniforms, _row_searchsorted


def simple_model(kernel, n=2, initial=None):
    states = [CoarseState(f"{i:0{max(1, (n - 1).bit_length())}b}") for i in range(n)]
    measure = StateMeasure.uniform(states)
    return MarkovModel(states, kernel, measure, initial or [1.0 / n] * n)


class TestModelValidation:
    def test_row_sum_checked(self):
        with pytest.raises(ValidationError, match="row 0"):
            simple_model([[0.5, 0.4], [0.5, 0.5]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            simple_model([[1.2, -0.2], [0.5, 0.5]])

    def test_initial_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="initial"):
            simple_model([[1.0, 0.0], [0.0, 1.0]], initial=[0.7, 0.2])

    def test_duplicate_states_rejected(self):
        states = [CoarseState("0"), CoarseState("0")]
        with pytest.raises(ValidationError, match="distinct"):
            MarkovModel(states, [[0.5, 0.5]] * 2, StateMeasure.uniform(states[:1]), [0.5, 0.5])

    def test_measure_must_cover_states(self):
        states = [CoarseState("0"), CoarseState("1")]
        measure = StateMeasure({states[0]: 1.0})
        with pytest.raises(ValidationError, match="measure"):
            MarkovModel(states, [[0.5, 0.5]] * 2, measure, [0.5, 0.5])

    def test_kernel_not_shared_with_caller(self):
        kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = simple_model(kernel)
        kernel[0, 0] = 0.9
        assert model.kernel[0, 0] == 0.5


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

    def test_row_search_equals_searchsorted_right(self):
        # u landing exactly on a CDF entry, and rows with repeated entries
        # (zero-probability states), are where "<=" and "<" part ways
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 8, 40):
            kernel = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            kernel[:, -1] += 1e-3
            cdf = np.cumsum(kernel / kernel.sum(axis=1, keepdims=True), axis=1)
            rows = rng.integers(0, n, 500)
            u = np.where(rng.random(500) < 0.5, cdf[rows, rng.integers(0, n, 500)],
                         rng.random(500))
            u[:3] = 0.0, 1.0, np.nextafter(1.0, 0.0)
            expected = [min(int(np.searchsorted(cdf[r], x, side="right")), n - 1)
                        for r, x in zip(rows, u)]
            assert _row_searchsorted(cdf, rows, u).tolist() == expected

    def test_parameter_validation(self):
        model = two_state_chain()
        with pytest.raises(ValidationError):
            sample_trajectories(model, 0, 10, seed=1)
        with pytest.raises(ValidationError):
            sample_trajectories(model, 1, 0, seed=1)
        for seed in (-1, MAX_SEED + 1, 1.5):
            with pytest.raises(ValidationError, match="seed"):
                sample_trajectories(model, 1, 10, seed=seed)


class TestPhiloxStreams:
    """The vectorised kernel against ``Generator(Philox(key=[seed, i]))``."""

    @pytest.mark.parametrize("seed", [0, 42, 2**53 + 1, MAX_SEED])
    @pytest.mark.parametrize("k", [1, 4, 5, 17])
    def test_uniforms_match_numpy(self, seed, k):
        index = [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2**40 + 3]
        got = _philox_uniforms(seed, np.array(index, dtype=np.uint64), k)
        expected = [np.random.Generator(np.random.Philox(key=[seed, i])).random(k) for i in index]
        assert np.array_equal(got, np.array(expected))

    @pytest.mark.parametrize("seed", [0, 42, 2**53 + 1, MAX_SEED])
    def test_paths_match_numpy_across_a_chunk_boundary(self, seed):
        model = eight_state_chain()
        paths = sample_trajectories(model, 4, _CHUNK + 2, seed=seed)
        for i in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            assert paths[i].tolist() == oracle_path(model, 4, seed, i)


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


class TestErgodicity:
    def test_matches_networkx_on_random_sparse_kernels(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(2025)
        seen = {"ergodic": 0, "reducible": 0, "periodic": 0}
        for _ in range(400):
            n = int(rng.integers(1, 10))
            adjacency = rng.random((n, n)) < rng.uniform(0.1, 0.5)
            if rng.random() < 0.3:  # a ring, optionally with chords: often periodic
                adjacency = np.roll(np.eye(n, dtype=bool), 1, axis=1) | (
                    adjacency & (rng.random((n, n)) < 0.1))
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(zip(*np.nonzero(adjacency)))
            connected = nx.is_strongly_connected(graph)
            expected = connected and nx.is_aperiodic(graph)
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

    def test_structural_chain_mirrors_four_state(self):
        structural = four_state_structural_chain()
        base = four_state_chain()
        assert np.array_equal(structural.kernel, base.kernel)
        assert [s.bits for s in structural.states] == [s.bits for s in base.states]
        assert all(s.label and s.label.startswith("arch-") for s in structural.states)
