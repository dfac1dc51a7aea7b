"""Fluctuation-theorem identities, tail bounds, and efficiency bound checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpi import (
    AgentSpec,
    BoundCheckResult,
    CoarseState,
    Estimator,
    ImpossibleTransitionError,
    MarkovModel,
    StateMeasure,
    ValidationError,
    adaptivity_bound_check,
    complexity_exact,
    coupled_bound_suite,
    delta_ik_samples,
    efficiency_bound_check,
    four_state_chain,
    four_state_structural_chain,
    ift_check,
    markov_tail_check,
    sample_trajectories,
    stationary_distribution,
    surprisal_table,
    transition_counts,
)


def sampled_counts(model, steps, count, seed):
    return transition_counts(model, sample_trajectories(model, steps, count, seed=seed))


def analytic_surprisal_expectation(model) -> float:
    """Exact summation of E[2**-sigma] over all transition pairs.

    Transitions are weighted by the sampled x-marginal (the initial law for
    single-step trajectories) times the kernel row.
    """
    table = surprisal_table(model)
    total = 0.0
    for i in range(model.n_states):
        for j in range(model.n_states):
            p = model.kernel[i, j]
            if p > 0.0:
                total += model.initial[i] * p * 2.0 ** (-table[i, j])
    return total


class TestIftCheck:
    def test_identity_kernel_mean_is_exactly_one(self):
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(
            states, [[1.0, 0.0], [0.0, 1.0]], StateMeasure.uniform(states), [0.5, 0.5]
        )
        counts = sampled_counts(model, 2, 200, seed=5)
        result = ift_check(model, counts, Estimator.EXACT_ENUM, surprisal_control=False)
        assert result.complexity_mean == 1.0
        assert result.complexity_se == 0.0
        assert result.surprisal_mean is None

    def test_four_state_surprisal_near_one(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=10)
        result = ift_check(model, counts, Estimator.EXACT_ENUM)
        assert result.surprisal_mean == pytest.approx(1.0, abs=0.05)
        analytic = analytic_surprisal_expectation(model)
        assert abs(result.surprisal_mean - analytic) <= 3.0 * result.surprisal_se

    def test_analytic_expectation_is_exactly_one_for_shipped_chain(self):
        assert analytic_surprisal_expectation(four_state_chain()) == pytest.approx(1.0, abs=1e-12)

    def test_non_ergodic_chain_rejected_for_control(self):
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(
            states, [[1.0, 0.0], [0.0, 1.0]], StateMeasure.uniform(states), [0.5, 0.5]
        )
        counts = sampled_counts(model, 1, 10, seed=2)
        from wpi import NonErgodicChainError
        with pytest.raises(NonErgodicChainError):
            ift_check(model, counts, Estimator.EXACT_ENUM, surprisal_control=True)

    def test_complexity_mean_reported_even_above_one(self):
        # estimator constants can push the complexity-based mean above 1;
        # the result reports the value rather than asserting the inequality
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=13)
        result = ift_check(model, counts, Estimator.EXACT_ENUM)
        assert 0.8 < result.complexity_mean < 1.2
        assert result.samples == 20_000


    def test_counts_must_match_the_model(self):
        model = four_state_chain()
        with pytest.raises(ValidationError, match="4x4"):
            ift_check(model, np.ones((2, 2), dtype=np.int64), Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match="4x4"):
            coupled_bound_suite(model, np.ones((4, 2), dtype=np.int64), Estimator.EXACT_ENUM, 0.05)
        with pytest.raises(ValidationError, match="no transitions"):
            ift_check(model, np.zeros((4, 4), dtype=np.int64), Estimator.EXACT_ENUM)


class TestDeltaIkSamples:
    def test_row_major_transitions(self):
        model = four_state_chain()
        paths = sample_trajectories(model, 3, 50, seed=17)
        k = [complexity_exact(s).bits for s in model.states]
        expected = [k[b] - k[a] for row in paths.tolist() for a, b in zip(row, row[1:])]
        samples = delta_ik_samples(model, paths, Estimator.EXACT_ENUM)
        assert samples.dtype == float
        assert samples.tolist() == expected


class TestSurprisalTable:
    def test_reverse_pair_antisymmetry(self):
        table = surprisal_table(four_state_chain())
        kernel = four_state_chain().kernel
        for i in range(4):
            for j in range(4):
                if kernel[i, j] > 0 and kernel[j, i] > 0:
                    assert table[i, j] == pytest.approx(-table[j, i], abs=1e-12)

    def test_self_transitions_have_zero_surprisal(self):
        table = surprisal_table(four_state_chain())
        assert all(table[i, i] == 0.0 for i in range(4))


class TestMarkovTail:
    def test_all_zero_changes(self):
        result = markov_tail_check(np.zeros(100), 0.5)
        assert result.lhs == 0.0  # Pr{1 >= 2} = 0
        assert result.rhs == 0.5
        assert result.holds

    def test_degenerate_threshold_near_one(self):
        # constant samples, delta close to 1: indicator is all-or-nothing
        result = markov_tail_check(np.full(50, -1.0), 0.75)  # X = 2.0, 1/delta = 4/3
        assert result.lhs == 1.0
        assert result.rhs == 0.75 * 2.0
        assert result.holds

    def test_shipped_chain_at_ten_percent(self):
        model = four_state_chain()
        paths = sample_trajectories(model, 1, 20_000, seed=21)
        samples = delta_ik_samples(model, paths, Estimator.EXACT_ENUM)
        result = markov_tail_check(samples, 0.1, estimator=Estimator.EXACT_ENUM)
        assert result.holds
        assert result.samples == 20_000

    @given(
        st.lists(st.floats(-8, 8), min_size=1, max_size=200),
        st.floats(0.01, 0.99),
    )
    def test_empirical_markov_inequality_is_exact(self, values, delta):
        # Markov's inequality holds for the empirical measure itself, so the
        # check can only fail if the arithmetic is wrong
        result = markov_tail_check(np.array(values), delta)
        assert result.lhs <= result.rhs + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            markov_tail_check(np.array([]), 0.5)
        with pytest.raises(ValidationError):
            markov_tail_check(np.zeros(3), 1.5)


class TestEfficiencyBound:
    def test_certain_transition_from_empty_state(self):
        # transition with probability 1 whose source is free given anything:
        # the bracket vanishes and the bound is exactly log2(1/delta)
        states = [CoarseState(""), CoarseState("1")]
        model = MarkovModel(
            states, [[0.0, 1.0], [1.0, 0.0]], StateMeasure.uniform(states), [1.0, 0.0]
        )
        delta = 0.05
        result = efficiency_bound_check(
            model, states[0], states[1], AgentSpec(1.0, 1.0, 1.0), delta,
            Estimator.EXACT_ENUM,
        )
        assert result.rhs == pytest.approx(math.log2(1 / delta), abs=1e-12)
        assert result.holds == (1.0 <= result.rhs)

    def test_smaller_delta_increases_rhs(self):
        model = four_state_chain()
        x, y = model.states[0], model.states[1]
        agent = AgentSpec(1.0, 1.0, 1.0)
        loose = efficiency_bound_check(model, x, y, agent, 0.2, Estimator.EXACT_ENUM)
        tight = efficiency_bound_check(model, x, y, agent, 0.01, Estimator.EXACT_ENUM)
        assert tight.rhs > loose.rhs

    def test_impossible_transition_is_typed_error(self):
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(
            states, [[1.0, 0.0], [0.0, 1.0]], StateMeasure.uniform(states), [0.5, 0.5]
        )
        with pytest.raises(ImpossibleTransitionError):
            efficiency_bound_check(
                model, states[0], states[1], AgentSpec(1.0, 1.0, 1.0), 0.05,
                Estimator.EXACT_ENUM,
            )

    def test_agent_validation(self):
        model = four_state_chain()
        with pytest.raises(ValidationError, match="power"):
            efficiency_bound_check(
                model, model.states[0], model.states[1], AgentSpec(1.0, 0.0, 1.0),
                0.05, Estimator.EXACT_ENUM,
            )


class TestAdaptivityBound:
    def test_zero_gain_holds_when_rhs_nonnegative(self):
        model = four_state_structural_chain()
        result = adaptivity_bound_check(
            model, model.states[0], model.states[1], (0.0, 1.0), 1.0, 0.05,
            Estimator.EXACT_ENUM,
        )
        if result.rhs >= 0:
            assert result.holds

    def test_null_reconfiguration_of_free_state(self):
        # self-transition with probability 1 on a zero-complexity state:
        # rhs is exactly log2(1/delta)
        states = [CoarseState("")]
        model = MarkovModel(states, [[1.0]], StateMeasure.uniform(states), [1.0])
        result = adaptivity_bound_check(
            model, states[0], states[0], (0.5, 1.0), 1.0, 0.05, Estimator.EXACT_ENUM
        )
        assert result.rhs == pytest.approx(math.log2(1 / 0.05), abs=1e-12)

    def test_non_positive_energy_rejected(self):
        model = four_state_structural_chain()
        with pytest.raises(ValidationError, match="adaptation energy"):
            adaptivity_bound_check(
                model, model.states[0], model.states[1], (1.0, 0.0), 1.0, 0.05,
                Estimator.EXACT_ENUM,
            )


class TestBoundCoreEquivalence:
    @pytest.mark.parametrize("estimator", list(Estimator))
    @pytest.mark.parametrize("gain, cost, tau, delta", [
        (1.0, 1.0, 1.0, 0.05),
        (3.0, 0.5, 2.0, 0.01),
        (0.25, 7.0, 0.125, 0.5),
        (0.0, 1e-3, 10.0, 0.9),
        (5.0, 2.0, 3.7, 0.2),
    ])
    def test_efficiency_equals_adaptivity_field_for_field(
        self, estimator, gain, cost, tau, delta
    ):
        model = four_state_chain()
        pairs = [(i, j) for i in range(model.n_states) for j in range(model.n_states)
                 if model.kernel[i, j] > 0.0]
        assert pairs
        for i, j in pairs:
            x, y = model.states[i], model.states[j]
            efficiency = efficiency_bound_check(
                model, x, y, AgentSpec(gain, cost, tau), delta, estimator
            )
            adaptivity = adaptivity_bound_check(
                model, x, y, (gain, cost), tau, delta, estimator
            )
            assert efficiency == adaptivity


class TestCoupledSuites:
    def test_efficiency_holds_rate_on_shipped_chain(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=31)
        suite = coupled_bound_suite(model, counts, Estimator.EXACT_ENUM, 0.05)
        assert suite.valid_samples > 0
        threshold = 1.0 - suite.delta - 3.0 * suite.rate_standard_error
        assert suite.holds_rate >= threshold

    def test_adaptivity_mirror(self):
        model = four_state_structural_chain()
        counts = sampled_counts(model, 1, 20_000, seed=37)
        suite = coupled_bound_suite(
            model, counts, Estimator.EXACT_ENUM, 0.05, kind="adaptivity"
        )
        assert suite.kind == "adaptivity"
        threshold = 1.0 - suite.delta - 3.0 * suite.rate_standard_error
        assert suite.holds_rate >= threshold

    def test_weights_count_valid_transitions(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 5_000, seed=41)
        suite = coupled_bound_suite(model, counts, Estimator.EXACT_ENUM, 0.05)
        assert sum(suite.check_weights) == suite.valid_samples
        assert suite.total_transitions == 5_000

    def test_coupled_agent_unit_ratio(self):
        # with natural units the coupled agent's lhs is exactly 1
        model = four_state_chain()
        counts = sampled_counts(model, 1, 5_000, seed=43)
        suite = coupled_bound_suite(model, counts, Estimator.EXACT_ENUM, 0.05)
        assert all(check.lhs == 1.0 for check in suite.checks)


class TestBoundCheckResult:
    def test_delta_range_validated(self):
        with pytest.raises(ValidationError):
            BoundCheckResult(0.0, 1.0, True, 1.0, 1.5, 1, None, None)

    def test_holds_consistency_validated(self):
        with pytest.raises(ValidationError):
            BoundCheckResult(2.0, 1.0, True, -1.0, 0.5, 1, None, None)
