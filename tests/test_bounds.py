"""Fluctuation-theorem identities, tail bounds, and efficiency bound checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpi import (
    CoarseState,
    Estimator,
    ImpossibleTransitionError,
    MarkovModel,
    NonErgodicChainError,
    ValidationError,
    adaptivity_bound_check,
    complexity_exact,
    conditional_complexity,
    coupled_bound_suite,
    eight_state_chain,
    efficiency_bound_check,
    estimate_complexity,
    four_state_chain,
    ift_check,
    markov_tail_check,
    model_table,
    sample_trajectories,
    shipped_chains,
    stationary_distribution,
    surprisal_table,
    transition_counts,
    two_state_chain,
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
        model = MarkovModel(states, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        counts = sampled_counts(model, 2, 200, seed=5)
        result = ift_check(model_table(model, Estimator.EXACT_ENUM), counts)
        assert result.complexity_mean == 1.0
        assert result.complexity_se == 0.0
        assert result.surprisal_mean is None  # the identity kernel is not ergodic

    def test_four_state_surprisal_near_one(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=10)
        result = ift_check(model_table(model, Estimator.EXACT_ENUM), counts)
        assert result.surprisal_mean == pytest.approx(1.0, abs=0.05)
        analytic = analytic_surprisal_expectation(model)
        assert abs(result.surprisal_mean - analytic) <= 3.0 * result.surprisal_se

    def test_analytic_expectation_is_exactly_one_for_shipped_chain(self):
        assert analytic_surprisal_expectation(four_state_chain()) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_unsampled_reverse_edges_warn_nothing(self):
        # a cycle whose reverse edges have probability 1e-310: sigma is about
        # -1030 bits on each of them, so 2**(-sigma) overflows where no
        # transition was sampled, and the control reads the forward edges only
        tiny = 1e-310
        states = [CoarseState(s) for s in ("00", "01", "10")]
        model = MarkovModel(states, [[0.0, 1.0, tiny], [tiny, 0.0, 1.0], [1.0, tiny, 0.0]],
                            [1.0, 0.0, 0.0])
        counts = sampled_counts(model, 3, 100, seed=8)
        assert counts.sum() == counts[[0, 1, 2], [1, 2, 0]].sum() == 300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ift_check(model_table(model, Estimator.EXACT_ENUM), counts)
        assert result.surprisal_mean == 2.0 ** -(math.log2(1.0 / 3) - math.log2(tiny / 3))
        assert result.surprisal_se == 0.0

    def test_sampled_infinite_weight_is_infinite(self):
        # on the same cycle one sampled reverse edge weighs 2**1030, +inf as a
        # double; it was zeroed with the unsampled ones, so the control read
        # a mean of about 1e-310 with SE 0.0
        tiny = 1e-310
        states = [CoarseState(s) for s in ("00", "01", "10")]
        model = MarkovModel(states, [[0.0, 1.0, tiny], [tiny, 0.0, 1.0], [1.0, tiny, 0.0]],
                            [1.0, 0.0, 0.0])
        counts = np.array([[0, 99, 1], [0, 0, 100], [100, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ift_check(model_table(model, Estimator.EXACT_ENUM), counts)
        assert result.surprisal_mean == math.inf
        assert result.surprisal_se == math.inf
        assert math.isfinite(result.complexity_mean) and math.isfinite(result.complexity_se)

    def test_non_ergodic_chain_rejected_for_control(self):
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(states, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        counts = sampled_counts(model, 1, 10, seed=2)
        result = ift_check(model_table(model, Estimator.EXACT_ENUM), counts)
        assert result.surprisal_mean is None
        assert result.surprisal_se is None
        with pytest.raises(NonErgodicChainError) as rejected:
            stationary_distribution(model.kernel)
        assert result.surprisal_note == str(rejected.value)
        assert "not ergodic" in result.surprisal_note
        assert result.complexity_mean == 1.0

    def test_ergodic_chain_has_no_note(self):
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        result = ift_check(table, sampled_counts(model, 1, 100, seed=3))
        assert result.surprisal_mean is not None
        assert result.surprisal_note is None

    def test_other_stationary_failures_propagate(self, monkeypatch):
        def unsolvable(kernel):
            raise ValidationError("stationary residual too large")

        monkeypatch.setattr("wpi.bounds.stationary_distribution", unsolvable)
        model = four_state_chain()
        with pytest.raises(ValidationError, match="residual"):
            ift_check(model_table(model, Estimator.EXACT_ENUM),
                      sampled_counts(model, 1, 100, seed=3))

    def test_complexity_mean_reported_even_above_one(self):
        # estimator constants can push the complexity-based mean above 1;
        # the result reports the value rather than asserting the inequality
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=13)
        result = ift_check(model_table(model, Estimator.EXACT_ENUM), counts)
        assert 0.8 < result.complexity_mean < 1.2
        assert result.samples == 20_000


    def test_single_sample_has_zero_standard_error(self):
        model = four_state_chain()
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 1] = 1
        table = model_table(model, Estimator.EXACT_ENUM)
        result = ift_check(table, counts)
        assert result.samples == 1
        assert result.complexity_mean == 2.0 ** (table.k[0] - table.k[1])
        assert (result.complexity_se, result.surprisal_se) == (0.0, 0.0)

    def test_state_beyond_exact_enumeration_names_model_and_state(self):
        long_state = "1" * 17
        model = MarkovModel([CoarseState("0"), CoarseState(long_state)],
                            [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], name="long")
        with pytest.raises(ValidationError, match=f"model 'long', state '{long_state}': "
                                                  "target has 17 bits; exact enumeration is limited"):
            model_table(model, Estimator.EXACT_ENUM)
        assert len(model_table(model, Estimator.LZ_PROXY).k) == 2

    def test_counts_must_match_the_model(self):
        table = model_table(four_state_chain(), Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match="4x4"):
            ift_check(table, np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ValidationError, match="4x4"):
            coupled_bound_suite(table, np.ones((4, 2), dtype=np.int64), 0.05)
        with pytest.raises(ValidationError, match="no transitions"):
            ift_check(table, np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(ValidationError, match="must be numbers"):
            ift_check(table, np.full((4, 4), "1"))

    @pytest.mark.parametrize("bad, shown", [
        (-3, "-3"), (0.5, "0.5"), (math.nan, "nan"), (math.inf, "inf"),
    ])
    def test_counts_must_be_non_negative_integers(self, bad, shown):
        # a negative entry ended in a bare math domain error; a suite reported
        # more valid samples than transitions, or truncated a fraction to 0
        table = model_table(four_state_chain(), Estimator.EXACT_ENUM)
        counts = np.ones((4, 4), dtype=type(bad))
        counts[1, 2] = bad
        message = rf"counts\[1, 2\] must be a non-negative integer, got {shown}"
        for check in (
            lambda: ift_check(table, counts),
            lambda: markov_tail_check(table, counts, 0.05),
            lambda: coupled_bound_suite(table, counts, 0.05),
        ):
            with pytest.raises(ValidationError, match=message):
                check()

    def test_integer_valued_float_counts_accepted(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 500, seed=3)
        table = model_table(model, Estimator.EXACT_ENUM)
        suite = coupled_bound_suite(table, counts, 0.05)
        assert coupled_bound_suite(table, counts.astype(float), 0.05) == suite

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_counts_on_impossible_transitions_rejected(self, estimator):
        # 000 -> 011 has P = 0 on the eight-state ring; such counts read as
        # sigma = 0 (a surprisal mean of exactly 1.0), and the suite skipped
        # them because every state there has the same K
        model = eight_state_chain()
        counts = np.zeros((8, 8), dtype=np.int64)
        counts[0, 2] = 10
        counts[0, 0] = 5
        assert model.states[2].bits == "011" and model.kernel[0, 2] == 0.0
        message = r"counts\[0, 2\] = 10 on an impossible transition: P\('011' \| '000'\) = 0"
        table = model_table(model, estimator)
        for check in (
            lambda: ift_check(table, counts),
            lambda: markov_tail_check(table, counts, 0.05),
            lambda: coupled_bound_suite(table, counts, 0.05),
        ):
            with pytest.raises(ImpossibleTransitionError, match=message):
                check()


def scalar_surprisal_table(model):
    """sigma(x, y) entry by entry, with scalar ``math.log2``."""
    pi = stationary_distribution(model.kernel)
    n = model.n_states
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            forward, backward = model.kernel[i, j], model.kernel[j, i]
            if forward == 0.0:
                continue
            if backward == 0.0:
                table[i, j] = math.inf
            else:
                table[i, j] = math.log2(forward * pi[i]) - math.log2(backward * pi[j])
    return table


def random_sparse_chain(n, seed):
    """An ergodic chain on n states with random one-way and two-way edges."""
    rng = np.random.default_rng(seed)
    kernel = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    kernel[np.arange(n), (np.arange(n) + 1) % n] += rng.random(n)  # a one-way cycle
    kernel[0, 0] += 0.5  # aperiodic
    kernel /= kernel.sum(axis=1, keepdims=True)
    width = max(1, (n - 1).bit_length())
    states = [CoarseState(format(i, f"0{width}b")) for i in range(n)]
    return MarkovModel(states, kernel, np.full(n, 1.0 / n), name=f"sparse-{n}")


class TestSurprisalTable:
    @pytest.mark.parametrize("model", [
        *shipped_chains(),
        MarkovModel([CoarseState("0"), CoarseState("10"), CoarseState("110")],
                    [[0.5, 0.25, 0.25], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]], [1 / 3] * 3,
                    name="one-way"),
        *(random_sparse_chain(n, seed) for n, seed in ((5, 1), (17, 2), (40, 3))),
    ], ids=lambda m: m.name)
    def test_equals_the_scalar_table_bit_for_bit(self, model):
        table = surprisal_table(model)
        assert table.tobytes() == scalar_surprisal_table(model).tobytes()
        if model.name == "one-way" or model.name.startswith("sparse"):
            assert np.isinf(table).any()

    def test_reverse_pair_antisymmetry(self):
        table = surprisal_table(four_state_chain())
        kernel = four_state_chain().kernel
        for i in range(4):
            for j in range(4):
                if kernel[i, j] > 0 and kernel[j, i] > 0:
                    assert table[i, j] == pytest.approx(-table[j, i], abs=1e-12)

    def test_one_way_edge_has_infinite_surprisal(self):
        # ergodic, but 1 -> 2 has no reverse: its 2**-sigma is 0, so the
        # mean falls below 1
        states = [CoarseState("0"), CoarseState("10"), CoarseState("110")]
        kernel = [[0.5, 0.25, 0.25], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]]
        model = MarkovModel(states, kernel, [1 / 3] * 3)
        table = surprisal_table(model)
        assert table[1, 2] == math.inf
        assert np.isfinite(np.delete(table.ravel(), 5)).all()
        analytic = analytic_surprisal_expectation(model)
        assert analytic < 1.0
        table = model_table(model, Estimator.EXACT_ENUM)
        result = ift_check(table, sampled_counts(model, 1, 20_000, seed=17))
        assert abs(result.surprisal_mean - analytic) <= 3.0 * result.surprisal_se

    def test_self_transitions_have_zero_surprisal(self):
        table = surprisal_table(four_state_chain())
        assert all(table[i, i] == 0.0 for i in range(4))


def uniform_model(bits):
    states = [CoarseState(b) for b in bits]
    n = len(states)
    return MarkovModel(states, np.full((n, n), 1.0 / n), np.full(n, 1.0 / n))


def ring_of_long_states(n_states=12, seed=8):
    """A ring of 8-12-bit states, alternating periodic and random ones."""
    rng = np.random.default_rng(seed)
    bits = []
    while len(bits) < n_states:
        n = int(rng.integers(8, 13))
        if len(bits) % 2 == 0:
            period = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 4))))
            s = (period * n)[:n]
        else:
            s = "".join(rng.choice(["0", "1"], size=n))
        if s not in bits:
            bits.append(s)
    states = [CoarseState(b) for b in bits]
    kernel = np.zeros((n_states, n_states))
    for i in range(n_states):
        kernel[i, i] = 0.75
        kernel[i, (i + 1) % n_states] = 0.1875
        kernel[i, (i - 1) % n_states] = 0.0625
    return MarkovModel(states, kernel, np.full(n_states, 1.0 / n_states), name="ring")


class TestMarkovTail:
    def test_all_zero_changes(self):
        # only self-transitions: every delta_i_k is 0 and X = 1
        model = four_state_chain()
        counts = np.diag([25, 25, 25, 25])
        result = markov_tail_check(model_table(model, Estimator.EXACT_ENUM), counts, 0.5)
        assert result.lhs == 0.0  # Pr{1 >= 2} = 0
        assert result.rhs == 0.5
        assert result.holds
        assert result.samples == 100

    def test_degenerate_threshold_near_one(self):
        # constant delta_i_k = -1, delta close to 1: indicator is all-or-nothing
        model = uniform_model(["0110", "0101"])  # K = 7 and 6
        counts = np.array([[0, 50], [0, 0]])
        result = markov_tail_check(model_table(model, Estimator.EXACT_ENUM), counts, 0.75)
        assert result.lhs == 1.0  # X = 2.0, 1/delta = 4/3
        assert result.rhs == 0.75 * 2.0
        assert result.holds

    def test_shipped_chain_at_ten_percent(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=21)
        result = markov_tail_check(model_table(model, Estimator.EXACT_ENUM), counts, 0.1)
        assert result.holds
        assert result.samples == 20_000

    @given(
        st.lists(st.integers(0, 40), min_size=36, max_size=36).filter(any),
        st.floats(0.01, 0.99),
    )
    def test_empirical_markov_inequality_is_exact(self, cells, delta):
        # Markov's inequality holds for the empirical measure itself, so the
        # check can only fail if the arithmetic is wrong; the states' K
        # values are 0, 2, 4, 7, 11 and 19 bits
        model = uniform_model(["", "0", "01", "0110", "01101001", "0110100110010110"])
        counts = np.array(cells).reshape(6, 6)
        result = markov_tail_check(model_table(model, Estimator.EXACT_ENUM), counts, delta)
        assert result.lhs <= result.rhs + 1e-12

    @pytest.mark.parametrize("model", [four_state_chain(), ring_of_long_states()],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.1, 0.5])
    def test_matches_per_transition_oracle(self, model, delta):
        # oracle: delta_i_k listed per sampled transition, in row-major order
        paths = sample_trajectories(model, 3, 4000, seed=29)
        k = [complexity_exact(s).bits for s in model.states]
        changes = np.array(
            [k[b] - k[a] for row in paths.tolist() for a, b in zip(row, row[1:])], dtype=float
        )
        x = 2.0 ** (-changes)
        result = markov_tail_check(
            model_table(model, Estimator.EXACT_ENUM), transition_counts(model, paths), delta
        )
        assert result.lhs == float(np.mean(x >= 1.0 / delta))
        assert abs(result.rhs - delta * float(x.mean())) <= 1e-12
        assert result.empirical_ift == pytest.approx(float(x.mean()), rel=1e-12)
        assert result.samples == changes.size

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
    def test_bad_delta_is_typed_error(self, delta):
        counts = np.ones((4, 4), dtype=np.int64)
        with pytest.raises(ValidationError, match="delta"):
            markov_tail_check(model_table(four_state_chain(), Estimator.EXACT_ENUM), counts, delta)

    def test_validation(self):
        table = model_table(four_state_chain(), Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError):
            markov_tail_check(table, np.zeros((4, 4), dtype=np.int64), 0.5)
        with pytest.raises(ValidationError):
            markov_tail_check(table, np.ones((4, 4), dtype=np.int64), 1.5)


class TestEfficiencyBound:
    def test_certain_transition_from_empty_state(self):
        # transition with probability 1 whose source is free given anything:
        # the bracket vanishes and the bound is exactly log2(1/delta)
        states = [CoarseState(""), CoarseState("1")]
        model = MarkovModel(states, [[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
        delta = 0.05
        result = efficiency_bound_check(
            model_table(model, Estimator.EXACT_ENUM), states[0], states[1], (1.0, 1.0, 1.0), delta
        )
        assert result.rhs == pytest.approx(math.log2(1 / delta), abs=1e-12)
        assert result.holds == (1.0 <= result.rhs)

    def test_smaller_delta_increases_rhs(self):
        model = four_state_chain()
        x, y = model.states[0], model.states[1]
        agent, table = (1.0, 1.0, 1.0), model_table(model, Estimator.EXACT_ENUM)
        loose = efficiency_bound_check(table, x, y, agent, 0.2)
        tight = efficiency_bound_check(table, x, y, agent, 0.01)
        assert tight.rhs > loose.rhs

    def test_tiny_probability_gives_finite_rhs(self):
        # log2(1/p) overflowed to inf for p below 2**-1024; -log2(p) is about 1,030 bits
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(states, [[1.0, 1e-310], [0.5, 0.5]], [0.5, 0.5])
        agent, delta = (1.0, 1.0, 1.0), 0.05
        table = model_table(model, Estimator.EXACT_ENUM)
        tiny = efficiency_bound_check(table, *states, agent, delta)
        assert math.isfinite(tiny.rhs) and math.isfinite(tiny.slack)
        k_cond = conditional_complexity(*states, Estimator.EXACT_ENUM).bits
        assert tiny.rhs == pytest.approx(-math.log2(1e-310) - k_cond + math.log2(1 / delta))

    def test_tiny_delta_gives_finite_rhs(self):
        # log2(1/delta) overflowed to inf for delta below 2**-1024
        model = four_state_chain()
        x, y = model.states[0], model.states[1]
        agent, table = (1.0, 1.0, 1.0), model_table(model, Estimator.EXACT_ENUM)
        tiny = efficiency_bound_check(table, x, y, agent, 1e-310)
        half = efficiency_bound_check(table, x, y, agent, 0.5)
        assert math.isfinite(tiny.rhs) and math.isfinite(tiny.slack)
        assert tiny.rhs - half.rhs == pytest.approx(-math.log2(1e-310) - 1.0)

    def test_impossible_transition_is_typed_error(self):
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(states, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        with pytest.raises(ImpossibleTransitionError):
            efficiency_bound_check(
                model_table(model, Estimator.EXACT_ENUM), states[0], states[1], (1.0, 1.0, 1.0),
                0.05,
            )

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.0, math.inf, math.nan])
    def test_bad_delta_is_typed_error(self, delta):
        # 0, negative and infinite deltas break log2(1/delta) before a result exists
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match="delta"):
            efficiency_bound_check(table, model.states[0], model.states[1], (1.0, 1.0, 1.0), delta)

    def test_agent_validation(self):
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match="power"):
            efficiency_bound_check(table, model.states[0], model.states[1], (1.0, 0.0, 1.0), 0.05)

    def test_state_outside_the_model_rejected(self):
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match="state '111111' is not in the model"):
            efficiency_bound_check(table, CoarseState("111111"), model.states[1], (1.0, 1.0, 1.0),
                                   0.05)

    @pytest.mark.parametrize("agent, entry", [
        ((math.nan, 1.0, 1.0), "intelligence"),
        ((math.inf, 1.0, 1.0), "intelligence"),
        ((1.0, math.inf, 1.0), "power"),
        ((1.0, math.nan, 1.0), "power"),
        ((1.0, 1.0, math.inf), "duration"),
        ((1.0, 1.0, -math.inf), "duration"),
    ])
    def test_agent_entries_must_be_finite(self, agent, entry):
        # a NaN gain returned lhs and slack NaN; an infinite duration dropped
        # the probability term and an infinite power passed with lhs 0
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match=f"agent {entry}.* must be finite"):
            efficiency_bound_check(table, model.states[0], model.states[1], agent, 0.05)


class TestAdaptivityBound:
    def test_zero_gain_holds_when_rhs_nonnegative(self):
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        result = adaptivity_bound_check(
            table, model.states[0], model.states[1], (0.0, 1.0, 1.0), 0.05
        )
        if result.rhs >= 0:
            assert result.holds

    def test_null_reconfiguration_of_free_state(self):
        # self-transition with probability 1 on a zero-complexity state:
        # rhs is exactly log2(1/delta)
        states = [CoarseState("")]
        model = MarkovModel(states, [[1.0]], [1.0])
        result = adaptivity_bound_check(
            model_table(model, Estimator.EXACT_ENUM), states[0], states[0], (0.5, 1.0, 1.0), 0.05
        )
        assert result.rhs == pytest.approx(math.log2(1 / 0.05), abs=1e-12)

    def test_non_positive_energy_rejected(self):
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        with pytest.raises(ValidationError, match="adaptation energy"):
            adaptivity_bound_check(table, model.states[0], model.states[1], (1.0, 0.0, 1.0), 0.05)


class TestBoundCoreEquivalence:
    def test_one_function_serves_both_bounds(self):
        assert adaptivity_bound_check is efficiency_bound_check  # both as exported by wpi

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
        table = model_table(model, estimator)
        for i, j in pairs:
            x, y = model.states[i], model.states[j]
            efficiency = efficiency_bound_check(table, x, y, (gain, cost, tau), delta)
            adaptivity = adaptivity_bound_check(table, x, y, (gain, cost, tau), delta)
            assert efficiency == adaptivity


class TestCoupledSuites:
    def test_efficiency_holds_rate_on_shipped_chain(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 20_000, seed=31)
        suite = coupled_bound_suite(model_table(model, Estimator.EXACT_ENUM), counts, 0.05)
        assert suite.valid_samples > 0
        threshold = 1.0 - suite.delta - 3.0 * suite.rate_standard_error
        assert suite.holds_rate >= threshold

    def test_weights_count_valid_transitions(self):
        model = four_state_chain()
        counts = sampled_counts(model, 1, 5_000, seed=41)
        suite = coupled_bound_suite(model_table(model, Estimator.EXACT_ENUM), counts, 0.05)
        assert sum(suite.check_weights) == suite.valid_samples
        assert suite.total_transitions == 5_000

    @pytest.mark.parametrize("kind", ["efficiency", "adaptivity"])
    def test_coupled_agent_unit_ratio(self, kind):
        # with natural units and unit duration the coupled agent's lhs is exactly 1,
        # in the one suite and in each bound's per-pair check of that agent
        model = four_state_chain()
        counts = sampled_counts(model, 1, 5_000, seed=43)
        table = model_table(model, Estimator.EXACT_ENUM)
        suite = coupled_bound_suite(table, counts, 0.05)
        assert suite.checks
        assert all(check.lhs == 1.0 for check in suite.checks)
        k = [estimate_complexity(s, Estimator.EXACT_ENUM).bits for s in model.states]
        n = model.n_states
        pairs = [(i, j) for i in range(n) for j in range(n) if counts[i, j] and k[j] > k[i]]
        assert len(pairs) == len(suite.checks)
        for i, j in pairs:
            x, y, d = model.states[i], model.states[j], k[j] - k[i]
            if kind == "efficiency":
                check = efficiency_bound_check(table, x, y, (d, d, 1.0), 0.05)
            else:
                check = adaptivity_bound_check(table, x, y, (d, d, 1.0), 0.05)
            assert check.lhs == 1.0

    @pytest.mark.parametrize("estimator", list(Estimator))
    @pytest.mark.parametrize("model", [four_state_chain(), ring_of_long_states()],
                             ids=lambda m: m.name)
    def test_checks_equal_the_per_pair_checks(self, model, estimator):
        # oracle: both public per-pair checks with the coupled agent (d, d, 1),
        # one per distinct sampled pair whose K rises, in row-major order
        counts = sampled_counts(model, 1, 4_000, seed=47)
        table = model_table(model, estimator)
        suite = coupled_bound_suite(table, counts, 0.05)
        k = [estimate_complexity(s, estimator).bits for s in model.states]
        n = model.n_states
        pairs = [(i, j) for i in range(n) for j in range(n) if counts[i, j] and k[j] > k[i]]
        assert list(suite.check_weights) == [int(counts[i, j]) for i, j in pairs]
        assert len(suite.checks) == len(pairs)
        assert pairs or (model.name, estimator) == ("four-state", Estimator.LZ_PROXY)  # K = 6 each
        for (i, j), check in zip(pairs, suite.checks):
            x, y, d = model.states[i], model.states[j], k[j] - k[i]
            assert check == efficiency_bound_check(table, x, y, (d, d, 1.0), 0.05)
            assert check == adaptivity_bound_check(table, x, y, (d, d, 1.0), 0.05)
        if model.name == "ring":
            assert any(check.rhs < 0.0 for check in suite.checks)

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_each_check_is_one_per_pair_check_call(self, monkeypatch, estimator):
        # the suite has no arithmetic of its own: every entry of suite.checks
        # is what the public per-pair check returned for the coupled agent
        model = ring_of_long_states()
        counts = sampled_counts(model, 1, 4_000, seed=47)
        calls = []

        def counted(table, x, y, agent, delta):
            result = efficiency_bound_check(table, x, y, agent, delta)
            calls.append(((x, y, agent), result))
            return result

        monkeypatch.setattr("wpi.bounds.efficiency_bound_check", counted)
        suite = coupled_bound_suite(model_table(model, estimator), counts, 0.05)
        assert suite.checks
        assert [result for _, result in calls] == list(suite.checks)
        for (x, y, agent), _ in calls:
            d = (estimate_complexity(y, estimator).bits - estimate_complexity(x, estimator).bits)
            assert agent == (d, d, 1.0)

    @pytest.mark.parametrize("estimator", list(Estimator))
    @pytest.mark.parametrize("delta", [1.5, math.nan, 0.0])
    def test_bad_delta_rejected_without_checked_pairs(self, estimator, delta):
        # both two-state states have the same K under either estimator, so no
        # sampled pair is checked and only the suite's entry check sees delta
        model = two_state_chain()
        counts = sampled_counts(model, 1, 1_000, seed=53)
        table = model_table(model, estimator)
        assert not coupled_bound_suite(table, counts, 0.05).checks
        with pytest.raises(ValidationError, match="delta"):
            coupled_bound_suite(table, counts, delta)


class TestModelTable:
    @pytest.mark.parametrize("estimator", list(Estimator))
    @pytest.mark.parametrize("model", [*shipped_chains(), ring_of_long_states()],
                             ids=lambda m: m.name)
    def test_equals_the_per_state_oracle(self, model, estimator):
        # oracle: each state's estimate on its own, and 2**(K(x) - K(y)) pair by pair
        table = model_table(model, estimator)
        assert table.model is model and table.estimator is estimator
        k = [estimate_complexity(s, estimator).bits for s in model.states]
        assert table.k == tuple(k)
        assert all(type(bits) is int for bits in table.k)
        n = model.n_states
        oracle = np.array([[2.0 ** (k[i] - k[j]) for j in range(n)] for i in range(n)])
        assert table.ift.tobytes() == oracle.tobytes()
        assert table.sigma.tobytes() == surprisal_table(model).tobytes()
        assert table.note is None

    def test_non_ergodic_chain_has_no_surprisal(self):
        states = [CoarseState("0"), CoarseState("1")]
        model = MarkovModel(states, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        table = model_table(model, Estimator.EXACT_ENUM)
        assert table.sigma is None
        with pytest.raises(NonErgodicChainError) as rejected:
            surprisal_table(model)
        assert table.note == str(rejected.value)
        assert table.k == (2, 2)

    def test_estimator_tag_is_coerced(self):
        model = four_state_chain()
        table = model_table(model, "lz-proxy")
        assert table.estimator is Estimator.LZ_PROXY
        counts = sampled_counts(model, 1, 100, seed=3)
        assert ift_check(table, counts).estimator is Estimator.LZ_PROXY
        assert coupled_bound_suite(table, counts, 0.05).estimator is Estimator.LZ_PROXY

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_every_check_reads_the_same_mean(self, estimator):
        model = ring_of_long_states()
        counts = sampled_counts(model, 1, 4_000, seed=59)
        table = model_table(model, estimator)
        mean = ift_check(table, counts).complexity_mean
        for delta in (0.01, 0.05, 0.1, 0.5):
            assert markov_tail_check(table, counts, delta).empirical_ift == mean
        # each pair's 2**(-deltaK) is a float computed from int complexities
        suite = coupled_bound_suite(table, counts, 0.05)
        assert suite.checks
        assert all(type(check.empirical_ift) is float for check in suite.checks)
