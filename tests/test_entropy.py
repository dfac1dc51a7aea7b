"""Algorithmic entropy under a chain's own stationary law, and its split.

``model_table`` gives each state S(x) = K(x) + log2 pi(x) in bits, with pi
the kernel's stationary law.  Entropy production splits as
sigma(x, y) = [log2 pi(x) - log2 pi(y)] + [log2 P(y|x) - log2 P(x|y)], an
exchange term and a kernel term.  The config's ``measure`` key is still
validated as a state measure, though no computation reads it.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpi import (
    CoarseState,
    ConfigError,
    Estimator,
    MarkovModel,
    ValidationError,
    complexity_exact,
    config_from_dict,
    four_state_chain,
    landauer_constant,
    min_energy_of_change,
    model_table,
    stationary_distribution,
)


def states_up_to(bits):
    out = [CoarseState("")]
    for length in range(1, bits + 1):
        out.extend(CoarseState(f"{i:0{length}b}") for i in range(2 ** length))
    return out


def chain(states, kernel):
    n = len(states)
    return MarkovModel(states, kernel, np.full(n, 1.0 / n))


def random_ergodic_kernel(rng, n):
    kernel = rng.uniform(0.05, 1.0, (n, n))
    return kernel / kernel.sum(axis=1, keepdims=True)


def doubly_stochastic_kernel(rng, n):
    # a convex mix of permutations, the identity among them, has a uniform pi
    perms = [np.arange(n)] + [rng.permutation(n) for _ in range(3)]
    weights = rng.uniform(0.1, 1.0, len(perms))
    mix = sum(w * np.eye(n)[p] for w, p in zip(weights / weights.sum(), perms))
    return 0.99 * mix + 0.01 / n  # the uniform part makes it irreducible


def config_with_measure(measure, states=("0", "1")):
    n = len(states)
    return {
        "seed": 7,
        "substrates": [{
            "name": "cpu", "temperature": 300.0, "overhead_mem": 2.0,
            "overhead_ctrl": 2.0, "algorithmic_yield": 1.0,
        }],
        "suites": [{"id": "s", "tasks": [{"id": "t", "weight": 1.0, "performance": 1.0}]}],
        "traces": [{"substrate": "cpu", "suite": "s", "irreversible_ops": 100, "duration": 1.0}],
        "models": [{
            "name": "m", "states": list(states), "kernel": [[1.0 / n] * n] * n,
            "measure": list(measure), "initial": [1.0 / n] * n,
        }],
    }


class TestStateMeasure:
    """The config's ``measure`` key: positive finite weights, not normalized."""

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ConfigError) as rejected:
            config_from_dict(config_with_measure([1.0, -1.0]))
        assert rejected.value.issues == [
            ("/models/0", "measure weight for state '1' must be > 0, got -1.0")]

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_weight(self, weight):
        # inf and -inf fail the finite-number check at the weight's pointer;
        # nan passes it and fails the `> 0` check, which names the state
        expected = {
            "inf": ("/models/0/measure/1", "must be a finite number, got inf"),
            "-inf": ("/models/0/measure/1", "must be a finite number, got -inf"),
            "nan": ("/models/0", "measure weight for state '0110' must be > 0, got nan"),
        }[repr(weight)]
        with pytest.raises(ConfigError) as rejected:
            config_from_dict(config_with_measure([1.0, weight], states=("01", "0110")))
        assert rejected.value.issues == [expected]

    def test_unnormalized_measures_allowed(self):
        config = config_from_dict(config_with_measure([3.0, 9.0]))
        # S reads the kernel's own pi (1/2, 1/2), never the config's weights
        table = model_table(config.models[0], Estimator.EXACT_ENUM)
        assert table.entropy.tolist() == [k - 1.0 for k in table.k]


class TestAlgorithmicEntropy:
    def test_unit_weight_reduces_to_complexity(self):
        # a one-state chain has pi = 1, so S = K
        table = model_table(chain([CoarseState("0000")], [[1.0]]), Estimator.EXACT_ENUM)
        assert table.entropy.tolist() == [6.0]

    def test_half_weight_subtracts_one_bit(self):
        x, y = CoarseState("0000"), CoarseState("0110")  # exact complexity 6 and 7
        table = model_table(chain([x, y], [[0.5, 0.5], [0.5, 0.5]]), Estimator.EXACT_ENUM)
        assert table.k == (6, 7)
        assert table.entropy.tolist() == pytest.approx([5.0, 6.0], abs=1e-12)

    def test_entropy_can_be_negative(self):
        # identical rows make the chain i.i.d. with pi = (2**-12, 1 - 2**-12)
        row = [2.0 ** -12, 1.0 - 2.0 ** -12]
        table = model_table(chain([CoarseState(""), CoarseState("1")], [row, row]),
                            Estimator.EXACT_ENUM)
        assert table.k[0] == 0
        assert table.entropy[0] == pytest.approx(-12.0, abs=1e-12)

    def test_uniform_measure_shifts_by_domain_size(self):
        states = states_up_to(3)
        n = math.log2(len(states))
        kernel = doubly_stochastic_kernel(np.random.default_rng(5), len(states))
        table = model_table(chain(states, kernel), Estimator.EXACT_ENUM)
        for x, s in zip(states, table.entropy.tolist()):
            assert s == pytest.approx(complexity_exact(x).bits - n, abs=1e-12)

    def test_state_outside_domain_rejected(self):
        # state '1' is transient: pi('1') = 0 puts it outside pi's support,
        # so the chain gets no entropy column, only the non-ergodic note
        states = [CoarseState("0"), CoarseState("1")]
        table = model_table(chain(states, [[1.0, 0.0], [0.5, 0.5]]), Estimator.EXACT_ENUM)
        assert table.entropy is None
        assert "not ergodic" in table.note


class TestDecomposition:
    """sigma(x, y) = exchange term + kernel term, read from the table."""

    @staticmethod
    def exchange(table, i, j):
        return (table.entropy[i] - table.k[i]) - (table.entropy[j] - table.k[j])

    def test_null_transition(self):
        states = states_up_to(2)
        kernel = random_ergodic_kernel(np.random.default_rng(3), len(states))
        table = model_table(chain(states, kernel), Estimator.EXACT_ENUM)
        for i in range(len(states)):
            assert (table.sigma[i, i], self.exchange(table, i, i)) == (0.0, 0.0)

    def test_isolated_system_has_no_exchange(self):
        # a uniform pi exchanges nothing: sigma is the kernel term alone
        model = four_state_chain()
        table = model_table(model, Estimator.EXACT_ENUM)
        kernel = model.kernel
        for i, j in zip(*np.nonzero((kernel > 0.0) & (kernel.T > 0.0))):
            assert self.exchange(table, i, j) == 0.0
            kernel_term = math.log2(kernel[i, j]) - math.log2(kernel[j, i])
            assert table.sigma[i, j] == pytest.approx(kernel_term, rel=1e-12, abs=1e-12)

    def test_identity_exact_and_two_path_consistent(self):
        rng = np.random.default_rng(21)
        states = states_up_to(3)
        for _ in range(20):
            kernel = random_ergodic_kernel(rng, len(states))
            model = chain(states, kernel)
            log_pi = np.log2(stationary_distribution(kernel))
            for estimator in Estimator:
                table = model_table(model, estimator)
                # S - K is log2 pi whichever estimator gave K
                assert (table.entropy - table.k).tolist() == pytest.approx(log_pi.tolist(),
                                                                           abs=1e-12)
                for i, j in rng.integers(0, len(states), size=(20, 2)):
                    # the same sigma along a different floating-point path:
                    # exchange from the table plus the kernel term
                    two_path = self.exchange(table, i, j) + (
                        math.log2(kernel[i, j]) - math.log2(kernel[j, i]))
                    sigma = table.sigma[i, j]
                    assert abs(sigma - two_path) <= 1e-12 * max(1.0, abs(sigma))

    @staticmethod
    @functools.cache
    def six_bit_table():
        states = states_up_to(6)
        kernel = random_ergodic_kernel(np.random.default_rng(8), len(states))
        return model_table(chain(states, kernel), Estimator.LZ_PROXY), stationary_distribution(kernel)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_irreversible_part_is_complexity_difference(self, i, j):
        # S(y) - S(x) = [K(y) - K(x)] + [log2 pi(y) - log2 pi(x)]: taking the
        # pi part away leaves the complexity change that the Landauer floor prices
        table, pi = self.six_bit_table()
        change = table.entropy[j] - table.entropy[i]
        irreversible = change - (math.log2(pi[j]) - math.log2(pi[i]))
        assert irreversible == pytest.approx(table.k[j] - table.k[i], abs=1e-12)


class TestMinEnergy:
    def test_one_bit_at_room_temperature(self):
        assert min_energy_of_change(1.0, 300.0) == landauer_constant(300.0)

    def test_zero_bits(self):
        assert min_energy_of_change(0.0, 300.0) == 0.0

    def test_negative_change_clamps_to_zero(self):
        assert min_energy_of_change(-5.0, 300.0) == 0.0

    def test_temperature_validated(self):
        with pytest.raises(ValidationError):
            min_energy_of_change(1.0, -1.0)

    @pytest.mark.parametrize("bits", [math.nan, math.inf, -math.inf])
    def test_non_finite_bits_rejected(self, bits):
        # max(0.0, nan) is 0.0, so a nan change would cost 0 J
        with pytest.raises(ValidationError, match="bits"):
            min_energy_of_change(bits, 300.0)
