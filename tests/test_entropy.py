"""Algorithmic entropy and decomposition tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpi import (
    CoarseState,
    EntropyDelta,
    Estimator,
    StateMeasure,
    ValidationError,
    algorithmic_entropy,
    complexity_exact,
    complexity_lz,
    entropy_decomposition,
    landauer_constant,
    min_energy_of_change,
)


def states_up_to(bits):
    out = [CoarseState("")]
    for length in range(1, bits + 1):
        out.extend(CoarseState(f"{i:0{length}b}") for i in range(2 ** length))
    return out


class TestStateMeasure:
    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValidationError):
            StateMeasure({CoarseState("0"): 0.0})

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_weight(self, weight):
        # an infinite weight used to pass the `> 0` check, and the decomposition
        # of a transition between two such states then came out nan
        a, b = CoarseState("01"), CoarseState("0110")
        with pytest.raises(ValidationError, match="'0110'"):
            StateMeasure({a: 1.0, b: weight})
        with pytest.raises(ValidationError, match="'01'"):
            entropy_decomposition(a, b, StateMeasure({a: weight, b: weight}), "exact-enum")

    def test_unnormalized_measures_allowed(self):
        measure = StateMeasure({CoarseState("0"): 3.0, CoarseState("1"): 9.0})
        assert CoarseState("0") in measure


class TestAlgorithmicEntropy:
    def test_unit_weight_reduces_to_complexity(self):
        x = CoarseState("0000")
        pi = StateMeasure({x: 1.0})
        assert algorithmic_entropy(x, pi, Estimator.EXACT_ENUM) == 6.0

    def test_half_weight_subtracts_one_bit(self):
        x = CoarseState("0000")  # exact complexity 6
        pi = StateMeasure({x: 0.5})
        assert algorithmic_entropy(x, pi, Estimator.EXACT_ENUM) == 5.0

    def test_entropy_can_be_negative(self):
        x = CoarseState("")
        pi = StateMeasure({x: 2.0 ** -12})
        assert algorithmic_entropy(x, pi, Estimator.EXACT_ENUM) == -12.0

    def test_uniform_measure_shifts_by_domain_size(self):
        states = states_up_to(3)
        n = math.log2(len(states))
        pi = StateMeasure({s: 1.0 / len(states) for s in states})
        for x in states:
            k = complexity_exact(x).bits
            s = algorithmic_entropy(x, pi, Estimator.EXACT_ENUM)
            assert s == pytest.approx(k - n, abs=1e-12)

    def test_state_outside_domain_rejected(self):
        pi = StateMeasure({CoarseState("0"): 1.0})
        with pytest.raises(ValidationError, match="domain"):
            algorithmic_entropy(CoarseState("1"), pi, Estimator.EXACT_ENUM)


class TestDecomposition:
    def test_null_transition(self):
        x = CoarseState("0101")
        pi = StateMeasure({x: 0.7})
        delta = entropy_decomposition(x, x, pi, Estimator.EXACT_ENUM)
        assert (delta.total, delta.irreversible, delta.exchanged) == (0.0, 0.0, 0.0)

    def test_isolated_system_has_no_exchange(self):
        x, y = CoarseState("0000"), CoarseState("0110")
        pi = StateMeasure({x: 0.25, y: 0.25})
        delta = entropy_decomposition(x, y, pi, Estimator.EXACT_ENUM)
        assert delta.exchanged == 0.0
        assert delta.total == delta.irreversible == 1.0

    def test_identity_exact_and_two_path_consistent(self):
        rng = np.random.default_rng(21)
        states = states_up_to(6)
        weights = {s: float(w) for s, w in zip(states, rng.uniform(0.1, 4.0, len(states)))}
        pi = StateMeasure(weights)
        for _ in range(300):
            x, y = rng.choice(len(states), size=2)
            x, y = states[x], states[y]
            for estimator in (Estimator.EXACT_ENUM, Estimator.LZ_PROXY):
                delta = entropy_decomposition(x, y, pi, estimator)
                # exact identity by construction
                assert delta.total == delta.irreversible + delta.exchanged
                # same quantity along a different floating-point path:
                # group complexity-of-target with source measure term
                if estimator is Estimator.EXACT_ENUM:
                    ky, kx = complexity_exact(y).bits, complexity_exact(x).bits
                else:
                    ky, kx = complexity_lz(y).bits, complexity_lz(x).bits
                two_path = (ky + math.log2(pi.weights[x])) - (kx + math.log2(pi.weights[y]))
                assert delta.total == pytest.approx(two_path, abs=1e-12)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_irreversible_part_is_complexity_difference(self, i, j):
        states = states_up_to(6)
        x, y = states[i], states[j]
        pi = StateMeasure({x: 1.0, y: 1.0})
        delta = entropy_decomposition(x, y, pi, Estimator.LZ_PROXY)
        assert delta.irreversible == complexity_lz(y).bits - complexity_lz(x).bits


class TestMinEnergy:
    def test_one_bit_at_room_temperature(self):
        delta = EntropyDelta(total=1.0, irreversible=1.0, exchanged=0.0)
        assert min_energy_of_change(delta, 300.0) == landauer_constant(300.0)

    def test_zero_bits(self):
        delta = EntropyDelta(total=0.0, irreversible=0.0, exchanged=0.0)
        assert min_energy_of_change(delta, 300.0) == 0.0

    def test_negative_change_clamps_to_zero(self):
        delta = EntropyDelta(total=-5.0, irreversible=-5.0, exchanged=0.0)
        assert min_energy_of_change(delta, 300.0) == 0.0

    def test_temperature_validated(self):
        delta = EntropyDelta(total=1.0, irreversible=1.0, exchanged=0.0)
        with pytest.raises(ValidationError):
            min_energy_of_change(delta, -1.0)
