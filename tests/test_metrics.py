"""Core metric tests: intelligence scores, Landauer accounting, phi bounds."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpi import (
    BOLTZMANN_CONSTANT,
    ExecutionTrace,
    Substrate,
    SubstrateRun,
    TaskSuite,
    UndefinedMetricError,
    ValidationError,
    account_run,
    config_from_dict,
    default_substrates,
    ingest_config,
    intelligence_score,
    landauer_constant,
    modeled_energy,
    phi_lower_bound,
    wpi,
)
from wpi.config import default_config_path
from wpi.report import compare_section, score_section


def shipped_suite():
    return ingest_config(default_config_path()).suites["default-suite"]


class TestIntelligenceScore:
    def test_single_perfect_task(self):
        assert intelligence_score(TaskSuite([("t", 1.0, 1.0)])) == 1.0

    def test_weighted_sum_by_hand(self):
        suite = TaskSuite([("a", 2.0, 0.5), ("b", 3.0, 0.0)])
        assert intelligence_score(suite) == 1.0

    def test_matches_exact_rational_resummation(self):
        # oracle: exact arithmetic over the same terms via Fraction
        rng = np.random.default_rng(7)
        tasks = [
            (f"task-{i:03d}", float(w), float(p))
            for i, (w, p) in enumerate(zip(rng.uniform(0, 10, 100), rng.uniform(0, 1, 100)))
        ]
        exact = sum(
            (Fraction(w) * Fraction(p) for _, w, p in tasks), start=Fraction(0)
        )
        got = intelligence_score(TaskSuite(tasks))
        assert abs(got - float(exact)) <= 1e-12 * float(exact)

    @given(st.permutations(list(range(30))))
    def test_permutation_invariant_bit_exact(self, order):
        rng = np.random.default_rng(11)
        tasks = [
            (f"t{i:02d}", float(rng.uniform(0, 5)), float(rng.uniform(0, 1)))
            for i in range(30)
        ]
        baseline = intelligence_score(TaskSuite(tasks))
        shuffled = intelligence_score(TaskSuite([tasks[i] for i in order]))
        assert shuffled == baseline

    def test_rejects_negative_weight_naming_task(self):
        for weight in (-0.5, math.inf):
            with pytest.raises(ValidationError, match="bad-task.*weight"):
                TaskSuite([("ok", 1.0, 1.0), ("bad-task", weight, 1.0)])

    def test_rejects_total_weight_beyond_float_range(self):
        with pytest.raises(ValidationError, match="total weight"):
            TaskSuite([(name, 1e308, 1.0) for name in "abc"])

    def test_score_of_largest_total_weight_is_finite(self):
        # performances are at most 1, so a suite that passes cannot overflow the score
        half = sys.float_info.max / 2
        suite = TaskSuite([("a", half, 1.0), ("b", half, 1.0)])
        assert intelligence_score(suite) == suite.total_weight() == sys.float_info.max

    def test_rejects_performance_out_of_range(self):
        with pytest.raises(ValidationError, match="hot"):
            TaskSuite([("hot", 1.0, 1.5)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="dup"):
            TaskSuite([("dup", 1.0, 1.0), ("dup", 2.0, 0.5)])

    def test_score_bounded_by_total_weight(self):
        suite = TaskSuite([("a", 2.0, 0.9), ("b", 3.0, 0.4)])
        assert 0.0 <= intelligence_score(suite) <= suite.total_weight()

    def test_negative_score_rejected(self):
        for intelligence in (-1.0, math.nan):
            with pytest.raises(ValidationError):
                wpi(1.0, intelligence)


class TestLandauerConstant:
    def test_room_temperature_arithmetic(self):
        assert landauer_constant(300.0) == pytest.approx(
            1.380649e-23 * 300.0 * math.log(2), rel=1e-15
        )

    def test_linear_in_temperature(self):
        assert landauer_constant(0.5) == landauer_constant(1.0) / 2.0

    def test_inverse_construction_gives_one_joule(self):
        t = 1.0 / math.log(2) / 1.380649e-23
        assert landauer_constant(t) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("t", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_non_positive_temperature(self, t):
        with pytest.raises(ValidationError):
            landauer_constant(t)


class TestModeledEnergy:
    def test_unit_overhead_thousand_ops(self):
        trace = ExecutionTrace(irreversible_ops=1000, duration=1.0)
        report = modeled_energy(trace, 1.0, 300.0)
        expected = 1000 * landauer_constant(300.0)
        assert report.energy == pytest.approx(expected, rel=1e-15)
        assert report.power == pytest.approx(expected, rel=1e-15)
        assert report.energy >= report.landauer_floor
        assert report.overhead_source == "modeled"

    def test_zero_ops_zero_energy(self):
        report = modeled_energy(ExecutionTrace(0, 2.0), 5.0, 300.0)
        assert report.energy == 0.0
        assert report.power == 0.0

    def test_measurement_back_solves_overhead(self):
        trace = ExecutionTrace(10, 1.0, measured_energy=1e-18)
        report = modeled_energy(trace, 1.0, 300.0)
        expected_factor = 1e-18 / (10 * landauer_constant(300.0))
        assert report.overhead_factor_used == pytest.approx(expected_factor, rel=1e-15)
        assert round(report.overhead_factor_used, 2) == 34.83
        assert report.energy == 1e-18
        assert report.overhead_source == "back-solved"

    def test_sub_landauer_overhead_rejected(self):
        with pytest.raises(ValidationError, match="sub-Landauer"):
            modeled_energy(ExecutionTrace(10, 1.0), 0.5, 300.0)
        with pytest.raises(ValidationError, match="overhead"):
            modeled_energy(ExecutionTrace(10, 1.0), math.inf, 300.0)
        with pytest.raises(ValidationError, match="temperature"):
            modeled_energy(ExecutionTrace(10, 1.0), 1.0, math.inf)

    def test_zero_ops_with_measured_energy_flags_infinity(self):
        report = modeled_energy(ExecutionTrace(0, 1.0, measured_energy=1e-18), 1.0, 300.0)
        assert math.isinf(report.overhead_factor_used)
        assert report.warnings

    def test_sub_landauer_measurement_flagged(self):
        floor = 10 * landauer_constant(300.0)
        report = modeled_energy(
            ExecutionTrace(10, 1.0, measured_energy=floor / 2), 1.0, 300.0
        )
        assert any("Landauer floor" in w for w in report.warnings)

    def test_energy_exact_product_when_modeled(self):
        trace = ExecutionTrace(12345, 2.0)
        report = modeled_energy(trace, 7.5, 250.0)
        assert report.energy == 7.5 * 12345 * landauer_constant(250.0)

    def test_energy_fits_when_overhead_times_ops_overflows(self):
        # 200 * 1e308 overflows, but the energy, about 5.74e289 J, is a float
        c = landauer_constant(300.0)
        report = modeled_energy(ExecutionTrace(10**308, 1.0), 200.0, 300.0)
        assert report.energy == 200.0 * (10**308 * c)
        assert report.energy == pytest.approx(5.741957770157448e289, rel=1e-15)
        assert report.power == report.energy
        assert report.overhead_factor_used == 200.0
        assert report.warnings == ()
        row = account_run(SubstrateRun(default_substrates()[0], ExecutionTrace(10**308, 1.0),
                                       shipped_suite()))
        assert (row.energy, row.power) == (report.energy, report.energy)
        assert row.phi == report.energy / 2.0

    def test_finite_product_keeps_its_left_to_right_order(self):
        # the shipped gpu: (F * N) * c and F * (N * c) differ in the last bit
        c = landauer_constant(300.0)
        report = modeled_energy(ExecutionTrace(10**6, 1.0), 20.0, 300.0)
        assert report.energy == 20.0 * 10**6 * c == 5.741957770157448e-14
        assert 20.0 * (10**6 * c) == 5.741957770157447e-14


class TestWpi:
    def test_simple_division(self):
        assert wpi(10.0, 5.0) == 2.0

    def test_idle_system(self):
        assert wpi(0.0, 1.0) == 0.0

    def test_chained_from_energy_model(self):
        trace = ExecutionTrace(1000, 1.0)
        power = modeled_energy(trace, 1.0, 300.0).power
        assert wpi(power, 1.0) == pytest.approx(
            1000 * landauer_constant(300.0), rel=1e-15
        )

    def test_zero_intelligence_is_explicit_error(self):
        with pytest.raises(UndefinedMetricError, match="zero intelligence"):
            wpi(1.0, 0.0)

    def test_accepts_plain_float(self):
        assert wpi(6.0, 3.0) == 2.0


class TestPhiLowerBound:
    def test_reversible_unit_case_equals_landauer(self):
        assert phi_lower_bound(300.0, 1.0, 1.0, 1.0) == landauer_constant(300.0)

    def test_proportional_in_overhead_and_inverse_in_duration(self):
        base = phi_lower_bound(300.0, 2.0, 1.5, 4.0)
        assert phi_lower_bound(300.0, 4.0, 1.5, 4.0) == 2.0 * base
        assert phi_lower_bound(300.0, 2.0, 1.5, 8.0) == base / 2.0

    def test_rejects_bad_yield_and_duration(self):
        with pytest.raises(ValidationError):
            phi_lower_bound(300.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            phi_lower_bound(300.0, 1.0, 1.0, -1.0)
        with pytest.raises(ValidationError, match="yield"):
            phi_lower_bound(300.0, 1.0, math.inf, 1.0)
        with pytest.raises(ValidationError, match="duration"):
            phi_lower_bound(300.0, 1.0, 1.0, math.inf)
        with pytest.raises(ValidationError, match="overhead"):
            phi_lower_bound(300.0, math.inf, 1.0, 1.0)
        with pytest.raises(ValidationError, match="temperature"):
            phi_lower_bound(math.inf, 1.0, 1.0, 1.0)

    def test_equality_when_intelligence_saturates(self):
        # wpi / bound == 1 when I == alpha * N and E == F * N * c
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = rng.uniform(1.0, 500.0)
            f = rng.uniform(1.0, 300.0)
            alpha = rng.uniform(0.01, 10.0)
            tau = rng.uniform(1e-3, 1e3)
            n = int(rng.integers(1, 10**9))
            energy = f * n * landauer_constant(t)
            phi = wpi(energy / tau, alpha * n)
            bound = phi_lower_bound(t, f, alpha, tau)
            assert phi / bound == pytest.approx(1.0, rel=1e-12)


class TestWpiReport:
    def test_bound_chain_ordering(self):
        row = account_run(SubstrateRun(
            Substrate("s", 300.0, 50.0, 1.0, 1.0), ExecutionTrace(10**6, 1.0),
            TaskSuite([("t", 2.0, 1.0)]),
        ))
        assert row.phi >= row.lower_bound >= row.reversible_floor
        assert row.slack >= 1.0

    def test_intelligence_above_the_yield_cap_is_flagged(self):
        # the shipped cpu and suite with one irreversible op: I = 2 > alpha * N = 1,
        # so phi falls below a bound that assumes I <= alpha * N
        row = account_run(SubstrateRun(default_substrates()[0], ExecutionTrace(1, 1.0),
                                       shipped_suite()))
        assert row.intelligence == 2.0
        assert row.phi == 2.870978885078724e-19
        assert row.lower_bound == 5.741957770157448e-19
        assert row.slack == 0.5
        [warning] = row.warnings
        assert "exceeds algorithmic_yield * irreversible_ops" in warning

    def test_modeled_zero_op_trace_is_flagged(self):
        row = account_run(SubstrateRun(default_substrates()[0], ExecutionTrace(0, 1.0),
                                       shipped_suite()))
        assert (row.energy, row.phi, row.slack) == (0.0, 0.0, 0.0)
        [warning] = row.warnings
        assert "exceeds algorithmic_yield * irreversible_ops" in warning

    def test_intelligence_at_the_yield_cap_is_not_flagged(self):
        row = account_run(SubstrateRun(default_substrates()[0], ExecutionTrace(2, 1.0),
                                       shipped_suite()))
        assert row.slack == 1.0
        assert row.warnings == ()

    def test_overflowing_effective_ops_is_flagged(self):
        # the shipped config at N = 10**308: F * N passes the float maximum on
        # every substrate, so effective_ops reads inf, while the energy and phi fit
        data = json.loads(default_config_path().read_text())
        for trace in data["traces"]:
            trace["irreversible_ops"] = 10**308
        config = config_from_dict(data)
        [comparison] = compare_section(config)
        assert {row["name"]: row["effective_ops"] for row in comparison["rows"]} == {
            "cpu": math.inf, "gpu": math.inf, "neuromorphic": math.inf}
        reports = score_section(config)["wpi_reports"]
        assert [r["substrate"] for r in reports] == ["cpu", "gpu", "neuromorphic"]
        for report in reports:
            assert math.isfinite(report["energy_j"]) and math.isfinite(report["phi"])
            [warning] = report["warnings"]
            assert warning.startswith("effective_ops overflows to inf: overhead factor ")

    def test_phi_strictly_decreasing_in_intelligence(self):
        lo = wpi(5.0, 2.0)
        hi = wpi(5.0, 1.0)
        assert lo < hi

    @given(
        st.floats(1.0, 1e3), st.floats(0.01, 100.0), st.floats(1e-3, 1e3),
        st.floats(1.0, 1e3),
    )
    def test_bound_monotonicity(self, f, alpha, tau, t):
        base = phi_lower_bound(t, f, alpha, tau)
        assert phi_lower_bound(t, f * 2, alpha, tau) > base
        assert phi_lower_bound(t, f, alpha * 2, tau) < base
        assert phi_lower_bound(t, f, alpha, tau * 2) < base


class TestExecutionTrace:
    def test_rejects_non_positive_duration(self):
        for duration in (0.0, math.inf):
            with pytest.raises(ValidationError, match="duration"):
                ExecutionTrace(1, duration)

    def test_rejects_negative_ops(self):
        with pytest.raises(ValidationError):
            ExecutionTrace(-1, 1.0)

    @pytest.mark.parametrize("ops", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ops_naming_the_field(self, ops):
        with pytest.raises(ValidationError, match="irreversible_ops"):
            ExecutionTrace(ops, 1.0)

    def test_rejects_ops_beyond_float_range(self):
        # the energy accounting multiplies the count by a float
        with pytest.raises(ValidationError, match="largest float"):
            ExecutionTrace(10**400, 1.0)
        assert ExecutionTrace(int(sys.float_info.max), 1.0).irreversible_ops > 0

    def test_rejects_negative_measured_energy(self):
        with pytest.raises(ValidationError):
            ExecutionTrace(1, 1.0, measured_energy=-1e-21)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_rejects_non_finite_measured_energy(self, energy):
        # an overflowing telemetry integral arrives here as inf
        with pytest.raises(ValidationError, match="measured_energy"):
            ExecutionTrace(1, 1.0, measured_energy=energy)

    def test_boltzmann_constant_is_exact_si(self):
        assert BOLTZMANN_CONSTANT == 1.380649e-23
