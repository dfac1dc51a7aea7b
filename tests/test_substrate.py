"""Substrate overhead decomposition and fixed-algorithm comparison tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpi import (
    ExecutionTrace,
    Substrate,
    SubstrateRun,
    TaskSuite,
    ValidationError,
    default_substrates,
    run_comparison,
    total_overhead,
)


def make_substrate(name="s", mem=1.0, ctrl=1.0, temperature=300.0, algorithmic_yield=1.0, **kw):
    return Substrate(name, temperature, mem, ctrl, algorithmic_yield, **kw)


SUITE = TaskSuite([("t1", 1.0, 1.0), ("t2", 2.0, 0.5)])


def runs_for(factors, n=10**6, duration=1.0, suite=SUITE):
    return [
        SubstrateRun(make_substrate(name, mem=f, ctrl=1.0), ExecutionTrace(n, duration), suite)
        for name, f in factors
    ]


class TestTotalOverhead:
    def test_reversible_ideal(self):
        assert total_overhead(make_substrate(mem=1.0, ctrl=1.0)) == 1.0

    def test_default_cpu_decomposition(self):
        assert total_overhead(make_substrate(mem=40.0, ctrl=5.0)) == 200.0

    def test_commutative(self):
        assert total_overhead(make_substrate(mem=2.0, ctrl=3.0)) == \
            total_overhead(make_substrate(mem=3.0, ctrl=2.0)) == 6.0

    def test_extra_factors_multiply_in(self):
        sub = make_substrate(mem=2.0, ctrl=2.0, extra_overheads={"interconnect": 1.5})
        assert total_overhead(sub) == 6.0

    @pytest.mark.parametrize("kw", [
        {"mem": 0.5}, {"ctrl": 0.0}, {"temperature": 0.0},
        {"algorithmic_yield": 0.0}, {"extra_overheads": {"x": 0.9}},
        {"mem": math.inf}, {"ctrl": math.inf}, {"temperature": math.inf},
        {"algorithmic_yield": math.inf}, {"extra_overheads": {"x": math.inf}},
        {"mem": 1e200, "ctrl": 1e200}, {"mem": 1e300, "extra_overheads": {"x": 1e10}},
    ])
    def test_invalid_substrates_rejected(self, kw):
        with pytest.raises(ValidationError):
            make_substrate(**kw)


class TestRunComparison:
    def test_default_factor_ordering(self):
        rows = run_comparison(runs_for([("cpu", 200.0), ("gpu", 20.0), ("neuro", 4.0)]))
        assert [r.name for r in rows] == ["neuro", "gpu", "cpu"]
        phi = {r.name: r.phi for r in rows}
        assert phi["cpu"] > phi["gpu"] > phi["neuro"]

    def test_rows_consistent_with_ordering(self):
        rows = run_comparison(runs_for([("b", 8.0), ("a", 2.0)]))
        assert rows == sorted(rows, key=lambda r: (r.phi, r.name))
        assert [r.name for r in rows] == ["a", "b"]

    def test_tie_broken_by_name(self):
        rows = run_comparison(runs_for([("zeta", 4.0), ("alpha", 4.0)]))
        assert [r.name for r in rows] == ["alpha", "zeta"]
        assert rows[0].phi == rows[1].phi

    def test_doubling_overhead_doubles_phi(self):
        phi = {r.name: r.phi for r in run_comparison(runs_for([("x", 3.0), ("y", 6.0)]))}
        assert phi["y"] == pytest.approx(2.0 * phi["x"], rel=1e-12)

    def test_mismatched_suite_rejected(self):
        other = TaskSuite([("t1", 1.0, 1.0)])
        runs = runs_for([("a", 2.0), ("b", 4.0)])
        runs[1] = SubstrateRun(runs[1].substrate, runs[1].trace, other)
        with pytest.raises(ValidationError, match="fixed algorithm"):
            run_comparison(runs)

    def test_mismatched_ops_rejected(self):
        # the error names each run's substrate and operation count
        runs = runs_for([("a", 2.0), ("b", 4.0)])
        runs[1] = SubstrateRun(runs[1].substrate, ExecutionTrace(999, 1.0), runs[1].suite)
        with pytest.raises(ValidationError, match=r"fixed algorithm.*a: 1000000\b.*b: 999\b"):
            run_comparison(runs)

    def test_needs_two_runs(self):
        with pytest.raises(ValidationError, match="at least 2"):
            run_comparison(runs_for([("only", 2.0)]))

    @given(st.lists(st.floats(1.0, 1e4), min_size=2, max_size=6, unique=True))
    def test_phi_order_equals_overhead_order(self, factors):
        named = [(f"s{i}", f) for i, f in enumerate(factors)]
        rows = run_comparison(runs_for(named))
        by_factor = [name for name, _ in sorted(named, key=lambda nf: nf[1])]
        assert [r.name for r in rows] == by_factor

    def test_weight_rescaling_preserves_ordering(self):
        factors = [("a", 7.0), ("b", 3.0), ("c", 11.0)]
        base = run_comparison(runs_for(factors))
        scaled_suite = TaskSuite([(t.id, t.weight * 37.5, t.performance) for t in SUITE.tasks])
        scaled = run_comparison(runs_for(factors, suite=scaled_suite))
        assert [r.name for r in scaled] == [r.name for r in base]
        for r_base, r_scaled in zip(base, scaled):
            assert r_scaled.phi == pytest.approx(r_base.phi / 37.5, rel=1e-12)

    def test_effective_ops_bit_exact_for_binary_fraction_overhead(self):
        run = SubstrateRun(
            make_substrate("s", mem=2.5, ctrl=1.0), ExecutionTrace(10**6, 1.0), SUITE
        )
        rows = {r.name: r for r in run_comparison([run, SubstrateRun(
            make_substrate("t", mem=4.0, ctrl=1.0), ExecutionTrace(10**6, 1.0), SUITE
        )])}
        assert rows["s"].effective_ops == 2500000.0
        assert rows["t"].effective_ops == 4000000.0


class TestDefaultCatalog:
    def test_shipped_factors(self):
        factors = {s.name: total_overhead(s) for s in default_substrates()}
        assert factors == {"cpu": 200.0, "gpu": 20.0, "neuromorphic": 4.0}

    def test_marked_as_defaults(self):
        assert all(s.overhead_source == "default" for s in default_substrates())


class TestMeasuredEnergyComparison:
    def test_back_solved_overhead_flows_into_rows(self):
        measured = ExecutionTrace(10**6, 1.0, measured_energy=1e-10)
        runs = [
            SubstrateRun(make_substrate("modeled", mem=8.0), ExecutionTrace(10**6, 1.0), SUITE),
            SubstrateRun(make_substrate("measured", mem=8.0), measured, SUITE),
        ]
        ranked = run_comparison(runs)
        rows = {r.name: r for r in ranked}
        assert rows["measured"].overhead_source == "back-solved"
        assert rows["measured"].energy == 1e-10
        assert rows["modeled"].overhead_source == "user"
        # back-solved overhead is huge here, so the measured run ranks last
        assert [r.name for r in ranked] == ["modeled", "measured"]

    def test_extra_overheads_accept_pair_sequences(self):
        sub = Substrate("s", 300.0, 2.0, 2.0, 1.0, extra_overheads=[("io", 1.5)])
        assert total_overhead(sub) == 6.0
