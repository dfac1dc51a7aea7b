"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Stated runtime budgets are asserted around the core computation.
"""

import functools
import json
import math
import re
import time

import numpy as np
import pytest

from wpi import (
    CoarseState,
    Estimator,
    ExecutionTrace,
    StateMeasure,
    Substrate,
    SubstrateRun,
    TaskSuite,
    adaptivity_bound_check,
    coupled_bound_suite,
    default_substrates,
    efficiency_bound_check,
    entropy_decomposition,
    four_state_chain,
    ift_check,
    intelligence_score,
    landauer_constant,
    markov_tail_check,
    model_table,
    run_comparison,
    sample_trajectories,
    shipped_chains,
    stationary_distribution,
    total_overhead,
    transition_counts,
    wpi,
    phi_lower_bound,
)
from wpi.cli import main as cli_main
from wpi.machine import DEFAULT_MACHINE


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number} PASS - {description}")
        return wrapper
    return decorate


@criterion(1, "thermodynamic lower bound holds on 10^4 seeded instances")
def test_criterion_1_thermodynamic_lower_bound():
    rng = np.random.default_rng(2027)
    start = time.perf_counter()
    for _ in range(10_000):
        t = rng.uniform(1.0, 1000.0)
        f = rng.uniform(1.0, 1e4)
        alpha = rng.uniform(0.01, 100.0)
        tau = rng.uniform(1e-3, 1e3)
        n = int(rng.integers(1, 10**12))
        saturation = rng.uniform(0.05, 1.0)
        intelligence = alpha * n * saturation  # I <= alpha * N
        energy = f * n * landauer_constant(t)
        phi = wpi(energy / tau, intelligence)
        bound = phi_lower_bound(t, f, alpha, tau)
        assert phi >= bound * (1.0 - 1e-12)

    # equality case: intelligence saturates the yield exactly
    for _ in range(2_000):
        t = rng.uniform(1.0, 1000.0)
        f = rng.uniform(1.0, 1e4)
        alpha = rng.uniform(0.01, 100.0)
        tau = rng.uniform(1e-3, 1e3)
        n = int(rng.integers(1, 10**12))
        energy = f * n * landauer_constant(t)
        phi = wpi(energy / tau, alpha * n)
        bound = phi_lower_bound(t, f, alpha, tau)
        assert abs(phi / bound - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s, budget 5s"


@criterion(2, "reversible-limit bound is bit-identical to c/(alpha*tau)")
def test_criterion_2_reversible_floor_bit_identity():
    rng = np.random.default_rng(2028)
    for _ in range(5_000):
        t = rng.uniform(0.1, 2000.0)
        alpha = rng.uniform(1e-3, 1e3)
        tau = rng.uniform(1e-6, 1e6)
        assert phi_lower_bound(t, 1.0, alpha, tau) == landauer_constant(t) / (alpha * tau)


@criterion(3, "phi ordering equals overhead ordering across substrates")
def test_criterion_3_substrate_ordering():
    start = time.perf_counter()
    suite = TaskSuite([("t1", 1.0, 1.0), ("t2", 2.0, 0.5)])

    def runs(factors):
        return [
            SubstrateRun(
                Substrate(name, 300.0, factor, 1.0, 1.0),
                ExecutionTrace(10**6, 1.0),
                suite,
            )
            for name, factor in factors
        ]

    # shipped default catalog: overhead factors 200 / 20 / 4 at equal
    # temperature, yield, duration, and operation count
    catalog = default_substrates()
    assert [total_overhead(s) for s in catalog] == [200.0, 20.0, 4.0]
    trace = ExecutionTrace(10**6, 1.0)
    rows = run_comparison([SubstrateRun(s, trace, suite) for s in catalog])
    phi = {r.name: r.phi for r in rows}
    assert phi["cpu"] > phi["gpu"] > phi["neuromorphic"]
    assert [r.name for r in rows] == ["neuromorphic", "gpu", "cpu"]

    rng = np.random.default_rng(2029)
    for _ in range(100):
        factors = [(f"s{i}", float(f)) for i, f in enumerate(rng.uniform(1.0, 1e4, 5))]
        rows = run_comparison(runs(factors))
        expected = [name for name, _ in sorted(factors, key=lambda nf: nf[1])]
        assert [r.name for r in rows] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s, budget 1s"


@criterion(4, "entropy decomposition identity exact over 10^3 state pairs")
def test_criterion_4_entropy_decomposition():
    rng = np.random.default_rng(2030)
    states = []
    for _ in range(220):
        length = int(rng.integers(0, 9))
        states.append(CoarseState("".join("01"[b] for b in rng.integers(0, 2, length))))
    states = list({s.bits: s for s in states}.values())
    weights = {s: float(w) for s, w in zip(states, rng.uniform(0.05, 8.0, len(states)))}
    pi = StateMeasure(weights)

    pairs = [
        (states[i], states[j])
        for i, j in rng.integers(0, len(states), size=(1_000, 2))
    ]
    for estimator in (Estimator.EXACT_ENUM, Estimator.LZ_PROXY):
        for x, y in pairs:
            delta = entropy_decomposition(x, y, pi, estimator)
            assert delta.total == delta.irreversible + delta.exchanged

    # isolated case: equal measure weight means zero exchanged entropy
    iso = StateMeasure.uniform(states, 0.125)
    for x, y in pairs[:100]:
        delta = entropy_decomposition(x, y, iso, Estimator.EXACT_ENUM)
        assert delta.exchanged == 0.0
        assert delta.total == delta.irreversible


@criterion(5, "surprisal fluctuation identity on all shipped chains")
def test_criterion_5_surprisal_ift():
    start = time.perf_counter()
    for model in shipped_chains():
        paths = sample_trajectories(model, 1, 100_000, seed=505)
        table = model_table(model, Estimator.EXACT_ENUM)
        result = ift_check(table, transition_counts(model, paths))
        assert 0.95 <= result.surprisal_mean <= 1.05, model.name

        # independent oracle: exact summation of the likelihood ratio over
        # all transition pairs, no logarithms involved
        pi = stationary_distribution(model.kernel)
        analytic = 0.0
        for i in range(model.n_states):
            for j in range(model.n_states):
                forward = model.kernel[i, j]
                if forward > 0.0:
                    ratio = (model.kernel[j, i] * pi[j]) / (forward * pi[i])
                    analytic += model.initial[i] * forward * ratio
        assert abs(result.surprisal_mean - analytic) <= 3.0 * result.surprisal_se + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.2f}s, budget 30s"


@criterion(6, "Markov tail inequality on all shipped chains at three deltas")
def test_criterion_6_markov_tail():
    for model in shipped_chains():
        paths = sample_trajectories(model, 1, 50_000, seed=606)
        counts, table = transition_counts(model, paths), model_table(model, Estimator.EXACT_ENUM)
        for delta in (0.01, 0.05, 0.1):
            result = markov_tail_check(table, counts, delta)
            allowance = 3.0 * math.sqrt(max(result.lhs * (1 - result.lhs), 0.0) / result.samples)
            assert result.lhs <= result.rhs + allowance, (model.name, delta)


@criterion(7, "coupled efficiency and adaptivity bounds hold at delta=0.05")
def test_criterion_7_coupled_bounds():
    start = time.perf_counter()
    delta = 0.05

    efficiency_model = four_state_chain()
    paths = sample_trajectories(efficiency_model, 1, 10_000, seed=707)
    table = model_table(efficiency_model, Estimator.EXACT_ENUM)
    efficiency = coupled_bound_suite(table, transition_counts(efficiency_model, paths), delta)
    assert efficiency.total_transitions == 10_000
    assert efficiency.valid_samples > 0
    threshold = 1.0 - delta - 3.0 * efficiency.rate_standard_error
    assert efficiency.holds_rate >= threshold
    # for the coupled agent the adaptivity bound is the same inequality,
    # checked by the same per-pair function, so this suite holds for both
    assert adaptivity_bound_check is efficiency_bound_check

    assert all(len(s.bits) <= 4 for s in efficiency_model.states)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.2f}s, budget 120s"


@criterion(8, "program-counting bound |{x : K(x) <= L}| <= 2^(L+1) - 1 for L <= 8")
def test_criterion_8_counting_bound():
    table = DEFAULT_MACHINE.complexity_table(8)
    for level in range(9):
        reachable = sum(1 for k in table.values() if k <= level)
        assert reachable <= 2 ** (level + 1) - 1


@criterion(9, "simulate and check-bounds bundles are byte-identical across runs")
def test_criterion_9_determinism(tmp_path):
    def bundle_bytes(out_dir):
        text = (out_dir / "report.json").read_text()
        return re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"', text).encode()

    for command in ("simulate", "check-bounds"):
        outputs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main([command, "--out", str(out), "--samples", "600"])
            assert code == 0
            outputs.append(bundle_bytes(out))
        assert outputs[0] == outputs[1] == outputs[2], command


@criterion(10, "synthetic sine telemetry integrates to 1e-3 relative accuracy")
def test_criterion_10_telemetry_integration(tmp_path):
    from wpi import ingest_telemetry, integrate_power

    omega = 2.0 * math.pi / 3.0
    times = np.linspace(0.0, 6.0, 1000)
    powers = 5.0 + 4.0 * np.sin(omega * times)
    csv = tmp_path / "sine.csv"
    csv.write_text(
        "t_s,power_w\n"
        + "\n".join(f"{float(t)!r},{float(p)!r}" for t, p in zip(times, powers))
        + "\n"
    )
    exact = 5.0 * 6.0 - (4.0 / omega) * (math.cos(omega * 6.0) - 1.0)
    rows = np.array(ingest_telemetry(csv))
    got = integrate_power(rows)
    assert abs(got - exact) / abs(exact) < 1e-3
