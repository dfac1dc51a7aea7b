"""Random one-model configs through ``wpi report``, checked end to end by the bench oracles.

``bench/workloads.check_bundle`` recomputes a bundle's paths, counts,
digest, complexities, bound checks, gate verdicts and phi rows from the
config alone, with code that does not import ``wpi``.  Here it checks the
bundles of configs drawn at random: 2 to 14 states of 1 to 16 bits, and
sparse kernels with non-dyadic entries around a forced cycle, which are
aperiodic, periodic, or aperiodic with one-way edges only.  The oracle
computes K by enumeration, so every config runs under ``exact-enum``.
"""

import contextlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wpi.cli import default_config_path, main

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: A check_bundle line that compares a sample mean with its analytic value:
#: a statistical statement, so it is a note here, never a failure.
STATISTICAL = "SE from the analytic"


@pytest.fixture(scope="module")
def check_bundle():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads").check_bundle


def cycle_kernel(rng, n, kind):
    """A kernel on n states with positive entries ``i -> i + 1 (mod n)`` and random others.

    ``sparse`` adds random edges and a self-loop at state 0, so it is
    aperiodic; ``periodic`` adds only edges that keep the period ``d``, a
    divisor of n above 1 (``j = i + 1 (mod d)``); ``one-way`` adds a
    self-loop at every state and no edge whose reverse is positive.
    """
    if kind == "periodic":
        d = int(rng.choice([d for d in range(2, n + 1) if n % d == 0]))
        allowed = (np.arange(n)[None, :] - np.arange(n)[:, None] - 1) % d == 0
    elif kind == "one-way":
        allowed = np.eye(n, dtype=bool)
    else:
        allowed = np.ones((n, n), dtype=bool)
    kernel = rng.random((n, n)) * (rng.random((n, n)) < 0.3) * allowed
    cycle = (np.arange(n), (np.arange(n) + 1) % n)
    kernel[cycle] += 0.05 + rng.random(n)
    if kind == "sparse":
        kernel[0, 0] += 0.05 + rng.random()
    elif kind == "one-way":
        kernel[np.arange(n), np.arange(n)] += 0.05 + rng.random(n)
    kernel /= kernel.sum(axis=1, keepdims=True)
    return kernel


@st.composite
def one_model_configs(draw):
    """The shipped config's substrates, suite and traces, with one random model."""
    n = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["sparse", "periodic", "one-way"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = {}  # distinct, each of a length drawn from 1 to 16 bits
    while len(states) < n:
        bits = int(rng.integers(1, 17))
        states[format(int(rng.integers(2**bits)), f"0{bits}b")] = None
    initial = rng.random(n) * (rng.random(n) < 0.7)
    initial[rng.integers(n)] += 0.1
    config = json.loads(default_config_path().read_text())
    config.update(
        seed=draw(st.integers(0, 2**63 - 1)),
        samples=draw(st.integers(1, 3000)),
        delta=draw(st.sampled_from([0.01, 0.05, 0.2])),
        estimator="exact-enum",
        models=[{
            "name": f"{kind}-{n}",
            "states": list(states),
            "kernel": cycle_kernel(rng, n, kind).tolist(),
            "measure": [1.0] * n,
            "initial": (initial / initial.sum()).tolist(),
        }],
    )
    return config, kind, draw(st.integers(1, 5))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=one_model_configs())
def test_random_report_matches_the_bench_oracles(check_bundle, drawn):
    config, kind, steps = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--config", str(path), "--steps", str(steps), "--out", str(out)])
        assert code == 0
        bundle = json.loads((out / "report.json").read_text())
    problems, notes = [], []
    failed = check_bundle(bundle, config, steps, problems, notes)
    statistical = [p for p in problems if STATISTICAL in p]
    assert [p for p in problems if p not in statistical] == []
    # a periodic chain has no stationary law under wpi's rule, so its
    # surprisal control fails, and that is the only note check_bundle writes
    expected = [f"{kind}-{len(config['models'][0]['states'])}: check-bounds: surprisal control "
                f"failed: {bundle['bound_checks'][0]['surprisal_ift'].get('note')}"]
    assert (failed, notes) == ((1, expected) if kind == "periodic" else (0, []))
