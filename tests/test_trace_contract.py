"""The benchmark's traced run finds every function it times in ``wpi``.

``bench/tracing.TABLE`` names the functions it wraps by module and
attribute; one that is renamed or deleted is reported as absent and its
metrics vanish from the run.  Here the tracer runs ``wpi report --assert``
on the shipped config and checks that nothing is absent and that each
span runs as often as the bundle's layout calls it.
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from wpi.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer_class():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracing").Tracer


def test_traced_report_finds_every_timed_function(tracer_class, tmp_path):
    tracer = tracer_class()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["report", "--assert", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.span_metrics()
    assert tracer.absent == []
    assert metrics["markov.sample_calls"] == 3  # one call per shipped model
    assert tracer.counters["markov.transitions_sampled"] == 300_000
    assert tracer.counters["bounds.pair_checks"] > 0
    for span in ("score", "compare", "write"):
        assert metrics[f"report.{span}_calls"] == 1
    for span in ("simulate", "bounds"):
        assert metrics[f"report.{span}_calls"] == 3
