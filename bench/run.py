"""Benchmark for `wpi`: one workload per run, in one fresh process.

    python3 bench/run.py --workload report-default --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; `wpi` is imported from its `src/`.  The
run repeats whole rounds of the workload until ``--seconds`` have passed
(at least two rounds), checks every output against the oracles in
`oracles.py`, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_ref_s``, ``peak_rss_mb``).  With ``--trace 1`` untraced and traced
rounds alternate, and the metrics are the per-layer figures of the traced
rounds (medians over rounds), the workload's figures from the untraced
rounds and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # so that every run compares at least two bundles



#: Per-layer metrics and their units.  Each is read from the traced
#: round's span metrics (``<span>_s``, ``<span>_calls``), its counters, or
#: the workload's figures; ALIASES maps names that differ.
PER_LAYER = {
    "markov.sample_s": "s",
    "markov.sample_calls": "count",
    "markov.transitions_sampled": "count",
    "markov.counts_s": "s",
    "markov.useful_transition_ratio": "ratio",
    "markov.stationary_s": "s",
    "markov.stationary_calls": "count",
    "complexity.exact_s": "s",
    "complexity.exact_calls": "count",
    "complexity.conditional_s": "s",
    "complexity.conditional_calls": "count",
    "complexity.lz_s": "s",
    "complexity.lz_bits": "bit",
    "machine.searches": "count",
    "machine.search_s": "s",
    "machine.programs_run": "count",
    "machine.cache_hit_ratio": "ratio",
    "bounds.ift_s": "s",
    "bounds.tail_s": "s",
    "bounds.coupled_s": "s",
    "bounds.pair_checks": "count",
    "report.simulate_s": "s",
    "report.bounds_s": "s",
    "report.score_s": "s",
    "report.compare_s": "s",
    "report.write_s": "s",
    "report.bundle_bytes": "byte",
    "config.ingest_s": "s",
    "transitions_per_s": "1/s",
    "exact_estimates_per_s": "1/s",
    "lz_bits_per_s": "bit/s",
    "wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
ALIASES = {"machine.searches": "machine.search_calls"}


def import_wpi():
    """Import `wpi` from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import wpi  # noqa: F401

    where = Path(wpi.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"wpi was imported from {where}, not from {ROOT / 'src'}")
    import wpi.cli  # noqa: F401  (the CLI's modules load at start-up, as for a user)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import wpi and make the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


#: Time of the `slowdown` loop on the reference machine (2-vCPU Xeon VM at
#: 2.1 GHz, Python 3.11.7) when that machine runs at full speed.
REFERENCE_LOOP_S = 0.020


def slowdown() -> float:
    """How much slower than the reference the machine runs right now.

    The machine this benchmark was built on slows down by up to half for
    a minute or more at a time, for reasons outside the process.  Round
    times divided by the slowdown around them remove much of that.  The
    figure is the median of 5 timings of a fixed pure-Python loop, over
    REFERENCE_LOOP_S.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_LOOP_S


def cache_hits() -> tuple[int, int]:
    info = getattr(sys.modules.get("wpi.machine"), "cached_shortest_length", None)
    if info is None or not hasattr(info, "cache_info"):
        return 0, 0
    ci = info.cache_info()
    return ci.hits, ci.misses


def traced_round(workload, tracer) -> tuple[dict, dict[str, float]]:
    tracer.reset()
    tracer.install()
    try:
        record = workload.round()
        hits, misses = cache_hits()
    finally:
        tracer.uninstall()
    layer = tracer.span_metrics()
    layer.update(tracer.counters)
    layer["markov.useful_transition_ratio"] = tracer.useful_transition_ratio()
    layer["machine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return record, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import wpi, make the inputs and exit (timed for setup_s)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        import_wpi()
    except ImportError as exc:
        print(f"bench: cannot import wpi from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](ROOT, args.seed)
        return 0

    setup_s = measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](ROOT, args.seed)

    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict[str, float]] = []
    t0 = time.perf_counter()
    speed = [slowdown()]
    while True:
        if tracer is not None and len(traced) < len(plain):
            record, layer = traced_round(workload, tracer)
            traced.append(record)
            layers.append(layer)
        else:
            record = workload.round()
            plain.append(record)
        speed.append(slowdown())
        record["scale"] = 2.0 / (speed[-2] + speed[-1])
        done = len(plain) + len(traced)
        if done >= MIN_ROUNDS and time.perf_counter() - t0 >= args.seconds \
                and (tracer is None or len(traced) == len(plain)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    failed, problems, notes = workload.check(rounds)
    attempted = workload.ops_per_round * len(rounds)
    wall_ref_s = statistics.median([r["wall"] * r["scale"] for r in plain])
    figures = workload.figures(plain)
    figures["wall_s"] = (statistics.median([r["wall"] for r in plain]), "s")
    figures["slowdown"] = (statistics.median(speed), "ratio")

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "wall_ref_s": (wall_ref_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        metrics.update(figures)
        shown = ("setup_s", "wall_ref_s", "peak_rss_mb")
    else:
        tracer.write(ROOT / ".bench_out" / args.workload / f"spans-{args.seed}.json", t0)
        metrics = {}
        for name, unit in PER_LAYER.items():
            key = ALIASES.get(name, name)
            metrics[name] = (statistics.median([layer.get(key, 0.0) for layer in layers]), unit)
        for name, (value, unit) in figures.items():
            if name in PER_LAYER:
                metrics[name] = (value, unit)
        overhead = statistics.median([r["wall"] * r["scale"] for r in traced]) / wall_ref_s - 1.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        shown = tuple(PER_LAYER)
        for name in tracer.absent:
            notes.append(f"absent from the program, not traced: {name}")

    print(f"# {args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} traced")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    for line in notes + problems:
        print(f"# {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in shown},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
