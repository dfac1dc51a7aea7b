"""Report bundles: deterministic JSON plus plot-ready TSV tables.

A bundle binds every number to its inputs through a sha256 hash of the
validated config document (:attr:`~wpi.config.ExperimentConfig.document`).
Output is byte-identical for identical (config, seed) runs except for the
``generated_at`` timestamp; file writes are atomic (write to a temp file,
then rename).  ``report.json`` is written by :func:`_json_text` in one walk
of the bundle, with the bytes of ``json.dumps(bundle, indent=2,
sort_keys=True)``; see docs/file_formats.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import coupled_bound_suite, ift_check, markov_tail_check, model_table
from .config import ExperimentConfig
from .errors import ValidationError
from .markov import MarkovModel, _PathTally, path_buffer, sample_trajectories
from .metrics import intelligence_score
from .substrate import ComparisonRow, SubstrateRun, account_run, run_comparison

#: Units attached to every report header.
UNITS = {
    "intelligence": "dimensionless",
    "phi": "W per intelligence unit",
    "energy": "J",
    "power": "W",
    "temperature": "K",
    "complexity": "bits",
}

#: Confidence parameters at which tail checks are always evaluated.
TAIL_DELTAS = (0.01, 0.05, 0.1)

#: Each model's one coupled suite is written once per bound, as
#: ``coupled_<kind>`` with its ``kind``: for the coupled agent the
#: efficiency and adaptivity bounds are the same inequality.
_COUPLED_KINDS = ("efficiency", "adaptivity")

#: Key of a ``wpi_reports`` entry -> the :class:`ComparisonRow` field it
#: holds.  The entry also names its trace's ``suite``, ``irreversible_ops``
#: and ``duration_s``.
_REPORT_FIELDS = {
    "substrate": "name",
    "energy_j": "energy",
    "power_w": "power",
    "landauer_floor_j": "landauer_floor",
    "overhead_factor": "overhead",
    "overhead_source": "overhead_source",
    "intelligence": "intelligence",
    "phi": "phi",
    "phi_lower_bound": "lower_bound",
    "slack": "slack",
    "reversible_floor": "reversible_floor",
    "warnings": "warnings",
}

#: Key of a ``comparison`` row -> the :class:`ComparisonRow` field it holds;
#: ``compare.tsv`` has these columns, after ``suite``.
_COMPARISON_FIELDS = {
    "name": "name",
    "overhead": "overhead",
    "overhead_source": "overhead_source",
    "effective_ops": "effective_ops",
    "energy_j": "energy",
    "power_w": "power",
    "intelligence": "intelligence",
    "phi": "phi",
    "phi_lower_bound": "lower_bound",
    "slack": "slack",
}


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.document, sort_keys=True,
                           separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_metadata(config: ExperimentConfig) -> dict:
    return {
        "tool": "wpi",
        "version": __version__,
        "config_sha256": config_hash(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        # the sampled streams and the float output depend on both
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": dict(UNITS),
    }


def build_bundle(config: ExperimentConfig, command: str, steps: int) -> dict:
    """The bundle ``wpi <command>`` writes: its metadata and the sections ``command`` fills.

    ``score`` fills ``scores`` and ``wpi_reports``, ``compare`` ``comparison``,
    ``simulate`` ``simulations``, ``check-bounds`` ``bound_checks`` and
    ``gates``, and ``report`` all six; the others are None.  Model ``index``
    draws ``config.sim.samples`` paths of ``steps`` each with seed
    ``config.sim.seed + index``, and no array of them is made: its one
    :func:`~wpi.markov.sample_trajectories` call draws them a block at a time
    in the run's one :func:`~wpi.markov.path_buffer` workspace, and a
    :class:`~wpi.markov._PathTally` counts and hashes each block before the
    next overwrites it.  The gates are the verdicts of :func:`_verdicts`
    that are not vacuous.
    """
    bundle = {"metadata": build_metadata(config), "scores": None, "wpi_reports": None,
              "comparison": None, "simulations": None, "bound_checks": None, "gates": None}
    if command in ("score", "report"):
        bundle.update(score_section(config))
    if command in ("compare", "report"):
        bundle["comparison"] = compare_section(config)
        if command == "compare" and not bundle["comparison"]:
            raise ValidationError("comparison requires at least 2 traces sharing one suite")
    if command not in ("simulate", "check-bounds", "report"):
        return bundle
    if not config.models:
        raise ValidationError("config has no models to sample")
    simulate, check = command != "check-bounds", command != "simulate"
    simulations, checks = [], []
    workspace = path_buffer(steps, config.sim.samples)
    for index, model in enumerate(config.models):
        seed = config.sim.seed + index
        tally = _PathTally(model.n_states, digest=simulate)
        sample_trajectories(model, steps, config.sim.samples, seed, out=workspace, each=tally.add)
        if index == len(config.models) - 1:
            # held through the last checks, it pinned the top of glibc's heap:
            # one 1024-state model's checks peaked 8 MB higher
            del workspace
        if simulate:
            simulations.append(simulate_section(model, seed, tally))
        if check:
            # the bound checks read each path's first step; a Philox stream's
            # first two draws do not depend on how many follow
            checks.append(bounds_section(config, model, seed, tally.first_counts))
    if simulate:
        bundle["simulations"] = simulations
    if check:
        bundle["bound_checks"] = checks
        bundle["gates"] = [
            {"gate": row["gate"], "model": row["model"],
             "passed": row["status"] == "pass", "detail": row["detail"]}
            for section in checks for row in _verdicts(section) if row["status"] != "vacuous"
        ]
    return bundle


def score_section(config: ExperimentConfig) -> dict:
    """Intelligence per suite plus phi accounting per trace (:func:`account_run`)."""
    suites = [
        {
            "suite": suite_id,
            "intelligence": intelligence_score(suite),
            "total_weight": suite.total_weight(),
        }
        for suite_id, suite in config.suites.items()
    ]
    reports = [
        {"suite": suite_id, "irreversible_ops": run.trace.irreversible_ops,
         "duration_s": run.trace.duration, **_fields(account_run(run), _REPORT_FIELDS)}
        for (_, suite_id), run in config.runs.items()
    ]
    return {"scores": suites, "wpi_reports": reports}


def compare_section(config: ExperimentConfig) -> list[dict]:
    """Fixed-algorithm comparisons, one per suite with at least two traces, if any."""
    by_suite: dict[str, list[SubstrateRun]] = {}
    for (_, suite_id), run in config.runs.items():
        by_suite.setdefault(suite_id, []).append(run)
    comparisons = []
    for suite_id, runs in by_suite.items():
        if len(runs) >= 2:
            rows = run_comparison(runs)
            comparisons.append({
                "suite": suite_id,
                "ordering": [r.name for r in rows],
                "rows": [_fields(r, _COMPARISON_FIELDS) for r in rows],
            })
    return comparisons


def _fields(row: ComparisonRow, table: dict[str, str]) -> dict:
    """The entry ``table`` lays out: each key with its field of ``row``."""
    return {key: getattr(row, name) for key, name in table.items()}


def simulate_section(model: MarkovModel, seed: int, tally: _PathTally) -> dict:
    """Summarize one model's sampled paths, as ``tally`` holds them, deterministically."""
    return {
        "model": model.name,
        "seed": seed,
        "count": tally.rows,
        "steps": len(tally.first_path) - 1,
        "states": [s.bits for s in model.states],
        "transition_counts": tally.counts.tolist(),
        "trajectory_digest": tally.digest,
        "first_trajectory": tally.first_path,
    }


def bounds_section(
    config: ExperimentConfig, model: MarkovModel, seed: int, counts: np.ndarray
) -> dict:
    """Bound checks of one model on the first-step ``counts`` of its paths.

    ``seed`` is the model's sampling seed.  Every check runs at ``config.sim.delta`` on one
    :func:`~wpi.bounds.model_table` under ``config.sim.estimator``.
    """
    delta, table = config.sim.delta, model_table(model, config.sim.estimator)
    ift = ift_check(table, counts)
    surprisal = {"mean": ift.surprisal_mean, "se": ift.surprisal_se, "expected": 1.0}
    if ift.surprisal_note is not None:
        surprisal["note"] = ift.surprisal_note

    excursion = ift.complexity_mean > 1.0 + 3.0 * ift.complexity_se

    deltas = sorted(set(TAIL_DELTAS) | {delta})
    tails = [markov_tail_check(table, counts, d) for d in deltas]

    suite = coupled_bound_suite(table, counts, delta)
    coupled = {**vars(suite), "rate_se": suite.rate_standard_error,
               "checks": [dict(vars(check)) for check in suite.checks]}

    return {
        "model": model.name,
        "seed": seed,
        "samples": ift.samples,
        "estimator": ift.estimator,
        "complexity_ift": {
            "mean": ift.complexity_mean,
            "se": ift.complexity_se,
            "excursion_above_one": bool(excursion),
        },
        "surprisal_ift": surprisal,
        "markov_tail": [dict(vars(tail)) for tail in tails],
        **{f"coupled_{kind}": {**coupled, "kind": kind} for kind in _COUPLED_KINDS},
    }


def write_bundle(
    out_dir: str | Path,
    bundle: dict,
    fmt: str | None = None,
) -> list[Path]:
    """Write report.json and TSV tables; returns the files written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in (None, "json"):
        written.append(_atomic_write(
            out_dir / "report.json",
            _json_text(bundle) + "\n",
        ))
    if fmt in (None, "tsv"):
        if bundle.get("comparison"):
            written.append(_atomic_write(out_dir / "compare.tsv", _compare_tsv(bundle)))
        if bundle.get("bound_checks"):
            written.append(_atomic_write(out_dir / "bounds.tsv", _bounds_tsv(bundle)))
    return written


def _compare_tsv(bundle: dict) -> str:
    lines = [
        f"# phi units: {UNITS['phi']}; energy units: {UNITS['energy']}",
        "# rows ordered by descending phi (least efficient first)",
        "\t".join(("suite", *_COMPARISON_FIELDS)),
    ]
    for comparison in bundle["comparison"]:
        for row in reversed(comparison["rows"]):
            cells = (comparison["suite"], *(row[key] for key in _COMPARISON_FIELDS))
            lines.append("\t".join(map(_cell, cells)))
    return "\n".join(lines) + "\n"


def _bounds_tsv(bundle: dict) -> str:
    columns = ("gate", "model", "status", "value", "threshold", "detail")
    lines = [
        "# one row per gate of report.json, in its order, plus a 'vacuous' row"
        " for each check that could not be evaluated and so has no gate",
        "# value and threshold are the two numbers the gate compares; detail"
        " states the comparison",
        "\t".join(columns),
    ]
    for section in bundle["bound_checks"]:
        for row in _verdicts(section):
            lines.append("\t".join(_cell(row[column]) for column in columns))
    return "\n".join(lines) + "\n"


def _verdicts(section: dict) -> list[dict]:
    """The verdict of every gated check of one ``bound_checks`` section.

    Rows follow the gate order of ``report.json``.  ``status`` is ``pass``,
    ``fail`` or ``vacuous``; a vacuous check (a surprisal control without a
    stationary law, a coupled suite without valid samples) could not be
    evaluated and has no ``value`` or ``threshold``.
    """
    rows = []

    def verdict(gate, passed, value, threshold, detail):
        status = "vacuous" if passed is None else "pass" if passed else "fail"
        rows.append({"gate": gate, "model": section["model"], "status": status,
                     "value": value, "threshold": threshold, "detail": detail})

    surprisal = section["surprisal_ift"]
    mean, se = surprisal["mean"], surprisal["se"]
    if mean is None:
        verdict("surprisal_ift_window", None, None, None, surprisal["note"])
        verdict("surprisal_ift_identity", None, None, None, surprisal["note"])
    else:
        verdict("surprisal_ift_window", 0.95 <= mean <= 1.05, mean, "[0.95, 1.05]",
                f"mean={mean!r} must lie in [0.95, 1.05]")
        distance, limit = abs(mean - 1.0), 3.0 * se
        # an infinite SE bounds nothing, and inf <= inf would pass
        verdict("surprisal_ift_identity", math.isfinite(se) and distance <= limit, distance, limit,
                f"|{mean!r} - 1| must be <= 3*se ({se!r})")
    for tail in section["markov_tail"]:
        lhs = tail["lhs"]
        limit = tail["rhs"] + 3.0 * math.sqrt(max(lhs * (1.0 - lhs), 0.0) / tail["samples"])
        verdict(f"markov_tail_delta_{tail['delta']}", lhs <= limit, lhs, limit,
                f"lhs={lhs!r} must be <= rhs={tail['rhs']!r} + 3*binomial SE")
    for kind in _COUPLED_KINDS:
        suite = section[f"coupled_{kind}"]
        gate = f"coupled_{kind}_holds_rate"
        if suite["valid_samples"] == 0:
            verdict(gate, None, None, None, "no sampled transition raised the complexity")
            continue
        rate = suite["holds_rate"]
        limit = 1.0 - suite["delta"] - 3.0 * suite["rate_se"]
        verdict(gate, rate >= limit, rate, limit, f"holds rate {rate!r} must be >= {limit!r}")
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_text(value) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it, in one walk.

    A non-finite float is written as the string ``"inf"``, ``"-inf"`` or
    ``"nan"``.  Scalars are written as :mod:`json` writes them; a list of
    plain ints (no bools) is joined in one call.  Keys must be str.
    """
    chunks: list[str] = []
    _write_json(value, "\n", chunks.append)
    return "".join(chunks)


def _write_json(value, pad: str, write) -> None:
    """Write ``value``, whose line starts with ``pad``, through ``write``."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        write(text if math.isfinite(value) else f'"{text}"')  # 'inf', '-inf', 'nan'
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        if not value:
            write("[]")
        elif all(type(v) is int for v in value):
            write(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{pad}]")
        else:
            write("[")
            for i, item in enumerate(value):
                write("," + inner if i else inner)
                _write_json(item, inner, write)
            write(pad + "]")
    elif isinstance(value, dict):
        inner = pad + "  "
        if not value:
            write("{}")
        else:
            write("{")
            for i, (key, item) in enumerate(sorted(value.items())):
                write(f"{',' if i else ''}{inner}{encode_basestring_ascii(key)}: ")
                _write_json(item, inner, write)
            write(pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _atomic_write(path: Path, text: str) -> Path:
    """Write ``text`` to a temp file and rename it over ``path``.

    The file gets the mode ``open(path, "w")`` would give it: the temp file
    is created 0666 with a fresh random name, and the kernel takes the
    process umask off that mode.
    """
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path
