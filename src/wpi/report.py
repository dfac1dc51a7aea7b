"""Report bundles: deterministic JSON plus plot-ready TSV tables.

A bundle binds every number to its inputs through a sha256 hash of the
validated config document (:attr:`~wpi.config.ExperimentConfig.document`).
Output is byte-identical for identical (config, seed) runs except for the
``generated_at`` timestamp; file writes are atomic (write to a temp file,
then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundCheckResult, coupled_bound_suite, ift_check, markov_tail_check, model_table
from .config import ExperimentConfig
from .errors import ValidationError
from .markov import _CHUNK, MarkovModel, sample_trajectories, transition_counts
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


def bound_check_dict(result: BoundCheckResult) -> dict:
    """The fields of ``result``, the estimator by its tag."""
    return {**vars(result), "estimator": result.estimator.value}


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
        for suite_id, run in _runs(config)
    ]
    return {"suites": suites, "wpi_reports": reports}


def compare_section(config: ExperimentConfig) -> list[dict]:
    """Fixed-algorithm comparisons, one per suite with at least two traces, if any."""
    by_suite: dict[str, list[SubstrateRun]] = {}
    for suite_id, run in _runs(config):
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


def _runs(config: ExperimentConfig) -> list[tuple[str, SubstrateRun]]:
    """``(suite id, run)`` for each trace of ``config``, in config order."""
    return [
        (suite_id, SubstrateRun(config.substrate(substrate_name), trace, config.suites[suite_id]))
        for (substrate_name, suite_id), trace in config.traces.items()
    ]


def _fields(row: ComparisonRow, table: dict[str, str]) -> dict:
    """The entry ``table`` lays out: each key with its field of ``row``."""
    return {key: getattr(row, name) for key, name in table.items()}


def model_sections(
    config: ExperimentConfig, steps: int, simulate: bool, check: bool
) -> tuple[list[dict] | None, list[dict] | None, list[dict] | None]:
    """Sample, summarize and check each model in turn.

    Model ``index`` draws ``config.sim.samples`` paths of ``steps`` each
    with seed ``config.sim.seed + index``, and its paths are dropped before
    the next model is sampled.  Returns the ``simulations`` entries of
    :func:`simulate_section` if ``simulate``, and the ``bound_checks``
    entries and gates of :func:`bounds_section` if ``check``, in model
    order; each list not asked for is None.
    """
    if not config.models:
        raise ValidationError("config has no models to sample")
    simulations = [] if simulate else None
    checks, gates = ([], []) if check else (None, None)
    for index, model in enumerate(config.models):
        seed = config.sim.seed + index
        paths = sample_trajectories(model, steps, config.sim.samples, seed)
        # the bound checks read each path's first step; a Philox stream's
        # first two draws do not depend on how many follow
        first = transition_counts(model, paths[:, :2])
        if simulate:
            simulations.append(simulate_section(model, seed, paths, first))
        del paths  # before the next model is sampled
        if check:
            section, section_gates = bounds_section(config, model, seed, first)
            checks.append(section)
            gates += section_gates
    return simulations, checks, gates


def simulate_section(model: MarkovModel, seed: int, paths: np.ndarray,
                     first_counts: np.ndarray) -> dict:
    """Summarize one model's sampled paths deterministically.

    ``first_counts`` are the counts of each path's first step; the others
    are counted on top of them.
    """
    count, length = paths.shape
    counts = first_counts + transition_counts(model, paths[:, 1:])
    return {
        "model": model.name,
        "seed": seed,
        "count": count,
        "steps": length - 1,
        "states": [s.bits for s in model.states],
        "transition_counts": counts.tolist(),
        "trajectory_digest": _path_digest(paths, model.n_states),
        "first_trajectory": paths[0].tolist(),
    }


def _path_digest(paths: np.ndarray, n_states: int) -> str:
    """sha256 of the paths written as ``"a,b,...;"`` per row, rows in order.

    The rows are hashed ``_CHUNK`` at a time, so no temporary is as large
    as ``paths``.
    """
    # token s (or n_states + s) is state s followed by "," (or by ";", row end),
    # NUL-padded to the widest token; the text has no NUL, so dropping them
    # after the gather leaves the tokens joined
    width = len(str(n_states - 1)) + 1
    tokens = np.array([f"{s}{end}".encode() for end in ",;" for s in range(n_states)],
                      dtype=f"S{width}")
    digest = hashlib.sha256()
    for lo in range(0, len(paths), _CHUNK):
        codes = paths[lo:lo + _CHUNK].copy()
        codes[:, -1] += n_states
        digest.update(tokens[codes].tobytes().replace(b"\0", b""))
    return digest.hexdigest()


def bounds_section(
    config: ExperimentConfig, model: MarkovModel, seed: int, counts: np.ndarray
) -> tuple[dict, list[dict]]:
    """Bound checks of one model on the first-step ``counts`` of its paths, plus its gates.

    ``seed`` is the model's sampling seed.  Every check runs at ``config.sim.delta`` on one
    :func:`~wpi.bounds.model_table` under ``config.sim.estimator``.  The gates are the
    --assert verdicts of :func:`_verdicts` that are not vacuous.
    """
    delta, table = config.sim.delta, model_table(model, config.sim.estimator)
    ift = ift_check(table, counts)
    surprisal = {"mean": ift.surprisal_mean, "se": ift.surprisal_se, "expected": 1.0}
    if ift.surprisal_note is not None:
        surprisal["note"] = ift.surprisal_note

    excursion = ift.complexity_mean > 1.0 + 3.0 * ift.complexity_se

    deltas = sorted(set(TAIL_DELTAS) | {delta})
    tails = [markov_tail_check(table, counts, d) for d in deltas]

    coupled = _suite_dict(coupled_bound_suite(table, counts, delta))

    section = {
        "model": model.name,
        "seed": seed,
        "samples": ift.samples,
        "estimator": ift.estimator.value,
        "complexity_ift": {
            "mean": ift.complexity_mean,
            "se": ift.complexity_se,
            "excursion_above_one": bool(excursion),
        },
        "surprisal_ift": surprisal,
        "markov_tail": [bound_check_dict(t) for t in tails],
        **{f"coupled_{kind}": {**coupled, "kind": kind} for kind in _COUPLED_KINDS},
    }
    gates = [
        {"gate": row["gate"], "model": row["model"],
         "passed": row["status"] == "pass", "detail": row["detail"]}
        for row in _verdicts(section) if row["status"] != "vacuous"
    ]
    return section, gates


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
            json.dumps(_jsonable(bundle), indent=2, sort_keys=True) + "\n",
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
        verdict("surprisal_ift_identity", distance <= limit, distance, limit,
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


def _suite_dict(suite) -> dict:
    """The fields of a coupled suite plus ``rate_se``, each check by :func:`bound_check_dict`."""
    return {
        **vars(suite),
        "estimator": suite.estimator.value,
        "rate_se": suite.rate_standard_error,
        "checks": [bound_check_dict(c) for c in suite.checks],
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    """Make a structure JSON-safe; non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    return value


def _atomic_write(path: Path, text: str) -> Path:
    """Write ``text`` to a temp file and rename it over ``path``.

    The file gets the mode ``open(path, "w")`` would give it: the temp file
    is created 0600, so it is set to 0666 less the process umask.
    """
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.name}.", delete=False, encoding="utf-8"
    )
    try:
        with handle:
            handle.write(text)
        umask = os.umask(0)  # os.umask is the only way to read the umask
        os.umask(umask)
        os.chmod(handle.name, 0o666 & ~umask)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise
    return path
