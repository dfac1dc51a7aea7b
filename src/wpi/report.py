"""Report bundles: deterministic JSON plus plot-ready TSV tables.

A bundle binds every number to its inputs through a sha256 hash of the
canonical config serialization.  Output is byte-identical for identical
(config, seed) runs except for the ``generated_at`` timestamp; file writes
are atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import (
    BoundCheckResult,
    coupled_bound_suite,
    delta_ik_samples,
    ift_check,
    markov_tail_check,
)
from .config import ExperimentConfig, serialize_config
from .errors import NonErgodicChainError, ValidationError
from .markov import sample_trajectories, transition_counts
from .metrics import intelligence_score
from .substrate import SubstrateRun, account_run, run_comparison

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


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(serialize_config(config), sort_keys=True,
                           separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_metadata(config: ExperimentConfig) -> dict:
    return {
        "tool": "wpi",
        "version": __version__,
        "config_sha256": config_hash(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "units": dict(UNITS),
    }


def bound_check_dict(result: BoundCheckResult) -> dict:
    return {
        "lhs": result.lhs,
        "rhs": result.rhs,
        "holds": result.holds,
        "slack": result.slack,
        "delta": result.delta,
        "samples": result.samples,
        "estimator": result.estimator.value if result.estimator else None,
        "empirical_ift": result.empirical_ift,
    }


def score_section(config: ExperimentConfig) -> dict:
    """Intelligence per suite plus phi accounting per trace (:func:`account_run`)."""
    suites = [
        {
            "suite": suite_id,
            "intelligence": intelligence_score(suite).value,
            "total_weight": suite.total_weight(),
        }
        for suite_id, suite in config.suites.items()
    ]
    reports = []
    for (substrate_name, suite_id), trace in config.traces.items():
        row = account_run(
            SubstrateRun(config.substrate(substrate_name), trace, config.suites[suite_id])
        )
        reports.append({
            "substrate": substrate_name,
            "suite": suite_id,
            "irreversible_ops": trace.irreversible_ops,
            "duration_s": trace.duration,
            "energy_j": row.energy,
            "power_w": row.power,
            "landauer_floor_j": row.landauer_floor,
            "overhead_factor": row.overhead,
            "overhead_source": row.overhead_source,
            "intelligence": row.intelligence,
            "phi": row.phi,
            "phi_lower_bound": row.lower_bound,
            "slack": row.slack,
            "reversible_floor": row.reversible_floor,
            "warnings": list(row.warnings),
        })
    return {"suites": suites, "wpi_reports": reports}


def compare_section(config: ExperimentConfig) -> list[dict]:
    """Fixed-algorithm comparisons, one per suite with at least two traces."""
    by_suite: dict[str, list[SubstrateRun]] = {}
    for (substrate_name, suite_id), trace in config.traces.items():
        by_suite.setdefault(suite_id, []).append(
            SubstrateRun(config.substrate(substrate_name), trace, config.suites[suite_id])
        )
    comparisons = []
    for suite_id, runs in by_suite.items():
        if len(runs) < 2:
            continue
        report = run_comparison(runs)
        comparisons.append({
            "suite": suite_id,
            "ordering": list(report.ordering),
            "rows": [
                {
                    "name": r.name,
                    "overhead": r.overhead,
                    "overhead_source": r.overhead_source,
                    "effective_ops": r.effective_ops,
                    "energy_j": r.energy,
                    "power_w": r.power,
                    "intelligence": r.intelligence,
                    "phi": r.phi,
                    "phi_lower_bound": r.lower_bound,
                    "slack": r.slack,
                }
                for r in report.rows
            ],
        })
    if not comparisons:
        raise ValidationError(
            "comparison requires at least 2 traces sharing one suite"
        )
    return comparisons


def sample_models(config: ExperimentConfig, steps: int) -> list[np.ndarray]:
    """Sample every model once: ``config.sim.samples`` paths of ``steps`` each.

    Model ``index`` uses seed ``config.sim.seed + index``.
    """
    if not config.models:
        raise ValidationError("config has no models to sample")
    return [
        sample_trajectories(model, steps, config.sim.samples, config.sim.seed + index)
        for index, model in enumerate(config.models)
    ]


def simulate_section(config: ExperimentConfig, paths: Sequence[np.ndarray]) -> list[dict]:
    """Summarize each model's sampled paths deterministically."""
    sections = []
    for index, (model, model_paths) in enumerate(zip(config.models, paths)):
        count, length = model_paths.shape
        sections.append({
            "model": model.name,
            "seed": config.sim.seed + index,
            "count": count,
            "steps": length - 1,
            "states": [s.bits for s in model.states],
            "transition_counts": transition_counts(model, model_paths).tolist(),
            "trajectory_digest": _path_digest(model_paths, model.n_states),
            "first_trajectory": model_paths[0].tolist(),
        })
    return sections


def _path_digest(paths: np.ndarray, n_states: int) -> str:
    """sha256 of the paths written as ``"a,b,...;"`` per row, rows in order."""
    # token s (or n_states + s) is state s followed by "," (or by ";", row end)
    tokens = np.array([f"{s}{end}".encode() for end in ",;" for s in range(n_states)],
                      dtype=object)
    codes = paths.copy()
    codes[:, -1] += n_states
    return hashlib.sha256(b"".join(tokens[codes.ravel()])).hexdigest()


def bounds_section(
    config: ExperimentConfig,
    paths: Sequence[np.ndarray],
    delta: float,
    estimator,
) -> tuple[list[dict], list[dict]]:
    """Bound checks per model on one-step paths, plus the gate verdicts for --assert."""
    sections = []
    gates = []
    for index, (model, model_paths) in enumerate(zip(config.models, paths)):
        seed = config.sim.seed + index
        counts = transition_counts(model, model_paths)

        try:
            ift = ift_check(model, counts, estimator, surprisal_control=True)
            surprisal = {
                "mean": ift.surprisal_mean,
                "se": ift.surprisal_se,
                "expected": 1.0,
            }
        except NonErgodicChainError as exc:
            ift = ift_check(model, counts, estimator, surprisal_control=False)
            surprisal = {"mean": None, "se": None, "expected": 1.0, "note": str(exc)}

        excursion = ift.complexity_mean > 1.0 + 3.0 * ift.complexity_se

        deltas = sorted(set(TAIL_DELTAS) | {delta})
        samples_dik = delta_ik_samples(model, model_paths, estimator)
        tails = [markov_tail_check(samples_dik, d, estimator=estimator) for d in deltas]

        efficiency = coupled_bound_suite(
            model, counts, estimator, delta, kind="efficiency"
        )
        adaptivity = coupled_bound_suite(
            model, counts, estimator, delta, kind="adaptivity"
        )

        sections.append({
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
            "coupled_efficiency": _suite_dict(efficiency),
            "coupled_adaptivity": _suite_dict(adaptivity),
        })

        if surprisal["mean"] is not None:
            mean, se = ift.surprisal_mean, ift.surprisal_se
            gates.append(_gate(
                "surprisal_ift_window", model.name,
                0.95 <= mean <= 1.05,
                f"mean={mean!r} must lie in [0.95, 1.05]",
            ))
            gates.append(_gate(
                "surprisal_ift_identity", model.name,
                abs(mean - 1.0) <= 3.0 * se,
                f"|{mean!r} - 1| must be <= 3*se ({se!r})",
            ))
        for tail in tails:
            allowance = 3.0 * math.sqrt(max(tail.lhs * (1.0 - tail.lhs), 0.0) / tail.samples)
            gates.append(_gate(
                f"markov_tail_delta_{tail.delta}", model.name,
                tail.lhs <= tail.rhs + allowance,
                f"lhs={tail.lhs!r} must be <= rhs={tail.rhs!r} + 3*binomial SE",
            ))
        for suite in (efficiency, adaptivity):
            if suite.valid_samples == 0:
                continue
            threshold = _coupled_threshold(suite.delta, suite.rate_standard_error)
            gates.append(_gate(
                f"coupled_{suite.kind}_holds_rate", model.name,
                suite.holds_rate >= threshold,
                f"holds rate {suite.holds_rate!r} must be >= {threshold!r}",
            ))
    return sections, gates


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
        "suite\tname\toverhead\toverhead_source\teffective_ops\tenergy_j\tpower_w"
        "\tintelligence\tphi\tphi_lower_bound\tslack",
    ]
    for comparison in bundle["comparison"]:
        for row in reversed(comparison["rows"]):
            lines.append("\t".join(map(_cell, (
                comparison["suite"], row["name"], row["overhead"],
                row["overhead_source"], row["effective_ops"], row["energy_j"],
                row["power_w"], row["intelligence"], row["phi"],
                row["phi_lower_bound"], row["slack"],
            ))))
    return "\n".join(lines) + "\n"


def _bounds_tsv(bundle: dict) -> str:
    lines = [
        "# lhs/rhs in bits (base-2 logs); holds means lhs <= rhs",
        "# coupled rows: lhs is the holds rate and rhs the gate threshold"
        " 1 - delta - 3*SE; holds means lhs >= rhs, and is 'vacuous' (lhs"
        " empty) when no sampled transition raised the complexity",
        "model\tcheck\testimator\tdelta\tlhs\trhs\tholds\tslack\tsamples\tempirical_ift",
    ]
    for section in bundle["bound_checks"]:
        model = section["model"]
        for tail in section["markov_tail"]:
            lines.append("\t".join(map(_cell, (
                model, "markov_tail", tail["estimator"], tail["delta"], tail["lhs"],
                tail["rhs"], tail["holds"], tail["slack"], tail["samples"],
                tail["empirical_ift"],
            ))))
        for kind in ("coupled_efficiency", "coupled_adaptivity"):
            suite = section[kind]
            threshold = _coupled_threshold(suite["delta"], suite["rate_se"])
            if suite["valid_samples"]:
                rate = suite["holds_rate"]
                holds, slack = rate >= threshold, rate - threshold
            else:
                rate, holds, slack = None, "vacuous", None
            lines.append("\t".join(map(_cell, (
                model, kind, section["estimator"], suite["delta"], rate, threshold,
                holds, slack, suite["valid_samples"], None,
            ))))
    return "\n".join(lines) + "\n"


def _coupled_threshold(delta: float, rate_se: float) -> float:
    """Least holds rate a coupled suite's gate accepts."""
    return 1.0 - delta - 3.0 * rate_se


def _suite_dict(suite) -> dict:
    return {
        "kind": suite.kind,
        "delta": suite.delta,
        "holds_rate": suite.holds_rate,
        "valid_samples": suite.valid_samples,
        "total_transitions": suite.total_transitions,
        "rate_se": suite.rate_standard_error,
        "estimator": suite.estimator.value,
        "checks": [bound_check_dict(c) for c in suite.checks],
        "check_weights": list(suite.check_weights),
    }


def _gate(name: str, model: str, passed: bool, detail: str) -> dict:
    return {"gate": name, "model": model, "passed": bool(passed), "detail": detail}


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
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.name}.", delete=False, encoding="utf-8"
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise
    return path
