"""Experiment configuration: JSON schema, validation, serialization.

A config file is a single JSON object::

    {
      "seed": 42,                  -- required; no wall-clock seeding
      "samples": 100000,           -- trajectories per simulation
      "delta": 0.05,               -- confidence parameter in (0, 1)
      "estimator": "exact-enum",   -- or "lz-proxy"
      "substrates": [{"name", "temperature", "overhead_mem", "overhead_ctrl",
                      "algorithmic_yield", "extra_overheads"?, "overhead_source"?}],
      "suites":     [{"id", "tasks": [{"id", "weight", "performance"}]}],
      "traces":     [{"substrate", "suite", "irreversible_ops", "duration",
                      "measured_energy"?, "telemetry"?}],
      "models":     [{"name", "states", "labels"?, "kernel", "measure", "initial"}]
    }

Validation reports *every* problem found, each tagged with the JSON pointer
of the offending value.  A trace's ``telemetry`` names a power CSV relative
to the config file; its trapezoidal integral becomes the trace's measured
energy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .complexity import CoarseState, Estimator
from .entropy import StateMeasure
from .errors import ConfigError, TelemetryError, ValidationError
from .markov import MAX_SEED, MarkovModel, kernel_row_problem
from .metrics import ExecutionTrace, TaskRecord, TaskSuite
from .substrate import Substrate
from .telemetry import integrate_power, read_power_csv

DEFAULT_SAMPLES = 100_000
DEFAULT_DELTA = 0.05
DEFAULT_ESTIMATOR = Estimator.EXACT_ENUM


@dataclass(frozen=True)
class SimSettings:
    seed: int
    samples: int = DEFAULT_SAMPLES
    delta: float = DEFAULT_DELTA
    estimator: Estimator = DEFAULT_ESTIMATOR


@dataclass(frozen=True)
class ExperimentConfig:
    substrates: tuple[Substrate, ...]
    suites: dict[str, TaskSuite]
    traces: dict[tuple[str, str], ExecutionTrace]
    models: tuple[MarkovModel, ...]
    sim: SimSettings

    def substrate(self, name: str) -> Substrate:
        for sub in self.substrates:
            if sub.name == name:
                return sub
        raise ValidationError(f"unknown substrate {name!r}")


class _Collector:
    def __init__(self):
        self.issues: list[tuple[str, str]] = []

    def error(self, pointer: str, message: str):
        self.issues.append((pointer, message))

    def raise_if_any(self):
        if self.issues:
            raise ConfigError(self.issues)


def ingest_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a config file.

    Raises :class:`~wpi.errors.ConfigError` carrying the complete list of
    validation problems; a JSON parse failure reports line and column.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([("", f"cannot read config file: {exc}")]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [("", f"JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")]
        ) from exc
    return config_from_dict(data, base_dir=path.parent)


def config_from_dict(data: Any, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate an already-parsed config object."""
    errors = _Collector()
    if not isinstance(data, dict):
        errors.error("", "config root must be a JSON object")
        errors.raise_if_any()

    raw_models = data.get("models")
    sim = _validate_sim(data, errors, len(raw_models) if isinstance(raw_models, list) else 0)
    substrates = _validate_substrates(data.get("substrates", []), errors)
    suites = _validate_suites(data.get("suites", []), errors)
    traces = _validate_traces(
        data.get("traces", []), substrates, suites, errors, base_dir
    )
    models = _validate_models(data.get("models", []), errors)
    errors.raise_if_any()

    return ExperimentConfig(
        substrates=tuple(substrates.values()),
        suites=suites,
        traces=traces,
        models=tuple(models),
        sim=sim,
    )


def override_sim(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """``config`` with simulation settings replaced, validated as in a config file.

    Raises :class:`~wpi.errors.ConfigError` listing every invalid value.
    """
    errors = _Collector()
    sim = _validate_sim({**_sim_dict(config.sim), **overrides}, errors, len(config.models))
    errors.raise_if_any()
    return replace(config, sim=sim)


def serialize_config(config: ExperimentConfig) -> dict:
    """Dict form of a config; ``config_from_dict`` of the result round-trips."""
    return {
        **_sim_dict(config.sim),
        "substrates": [
            {
                "name": s.name,
                "temperature": s.temperature,
                "overhead_mem": s.overhead_mem,
                "overhead_ctrl": s.overhead_ctrl,
                "algorithmic_yield": s.algorithmic_yield,
                "extra_overheads": dict(s.extra_overheads),
                "overhead_source": s.overhead_source,
            }
            for s in config.substrates
        ],
        "suites": [
            {
                "id": suite_id,
                "tasks": [
                    {"id": t.id, "weight": t.weight, "performance": t.performance}
                    for t in suite.tasks
                ],
            }
            for suite_id, suite in config.suites.items()
        ],
        "traces": [
            {
                "substrate": substrate,
                "suite": suite,
                "irreversible_ops": trace.irreversible_ops,
                "duration": trace.duration,
                "measured_energy": trace.measured_energy,
            }
            for (substrate, suite), trace in config.traces.items()
        ],
        "models": [
            {
                "name": m.name,
                "states": [s.bits for s in m.states],
                "labels": [s.label for s in m.states],
                "kernel": [[float(v) for v in row] for row in m.kernel],
                "measure": [float(m.measure.weights[s]) for s in m.states],
                "initial": [float(v) for v in m.initial],
            }
            for m in config.models
        ],
    }


def _sim_dict(sim: SimSettings) -> dict:
    return {
        "seed": sim.seed,
        "samples": sim.samples,
        "delta": sim.delta,
        "estimator": sim.estimator.value,
    }


def _validate_sim(data: dict, errors: _Collector, n_models: int) -> SimSettings:
    """Simulation settings; model ``i`` samples with seed ``seed + i``."""
    seed = data.get("seed")
    max_seed = MAX_SEED - max(n_models - 1, 0)
    if seed is None:
        errors.error("/seed", "seed is required; wall-clock seeding is not supported")
        seed = 0
    elif not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.error("/seed", f"seed must be a non-negative integer, got {seed!r}")
        seed = 0
    elif seed > max_seed:
        errors.error(
            "/seed",
            f"seed + number of models - 1 must be <= 2**63 - 1 (model i samples "
            f"with seed + i), got seed {seed!r} with {n_models} model(s)",
        )
        seed = 0

    samples = data.get("samples", DEFAULT_SAMPLES)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        errors.error("/samples", f"samples must be a positive integer, got {samples!r}")
        samples = DEFAULT_SAMPLES

    delta = data.get("delta", DEFAULT_DELTA)
    if not isinstance(delta, (int, float)) or isinstance(delta, bool) or not (0.0 < delta < 1.0):
        errors.error("/delta", f"delta must be a number in (0, 1), got {delta!r}")
        delta = DEFAULT_DELTA

    estimator_raw = data.get("estimator", DEFAULT_ESTIMATOR.value)
    try:
        estimator = Estimator(estimator_raw)
    except ValueError:
        errors.error(
            "/estimator",
            f"estimator must be one of {[e.value for e in Estimator]}, got {estimator_raw!r}",
        )
        estimator = DEFAULT_ESTIMATOR

    return SimSettings(seed=seed, samples=samples, delta=float(delta), estimator=estimator)


def _validate_substrates(raw: Any, errors: _Collector) -> dict[str, Substrate]:
    out: dict[str, Substrate] = {}
    if not isinstance(raw, list):
        errors.error("/substrates", "substrates must be a list")
        return out
    for i, entry in enumerate(raw):
        ptr = f"/substrates/{i}"
        if not isinstance(entry, dict):
            errors.error(ptr, "substrate must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.error(f"{ptr}/name", "substrate name must be a non-empty string")
            continue
        if name in out:
            errors.error(f"{ptr}/name", f"duplicate substrate name {name!r}")
            continue
        fields = {
            key: _number(entry, key, ptr, errors)
            for key in ("temperature", "overhead_mem", "overhead_ctrl", "algorithmic_yield")
        }
        if any(v is None for v in fields.values()):
            continue
        try:
            out[name] = Substrate(
                name=name,
                extra_overheads=entry.get("extra_overheads", {}),
                overhead_source=entry.get("overhead_source", "user"),
                **fields,
            )
        except (ValidationError, TypeError) as exc:
            errors.error(ptr, str(exc))
    return out


def _validate_suites(raw: Any, errors: _Collector) -> dict[str, TaskSuite]:
    out: dict[str, TaskSuite] = {}
    if not isinstance(raw, list):
        errors.error("/suites", "suites must be a list")
        return out
    for i, entry in enumerate(raw):
        ptr = f"/suites/{i}"
        if not isinstance(entry, dict):
            errors.error(ptr, "suite must be an object")
            continue
        suite_id = entry.get("id")
        if not isinstance(suite_id, str) or not suite_id:
            errors.error(f"{ptr}/id", "suite id must be a non-empty string")
            continue
        if suite_id in out:
            errors.error(f"{ptr}/id", f"duplicate suite id {suite_id!r}")
            continue
        tasks_raw = entry.get("tasks")
        if not isinstance(tasks_raw, list) or not tasks_raw:
            errors.error(f"{ptr}/tasks", "suite needs a non-empty task list")
            continue
        records = []
        ok = True
        for j, task in enumerate(tasks_raw):
            tptr = f"{ptr}/tasks/{j}"
            if not isinstance(task, dict):
                errors.error(tptr, "task must be an object")
                ok = False
                continue
            task_id = task.get("id")
            weight = _number(task, "weight", tptr, errors)
            performance = _number(task, "performance", tptr, errors)
            if not isinstance(task_id, str) or not task_id:
                errors.error(f"{tptr}/id", "task id must be a non-empty string")
                ok = False
                continue
            if weight is None or performance is None:
                ok = False
                continue
            try:
                records.append(TaskRecord(id=task_id, weight=weight, performance=performance))
            except ValidationError as exc:
                errors.error(tptr, str(exc))
                ok = False
        if not ok:
            continue
        try:
            out[suite_id] = TaskSuite(records)
        except ValidationError as exc:
            errors.error(f"{ptr}/tasks", str(exc))
    return out


def _validate_traces(
    raw: Any,
    substrates: dict[str, Substrate],
    suites: dict[str, TaskSuite],
    errors: _Collector,
    base_dir: Path | None,
) -> dict[tuple[str, str], ExecutionTrace]:
    out: dict[tuple[str, str], ExecutionTrace] = {}
    if not isinstance(raw, list):
        errors.error("/traces", "traces must be a list")
        return out
    for i, entry in enumerate(raw):
        ptr = f"/traces/{i}"
        if not isinstance(entry, dict):
            errors.error(ptr, "trace must be an object")
            continue
        substrate = entry.get("substrate")
        suite = entry.get("suite")
        if not isinstance(substrate, str) or substrate not in substrates:
            errors.error(f"{ptr}/substrate", f"trace names unknown substrate {substrate!r}")
            continue
        if not isinstance(suite, str) or suite not in suites:
            errors.error(f"{ptr}/suite", f"trace names unknown suite {suite!r}")
            continue
        key = (substrate, suite)
        if key in out:
            errors.error(ptr, f"duplicate trace for substrate {substrate!r} and suite {suite!r}")
            continue

        measured = entry.get("measured_energy")
        telemetry = entry.get("telemetry")
        if telemetry is not None:
            if measured is not None:
                errors.error(
                    f"{ptr}/telemetry",
                    "trace specifies both measured_energy and telemetry",
                )
                continue
            csv_path = Path(telemetry)
            if base_dir is not None and not csv_path.is_absolute():
                csv_path = base_dir / csv_path
            try:
                measured = integrate_power(read_power_csv(csv_path))
            except (TelemetryError, OSError) as exc:
                errors.error(f"{ptr}/telemetry", str(exc))
                continue
        ops = entry.get("irreversible_ops")
        duration = _number(entry, "duration", ptr, errors)
        if not isinstance(ops, int) or isinstance(ops, bool):
            errors.error(f"{ptr}/irreversible_ops", f"irreversible_ops must be an integer, got {ops!r}")
            continue
        if duration is None:
            continue
        try:
            out[key] = ExecutionTrace(
                irreversible_ops=ops, duration=duration, measured_energy=measured,
            )
        except ValidationError as exc:
            errors.error(ptr, str(exc))
    return out


def _validate_models(raw: Any, errors: _Collector) -> list[MarkovModel]:
    out: list[MarkovModel] = []
    if not isinstance(raw, list):
        errors.error("/models", "models must be a list")
        return out
    for i, entry in enumerate(raw):
        ptr = f"/models/{i}"
        if not isinstance(entry, dict):
            errors.error(ptr, "model must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.error(f"{ptr}/name", "model name must be a non-empty string")
            continue
        states_raw = entry.get("states")
        if not isinstance(states_raw, list) or not states_raw:
            errors.error(f"{ptr}/states", "model needs a non-empty state list")
            continue
        labels = entry.get("labels")
        if labels is None:
            labels = [None] * len(states_raw)
        if not isinstance(labels, list) or len(labels) != len(states_raw):
            errors.error(f"{ptr}/labels", "labels must match the state list length")
            continue
        states = []
        ok = True
        for j, bits in enumerate(states_raw):
            try:
                states.append(CoarseState(bits, label=labels[j]))
            except (ValidationError, TypeError, AttributeError) as exc:
                errors.error(f"{ptr}/states/{j}", str(exc))
                ok = False
        if not ok:
            continue

        n = len(states)
        kernel = entry.get("kernel")
        if not isinstance(kernel, list) or len(kernel) != n:
            errors.error(f"{ptr}/kernel", f"kernel must be a list of {n} rows")
            continue
        for j, row in enumerate(kernel):
            if not isinstance(row, list) or len(row) != n:
                errors.error(f"{ptr}/kernel/{j}", f"kernel row must have {n} entries")
                ok = False
                continue
            if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in row):
                errors.error(f"{ptr}/kernel/{j}", "kernel entries must be numbers")
                ok = False
                continue
            problem = kernel_row_problem(row)
            if problem:
                errors.error(f"{ptr}/kernel/{j}", f"kernel row {problem}")
                ok = False
        if not ok:
            continue

        measure_raw = entry.get("measure")
        if not isinstance(measure_raw, list) or len(measure_raw) != n:
            errors.error(f"{ptr}/measure", f"measure must be a list of {n} positive weights")
            continue
        initial = entry.get("initial")
        if not isinstance(initial, list) or len(initial) != n:
            errors.error(f"{ptr}/initial", f"initial must be a probability vector of length {n}")
            continue

        try:
            measure = StateMeasure(dict(zip(states, measure_raw)))
            out.append(MarkovModel(states, kernel, measure, initial, name=name))
        except (ValidationError, TypeError) as exc:
            errors.error(ptr, str(exc))
    return out


def _number(entry: dict, key: str, ptr: str, errors: _Collector) -> float | None:
    value = entry.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.error(f"{ptr}/{key}", f"{key} must be a number, got {value!r}")
        return None
    return float(value)
