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

Keys marked ``?`` are optional.  One field table per kind of object gives
each key's JSON type and default, and any other key is an error.  A number
is an integer or a float but not a boolean, and is read as a float, so it
must be finite; only ``measured_energy``, ``telemetry``, ``labels`` and a
label may be ``null``.  ``_floats`` is the one rule for numbers, alone or in
a list.  Range rules are the constructors' (``Substrate``, ...); ``_built``
reports each object's problems at its entry's pointer, or at a field's that
``MarkovModel`` names (``/models/<i>/kernel/<j>``).  This module checks only
the sampling settings' ranges and what no object holds: unique names, trace
references, and a model's ``labels`` and ``measure`` (validated and hashed,
but read by no computation): their lengths, and that every weight is > 0.

Validation reports *every* problem found, each tagged with the JSON pointer
of the offending value.  A trace's ``telemetry`` names a power CSV relative
to the config file; the integral of its ``(n, 2)`` samples (``ingest_telemetry``)
becomes the trace's measured energy.  Each trace is joined to its substrate
and suite once, in ``ExperimentConfig.runs``.

The config keeps the document it validated (``ExperimentConfig.document``),
so the field tables below are the one layout of both the schema and a
report's ``config_sha256``.

The packaged config (:func:`default_config_path`) is what ``wpi report``
runs by default, and it is the one definition of the shipped chains and the
substrate catalog: :func:`shipped_chains`, :func:`default_substrates` and
the named chains read it on each call.
"""

from __future__ import annotations

import copy
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, get_args, get_origin

from .complexity import CoarseState, Estimator
from .errors import ConfigError, ValidationError
from .markov import MAX_SEED, MarkovModel
from .metrics import ExecutionTrace, TaskRecord, TaskSuite
from .substrate import Substrate, SubstrateRun
from .telemetry import ingest_telemetry, integrate_power


@dataclass(frozen=True)
class SimSettings:
    seed: int
    samples: int
    delta: float
    estimator: Estimator


@dataclass(frozen=True)
class ExperimentConfig:
    """The objects a config builds, and the validated document they were built from.

    ``runs`` holds each trace's :class:`~wpi.substrate.SubstrateRun` by
    ``(substrate, suite)``, in config order.  ``document`` is the config as
    :func:`config_from_dict` read it: every key present, defaults filled in,
    numbers as floats, each model's null ``labels`` as a list of nulls and
    each trace's ``telemetry`` replaced by its integral in
    ``measured_energy``.  It is what :func:`serialize_config` returns and
    what ``config_sha256`` hashes.
    """

    substrates: tuple[Substrate, ...]
    suites: dict[str, TaskSuite]
    runs: dict[tuple[str, str], SubstrateRun]
    models: tuple[MarkovModel, ...]
    sim: SimSettings
    document: dict


#: Default of a key that must be present.
_REQUIRED = object()
#: What a field reads as when its value was reported as a problem.
_INVALID = object()

# Field tables: key -> (JSON type, default).  A type is float (a number),
# int, str, None, list[T], dict[str, T] (an object of T values) or a union;
# a bare list is read entry by entry by the section that owns it.
_ROOT = {
    "seed": (int, _REQUIRED),
    "samples": (int, 100_000),
    "delta": (float, 0.05),
    "estimator": (str, Estimator.EXACT_ENUM.value),
    "substrates": (list, []),
    "suites": (list, []),
    "traces": (list, []),
    "models": (list, []),
}
_SUBSTRATE = {
    "name": (str, _REQUIRED),
    "temperature": (float, _REQUIRED),
    "overhead_mem": (float, _REQUIRED),
    "overhead_ctrl": (float, _REQUIRED),
    "algorithmic_yield": (float, _REQUIRED),
    "extra_overheads": (dict[str, float], {}),
    "overhead_source": (str, "user"),
}
_SUITE = {"id": (str, _REQUIRED), "tasks": (list, _REQUIRED)}
_TASK = {"id": (str, _REQUIRED), "weight": (float, _REQUIRED), "performance": (float, _REQUIRED)}
_TRACE = {
    "substrate": (str, _REQUIRED),
    "suite": (str, _REQUIRED),
    "irreversible_ops": (int, _REQUIRED),
    "duration": (float, _REQUIRED),
    "measured_energy": (float | None, None),
    "telemetry": (str | None, None),
}
_MODEL = {
    "name": (str, _REQUIRED),
    "states": (list[str], _REQUIRED),
    "labels": (list[str | None] | None, None),
    "kernel": (list[list[float]], _REQUIRED),
    "measure": (list[float], _REQUIRED),
    "initial": (list[float], _REQUIRED),
}
_TYPE_NAMES = {
    float: "a finite number", int: "an integer", str: "a string",
    list: "a list", dict: "an object", NoneType: "null",
}


def _resolved(*kinds: Any) -> dict[Any, tuple[tuple[type, Any], ...]]:
    """Each of ``kinds`` and of their item types, as its alternatives: ``(list, T)`` for
    ``list[T]``, ``(dict, T)`` for ``dict[str, T]`` and ``(C, None)`` for a class ``C``."""
    resolved = {}
    for kind in kinds:
        alternatives = get_args(kind) if isinstance(kind, UnionType) else (kind,)
        resolved[kind] = tuple((get_origin(alt) or alt, (get_args(alt) or (None,))[-1])
                               for alt in alternatives)
        resolved.update(_resolved(*(item for _, item in resolved[kind] if item is not None)))
    return resolved


#: Every type of a field table, resolved once, so that reading a value does not.
_KINDS = _resolved(*(kind for table in (_ROOT, _SUBSTRATE, _SUITE, _TASK, _TRACE, _MODEL)
                     for kind, _ in table.values()))


def ingest_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse and fully validate a config file.

    Each of ``overrides`` (``seed``, ``samples``, ``delta``, ``estimator``,
    as the command line sets them) replaces the file's top-level key of
    that name before validation, so a replaced file value is not checked
    and the overrides are validated and hashed as if the file held them.

    Raises :class:`~wpi.errors.ConfigError` carrying the complete list of
    validation problems; a JSON parse failure reports line and column, and
    text past the parser's limits (integer length, nesting depth) is a parse
    failure too.  A leading byte-order mark is ignored; non-UTF-8 text is an error.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError([("", f"cannot read config file: {exc}")]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([("", f"not UTF-8 text: byte {exc.start} is {raw[exc.start]:#04x}")]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [("", f"JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")]
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer over 4,300 digits; deep nesting
        raise ConfigError([("", f"JSON parse error: {exc}")]) from exc
    if isinstance(data, dict):
        data.update(overrides)
    return config_from_dict(data, base_dir=path.parent)


def default_config_path() -> Path:
    return Path(resources.files("wpi").joinpath("data/default_config.json"))


def shipped_chains() -> list[MarkovModel]:
    """The models of the packaged config, in file order."""
    return list(ingest_config(default_config_path()).models)


def two_state_chain() -> MarkovModel:
    return _shipped_chain("two-state")


def four_state_chain() -> MarkovModel:
    return _shipped_chain("four-state")


def eight_state_chain() -> MarkovModel:
    return _shipped_chain("eight-state")


def _shipped_chain(name: str) -> MarkovModel:
    return next(m for m in shipped_chains() if m.name == name)


def default_substrates() -> list[Substrate]:
    """The packaged config's illustrative substrate catalog, in file order.

    Its overhead factors are demonstration defaults, not measured hardware
    characterizations, and each substrate carries ``overhead_source="default"``.
    """
    return list(ingest_config(default_config_path()).substrates)


def config_from_dict(data: Any, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate an already-parsed config object; the result keeps the validated document."""
    errors: list[tuple[str, str]] = []
    document = _read(data, _ROOT, "", errors)
    n_models = 0 if document["models"] is _INVALID else len(document["models"])
    sim = _validate_sim(document, errors, n_models)
    substrates = _validate_substrates(document, errors)
    suites = _validate_suites(document, errors)
    runs = _validate_traces(document, substrates, suites, errors, base_dir)
    models = _validate_models(document, errors)
    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        substrates=tuple(substrates.values()),
        suites=suites,
        runs=runs,
        models=tuple(models),
        sim=sim,
        document=document,
    )


def serialize_config(config: ExperimentConfig) -> dict:
    """A copy of the config's validated document; ``config_from_dict`` of it round-trips."""
    return copy.deepcopy(config.document)


def _read(obj: Any, table: dict, ptr: str, errors: list) -> dict:
    """Every field of ``obj`` by ``table``: defaults filled in, numbers as floats.

    Each unknown key, missing required key and value of the wrong JSON type
    is reported at its pointer, and its field reads as ``_INVALID``; every
    field does if ``obj`` is not an object.
    """
    if not isinstance(obj, dict):
        errors.append((ptr, f"must be an object, got {reprlib.repr(obj)}"))
        return dict.fromkeys(table, _INVALID)
    for key in obj:
        if key not in table:
            errors.append((_child(ptr, key), f"unknown key; expected one of {', '.join(table)}"))
    fields = {}
    for key, (kind, default) in table.items():
        if key in obj:
            fields[key] = _typed(obj[key], kind, _child(ptr, key), errors)
        elif default is _REQUIRED:
            errors.append((_child(ptr, key), "required key is missing"))
            fields[key] = _INVALID
        else:
            fields[key] = default
    return fields


def _typed(value: Any, kind: Any, ptr: str, errors: list) -> Any:
    """``value`` checked against JSON type ``kind`` and read, or ``_INVALID``."""
    for base, item in _KINDS[kind]:  # the first alternative that value is, entries unchecked
        if (_floats([value]) is not None if base is float
                else not isinstance(value, bool) and isinstance(value, base)):
            break
    else:
        names = " or ".join(_TYPE_NAMES[base] for base, _ in _KINDS[kind])
        errors.append((ptr, f"must be {names}, got {reprlib.repr(value)}"))
        return _INVALID
    if base is float:
        return float(value)
    if item is None:
        return value
    if base is list:
        read = _floats(value) if item is float else None
        if read is not None:
            return read
        read = [_typed(v, item, f"{ptr}/{i}", errors) for i, v in enumerate(value)]
        return _INVALID if _INVALID in read else read
    read = {k: _typed(v, item, _child(ptr, k), errors) for k, v in value.items()}
    return _INVALID if _INVALID in read.values() else read


def _floats(values: list) -> list[float] | None:
    """``values`` read as floats if each is a number that fits a float; else None.

    The config's one float rule, for a list and (through ``_typed``) a
    single value.  A number is an int or a float (a subclass too) but not a
    bool, and its magnitude, compared as given and not as rounded, must not
    exceed the float maximum, so no infinity passes.  A list of floats alone
    is converted once and checked for an infinity; one that holds an int
    compares each magnitude first, as an int may be too large to convert.
    NaN passes and is left to the range rules, which all reject it.
    """
    kinds = set(map(type, values))
    if not all(issubclass(t, (int, float)) and t is not bool for t in kinds):
        return None
    if all(issubclass(t, float) for t in kinds):
        read = list(map(float, values))
        return None if any(map(math.isinf, read)) else read
    if any(map(sys.float_info.max.__lt__, map(abs, values))):
        return None
    return list(map(float, values))


def _child(ptr: str, key: Any) -> str:
    """The JSON pointer of member ``key`` of the object at ``ptr``."""
    return f"{ptr}/" + str(key).replace("~", "~0").replace("/", "~1")


def _entries(parent: dict, key: str, table: dict, ptr: str, errors: list,
             unique: tuple[str, ...] = (), seen: dict[tuple, str] | None = None):
    """``(pointer, fields)`` of each entry of list ``parent[key]`` whose fields all read.

    ``ptr`` is the pointer of ``parent``, and ``parent[key]`` becomes the
    list of the fields yielded, so that once no problem is reported it is
    the validated list.  The ``unique`` fields of an entry, if any, together
    must differ from every earlier entry's, whether or not either entry's
    other fields read or build; a repeat is reported at its one key (or at
    the entry) and skipped.  An entry with an unknown key is still read.
    ``seen``, if given, receives the ``unique`` fields of each entry that
    reads them, with the pointer of their first entry.  ``parent[key]`` is
    ``_INVALID`` when the list itself was reported.
    """
    raw, read, ptr = parent[key], [], _child(ptr, key)
    parent[key] = read
    seen = {} if seen is None else seen
    for i, entry in enumerate([] if raw is _INVALID else raw):
        fields = _read(entry, table, f"{ptr}/{i}", errors)
        ident = tuple(fields[k] for k in unique)
        if unique and _INVALID not in ident:
            if ident in seen:
                at = f"{ptr}/{i}/{unique[0]}" if len(unique) == 1 else f"{ptr}/{i}"
                errors.append((at, f"duplicate {' and '.join(unique)} {', '.join(map(repr, ident))}"
                                   f", as at {seen[ident]}"))
                continue
            seen[ident] = f"{ptr}/{i}"
        if _INVALID not in fields.values():
            read.append(fields)
            yield f"{ptr}/{i}", fields


def _validate_sim(fields: dict, errors: list, n_models: int) -> SimSettings:
    """Simulation settings; model ``i`` samples with seed ``seed + i``.

    The result holds ``_INVALID`` or None where a problem was reported.
    """
    seed, samples, delta, estimator = (
        fields["seed"], fields["samples"], fields["delta"], fields["estimator"]
    )
    max_seed = MAX_SEED - max(n_models - 1, 0)
    if seed is not _INVALID and not 0 <= seed <= max_seed:
        errors.append(("/seed", f"seed must be in [0, {max_seed}] for {n_models} model(s): "
                                f"model i samples with seed + i, got {seed!r}"))
    if samples is not _INVALID and samples < 1:
        errors.append(("/samples", f"samples must be a positive integer, got {samples!r}"))
    if delta is not _INVALID and not 0.0 < delta < 1.0:
        errors.append(("/delta", f"delta must be in (0, 1), got {delta!r}"))
    if estimator is not _INVALID:
        estimator = _built(errors, "/estimator", Estimator, estimator)
    return SimSettings(seed=seed, samples=samples, delta=delta, estimator=estimator)


def _validate_substrates(document: dict, errors: list) -> dict[str, Substrate | None]:
    """Each substrate an entry names, in config order; None if its problems were reported."""
    declared: dict[tuple, str] = {}
    entries = _entries(document, "substrates", _SUBSTRATE, "", errors, ("name",), declared)
    out = {fields["name"]: _built(errors, ptr, Substrate, **fields) for ptr, fields in entries}
    return {name: out.get(name) for (name,) in declared}


def _validate_suites(document: dict, errors: list) -> dict[str, TaskSuite | None]:
    """Each suite an entry names, in config order; None if its problems were reported."""
    out: dict[str, TaskSuite | None] = {}
    declared: dict[tuple, str] = {}
    for ptr, fields in _entries(document, "suites", _SUITE, "", errors, ("id",), declared):
        suite_id = fields["id"]
        if not suite_id:
            errors.append((f"{ptr}/id", "suite id must be non-empty"))
            continue
        n_tasks = len(fields["tasks"])
        records = [_built(errors, task_ptr, TaskRecord, **task)
                   for task_ptr, task in _entries(fields, "tasks", _TASK, ptr, errors)]
        if len(records) == n_tasks and None not in records:
            out[suite_id] = _built(errors, f"{ptr}/tasks", TaskSuite, records)
    return {suite_id: out.get(suite_id) for (suite_id,) in declared}


def _validate_traces(
    document: dict,
    substrates: dict[str, Substrate | None],
    suites: dict[str, TaskSuite | None],
    errors: list,
    base_dir: Path | None,
) -> dict[tuple[str, str], SubstrateRun]:
    out: dict[tuple[str, str], SubstrateRun] = {}
    for ptr, fields in _entries(document, "traces", _TRACE, "", errors, ("substrate", "suite")):
        substrate, suite = key = (fields["substrate"], fields["suite"])
        telemetry = fields.pop("telemetry")  # the document keeps its integral
        before = len(errors)
        if substrate not in substrates:
            errors.append((f"{ptr}/substrate", f"trace names unknown substrate {substrate!r}"))
        if suite not in suites:
            errors.append((f"{ptr}/suite", f"trace names unknown suite {suite!r}"))
        if telemetry is not None and fields["measured_energy"] is not None:
            errors.append((f"{ptr}/telemetry", "trace gives both measured_energy and telemetry"))
        elif telemetry is not None:
            csv_path = Path(base_dir or "", telemetry)
            fields["measured_energy"] = _built(errors, f"{ptr}/telemetry",
                                               lambda: integrate_power(ingest_telemetry(csv_path)))
        if len(errors) > before:
            continue
        trace = _built(errors, ptr, ExecutionTrace,
                       fields["irreversible_ops"], fields["duration"], fields["measured_energy"])
        out[key] = SubstrateRun(substrates[substrate], trace, suites[suite])  # any None part was reported
    return out


def _validate_models(document: dict, errors: list) -> list[MarkovModel]:
    out: list[MarkovModel] = []
    for ptr, fields in _entries(document, "models", _MODEL, "", errors, ("name",)):
        bits, measure = fields["states"], fields["measure"]
        n = len(bits)
        if fields["labels"] is None:
            fields["labels"] = [None] * n
        sized = [key for key in ("labels", "measure") if n and len(fields[key]) != n]
        errors += ((f"{ptr}/{key}", f"must have {n} entries, got {len(fields[key])}") for key in sized)
        bad = next(((state, w) for state, w in zip(bits, measure) if not w > 0.0), None)
        if bad and "measure" not in sized:
            errors.append((ptr, "measure weight for state {!r} must be > 0, got {}".format(*bad)))
        built = [_built(errors, f"{ptr}/states/{j}", CoarseState, b) for j, b in enumerate(bits)]
        # a failed state holds its place, so the laws are checked for n states, and the
        # model's own issue for it is dropped, as CoarseState's names it; "" builds a falsy state
        states = [b if state is None else state for state, b in zip(built, bits)]
        issues: list = []
        out.append(_built(issues, ptr, MarkovModel, states, fields["kernel"], fields["initial"],
                          name=fields["name"]))
        errors += (issue for issue in issues if not issue[0].startswith(f"{ptr}/states/"))
    return out


def _built(errors: list, ptr: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None once its failure is reported.

    A :class:`ConfigError` names each problem by a field of the object
    (``kernel/0``), reported at ``f"{ptr}/{field}"``; any other
    :class:`ValidationError` is reported at ``ptr``.  ``OSError`` is caught
    only because the telemetry reader opens a file; no constructor does I/O.
    """
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        errors.extend((f"{ptr}/{field}", message) for field, message in exc.issues)
    except (ValidationError, OSError) as exc:
        errors.append((ptr, str(exc)))
    return None
