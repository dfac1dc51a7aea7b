"""Config schema validation, error pointers, and round-tripping."""

import copy
import json
import math
import sys

import numpy as np
import pytest

from wpi import (
    CoarseState,
    ConfigError,
    config_from_dict,
    default_substrates,
    eight_state_chain,
    four_state_chain,
    ingest_config,
    serialize_config,
    shipped_chains,
    two_state_chain,
)
from wpi.cli import default_config_path
from wpi.report import config_hash


def minimal_config(**overrides):
    data = {
        "seed": 7,
        "substrates": [{
            "name": "cpu", "temperature": 300.0, "overhead_mem": 2.0,
            "overhead_ctrl": 2.0, "algorithmic_yield": 1.0,
        }],
        "suites": [{"id": "s", "tasks": [{"id": "t", "weight": 1.0, "performance": 1.0}]}],
        "traces": [{"substrate": "cpu", "suite": "s", "irreversible_ops": 100, "duration": 1.0}],
        "models": [{
            "name": "m", "states": ["0", "1"],
            "kernel": [[0.5, 0.5], [0.5, 0.5]],
            "measure": [1.0, 1.0], "initial": [0.5, 0.5],
        }],
    }
    data.update(overrides)
    return data


def pointers(excinfo):
    return [ptr for ptr, _ in excinfo.value.issues]


def with_value(path, value):
    """``minimal_config()`` with the value at ``path`` (a key sequence) replaced."""
    data = minimal_config()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def leaf_paths(value, path=()):
    """Key paths of every value in ``value`` that is neither a list nor an object."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path]
    return [leaf for key, item in items for leaf in leaf_paths(item, (*path, key))]


def entry(section, **changes):
    """The one entry of ``section`` in ``minimal_config()``, with ``changes``."""
    return {**minimal_config()[section][0], **changes}


# Inputs of the wrong JSON type (10**400 overflows a float), a NaN initial
# law, an empty state list, a duplicate model name, an unknown key,
# duplicates whose first copy has a problem of its own, and values that a
# constructor rejects, each with the pointer that must name it.
BAD_INPUTS = [
    (("traces", 0, "measured_energy"), "5", "/traces/0/measured_energy"),
    (("traces", 0, "measured_energy"), True, "/traces/0/measured_energy"),
    (("traces", 0, "telemetry"), 5, "/traces/0/telemetry"),
    (("substrates", 0, "extra_overheads"), "x", "/substrates/0/extra_overheads"),
    (("substrates", 0, "extra_overheads"), {"io": True}, "/substrates/0/extra_overheads/io"),
    (("substrates", 0, "overhead_source"), 5, "/substrates/0/overhead_source"),
    (("substrates", 0, "temperature"), 10**400, "/substrates/0/temperature"),
    (("models", 0, "measure"), [True, True], "/models/0/measure/0"),
    (("models", 0, "initial"), ["0.5", "0.5"], "/models/0/initial/0"),
    (("models", 0, "initial"), [None, None], "/models/0/initial/0"),
    (("models", 0, "labels"), [{}, {}], "/models/0/labels/0"),
    (("models", 0, "initial"), [float("nan"), 0.5], "/models/0/initial"),
    (("models", 0, "states"), [], "/models/0/states"),
    (("models",), minimal_config()["models"] * 2, "/models/1/name"),
    (("traces", 0, "measured_enrgy"), 5.0, "/traces/0/measured_enrgy"),
    (("models",), [entry("models", kernel=[[1.5, -0.5], [0.5, 0.5]]), entry("models")],
     "/models/1/name"),
    (("models",), [entry("models", measure="x"), entry("models")], "/models/1/name"),
    (("substrates",), [entry("substrates", temperature=-1.0), entry("substrates")],
     "/substrates/1/name"),
    (("suites",), [entry("suites", tasks=[]), entry("suites")], "/suites/1/id"),
    (("traces",), [entry("traces", duration="x"), entry("traces")], "/traces/1"),
    # the model rules the config applies itself, each with its message
    (("models", 0, "measure"), [0.0, 1.0],
     ("/models/0", "measure weight for state '0' must be > 0, got 0.0")),
    (("models", 0, "labels"), ["a"], ("/models/0/labels", "must have 2 entries, got 1")),
    (("models", 0, "measure"), [1.0, 1.0, 1.0],
     ("/models/0/measure", "must have 2 entries, got 3")),
    (("models", 0, "initial"), [1.0], ("/models/0/initial", "must have 2 entries, got 1")),
    (("models", 0, "kernel"), [[1.0], [0.5, 0.5]],
     ("/models/0/kernel/0", "must have 2 entries, got 1")),
    # the rules MarkovModel applies, each at its field's pointer
    (("models", 0, "states"), ["0", "0"], ("/models/0/states", "model states must be distinct")),
    (("models", 0, "name"), "", ("/models/0/name", "model name must be non-empty")),
    # an entry that is not an object, and an empty suite id
    (("substrates", 0), 5, ("/substrates/0", "must be an object, got 5")),
    (("suites", 0, "id"), "", ("/suites/0/id", "suite id must be non-empty")),
    # a constructor's own rule, at its entry's pointer
    (("suites", 0, "tasks", 0, "id"), "",
     ("/suites/0/tasks/0", "task id must be a non-empty string")),
    (("substrates", 0, "name"), "", ("/substrates/0", "substrate name must be non-empty")),
    # a state that CoarseState rejects, at its own pointer
    (("models", 0, "states"), ["0", "2"],
     ("/models/0/states/1", "state bits must contain only '0'/'1', got '2'")),
]


class TestValidation:
    def test_minimal_config_parses(self):
        config = config_from_dict(minimal_config())
        assert config.sim.seed == 7
        assert ("cpu", "s") in config.runs
        assert config.models[0].name == "m"

    def test_empty_state_builds(self):
        # CoarseState("") is falsy, and must not be taken for a state that failed to build
        config = config_from_dict(with_value(("models", 0, "states"), ["", "1"]))
        assert config.models[0].states[0] == CoarseState("")

    def test_missing_seed_is_an_error(self):
        data = minimal_config()
        del data["seed"]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert "/seed" in pointers(info)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 5, 2**64])
    def test_seed_outside_sampler_range_is_an_error(self, seed):
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_config(seed=seed))
        assert "/seed" in pointers(info)

    def test_seed_range_counts_one_stream_per_model(self):
        model = minimal_config()["models"][0]
        models = [dict(model, name=f"m{i}") for i in range(3)]
        assert config_from_dict(minimal_config(seed=2**63 - 3, models=models)).sim.seed == 2**63 - 3
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_config(seed=2**63 - 2, models=models))
        assert "/seed" in pointers(info)

    def test_kernel_row_sum_pointer(self):
        data = minimal_config()
        data["models"][0]["kernel"] = [[0.5, 0.4], [0.5, 0.5]]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert "/models/0/kernel/0" in pointers(info)

    def test_every_bad_kernel_row_pointed_at(self):
        data = minimal_config()
        data["models"][0]["kernel"] = [[1.5, -0.5], [float("nan"), 0.5]]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert pointers(info) == ["/models/0/kernel/0", "/models/0/kernel/1"]

    def test_duplicate_task_id_named(self):
        data = minimal_config()
        data["suites"][0]["tasks"] = [
            {"id": "dup", "weight": 1.0, "performance": 1.0},
            {"id": "dup", "weight": 2.0, "performance": 0.5},
        ]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert any("dup" in msg for _, msg in info.value.issues)

    def test_unknown_substrate_reference(self):
        data = minimal_config()
        data["traces"][0]["substrate"] = "tpu"
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert "/traces/0/substrate" in pointers(info)

    def test_failed_suite_is_not_reported_as_unknown(self):
        # each of the shipped config's three traces also read "trace names
        # unknown suite 'default-suite'"
        data = json.loads(default_config_path().read_text())
        data["suites"][0]["tasks"][0]["weight"] = -1.0
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert pointers(info) == ["/suites/0/tasks/0"]

    @pytest.mark.parametrize("path, value, pointer", [
        (("substrates", 0, "temperature"), -1.0, "/substrates/0"),
        (("substrates", 0, "overhead_mem"), "hot", "/substrates/0/overhead_mem"),
        (("suites", 0, "tasks"), [], "/suites/0/tasks"),
    ])
    def test_failed_entry_is_not_reported_as_unknown(self, path, value, pointer):
        # a substrate or suite that fails its own rules (or whose other fields
        # do not read) is still declared by name
        with pytest.raises(ConfigError) as info:
            config_from_dict(with_value(path, value))
        assert pointers(info) == [pointer]

    def test_undeclared_name_beside_a_failed_entry_is_unknown(self):
        data = with_value(("substrates", 0, "temperature"), -1.0)
        data["traces"].append({**data["traces"][0], "substrate": "tpu"})
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert pointers(info) == ["/substrates/0", "/traces/1/substrate"]

    def test_all_errors_collected_not_just_first(self):
        data = minimal_config()
        del data["seed"]
        data["models"][0]["kernel"] = [[0.5, 0.4], [0.5, 0.5]]
        data["traces"][0]["suite"] = "nope"
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert len(info.value.issues) == 3

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "seed": 7,,\n}\n')
        with pytest.raises(ConfigError, match=r"line 2 column"):
            ingest_config(path)

    @pytest.mark.parametrize("text", [
        '{"seed": ' + "1" * 5_000 + "}",  # over Python's 4,300-digit integer limit
        "[" * 100_000,  # deeper than the parser's recursion limit
    ], ids=["5000-digit-seed", "deep-nesting"])
    def test_parser_limits_reported_as_parse_errors(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="JSON parse error") as info:
            ingest_config(path)
        assert pointers(info) == [""]

    def test_irreversible_ops_beyond_float_range_pointed_at(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict(with_value(("traces", 0, "irreversible_ops"), 10**400))
        assert pointers(info) == ["/traces/0"]
        largest = int(sys.float_info.max)
        config = config_from_dict(with_value(("traces", 0, "irreversible_ops"), largest))
        assert config.runs[("cpu", "s")].trace.irreversible_ops == largest

    def test_delta_range(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_config(delta=1.5))
        assert "/delta" in pointers(info)

    def test_estimator_choices(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_config(estimator="zip"))
        assert "/estimator" in pointers(info)

    def test_non_binary_state_pointer(self):
        data = minimal_config()
        data["models"][0]["states"] = ["0", "x"]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        # the failed state holds its place in the model, which reports no second issue for it
        assert [issue for issue in info.value.issues if issue[0] == "/models/0/states/1"] == [
            ("/models/0/states/1", "state bits must contain only '0'/'1', got 'x'")]

    @pytest.mark.parametrize("path, value, pointer", BAD_INPUTS, ids=[
        f"{i}:{ptr if isinstance(ptr, str) else ptr[0]}" for i, (_, _, ptr) in enumerate(BAD_INPUTS)
    ])
    def test_bad_input_pointed_at(self, path, value, pointer):
        # ``pointer`` is a pointer, or a (pointer, message) issue
        with pytest.raises(ConfigError) as info:
            config_from_dict(with_value(path, value))
        if isinstance(pointer, str):
            assert pointer in pointers(info)
        else:
            assert pointer in info.value.issues

    def test_root_must_be_an_object(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict([7])
        assert info.value.issues == [("", "must be an object, got [7]")]

    def test_unknown_keys_pointed_at_everywhere(self):
        data = minimal_config(sed=7)
        data["substrates"][0]["overhead"] = 2.0
        data["suites"][0]["tasks"][0]["wieght"] = 1.0
        data["models"][0]["label"] = ["a", "b"]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert sorted(pointers(info)) == [
            "/models/0/label", "/sed", "/substrates/0/overhead", "/suites/0/tasks/0/wieght",
        ]

    def test_unknown_key_pointer_is_escaped(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_config(**{"a/b~c": 1}))
        assert pointers(info) == ["/a~1b~0c"]

    def test_type_fuzz_raises_only_config_errors(self):
        # every leaf in turn, replaced by each JSON type (and NaN)
        replacements = [None, True, "x", 5, -1.5, [], {}, float("nan")]
        for path in leaf_paths(minimal_config()):
            for value in replacements:
                try:
                    config_from_dict(with_value(path, value))
                except ConfigError as exc:
                    assert all(ptr.startswith("/") for ptr, _ in exc.issues), (path, value)
                except Exception as exc:  # noqa: BLE001 - the test is that none escapes
                    pytest.fail(f"{path} = {value!r} raised {type(exc).__name__}: {exc}")

    def test_non_finite_numbers_rejected(self):
        # an infinity is out of the float range a number must fit, so it is
        # reported at its own pointer; the range rules reject NaN, at the
        # value or at the row or entry that holds it
        data = minimal_config()
        data["traces"][0]["measured_energy"] = 1.0
        data["substrates"][0]["extra_overheads"] = {"io": 2.0}

        def parent_of(config, path):
            for key in path[:-1]:
                config = config[key]
            return config

        numbers = [path for path in leaf_paths(data)
                   if type(parent_of(data, path)[path[-1]]) in (int, float)]
        assert len(numbers) == 19
        for path in numbers:
            leaf = "/" + "/".join(map(str, path))
            for value in (math.inf, -math.inf, math.nan):
                bad = copy.deepcopy(data)
                parent_of(bad, path)[path[-1]] = value
                with pytest.raises(ConfigError) as info:
                    config_from_dict(bad)
                if math.isnan(value):
                    assert any(leaf == p or leaf.startswith(p + "/") for p in pointers(info))
                else:
                    assert leaf in pointers(info), (leaf, value)

    def test_numbers_read_as_floats(self):
        data = minimal_config()
        data["substrates"][0]["extra_overheads"] = {"io": 2}
        data["traces"][0]["measured_energy"] = 5
        config = config_from_dict(data)
        assert type(config.substrates[0].extra_overheads["io"]) is float
        assert type(config.runs[("cpu", "s")].trace.measured_energy) is float

    @pytest.mark.parametrize("row", [
        [], [1, 2.5, 0, -0.0], [True, 1.0], [1.0, False], [1, None], ["1", 1.0], [[1.0]],
        [math.nan, 1.0], [1.0, math.inf], [math.nan, -math.inf], [-math.inf, math.nan],
        [1e308, 5e-324], [sys.float_info.max], [0.5, -sys.float_info.max],
        [int(sys.float_info.max)], [int(sys.float_info.max) + 1], [-2**1024], [10**400, 1],
        [np.float64(0.5), 1], [np.int64(3)], [math.nan, 10**400], [math.nan, math.inf],
        [math.inf, math.nan], [np.float64(math.inf)], [True], [-(10**400), math.nan, 1],
    ], ids=repr)
    def test_numeric_rows_read_as_entry_by_entry(self, row):
        # a list of numbers is read in C-level passes; each outcome, error and
        # pointer must be what reading it one entry at a time gives
        from wpi.config import _INVALID, _typed

        errors, entry_errors = [], []
        got = _typed(row, list[float], "/k", errors)
        entries = [_typed(v, float, f"/k/{i}", entry_errors) for i, v in enumerate(row)]
        expected = _INVALID if _INVALID in entries else entries
        assert errors == entry_errors
        assert repr(got) == repr(expected)
        assert got is _INVALID or all(type(v) is float for v in got)
        rows_errors = []
        assert repr(_typed([row, row], list[list[float]], "/k", rows_errors)) == repr(
            _INVALID if expected is _INVALID else [expected, expected])
        assert rows_errors == [(f"/k/{i}{p[2:]}", m) for i in (0, 1) for p, m in entry_errors]

    def test_optional_fields_may_be_null(self):
        data = minimal_config()
        data["traces"][0].update(measured_energy=None, telemetry=None)
        data["models"][0]["labels"] = None
        config = config_from_dict(data)
        assert config.runs[("cpu", "s")].trace.measured_energy is None
        assert config.document["models"][0]["labels"] == [None, None]


class TestTelemetryAttachment:
    def test_trace_integrates_telemetry(self, tmp_path):
        (tmp_path / "power.csv").write_text("t_s,power_w\n0.0,1.0\n1.0,1.0\n")
        data = minimal_config()
        data["traces"][0]["telemetry"] = "power.csv"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        config = ingest_config(path)
        assert config.runs[("cpu", "s")].trace.measured_energy == 1.0

    def test_telemetry_and_measured_energy_conflict(self, tmp_path):
        (tmp_path / "power.csv").write_text("t_s,power_w\n0.0,1.0\n1.0,1.0\n")
        data = minimal_config()
        data["traces"][0]["telemetry"] = "power.csv"
        data["traces"][0]["measured_energy"] = 5.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="both"):
            ingest_config(path)


    @pytest.mark.parametrize("name, content", [
        ("a\u0000b", None),  # a path the operating system cannot open
        ("power.csv", b"t_s,power_w\n0.0,1.0\n\xff,1.0\n"),  # not UTF-8
    ], ids=["nul-path", "non-utf8"])
    def test_unreadable_telemetry_pointed_at(self, tmp_path, name, content):
        if content is not None:
            (tmp_path / name).write_bytes(content)
        data = minimal_config()
        data["traces"][0]["telemetry"] = name
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            ingest_config(path)
        assert pointers(info) == ["/traces/0/telemetry"]


class TestConfigHash:
    """``config_sha256`` binds a bundle to its config; a new value is a new layout."""

    def test_shipped_config_hash_is_pinned(self):
        assert config_hash(ingest_config(default_config_path())) == (
            "7a3e955facb77b782ec6f7c3cef7864d06c0a88bd9f4f0e6b451a5b33c478034"
        )

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # PowerShell 5.1's `Out-File -Encoding utf8` writes one
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + default_config_path().read_bytes())
        assert config_hash(ingest_config(path)) == config_hash(ingest_config(default_config_path()))

    def test_non_utf8_config_names_its_first_bad_byte(self, tmp_path):
        # a decode error reaches the user as a validation error, not a traceback
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xef\xbb\xbf{\xff}")
        with pytest.raises(ConfigError, match="not UTF-8 text: byte 4 is 0xff"):
            ingest_config(path)

    def test_filled_in_config_hash_is_pinned(self, tmp_path):
        # integer numbers, omitted defaults, null labels and a telemetry trace
        # hash as their validated values: floats, defaults, nulls, the integral
        (tmp_path / "power.csv").write_text("t_s,power_w\n0,2\n1,3\n2.5,1\n")
        data = minimal_config()
        data["substrates"][0].update(temperature=300, overhead_mem=2)
        data["traces"][0]["telemetry"] = "power.csv"
        data["models"][0].update(labels=None, measure=[1, 2], initial=[1, 0])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert config_hash(ingest_config(path)) == (
            "7a75932a46c1b4d07ee79c9280e0c57ec68705197405ccaa54afcc2373afaa30"
        )
        overridden = ingest_config(path, seed=5, delta=0.25, estimator="lz-proxy")
        assert config_hash(overridden) == (
            "9ec7cdf41b07a927714581a04ffdaae8c79f4d2bd4df5bfb6545e5e961e99e68"
        )

    def test_generated_ring_hash_is_pinned(self):
        # the non-dyadic 1024-state ring that CI also runs: stay 0.7, forward 0.2, back 0.1
        assert config_hash(config_from_dict(ring_config(0.7, 0.2, 0.1))) == (
            "8d2903db08e7f7b18360826da8730a118ac29768f84f99b12811983031a67f42"
        )

    def test_overridden_shipped_config_hash_is_pinned(self):
        overridden = ingest_config(default_config_path(), seed=5, delta=0.25, estimator="lz-proxy")
        assert config_hash(overridden) == (
            "e9da1fac7b7fa0e59a222ca7171baeb69f81ae6f0e7c026861facb42a1f03db2"
        )


def ring_config(stay, forward, back, n=1024):
    """The shipped config with its models replaced by one n-state ring of 12-bit states."""
    data = json.loads(default_config_path().read_text())
    kernel = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j, p in ((i, stay), (i + 1, forward), (i - 1, back)):
            kernel[i][j % n] = p
    data["models"] = [{"name": "ring", "states": [format(i, "012b") for i in range(n)],
                       "kernel": kernel, "measure": [1.0] * n, "initial": [1.0 / n] * n}]
    return data


def test_each_law_is_checked_once(monkeypatch):
    # the kernel and the initial law are each checked by one call of the
    # vectorised rule, in MarkovModel, not row by row and not again in the config
    import wpi.markov

    calls = {"markov": 0}
    rule = wpi.markov.distribution_problems

    def counted(rows):
        calls["markov"] += 1
        return rule(rows)

    monkeypatch.setattr(wpi.markov, "distribution_problems", counted)
    config = config_from_dict(ring_config(0.75, 0.1875, 0.0625))
    assert config.models[0].n_states == 1024
    assert calls == {"markov": 2}


@pytest.mark.parametrize("models, estimator, estimates, conditionals", [
    ("shipped", "exact-enum", 14, 4),
    ("shipped", "lz-proxy", 14, 4),
    ("ring", "lz-proxy", 1024, 217),
])
def test_each_state_complexity_is_estimated_once(monkeypatch, models, estimator, estimates,
                                                 conditionals):
    # one bound-check pass estimates K of each state once, for every check of
    # its model, and K(x|y) once per checked pair
    import wpi.bounds
    from wpi.report import build_bundle

    if models == "ring":
        data = ring_config(0.75, 0.1875, 0.0625)
    else:
        data = json.loads(default_config_path().read_text())
    data["estimator"] = estimator
    config = config_from_dict(data)
    assert config.sim.samples == 100_000
    calls = {"estimate_complexity": 0, "conditional_complexity": 0}
    for name in calls:
        def counted(*args, name=name, estimate=getattr(wpi.bounds, name)):
            calls[name] += 1
            return estimate(*args)

        monkeypatch.setattr(wpi.bounds, name, counted)
    build_bundle(config, "check-bounds", 1)
    assert sum(model.n_states for model in config.models) == estimates
    assert calls == {"estimate_complexity": estimates, "conditional_complexity": conditionals}


class TestRoundTrip:
    def test_default_config_round_trips(self):
        config = ingest_config(default_config_path())
        again = config_from_dict(serialize_config(config))
        assert again == config

    def test_generated_configs_round_trip(self):
        rng = np.random.default_rng(19)
        for case in range(15):
            n_states = int(rng.integers(1, 5))
            kernel = rng.uniform(0.05, 1.0, (n_states, n_states))
            kernel /= kernel.sum(axis=1, keepdims=True)
            initial = rng.uniform(0.1, 1.0, n_states)
            initial /= initial.sum()
            data = {
                "seed": int(rng.integers(0, 2**31)),
                "samples": int(rng.integers(1, 10**6)),
                "delta": float(rng.uniform(0.01, 0.99)),
                "estimator": ["exact-enum", "lz-proxy"][case % 2],
                "substrates": [{
                    "name": f"sub{i}",
                    "temperature": float(rng.uniform(1, 500)),
                    "overhead_mem": float(rng.uniform(1, 50)),
                    "overhead_ctrl": float(rng.uniform(1, 10)),
                    "algorithmic_yield": float(rng.uniform(0.1, 5)),
                    "extra_overheads": {"io": float(rng.uniform(1, 2))},
                    "overhead_source": "user",
                } for i in range(int(rng.integers(1, 4)))],
                "suites": [{
                    "id": f"suite{i}",
                    "tasks": [
                        {"id": f"t{j}", "weight": float(rng.uniform(0, 5)),
                         "performance": float(rng.uniform(0, 1))}
                        for j in range(int(rng.integers(1, 6)))
                    ],
                } for i in range(int(rng.integers(1, 3)))],
                "traces": [],
                "models": [{
                    "name": "gen",
                    "states": [f"{i:03b}" for i in range(n_states)],
                    "labels": [None] * n_states,
                    "kernel": [[float(v) for v in row] for row in kernel],
                    "measure": [float(v) for v in rng.uniform(0.1, 3.0, n_states)],
                    "initial": [float(v) for v in initial],
                }],
            }
            data["traces"] = [{
                "substrate": data["substrates"][0]["name"],
                "suite": data["suites"][0]["id"],
                "irreversible_ops": int(rng.integers(0, 10**9)),
                "duration": float(rng.uniform(0.1, 100)),
                "measured_energy": None,
            }]
            config = config_from_dict(data)
            assert config_from_dict(serialize_config(config)) == config


def test_shipped_names_read_the_packaged_config():
    """The library's shipped chains and catalog are the ones ``wpi report`` runs."""
    config = ingest_config(default_config_path())
    assert shipped_chains() == list(config.models)
    assert default_substrates() == list(config.substrates)
    by_name = {model.name: model for model in config.models}
    named = {"two-state": two_state_chain, "four-state": four_state_chain,
             "eight-state": eight_state_chain}
    for name, chain in named.items():
        assert chain() == by_name[name]
        assert chain() != name  # a model compares equal only to a model
