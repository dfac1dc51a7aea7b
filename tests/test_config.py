"""Config schema validation, error pointers, and round-tripping."""

import json

import numpy as np
import pytest

from wpi import ConfigError, config_from_dict, ingest_config, serialize_config
from wpi.cli import default_config_path


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


class TestValidation:
    def test_minimal_config_parses(self):
        config = config_from_dict(minimal_config())
        assert config.sim.seed == 7
        assert ("cpu", "s") in config.traces
        assert config.models[0].name == "m"

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
        assert "/models/0/states/1" in pointers(info)


class TestTelemetryAttachment:
    def test_trace_integrates_telemetry(self, tmp_path):
        (tmp_path / "power.csv").write_text("t_s,power_w\n0.0,1.0\n1.0,1.0\n")
        data = minimal_config()
        data["traces"][0]["telemetry"] = "power.csv"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        config = ingest_config(path)
        assert config.traces[("cpu", "s")].measured_energy == 1.0

    def test_telemetry_and_measured_energy_conflict(self, tmp_path):
        (tmp_path / "power.csv").write_text("t_s,power_w\n0.0,1.0\n1.0,1.0\n")
        data = minimal_config()
        data["traces"][0]["telemetry"] = "power.csv"
        data["traces"][0]["measured_energy"] = 5.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="both"):
            ingest_config(path)


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
