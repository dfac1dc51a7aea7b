"""End-to-end CLI tests: subcommands, exit codes, determinism, file outputs."""

import hashlib
import json
import math

import pytest

from wpi import ingest_config, phi_lower_bound, sample_trajectories
from wpi.cli import default_config_path, main
from wpi.report import compare_section, score_section, write_bundle


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def stripped(bundle):
    bundle = json.loads(json.dumps(bundle))
    bundle["metadata"].pop("generated_at")
    return bundle


def run(args):
    return main([str(a) for a in args])


def small_model(name):
    return {
        "name": name,
        "states": ["0000", "0101", "0110", "1011"],
        "kernel": [
            [0.875, 0.0625, 0.046875, 0.015625],
            [0.015625, 0.875, 0.0625, 0.046875],
            [0.046875, 0.015625, 0.875, 0.0625],
            [0.0625, 0.046875, 0.015625, 0.875],
        ],
        "measure": [1.0, 0.5, 2.0, 0.25],
        "initial": [0.25, 0.25, 0.25, 0.25],
    }


def small_config(tmp_path, **overrides):
    """A light config so CLI tests stay fast."""
    data = {
        "seed": 11,
        "samples": 400,
        "delta": 0.05,
        "estimator": "exact-enum",
        "substrates": [
            {"name": "cpu", "temperature": 300.0, "overhead_mem": 40.0,
             "overhead_ctrl": 5.0, "algorithmic_yield": 1.0, "overhead_source": "default"},
            {"name": "gpu", "temperature": 300.0, "overhead_mem": 10.0,
             "overhead_ctrl": 2.0, "algorithmic_yield": 1.0, "overhead_source": "default"},
            {"name": "neuromorphic", "temperature": 300.0, "overhead_mem": 2.0,
             "overhead_ctrl": 2.0, "algorithmic_yield": 1.0, "overhead_source": "default"},
        ],
        "suites": [{"id": "bench", "tasks": [
            {"id": "a", "weight": 1.0, "performance": 1.0},
            {"id": "b", "weight": 2.0, "performance": 0.5},
        ]}],
        "traces": [
            {"substrate": name, "suite": "bench", "irreversible_ops": 10**6, "duration": 1.0}
            for name in ("cpu", "gpu", "neuromorphic")
        ],
        "models": [small_model("four-state")],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=1))
    return path


class TestSubcommands:
    def test_score_writes_reports(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["score", "--config", config, "--out", out]) == 0
        bundle = load_report(out)
        assert bundle["scores"][0]["intelligence"] == 2.0
        assert len(bundle["wpi_reports"]) == 3

    def test_compare_tsv_descending_phi(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["compare", "--config", config, "--out", out]) == 0
        lines = [
            line.split("\t") for line in (out / "compare.tsv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("suite\t")
        ]
        names = [cells[1] for cells in lines]
        phis = [float(cells[8]) for cells in lines]
        assert names == ["cpu", "gpu", "neuromorphic"]
        assert phis == sorted(phis, reverse=True)
        bundle = load_report(out)
        assert bundle["comparison"][0]["ordering"] == ["neuromorphic", "gpu", "cpu"]

    def test_simulate_single_trajectory_is_deterministic(self, tmp_path):
        config = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", config, "--out", out_a, "--samples", 1]) == 0
        assert run(["simulate", "--config", config, "--out", out_b, "--samples", 1]) == 0
        sim_a = load_report(out_a)["simulations"][0]
        sim_b = load_report(out_b)["simulations"][0]
        assert sim_a["count"] == 1
        assert sim_a["first_trajectory"] == sim_b["first_trajectory"]
        assert sim_a["trajectory_digest"] == sim_b["trajectory_digest"]

    def test_trajectory_digest_hashes_paths_as_text(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out, "--steps", 3]) == 0
        sim = load_report(out)["simulations"][0]
        model = ingest_config(config).models[0]
        rows = sample_trajectories(model, 3, 400, seed=11).tolist()
        text = "".join(",".join(map(str, row)) + ";" for row in rows)
        assert sim["trajectory_digest"] == hashlib.sha256(text.encode()).hexdigest()
        assert sim["first_trajectory"] == rows[0]

    def test_check_bounds_writes_tsv_and_gates(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", config, "--out", out]) == 0
        bundle = load_report(out)
        assert bundle["bound_checks"][0]["model"] == "four-state"
        assert bundle["gates"]
        assert (out / "bounds.tsv").exists()

    def test_bounds_tsv_coupled_rows_match_gates(self, tmp_path):
        two_state = {
            "name": "two-state", "states": ["0", "1"],
            "kernel": [[0.875, 0.125], [0.125, 0.875]],
            "measure": [1.0, 0.5], "initial": [0.5, 0.5],
        }
        config = small_config(tmp_path, models=[small_model("four-state"), two_state])
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", config, "--out", out]) == 0
        gates = {(g["model"], g["gate"]): g["passed"] for g in load_report(out)["gates"]}
        header, *rows = [line.split("\t") for line in (out / "bounds.tsv").read_text().splitlines()
                         if not line.startswith("#")]
        coupled = [dict(zip(header, r)) for r in rows if r[1].startswith("coupled_")]
        assert len(coupled) == 4
        for row in coupled:
            gate = gates.get((row["model"], f"{row['check']}_holds_rate"))
            if row["model"] == "two-state":
                assert row["holds"] == "vacuous" and row["samples"] == "0"
                assert gate is None
            else:
                assert row["holds"] == str(gate)

    def test_bounds_tsv_coupled_verdict_allows_three_standard_errors(self, tmp_path):
        suite = {"kind": "efficiency", "delta": 0.05, "holds_rate": 0.94, "rate_se": 0.01,
                 "valid_samples": 475}
        bundle = {"bound_checks": [{
            "model": "m", "estimator": "exact-enum", "markov_tail": [],
            "coupled_efficiency": suite,
            "coupled_adaptivity": dict(suite, kind="adaptivity", holds_rate=0.91),
        }]}
        write_bundle(tmp_path, bundle, fmt="tsv")
        lines = (tmp_path / "bounds.tsv").read_text().splitlines()
        holds = {line.split("\t")[1]: line.split("\t")[6] for line in lines[-2:]}
        assert holds == {"coupled_efficiency": "True", "coupled_adaptivity": "False"}

    def test_report_bounds_match_check_bounds_with_longer_paths(self, tmp_path):
        # bound checks read the first transition of each sampled path, which
        # does not depend on how many steps the path has
        config = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["report", "--config", config, "--out", out_a, "--steps", 5]) == 0
        assert run(["check-bounds", "--config", config, "--out", out_b]) == 0
        a, b = load_report(out_a), load_report(out_b)
        assert a["simulations"][0]["steps"] == 5
        assert a["bound_checks"] == b["bound_checks"]
        assert a["gates"] == b["gates"]

    def test_report_runs_everything(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["report", "--config", config, "--out", out]) == 0
        bundle = load_report(out)
        for key in ("scores", "comparison", "simulations", "bound_checks"):
            assert bundle[key]

    def test_default_config_is_packaged(self, tmp_path):
        out = tmp_path / "out"
        assert run(["score", "--out", out]) == 0
        assert load_report(out)["scores"][0]["suite"] == "default-suite"


class TestExitCodes:
    def test_invalid_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1, "models": [{"name": "m"}]}')
        assert run(["simulate", "--config", bad, "--out", tmp_path / "out"]) == 1

    def test_unknown_flag_exits_one(self, tmp_path):
        assert run(["score", "--nonsense"]) == 1

    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_assert_mode_passes_on_shipped_chain(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", config, "--out", out, "--assert"]) == 0

    def test_assert_mode_fails_on_high_probability_complexity_jump(self, tmp_path):
        # a fifty-fifty hop onto a more complex state breaks the coupled
        # efficiency bound for the enumeration estimator, so --assert exits 2
        config = small_config(tmp_path, models=[{
            "name": "hot-hop",
            "states": ["0000", "0110"],
            "kernel": [[0.5, 0.5], [0.5, 0.5]],
            "measure": [1.0, 1.0],
            "initial": [0.5, 0.5],
        }])
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", config, "--out", out, "--assert"]) == 2
        bundle = load_report(out)
        failing = [g for g in bundle["gates"] if not g["passed"]]
        assert any(g["gate"] == "coupled_efficiency_holds_rate" for g in failing)

    @pytest.mark.parametrize("flag, value", [
        ("--seed", -1),
        ("--seed", 2**64),
        ("--seed", 2**63 + 5),
        ("--seed", 2**63 - 1),  # a second model would need seed 2**63
        ("--samples", 0),
        ("--delta", "nan"),
        ("--delta", 1.5),
    ])
    def test_invalid_simulation_override_exits_one(self, tmp_path, capsys, flag, value):
        config = small_config(tmp_path, models=[small_model("a"), small_model("b")])
        args = ["simulate", "--config", config, "--out", tmp_path / "out", flag, value]
        assert run(args) == 1
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run(["score", "--config", tmp_path / "nope.json"]) == 1


class TestDeterminism:
    def test_same_seed_byte_identical_modulo_timestamp(self, tmp_path):
        config = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["check-bounds", "--config", config, "--out", out_a]) == 0
        assert run(["check-bounds", "--config", config, "--out", out_b]) == 0
        assert stripped(load_report(out_a)) == stripped(load_report(out_b))

    def test_seed_override_changes_results(self, tmp_path):
        config = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", config, "--out", out_a]) == 0
        assert run(["simulate", "--config", config, "--out", out_b, "--seed", 999]) == 0
        a = load_report(out_a)["simulations"][0]["trajectory_digest"]
        b = load_report(out_b)["simulations"][0]["trajectory_digest"]
        assert a != b

    def test_format_json_writes_only_report(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["compare", "--config", config, "--out", out, "--format", "json"]) == 0
        assert (out / "report.json").exists()
        assert not (out / "compare.tsv").exists()

    def test_config_hash_binds_inputs(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        run(["score", "--config", config, "--out", out])
        first = load_report(out)["metadata"]["config_sha256"]
        other = small_config(tmp_path, seed=12)
        run(["score", "--config", other, "--out", out])
        assert load_report(out)["metadata"]["config_sha256"] != first


class TestMeasuredEnergyPaths:
    def test_zero_ops_with_measured_energy_serializes_infinity(self, tmp_path):
        config = small_config(tmp_path, traces=[
            {"substrate": "cpu", "suite": "bench", "irreversible_ops": 0,
             "duration": 1.0, "measured_energy": 1e-9},
            {"substrate": "gpu", "suite": "bench", "irreversible_ops": 10**6,
             "duration": 1.0},
        ])
        out = tmp_path / "out"
        assert run(["score", "--config", config, "--out", out]) == 0
        bundle = load_report(out)
        cpu = next(r for r in bundle["wpi_reports"] if r["substrate"] == "cpu")
        assert cpu["overhead_factor"] == "inf"
        assert cpu["warnings"]
        assert cpu["energy_j"] == 1e-9

    def test_measured_energy_at_floor_has_no_warning(self, tmp_path):
        import math as _math
        floor = 10**6 * 1.380649e-23 * 300.0 * _math.log(2)
        config = small_config(tmp_path, traces=[
            {"substrate": "cpu", "suite": "bench", "irreversible_ops": 10**6,
             "duration": 1.0, "measured_energy": floor},
            {"substrate": "gpu", "suite": "bench", "irreversible_ops": 10**6,
             "duration": 1.0},
        ])
        out = tmp_path / "out"
        assert run(["score", "--config", config, "--out", out]) == 0
        cpu = next(r for r in load_report(out)["wpi_reports"] if r["substrate"] == "cpu")
        assert cpu["warnings"] == []
        assert cpu["overhead_factor"] == pytest.approx(1.0, rel=1e-12)

    def test_multi_step_simulation(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out,
                    "--samples", 50, "--steps", 4]) == 0
        sim = load_report(out)["simulations"][0]
        assert sim["steps"] == 4
        assert len(sim["first_trajectory"]) == 5
        assert sum(sum(row) for row in sim["transition_counts"]) == 200

    def test_sub_landauer_measurement_reported_not_fatal(self, tmp_path):
        # measured energy below the Landauer floor is physically
        # inconsistent: it is flagged and the bound falls back to the
        # reversible floor, but the report still renders
        config = small_config(tmp_path, traces=[
            {"substrate": "cpu", "suite": "bench", "irreversible_ops": 10**6,
             "duration": 1.0, "measured_energy": 1e-21},
            {"substrate": "gpu", "suite": "bench", "irreversible_ops": 10**6,
             "duration": 1.0},
        ])
        out = tmp_path / "out"
        assert run(["score", "--config", config, "--out", out]) == 0
        cpu = next(r for r in load_report(out)["wpi_reports"] if r["substrate"] == "cpu")
        assert any("Landauer floor" in w for w in cpu["warnings"])
        assert cpu["overhead_factor"] < 1.0
        assert cpu["phi_lower_bound"] == cpu["reversible_floor"]
        assert run(["compare", "--config", config, "--out", out]) == 0


def zero_op_traces():
    # measured energy on a trace with no irreversible ops back-solves an
    # infinite overhead factor
    return [
        {"substrate": "cpu", "suite": "bench", "irreversible_ops": 0,
         "duration": 1.0, "measured_energy": 1e-9},
        {"substrate": "gpu", "suite": "bench", "irreversible_ops": 0, "duration": 1.0},
    ]


def sub_landauer_traces():
    return [
        {"substrate": "cpu", "suite": "bench", "irreversible_ops": 10**6,
         "duration": 1.0, "measured_energy": 1e-21},
        {"substrate": "gpu", "suite": "bench", "irreversible_ops": 10**6, "duration": 1.0},
    ]


class TestPhiAccountingAgreement:
    """The comparison table and the per-trace reports share one accounting."""

    SHARED = {
        "overhead": "overhead_factor",
        "overhead_source": "overhead_source",
        "energy_j": "energy_j",
        "power_w": "power_w",
        "intelligence": "intelligence",
        "phi": "phi",
        "phi_lower_bound": "phi_lower_bound",
        "slack": "slack",
    }

    @pytest.mark.parametrize("traces", [None, zero_op_traces(), sub_landauer_traces()],
                             ids=["shipped", "zero-op", "sub-landauer"])
    def test_comparison_rows_match_wpi_reports(self, tmp_path, traces):
        path = default_config_path() if traces is None else small_config(tmp_path, traces=traces)
        config = ingest_config(path)
        reports = {(r["substrate"], r["suite"]): r
                   for r in score_section(config)["wpi_reports"]}
        rows = [(c["suite"], row) for c in compare_section(config) for row in c["rows"]]
        assert len(rows) == len(reports)
        for suite, row in rows:
            report = reports[(row["name"], suite)]
            for row_key, report_key in self.SHARED.items():
                assert row[row_key] == report[report_key], row_key
            assert not any(isinstance(v, float) and math.isnan(v) for v in row.values())

    def test_zero_op_bound_uses_modeled_factor(self, tmp_path):
        config = ingest_config(small_config(tmp_path, traces=zero_op_traces()))
        rows = {r["name"]: r for r in compare_section(config)[0]["rows"]}
        assert rows["cpu"]["overhead"] == math.inf
        assert rows["cpu"]["effective_ops"] == 0.0
        # cpu's modeled factor is 40 * 5 at 300 K, unit yield and 1 s
        assert rows["cpu"]["phi_lower_bound"] == phi_lower_bound(300.0, 200.0, 1.0, 1.0)
        assert rows["cpu"]["slack"] > 1.0
