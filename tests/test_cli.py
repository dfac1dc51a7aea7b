"""End-to-end CLI tests: subcommands, exit codes, determinism, file outputs."""

import enum
import hashlib
import importlib
import itertools
import json
import math
import os
import pkgutil
import platform
import random
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wpi import (
    DEFAULT_MACHINE,
    Estimator,
    coupled_bound_suite,
    eight_state_chain,
    ingest_config,
    model_table,
    phi_lower_bound,
    sample_trajectories,
    transition_counts,
)
import wpi.cli
from wpi.cli import default_config_path, main
from wpi.markov import _CHUNK, _PathTally
from wpi.report import (_atomic_write, _json_text, _verdicts, bounds_section, compare_section,
                        score_section, write_bundle)


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def stripped(bundle):
    bundle = json.loads(json.dumps(bundle))
    bundle["metadata"].pop("generated_at")
    return bundle


def run(args):
    return main([str(a) for a in args])


def text_digest(rows):
    """sha256 of each row's states joined by "," and followed by ";", the slow way."""
    text = "".join(",".join(map(str, row)) + ";" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def bounds_rows(out_dir):
    header, *rows = [line.split("\t") for line in (out_dir / "bounds.tsv").read_text().splitlines()
                     if not line.startswith("#")]
    assert header == ["gate", "model", "status", "value", "threshold", "detail"]
    return [dict(zip(header, row)) for row in rows]


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
        assert sim["trajectory_digest"] == text_digest(rows)
        assert sim["first_trajectory"] == rows[0]

    @pytest.mark.parametrize("n_states", [1, 9, 10, 11, 100, 150])
    def test_path_digest_hashes_multi_width_tokens_as_text(self, n_states):
        # state numbers of one, two and three digits in one path array; the
        # last two arrays are hashed in four chunks and in five chunks of 40 rows
        rng = np.random.default_rng(n_states)
        for shape in ((1, 2), (300, 2), (40, 17), (_CHUNK + 3, 3), (170, 401)):
            rows = rng.integers(0, n_states, shape)
            tally = _PathTally(n_states)
            tally.add(rows.astype(np.intp))
            assert tally.digest == text_digest(rows.tolist())

    def test_sampled_infinite_weight_fails_the_window_gate(self, tmp_path):
        # a reverse edge of probability 1e-310, sampled once, weighs 2**1030:
        # +inf, which the bundle writes as "inf"
        tiny = 1e-310
        config = ingest_config(small_config(tmp_path, models=[{
            "name": "cycle",
            "states": ["00", "01", "10"],
            "kernel": [[0.0, 1.0, tiny], [tiny, 0.0, 1.0], [1.0, tiny, 0.0]],
            "measure": [1.0, 1.0, 1.0],
            "initial": [1.0, 0.0, 0.0],
        }]))
        counts = np.array([[0, 99, 1], [0, 0, 100], [100, 0, 0]])
        section = bounds_section(config, config.models[0], 1, counts)
        text = _json_text(section["surprisal_ift"])
        assert '"mean": "inf"' in text and '"se": "inf"' in text
        surprisal = [r["status"] for r in _verdicts(section) if r["gate"].startswith("surprisal_ift_")]
        assert surprisal == ["fail", "fail"]  # the window, and the identity with an infinite SE

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
        coupled = [row for row in bounds_rows(out) if row["gate"].startswith("coupled_")]
        assert len(coupled) == 4
        for row in coupled:
            gate = gates.get((row["model"], row["gate"]))
            if row["model"] == "two-state":
                assert row["status"] == "vacuous" and row["value"] == ""
                assert gate is None
            else:
                assert row["status"] == ("pass" if gate else "fail")

    def test_bounds_tsv_coupled_verdict_allows_three_standard_errors(self, tmp_path):
        suite = {"kind": "efficiency", "delta": 0.05, "holds_rate": 0.94, "rate_se": 0.01,
                 "valid_samples": 475}
        bundle = {"bound_checks": [{
            "model": "m", "estimator": "exact-enum", "markov_tail": [],
            "surprisal_ift": {"mean": None, "se": None, "note": "no stationary law"},
            "coupled_efficiency": suite,
            "coupled_adaptivity": dict(suite, kind="adaptivity", holds_rate=0.91),
        }]}
        write_bundle(tmp_path, bundle, fmt="tsv")
        status = {row["gate"]: row["status"] for row in bounds_rows(tmp_path)}
        assert status["coupled_efficiency_holds_rate"] == "pass"  # 0.94 >= 0.92
        assert status["coupled_adaptivity_holds_rate"] == "fail"  # 0.91 < 0.92

    def test_bounds_tsv_verdicts_at_their_limits(self, tmp_path):
        # a tail share above rhs passes within its 3-SE binomial allowance,
        # and a holds rate equal to its threshold passes
        tail = {"delta": 0.1, "lhs": 0.5, "samples": 100}
        suite = {"delta": 0.25, "holds_rate": 0.75, "rate_se": 0.0, "valid_samples": 1}
        bundle = {"bound_checks": [{
            "model": "m",
            "surprisal_ift": {"mean": 1.0, "se": 0.0},
            "markov_tail": [dict(tail, rhs=0.45), dict(tail, delta=0.2, rhs=0.3)],
            "coupled_efficiency": suite,
            "coupled_adaptivity": dict(suite, valid_samples=0),
        }]}
        write_bundle(tmp_path, bundle, fmt="tsv")
        status = [(row["gate"], row["status"]) for row in bounds_rows(tmp_path)]
        assert status == [
            ("surprisal_ift_window", "pass"),
            ("surprisal_ift_identity", "pass"),  # |1 - 1| <= 3 * 0
            ("markov_tail_delta_0.1", "pass"),  # 0.5 <= 0.45 + 3 * 0.05
            ("markov_tail_delta_0.2", "fail"),  # 0.5 > 0.3 + 3 * 0.05
            ("coupled_efficiency_holds_rate", "pass"),
            ("coupled_adaptivity_holds_rate", "vacuous"),
        ]

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

    def test_bound_check_keys_are_the_documented_ones(self, tmp_path):
        # a field added to a bound dataclass must reach docs/file_formats.md too
        docs = (Path(__file__).resolve().parents[1] / "docs" / "file_formats.md").read_text()
        documented = {
            line.split("|")[1].split(":")[0].strip(): set(re.findall(r"`(\w+)`", line.split("|")[3]))
            for line in docs.splitlines()
            if line.startswith(("| bound check:", "| coupled suite:"))
        }
        check_keys, suite_keys = documented["bound check"], documented["coupled suite"]
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", small_config(tmp_path), "--out", out]) == 0
        checks = 0
        for entry in load_report(out)["bound_checks"]:
            assert all(set(tail) == check_keys for tail in entry["markov_tail"])
            for kind in ("efficiency", "adaptivity"):
                suite = entry[f"coupled_{kind}"]
                assert set(suite) == suite_keys
                assert all(set(check) == check_keys for check in suite["checks"])
                checks += len(suite["checks"])
        assert checks > 0

    @pytest.mark.parametrize("estimator", ["exact-enum", "lz-proxy"])
    def test_coupled_keys_hold_one_suite(self, tmp_path, estimator):
        # for the coupled agent both bounds are one inequality, written twice
        out = tmp_path / "out"
        assert run(["check-bounds", "--out", out, "--estimator", estimator]) == 0
        for entry in load_report(out)["bound_checks"]:
            efficiency, adaptivity = entry["coupled_efficiency"], entry["coupled_adaptivity"]
            assert (efficiency.pop("kind"), adaptivity.pop("kind")) == ("efficiency", "adaptivity")
            assert adaptivity == efficiency

    def test_phi_table_keys_are_the_documented_ones(self, tmp_path):
        # the wpi_reports and comparison layouts and the compare.tsv header
        # must match their table in docs/file_formats.md
        docs = (Path(__file__).resolve().parents[1] / "docs" / "file_formats.md").read_text()
        documented = {
            line.split("|")[1].split(":")[0].strip(): re.findall(r"`(\w+)`", line.split("|")[3])
            for line in docs.splitlines()
            if line.startswith(("| per-trace report:", "| comparison row:", "| compare.tsv header:"))
        }
        out = tmp_path / "out"
        assert run(["report", "--config", small_config(tmp_path), "--out", out]) == 0
        bundle = load_report(out)
        assert bundle["wpi_reports"] and bundle["comparison"]
        for entry in bundle["wpi_reports"]:
            assert set(entry) == set(documented["per-trace report"])
        for comparison in bundle["comparison"]:
            assert all(set(row) == set(documented["comparison row"])
                       for row in comparison["rows"])
        header = next(line for line in (out / "compare.tsv").read_text().splitlines()
                      if not line.startswith("#"))
        assert header.split("\t") == documented["compare.tsv header"]

    def test_every_subcommand_writes_the_same_top_level_keys(self, tmp_path):
        config = small_config(tmp_path)
        keys = {}
        for command in ("score", "compare", "simulate", "check-bounds", "report"):
            out = tmp_path / command
            assert run([command, "--config", config, "--out", out]) == 0
            keys[command] = set(load_report(out))
        assert all(k == keys["report"] for k in keys.values()), keys
        for command in ("compare", "simulate", "check-bounds"):
            assert load_report(tmp_path / command)["wpi_reports"] is None

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

    @pytest.mark.parametrize("steps", [1, 4])
    def test_report_counts_each_transition_once(self, tmp_path, monkeypatch, steps):
        # each block of drawn rows reaches its model's tally once, and the
        # bound checks' first-step counts are part of the simulation's
        counted = []

        def recording(model, steps, count, seed, out=None, each=None):
            def counting(rows):
                counted.append(rows.shape[0] * (rows.shape[1] - 1))
                each(rows)

            return sample_trajectories(model, steps, count, seed, out=out, each=counting)

        monkeypatch.setattr("wpi.report.sample_trajectories", recording)
        out = tmp_path / "out"
        assert run(["report", "--samples", 500, "--steps", steps, "--out", out]) == 0
        bundle = load_report(out)
        assert sum(counted) == len(bundle["simulations"]) * 500 * steps
        for sim in bundle["simulations"]:
            assert sum(map(sum, sim["transition_counts"])) == 500 * steps
        assert [c["samples"] for c in bundle["bound_checks"]] == [500] * 3

    def test_report_draws_every_model_into_one_array(self, tmp_path, monkeypatch):
        # the one workspace holds the run's chunk buffer, so no model's paths
        # are held, and the Philox scratch that every model reuses
        buffers = []

        def recording(model, steps, count, seed, out=None, each=None):
            buffers.append(out)
            return sample_trajectories(model, steps, count, seed, out=out, each=each)

        monkeypatch.setattr("wpi.report.sample_trajectories", recording)
        assert run(["report", "--samples", _CHUNK + 500, "--out", tmp_path / "out"]) == 0
        first, *later = buffers
        assert first.paths.shape == (_CHUNK, 2) and len(later) == 2
        assert all(out is first for out in later)

    def test_shared_array_gives_each_command_the_same_sections(self, tmp_path):
        # each command fills exactly its sections, as report fills them; the
        # shipped config's three models differ in size, so a count or digest
        # that read another model's paths would differ; check-bounds reads
        # each path's first step, which does not depend on --steps
        filled = {
            "score": ("scores", "wpi_reports"),
            "compare": ("comparison",),
            "simulate": ("simulations",),
            "check-bounds": ("bound_checks", "gates"),
            "report": ("scores", "wpi_reports", "comparison", "simulations", "bound_checks",
                       "gates"),
        }
        flags = {"score": [], "compare": [], "check-bounds": ["--samples", 2_000]}
        bundles = {}
        for command in filled:
            out = tmp_path / command
            args = flags.get(command, ["--samples", 2_000, "--steps", 3])
            assert run([command, *args, "--out", out]) == 0
            bundles[command] = load_report(out)
        report = bundles["report"]
        assert len(report["simulations"]) == 3
        assert all(report[key] for key in filled["report"])
        for command, sections in filled.items():
            bundle = bundles[command]
            assert set(bundle) == {"metadata", *filled["report"]}
            for key in filled["report"]:
                expected = report[key] if key in sections else None
                assert bundle[key] == expected, (command, key)

    def test_report_holds_one_model_of_paths_at_a_time(self, tmp_path):
        # one model's paths are 200,000 x 2 int64 (3.2 MB); holding two of
        # the shipped config's three models, or one and a full-size copy,
        # passes the first limit, and holding any one of them the second
        peaks = []
        for samples in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert run(["report", "--samples", samples, "--out", tmp_path / str(samples)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < 2 * 200_000 * 2 * 8
        assert peaks[1] - peaks[0] < 1 << 20, peaks

    @pytest.mark.parametrize("stage", ["sample", "count", "digest"])
    def test_working_memory_does_not_grow_with_the_steps(self, stage):
        # a chunk of 4,096 paths of 400 steps held all 401 keys of each path
        # at once in the sampler, and was one temporary of the pairs or of the
        # digest's codes: 13.0, 13.0 and 19.5 MB more than at 4 steps
        model = eight_state_chain()
        peaks = []
        for steps in (4, 400):
            paths = sample_trajectories(model, steps, 4_096, seed=3)
            call = {
                "sample": lambda: sample_trajectories(model, steps, 4_096, seed=3),
                "count": lambda: transition_counts(model, paths),
                "digest": lambda: _PathTally(model.n_states).add(paths),
            }[stage]
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - (paths.nbytes if stage == "sample" else 0))
        # a chunk's _CHUNK int64 entries are 128 KiB; allow a few of them
        assert peaks[1] - peaks[0] < 1 << 20, peaks


class TestExitCodes:
    def test_invalid_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1, "models": [{"name": "m"}]}')
        assert run(["simulate", "--config", bad, "--out", tmp_path / "out"]) == 1

    # score and simulate write no TSV table, so they take no --format
    @pytest.mark.parametrize("argv", [
        ["score", "--nonsense"], ["score", "--format", "tsv"], ["simulate", "--format", "json"],
    ])
    def test_unknown_flag_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "wpi-out").exists()

    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([name, "--help"] for name in ("score", "compare", "simulate", "check-bounds", "report")),
        ["frobnicate"], [], ["report", "--steps", "x"], ["report", "extra"], ["-h", "report"],
    ])
    def test_parser_messages_match_the_full_parser(self, capsys, argv):
        # main builds only the subcommand argv[0] names; what it prints may not change
        code = main(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            wpi.cli.build_parser().parse_args(argv)
        assert (code, printed) == (exc.value.code, capsys.readouterr())

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

    def test_flag_replaces_file_value_before_validation(self, tmp_path):
        # the file's seed is out of range, but the run uses the flag's
        data = json.loads(default_config_path().read_text())
        flagged, filed = tmp_path / "flagged.json", tmp_path / "filed.json"
        flagged.write_text(json.dumps({**data, "seed": -1}))
        filed.write_text(json.dumps({**data, "seed": 3, "samples": 10}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", flagged, "--out", out_a, "--seed", 3, "--samples", 10]
        assert run(args) == 0
        assert run(["simulate", "--config", filed, "--out", out_b]) == 0
        assert stripped(load_report(out_a)) == stripped(load_report(out_b))

    def test_flag_and_file_problems_reported_together(self, tmp_path, capsys):
        config = small_config(tmp_path)
        data = json.loads(config.read_text())
        data["substrates"][0]["temperature"] = -5
        config.write_text(json.dumps(data))
        args = ["simulate", "--config", config, "--out", tmp_path / "out", "--seed", -4]
        assert run(args) == 1
        listed = re.findall(r"^  (\S+): ", capsys.readouterr().err, re.MULTILINE)
        # the trace names a substrate that exists, though it failed its own rules
        assert listed == ["/seed", "/substrates/0"]
        assert not (tmp_path / "out").exists()

    def test_simulate_without_models_exits_one(self, tmp_path, capsys):
        config = small_config(tmp_path, models=[])
        assert run(["simulate", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "config has no models to sample" in err
        assert "Traceback" not in err

    def test_state_beyond_exact_enumeration_names_model_and_state(self, tmp_path, capsys):
        # was only "target has 17 bits; ...", with no model or state named
        model = small_model("long")
        model["states"][3] = "1" * 17
        config = small_config(tmp_path, models=[model])
        assert run(["check-bounds", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"model 'long', state '{'1' * 17}': target has 17 bits" in err
        assert "Traceback" not in err
        for args in (["simulate"], ["check-bounds", "--estimator", "lz-proxy"]):
            assert run([*args, "--config", config, "--out", tmp_path / args[-1]]) == 0

    def test_unallocatable_sample_exits_one(self, tmp_path, capsys):
        # was a ValueError traceback out of np.empty; the run holds one block
        # of its 400 paths, so only a path too long to hold fails
        config = small_config(tmp_path)
        args = ["simulate", "--config", config, "--out", tmp_path / "out", "--steps", 2**60]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "cannot allocate" in err and f"(400, {2**60 + 1})" in err
        assert not (tmp_path / "out").exists()

    def test_mistyped_field_exits_one_with_pointer(self, tmp_path, capsys):
        config = small_config(tmp_path, traces=[
            {"substrate": "cpu", "suite": "bench", "irreversible_ops": 10**6,
             "duration": 1.0, "measured_energy": "5"},
        ])
        assert run(["report", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "/traces/0/measured_energy" in err
        assert "Traceback" not in err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run(["score", "--config", tmp_path / "nope.json"]) == 1

    @pytest.mark.parametrize("case, pointer", [
        ("5000-digit-seed", "<config>"),
        ("deep-nesting", "<config>"),
        ("ops-beyond-float", "/traces/0:"),
        ("non-utf8-telemetry", "/traces/0/telemetry"),
        ("nul-telemetry-path", "/traces/0/telemetry"),
    ])
    def test_unreadable_input_exits_one_with_pointer(self, tmp_path, capsys, case, pointer):
        config = small_config(tmp_path)
        data = json.loads(config.read_text())
        trace = data["traces"][0]
        (tmp_path / "power.csv").write_bytes(b"t_s,power_w\n0.0,1.0\n\xff,1.0\n")
        if case == "ops-beyond-float":
            trace["irreversible_ops"] = 10**400
        elif case == "non-utf8-telemetry":
            trace["telemetry"] = "power.csv"
        elif case == "nul-telemetry-path":
            trace["telemetry"] = "a\u0000b"
        text = json.dumps(data)
        if case == "5000-digit-seed":
            text = text.replace('"seed": 11', '"seed": ' + "1" * 5_000)
        elif case == "deep-nesting":
            text = "[" * 100_000
        config.write_text(text)
        assert run(["score", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert pointer in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case, pointer", [
        ("infinite-weight", "/suites/0/tasks/0/weight:"),
        ("infinite-power", "/traces/0/telemetry: 1 telemetry error(s): row 3: "),
        ("nan-timestamp", "/traces/0/telemetry: 1 telemetry error(s): row 3: "),
        ("overflowing-integral", "/traces/0:"),
        ("overflowing-overhead", "/substrates/0:"),
        ("overflowing-weight", "/suites/0/tasks:"),
    ])
    def test_non_finite_input_exits_one_with_pointer(self, tmp_path, capsys, case, pointer):
        config = tmp_path / "config.json"
        data = json.loads(default_config_path().read_text())
        rows = {"infinite-power": "0,1\n1,inf\n", "nan-timestamp": "0,1\nnan,1\n2,1\n",
                "overflowing-integral": "1,1e308\n2,1e308\n"}
        if case in rows:
            (tmp_path / "power.csv").write_text("t_s,power_w\n" + rows[case])
            data["traces"][0]["telemetry"] = "power.csv"
        if case == "overflowing-overhead":  # each factor finite, their product not
            data["substrates"][0].update(overhead_mem=1e200, overhead_ctrl=1e200)
        elif case == "overflowing-weight":  # each weight finite, their sum not
            for task in data["suites"][0]["tasks"]:
                task.update(weight=1e308, performance=1.0)
        text = json.dumps(data)
        if case == "infinite-weight":
            text = text.replace('"weight": 1.0', '"weight": Infinity', 1)
        config.write_text(text)
        assert run(["score", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert pointer in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["existing-file", "below-a-file"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, case):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if case == "existing-file" else blocker / "sub"
        assert run(["score", "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write output to {out}: " in err
        assert "Traceback" not in err
        assert blocker.read_text() == ""


def wide_chain_config(tmp_path, monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    inputs = importlib.import_module("inputs")
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(inputs.wide_chain_config(1)))
    return path


class TestVerdictTable:
    """bounds.tsv lists the gates of report.json, in order, plus vacuous checks."""

    def assert_table_matches_gates(self, out):
        bundle = load_report(out)
        rows = bounds_rows(out)
        gated = [r for r in rows if r["status"] != "vacuous"]
        assert [(r["gate"], r["model"], r["status"], r["detail"]) for r in gated] == [
            (g["gate"], g["model"], "pass" if g["passed"] else "fail", g["detail"])
            for g in bundle["gates"]
        ]
        for row in gated:
            value = float(row["value"])
            if row["gate"] == "surprisal_ift_window":
                assert row["threshold"] == "[0.95, 1.05]"
                passed = 0.95 <= value <= 1.05
            elif row["gate"].startswith("coupled_"):
                passed = value >= float(row["threshold"])
            else:
                passed = value <= float(row["threshold"])
            assert row["status"] == ("pass" if passed else "fail"), row

        # a vacuous row for exactly the checks that could not be evaluated
        expected = []
        for section in bundle["bound_checks"]:
            if section["surprisal_ift"]["mean"] is None:
                expected += [("surprisal_ift_window", section["model"]),
                             ("surprisal_ift_identity", section["model"])]
            for kind in ("efficiency", "adaptivity"):
                if section[f"coupled_{kind}"]["valid_samples"] == 0:
                    expected.append((f"coupled_{kind}_holds_rate", section["model"]))
        vacuous = [r for r in rows if r["status"] == "vacuous"]
        assert sorted((r["gate"], r["model"]) for r in vacuous) == sorted(expected)
        assert all(r["value"] == r["threshold"] == "" and r["detail"] for r in vacuous)
        return rows

    def test_shipped_config(self, tmp_path):
        out = tmp_path / "out"
        assert run(["report", "--out", out, "--assert"]) == 0
        rows = self.assert_table_matches_gates(out)
        assert {r["status"] for r in rows} == {"pass", "vacuous"}

    def test_failing_hot_hop(self, tmp_path):
        config = small_config(tmp_path, models=[{
            "name": "hot-hop", "states": ["0000", "0110"],
            "kernel": [[0.5, 0.5], [0.5, 0.5]], "measure": [1.0, 1.0], "initial": [0.5, 0.5],
        }])
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", config, "--out", out, "--assert"]) == 2
        rows = self.assert_table_matches_gates(out)
        assert "fail" in {r["status"] for r in rows}

    def test_non_ergodic_model(self, tmp_path):
        stuck = {"name": "stuck", "states": ["0", "1"], "kernel": [[1.0, 0.0], [0.0, 1.0]],
                 "measure": [1.0, 1.0], "initial": [0.5, 0.5]}
        config = small_config(tmp_path, models=[small_model("four-state"), stuck])
        out = tmp_path / "out"
        assert run(["check-bounds", "--config", config, "--out", out]) == 0
        rows = self.assert_table_matches_gates(out)
        stuck_status = {r["gate"]: r["status"] for r in rows if r["model"] == "stuck"}
        assert stuck_status["surprisal_ift_window"] == "vacuous"
        assert stuck_status["surprisal_ift_identity"] == "vacuous"

    def test_wide_chain(self, tmp_path, monkeypatch):
        config = wide_chain_config(tmp_path, monkeypatch)
        out = tmp_path / "out"
        assert run(["report", "--config", config, "--out", out, "--steps", 16, "--assert"]) == 2
        self.assert_table_matches_gates(out)


class TestKnownCoupledFailures:
    """Where the estimator cannot meet the coupled inequality, the gate fails.

    Each visited pair's verdict is fixed, and the sample decides only which
    pairs appear (docs/file_formats.md).  These pin today's outcome.
    """

    def test_shipped_config_under_lz_proxy(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["report", "--assert", "--estimator", "lz-proxy", "--out", out]) == 2
        failed = ["eight-state/coupled_efficiency_holds_rate",
                  "eight-state/coupled_adaptivity_holds_rate"]
        err = capsys.readouterr().err
        assert [line.split(":")[0] for line in err.splitlines()] == [
            f"GATE FAIL {gate}" for gate in failed]
        bundle = load_report(out)
        assert [f"{g['model']}/{g['gate']}" for g in bundle["gates"] if not g["passed"]] == failed
        [section] = [s for s in bundle["bound_checks"] if s["model"] == "eight-state"]
        for kind in ("efficiency", "adaptivity"):
            suite = section[f"coupled_{kind}"]
            assert (suite["holds_rate"], suite["valid_samples"]) == (0.0, 17_127)
            # K(x|y) = 7 bits on 3-bit states, against log2(1/p) + log2(1/delta) - 1
            assert [(c["lhs"], c["rhs"]) for c in suite["checks"]] == [
                (1.0, -0.26303440583379345), (1.0, -1.6780719051126374)] * 2
        status = {(r["model"], r["gate"]): r["status"] for r in bounds_rows(out)}
        for model in ("two-state", "four-state"):
            for kind in ("efficiency", "adaptivity"):
                assert status[model, f"coupled_{kind}_holds_rate"] == "vacuous"

    #: Incompressible states of 8-10 bits: exact K is the length plus 3.
    RING = ["11011000", "011000101", "1100001000", "11100011", "011010111", "0000101001"]

    def test_incompressible_ring_under_exact_enum(self, tmp_path, capsys):
        n, delta = len(self.RING), 0.05
        kernel = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j, p in ((i, 0.75), (i + 1, 0.1875), (i - 1, 0.0625)):
                kernel[i][j % n] = p
        k = [len(DEFAULT_MACHINE.shortest_program(s, 20)) for s in self.RING]
        assert k == [len(s) + 3 for s in self.RING]
        # precondition, by the enumeration oracle: every pair whose K rises fails
        oracle_rhs = {}
        for i, j in itertools.product(range(n), repeat=2):
            if kernel[i][j] and k[j] > k[i]:
                k_cond = len(DEFAULT_MACHINE.shortest_program(self.RING[i], 20, self.RING[j]))
                oracle_rhs[i, j] = -math.log2(kernel[i][j]) - k_cond - math.log2(delta)
        assert oracle_rhs and all(rhs < 1.0 for rhs in oracle_rhs.values())

        ring = {"name": "ring", "states": self.RING, "kernel": kernel, "measure": [1.0] * n,
                "initial": [1.0 / n] * n}
        config = small_config(tmp_path, models=[ring])
        model = ingest_config(config).models[0]
        counts = transition_counts(model, sample_trajectories(model, 1, 4_000, seed=11))
        suite = coupled_bound_suite(model_table(model, Estimator.EXACT_ENUM), counts, delta)
        assert suite.valid_samples > 0
        assert suite.holds_rate == 0.0
        # K(x|y) is the oracle's length: each check's rhs is the oracle's, bit for bit
        pairs = [(i, j) for i, j in itertools.product(range(n), repeat=2)
                 if counts[i, j] and k[j] > k[i]]
        assert [check.rhs for check in suite.checks] == [oracle_rhs[pair] for pair in pairs]

        assert run(["check-bounds", "--config", config, "--out", tmp_path / "out",
                    "--assert"]) == 2
        err = capsys.readouterr().err
        assert "GATE FAIL ring/coupled_efficiency_holds_rate: holds rate 0.0 " in err


class TestKnownSurprisalFalseAlarm:
    """The surprisal gates expect E[2^-sigma] = 1, which needs every positive
    transition to have a positive reverse (docs/file_formats.md).  On a chain
    with one-way transitions they fail with nothing wrong.  This pins today's
    outcome; nothing is fixed here (ROADMAP item 4)."""

    def test_one_way_cycle_fails_both_surprisal_gates(self, tmp_path, capsys):
        data = json.loads(default_config_path().read_text())
        data["models"] = [{"name": "one-way", "states": ["00", "01", "10"],
                           "kernel": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
                           "measure": [1.0] * 3, "initial": [1 / 3] * 3}]
        config = tmp_path / "one-way.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert run(["report", "--assert", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert [line.split(":")[0] for line in err.splitlines()] == [
            "GATE FAIL one-way/surprisal_ift_window", "GATE FAIL one-way/surprisal_ift_identity"]
        surprisal = load_report(out)["bound_checks"][0]["surprisal_ift"]
        assert surprisal["expected"] == 1.0
        assert surprisal["mean"] == 0.50147
        # only the self-loops have a positive reverse, and they carry half of
        # every row, so the exact mean is 0.5, which the sample meets
        assert abs(surprisal["mean"] - 0.5) <= 3 * surprisal["se"]


class TestDeterminism:
    def test_same_seed_byte_identical_modulo_timestamp(self, tmp_path):
        config = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["check-bounds", "--config", config, "--out", out_a]) == 0
        assert run(["check-bounds", "--config", config, "--out", out_b]) == 0
        assert stripped(load_report(out_a)) == stripped(load_report(out_b))

    def test_no_wpi_module_keeps_a_cache(self):
        # every wpi call computes what it returns: no memo survives a call
        names = [f"wpi.{m.name}" for m in pkgutil.iter_modules(wpi.__path__)]
        owners = [importlib.import_module(name) for name in ["wpi", *names]]
        owners += [v for m in owners for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
        cached = [f"{getattr(o, '__name__', o)}.{k}" for o in owners for k, v in vars(o).items()
                  if hasattr(v, "cache_info") or hasattr(v, "cache_clear")]
        assert cached == []

    def test_warm_process_writes_what_a_fresh_one_writes(self, tmp_path):
        # the shipped config twice in one process: the second run starts warm
        texts = []
        for name in ("a", "b"):
            assert run(["report", "--assert", "--out", tmp_path / name]) == 0
            text = (tmp_path / name / "report.json").read_text()
            texts.append(re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text))
        assert texts[0] == texts[1]

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

    def test_metadata_names_python_and_numpy(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        run(["score", "--config", config, "--out", out])
        metadata = load_report(out)["metadata"]
        assert metadata["python"] == platform.python_version()
        assert metadata["numpy"] == np.__version__

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
    def test_bundle_files_get_umask_permissions(self, tmp_path, umask):
        # the files are created like open(path, "w") would create them
        config = small_config(tmp_path)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert run(["report", "--config", config, "--out", out]) == 0
        finally:
            os.umask(old)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["bounds.tsv", "compare.tsv", "report.json"]
        for name in names:
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~umask, name

    def test_bundle_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        # setting the umask to read it left every other thread's files
        # unmasked while it was 0; the kernel applies it to the create instead
        config = small_config(tmp_path)
        out = tmp_path / "out"
        old = os.umask(0o027)

        def refuse(mask):
            raise AssertionError(f"os.umask({mask:#o}) changes the umask of every thread")

        monkeypatch.setattr(os, "umask", refuse)
        try:
            assert run(["report", "--config", config, "--out", out]) == 0
        finally:
            monkeypatch.undo()
            os.umask(old)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["bounds.tsv", "compare.tsv", "report.json"]
        for name in names:
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~0o027, name

    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the write fails after the temp file exists
        target = tmp_path / "report.json"
        target.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(target, "\ud800")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


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


class TestComparisonRules:
    """Which traces form a comparison, and the errors when none can."""

    ONE_TRACE = [{"substrate": "cpu", "suite": "bench", "irreversible_ops": 10**6,
                  "duration": 1.0}]

    def test_report_without_a_comparison_writes_everything_else(self, tmp_path):
        config = small_config(tmp_path, traces=self.ONE_TRACE)
        out = tmp_path / "out"
        assert run(["report", "--config", config, "--out", out, "--assert"]) == 0
        bundle = load_report(out)
        assert bundle["comparison"] == []
        assert len(bundle["wpi_reports"]) == 1
        for key in ("scores", "simulations", "bound_checks", "gates"):
            assert bundle[key]
        assert not (out / "compare.tsv").exists()
        assert (out / "bounds.tsv").exists()

    def test_compare_without_a_comparison_exits_one(self, tmp_path, capsys):
        config = small_config(tmp_path, traces=self.ONE_TRACE)
        out = tmp_path / "out"
        assert run(["compare", "--config", config, "--out", out]) == 1
        assert "at least 2 traces sharing one suite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_mismatched_op_counts_name_each_trace(self, tmp_path, capsys, command):
        config = small_config(tmp_path, traces=[
            {"substrate": "cpu", "suite": "bench", "irreversible_ops": 10**6, "duration": 1.0},
            {"substrate": "gpu", "suite": "bench", "irreversible_ops": 999, "duration": 1.0},
        ])
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "fixed algorithm" in err
        assert re.search(r"cpu: 1000000\b", err) and re.search(r"gpu: 999\b", err), err


def jsonable(value):
    """The oracle's input: ``value`` with each non-finite float as its repr."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    return value


def oracle_text(value):
    return json.dumps(jsonable(value), indent=2, sort_keys=True)


def ring_config(tmp_path, estimator):
    """A seeded ring of 24 periodic and random states of 8-13 bits, plus a slow chain.

    Stay 3/4, forward 3/16, back 1/16 on the ring; the slow chain, as in the
    wide-chain benchmark, mixes so slowly (switching rates 1e-6 and 3e-6)
    that its stationary law needs the direct solve's cancellation-free
    diagonal.
    """
    rng = random.Random(f"ring:{estimator}")
    states = set()
    while len(states) < 24:
        n = rng.randint(8, 13)
        period = format(rng.getrandbits(3), "03b")
        states.add((period * n)[:n] if len(states) % 2 else format(rng.getrandbits(n), f"0{n}b"))
    n = len(states)
    kernel = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j, p in ((i, 0.75), (i + 1, 0.1875), (i - 1, 0.0625)):
            kernel[i][j % n] = p
    ring = {"name": "ring", "states": sorted(states), "kernel": kernel,
            "measure": [2.0 ** -rng.randint(0, 3) for _ in range(n)], "initial": [1.0 / n] * n}
    slow = {"name": "slow", "states": ["01101001", "11010010"],
            "kernel": [[1 - 1e-6, 1e-6], [3e-6, 1 - 3e-6]], "measure": [1.0, 1.0],
            "initial": [0.75, 0.25]}
    return small_config(tmp_path, samples=4000, estimator=estimator,
                        models=[ring, small_model("four-state"), slow])


class Color(enum.IntEnum):
    RED = 3


class Tag(str, enum.Enum):
    EXACT = "exact-enum"


class TestJsonText:
    """report.json is the indented, key-sorted json.dumps text of the bundle."""

    @pytest.fixture
    def bundles(self, monkeypatch):
        """Each bundle the CLI writes, checked against its file as it is written."""
        seen = []

        def write(out, bundle, fmt=None):
            written = write_bundle(out, bundle, fmt)
            assert (Path(out) / "report.json").read_text() == oracle_text(bundle) + "\n"
            seen.append(bundle)
            return written

        monkeypatch.setattr(wpi.cli, "write_bundle", write)
        return seen

    @pytest.mark.parametrize("command", ["score", "compare", "simulate", "check-bounds", "report"])
    def test_shipped_config_bundles(self, tmp_path, bundles, command):
        assert run([command, "--out", tmp_path / "out"]) == 0
        assert len(bundles) == 1
        assert _json_text(bundles[0]) == oracle_text(bundles[0])

    @pytest.mark.parametrize("estimator", ["exact-enum", "lz-proxy"])
    def test_wide_chain_bundles(self, tmp_path, bundles, estimator):
        config = ring_config(tmp_path, estimator)
        assert run(["report", "--config", config, "--out", tmp_path / "out", "--steps", 16]) == 0
        [bundle] = bundles
        assert len(bundle["simulations"][0]["transition_counts"]) == 24
        assert _json_text(bundle) == oracle_text(bundle)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [[]], "c": {"d": [], "e": ()}}, [[], {}, [[]]],
        (1, 2), ((1, "x"), (2.5,)), [[1, 2], [3], [-4, 10**30]],
        [1, True, 2], [True], [0, False], [None, 1], [1, 2.0], True, False, None, 0,
        Color.RED, [1, Color.RED], {"c": Color.RED}, Tag.EXACT, [Tag.EXACT], {"t": Tag.EXACT},
        -0.0, 5e-324, 1e308, [-0.0, 5e-324, 1e308, 0.1], np.float64(0.1),
        math.inf, [math.inf, -math.inf, math.nan], {"a": math.inf, "b": {"c": math.nan}},
        (math.nan, 1.0, -math.inf), [1, math.inf],
        "caf\u00e9", "\x00\x1f\t\n\"\\", "\u2028", "\U0001f600", {"\u00e9\n": ["\u2028"]},
        {"b": 1, "a": [{"z": 2, "y": [3, 4]}], "A": "x"},
    ], ids=repr)
    def test_edge_values(self, value):
        assert _json_text(value) == oracle_text(value)

    @pytest.mark.parametrize("value", [np.int64(1), object(), {1, 2}, [1, np.int64(2)],
                                       {"a": [object()]}],
                             ids=["int64", "object", "set", "int64-in-list", "object-in-dict"])
    def test_unserializable_values_raise_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            oracle_text(value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_text(value)

    def test_non_str_keys_raise_type_error(self):
        # json.dumps would write the key 1 as "1"; a bundle's keys are all str,
        # and the writer refuses any other key
        with pytest.raises(TypeError):
            _json_text({1: "a"})
        with pytest.raises(TypeError):
            _json_text({"a": {None: 1}})
