"""The three benchmark workloads and the checks of their outputs.

A workload is built from its seed (the set-up), then runs whole rounds of
the same operations.  Each round returns its wall time and what it
produced; `check` counts the failed operations and compares the outputs
with the oracles once the timed rounds are over.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import oracles
from inputs import (
    WIDE_STEPS,
    incompressible_share,
    kolmogorov_corpus,
    wide_chain_config,
    write_config,
)

TAIL_DELTAS = (0.01, 0.05, 0.1)


def clear_caches() -> None:
    """Empty every functools cache in `wpi`, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "wpi" or name.startswith("wpi."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    obj.cache_clear()


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


class ReportWorkload:
    """`wpi report` through `wpi.cli.main`, one CLI call per round.

    Operations per round: the CLI call, and one surprisal control per model.
    """

    def __init__(self, name: str, root: Path, config: dict, argv: list[str], steps: int):
        self.name = name
        self.config = config
        self.steps = steps
        self.out = root / ".bench_out" / name
        self.argv = ["report", "--out", str(self.out)] + argv
        self.transitions = len(config["models"]) * config["samples"] * steps
        self.bundles: list[str] = []

    @property
    def ops_per_round(self) -> int:
        return 1 + len(self.config["models"])

    def round(self) -> dict:
        from wpi.cli import main

        report = self.out / "report.json"
        report.unlink(missing_ok=True)
        clear_caches()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(self.argv))
        except Exception as exc:  # a CLI call that raises is a failed operation
            code = repr(exc)
        wall = time.perf_counter() - start
        masked = None
        if code == 0 and report.exists():
            bundle = json.loads(report.read_text())
            bundle["metadata"]["generated_at"] = None
            masked = json.dumps(bundle, sort_keys=True)
            self.bundles.append(masked)
        return {"wall": wall, "code": code, "ok": masked is not None}

    def check(self, rounds: list[dict]) -> tuple[int, list[str], list[str]]:
        """(failed operations, problems, notes) over all rounds."""
        problems: list[str] = []
        notes: list[str] = []
        failed = 0
        bad = [r for r in rounds if not r["ok"]]
        notes += [f"wpi report failed: {r['code']}" for r in bad]
        failed += len(bad) * self.ops_per_round
        if not self.bundles:
            return failed, problems, notes
        if any(b != self.bundles[0] for b in self.bundles):
            problems.append("masked report.json differs between rounds")
        bundle = json.loads(self.bundles[0])
        surprisal_failed = check_bundle(bundle, self.config, self.steps, problems, notes)
        failed += surprisal_failed * len(self.bundles)
        return failed, problems, notes

    def figures(self, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        wall = median([r["wall"] * r["scale"] for r in rounds])
        return {"transitions_per_s": (self.transitions / wall, "1/s")}


def report_default(root: Path, seed: int) -> ReportWorkload:
    """The shipped config as every user runs it; the seed changes nothing."""
    config = json.loads((root / "src/wpi/data/default_config.json").read_text())
    return ReportWorkload("report-default", root, config, ["--assert"], steps=1)


def report_wide_chain(root: Path, seed: int) -> ReportWorkload:
    config = wide_chain_config(seed)
    path = write_config(config, root / ".bench_out" / "report-wide-chain" / f"config-{seed}.json")
    return ReportWorkload("report-wide-chain", root, config,
                          ["--config", str(path), "--steps", str(WIDE_STEPS)], steps=WIDE_STEPS)


class CorpusWorkload:
    """Exact and lz estimates called directly; one operation per estimate."""

    name = "kolmogorov-corpus"

    def __init__(self, root: Path, seed: int):
        corpus = kolmogorov_corpus(seed)
        self.exact_ops = [(x, a) for x, rel, unrel in corpus["exact"] for a in (None, rel, unrel)]
        self.lz_ops = [(x, a) for x, rel, unrel in corpus["lz"] for a in (None, rel, unrel)]
        self.incompressible = incompressible_share(x for x, _, _ in corpus["exact"])
        self.lz_bits = sum(len(x) + len(a or "") for x, a in self.lz_ops)

    @property
    def ops_per_round(self) -> int:
        return len(self.exact_ops) + len(self.lz_ops)

    @staticmethod
    def _estimate(fn, ops, errors: list[str]) -> list[int | None]:
        out = []
        for x, aux in ops:
            try:
                out.append(fn(x, aux))
            except Exception as exc:  # an estimate that raises is a failed operation
                out.append(None)
                errors.append(f"{x[:20]!r} | {(aux or '')[:20]!r}: {exc!r}")
        return out

    def round(self) -> dict:
        from wpi import CoarseState, complexity_exact, complexity_lz, conditional_complexity

        def exact(x, aux):
            if aux is None:
                return complexity_exact(CoarseState(x)).bits
            return conditional_complexity(CoarseState(x), CoarseState(aux), "exact-enum").bits

        def lz(x, aux):
            if aux is None:
                return complexity_lz(CoarseState(x)).bits
            return conditional_complexity(CoarseState(x), CoarseState(aux), "lz-proxy").bits

        errors: list[str] = []
        clear_caches()
        t0 = time.perf_counter()
        exact_bits = self._estimate(exact, self.exact_ops, errors)
        t1 = time.perf_counter()
        lz_bits = self._estimate(lz, self.lz_ops, errors)
        t2 = time.perf_counter()
        return {"wall": t2 - t0, "exact_s": t1 - t0, "lz_s": t2 - t1,
                "exact": exact_bits, "lz": lz_bits, "errors": errors}

    def check(self, rounds: list[dict]) -> tuple[int, list[str], list[str]]:
        problems: list[str] = []
        notes = [f"incompressible share of the exact strings: {self.incompressible:.3f}"]
        want_exact = [oracles.shortest_program_length(x, a or "") for x, a in self.exact_ops]
        want_lz = [oracles.lz78_codelength(x) if a is None else oracles.lz_conditional(x, a)
                   for x, a in self.lz_ops]
        failed = 0
        for r in rounds:
            notes += r["errors"]
            for kind, ops, got, want in (("exact", self.exact_ops, r["exact"], want_exact),
                                         ("lz", self.lz_ops, r["lz"], want_lz)):
                for (x, a), g, w in zip(ops, got, want):
                    if g is None:
                        failed += 1
                    elif g != w:
                        failed += 1
                        problems.append(f"{kind} K({x[:20]!r}|{(a or '')[:20]!r}) = {g}, oracle {w}")
        return failed, problems[:20], notes

    def figures(self, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        return {
            "exact_estimates_per_s":
                (len(self.exact_ops) / median([r["exact_s"] * r["scale"] for r in rounds]), "1/s"),
            "lz_bits_per_s": (self.lz_bits / median([r["lz_s"] * r["scale"] for r in rounds]), "bit/s"),
            "incompressible_share": (self.incompressible, "ratio"),
        }


WORKLOADS = {
    "report-default": report_default,
    "kolmogorov-corpus": CorpusWorkload,
    "report-wide-chain": report_wide_chain,
}


# --- report bundle check -------------------------------------------------------

def check_bundle(bundle: dict, config: dict, steps: int,
                 problems: list[str], notes: list[str]) -> int:
    """Compare a report bundle with the oracles; returns failed surprisal controls."""
    _check_phi(bundle, config, problems)
    seed0, samples, delta = config["seed"], config["samples"], config["delta"]
    sims, checks = bundle["simulations"], bundle["bound_checks"]
    if len(sims) != len(config["models"]) or len(checks) != len(config["models"]):
        problems.append("bundle does not hold one simulation and one bound check per model")
        return 0
    failed = 0
    gates = []
    for index, model in enumerate(config["models"]):
        name, states = model["name"], model["states"]
        n, seed = len(states), seed0 + index
        kernel = [[float(v) for v in row] for row in model["kernel"]]
        paths = oracles.reference_paths(kernel, model["initial"], seed, samples, steps)
        first = oracles.path_counts(paths, n, first_step_only=True)
        sim = sims[index]
        where = f"{name}: simulate"
        _same(problems, where, "seed", sim["seed"], seed)
        _same(problems, where, "states", sim["states"], states)
        _same(problems, where, "transition_counts", sim["transition_counts"],
              oracles.path_counts(paths, n).tolist())
        _same(problems, where, "trajectory_digest", sim["trajectory_digest"],
              oracles.trajectory_digest(paths))
        _same(problems, where, "first_trajectory", sim["first_trajectory"], paths[0].tolist())

        section = checks[index]
        where = f"{name}: check-bounds"
        _same(problems, where, "samples", section["samples"], int(first.sum()))
        k = [oracles.shortest_program_length(s) for s in states]
        d = [[k[j] - k[i] for j in range(n)] for i in range(n)]
        two_d = [[2.0 ** -d[i][j] for j in range(n)] for i in range(n)]
        mean, se = oracles.counted_mean_se(np.array(two_d), first)
        cift = section["complexity_ift"]
        if not (_close(cift["mean"], mean) and _close(cift["se"], se)):
            problems.append(f"{where}: complexity_ift {cift['mean']}±{cift['se']}, oracle {mean}±{se}")
        _same(problems, where, "excursion_above_one", cift["excursion_above_one"],
              cift["mean"] > 1.0 + 3.0 * cift["se"])

        failed += _check_surprisal(section["surprisal_ift"], kernel, model["initial"],
                                   first, where, problems, notes, gates, name)

        x = np.array(two_d)
        total = int(first.sum())
        deltas = sorted(set(TAIL_DELTAS) | {delta})
        if len(section["markov_tail"]) != len(deltas):
            problems.append(f"{where}: {len(section['markov_tail'])} tail checks, expected {len(deltas)}")
        for tail, dl in zip(section["markov_tail"], deltas):
            lhs = int(first[x >= 1.0 / dl].sum()) / total
            rhs = dl * float((x * first).sum()) / total
            if not tail["lhs"] <= tail["rhs"]:
                problems.append(f"{where}: tail delta={dl} has lhs {tail['lhs']} > rhs {tail['rhs']}")
            if tail["delta"] != dl or tail["lhs"] != lhs or not _close(tail["rhs"], rhs):
                problems.append(f"{where}: tail delta={dl} lhs/rhs {tail['lhs']}/{tail['rhs']}, "
                                f"oracle {lhs}/{rhs}")
            allowance = 3.0 * math.sqrt(max(tail["lhs"] * (1.0 - tail["lhs"]), 0.0) / total)
            gates.append((f"markov_tail_delta_{tail['delta']}", name,
                          tail["lhs"] <= tail["rhs"] + allowance))

        for kind in ("efficiency", "adaptivity"):
            _check_coupled(section[f"coupled_{kind}"], kind, kernel, states, k, first,
                           delta, f"{where}: coupled_{kind}", problems, gates, name)

    got = [(g["gate"], g["model"], g["passed"]) for g in bundle["gates"]]
    if sorted(got) != sorted(gates):
        problems.append(f"gate verdicts {sorted(set(got) - set(gates))} differ from "
                        f"recomputed {sorted(set(gates) - set(got))}")
    return failed


def _same(problems, where, what, got, want):
    if got != want:
        problems.append(f"{where}: {what} {str(got)[:60]} != oracle {str(want)[:60]}")


def _check_phi(bundle, config, problems):
    rows = oracles.phi_rows(config)
    reports = bundle["wpi_reports"]
    if len(reports) != len(rows):
        problems.append("wpi_reports does not hold one row per trace")
        return
    for got, want in zip(reports, rows):
        for key in ("phi", "phi_lower_bound", "reversible_floor"):
            if (got["substrate"], got["suite"]) != (want["substrate"], want["suite"]) \
                    or not _close(got[key], want[key], 1e-12):
                problems.append(f"score {want['substrate']}: {key} {got[key]}, oracle {want[key]}")
        if not got["phi"] >= got["phi_lower_bound"]:
            problems.append(f"score {want['substrate']}: phi below its lower bound")
    for comparison in bundle["comparison"]:
        mine = sorted((r for r in rows if r["suite"] == comparison["suite"]),
                      key=lambda r: (r["phi"], r["substrate"]))
        if comparison["ordering"] != [r["substrate"] for r in mine]:
            problems.append(f"comparison {comparison['suite']}: ordering {comparison['ordering']}")
        for got, want in zip(comparison["rows"], mine):
            if not (_close(got["phi"], want["phi"], 1e-12)
                    and _close(got["phi_lower_bound"], want["phi_lower_bound"], 1e-12)):
                problems.append(f"comparison {comparison['suite']}: row {got['name']} phi/bound")


def _check_surprisal(surprisal, kernel, initial, first, where, problems, notes, gates, name):
    """One operation: the model's surprisal control.  Returns 1 if it failed."""
    if surprisal["mean"] is None:
        notes.append(f"{where}: surprisal control failed: {surprisal.get('note')}")
        return 1
    pi = oracles.stationary_law(kernel)
    weights = oracles.surprisal_weights(kernel, pi)
    mean, se = oracles.counted_mean_se(weights, first)
    if not (_close(surprisal["mean"], mean) and _close(surprisal["se"], se, 1e-6)):
        problems.append(f"{where}: surprisal {surprisal['mean']}±{surprisal['se']}, oracle {mean}±{se}")
    expected = oracles.expected_surprisal(kernel, initial, pi)
    if abs(surprisal["mean"] - expected) > 3.0 * surprisal["se"]:
        problems.append(f"{where}: surprisal mean {surprisal['mean']} is more than 3 SE "
                        f"from the analytic {expected}")
    m, s = surprisal["mean"], surprisal["se"]
    gates.append(("surprisal_ift_window", name, 0.95 <= m <= 1.05))
    gates.append(("surprisal_ift_identity", name, abs(m - 1.0) <= 3.0 * s))
    return 0


def _check_coupled(suite, kind, kernel, states, k, first, delta, where, problems, gates, name):
    n = len(states)
    checks, weights = [], []
    for i in range(n):
        for j in range(n):
            if first[i, j] and k[j] > k[i]:
                k_cond = oracles.shortest_program_length(states[i], states[j])
                rhs = (math.log2(1.0 / kernel[i][j]) - k_cond) / 1.0 + math.log2(1.0 / delta)
                checks.append((1.0, rhs, 1.0 <= rhs))
                weights.append(int(first[i, j]))
    valid = sum(weights)
    held = sum(w for w, (_, _, h) in zip(weights, checks) if h)
    rate = held / valid if valid else 1.0
    got = [(c["lhs"], c["rhs"], c["holds"]) for c in suite["checks"]]
    if len(got) != len(checks) or any(
            g[0] != c[0] or g[2] != c[2] or not _close(g[1], c[1], 1e-12)
            for g, c in zip(got, checks)):
        problems.append(f"{where}: {len(got)} pair checks differ from the {len(checks)} recomputed")
    _same(problems, where, "check_weights", list(suite["check_weights"]), weights)
    _same(problems, where, "valid_samples", suite["valid_samples"], valid)
    _same(problems, where, "total_transitions", suite["total_transitions"], int(first.sum()))
    if not _close(suite["holds_rate"], rate, 1e-12):
        problems.append(f"{where}: holds_rate {suite['holds_rate']}, oracle {rate}")
    if valid:
        se = math.sqrt(delta * (1.0 - delta) / valid)
        gates.append((f"coupled_{kind}_holds_rate", name,
                      suite["holds_rate"] >= 1.0 - delta - 3.0 * se))
