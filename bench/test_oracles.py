"""Each oracle against brute force on small cases.

    python3 -m pytest bench/test_oracles.py

These tests use numpy and the standard library only; they do not import
`wpi`, so they check the oracles, not the program.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

import oracles


# --- trajectories ---------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 42, 2**40 + 3])
def test_philox_uniforms_match_fresh_generators(seed):
    got = oracles.philox_uniforms(seed, 50, 6)
    for i in range(50):
        want = np.random.Generator(np.random.Philox(key=[seed, i])).random(6)
        assert np.array_equal(got[i], want)


def _brute_paths(kernel, initial, seed, count, steps):
    def draw(probs, u):
        total, index = 0.0, 0
        for p in probs:
            total += p
            if total <= u:
                index += 1
        return min(index, len(probs) - 1)

    paths = []
    for i in range(count):
        u = np.random.Generator(np.random.Philox(key=[seed, i])).random(steps + 1)
        path = [draw(initial, u[0])]
        for k in range(steps):
            path.append(draw(kernel[path[-1]], u[k + 1]))
        paths.append(path)
    return paths


def test_reference_paths_counts_and_digest_match_brute_force():
    kernel = [[0.5, 0.25, 0.25], [0.1, 0.8, 0.1], [0.0, 0.3, 0.7]]
    initial = [0.2, 0.3, 0.5]
    paths = oracles.reference_paths(kernel, initial, 7, 300, 5)
    brute = _brute_paths(kernel, initial, 7, 300, 5)
    assert paths.tolist() == brute

    counts = np.zeros((3, 3), dtype=int)
    first = np.zeros((3, 3), dtype=int)
    digest = hashlib.sha256()
    for path in brute:
        for a, b in zip(path, path[1:]):
            counts[a, b] += 1
        first[path[0], path[1]] += 1
        digest.update((",".join(map(str, path)) + ";").encode())
    assert np.array_equal(oracles.path_counts(paths, 3), counts)
    assert np.array_equal(oracles.path_counts(paths, 3, first_step_only=True), first)
    assert oracles.trajectory_digest(paths) == digest.hexdigest()


# --- exact complexity -------------------------------------------------------

def _run(program: str, aux: str) -> str:
    """The reference machine of docs/reference_machine.md, read literally."""
    out, pos = "", 0
    while pos < len(program):
        if len(program) - pos == 1:
            break
        op = program[pos:pos + 2]
        if op == "11":
            if len(program) - pos < 3:
                break
            op = program[pos:pos + 3]
        pos += len(op)
        if op == "00":
            out += "0"
        elif op == "01":
            out += "1"
        elif op == "10":
            out += out
        elif op == "110":
            out += program[pos:]
            break
        else:
            out += aux
    return out


def _enumerated_lengths(max_len: int, aux: str) -> dict[str, int]:
    table: dict[str, int] = {}
    for length in range(max_len + 1):
        for bits in itertools.product("01", repeat=length):
            table.setdefault(_run("".join(bits), aux), length)
    return table


@pytest.mark.parametrize("aux", ["", "1", "0110", "101"])
def test_shortest_path_matches_enumeration_up_to_10_bits(aux):
    table = _enumerated_lengths(13, aux)
    rng = random.Random(aux)
    strings = ["".join(b) for n in range(8) for b in itertools.product("01", repeat=n)]
    strings += ["".join(rng.choice("01") for _ in range(n)) for n in (8, 9, 10) for _ in range(40)]
    for x in strings:
        assert oracles.shortest_program_length(x, aux) == table[x], x


def test_shortest_path_documented_examples():
    assert oracles.shortest_program_length("") == 0
    assert oracles.shortest_program_length("01" * 8) == 10
    assert oracles.shortest_program_length("1010", "1010") == 3
    assert oracles.shortest_program_length("1011") == 7


# --- LZ78 ---------------------------------------------------------------------

def _brute_lz78(symbols: str) -> int:
    phrases: list[str] = []
    total, pos = 0, 0
    while pos < len(symbols):
        match = max((p for p in phrases if symbols.startswith(p, pos)), key=len, default="")
        total += math.ceil(math.log2(len(phrases) + 1)) + 1
        if pos + len(match) == len(symbols):
            break
        phrases.append(symbols[pos:pos + len(match) + 1])
        pos += len(match) + 1
    return total


def test_lz78_matches_brute_force():
    rng = random.Random(5)
    cases = ["", "0", "1", "00", "01", "0000", "0101|1", "|"]
    cases += ["".join(rng.choice("01|") for _ in range(rng.randint(1, 80))) for _ in range(300)]
    for s in cases:
        assert oracles.lz78_codelength(s) == _brute_lz78(s), s


def test_lz_conditional_is_clamped_difference():
    x, y = "0110" * 20, "0110" * 25
    assert oracles.lz_conditional(x, y) == max(
        0, _brute_lz78(y + "|" + x) - _brute_lz78(y))


# --- stationary law and surprisal ----------------------------------------------

def test_stationary_law_matches_matrix_power():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        kernel = rng.random((n, n)) + 0.05
        kernel /= kernel.sum(axis=1, keepdims=True)
        limit = np.linalg.matrix_power(kernel, 4096)[0]
        assert np.allclose(oracles.stationary_law(kernel), limit, atol=1e-12)


def test_stationary_law_of_the_slow_chain():
    kernel = [[1 - 1e-6, 1e-6], [3e-6, 1 - 3e-6]]
    assert np.allclose(oracles.stationary_law(kernel), [0.75, 0.25], atol=1e-9)


def test_expected_surprisal_matches_direct_sum_of_logs():
    rng = np.random.default_rng(4)
    kernel = rng.random((4, 4))
    kernel[0, 3] = kernel[3, 0] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    initial = np.array([0.1, 0.2, 0.3, 0.4])
    pi = oracles.stationary_law(kernel)
    direct = 0.0
    for i in range(4):
        for j in range(4):
            if kernel[i, j] > 0:
                sigma = (math.log2(kernel[i, j] * pi[i])
                         - math.log2(kernel[j, i] * pi[j]))
                direct += initial[i] * kernel[i, j] * 2.0 ** -sigma
    assert math.isclose(oracles.expected_surprisal(kernel, initial, pi), direct, rel_tol=1e-12)
    # started from the stationary law, the identity E[2^-sigma] = 1 holds
    assert math.isclose(oracles.expected_surprisal(kernel, pi, pi), 1.0, rel_tol=1e-12)


def test_counted_mean_se_matches_expanded_samples():
    values = np.array([[1.0, 2.0], [0.5, 4.0]])
    counts = np.array([[3, 1], [2, 4]])
    samples = np.repeat(values.ravel(), counts.ravel())
    mean, se = oracles.counted_mean_se(values, counts)
    assert math.isclose(mean, samples.mean())
    assert math.isclose(se, samples.std(ddof=1) / math.sqrt(samples.size))


# --- phi ------------------------------------------------------------------------

def test_phi_rows_by_hand():
    config = {
        "substrates": [{"name": "cpu", "temperature": 300.0, "overhead_mem": 40.0,
                        "overhead_ctrl": 5.0, "algorithmic_yield": 1.0,
                        "extra_overheads": {"link": 1.5}}],
        "suites": [{"id": "s", "tasks": [
            {"id": "b", "weight": 2.0, "performance": 0.5},
            {"id": "a", "weight": 1.0, "performance": 1.0}]}],
        "traces": [{"substrate": "cpu", "suite": "s", "irreversible_ops": 10**6,
                    "duration": 2.0}],
    }
    (row,) = oracles.phi_rows(config)
    c = 1.380649e-23 * 300.0 * math.log(2)
    assert math.isclose(row["phi"], 300.0 * 10**6 * c / 2.0 / 2.0, rel_tol=1e-15)
    assert math.isclose(row["phi_lower_bound"], c * 300.0 / 2.0, rel_tol=1e-15)
    assert math.isclose(row["reversible_floor"], c / 2.0, rel_tol=1e-15)
