"""Reference computations the benchmark checks `wpi`'s outputs against.

Every function here is written from a specification, not from the
program's code, and imports nothing from `wpi`:

- trajectories: numpy's own ``Generator(Philox(key=[seed, i]))`` per
  trajectory, then the inverse CDF "number of CDF entries <= u, clipped to
  n - 1" (the contract stated in `wpi.markov`);
- exact K: a shortest path over the prefixes of the target, derived from
  `docs/reference_machine.md` (every instruction only appends, so a
  program for x only ever passes through prefixes of x);
- LZ78 codelengths: a trie coder following the spec in the docstring of
  `wpi.complexity`;
- the stationary law by a linear solve, and the surprisal control
  E[2^-sigma] summed over transition pairs;
- phi and its lower bound from ``k_B = 1.380649e-23`` and the config.

`test_oracles.py` checks each of them against brute force on small cases.
"""

from __future__ import annotations

import hashlib
import math
from itertools import accumulate

import numpy as np

#: Boltzmann constant, exact SI value (J/K).
K_B = 1.380649e-23

#: Separator symbol placed between aux and target for conditional LZ.
LZ_SEPARATOR = "|"


# --- trajectories ---------------------------------------------------------

def philox_uniforms(seed: int, count: int, k: int) -> np.ndarray:
    """Row i holds ``Generator(Philox(key=[seed, i])).random(k)``.

    One bit generator is re-keyed per row through its public ``state``
    setter, which yields the same stream as constructing a fresh one
    (checked in the tests) at a third of the cost.
    """
    bitgen = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": None},
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((count, k))
    for i in range(count):
        state["state"]["key"] = np.array([seed, i], dtype=np.uint64)
        bitgen.state = state
        out[i] = gen.random(k)
    return out


def cdf(row) -> np.ndarray:
    """Left-to-right running sum of a probability row."""
    return np.array(list(accumulate(float(v) for v in row)))


def reference_paths(kernel, initial, seed: int, count: int, steps: int) -> np.ndarray:
    """State paths, shape (count, steps + 1), drawn by inverse CDF."""
    n = len(initial)
    kernel_cdf = np.array([cdf(row) for row in kernel])
    u = philox_uniforms(seed, count, steps + 1)
    paths = np.empty((count, steps + 1), dtype=np.int64)
    state = np.minimum((cdf(initial)[None, :] <= u[:, :1]).sum(axis=1), n - 1)
    paths[:, 0] = state
    for k in range(1, steps + 1):
        state = np.minimum((kernel_cdf[state] <= u[:, k:k + 1]).sum(axis=1), n - 1)
        paths[:, k] = state
    return paths


def path_counts(paths: np.ndarray, n: int, first_step_only: bool = False) -> np.ndarray:
    """Matrix of (source, target) transition counts along the paths."""
    src = paths[:, :1] if first_step_only else paths[:, :-1]
    dst = paths[:, 1:2] if first_step_only else paths[:, 1:]
    flat = np.bincount((src * n + dst).ravel(), minlength=n * n)
    return flat.reshape(n, n)


def trajectory_digest(paths: np.ndarray) -> str:
    """sha256 over ``"s0,s1,...,sk;"`` for each trajectory in index order."""
    text = "".join(",".join(map(str, row)) + ";" for row in paths.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


# --- complexity -----------------------------------------------------------

def shortest_program_length(x: str, aux: str = "") -> int:
    """Length of the shortest reference-machine program that outputs x.

    Nodes are the prefixes x[:k]; edges are the instructions that keep the
    output a prefix of x: WRITE (2 bits, k -> k+1), DOUBLE (2 bits,
    k -> 2k when x[k:2k] == x[:k]), COPY_AUX (3 bits, when aux occurs at k)
    and LITERAL (3 + n - k bits, k -> n).  All useful edges go forward, so
    one pass in order of k is a shortest-path computation.
    """
    n = len(x)
    best = [math.inf] * (n + 1)
    best[0] = 0
    for k in range(n):
        cost = best[k]
        best[n] = min(best[n], cost + 3 + n - k)
        best[k + 1] = min(best[k + 1], cost + 2)
        if k >= 1 and 2 * k <= n and x[k:2 * k] == x[:k]:
            best[2 * k] = min(best[2 * k], cost + 2)
        if aux and x.startswith(aux, k):
            best[k + len(aux)] = min(best[k + len(aux)], cost + 3)
    return int(best[n])


def lz78_codelength(symbols: str) -> int:
    """Bits emitted by the declared LZ78 coder, using a phrase trie.

    Each (index, symbol) pair costs ceil(log2(d + 1)) + 1 bits, d being
    the number of phrases before the pair; a non-empty remainder is one
    more pair at the final dictionary size.
    """
    children: list[dict[str, int]] = [{}]
    node = 0
    total = 0
    for ch in symbols:
        nxt = children[node].get(ch)
        if nxt is not None:
            node = nxt
            continue
        total += (len(children) - 1).bit_length() + 1
        children[node][ch] = len(children)
        children.append({})
        node = 0
    if node:
        total += (len(children) - 1).bit_length() + 1
    return total


def lz_conditional(x: str, y: str) -> int:
    """max(0, codelen(y + separator + x) - codelen(y))."""
    return max(0, lz78_codelength(y + LZ_SEPARATOR + x) - lz78_codelength(y))


# --- stationary law and surprisal ------------------------------------------

def stationary_law(kernel) -> np.ndarray:
    """Solve pi K = pi with sum(pi) = 1 directly (no iteration)."""
    k = np.asarray(kernel, dtype=float)
    n = k.shape[0]
    a = np.vstack([k.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.abs(pi @ k - pi).sum() > 1e-10 or np.any(pi <= 0):
        raise ValueError("no positive stationary law")
    return pi


def surprisal_weights(kernel, pi) -> np.ndarray:
    """2^-sigma(x, y) per pair; 0 where the forward or reverse move is 0.

    sigma = log2(P(y|x) pi(x)) - log2(P(x|y) pi(y)), so 2^-sigma is
    P(x|y) pi(y) / (P(y|x) pi(x)).
    """
    k = np.asarray(kernel, dtype=float)
    out = np.zeros_like(k)
    for i in range(k.shape[0]):
        for j in range(k.shape[0]):
            if k[i, j] > 0 and k[j, i] > 0:
                out[i, j] = k[j, i] * pi[j] / (k[i, j] * pi[i])
    return out


def expected_surprisal(kernel, initial, pi) -> float:
    """E[2^-sigma] over one step started from ``initial``."""
    k = np.asarray(kernel, dtype=float)
    w = surprisal_weights(k, pi)
    return float(sum(initial[i] * k[i, j] * w[i, j]
                     for i in range(k.shape[0]) for j in range(k.shape[0])))


def counted_mean_se(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error for per-pair values with counts."""
    n = int(counts.sum())
    mean = float((values * counts).sum() / n)
    var = float((counts * (values - mean) ** 2).sum() / (n - 1)) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


# --- phi --------------------------------------------------------------------

def phi_rows(config: dict) -> list[dict]:
    """Phi, its lower bound and reversible floor per (substrate, suite) trace."""
    substrates = {s["name"]: s for s in config["substrates"]}
    suites = {s["id"]: s for s in config["suites"]}
    rows = []
    for trace in config["traces"]:
        sub = substrates[trace["substrate"]]
        factor = sub["overhead_mem"] * sub["overhead_ctrl"]
        for v in sub.get("extra_overheads", {}).values():
            factor *= v
        c = K_B * sub["temperature"] * math.log(2)
        tasks = sorted(suites[trace["suite"]]["tasks"], key=lambda t: t["id"])
        intelligence = math.fsum(t["weight"] * t["performance"] for t in tasks)
        power = factor * trace["irreversible_ops"] * c / trace["duration"]
        alpha_tau = sub["algorithmic_yield"] * trace["duration"]
        rows.append({
            "substrate": trace["substrate"],
            "suite": trace["suite"],
            "phi": power / intelligence,
            "phi_lower_bound": c * factor / alpha_tau,
            "reversible_floor": c / alpha_tau,
        })
    return rows
