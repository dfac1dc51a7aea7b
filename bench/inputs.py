"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and returns plain data (a config
dict, lists of strings); `wpi` only ever sees these generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracles import shortest_program_length

#: Transitions per trajectory in `report-wide-chain` (`wpi report --steps`).
WIDE_STEPS = 16
#: Trajectories per model in `report-wide-chain` (the config's `samples`).
WIDE_SAMPLES = 4000
#: Ring size and state lengths in `report-wide-chain`: the ring alternates
#: periodic states (complexity at most STRUCTURED_K) and incompressible ones,
#: each half cycling through the lengths.
RING_STATES = 24
RING_BITS = (8, 13)
#: The config's own sampling seed.  It is fixed, so the sampled paths (and
#: the statistical surprisal checks on them) are the same for every
#: workload seed; the seed varies the states, and with them the
#: complexity work, the cache hits and the coupled pair checks.
WIDE_SIM_SEED = 20250401

#: Shipped four-state chain (exact binary fractions, doubly stochastic).
FOUR_STATE = {
    "name": "four-state",
    "states": ["0000", "0101", "0110", "1011"],
    "kernel": [[0.875, 0.0625, 0.046875, 0.015625],
               [0.015625, 0.875, 0.0625, 0.046875],
               [0.046875, 0.015625, 0.875, 0.0625],
               [0.0625, 0.046875, 0.015625, 0.875]],
    "measure": [1.0, 0.5, 2.0, 0.25],
    "initial": [0.25, 0.25, 0.25, 0.25],
}
#: Ergodic chain with pi = (0.75, 0.25) that mixes too slowly for a
#: 100,000-step power iteration.
SLOW_KERNEL = [[1 - 1e-6, 1e-6], [3e-6, 1 - 3e-6]]
SLOW_PI = [0.75, 0.25]

#: kolmogorov-corpus make-up: one incompressible string per length, and
#: structured strings of 10-16 bits with complexity exactly 12.
INCOMPRESSIBLE_BITS = range(8, 14)
STRUCTURED_STRINGS = 9
STRUCTURED_K = 12
LZ_STRINGS = 9
LZ_BITS = 64_000


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _random_bits(rng: random.Random, n: int, p_one: float = 0.5) -> str:
    if p_one == 0.5:
        return format(rng.getrandbits(n), f"0{n}b") if n else ""
    return "".join("1" if rng.random() < p_one else "0" for _ in range(n))


def _periodic(rng: random.Random, n: int) -> str:
    period = _random_bits(rng, rng.randint(1, 4))
    return (period * n)[:n]


def _cheap_periodic(rng: random.Random, n: int) -> str:
    """A periodic n-bit string with a program of at most STRUCTURED_K bits."""
    while True:
        x = _periodic(rng, n)
        if shortest_program_length(x) <= STRUCTURED_K:
            return x


def _incompressible(rng: random.Random, n: int) -> str:
    """A uniformly random n-bit string whose shortest program is LITERAL."""
    while True:
        x = _random_bits(rng, n)
        if shortest_program_length(x) == n + 3:
            return x


def _structured(rng: random.Random) -> str:
    """Output of a random WRITE/DOUBLE program of STRUCTURED_K bits.

    Drawn again until the output has 10-16 bits and no shorter program
    produces it, so its complexity is exactly STRUCTURED_K, below len + 3.
    """
    while True:
        out = ""
        for _ in range(STRUCTURED_K // 2):
            op = rng.choice("01D") if out else rng.choice("01")
            out = out + out if op == "D" else out + op
        if 10 <= len(out) <= 16 and shortest_program_length(out) == STRUCTURED_K:
            return out


def _distinct(make, count: int) -> list[str]:
    seen: list[str] = []
    while len(seen) < count:
        s = make(len(seen))
        if s not in seen:
            seen.append(s)
    return seen


def wide_chain_config(seed: int) -> dict:
    """Config for `report-wide-chain`: a ring, the four-state chain, a slow chain."""
    rng = _rng(seed, "wide-chain")
    lo, hi = RING_BITS
    lengths = [lo + i % (hi - lo + 1) for i in range(RING_STATES // 2)]
    rng.shuffle(lengths)

    def ring_state(i: int) -> str:
        n = lengths[i // 2]
        return _cheap_periodic(rng, n) if i % 2 == 0 else _incompressible(rng, n)

    ring = _distinct(ring_state, RING_STATES)
    n = len(ring)
    stay, forward, back = 0.75, 0.1875, 0.0625
    kernel = [[0.0] * n for _ in range(n)]
    for i in range(n):
        kernel[i][i] = stay
        kernel[i][(i + 1) % n] = forward
        kernel[i][(i - 1) % n] = back
    slow = _distinct(lambda i: _random_bits(rng, 8), 2)

    substrates = [
        {
            "name": f"sub{i}",
            "temperature": 300.0,
            "overhead_mem": float(rng.randint(1, 64)),
            "overhead_ctrl": float(rng.randint(1, 8)),
            "algorithmic_yield": 1.0,
            "extra_overheads": {},
            "overhead_source": "generated",
        }
        for i in range(3)
    ]
    tasks = [
        {"id": f"task{i}", "weight": float(rng.randint(1, 4)),
         "performance": rng.randint(0, 8) / 8}
        for i in range(4)
    ]
    tasks[0]["performance"] = 1.0  # keep intelligence > 0
    return {
        "seed": WIDE_SIM_SEED,
        "samples": WIDE_SAMPLES,
        "delta": 0.05,
        "estimator": "exact-enum",
        "substrates": substrates,
        "suites": [{"id": "generated-suite", "tasks": tasks}],
        "traces": [
            {"substrate": s["name"], "suite": "generated-suite",
             "irreversible_ops": 1_000_000, "duration": 1.0}
            for s in substrates
        ],
        "models": [
            {
                "name": "ring",
                "states": ring,
                "labels": [None] * n,
                "kernel": kernel,
                "measure": [2.0 ** -rng.randint(0, 3) for _ in ring],
                "initial": [1.0 / n] * n,
            },
            dict(FOUR_STATE, labels=[None] * 4),
            {
                "name": "slow",
                "states": slow,
                "labels": [None, None],
                "kernel": SLOW_KERNEL,
                "measure": [1.0, 1.0],
                "initial": SLOW_PI,
            },
        ],
    }


def write_config(config: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def kolmogorov_corpus(seed: int) -> dict:
    """Strings and aux strings for `kolmogorov-corpus`.

    ``exact`` holds (x, related aux, unrelated aux) triples: incompressible
    strings of 8-13 bits and structured strings of 10-16 bits.  The related
    aux is the first half of x; the unrelated aux is a random 8-bit string
    that does not shorten x's program.  The complexities are fixed per
    slot, so every seed asks for the same amount of enumeration.  ``lz``
    holds triples of long strings from random, biased and noisy periodic
    sources, with a noisy copy of x as the related aux.
    """
    rng = _rng(seed, "corpus")
    plain = [_incompressible(rng, n) for n in INCOMPRESSIBLE_BITS]
    plain += _distinct(lambda i: _structured(rng), STRUCTURED_STRINGS)
    exact = []
    for x in plain:
        k = shortest_program_length(x)
        while True:
            unrelated = _random_bits(rng, 8)
            if shortest_program_length(x, unrelated) == k:
                break
        exact.append((x, x[:len(x) // 2], unrelated))

    sources = [
        lambda: _random_bits(rng, LZ_BITS),
        lambda: _random_bits(rng, LZ_BITS, p_one=0.1),
        lambda: _noisy(rng, _periodic(rng, LZ_BITS), 0.02),
    ]
    lz = []
    for i in range(LZ_STRINGS):
        x = sources[i % len(sources)]()
        lz.append((x, _noisy(rng, x, 0.05), _random_bits(rng, LZ_BITS)))
    return {"exact": exact, "lz": lz}


def _noisy(rng: random.Random, s: str, flip: float) -> str:
    return "".join(("1" if c == "0" else "0") if rng.random() < flip else c for c in s)


def incompressible_share(strings) -> float:
    """Share of strings whose exact K is len + 3 (LITERAL is shortest)."""
    strings = list(strings)
    hits = sum(shortest_program_length(x) == len(x) + 3 for x in strings)
    return hits / len(strings)
