"""Pinned sampled paths of the shipped config.

Each model's ``trajectory_digest``, ``transition_counts`` and
``first_trajectory`` are pinned for ``wpi report`` (one-step paths, 100,000
samples) and for ``wpi simulate --steps 16 --samples 70001``: 17 uniforms
per path span 5 Philox blocks, and 70,001 rows cross a sampling chunk
boundary.  Their digests are pinned for ``wpi simulate --steps 256 --samples
1000`` too, whose 1,000 rows draw 16 blocks of 4 keys a Philox pass, and the
last key of each path in a pass of its own.  The shipped kernels are dyadic, so two non-dyadic models are
pinned as well: the slow chain's ``1 - 1e-6`` and a seeded dense 40-state
kernel, each for ``wpi simulate --steps 16 --samples 20001``.  A change to
the sampler or to the digest that moves any path or any hashed byte fails
here.
"""

import hashlib
import json
import random

import pytest

from wpi.cli import default_config_path, main

REPORT = {
    "two-state": (
        "4714f4e7a7bbe78246ab912b8fc9933ffb790cde8cada28a778c5e64f5f8f35b",
        [[43909, 6186], [6099, 43806]],
        [1, 1],
    ),
    "four-state": (
        "a5cc8d61b7e9fd2d2ddcad6e2000dd1efa8caa26291a8ab156c74a68aaa81ac9",
        [[21870, 1493, 1188, 386], [433, 22037, 1604, 1173],
         [1185, 398, 21549, 1637], [1552, 1161, 388, 21946]],
        [0, 0],
    ),
    "eight-state": (
        "93cf3312a15f2d28bb22fd6b50416ada09aeb39efcb39b8c0d84c383449b8dc3",
        [[4043, 6355, 0, 0, 0, 0, 0, 2437], [2331, 3910, 6237, 0, 0, 0, 0, 0],
         [0, 2400, 3959, 6321, 0, 0, 0, 0], [0, 0, 2343, 3894, 6318, 0, 0, 0],
         [0, 0, 0, 2268, 3827, 6150, 0, 0], [0, 0, 0, 0, 2287, 3951, 6185, 0],
         [0, 0, 0, 0, 0, 2312, 3934, 6228], [6203, 0, 0, 0, 0, 0, 2292, 3815]],
        [5, 5],
    ),
}

SIMULATE = {
    "two-state": (
        "8d220a06c5c889d4be4e9ff3b8290932478d2e6a71d5bb223999643a60ded7c9",
        [[489131, 70280], [70210, 490395]],
        [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1],
    ),
    "four-state": (
        "63d06fff390373bc5477e5e1323789b8dd2cc4bb1f4d471949e895fd12d7dad0",
        [[245251, 17390, 13137, 4328], [4381, 247186, 17530, 13205],
         [13010, 4301, 243469, 17546], [17506, 13178, 4432, 244166]],
        [0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0],
    ),
    "eight-state": (
        "2d1dd76eabb0b8236a978737b8e7a4127c2d5124f806ca7de7d73f816119cf62",
        [[43562, 69686, 0, 0, 0, 0, 0, 26371], [25971, 43477, 69850, 0, 0, 0, 0, 0],
         [0, 26180, 43800, 70065, 0, 0, 0, 0], [0, 0, 26146, 43931, 70601, 0, 0, 0],
         [0, 0, 0, 26518, 43535, 70425, 0, 0], [0, 0, 0, 0, 26519, 43852, 70047, 0],
         [0, 0, 0, 0, 0, 26270, 44064, 69612], [69834, 0, 0, 0, 0, 0, 25991, 43709]],
        [5, 5, 6, 6, 6, 7, 6, 6, 5, 5, 6, 7, 7, 7, 0, 1, 2],
    ),
}


def simulations(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    bundle = json.loads((out / "report.json").read_text())
    return {s["model"]: s for s in bundle["simulations"]}


@pytest.mark.parametrize("argv, pinned", [
    (["report"], REPORT),
    (["simulate", "--steps", "16", "--samples", "70001"], SIMULATE),
], ids=["report", "simulate-16x70001"])
def test_shipped_paths_are_pinned(tmp_path, argv, pinned):
    sims = simulations(tmp_path, argv)
    assert list(sims) == list(pinned)
    for name, (digest, counts, first) in pinned.items():
        assert sims[name]["trajectory_digest"] == digest, name
        assert sims[name]["transition_counts"] == counts, name
        assert sims[name]["first_trajectory"] == first, name


# `wpi simulate --steps 256 --samples 1000`, in model order
GROUPED = [
    "9a2d8e9efb1c78567c2f5ff98f22a9690e2e254b4c977e3725d3d9c2a745df0b",
    "0ec4dc2fccfecaa9a3c69469eb3051157e054116ff26296656071d2059c73ac6",
    "e6b68b195ef0d6449083b78a05634f1e37ebbee9e4f3740230872a09861b02fe",
]


def test_grouped_passes_are_pinned(tmp_path):
    sims = simulations(tmp_path, ["simulate", "--steps", "256", "--samples", "1000"])
    assert [s["trajectory_digest"] for s in sims.values()] == GROUPED


# Non-dyadic kernels: a CDF entry such as 1 - 1e-6 is no multiple of 2**-k
# for a small k, so it falls strictly inside a bucket of the sampler's guide
# table and is reached by its correction steps.
# Both runs sample 16-step paths over 20,001 rows, across a chunk boundary.
SLOW_KERNEL = [[1 - 1e-6, 1e-6], [3e-6, 1 - 3e-6]]


def dense_model(n=40, seed=2024):
    """A seeded dense kernel and initial law, every row normalised random weights."""
    rng = random.Random(seed)

    def law():
        weights = [rng.random() for _ in range(n)]
        total = sum(weights)
        return [w / total for w in weights]

    return {"name": "dense", "states": [format(i, "06b") for i in range(n)],
            "kernel": [law() for _ in range(n)], "measure": [1.0] * n, "initial": law()}


NON_DYADIC = {
    "slow": (
        {"name": "slow", "states": ["0", "1"], "kernel": SLOW_KERNEL,
         "measure": [1.0, 1.0], "initial": [0.75, 0.25]},
        "ba42461ad0b41b299a048ee1216fab09951064f745c522b3619781d1bee66d5e",
        [[239264, 0], [0, 80752]],
        [1] * 17,
    ),
    "dense": (
        dense_model(),
        "a3b6c2e7bda17f345f0f5fe9343682c4c4d954374694d6533a186d5abd8bf91e",
        "a871f38305a58ef2997013b235f953dda579e083d3b5a07e757a139077700f35",  # sha256 of the counts as JSON
        [32, 8, 35, 18, 14, 20, 11, 5, 34, 32, 13, 2, 2, 22, 31, 15, 39],
    ),
}


@pytest.mark.parametrize("name", list(NON_DYADIC))
def test_non_dyadic_paths_are_pinned(tmp_path, name):
    model, digest, counts, first = NON_DYADIC[name]
    config = json.loads(default_config_path().read_text())
    config["models"] = [model]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    sim = simulations(tmp_path, ["simulate", "--config", str(path),
                                 "--steps", "16", "--samples", "20001"])[name]
    got_counts = sim["transition_counts"]
    if isinstance(counts, str):
        got_counts = hashlib.sha256(json.dumps(got_counts).encode()).hexdigest()
    assert sim["trajectory_digest"] == digest
    assert got_counts == counts
    assert sim["first_trajectory"] == first
