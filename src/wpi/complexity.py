"""Computable stand-ins for algorithmic (Kolmogorov) complexity.

True algorithmic complexity is uncomputable, so every estimate here is
tagged with the estimator that produced it:

``exact-enum``
    Length of the shortest program on the tiny reference machine
    (:mod:`wpi.machine`), for states up to 16 bits.  It is defined by
    enumerating programs in canonical order, and computed without running
    any: as a shortest path over the prefixes of the state, which gives
    the same length (``docs/reference_machine.md``, "Computing K").  Exact
    relative to that machine.

``lz-proxy``
    LZ78 dictionary codelength.  Scales to long strings; the estimate is
    the integer number of bits the declared coder emits.

The LZ78 coder is fixed precisely so results are reproducible bit for bit:
the dictionary starts empty; the input is parsed greedily into phrases,
each phrase being the longest dictionary match plus one fresh symbol,
emitted as an (index, symbol) pair where index 0 is the empty phrase and
phrase n is the n-th insertion.  A non-empty parse remainder is emitted as
a final (index, no-symbol) pair.  Each emitted pair costs
``ceil(log2(d + 1)) + 1`` bits, where ``d`` is the dictionary size at the
moment the pair is emitted.  Conditional estimates encode ``y``, a
separator symbol outside the binary alphabet, then ``x``, and charge the
codelength difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import ValidationError
from .machine import cached_shortest_length

#: Separator used when concatenating strings for conditional estimates.
SEPARATOR = "|"


class Estimator(str, enum.Enum):
    """Which computable procedure produced a complexity estimate."""

    EXACT_ENUM = "exact-enum"
    LZ_PROXY = "lz-proxy"


@dataclass(frozen=True)
class CoarseState:
    """A coarse-grained system state: a finite binary string.

    ``label`` is display metadata only; equality and hashing use the bits,
    so relabeled copies of a state compare equal.
    """

    bits: str
    label: str | None = None

    def __post_init__(self):
        if self.bits.strip("01") != "":
            raise ValidationError(f"state bits must contain only '0'/'1', got {self.bits!r}")

    def __eq__(self, other):
        if not isinstance(other, CoarseState):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __len__(self):
        return len(self.bits)


@dataclass(frozen=True)
class ComplexityEstimate:
    """An integer bit-count estimate, tagged with its estimator."""

    bits: int
    estimator: Estimator
    conditional_on: CoarseState | None = None

    def __post_init__(self):
        if self.bits < 0:
            raise ValidationError(f"complexity estimate must be >= 0 bits, got {self.bits}")


def lz78_pairs(symbols: str) -> list[tuple[int, str | None, int]]:
    """LZ78 parse of ``symbols``: (index, symbol, dict size at emission)."""
    dictionary: dict[str, int] = {}
    pairs: list[tuple[int, str | None, int]] = []
    current = ""
    for s in symbols:
        candidate = current + s
        if candidate in dictionary:
            current = candidate
        else:
            pairs.append((dictionary.get(current, 0), s, len(dictionary)))
            dictionary[candidate] = len(dictionary) + 1
            current = ""
    if current:
        pairs.append((dictionary[current], None, len(dictionary)))
    return pairs


def lz78_codelength(symbols: str) -> int:
    """Total emitted bits for the declared LZ78 coder."""
    total = 0
    for _, _, dict_size in lz78_pairs(symbols):
        total += _ceil_log2(dict_size + 1) + 1
    return total


def complexity_lz(x: CoarseState) -> ComplexityEstimate:
    """LZ78 codelength of a state's bits; deterministic, 0 for the empty state."""
    return ComplexityEstimate(bits=lz78_codelength(x.bits), estimator=Estimator.LZ_PROXY)


def complexity_exact(x: CoarseState) -> ComplexityEstimate:
    """Length of the shortest reference-machine program producing ``x``."""
    return ComplexityEstimate(bits=cached_shortest_length(x.bits), estimator=Estimator.EXACT_ENUM)


def conditional_complexity(x: CoarseState, y: CoarseState, estimator: Estimator) -> ComplexityEstimate:
    """Estimate of K(x | y) under the chosen estimator.

    lz-proxy charges ``max(0, codelen(y + sep + x) - codelen(y))``;
    exact-enum is the length of the shortest program that emits ``x`` with
    ``y`` on the auxiliary tape.
    """
    estimator = Estimator(estimator)
    if estimator is Estimator.LZ_PROXY:
        bits = _lz_conditional(x.bits, y.bits)
    else:
        bits = cached_shortest_length(x.bits, y.bits)
    return ComplexityEstimate(bits=bits, estimator=estimator, conditional_on=y)


def estimate_complexity(x: CoarseState, estimator: Estimator) -> ComplexityEstimate:
    """Dispatch to :func:`complexity_lz` or :func:`complexity_exact`."""
    estimator = Estimator(estimator)
    if estimator is Estimator.LZ_PROXY:
        return complexity_lz(x)
    return complexity_exact(x)


def read_corpus(path: str | Path) -> list[str]:
    """Read a corpus file: newline-delimited ASCII '0'/'1' strings.

    Blank lines are skipped; anything else that is not a binary string is a
    validation error naming the offending line.
    """
    strings: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.strip("01") != "":
            raise ValidationError(f"{path}: line {lineno} is not a binary string: {raw!r}")
        strings.append(line)
    return strings


@lru_cache(maxsize=65536)
def _lz_conditional(x_bits: str, y_bits: str) -> int:
    joint = lz78_codelength(y_bits + SEPARATOR + x_bits)
    return max(0, joint - lz78_codelength(y_bits))


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()
