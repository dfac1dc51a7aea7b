"""Computable stand-ins for algorithmic (Kolmogorov) complexity.

True algorithmic complexity is uncomputable, so every estimate here is
tagged with the estimator that produced it:

``exact-enum``
    Length of the shortest program on the tiny reference machine
    (:mod:`wpi.machine`), for states up to 16 bits.  It is defined by
    enumerating programs in canonical order, and computed without running
    any: as a shortest path over the prefixes of the state, which gives
    the same length (``docs/reference_machine.md``, "Computing K").  Exact
    relative to that machine.  :func:`wpi.machine.shortest_length` computes
    it per call; nothing is memoized.

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
codelength difference.  The coder's alphabet is ``"0"``, ``"1"`` and the
separator; any other symbol is a validation error.  A :class:`CoarseState`
checks its bits once, when it is built, with
:func:`wpi.machine.is_binary`, the check that the reference machine uses
too; :func:`lz78_codelength` takes a raw string, so the coder checks its
own symbols as it maps them to trie symbols.

The parse walks a phrase trie held as three lists of child numbers, one
per symbol: ``trie[sym][node]`` is the insertion number of the child of
``node`` on ``sym``, or 0 if there is none.  A node is its insertion
number, the root is 0, and a new phrase appends one 0 to each list, so
the walk reads a list and adds no integers.  Each list is the dictionary
size plus one long, and the codelength follows in closed form from the
dictionary size and whether the parse stopped inside a phrase (a
non-empty remainder).  LZ78 is a greedy online parse: the phrases of ``y``
do not depend on what follows ``y``.  So a conditional estimate parses
``y`` once, reads the codelength of ``y`` from that state, and continues
the same parse over the separator and ``x`` from the node where ``y``
stopped; the result equals parsing the concatenation from scratch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ValidationError
from .machine import is_binary, shortest_length

#: Separator used when concatenating strings for conditional estimates.
SEPARATOR = "|"

#: The LZ78 coder's input alphabet, in trie symbol order.
_ALPHABET = "01" + SEPARATOR
#: Maps each alphabet byte to its trie symbol 0, 1 or 2.  Other bytes map to
#: themselves, so ``_symbol_codes`` rejects them before translating.
_SYMBOL_CODES = bytes.maketrans(_ALPHABET.encode(), bytes(range(len(_ALPHABET))))


class Estimator(str, enum.Enum):
    """Which computable procedure produced a complexity estimate; ``Estimator(name)`` of any
    other name is a :class:`ValidationError` that lists the valid names."""

    EXACT_ENUM = "exact-enum"
    LZ_PROXY = "lz-proxy"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"estimator must be one of {[e.value for e in cls]}, got {value!r}")


@dataclass(frozen=True)
class CoarseState:
    """A coarse-grained system state: a finite binary string, equal by its bits."""

    bits: str

    def __post_init__(self):
        if not is_binary(self.bits):
            raise ValidationError(f"state bits must contain only '0'/'1', got {self.bits!r}")

    def __len__(self):
        return len(self.bits)


@dataclass(frozen=True)
class ComplexityEstimate:
    """An integer bit-count estimate, tagged with its estimator."""

    bits: int
    estimator: Estimator
    conditional_on: CoarseState | None = None


def lz78_codelength(symbols: str) -> int:
    """Total emitted bits for the declared LZ78 coder."""
    trie = ([0], [0], [0])
    node = _lz78_parse(_symbol_codes(symbols), trie, 0)
    return _lz78_bits(trie, node)


def complexity_lz(x: CoarseState) -> ComplexityEstimate:
    """LZ78 codelength of a state's bits; deterministic, 0 for the empty state."""
    return ComplexityEstimate(bits=lz78_codelength(x.bits), estimator=Estimator.LZ_PROXY)


def complexity_exact(x: CoarseState) -> ComplexityEstimate:
    """Length of the shortest reference-machine program producing ``x``."""
    return ComplexityEstimate(bits=shortest_length(x.bits), estimator=Estimator.EXACT_ENUM)


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
        bits = shortest_length(x.bits, y.bits)
    return ComplexityEstimate(bits=bits, estimator=estimator, conditional_on=y)


def estimate_complexity(x: CoarseState, estimator: Estimator) -> ComplexityEstimate:
    """Dispatch to :func:`complexity_lz` or :func:`complexity_exact`."""
    estimator = Estimator(estimator)
    if estimator is Estimator.LZ_PROXY:
        return complexity_lz(x)
    return complexity_exact(x)


def _lz_conditional(x_bits: str, y_bits: str) -> int:
    trie = ([0], [0], [0])
    node = _lz78_parse(_symbol_codes(y_bits), trie, 0)
    alone = _lz78_bits(trie, node)
    node = _lz78_parse(_symbol_codes(SEPARATOR + x_bits), trie, node)
    return max(0, _lz78_bits(trie, node) - alone)


def _symbol_codes(symbols: str) -> bytes:
    raw = symbols.encode()
    if raw.translate(None, _ALPHABET.encode()):
        bad = next(s for s in symbols if s not in _ALPHABET)
        raise ValidationError(f"LZ78 symbols must be '0', '1' or {SEPARATOR!r}, got {bad!r}")
    return raw.translate(_SYMBOL_CODES)


def _lz78_parse(codes: bytes, trie: tuple[list[int], ...], node: int) -> int:
    """Continue the greedy parse of ``codes`` from ``node``, growing ``trie``.

    Returns the node where the parse stops: 0 when the last phrase was
    completed, else the node of the remainder.  Nodes are insertion numbers.
    """
    zero, one, sep = trie
    for sym in codes:
        if child := trie[sym][node]:
            node = child
        else:
            trie[sym][node] = len(zero)
            zero.append(0)
            one.append(0)
            sep.append(0)
            node = 0
    return node


def _lz78_bits(trie: tuple[list[int], ...], node: int) -> int:
    """Bits emitted by a parse that built ``trie`` and stopped at ``node``.

    The pair emitted at dictionary size d costs ``d.bit_length() + 1``
    bits, and the n completed phrases were emitted at sizes 0..n-1.  With
    L = (n - 1).bit_length(), that sum is ``(L + 1) * n - 2**L + 1``; a
    remainder adds one pair at size n.
    """
    phrases = len(trie[0]) - 1
    if phrases == 0:
        return 0
    width = (phrases - 1).bit_length()
    total = (width + 1) * phrases - (1 << width) + 1
    if node:
        total += phrases.bit_length() + 1
    return total
