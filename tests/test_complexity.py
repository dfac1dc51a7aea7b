"""Complexity estimator tests: LZ78 proxy, exact enumeration, conditionals."""

import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wpi import (
    CoarseState,
    Estimator,
    ValidationError,
    complexity_exact,
    complexity_lz,
    conditional_complexity,
    estimate_complexity,
    lz78_codelength,
    model_table,
    two_state_chain,
)
from wpi.complexity import SEPARATOR
from wpi.machine import DEFAULT_MACHINE

CORPUS_PATH = Path(__file__).parent / "data" / "corpus.txt"
CORPUS = CORPUS_PATH.read_text().split()


#: Values that only look binary: non-ASCII digits and a superscript one,
#: 64,000-bit strings spoiled at their last character, and values that are
#: not a str.
NOT_BINARY = {
    "fullwidth-one": "0\uff11",
    "arabic-indic-one": "01\u0661",
    "superscript-one": "\u00b9",
    "64000-bits-last-2": "01" * 31_999 + "02",
    "64000-bits-last-fullwidth-one": "01" * 31_999 + "0\uff11",
    "int": 5,
    "bytes": b"01",
}


def rand_bits(n, seed):
    rng = np.random.default_rng(seed)
    return "".join("01"[b] for b in rng.integers(0, 2, n))


def biased_bits(n, seed, p_one):
    rng = np.random.default_rng(seed)
    return "".join("01"[int(b)] for b in rng.random(n) < p_one)


def lz78_pairs(symbols):
    """Reference LZ78 parse of ``symbols``: (index, symbol, dict size at emission).

    The naive definition, a dictionary of phrase strings, kept as the
    oracle for the trie parse in ``wpi.complexity``.
    """
    dictionary = {}
    pairs = []
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


def oracle_codelength(symbols):
    return sum(math.ceil(math.log2(dict_size + 1)) + 1 for _, _, dict_size in lz78_pairs(symbols))


def oracle_conditional(x, y):
    return max(0, oracle_codelength(y + SEPARATOR + x) - oracle_codelength(y))


def ends_mid_phrase(symbols):
    pairs = lz78_pairs(symbols)
    return bool(pairs) and pairs[-1][1] is None


class TestLzCoder:
    def test_empty_string_is_zero_bits(self):
        assert complexity_lz(CoarseState("")).bits == 0

    def test_deterministic(self):
        state = CoarseState(rand_bits(200, 5))
        assert complexity_lz(state).bits == complexity_lz(state).bits

    def test_frozen_codelengths(self):
        # values computed once with the declared coder and pinned
        assert lz78_codelength("0" * 1024) == 252
        assert lz78_codelength("0" * 256) == 107

    def test_regularity_compresses_against_same_length_random(self):
        random_1024 = rand_bits(1024, 99)
        assert lz78_codelength("0" * 1024) < lz78_codelength(random_1024)
        # per-bit rate comparison across the originally stated lengths
        rate_regular = lz78_codelength("0" * 1024) / 1024
        rate_random = lz78_codelength(rand_bits(64, 17)) / 64
        assert rate_regular < rate_random

    def test_subadditivity_over_corpus(self):
        for x in CORPUS:
            assert lz78_codelength(x + x) <= 2 * lz78_codelength(x)

    def test_codelength_matches_pair_formula(self):
        for x in CORPUS[:8]:
            assert oracle_codelength(x) == lz78_codelength(x)

    @pytest.mark.parametrize("bad", ["\x00", "\x01", "\x02", "2", "a", " ", "é", "€"])
    def test_symbol_outside_alphabet_is_named(self, bad):
        # the control bytes are the trie's own symbol codes: they must not
        # pass as "0", "1" or the separator
        for symbols in (bad, "01" + bad + "10", "0|1" + bad):
            with pytest.raises(ValidationError, match=re.escape(repr(bad))):
                lz78_codelength(symbols)

    @pytest.mark.parametrize("symbols", [5, b"01", None])
    def test_symbols_that_are_not_a_str_are_named(self, symbols):
        with pytest.raises(ValidationError, match=re.escape(f"got {symbols!r}")):
            lz78_codelength(symbols)

    def test_estimates_are_integers(self):
        for x in CORPUS:
            estimate = complexity_lz(CoarseState(x))
            assert isinstance(estimate.bits, int)
            assert estimate.estimator is Estimator.LZ_PROXY


class TestConditionalLz:
    def test_self_conditioning_compresses_repetitive_input(self):
        x = CoarseState("0" * 256)
        conditional = conditional_complexity(x, x, Estimator.LZ_PROXY).bits
        assert conditional == 61  # pinned from the declared coder
        assert conditional < complexity_lz(x).bits

    def test_empty_given_anything_is_zero(self):
        for y in CORPUS[:6]:
            estimate = conditional_complexity(
                CoarseState(""), CoarseState(y), Estimator.LZ_PROXY
            )
            assert estimate.bits == 0

    def test_conditional_never_negative(self):
        for x, y in itertools.islice(itertools.product(CORPUS, repeat=2), 60):
            bits = conditional_complexity(
                CoarseState(x), CoarseState(y), Estimator.LZ_PROXY
            ).bits
            assert bits >= 0

    def test_separator_overhead_at_most_two_phrase_codes(self):
        # inserting the separator symbol costs at most two extra phrase codes
        # relative to plain concatenation
        for x, y in itertools.islice(itertools.product(CORPUS, repeat=2), 80):
            with_sep = lz78_codelength(y + SEPARATOR + x)
            without = lz78_codelength(y + x)
            pairs = lz78_pairs(y + SEPARATOR + x)
            final_dict = pairs[-1][2] if pairs else 0
            phrase_code = math.ceil(math.log2(final_dict + 2)) + 1
            assert with_sep - without <= 2 * phrase_code

    def test_conditional_tagged_with_conditioner(self):
        x, y = CoarseState("0101"), CoarseState("0011")
        estimate = conditional_complexity(x, y, Estimator.LZ_PROXY)
        assert estimate.conditional_on == y


class TestLzOracle:
    """The trie parse against the naive dictionary definition."""

    @staticmethod
    def assert_pair_matches(x, y):
        assert lz78_codelength(x) == oracle_codelength(x)
        assert lz78_codelength(y + SEPARATOR + x) == oracle_codelength(y + SEPARATOR + x)
        lz = conditional_complexity(CoarseState(x), CoarseState(y), Estimator.LZ_PROXY).bits
        assert lz == oracle_conditional(x, y), (x, y)

    def test_every_pair_up_to_six_bits(self):
        strings = ["".join(bits) for n in range(7) for bits in itertools.product("01", repeat=n)]
        for x, y in itertools.product(strings, repeat=2):
            self.assert_pair_matches(x, y)

    def test_seeded_random_pairs_up_to_2000_bits(self):
        rng = np.random.default_rng(11)
        mid_phrase = 0
        for i in range(120):
            p_one = (0.5, 0.1, 0.9)[i % 3]
            y = biased_bits(int(rng.integers(0, 2001)), 1000 + i, p_one)
            if i % 2:
                # x related to y, so its parse walks phrases that y built
                flips = rng.random(len(y)) < 0.05
                x = "".join("10"[int(b)] if f else b for b, f in zip(y, flips))
            else:
                x = biased_bits(int(rng.integers(0, 2001)), 5000 + i, p_one)
            mid_phrase += ends_mid_phrase(y)
            self.assert_pair_matches(x, y)
        # the continued parse starts inside a phrase of y in a good share
        assert mid_phrase >= 30

    def test_one_64000_bit_pair(self):
        y = biased_bits(64_000, 21, p_one=0.3)
        x = rand_bits(64_000, 22)
        self.assert_pair_matches(x, y)


class TestLzGolden:
    """Codelengths of long seeded strings, pinned from the declared coder."""

    N = 64_000

    @classmethod
    def uniform(cls, seed):
        return format(random.Random(seed).getrandbits(cls.N), f"0{cls.N}b")

    @classmethod
    def biased(cls, seed):
        rng = random.Random(seed)
        return "".join("1" if rng.random() < 0.1 else "0" for _ in range(cls.N))

    @classmethod
    def noisy_periodic(cls, seed):
        # a period of 7 with each bit flipped with probability 0.05
        rng = random.Random(seed)
        clean = ("0010111" * (cls.N // 7 + 1))[:cls.N]
        return "".join("10"[int(b)] if rng.random() < 0.05 else b for b in clean)

    @pytest.mark.parametrize("source, k_x, k_y, k_x_given_y", [
        ("uniform", 74647, 74591, 73081),
        ("biased", 37635, 38246, 36429),
        ("noisy_periodic", 35074, 35464, 31315),
    ])
    def test_seeded_64000_bit_pairs(self, source, k_x, k_y, k_x_given_y):
        x, y = getattr(self, source)(7), getattr(self, source)(8)
        assert (lz78_codelength(x), lz78_codelength(y)) == (k_x, k_y)
        assert complexity_lz(CoarseState(x)).bits == k_x
        estimate = conditional_complexity(CoarseState(x), CoarseState(y), Estimator.LZ_PROXY)
        assert estimate.bits == k_x_given_y

    def test_conditional_parse_memory(self):
        # one 128,000-symbol parse (y, the separator, x) peaks at 0.62 MiB
        x, y = CoarseState(self.uniform(7)), CoarseState(self.uniform(8))
        tracemalloc.start()
        try:
            conditional_complexity(x, y, Estimator.LZ_PROXY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.7 * 2**20


class TestExactEstimator:
    def test_known_small_values(self):
        assert complexity_exact(CoarseState("")).bits == 0
        assert complexity_exact(CoarseState("0")).bits == 2
        assert complexity_exact(CoarseState("0000")).bits == 6
        assert complexity_exact(CoarseState("0110")).bits == 7

    def test_literal_ceiling(self):
        for x in ("0110", "10110", rand_bits(12, 3)):
            assert complexity_exact(CoarseState(x)).bits <= len(x) + 3

    def test_three_bit_program_witness(self):
        # whatever a 3-bit program produces has complexity at most 3
        for program in ("000", "010", "110", "111"):
            output = DEFAULT_MACHINE.run(program).output
            assert complexity_exact(CoarseState(output)).bits <= 3

    def test_monotone_in_budget(self):
        k_small = len(DEFAULT_MACHINE.shortest_program("0101", 7))
        k_large = len(DEFAULT_MACHINE.shortest_program("0101", 12))
        assert k_large <= k_small

    def test_counting_lower_bound_on_four_bit_states(self):
        # at most 2^(L+1) - 1 states can have complexity <= L
        ks = [complexity_exact(CoarseState(f"{i:04b}")).bits for i in range(16)]
        for level in range(max(ks) + 1):
            assert sum(1 for k in ks if k <= level) <= 2 ** (level + 1) - 1

    def test_conditional_self_copy(self):
        x = CoarseState("1011")
        assert conditional_complexity(x, x, Estimator.EXACT_ENUM).bits == 3

    def test_conditional_at_most_unconditional(self):
        for bits in ("0000", "0110", "1011"):
            x = CoarseState(bits)
            y = CoarseState("1111")
            cond = conditional_complexity(x, y, Estimator.EXACT_ENUM).bits
            assert cond <= complexity_exact(x).bits

    @pytest.mark.parametrize("aux", ["0", "01", "1011", "0110"])
    def test_conditional_matches_complexity_table(self, aux):
        # K(x | aux) <= len(x) + 3 <= 8 for x of at most 5 bits, so the
        # 9-bit sweep holds every such x at its true complexity
        table = DEFAULT_MACHINE.complexity_table(9, aux)
        y = CoarseState(aux)
        for length in range(6):
            for bits in itertools.product("01", repeat=length):
                x = "".join(bits)
                assert conditional_complexity(CoarseState(x), y, Estimator.EXACT_ENUM).bits == table[x]


X, Y = CoarseState("0110"), CoarseState("1")
#: Every entry point that takes an estimator by name, called with ``name``.
ESTIMATOR_CALLS = {
    "Estimator": lambda name: Estimator(name),
    "estimate_complexity": lambda name: estimate_complexity(X, name),
    "conditional_complexity": lambda name: conditional_complexity(X, Y, name),
    "model_table": lambda name: model_table(two_state_chain(), name),
}


class TestEstimatorName:
    @pytest.mark.parametrize("call", ESTIMATOR_CALLS.values(), ids=ESTIMATOR_CALLS.keys())
    @pytest.mark.parametrize("name", ["bogus", "EXACT_ENUM", None])
    def test_unknown_name_is_a_validation_error_naming_the_choices(self, call, name):
        # each raised the enum's bare ValueError "'bogus' is not a valid Estimator"
        with pytest.raises(ValidationError) as info:
            call(name)
        assert str(info.value) == f"estimator must be one of ['exact-enum', 'lz-proxy'], got {name!r}"

    @pytest.mark.parametrize("call", ESTIMATOR_CALLS.values(), ids=ESTIMATOR_CALLS.keys())
    def test_known_names_and_members_are_taken(self, call):
        for name in ("exact-enum", "lz-proxy", *Estimator):
            call(name)


class TestCoarseState:
    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            CoarseState("01a")

    @pytest.mark.parametrize("bits", NOT_BINARY.values(), ids=NOT_BINARY.keys())
    def test_rejects_look_alikes_and_long_spoilt_strings(self, bits):
        with pytest.raises(ValidationError, match="only '0'/'1'"):
            CoarseState(bits)

    def test_empty_state_is_valid(self):
        assert len(CoarseState("")) == 0


class TestCorpusFile:
    def test_corpus_reads_and_is_binary(self):
        assert len(CORPUS) >= 20
        assert all(set(x) <= {"0", "1"} for x in CORPUS)
