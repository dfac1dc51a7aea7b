"""Reference machine semantics, enumeration and prefix shortest-path tests."""

import random

import pytest

from wpi import CoarseState, EnumerationBudgetExceeded, ValidationError, complexity_exact
from wpi.machine import DEFAULT_MACHINE, STEP_BUDGET, ReferenceMachine, shortest_length

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


class TestExecution:
    def test_writes(self):
        assert DEFAULT_MACHINE.run("0001").output == "01"

    def test_double(self):
        # write 0, write 1, double twice: 01 -> 0101 -> 01010101
        assert DEFAULT_MACHINE.run("00011010").output == "01010101"

    def test_literal_takes_rest_and_halts(self):
        assert DEFAULT_MACHINE.run("1101011").output == "1011"

    def test_literal_with_empty_rest(self):
        assert DEFAULT_MACHINE.run("110").output == ""

    def test_copy_aux(self):
        assert DEFAULT_MACHINE.run("111", aux="1010").output == "1010"
        assert DEFAULT_MACHINE.run("11100", aux="11").output == "110"

    def test_empty_program_outputs_empty(self):
        assert DEFAULT_MACHINE.run("").output == ""

    def test_trailing_padding_ignored(self):
        assert DEFAULT_MACHINE.run("000").output == "0"  # lone trailing bit
        assert DEFAULT_MACHINE.run("0011").output == "0"  # dangling extended opcode

    def test_step_accounting(self):
        # 2 instructions, 2 bits appended: 4 steps
        assert DEFAULT_MACHINE.run("0001").steps == 4

    def test_step_budget_means_non_halting(self):
        # write 1, then double k times: 2**k + k + 1 steps, 2**k output bits
        within = DEFAULT_MACHINE.run("01" + "10" * 13)
        assert within.halted
        assert within.steps == 8_206 <= STEP_BUDGET
        over = DEFAULT_MACHINE.run("01" + "10" * 14)  # 16,384 bits, under the output cap
        assert not over.halted
        assert over.output is None
        assert over.steps == 16_399 > STEP_BUDGET

    def test_output_cap_means_non_halting(self):
        result = DEFAULT_MACHINE.run("00101010", max_output=3)
        assert not result.halted

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            DEFAULT_MACHINE.run("01x")

    @pytest.mark.parametrize("program", [5, b"01"])
    def test_rejects_a_program_that_is_not_a_str(self, program):
        # it raised AttributeError from the alphabet check
        with pytest.raises(ValidationError, match="program must contain only"):
            DEFAULT_MACHINE.run(program)


class TestEnumeration:
    def test_empty_state_has_zero_complexity(self):
        assert DEFAULT_MACHINE.shortest_program("", 5) == ""

    def test_single_bits(self):
        assert DEFAULT_MACHINE.shortest_program("0", 5) == "00"
        assert DEFAULT_MACHINE.shortest_program("1", 5) == "01"

    def test_known_four_bit_values(self):
        expected = {"0000": 6, "0101": 6, "1010": 6, "1111": 6}
        for bits in (f"{i:04b}" for i in range(16)):
            program = DEFAULT_MACHINE.shortest_program(bits, 10)
            assert len(program) == expected.get(bits, 7)

    def test_canonical_order_prefers_first_witness(self):
        # both "000010" (write0 double double) and "000010"... the canonical
        # winner for 0000 is the length-6 doubling program
        assert DEFAULT_MACHINE.shortest_program("0000", 10) == "000010"

    def test_budget_exhaustion_is_typed(self):
        with pytest.raises(EnumerationBudgetExceeded) as info:
            DEFAULT_MACHINE.shortest_program("0110100110010110", 4)
        assert info.value.max_len == 4
        assert info.value.bits == "0110100110010110"

    def test_table_agrees_with_per_state_search(self):
        table = DEFAULT_MACHINE.complexity_table(9)
        for bits, k in table.items():
            if len(bits) <= 6:
                assert len(DEFAULT_MACHINE.shortest_program(bits, 9)) == k

    def test_rejects_oversized_state(self):
        with pytest.raises(ValidationError):
            DEFAULT_MACHINE.shortest_program("0" * 17, 20)

    def test_rejects_oversized_budget(self):
        with pytest.raises(ValidationError):
            DEFAULT_MACHINE.shortest_program("0", 21)
        for max_len in (21, -1):  # the table checks the search's range
            with pytest.raises(ValidationError):
                DEFAULT_MACHINE.complexity_table(max_len)

    def test_aux_tape_enables_short_conditional_programs(self):
        assert DEFAULT_MACHINE.shortest_program("1011", 10, aux="1011") == "111"
        # x extends y: copy aux then write
        assert DEFAULT_MACHINE.shortest_program("10111", 10, aux="1011") == "11101"


class TestPrefixShortestPath:
    """``shortest_length`` against enumeration, its definition."""

    AUXES = ("", "0", "1", "01", "10", "0110", "1011", "111", "00000")

    @pytest.mark.parametrize("aux", AUXES)
    def test_matches_enumeration_up_to_ten_bits(self, aux):
        # Every string of at most 10 bits has K <= 13, so the table holds
        # all of them.  The auxes cover empty, longer than x and equal to x.
        table = DEFAULT_MACHINE.complexity_table(13, aux)
        for n in range(11):
            for i in range(1 << n):
                x = format(i, f"0{n}b") if n else ""
                assert shortest_length(x, aux) == table[x], (x, aux)

    def test_sixteen_bit_lengths_are_minimal(self):
        # Enumeration up to 13 bits is cheap; every 16-bit string it can
        # reach is kept, together with a seeded sample that mostly it cannot.
        table = DEFAULT_MACHINE.complexity_table(13)
        rng = random.Random(16)
        sample = {format(rng.getrandbits(16), "016b") for _ in range(2000)}
        sample |= {"01" * 8} | {x for x in table if len(x) == 16}
        kept = []
        for x in sorted(sample):
            k = shortest_length(x)
            assert (k <= 13) == (x in table), x
            if k <= 13:
                kept.append(x)
                assert len(DEFAULT_MACHINE.shortest_program(x, k)) == k
                with pytest.raises(EnumerationBudgetExceeded):
                    DEFAULT_MACHINE.shortest_program(x, k - 1)
        assert "01" * 8 in kept and len(kept) == 16

    def test_rejects_oversized_target(self):
        with pytest.raises(ValidationError, match="limited to 16"):
            shortest_length("0" * 17)

    @pytest.mark.parametrize("target, aux", [("01", "0x"), ("0x", ""), ("01", "2")])
    def test_rejects_non_binary(self, target, aux):
        with pytest.raises(ValidationError):
            shortest_length(target, aux)

    @pytest.mark.parametrize("bits", NOT_BINARY.values(), ids=NOT_BINARY.keys())
    def test_rejects_look_alikes_and_long_spoilt_strings(self, bits):
        # the alphabet is checked before the 16-bit limit on the target
        with pytest.raises(ValidationError, match="target must contain only"):
            shortest_length(bits)
        with pytest.raises(ValidationError, match="aux must contain only"):
            shortest_length("01", bits)

    def test_estimator_runs_no_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact estimator must not run programs")

        monkeypatch.setattr(ReferenceMachine, "run", refuse)
        x = "0110100110010110"  # incompressible: K = 16 + 3
        assert complexity_exact(CoarseState(x)).bits == len(x) + 3
