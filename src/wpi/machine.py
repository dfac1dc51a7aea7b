"""Tiny reference machine for exact, desk-scale complexity estimates.

The machine is deliberately small so that *every* program up to a modest
length can be enumerated and executed.  Its full definition (also in
``docs/reference_machine.md``):

Tapes
    One append-only binary output tape, initially empty, and one read-only
    auxiliary input tape holding the conditioning string (empty when the
    estimate is unconditional).

Programs
    Finite bit strings, decoded left to right into instructions:

    ========  ============  =================================================
    opcode    name          effect
    ========  ============  =================================================
    ``00``    WRITE0        append ``0`` to the output
    ``01``    WRITE1        append ``1`` to the output
    ``10``    DOUBLE        append a copy of the entire current output
    ``110``   LITERAL       append all remaining program bits, then halt
    ``111``   COPY_AUX      append the entire auxiliary tape
    ========  ============  =================================================

    Trailing bits that cannot complete an instruction (a lone bit, or a
    dangling ``11``) are padding and are ignored.

Halting
    A program halts when its instruction stream is exhausted or after
    LITERAL.  Executing one instruction costs one step, plus one step per
    output bit appended.  A run that exceeds ``STEP_BUDGET`` steps, or whose
    output grows past ``max_output``, is treated as non-halting.

Enumeration order
    Canonical order is by program length, then lexicographic with
    ``0 < 1``; the empty program comes first.  The complexity of a state is
    the length of the first program in canonical order that halts with
    output exactly equal to the state.

Every string has a program (LITERAL gives length ``len(x) + 3``), so
enumeration with ``max_len >= len(x) + 3`` always succeeds.

Enumeration (:meth:`ReferenceMachine.shortest_program`) is the executable
definition of K and the test oracle.  The estimators call
:func:`shortest_length`, which finds the same length as a shortest path
over the prefixes of the target (see ``docs/reference_machine.md``).  K is
computed per call and nothing is memoized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import EnumerationBudgetExceeded, ValidationError

#: Step budget per program; programs not halting within the budget are
#: treated as non-halting.
STEP_BUDGET = 10_000

#: Hard ceilings keeping exhaustive enumeration desk-scale.
MAX_STATE_BITS = 16
MAX_PROGRAM_BITS = 20


@dataclass(frozen=True)
class RunResult:
    output: str | None  # None when treated as non-halting
    steps: int
    halted: bool


class ReferenceMachine:
    """The append-only five-instruction machine defined in the module docs."""

    def run(self, program: str, aux: str = "", max_output: int = 1 << 16) -> RunResult:
        """Execute ``program`` with ``aux`` on the auxiliary tape."""
        _check_bits(program, "program")
        _check_bits(aux, "aux")
        parts: list[str] = []
        out_len = 0
        steps = 0
        pos = 0
        n = len(program)
        while pos < n:
            if n - pos == 1:
                break  # lone trailing bit: padding
            op = program[pos:pos + 2]
            if op == "11":
                if n - pos < 3:
                    break  # dangling "11": padding
                op = program[pos:pos + 3]
                pos += 3
            else:
                pos += 2

            if op == "00":
                parts.append("0")
                appended = 1
            elif op == "01":
                parts.append("1")
                appended = 1
            elif op == "10":
                chunk = "".join(parts)
                parts = [chunk, chunk]
                appended = out_len
            elif op == "110":
                rest = program[pos:]
                parts.append(rest)
                appended = len(rest)
                pos = n
            else:  # "111"
                parts.append(aux)
                appended = len(aux)

            out_len += appended
            steps += 1 + appended
            if steps > STEP_BUDGET or out_len > max_output:
                return RunResult(output=None, steps=steps, halted=False)
        return RunResult(output="".join(parts), steps=steps, halted=True)

    def programs(self, max_len: int) -> Iterator[str]:
        """All programs of length <= max_len in canonical order."""
        yield ""
        for length in range(1, max_len + 1):
            for bits in itertools.product("01", repeat=length):
                yield "".join(bits)

    def shortest_program(self, target: str, max_len: int, aux: str = "") -> str:
        """First program in canonical order producing ``target`` exactly.

        Raises :class:`EnumerationBudgetExceeded` when no program of length
        <= max_len halts on ``target`` within the step budget.
        """
        _check_target(target, aux)
        if not (0 <= max_len <= MAX_PROGRAM_BITS):
            raise ValidationError(
                f"max_len must be in [0, {MAX_PROGRAM_BITS}], got {max_len}"
            )
        cap = len(target)  # output only ever grows, so longer outputs can't match
        for program in self.programs(max_len):
            result = self.run(program, aux=aux, max_output=cap)
            if result.halted and result.output == target:
                return program
        raise EnumerationBudgetExceeded(target, max_len, STEP_BUDGET)

    def complexity_table(self, max_len: int, aux: str = "") -> dict[str, int]:
        """Map each producible state to the length of its shortest program.

        One sweep over all programs of length <= max_len in canonical order;
        the first producer of each output wins, so the table agrees exactly
        with :meth:`shortest_program` for every contained state.
        """
        if not (0 <= max_len <= MAX_PROGRAM_BITS):
            raise ValidationError(
                f"max_len must be in [0, {MAX_PROGRAM_BITS}], got {max_len}"
            )
        table: dict[str, int] = {}
        for program in self.programs(max_len):
            result = self.run(program, aux=aux, max_output=MAX_STATE_BITS)
            if result.halted and result.output not in table:
                table[result.output] = len(program)
        return table


#: The enumeration oracle that the tests and demo 03 run (the estimators do not).
DEFAULT_MACHINE = ReferenceMachine()


def shortest_length(target: str, aux: str = "") -> int:
    """K(target | aux) on the default machine, without enumeration.

    Every instruction only appends, so a program producing ``target``
    passes only through its prefixes, and no shortest program carries
    padding.  K is therefore the shortest path from node 0 to node
    ``len(target)``, node k standing for the output ``target[:k]``.  Every
    edge that makes progress goes forward, so one pass in order of k
    settles each node before it is left.  An edge's output is compared only
    when the edge would shorten its node, which also drops the self-loops
    (DOUBLE at k = 0, COPY_AUX of an empty ``aux``).  Equal to
    ``len(DEFAULT_MACHINE.shortest_program(target, len(target) + 3, aux))``.
    """
    _check_target(target, aux)
    n, m = len(target), len(aux)
    best = [0] + [n + 3] * n  # no path worth taking costs more than LITERAL from node 0
    literal = n + 3  # the best LITERAL edge into node n
    for k in range(n):
        cost = best[k]
        if cost + 3 + n - k < literal:  # LITERAL with the rest
            literal = cost + 3 + n - k
        if cost + 2 < best[k + 1]:  # WRITE0 / WRITE1
            best[k + 1] = cost + 2
        if 2 * k <= n and cost + 2 < best[2 * k] and target[k:2 * k] == target[:k]:
            best[2 * k] = cost + 2  # DOUBLE
        if k + m <= n and cost + 3 < best[k + m] and target.startswith(aux, k):
            best[k + m] = cost + 3  # COPY_AUX
    return min(best[n], literal)


def _check_target(target: str, aux: str) -> None:
    _check_bits(target, "target")
    _check_bits(aux, "aux")
    if len(target) > MAX_STATE_BITS:
        raise ValidationError(
            f"target has {len(target)} bits; exact enumeration is limited to "
            f"{MAX_STATE_BITS}"
        )


def is_binary(s: str) -> bool:
    """Whether ``s`` holds only the ASCII characters '0' and '1'.

    Checked in C with no per-character Python work: ``isascii`` reads a
    flag of the string, and deleting every '0' and '1' from its bytes must
    leave nothing.
    """
    return s.isascii() and not s.encode().translate(None, b"01")


def _check_bits(s: str, label: str) -> None:
    if not is_binary(s):
        raise ValidationError(f"{label} must contain only '0'/'1', got {s!r}")
