"""Complexity estimators and ensemble-free algorithmic entropy.

True Kolmogorov complexity is uncomputable; the toolkit ships two declared
stand-ins.  The LZ78 codelength proxy scales to long strings, while the
tiny reference machine gives exact shortest-program lengths for desk-scale
states.  Entropy of an individual state is complexity plus the log of its
coarse-graining weight, and transitions decompose into irreversible and
exchanged parts.
"""

from wpi import (
    CoarseState,
    Estimator,
    StateMeasure,
    algorithmic_entropy,
    complexity_exact,
    complexity_lz,
    conditional_complexity,
    entropy_decomposition,
    landauer_constant,
    min_energy_of_change,
)
from wpi.machine import DEFAULT_MACHINE

# The LZ proxy: regular strings compress, random ones do not.
import numpy as np
rng = np.random.default_rng(0)
regular = CoarseState("0" * 1024)
random_bits = CoarseState("".join("01"[b] for b in rng.integers(0, 2, 1024)))
print(f"LZ78 codelength of 1024 zeros:       {complexity_lz(regular).bits:5d} bits")
print(f"LZ78 codelength of 1024 random bits: {complexity_lz(random_bits).bits:5d} bits")

# The exact estimator finds the shortest reference-machine program, as a
# shortest path over the state's prefixes.  Doubling structure shows up as
# shorter programs.
for bits in ("0000", "0110", "0101010101010101"):
    estimate = complexity_exact(CoarseState(bits))
    print(f"K_exact({bits!r:20s}) = {estimate.bits:2d} bits "
          f"(literal ceiling {len(bits) + 3})")
program = DEFAULT_MACHINE.shortest_program("0101010101010101", 12)
print(f"shortest program for 16 alternating bits: {program!r} "
      f"(write 0, write 1, then double three times)")

# Conditional complexity: knowing y makes x cheap when x is derivable.
x = CoarseState("10111011")
print(f"K(x)   = {complexity_exact(x).bits} bits")
print(f"K(x|x) = {conditional_complexity(x, x, Estimator.EXACT_ENUM).bits} bits "
      f"(copy the auxiliary tape)")

# Algorithmic entropy relative to a measure; negative values are fine for
# strongly weighted coarse grains.
states = [CoarseState(f"{i:04b}") for i in range(16)]
pi = StateMeasure({s: 1.0 / 16 for s in states})
s0 = algorithmic_entropy(states[0], pi, Estimator.EXACT_ENUM)
print(f"\nS(0000) under uniform pi over 16 states = K - 4 = {s0:.1f} bits")

# A transition's entropy change splits exactly into irreversible +
# exchanged; only the irreversible part carries a Landauer energy floor.
weighted = StateMeasure({states[0]: 1.0, states[6]: 0.25})
delta = entropy_decomposition(states[0], states[6], weighted, Estimator.EXACT_ENUM)
print(f"0000 -> 0110: irreversible {delta.irreversible:+.1f} bits, "
      f"exchanged {delta.exchanged:+.1f} bits, total {delta.total:+.1f} bits")
floor = min_energy_of_change(delta, 300.0)
print(f"minimum dissipation at 300 K: {floor:.3e} J "
      f"( = {delta.irreversible:.0f} x {landauer_constant(300.0):.3e} J)")

# Complexity decreases imply no positive floor.
back = entropy_decomposition(states[6], states[0], weighted, Estimator.EXACT_ENUM)
print(f"0110 -> 0000: irreversible {back.irreversible:+.1f} bits, "
      f"floor {min_energy_of_change(back, 300.0):.1f} J")
