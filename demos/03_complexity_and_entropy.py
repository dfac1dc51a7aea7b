"""Complexity estimators and algorithmic entropy under a model's own law.

True Kolmogorov complexity is uncomputable; the toolkit ships two declared
stand-ins.  The LZ78 codelength proxy scales to long strings, while the
tiny reference machine gives exact shortest-program lengths for desk-scale
states.  A model's table gives each state's algorithmic entropy
S(x) = K(x) + log2 pi(x) under the kernel's stationary law pi, and splits
each edge's entropy production into a pi term and a kernel term.
"""

import math

from wpi import (
    CoarseState,
    Estimator,
    complexity_exact,
    complexity_lz,
    conditional_complexity,
    four_state_chain,
    landauer_constant,
    min_energy_of_change,
    model_table,
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

# Algorithmic entropy under the stationary law of the shipped four-state
# chain: its pi is uniform, so S(x) = K(x) - 2.
model = four_state_chain()
table = model_table(model, "exact-enum")
print()
for state, k, s in zip(model.states, table.k, table.entropy):
    print(f"S({state.bits}) = K {k} + log2 pi {s - k:+.1f} = {s:.1f} bits")

# One edge's entropy production sigma splits into a pi term (exchanged with
# the environment) and a kernel term; only the edge's complexity change
# carries a Landauer energy floor.
i, j = 1, 2
x, y = model.states[i].bits, model.states[j].bits
pi_term = (table.entropy[i] - table.k[i]) - (table.entropy[j] - table.k[j])
kernel_term = math.log2(model.kernel[i, j]) - math.log2(model.kernel[j, i])
print(f"{x} -> {y}: sigma {table.sigma[i, j]:+.1f} bits = "
      f"pi term {pi_term:+.1f} + kernel term {kernel_term:+.1f}")
d = table.k[j] - table.k[i]
print(f"K change {d:+d} bits; minimum dissipation at 300 K: "
      f"{min_energy_of_change(d, 300.0):.3e} J ( = {d} x {landauer_constant(300.0):.3e} J)")
print(f"{y} -> {x}: K change {-d:+d} bits, floor {min_energy_of_change(-d, 300.0):.1f} J")
