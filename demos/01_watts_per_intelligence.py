"""Watts per intelligence from first principles.

Score a task suite, model the energy of a traced run on top of the
Landauer floor, and compare the resulting phi against its thermodynamic
lower bound.
"""

import math

from wpi import (
    ExecutionTrace,
    Substrate,
    SubstrateRun,
    TaskSuite,
    account_run,
    intelligence_score,
    landauer_constant,
    modeled_energy,
    phi_lower_bound,
    wpi,
)

# A finite weighted task set.  Weights encode difficulty, performances lie
# in [0, 1]; the intelligence score is the weighted performance total.
suite = TaskSuite([
    ("image-classify", 1.0, 0.92),
    ("route-plan", 3.0, 0.61),
    ("summarize", 2.0, 0.40),
])
score = intelligence_score(suite)
print(f"intelligence score I = {score:.3f} (max {suite.total_weight():.1f})")

# The Landauer constant sets the energy floor per irreversible bit
# operation.  At room temperature it is a few zeptojoules.
T = 300.0
c = landauer_constant(T)
print(f"Landauer constant at {T:.0f} K: c = {c:.4e} J/bit")

# A traced run: N irreversible operations over tau seconds.  With overhead
# factor F the modeled energy is F * N * c.
trace = ExecutionTrace(irreversible_ops=5 * 10**9, duration=2.0)
overhead = 120.0
energy = modeled_energy(trace, overhead, T)
print(f"modeled energy  E = {energy.energy:.4e} J "
      f"(floor {energy.landauer_floor:.4e} J, F = {energy.overhead_factor_used:.0f})")
print(f"power           P = {energy.power:.4e} W")

# Phi is power per unit intelligence; the lower bound is c * F / (alpha * tau).
# account_run composes both, their ratio (the slack) and the reversible
# floor (F = 1) for a substrate with overhead F and algorithmic yield alpha.
alpha = 1.0
substrate = Substrate("demo", T, overhead_mem=overhead, overhead_ctrl=1.0,
                      algorithmic_yield=alpha)
row = account_run(SubstrateRun(substrate, trace, suite))
assert row.phi == wpi(energy.power, score)
print(f"phi             = {row.phi:.4e} W per intelligence unit")
print(f"lower bound     = {row.lower_bound:.4e}")
print(f"reversible floor= {row.reversible_floor:.4e}")
print(f"slack           = {row.slack:.3e}  (>= 1 whenever I <= alpha*N)")

# With telemetry the measurement wins and F is back-solved from the floor.
measured = ExecutionTrace(irreversible_ops=5 * 10**9, duration=2.0,
                          measured_energy=3.2e-9)
observed = modeled_energy(measured, overhead, T)
print(f"\nwith measured energy {measured.measured_energy:.2e} J the overhead "
      f"factor back-solves to F = {observed.overhead_factor_used:.1f} "
      f"({observed.overhead_source})")

# Sanity check the equality case of the bound: if intelligence saturates
# I = alpha * N at modeled energy, phi sits exactly on the bound.
n = 10**6
phi_exact = wpi((3.0 * n * c) / 1.0, alpha * n)
bound = phi_lower_bound(T, 3.0, alpha, 1.0)
print(f"\nsaturated case: phi / bound = {phi_exact / bound:.12f}")
assert math.isclose(phi_exact / bound, 1.0, rel_tol=1e-12)
