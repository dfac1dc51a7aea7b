"""Monte Carlo checks of fluctuation identities and efficiency bounds.

Trajectories are sampled from a coarse-grained Markov model with one
counter-based random stream per trajectory, so every number here is
reproducible bit for bit from the seed.  A sample is an array of paths,
one trajectory of state indices per row; every bound check below reads
only its transition count matrix.
"""

import math

from wpi import (
    Estimator,
    adaptivity_bound_check,
    coupled_bound_suite,
    efficiency_bound_check,
    four_state_chain,
    ift_check,
    markov_tail_check,
    sample_trajectories,
    transition_counts,
)

model = four_state_chain()
print(f"model: {model.name}, states {[s.bits for s in model.states]}")

paths = sample_trajectories(model, steps=1, count=50_000, seed=2025)
counts = transition_counts(model, paths)
print(f"sampled {len(paths)} single-step trajectories")

# The surprisal control variable has an exact expectation of 1 on any
# ergodic chain, which calibrates the sampling machinery.  The
# complexity-based quantity uses estimator values of K and may drift above
# 1 by estimator constants; it is reported, not asserted.
result = ift_check(model, counts, Estimator.EXACT_ENUM)
print(f"E[2^-sigma]   = {result.surprisal_mean:.4f} +- {result.surprisal_se:.4f} "
      f"(exact identity: 1)")
print(f"E[2^-deltaK]  = {result.complexity_mean:.4f} +- {result.complexity_se:.4f} "
      f"(estimator-relative, reported)")

# Markov's inequality applied to 2^-deltaK over the same counts.  For the
# empirical measure the inequality is a theorem, so 'holds' can only fail
# on an arithmetic bug; its mean is the E[2^-deltaK] printed above.
for delta in (0.01, 0.05, 0.1):
    tail = markov_tail_check(model, counts, Estimator.EXACT_ENUM, delta)
    print(f"tail delta={delta:4.2f}: lhs={tail.lhs:.5f} <= rhs={tail.rhs:.5f} "
          f"holds={tail.holds}")

# Transition-level efficiency bound with the derivation's own agent:
# intelligence proportional to the irreversible bits, energy equal to the
# Landauer floor (natural units).  The bound should hold on at least a
# 1 - delta fraction of valid transitions.
suite = coupled_bound_suite(model, counts, Estimator.EXACT_ENUM, delta=0.05)
print(f"\ncoupled efficiency checks: {suite.valid_samples} valid transitions "
      f"of {suite.total_transitions}")
print(f"holds rate = {suite.holds_rate:.4f} "
      f"(needs >= {1 - suite.delta - 3 * suite.rate_standard_error:.4f})")
for check, weight in zip(suite.checks, suite.check_weights):
    print(f"  lhs={check.lhs:.2f} rhs={check.rhs:.2f} slack={check.slack:+.2f} "
          f"weight={weight}")

assert suite.holds_rate >= 1 - 0.05 - 3 * suite.rate_standard_error

# The adaptivity mirror: adaptation read as intelligence gain per joule.
# For the coupled agent it is the same inequality, checked by the same
# per-pair function, so the suite above holds for both bounds.
assert adaptivity_bound_check is efficiency_bound_check
print("coupled adaptivity: the same suite (one inequality for both bounds)")
