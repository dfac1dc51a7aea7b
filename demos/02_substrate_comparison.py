"""Compare substrates running the same algorithm.

Each substrate multiplies the intrinsic irreversible-operation count by an
overhead factor decomposed into memory-traffic and control-flow parts.
Holding the algorithm fixed, the phi ranking must equal the overhead
ranking.
"""

from wpi import (
    ExecutionTrace,
    Substrate,
    SubstrateRun,
    TaskSuite,
    default_substrates,
    run_comparison,
    total_overhead,
)

suite = TaskSuite([
    ("inference-batch", 4.0, 0.85),
    ("calibration", 1.0, 0.55),
])

# The shipped catalog carries illustrative defaults (F = 200 / 20 / 4),
# flagged as such in every report.
substrates = default_substrates()
for sub in substrates:
    print(f"{sub.name:13s} F_mem x F_ctrl = {sub.overhead_mem:5.1f} x "
          f"{sub.overhead_ctrl:4.1f} -> F = {total_overhead(sub):6.1f} "
          f"({sub.overhead_source})")

# Same algorithm everywhere: identical suite and intrinsic operation count.
trace = ExecutionTrace(irreversible_ops=10**6, duration=1.0)
rows = run_comparison([SubstrateRun(sub, trace, suite) for sub in substrates])

print("\nmost efficient first:")
header = f"{'substrate':13s} {'F':>7s} {'E [J]':>12s} {'P [W]':>12s} {'phi':>12s} {'slack':>10s}"
print(header)
for row in rows:
    print(f"{row.name:13s} {row.overhead:7.1f} {row.energy:12.4e} "
          f"{row.power:12.4e} {row.phi:12.4e} {row.slack:10.3e}")

ordering = [row.name for row in rows]
print(f"\nordering by ascending phi: {' < '.join(ordering)}")
assert ordering == ["neuromorphic", "gpu", "cpu"]

# Doubling one substrate's overhead doubles its phi and nothing else.
doubled = [
    SubstrateRun(sub, trace, suite) if sub.name != "gpu" else SubstrateRun(
        Substrate(sub.name, sub.temperature, sub.overhead_mem * 2,
                  sub.overhead_ctrl, sub.algorithmic_yield), trace, suite)
    for sub in substrates
]
rescored = run_comparison(doubled)
gpu_before = next(r.phi for r in rows if r.name == "gpu")
gpu_after = next(r.phi for r in rescored if r.name == "gpu")
print(f"doubling gpu memory overhead: phi {gpu_before:.4e} -> {gpu_after:.4e} "
      f"(x{gpu_after / gpu_before:.1f})")
