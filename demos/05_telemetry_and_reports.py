"""Telemetry ingestion and the experiment config / report pipeline.

Power telemetry CSVs integrate to measured energies that override the
overhead model; configs bind substrates, suites, traces, and Markov models
into one reproducible experiment.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from wpi import ingest_config, ingest_telemetry, integrate_power, serialize_config
from wpi.cli import default_config_path
from wpi.report import config_hash, score_section

workdir = Path(tempfile.mkdtemp(prefix="wpi-demo-"))

# Synthesize a sine power trace and integrate it with the trapezoidal rule.
omega = 2 * math.pi
t = np.linspace(0.0, 2.0, 500)
p = 1.5 + 0.5 * np.sin(omega * t)
csv = workdir / "power.csv"
csv.write_text("t_s,power_w\n" + "\n".join(
    f"{float(a)!r},{float(b)!r}" for a, b in zip(t, p)) + "\n")

energy = integrate_power(ingest_telemetry(csv))
closed_form = 1.5 * 2.0 - (0.5 / omega) * (math.cos(omega * 2.0) - 1.0)
print(f"integrated energy: {energy:.6f} J (closed form {closed_form:.6f} J)")

# Attach the telemetry to a trace through a config file; the integral
# becomes the trace's measured energy and the overhead back-solves.
config_data = json.loads(default_config_path().read_text())
config_data["traces"][0]["telemetry"] = "power.csv"
config_path = workdir / "experiment.json"
config_path.write_text(json.dumps(config_data, indent=2))

config = ingest_config(config_path)
measured = config.runs[("cpu", "default-suite")].trace.measured_energy
print(f"trace measured energy from telemetry: {measured:.6f} J")

# Every bundle binds its numbers to the inputs through the config hash.
print(f"config sha256: {config_hash(config)[:16]}...")

section = score_section(config)
for report in section["wpi_reports"]:
    print(f"{report['substrate']:13s} phi = {report['phi']:.4e} "
          f"(F = {report['overhead_factor']:.3g}, {report['overhead_source']})")

# Round-trip guarantee: serializing and re-ingesting is the identity.
from wpi import config_from_dict
assert config_from_dict(serialize_config(config)) == config
print("config round-trip: ok")
print(f"\nfor the full pipeline try:  wpi report --config {config_path} "
      f"--out {workdir / 'out'}")
