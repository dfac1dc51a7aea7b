"""Power telemetry ingestion and trapezoidal energy integration.

Telemetry files are CSV with the exact header ``t_s,power_w``: finite
timestamps in seconds (strictly increasing) and finite instantaneous power
in watts (non-negative).  The integrated energy attaches to an execution
trace as its measured energy.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .errors import TelemetryError, ValidationError

EXPECTED_HEADER = ["t_s", "power_w"]


def ingest_telemetry(path: str | Path) -> np.ndarray:
    """Read a telemetry CSV as an ``(n, 2)`` float array of ``(t_s, power_w)`` rows.

    A file with a header and no rows gives shape ``(0, 2)``.  All row-level
    problems (non-numeric or non-finite fields, non-monotone timestamps,
    negative power) are collected and raised together.  One leading byte-order
    mark is ignored.  A file that is not UTF-8 text, or a path holding a NUL
    byte, raises :class:`TelemetryError` at row 0, as an empty file does.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except ValueError as exc:  # the path holds a NUL byte
        raise TelemetryError([(0, f"cannot open {str(path)!r}: {exc}")]) from exc
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark is no header
    except UnicodeDecodeError as exc:
        raise TelemetryError(
            [(0, f"not UTF-8 text: byte {exc.start} is {data[exc.start]:#04x}")]
        ) from exc

    issues: list[tuple[int, str]] = []
    rows: list[tuple[float, float]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TelemetryError([(0, "file is empty; expected header 't_s,power_w'")])
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise TelemetryError(
            [(1, f"expected header 't_s,power_w', got {','.join(header)!r}")]
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            issues.append((lineno, f"expected 2 fields, got {len(row)}"))
            continue
        try:
            t, p = float(row[0]), float(row[1])
        except ValueError:
            issues.append((lineno, f"non-numeric row: {row!r}"))
            continue
        if not (math.isfinite(t) and math.isfinite(p)):
            issues.append((lineno, f"timestamp and power must be finite, got {row!r}"))
            continue
        if rows and t <= rows[-1][0]:
            issues.append((lineno, f"timestamp {t!r} is not strictly greater than {rows[-1][0]!r}"))
            continue
        if p < 0.0:
            issues.append((lineno, f"negative power {p!r} W"))
            continue
        rows.append((t, p))

    if issues:
        raise TelemetryError(issues)
    return np.array(rows, dtype=float).reshape(-1, 2)


def integrate_power(samples: np.ndarray) -> float:
    """Trapezoidal-rule energy (joules) of a power time series."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValidationError(f"expected an (n, 2) array of (t, power), got {samples.shape}")
    if samples.shape[0] < 2:
        raise ValidationError("energy integration needs at least 2 samples")
    if not np.isfinite(samples).all():
        raise ValidationError("timestamps and powers must be finite")
    t, p = samples[:, 0], samples[:, 1]
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("timestamps must be strictly increasing")
    if np.any(p < 0.0):
        raise ValidationError("power must be non-negative")
    with np.errstate(over="ignore"):  # finite powers may sum to inf, which a trace rejects
        return float(np.trapezoid(p, t))
