"""Telemetry CSV ingestion and trapezoidal integration tests."""

import math

import numpy as np
import pytest

from wpi import TelemetryError, ValidationError, ingest_telemetry, integrate_power


def write_csv(tmp_path, rows, header="t_s,power_w"):
    path = tmp_path / "power.csv"
    lines = [header] + [f"{t},{p}" for t, p in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestIngest:
    def test_reads_pairs(self, tmp_path):
        path = write_csv(tmp_path, [(0.0, 1.0), (1.0, 2.0)])
        assert ingest_telemetry(path).tolist() == [[0.0, 1.0], [1.0, 2.0]]

    def test_header_enforced(self, tmp_path):
        path = write_csv(tmp_path, [(0, 1)], header="time,watts")
        with pytest.raises(TelemetryError, match="t_s,power_w"):
            ingest_telemetry(path)

    def test_non_monotone_rows_reported(self, tmp_path):
        path = write_csv(tmp_path, [(0.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
        with pytest.raises(TelemetryError, match="row 4"):
            ingest_telemetry(path)

    def test_negative_power_reported(self, tmp_path):
        path = write_csv(tmp_path, [(0.0, 1.0), (1.0, -0.5)])
        with pytest.raises(TelemetryError, match="negative power"):
            ingest_telemetry(path)

    def test_all_errors_collected(self, tmp_path):
        path = write_csv(tmp_path, [(0.0, 1.0), (0.0, 1.0), (2.0, -1.0), (1.0, "x")])
        with pytest.raises(TelemetryError) as info:
            ingest_telemetry(path)
        assert len(info.value.issues) == 3

    @pytest.mark.parametrize("rows, row", [
        ([(0.0, 1.0), ("nan", 1.0), (2.0, 1.0)], 3),
        ([(0.0, 1.0), ("inf", 1.0), (2.0, 1.0)], 3),
        ([(0.0, 1.0), (1.0, "nan"), (2.0, 1.0)], 3),
        ([(0.0, 1.0), (1.0, "inf"), (2.0, 1.0)], 3),
        ([(0.0, 1.0), (1.0, 1.0), ("-inf", 1.0)], 4),
    ], ids=["nan-timestamp", "inf-timestamp", "nan-power", "inf-power", "minus-inf-timestamp"])
    def test_non_finite_value_is_an_error_of_its_row(self, tmp_path, rows, row):
        # a NaN timestamp compared false with its neighbours, and an infinite
        # one had the next row blamed for not exceeding it
        path = write_csv(tmp_path, rows)
        with pytest.raises(TelemetryError) as info:
            ingest_telemetry(path)
        assert [r for r, _ in info.value.issues] == [row]
        assert "must be finite" in info.value.issues[0][1]

    @pytest.mark.parametrize("text, issues", [
        ("0,1\n1,2,3\n2,1\n", [(3, "expected 2 fields, got 3")]),
        ("0,1\n\n , \n2,1\n", []),
    ], ids=["three-fields", "blank-rows"])
    def test_field_count_checked_and_blank_rows_skipped(self, tmp_path, text, issues):
        path = tmp_path / "power.csv"
        path.write_text("t_s,power_w\n" + text)
        if issues:
            with pytest.raises(TelemetryError) as info:
                ingest_telemetry(path)
            assert info.value.issues == issues
        else:
            assert ingest_telemetry(path).tolist() == [[0.0, 1.0], [2.0, 1.0]]

    def test_header_only_file_has_no_samples(self, tmp_path):
        path = write_csv(tmp_path, [])
        samples = ingest_telemetry(path)
        assert samples.shape == (0, 2) and samples.dtype == float
        with pytest.raises(ValidationError, match="at least 2 samples"):
            integrate_power(samples)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TelemetryError, match="empty"):
            ingest_telemetry(path)


    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_bytes(b"t_s,power_w\n0.0,1.0\n\xff,1.0\n")
        with pytest.raises(TelemetryError, match="UTF-8.*byte 20"):
            ingest_telemetry(path)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        path = tmp_path / "power.csv"
        path.write_bytes(b"\xef\xbb\xbft_s,power_w\n0,1\n1,3\n2,3\n")
        assert integrate_power(ingest_telemetry(path)) == 5.0

    def test_bad_byte_after_a_byte_order_mark_is_named_by_its_file_offset(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_bytes("\ufefft_s,power_w\n0,1".encode() + b"\xff")
        with pytest.raises(TelemetryError, match="byte 18 is 0xff"):
            ingest_telemetry(path)

    def test_nul_byte_in_path_rejected(self):
        with pytest.raises(TelemetryError, match="null byte"):
            ingest_telemetry("a\x00b")


class TestIntegration:
    def test_constant_power_unit_interval(self, tmp_path):
        path = write_csv(tmp_path, [(0.0, 1.0), (1.0, 1.0)])
        assert integrate_power(ingest_telemetry(path)) == 1.0

    def test_triangle_area(self, tmp_path):
        path = write_csv(tmp_path, [(0.0, 0.0), (2.0, 2.0)])
        assert integrate_power(ingest_telemetry(path)) == 2.0

    def test_sine_trace_matches_closed_form(self):
        # P(t) = 3 + 2 sin(2 pi t) over [0, 1.5]: integral = 3*1.5 - (2/w)(cos(w*1.5)-1)
        omega = 2 * math.pi
        t = np.linspace(0.0, 1.5, 1000)
        p = 3.0 + 2.0 * np.sin(omega * t)
        exact = 3.0 * 1.5 - (2.0 / omega) * (math.cos(omega * 1.5) - 1.0)
        got = integrate_power(np.column_stack([t, p]))
        assert abs(got - exact) / exact < 1e-3

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            integrate_power(np.array([[0.0, 1.0]]))

    def test_strictly_increasing_required(self):
        with pytest.raises(ValidationError):
            integrate_power(np.array([[0.0, 1.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("samples, message", [
        ([0.0, 1.0, 2.0], "expected an \\(n, 2\\) array"),
        ([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], "expected an \\(n, 2\\) array"),
        ([[0.0, 1.0], [1.0, -1.0]], "power must be non-negative"),
        ([[0.0, 1.0], [np.nan, 1.0]], "must be finite"),
        ([[0.0, 1.0], [np.inf, 1.0]], "must be finite"),
        ([[0.0, 1.0], [1.0, np.nan]], "must be finite"),
        ([[0.0, np.inf], [1.0, 1.0]], "must be finite"),
    ], ids=["1-D", "three-columns", "negative-power", "nan-time", "inf-time", "nan-power",
            "inf-power"])
    def test_bad_samples_rejected(self, samples, message):
        # a NaN passed the ordering and sign tests, and the integral was NaN or inf
        with pytest.raises(ValidationError, match=message):
            integrate_power(np.array(samples))
