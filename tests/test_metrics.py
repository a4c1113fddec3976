"""Metric tests: the quality formula is pinned against frozen reference rows
from full-scale runs, plus report rendering and the CSV round trip.
"""

import math

import numpy as np
import pytest

import golden
from compresslab.metrics import (CSV_COLUMNS, CompressionRecord, accuracy_delta,
                                 build_report_table, quality_metric,
                                 records_from_csv, records_to_csv)


# ---------------------------------------------------------------------------
# quality metric against the frozen reference tables

@pytest.mark.parametrize("rows", [golden.CNN_ROWS, golden.ALEXNET_ROWS],
                         ids=["small-cnn", "alexnet"])
def test_quality_metric_reproduces_reference_tables(rows):
    base_size = golden.baseline_size(rows)
    for s, bits, size, _, _, delta, expected_q in golden.scored_rows(rows):
        q = quality_metric(s, bits, base_size / size, delta)
        assert q == pytest.approx(expected_q, abs=5e-4), \
            f"row (s={s}, p={bits}): {q:.5f} vs {expected_q}"


@pytest.mark.parametrize("rows", [golden.CNN_ROWS, golden.ALEXNET_ROWS],
                         ids=["small-cnn", "alexnet"])
def test_reference_reduction_factors_consistent(rows):
    base_size = golden.baseline_size(rows)
    for s, bits, size, published_r, _, _, _ in golden.scored_rows(rows):
        assert base_size / size == pytest.approx(published_r, abs=0.005), \
            f"row (s={s}, p={bits})"


def test_reference_extremes_are_where_expected():
    cnn = {(s, p): q for s, p, _, _, _, _, q in golden.scored_rows(golden.CNN_ROWS)}
    assert max(cnn, key=cnn.get) == (0.0, 16)
    assert min(cnn, key=cnn.get) == (0.99, 8)
    alex = {(s, p): q for s, p, _, _, _, _, q in golden.scored_rows(golden.ALEXNET_ROWS)}
    assert max(alex, key=alex.get) == (0.99, 8)


# ---------------------------------------------------------------------------
# formula behaviour

def test_quality_formula_components():
    # s=0, p=8, r large: gain 0.5, tanh(-1) < 0, sigmoid -> 1
    q = quality_metric(0.0, 8, 50.0, -1.0)
    assert q == pytest.approx(0.5 * math.tanh(-1.0), abs=1e-9)
    # zero accuracy change scores exactly zero regardless of compression
    assert quality_metric(0.9, 8, 30.0, 0.0) == 0.0
    # better accuracy scores positive, worse negative
    assert quality_metric(0.5, 8, 10.0, 2.0) > 0
    assert quality_metric(0.5, 8, 10.0, -2.0) < 0


def test_quality_monotone_in_compression_gain():
    # same delta/reduction: more sparsity or fewer bits never lowers |gain|
    assert quality_metric(0.9, 8, 10.0, 1.0) > quality_metric(0.5, 8, 10.0, 1.0)
    assert quality_metric(0.5, 8, 10.0, 1.0) > quality_metric(0.5, 16, 10.0, 1.0)


def test_quality_validation():
    with pytest.raises(ValueError, match="sparsity"):
        quality_metric(1.0, 8, 10.0, 0.0)
    with pytest.raises(ValueError, match="precision_bits"):
        quality_metric(0.5, 12, 10.0, 0.0)
    with pytest.raises(ValueError, match="reduction"):
        quality_metric(0.5, 8, 0.0, 0.0)
    with pytest.raises(ValueError, match="reduction"):
        quality_metric(0.5, 8, math.inf, 0.0)


def test_accuracy_delta_in_percentage_points():
    assert accuracy_delta(97.80, 98.17) == pytest.approx(-0.37)
    assert accuracy_delta(88.30, 82.46) == pytest.approx(5.84)
    assert accuracy_delta(50.0, 50.0) == 0.0
    with pytest.raises(ValueError):
        accuracy_delta(101.0, 50.0)
    with pytest.raises(ValueError):
        accuracy_delta(50.0, -1.0)


# ---------------------------------------------------------------------------
# records and report rendering

def test_record_validation():
    with pytest.raises(ValueError, match="int8_mode"):
        CompressionRecord(0.5, 8, None, 100, 90.0)
    with pytest.raises(ValueError, match="int8_mode"):
        CompressionRecord(0.5, 16, "asymmetric", 100, 90.0)
    with pytest.raises(ValueError, match="size_bytes"):
        CompressionRecord(0.5, 16, None, 0, 90.0)
    with pytest.raises(ValueError, match="precision_bits"):
        CompressionRecord(0.5, 4, None, 100, 90.0)
    for sparsity in (-0.1, 1.0):
        with pytest.raises(ValueError, match=r"sparsity must lie in \[0, 1\)"):
            CompressionRecord(sparsity, 16, None, 100, 90.0)
    for accuracy in (-1.0, 100.5):
        with pytest.raises(ValueError, match=r"accuracy_pct must lie in \[0, 100\]"):
            CompressionRecord(0.5, 16, None, 100, accuracy)
    assert CompressionRecord(0.0, 32, None, 100, 90.0).is_baseline
    assert not CompressionRecord(0.5, 32, None, 100, 90.0).is_baseline


def test_report_table_layout_and_flags():
    rows = build_report_table(golden.records(golden.CNN_ROWS))
    assert len(rows) == 18
    # ordered by sparsity ascending, precision descending
    keys = [(float(r["sparsity"]), int(r["precision_bits"])) for r in rows]
    assert keys == sorted(keys, key=lambda t: (t[0], -t[1]))
    baseline = rows[0]
    assert baseline["sparsity"] == "0" and baseline["precision_bits"] == "32"
    assert baseline["reduction_factor"] == "-"
    assert baseline["delta_acc_pp"] == "-"
    assert baseline["quality"] == "-"
    assert baseline["accuracy_pct"] == "98.17"
    flagged = {r["flag"]: (r["sparsity"], r["precision_bits"])
               for r in rows if r["flag"]}
    assert flagged == {"best": ("0", "16"), "worst": ("0.99", "8")}
    by_key = {(r["sparsity"], r["precision_bits"]): r for r in rows}
    assert by_key[("0.9", "8")]["reduction_factor"] == "14.66"
    assert by_key[("0.99", "8")]["quality"] == "-0.9950"


def test_report_requires_exactly_one_baseline():
    records = golden.records(golden.CNN_ROWS)
    with pytest.raises(ValueError, match="exactly one baseline"):
        build_report_table(records[1:])
    with pytest.raises(ValueError, match="exactly one baseline"):
        build_report_table(records + [records[0]])
    with pytest.raises(ValueError, match="no records"):
        build_report_table([])


def test_report_single_baseline_has_no_flags():
    rows = build_report_table(golden.records(golden.CNN_ROWS)[:1])
    assert rows[0]["flag"] == ""


# ---------------------------------------------------------------------------
# CSV round trip

def test_csv_roundtrip_preserves_values():
    records = golden.records(golden.ALEXNET_ROWS)
    text = records_to_csv(records)
    parsed = records_from_csv(text)
    assert len(parsed) == len(records)
    for a, b in zip(records, parsed):
        assert a.sparsity == b.sparsity
        assert a.precision_bits == b.precision_bits
        assert a.int8_mode == b.int8_mode
        assert a.size_bytes == b.size_bytes
        assert a.accuracy_pct == pytest.approx(b.accuracy_pct, abs=1e-6)
        if a.quality is None:
            assert b.quality is None
        else:
            assert a.quality == pytest.approx(b.quality, abs=1e-6)
    # fixed formatting means identical bytes on re-serialization
    assert records_to_csv(parsed) == text
    # a blank row is skipped
    lines = text.splitlines()
    assert records_from_csv("\n".join([*lines[:2], "", *lines[2:]]) + "\n") == parsed


def test_csv_errors_carry_line_numbers():
    good = records_to_csv(golden.records(golden.CNN_ROWS)[:2])
    with pytest.raises(ValueError, match="line 1"):
        records_from_csv("a,b\n1,2\n")
    lines = good.splitlines()
    lines[2] = lines[2].replace(",", "", 1)  # drop a field from row 2
    with pytest.raises(ValueError, match="line 3"):
        records_from_csv("\n".join(lines) + "\n")
    lines = good.splitlines()
    lines[1] = lines[1].replace("0,32", "zero,32", 1)
    with pytest.raises(ValueError, match="line 2"):
        records_from_csv("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="empty"):
        records_from_csv("")


def test_csv_rejects_an_unknown_int8_mode():
    record = CompressionRecord(0.5, 8, "symmetric", 100, 90.0, 2.0, -1.0, -0.3)
    text = records_to_csv([record]).replace("symmetric", "affine")
    with pytest.raises(ValueError, match="line 2: int8_mode must be asymmetric or "
                                         "symmetric, got 'affine'"):
        records_from_csv(text)
    with pytest.raises(ValueError, match="int8_mode"):
        CompressionRecord(0.5, 8, "affine", 100, 90.0)


def test_csv_rejects_non_finite_scores_and_a_non_positive_reduction():
    lines = records_to_csv(golden.records(golden.CNN_ROWS)).splitlines()
    row = lines.index(next(line for line in lines if line.startswith("0,16,")))
    fields = lines[row].split(",")
    for column, text, message in [
            ("quality", "nan", "quality must be finite, got nan"),
            ("delta_acc_pp", "inf", "delta_acc_pp must be finite, got inf"),
            ("reduction_factor", "-3", "reduction_factor must be positive and finite, got -3"),
            ("reduction_factor", "0", "reduction_factor must be positive and finite, got 0"),
            ("reduction_factor", "nan", "reduction_factor must be positive and finite")]:
        bad = fields.copy()
        bad[CSV_COLUMNS.index(column)] = text
        edited = lines[:row] + [",".join(bad)] + lines[row + 1:]
        with pytest.raises(ValueError, match=f"line {row + 1}: {message}"):
            records_from_csv("\n".join(edited) + "\n")
    with pytest.raises(ValueError, match="quality must be finite"):
        CompressionRecord(0.5, 16, None, 100, 90.0, 2.0, -1.0, math.nan)
