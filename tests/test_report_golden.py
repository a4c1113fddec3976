"""Frozen golden: ``compresslab report`` prints the same text, in both
formats, for a results CSV written from the reference small-CNN rows.

The sha256 of the CSV and of each format's full stdout were recorded once
from a known-good build.  Together they pin every cell's text, the row
order, the best/worst flags and the table layout, so a change to the CSV
columns or the report formatting that was meant to keep the output
identical cannot slip through on the cells no other test asserts.
"""

import hashlib

import pytest

import golden
from compresslab import cli
from compresslab.metrics import records_to_csv

GOLDEN_SHA256 = {
    "results.csv": "8e95cbf208f6e6f213ccf17ca152bb27b288a412c939474f5c05f3d22b84ce8c",
    "markdown": "19666b6f5c4597c8fe56540ab2087268ce90f62c896963690b712ac20702183e",
    "csv": "81f9e480d2b523cae5b87bfc580266f4950a07236a3d5c3ab0339de7da720a1d",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def results_csv(tmp_path):
    path = tmp_path / "results.csv"
    path.write_bytes(records_to_csv(golden.records(golden.CNN_ROWS)).encode("utf-8"))
    return path


def test_results_csv_matches_frozen_hash(results_csv):
    assert hashlib.sha256(results_csv.read_bytes()).hexdigest() == GOLDEN_SHA256["results.csv"]


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_report_stdout_matches_frozen_hash(results_csv, fmt, capsys):
    assert cli.main(["--quiet", "report", "--csv", str(results_csv), "--format", fmt]) == 0
    assert _sha256(capsys.readouterr().out) == GOLDEN_SHA256[fmt]
