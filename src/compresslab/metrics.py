"""Compression quality metrics, report tables, and the sweep CSV format.

The scalar quality score rewards sparsity and low precision, gated by the
accuracy change (in raw percentage points) and the size reduction factor:

    Q = ((s + 8/p) / 2) * tanh(delta_acc) * sigmoid(r)
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .quantization import INT8_MODES

CSV_COLUMNS = ["sparsity", "precision_bits", "int8_mode", "size_bytes",
               "reduction_factor", "accuracy_pct", "delta_acc_pp", "quality"]

VALID_BITS = (8, 16, 32)


@dataclass
class CompressionRecord:
    """One sweep cell: a (sparsity, precision) configuration and its measurements.

    ``reduction_factor``, ``delta_acc_pp`` and ``quality`` are None on the
    baseline row (sparsity 0, 32-bit), which is its own reference point.
    """

    sparsity: float
    precision_bits: int
    int8_mode: str | None
    size_bytes: int
    accuracy_pct: float
    reduction_factor: float | None = None
    delta_acc_pp: float | None = None
    quality: float | None = None

    def __post_init__(self):
        if not 0 <= self.sparsity < 1:
            raise ValueError(f"sparsity must lie in [0, 1), got {self.sparsity}")
        if self.precision_bits not in VALID_BITS:
            raise ValueError(f"precision_bits must be one of {VALID_BITS}")
        if (self.int8_mode is not None) != (self.precision_bits == 8):
            raise ValueError("int8_mode must be set exactly when precision_bits == 8")
        if self.int8_mode is not None and self.int8_mode not in INT8_MODES:
            raise ValueError(f"int8_mode must be {' or '.join(INT8_MODES)}, "
                             f"got {self.int8_mode!r}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if not 0 <= self.accuracy_pct <= 100:
            raise ValueError(f"accuracy_pct must lie in [0, 100], got {self.accuracy_pct}")

    @property
    def is_baseline(self) -> bool:
        return self.sparsity == 0 and self.precision_bits == 32


def accuracy_delta(accuracy_pct: float, baseline_accuracy_pct: float) -> float:
    """Signed accuracy change in percentage points (positive = better)."""
    for v in (accuracy_pct, baseline_accuracy_pct):
        if not 0 <= v <= 100:
            raise ValueError(f"accuracies must lie in [0, 100], got {v}")
    return accuracy_pct - baseline_accuracy_pct


def quality_metric(sparsity: float, precision_bits: int, reduction: float,
                   delta_acc_pp: float) -> float:
    """Scalar quality of one compressed configuration (see module docstring)."""
    if not 0 <= sparsity < 1:
        raise ValueError(f"sparsity must lie in [0, 1), got {sparsity}")
    if precision_bits not in VALID_BITS:
        raise ValueError(f"precision_bits must be one of {VALID_BITS}")
    if not (reduction > 0 and math.isfinite(reduction)):
        raise ValueError(f"reduction must be positive and finite, got {reduction}")
    compression_gain = (sparsity + 8.0 / precision_bits) / 2.0
    sigmoid = 1.0 / (1.0 + math.exp(-reduction))
    return compression_gain * math.tanh(delta_acc_pp) * sigmoid


# ---------------------------------------------------------------------------
# report rendering

def _fmt_sparsity(s: float) -> str:
    text = f"{s:.4f}".rstrip("0").rstrip(".")
    return text if text else "0"


def build_report_table(records: list[CompressionRecord]) -> list[dict[str, str]]:
    """Format records as display rows, flagging the best and worst quality.

    Rows are ordered by (sparsity ascending, precision descending).  Exactly
    one baseline record is required; its relative columns render as "-".
    Returns dicts with the CSV column names plus "flag".
    """
    if not records:
        raise ValueError("no records to report")
    baselines = [r for r in records if r.is_baseline]
    if len(baselines) != 1:
        raise ValueError(f"need exactly one baseline record, found {len(baselines)}")
    ordered = sorted(records, key=lambda r: (r.sparsity, -r.precision_bits))
    scored = [r for r in ordered if r.quality is not None]
    best = max(scored, key=lambda r: r.quality) if scored else None
    worst = min(scored, key=lambda r: r.quality) if scored else None
    rows = []
    for r in ordered:
        flag = ""
        if scored and r is best:
            flag = "best"
        elif scored and r is worst:
            flag = "worst"
        rows.append({
            "sparsity": _fmt_sparsity(r.sparsity),
            "precision_bits": str(r.precision_bits),
            "int8_mode": r.int8_mode or "-",
            "size_bytes": str(r.size_bytes),
            "reduction_factor": "-" if r.reduction_factor is None else f"{r.reduction_factor:.2f}",
            "accuracy_pct": f"{r.accuracy_pct:.2f}",
            "delta_acc_pp": "-" if r.delta_acc_pp is None else f"{r.delta_acc_pp:.2f}",
            "quality": "-" if r.quality is None else f"{r.quality:.4f}",
            "flag": flag,
        })
    return rows


# ---------------------------------------------------------------------------
# sweep CSV round-trip

def _fmt_opt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def records_to_csv(records: list[CompressionRecord]) -> str:
    """Fixed-format CSV so identical records give identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            _fmt_sparsity(r.sparsity),
            str(r.precision_bits),
            r.int8_mode or "",
            str(r.size_bytes),
            _fmt_opt(r.reduction_factor),
            f"{r.accuracy_pct:.6f}",
            _fmt_opt(r.delta_acc_pp),
            _fmt_opt(r.quality),
        ])
    return buf.getvalue()


def records_from_csv(text: str) -> list[CompressionRecord]:
    """Parse records_to_csv output; malformed rows raise with their line number."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if header != CSV_COLUMNS:
        raise ValueError(f"line 1: bad header {header}, expected {CSV_COLUMNS}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"line {lineno}: {len(row)} fields, expected {len(CSV_COLUMNS)}")
        try:
            records.append(CompressionRecord(
                sparsity=float(row[0]),
                precision_bits=int(row[1]),
                int8_mode=row[2] or None,
                size_bytes=int(row[3]),
                reduction_factor=float(row[4]) if row[4] else None,
                accuracy_pct=float(row[5]),
                delta_acc_pp=float(row[6]) if row[6] else None,
                quality=float(row[7]) if row[7] else None,
            ))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return records
