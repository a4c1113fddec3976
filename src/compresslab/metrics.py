"""Compression quality metrics, report tables, and the sweep CSV format.

The scalar quality score rewards sparsity and low precision, gated by the
accuracy change (in raw percentage points) and the size reduction factor:

    Q = ((s + 8/p) / 2) * tanh(delta_acc) * sigmoid(r)

Each results column is defined once, in ``_COLUMNS`` (its parser, CSV text
and report text), which the CSV writer and reader and the report table read.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .quantization import INT8_MODES, VALID_BITS


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
        if self.reduction_factor is not None and not (
                self.reduction_factor > 0 and math.isfinite(self.reduction_factor)):
            raise ValueError(f"reduction_factor must be positive and finite, "
                             f"got {self.reduction_factor}")
        for name in ("delta_acc_pp", "quality"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

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
# the results columns: one table for the CSV and the report

def _fmt_sparsity(s: float) -> str:
    return f"{s:.4f}".rstrip("0").rstrip(".")  # 0 keeps its digit before the point


class _Column(NamedTuple):
    parse: Callable[[str], object]   # CSV text -> value
    csv: Callable[[object], str]     # value -> CSV text
    report: Callable[[object], str]  # value -> report text
    optional: bool = False           # may be None: "" in the CSV, "-" in the report


_COLUMNS = {
    "sparsity": _Column(float, _fmt_sparsity, _fmt_sparsity),
    "precision_bits": _Column(int, str, str),
    "int8_mode": _Column(str, str, str, optional=True),
    "size_bytes": _Column(int, str, str),
    "reduction_factor": _Column(float, "{:.6f}".format, "{:.2f}".format, optional=True),
    "accuracy_pct": _Column(float, "{:.6f}".format, "{:.2f}".format),
    "delta_acc_pp": _Column(float, "{:.6f}".format, "{:.2f}".format, optional=True),
    "quality": _Column(float, "{:.6f}".format, "{:.4f}".format, optional=True),
}
CSV_COLUMNS = list(_COLUMNS)


def _texts(record: CompressionRecord, field: str, missing: str) -> dict[str, str]:
    """Each column of ``record`` as text, by the table's ``field`` formatter."""
    values = vars(record)
    return {name: missing if values[name] is None else getattr(column, field)(values[name])
            for name, column in _COLUMNS.items()}


# ---------------------------------------------------------------------------
# report rendering

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
    quality, flags = operator.attrgetter("quality"), {}
    if scored:  # keyed by identity, as records compare by value; a lone one is the best
        flags = {id(min(scored, key=quality)): "worst", id(max(scored, key=quality)): "best"}
    return [{**_texts(r, "report", "-"), "flag": flags.get(id(r), "")} for r in ordered]


# ---------------------------------------------------------------------------
# sweep CSV round-trip

def records_to_csv(records: list[CompressionRecord]) -> str:
    """Fixed-format CSV so identical records give identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(_texts(r, "csv", "").values())
    return buf.getvalue()


def records_from_csv(text: str) -> list[CompressionRecord]:
    """Parse records_to_csv output; malformed rows raise with their line number.
    An empty field is None in an optional column and bad text in any other."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty CSV")
    if header != CSV_COLUMNS:
        raise ValueError(f"line 1: bad header {header}, expected {CSV_COLUMNS}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"line {lineno}: {len(row)} fields, expected {len(CSV_COLUMNS)}")
        try:
            records.append(CompressionRecord(**{
                name: None if column.optional and not text else column.parse(text)
                for (name, column), text in zip(_COLUMNS.items(), row)}))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return records
