"""Frozen reference measurements from full-scale compression runs of the two
workbench models.  Each row is (sparsity, precision_bits, size_bytes,
reduction_factor_2dp, accuracy_pct, delta_acc_pp, quality_4dp); the baseline
rows carry None in the relative columns.  These pin the quality metric and
the report rendering, and document the size/accuracy trends the desk-scale
pipeline must reproduce qualitatively.
"""

from compresslab.metrics import CompressionRecord, quality_metric

CNN_ROWS = [
    (0.00, 32, 78170, None, 98.17, None, None),
    (0.00, 16, 17626, 4.43, 97.80, -0.37, -0.0875),
    (0.00, 8, 9078, 8.61, 97.80, -0.37, -0.1770),
    (0.50, 32, 35361, 2.21, 97.20, -0.97, -0.2530),
    (0.50, 16, 23391, 3.34, 97.20, -0.97, -0.3616),
    (0.50, 8, 8173, 9.56, 97.15, -1.02, -0.5774),
    (0.75, 32, 29240, 2.67, 97.00, -1.17, -0.3855),
    (0.75, 16, 19095, 4.09, 97.00, -1.17, -0.5067),
    (0.75, 8, 7563, 10.34, 96.99, -1.18, -0.7240),
    (0.90, 32, 17588, 4.44, 95.95, -2.22, -0.5551),
    (0.90, 16, 11546, 6.77, 95.95, -2.22, -0.6829),
    (0.90, 8, 5331, 14.66, 95.95, -2.22, -0.9278),
    (0.95, 32, 12904, 6.06, 84.57, -13.60, -0.5986),
    (0.95, 16, 8601, 9.09, 84.57, -13.60, -0.7249),
    (0.95, 8, 3851, 20.30, 84.57, -13.60, -0.9750),
    (0.99, 32, 8809, 8.87, 29.75, -68.42, -0.6199),
    (0.99, 16, 6270, 12.47, 29.75, -68.42, -0.7450),
    (0.99, 8, 2250, 34.74, 29.75, -68.42, -0.9950),
]

ALEXNET_ROWS = [
    (0.00, 32, 656296182, None, 82.46, None, None),
    (0.00, 16, 105670635, 6.21, 83.50, 1.04, 0.1941),
    (0.00, 8, 49299763, 13.31, 83.20, 0.74, 0.3146),
    (0.50, 32, 145224577, 4.52, 85.66, 3.20, 0.3697),
    (0.50, 16, 77622744, 8.45, 88.30, 5.84, 0.4999),
    (0.50, 8, 37665509, 17.42, 86.80, 4.34, 0.7497),
    (0.75, 32, 112778885, 5.82, 85.72, 3.26, 0.4971),
    (0.75, 16, 61816327, 10.62, 88.50, 6.04, 0.6250),
    (0.75, 8, 29841006, 21.99, 87.60, 5.14, 0.8749),
    (0.90, 32, 74410869, 8.82, 84.88, 2.42, 0.5659),
    (0.90, 16, 42674777, 15.38, 87.50, 5.04, 0.6999),
    (0.90, 8, 19667080, 33.37, 85.80, 3.34, 0.9476),
    (0.95, 32, 66897805, 9.81, 84.24, 1.78, 0.5668),
    (0.95, 16, 38945988, 16.85, 85.60, 3.14, 0.7223),
    (0.95, 8, 17386972, 37.75, 85.90, 3.44, 0.9730),
    (0.99, 32, 60892461, 10.78, 82.27, -0.19, -0.1164),
    (0.99, 16, 35555186, 18.46, 85.60, 3.14, 0.7422),
    (0.99, 8, 15638735, 41.97, 86.70, 4.24, 0.9946),
]


def baseline_size(rows):
    return rows[0][2]


def baseline_accuracy(rows):
    return rows[0][4]


def scored_rows(rows):
    """The non-baseline rows (quality column populated)."""
    return [r for r in rows if r[6] is not None]


def records(rows):
    """The rows as CompressionRecords; 8-bit rows are asymmetric, and the
    relative columns are recomputed from the sizes and the reference deltas."""
    base_size = baseline_size(rows)
    out = []
    for s, bits, size, _, acc, delta, _ in rows:
        if delta is None:
            out.append(CompressionRecord(
                sparsity=s, precision_bits=bits, int8_mode=None,
                size_bytes=size, accuracy_pct=acc))
        else:
            r = base_size / size
            out.append(CompressionRecord(
                sparsity=s, precision_bits=bits,
                int8_mode="asymmetric" if bits == 8 else None,
                size_bytes=size, accuracy_pct=acc, reduction_factor=r,
                delta_acc_pp=delta, quality=quality_metric(s, bits, r, delta)))
    return out
