"""Quantize a weight tensor to int8 in both modes and inspect what survives.

Shows the affine parameters, the worst-case round-trip error against the
theoretical bound of half a step, and that exact zeros stay exact.
"""

import numpy as np

from compresslab import QuantParams, compute_quant_params, dequantize_tensor, quantize_tensor

rng = np.random.default_rng(0)
w = rng.standard_normal(1000).astype(np.float32)
w[rng.random(1000) < 0.3] = 0.0  # sprinkle exact zeros, as pruning would

for mode in ("asymmetric", "symmetric"):
    params = compute_quant_params(w, 8, mode)
    qt = quantize_tensor(w, params)
    back = dequantize_tensor(qt)
    err = np.abs(back - w).max()
    print(f"{mode:>10}: scale={params.scale:.6f} zero_point={params.zero_point}")
    print(f"{'':>10}  max round-trip error {err:.3e} "
          f"(bound scale/2 = {params.scale / 2:.3e})")
    print(f"{'':>10}  zeros preserved: {bool((back[w == 0] == 0).all())}")

half = dequantize_tensor(quantize_tensor(w, QuantParams(16, "float16")))
print(f"\n   float16: max error {np.abs(half - w).max():.3e} "
      f"(much tighter than int8, at twice the bytes)")
