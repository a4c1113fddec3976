"""Magnitude pruning on a small tensor, step by step.

Prints which entries a 60% mask removes, then the cubic schedule a 10-epoch
fine-tune would follow on its way to 95% sparsity.
"""

import numpy as np

from compresslab import epoch_sparsity, magnitude_threshold

w = np.array([0.9, -0.05, 0.3, 0.0, -1.2, 0.02, -0.4, 0.15, 0.6, -0.08],
             dtype=np.float32)
keep = magnitude_threshold(w, 0.6)

print("weights:", np.array2string(w, precision=2))
print("kept:   ", np.array2string(np.where(keep, w, np.float32(0)), precision=2))
print(f"zeroed the {np.count_nonzero(~keep)} smallest magnitudes "
      f"(floor(0.6 * {w.size}))\n")

print("epoch  scheduled sparsity")
for epoch in range(10):
    print(f"{epoch:>5}  {epoch_sparsity(0.95, epoch, 10):.4f}")
print("\nThe mask is rebuilt from the current weights at every epoch, so")
print("early zeros can win their spot back while sparsity ramps up.")
