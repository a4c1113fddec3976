"""The whole pipeline on a synthetic task, no downloads needed.

Trains a small CNN on generated 10-class images, prunes it to 90%, quantizes
to int8, and prints the size and accuracy of each stage.  Takes well under a
minute on a laptop CPU.
"""

import numpy as np

from compresslab import (TrainConfig, build_model, evaluate_accuracy,
                         gzipped_size, prune_and_finetune, quantize_model,
                         serialize_model, train)
from compresslab.datasets import DatasetSplit


def make_dataset(n, seed):
    """Each class gets a bright patch at a class-specific location."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    images = rng.uniform(0.0, 0.3, size=(n, 28, 28, 1)).astype(np.float32)
    for i, y in enumerate(labels):
        r, c = 2 + (int(y) // 5) * 12, 2 + (int(y) % 5) * 5
        images[i, r:r + 6, c:c + 4, 0] += 0.7
    return DatasetSplit(np.clip(images, 0, 1), labels.astype(np.int64))


def report(stage, model):
    size = gzipped_size(serialize_model(model.params))
    acc = evaluate_accuracy(model, test_data)
    print(f"{stage:<22} {size:>8} gzipped bytes   {acc:6.2f}% accuracy")
    return size


train_data = make_dataset(1500, seed=7)
test_data = make_dataset(400, seed=8)

cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=0.1, val_split=0.2, seed=0)
model = train(build_model("mnist-cnn", seed=0), train_data, cfg)
base_size = report("baseline", model)

ft = TrainConfig(epochs=3, batch_size=64, learning_rate=0.02, val_split=0.2, seed=0)
pruned, mask = prune_and_finetune(model, train_data, ft, target_sparsity=0.9)
report(f"pruned ({mask.achieved_sparsity():.0%})", pruned)

qmap, eval_model = quantize_model(pruned, bits=8, mode="asymmetric")
q_size = gzipped_size(serialize_model(qmap))
acc = evaluate_accuracy(eval_model, test_data)
print(f"{'pruned + int8':<22} {q_size:>8} gzipped bytes   {acc:6.2f}% accuracy")
print(f"\nreduction factor: {base_size / q_size:.1f}x")
