"""Frozen golden: a small cifar-smallnet training run must keep its bits.

``test_sweep_golden.py`` pins mnist-cnn only.  This pins the other
architecture, and with it padding-1 convolutions, the input gradient of a
conv layer that is not the first, and a second maxpool.  A fresh interpreter
with OpenBLAS/OpenMP pinned to one thread trains cifar-smallnet for one epoch
on seeded CIFAR-shaped data, then reports the sha256 of the trained
parameters, the sha256 of ``forward`` probabilities and an
``evaluate_accuracy`` value over a set larger than one evaluation batch.
The hashes hold for one machine at one BLAS thread count and are never
regenerated to cover a change that was meant to keep the bits.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")

SCRIPT = """\
import hashlib, json
from conftest import synthetic_cifar_dataset
from compresslab.nncore import TrainConfig, build_model, evaluate_accuracy, forward, train

data = synthetic_cifar_dataset(192, seed=5)
test = synthetic_cifar_dataset(300, seed=6)
cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.05, val_split=0.25, seed=5)
model = train(build_model("cifar-smallnet", seed=5), data, cfg)
params = b"".join(model.params[name].tobytes() for name in model.param_names())
print(json.dumps({
    "params": hashlib.sha256(params).hexdigest(),
    "probs": hashlib.sha256(forward(model, test.images[:100]).tobytes()).hexdigest(),
    "accuracy": evaluate_accuracy(model, test),
}))
"""

GOLDEN = {
    "params": "cc226d3dcb57f31585d41aa54561a1ec2236a85cd8322ef41d61518ddda531df",
    "probs": "d297e2fd459a5366332b01500c26962090ccfccf8434900d41fad559e8fff8fa",
    "accuracy": 19.0,
}


def test_cifar_smallnet_training_matches_frozen_hashes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(SRC), HERE,
                                           os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    assert json.loads(out) == GOLDEN
