"""Frozen golden: a tiny synthetic sweep must keep producing the same bytes.

The sweep runs in a fresh interpreter with OpenBLAS/OpenMP pinned to one
thread, and the sha256 of ``results.csv`` and of every artifact is compared
with hashes recorded once from a known-good build.  These hashes hold for one
machine (one CPU/BLAS kernel selection) at one BLAS thread count: trained
bits differ between 1 and 2 BLAS threads, and may differ on another CPU.
They are never regenerated to cover a change that was meant to keep the
output identical; a change that alters the bits on purpose says so.
"""

import hashlib
import os
import subprocess
import sys

from conftest import synthetic_dataset, write_idx_files

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

CONFIG = """\
dataset = mnist
data_dir = {data_dir}
out_dir = {out_dir}
epochs = 2
batch_size = 64
seed = 4
sparsity_grid = 0, 0.5, 0.9
precision_grid = 32, 16, 8
"""

GOLDEN_SHA256 = {
    "mnist-cnn_mnist_s0.5_p16.mcmp.gz": "4044cf431e6062e833f1e616fe3c05f3d1cde99cb28f526ac1ecfab035ed8d1d",
    "mnist-cnn_mnist_s0.5_p32.mcmp.gz": "c95043efd5d3822a30e01cd7e53034e9e4b4c38e16c5180e1d020417ca3b3c95",
    "mnist-cnn_mnist_s0.5_p8.mcmp.gz": "fa5e623143f40f7bfeba4f7aaf66374008fa341ce6ba97603122cd47c45ffab3",
    "mnist-cnn_mnist_s0.9_p16.mcmp.gz": "27c5144741462cab59e808d6a7ac9ffad6b039b6b7786292e73c955e15c3c1f7",
    "mnist-cnn_mnist_s0.9_p32.mcmp.gz": "a18e8ad38f777a6638e8b2f2bb55048fa053edf78ad15d5466b85fbea409f0de",
    "mnist-cnn_mnist_s0.9_p8.mcmp.gz": "8dab99fe485e96f9b6c6bfaf32f569dac1f0b540ef36fc404db9bdbb40d0d828",
    "mnist-cnn_mnist_s0_p16.mcmp.gz": "c488ce618096554316abb59699d6c49d6110b9d524e0a3c09e9c2385bf5ff4ef",
    "mnist-cnn_mnist_s0_p32.mcmp.gz": "e7fee3d7bc8e619e19de7c6a61890b6fe3f9bfb6b4238259609ea406cdad40eb",
    "mnist-cnn_mnist_s0_p8.mcmp.gz": "0cbb40c5cf54f417d89ce4820be668047eb5f30eb484d33cf0e477a5ee3a4237",
    "results.csv": "d03286c07a80ba13b355b56ecc6ae44ee37d71a33b68a0cafe1eadc2bce838b5",
}


def test_tiny_sweep_matches_frozen_hashes(tmp_path):
    data_dir, out_dir = tmp_path / "idx", tmp_path / "out"
    data_dir.mkdir()
    write_idx_files(str(data_dir), synthetic_dataset(600, seed=1),
                    synthetic_dataset(200, seed=2))
    config = tmp_path / "sweep.cfg"
    config.write_text(CONFIG.format(data_dir=data_dir, out_dir=out_dir))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(SRC),
                                           os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "compresslab.cli", "--quiet", "sweep",
                    "--config", str(config)], env=env, check=True, timeout=600)
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
              for name in sorted(os.listdir(out_dir))}
    assert hashes == GOLDEN_SHA256
