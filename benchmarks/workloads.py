"""The three benchmark workloads.

Each workload makes its inputs in ``setup`` (repeatable: it rewrites the same
files), does one round of operations in ``run_round`` and returns how many of
them failed, fingerprints a round's outputs in ``digest`` and checks the last
round's outputs in ``check`` without going through compresslab's own code.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
import traceback

import numpy as np

import inputs
from reference import (check_artifact_file, check_compressed_tensors, read_artifact,
                       reference_accuracy)

SPARSITIES = (0.0, 0.5, 0.75, 0.9, 0.95, 0.99)
PRECISIONS = (32, 16, 8)


def _sparsity_text(s: float) -> str:
    return f"{s:.4f}".rstrip("0").rstrip(".") or "0"


def _sha256_files(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


class Workload:
    ops_per_round = 0

    def __init__(self, package, seed: int, data_dir: str):
        self.lab = package
        self.seed = seed
        self.data_dir = data_dir

    def rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([tag, self.seed])

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """compresslab's command line, in this process; (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lab.cli.main(argv)
        return code, out.getvalue()

    def digest(self, work: str) -> dict[str, str]:
        return _sha256_files(work)


class SweepMnist(Workload):
    """``compresslab sweep`` over the reference grid on generated MNIST files."""

    N_TRAIN, N_TEST, EPOCHS = 2000, 1000, 3
    ops_per_round = len(SPARSITIES) * len(PRECISIONS)

    def setup(self) -> None:
        rng = self.rng(1)
        protos = inputs.mnist_prototypes(rng)
        train = inputs.mnist_like(rng, self.N_TRAIN, protos)
        self.test = inputs.mnist_like(rng, self.N_TEST, protos)
        inputs.write_idx(self.data_dir, "train", *train)
        inputs.write_idx(self.data_dir, "t10k", *self.test)
        self.config = os.path.join(self.data_dir, "sweep.cfg")
        with open(self.config, "w") as f:
            f.write(f"dataset = mnist\ndata_dir = {self.data_dir}\n"
                    f"epochs = {self.EPOCHS}\nbatch_size = 128\nlearning_rate = 0.1\n"
                    f"finetune_learning_rate = 0.02\nval_split = 0.3\nseed = {self.seed}\n"
                    f"sparsity_grid = {', '.join(map(str, SPARSITIES))}\n"
                    f"precision_grid = {', '.join(map(str, PRECISIONS))}\n"
                    "int8_mode = asymmetric\n")

    def run_round(self, work: str) -> int:
        code, _ = self.cli(["sweep", "--config", self.config, "--out-dir", work])
        failures = os.path.join(work, "failures.log")
        if os.path.exists(failures):
            with open(failures) as f:
                return len(f.read().splitlines())
        return 0 if code == 0 else self.ops_per_round

    def check(self, work: str) -> list[str]:
        with open(os.path.join(work, "results.csv"), newline="") as f:
            rows = {(float(r["sparsity"]), int(r["precision_bits"])): r
                    for r in csv.DictReader(f)}
        failed = set()
        if os.path.exists(os.path.join(work, "failures.log")):
            with open(os.path.join(work, "failures.log")) as f:
                failed = {line.split(":", 1)[0] for line in f}
        problems = []
        for s in SPARSITIES:
            for p in PRECISIONS:
                if (s, p) not in rows and f"s={_sparsity_text(s)} p={p}" not in failed:
                    problems.append(f"cell s={s} p={p} neither in results.csv nor failed")
        base = rows.get((0.0, 32))
        if base is None:
            return problems + ["baseline cell missing, nothing to compare against"]
        pixels, labels = self.test
        pixels = pixels[..., None]
        float_cells = {}
        for (s, p), row in sorted(rows.items(), key=lambda kv: (kv[0][0], -kv[0][1])):
            path = os.path.join(work, f"mnist-cnn_mnist_s{row['sparsity']}_p{p}.mcmp.gz")
            art = read_artifact(path)
            problems += check_artifact_file(path, art, int(row["size_bytes"]))
            if p == 32:
                float_cells[s] = {n: t.values for n, t in art.tensors.items()}
                for name, t in art.tensors.items():
                    need = math.floor(s * t.values.size)
                    if name.endswith(".weight") and t.zeros() < need:
                        problems.append(f"{path}: {name} has {t.zeros()} zeros, needs {need}")
            elif s in float_cells:
                problems += check_compressed_tensors(path, float_cells[s], art, s)
            acc = float(row["accuracy_pct"])
            ref = reference_accuracy("mnist-cnn", art, pixels, labels)
            if abs(ref - acc) > 100.0 / len(labels) + 1e-6:
                problems.append(f"{path}: reference forward gives {ref}%, results.csv {acc}%")
            if (row["int8_mode"] == "asymmetric") != (p == 8):
                problems.append(f"cell s={s} p={p}: int8_mode {row['int8_mode']!r}")
            if (s, p) != (0.0, 32):
                problems += self._check_scores(s, p, row, base)
        return problems

    @staticmethod
    def _check_scores(s: float, p: int, row: dict, base: dict) -> list[str]:
        """reduction, delta and quality recomputed with the README formula."""
        reduction = int(base["size_bytes"]) / int(row["size_bytes"])
        delta = float(row["accuracy_pct"]) - float(base["accuracy_pct"])
        quality = (s + 8 / p) / 2 * math.tanh(delta) / (1 + math.exp(-reduction))
        problems = []
        for column, want in (("reduction_factor", reduction), ("delta_acc_pp", delta),
                             ("quality", quality)):
            if abs(float(row[column]) - want) > 2e-6:
                problems.append(f"cell s={s} p={p}: {column} {row[column]}, "
                                f"recomputed {want:.6f}")
        return problems


class CliCifar(Workload):
    """train -> quantize (symmetric int8) -> evaluate both -> size both."""

    N_TRAIN, N_TEST = 640, 384
    ops_per_round = 6

    def setup(self) -> None:
        rng = self.rng(2)
        protos = inputs.cifar_prototypes(rng)
        pixels, labels = inputs.cifar_like(rng, self.N_TRAIN, protos)
        for i, part in enumerate(np.array_split(np.arange(self.N_TRAIN), 5)):
            inputs.write_cifar_batch(os.path.join(self.data_dir, f"data_batch_{i + 1}.bin"),
                                     pixels[part], labels[part])
        self.test = inputs.cifar_like(rng, self.N_TEST, protos)
        inputs.write_cifar_batch(os.path.join(self.data_dir, "test_batch.bin"), *self.test)

    def run_round(self, work: str) -> int:
        data = ["--dataset", "cifar10", "--data-dir", self.data_dir]
        fp32, int8 = os.path.join(work, "float.mcmp.gz"), os.path.join(work, "int8.mcmp.gz")
        steps = [
            ["train", *data, "--epochs", "1", "--seed", str(self.seed), "--out", fp32],
            ["quantize", "--in", fp32, "--bits", "8", "--mode", "symmetric", "--out", int8],
            ["evaluate", "--in", fp32, *data],
            ["evaluate", "--in", int8, *data],
            ["size", "--in", fp32],
            ["size", "--in", int8],
        ]
        failed = 0
        self.printed = []
        for argv in steps:
            code, out = self.cli(argv)
            failed += code != 0
            self.printed.append(out.strip())
        with open(os.path.join(work, "printed.txt"), "w") as f:
            f.write("\n".join(self.printed))
        return failed

    def check(self, work: str) -> list[str]:
        acc_fp32, acc_int8, size_fp32, size_int8 = self.printed[2:]
        fp32_path, int8_path = os.path.join(work, "float.mcmp.gz"), \
            os.path.join(work, "int8.mcmp.gz")
        fp32, int8 = read_artifact(fp32_path), read_artifact(int8_path)
        problems = check_artifact_file(fp32_path, fp32, int(size_fp32))
        problems += check_artifact_file(int8_path, int8, int(size_int8))
        if any(t.dtype != np.float32 for t in fp32.tensors.values()):
            problems.append(f"{fp32_path}: not all float32")
        weights = {n: t.values for n, t in fp32.tensors.items()}
        problems += check_compressed_tensors(int8_path, weights, int8, 0.0)
        if any(t.scale is not None and t.zero_point for t in int8.tensors.values()):
            problems.append(f"{int8_path}: symmetric tensors with a non-zero zero point")
        pixels, labels = self.test
        for path, art, printed in ((fp32_path, fp32, acc_fp32), (int8_path, int8, acc_int8)):
            ref = reference_accuracy("cifar-smallnet", art, pixels, labels)
            if abs(ref - float(printed)) > 100.0 / len(labels) + 1e-6:
                problems.append(f"{path}: reference forward gives {ref}%, evaluate {printed}%")
        return problems


class SizeLarge(Workload):
    """AlexNet-fc-like tensors through masks, quantization, gzip and back."""

    ops_per_round = 2 * len(SPARSITIES) * len(PRECISIONS)

    def setup(self) -> None:
        self.names = list(inputs.ALEXNET_FC_SHAPES)
        for name, w in inputs.alexnet_fc_like(self.rng(3)).items():
            np.save(os.path.join(self.data_dir, f"{name}.npy"), w)

    def _cell_path(self, work: str, s: float, p: int) -> str:
        return os.path.join(work, f"alexnet-fc_s{_sparsity_text(s)}_p{p}.mcmp.gz")

    def run_round(self, work: str) -> int:
        lab = self.lab
        params = {n: np.load(os.path.join(self.data_dir, f"{n}.npy")) for n in self.names}
        self.sizes, self.loaded = {}, {}
        failed = 0
        for s in SPARSITIES:       # write phase
            masked = {n: w.copy() for n, w in params.items()}
            masks = {n: lab.pruning.magnitude_threshold(w, s)
                     for n, w in params.items() if n.endswith(".weight")}
            lab.pruning.PruneMask(masks, s).apply(masked)
            for p in PRECISIONS:
                try:
                    payload = masked if p == 32 else \
                        lab.quantization.quantize_params(masked, p, "asymmetric")
                    self.sizes[s, p] = lab.sizing.gzipped_size(
                        lab.sizing.serialize_model(payload))
                    lab.sizing.save_artifact(self._cell_path(work, s, p), payload)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
        for s in SPARSITIES:       # read phase
            for p in PRECISIONS:
                try:
                    tensors = lab.sizing.load_artifact(self._cell_path(work, s, p))
                    self.loaded[s, p] = {
                        n: lab.quantization.dequantize_tensor(v)
                        if isinstance(v, lab.quantization.QuantizedTensor) else v
                        for n, v in tensors.items()}
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
        self.params = params
        return failed

    def digest(self, work: str) -> dict[str, str]:
        out = _sha256_files(work)
        for (s, p), tensors in self.loaded.items():
            h = hashlib.sha256()
            for v in tensors.values():
                h.update(np.ascontiguousarray(v).tobytes())
            out[f"loaded s={s} p={p}"] = h.hexdigest()
        out["sizes"] = repr(sorted(self.sizes.items()))
        return out

    def check(self, work: str) -> list[str]:
        problems = []
        for s in SPARSITIES:
            path = self._cell_path(work, s, 32)
            art = read_artifact(path)
            problems += check_artifact_file(path, art, self.sizes[s, 32])
            masked = {n: t.values for n, t in art.tensors.items()}
            problems += self._check_mask(path, masked, s)
            for p in PRECISIONS:
                loaded = self.loaded[s, p]
                if p != 32:
                    path = self._cell_path(work, s, p)
                    art = read_artifact(path)
                    problems += check_artifact_file(path, art, self.sizes[s, p])
                    problems += check_compressed_tensors(path, masked, art, s)
                    steps = {n: t.scale for n, t in art.tensors.items()}
                else:
                    steps = {n: None for n in masked}
                for name, w in masked.items():
                    want = w.astype(np.float16) if p == 16 and name.endswith(".weight") else w
                    got = loaded[name]
                    if steps[name] is None:
                        ok = np.array_equal(got, want.astype(np.float32))
                    else:
                        ok = np.abs(got.astype(np.float64) - w).max() <= steps[name] / 2 + 1e-7
                    if not ok:
                        problems.append(f"read phase s={s} p={p}: {name} loads back wrong")
        for p in PRECISIONS:
            chain = [self.sizes[s, p] for s in SPARSITIES]
            if not all(a > b for a, b in zip(chain, chain[1:])):
                problems.append(f"{p}-bit sizes not strictly decreasing with sparsity: {chain}")
        for s in SPARSITIES:
            chain = [self.sizes[s, p] for p in PRECISIONS]
            if not all(a > b for a, b in zip(chain, chain[1:])):
                problems.append(f"sizes at sparsity {s} not strictly decreasing with "
                                f"precision: {chain}")
        return problems

    def _check_mask(self, path: str, masked: dict, s: float) -> list[str]:
        """Exactly floor(s*M) zeros per weight, and no kept |w| below a pruned one."""
        problems = []
        for name, w in self.params.items():
            got = masked[name]
            kept = got != 0
            if not np.array_equal(got[kept], w[kept]):
                problems.append(f"{path}: {name} changes kept weights")
            if not name.endswith(".weight"):
                if not np.array_equal(got, w):
                    problems.append(f"{path}: bias {name} was changed")
                continue
            # A Gaussian draw can be exactly 0: such entries are the smallest |w|,
            # pruned first, and stay 0 when fewer than them are pruned.
            need = max(math.floor(s * w.size), int(np.count_nonzero(w == 0)))
            if w.size - int(kept.sum()) != need:
                problems.append(f"{path}: {name} has {w.size - int(kept.sum())} zeros, "
                                f"expected {need}")
            if need and kept.any() and np.abs(w[~kept]).max() > np.abs(w[kept]).min():
                problems.append(f"{path}: {name} prunes a larger |w| than it keeps")
        return problems


WORKLOADS = {"sweep-mnist": SweepMnist, "cli-cifar": CliCifar, "size-large": SizeLarge}
