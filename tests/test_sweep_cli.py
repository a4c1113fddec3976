"""End-to-end sweep and CLI tests on synthetic MNIST-shaped IDX files:
grid behaviour, CSV determinism, per-stage equivalence with sweep cells,
report rendering, and exit codes.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from compresslab import cli, pruning, quantization, sweep
from compresslab.metrics import records_from_csv
from compresslab.nncore import TrainConfig, build_model
from compresslab.sizing import load_artifact, save_artifact
from compresslab.sweep import SweepConfig, parse_config, run_sweep
from conftest import synthetic_dataset, write_idx_files


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("idx")
    write_idx_files(str(d), synthetic_dataset(900, seed=21),
                    synthetic_dataset(240, seed=22))
    return str(d)


def small_config(data_dir, out_dir, **overrides):
    kwargs = dict(dataset="mnist", data_dir=data_dir, epochs=2, batch_size=64,
                  learning_rate=0.1, finetune_learning_rate=0.02, val_split=0.2,
                  seed=5, sparsity_grid=(0.0, 0.9), precision_grid=(32, 8),
                  int8_mode="asymmetric", out_dir=out_dir)
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


@pytest.fixture(scope="module")
def sweep_result(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep"))
    cfg = small_config(data_dir, out)
    records, failures = run_sweep(cfg)
    return cfg, out, records, failures


# ---------------------------------------------------------------------------
# sweep behaviour

def test_sweep_covers_grid_in_order(sweep_result):
    _, _, records, failures = sweep_result
    assert failures == []
    cells = [(r.sparsity, r.precision_bits) for r in records]
    assert cells == [(0.0, 32), (0.0, 8), (0.9, 32), (0.9, 8)]
    assert records[0].is_baseline
    assert records[0].quality is None
    for r in records[1:]:
        assert r.quality is not None
        assert r.reduction_factor == pytest.approx(
            records[0].size_bytes / r.size_bytes)
        assert r.delta_acc_pp == pytest.approx(
            r.accuracy_pct - records[0].accuracy_pct)


def test_sweep_writes_artifacts_and_csv(sweep_result):
    cfg, out, records, _ = sweep_result
    for s, bits in [(0.0, 32), (0.0, 8), (0.9, 32), (0.9, 8)]:
        name = sweep.artifact_name(cfg.arch, cfg.dataset, s, bits)
        path = os.path.join(out, name)
        assert os.path.isfile(path), name
        load_artifact(path)  # parses cleanly
    assert sweep.artifact_name("mnist-cnn", "mnist", 0.9, 8) == \
        "mnist-cnn_mnist_s0.9_p8.mcmp.gz"
    with open(os.path.join(out, "results.csv")) as f:
        parsed = records_from_csv(f.read())
    assert len(parsed) == len(records)
    for a, b in zip(parsed, records):
        assert (a.sparsity, a.precision_bits, a.size_bytes) == \
            (b.sparsity, b.precision_bits, b.size_bytes)


def test_sweep_sparse_cells_really_are_sparse(sweep_result):
    cfg, out, records, _ = sweep_result
    tensors = load_artifact(os.path.join(
        out, sweep.artifact_name(cfg.arch, cfg.dataset, 0.9, 32)))
    weights = np.concatenate([tensors[n].reshape(-1)
                              for n in tensors if n.endswith(".weight")])
    assert (weights == 0).mean() > 0.89
    by_cell = {(r.sparsity, r.precision_bits): r for r in records}
    assert by_cell[(0.9, 32)].size_bytes < by_cell[(0.0, 32)].size_bytes
    assert by_cell[(0.9, 8)].size_bytes < by_cell[(0.9, 32)].size_bytes


def test_sweep_is_byte_deterministic(data_dir, tmp_path, sweep_result):
    _, first_out, _, _ = sweep_result
    out2 = str(tmp_path / "again")
    run_sweep(small_config(data_dir, out2))
    with open(os.path.join(first_out, "results.csv"), "rb") as f:
        csv1 = f.read()
    with open(os.path.join(out2, "results.csv"), "rb") as f:
        csv2 = f.read()
    assert csv1 == csv2
    name = sweep.artifact_name("mnist-cnn", "mnist", 0.9, 8)
    with open(os.path.join(first_out, name), "rb") as f1, \
            open(os.path.join(out2, name), "rb") as f2:
        assert f1.read() == f2.read()


def test_sweep_failed_cell_logged_not_patched(data_dir, tmp_path, monkeypatch):
    def broken(model, data, cfg, target):
        raise RuntimeError("injected fine-tune crash")
    monkeypatch.setattr(pruning, "prune_and_finetune", broken)
    out = str(tmp_path / "failing")
    records, failures = run_sweep(small_config(data_dir, out))
    assert [(s, b) for s, b, _ in failures] == [(0.9, 32), (0.9, 8)]
    assert all("injected fine-tune crash" in err for _, _, err in failures)
    # successful cells are still reported
    assert [(r.sparsity, r.precision_bits) for r in records] == [(0.0, 32), (0.0, 8)]
    with open(os.path.join(out, "failures.log")) as f:
        assert "injected" in f.read()


def test_sweep_failed_cell_keeps_the_rest_of_its_row(data_dir, tmp_path, monkeypatch):
    real, calls = quantization.quantize_params, []

    def quantize_or_fail(params, bits, mode):
        calls.append(bits)
        if len(calls) == 3:  # cells run in grid order, so the third is (0.9, 32)
            raise RuntimeError("injected quantize crash")
        return real(params, bits, mode)

    monkeypatch.setattr(quantization, "quantize_params", quantize_or_fail)
    out = tmp_path / "one-failing"
    _, failures = run_sweep(small_config(data_dir, str(out)))
    assert failures == [(0.9, 32, "RuntimeError: injected quantize crash")]
    assert (out / "failures.log").read_text() == \
        "s=0.9 p=32: RuntimeError: injected quantize crash\n"
    written = records_from_csv((out / "results.csv").read_text())
    assert [(r.sparsity, r.precision_bits) for r in written] == [(0.0, 32), (0.0, 8), (0.9, 8)]


def test_failed_baseline_cell_ends_the_sweep(data_dir, tmp_path, monkeypatch, capsys):
    def broken(params, bits, mode):
        raise RuntimeError("injected quantize crash")

    monkeypatch.setattr(quantization, "quantize_params", broken)
    out_dir, cfg_path = tmp_path / "out", tmp_path / "cfg"
    cfg_path.write_text(
        f"dataset = mnist\ndata_dir = {data_dir}\nout_dir = {out_dir}\nepochs = 1\n"
        "batch_size = 64\nval_split = 0.2\nseed = 9\n"
        "sparsity_grid = 0, 0.5\nprecision_grid = 32, 8\n")
    with pytest.raises(RuntimeError, match="injected quantize crash"):
        run_sweep(parse_config(str(cfg_path)))
    assert cli.main(["--quiet", "sweep", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: injected quantize crash\n"
    assert os.listdir(out_dir) == []  # no results.csv, no failures.log


def test_sweep_config_validation(data_dir):
    with pytest.raises(ValueError, match="must contain 0"):
        small_config(data_dir, "x", sparsity_grid=(0.5,))
    with pytest.raises(ValueError, match="must contain 32"):
        small_config(data_dir, "x", precision_grid=(8, 16))
    with pytest.raises(ValueError, match=r"sparsity_grid values must lie in \[0, 1\)"):
        small_config(data_dir, "x", sparsity_grid=(0, 1.5))
    with pytest.raises(ValueError, match=r"precision_grid values must be in \(8, 16, 32\)"):
        small_config(data_dir, "x", precision_grid=(32, 4))
    with pytest.raises(ValueError, match="dataset"):
        small_config(data_dir, "x", dataset="imagenet")
    with pytest.raises(ValueError, match="int8_mode"):
        small_config(data_dir, "x", int8_mode="affine")
    cfg = small_config(data_dir, "x", sparsity_grid=(0.9, 0.0, 0.5, 0.5))
    assert cfg.sparsity_grid == (0.0, 0.5, 0.9)
    assert cfg.precision_grid == (32, 8)


# ---------------------------------------------------------------------------
# config files

def test_parse_config_full_file(tmp_path, data_dir):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# compression sweep settings\n"
        f"dataset = mnist\n"
        f"data_dir = {data_dir}\n"
        "epochs = 2            # short run\n"
        "batch_size = 64\n"
        "learning_rate = 0.1\n"
        "finetune_learning_rate = 0.02\n"
        "val_split = 0.2\n"
        "seed = 5\n"
        "sparsity_grid = 0, 0.9\n"
        "precision_grid = 32, 8\n"
        "int8_mode = asymmetric\n"
        "out_dir = results\n")
    cfg = parse_config(str(path))
    assert cfg.dataset == "mnist" and cfg.arch == "mnist-cnn"
    assert cfg.sparsity_grid == (0.0, 0.9)
    assert cfg.precision_grid == (32, 8)
    assert cfg.epochs == 2 and cfg.seed == 5


def test_parse_config_errors(tmp_path, data_dir):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text(f"dataset = mnist\ndata_dir = {data_dir}\nturbo = yes\n")
    with pytest.raises(ValueError, match="bad1.cfg:3: unknown key 'turbo'"):
        parse_config(str(bad_key))
    bad_val = tmp_path / "bad2.cfg"
    bad_val.write_text(f"dataset = mnist\ndata_dir = {data_dir}\nepochs = soon\n")
    with pytest.raises(ValueError, match="bad2.cfg:3: bad value for epochs"):
        parse_config(str(bad_val))
    dup = tmp_path / "bad3.cfg"
    dup.write_text(f"dataset = mnist\ndataset = mnist\ndata_dir = {data_dir}\n")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config(str(dup))
    missing = tmp_path / "bad4.cfg"
    missing.write_text("dataset = mnist\n")
    with pytest.raises(ValueError, match="missing required key 'data_dir'"):
        parse_config(str(missing))
    noeq = tmp_path / "bad5.cfg"
    noeq.write_text("dataset mnist\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config(str(noeq))
    arch = tmp_path / "bad6.cfg"
    arch.write_text(f"dataset = mnist\ndata_dir = {data_dir}\narch = mnist-cnn\n")
    with pytest.raises(ValueError, match="bad6.cfg:3: unknown key 'arch'"):
        parse_config(str(arch))
    # results.csv and artifact names write at most four decimals
    for s in ("0.00001", "0.99999", "0.12345"):
        decimals = tmp_path / "bad7.cfg"
        decimals.write_text(f"dataset = mnist\ndata_dir = {data_dir}\nsparsity_grid = 0, {s}\n")
        with pytest.raises(ValueError, match=f"sparsity_grid value {float(s)} has more than four"):
            parse_config(str(decimals))


# ---------------------------------------------------------------------------
# CLI: stage-by-stage chain reproduces the sweep cell

def test_cli_chain_matches_sweep_cell(data_dir, tmp_path, sweep_result, capsys):
    _, _, records, _ = sweep_result
    by_cell = {(r.sparsity, r.precision_bits): r for r in records}
    base = str(tmp_path / "base.mcmp.gz")
    pruned = str(tmp_path / "pruned.mcmp.gz")
    quant = str(tmp_path / "quant.mcmp.gz")

    common = ["--dataset", "mnist", "--data-dir", data_dir, "--epochs", "2",
              "--batch-size", "64", "--val-split", "0.2", "--seed", "5"]
    assert cli.main(["--quiet", "train", *common, "--learning-rate", "0.1",
                     "--out", base]) == 0
    assert cli.main(["--quiet", "prune", "--in", base, "--out", pruned,
                     "--target-sparsity", "0.9", *common,
                     "--learning-rate", "0.02"]) == 0
    assert cli.main(["--quiet", "quantize", "--in", pruned, "--out", quant,
                     "--bits", "8", "--mode", "asymmetric"]) == 0
    capsys.readouterr()

    assert cli.main(["--quiet", "evaluate", "--in", quant, "--dataset", "mnist",
                     "--data-dir", data_dir]) == 0
    acc = float(capsys.readouterr().out.strip())
    assert cli.main(["--quiet", "size", "--in", quant]) == 0
    size = int(capsys.readouterr().out.strip())

    cell = by_cell[(0.9, 8)]
    assert acc == pytest.approx(cell.accuracy_pct, abs=1e-6)
    assert size == cell.size_bytes
    # baseline artifact matches too
    assert cli.main(["--quiet", "size", "--in", base]) == 0
    assert int(capsys.readouterr().out.strip()) == by_cell[(0.0, 32)].size_bytes


def test_cli_training_defaults_are_the_reference_protocol():
    cfg = SweepConfig(dataset="mnist", data_dir="data")
    assert cfg.train_config() == TrainConfig(epochs=12, batch_size=128, learning_rate=0.1,
                                             val_split=0.3, seed=0)
    assert cfg.finetune_config() == replace(cfg.train_config(), learning_rate=0.02)
    parser = cli.build_parser()
    data = ["--dataset", "mnist", "--data-dir", "data"]
    args = parser.parse_args(["train", *data, "--out", "base.mcmp.gz"])
    assert cli._sweep_config(args).train_config() == cfg.train_config()
    args = parser.parse_args(["prune", "--in", "base.mcmp.gz", "--out", "pruned.mcmp.gz",
                              "--target-sparsity", "0.5", *data])
    assert cli._sweep_config(args).finetune_config() == cfg.finetune_config()


def test_cli_sweep_and_report(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(
        f"dataset = mnist\ndata_dir = {data_dir}\nepochs = 1\nbatch_size = 64\n"
        "learning_rate = 0.1\nval_split = 0.2\nseed = 9\n"
        "sparsity_grid = 0, 0.5\nprecision_grid = 32, 8\n")
    assert cli.main(["--quiet", "sweep", "--config", str(cfg_path),
                     "--out-dir", str(out_dir)]) == 0
    csv_path = capsys.readouterr().out.strip()
    assert csv_path == str(out_dir / "results.csv")
    assert os.path.isfile(csv_path)

    assert cli.main(["report", "--csv", csv_path, "--format", "markdown"]) == 0
    md = capsys.readouterr().out
    assert cli.main(["report", "--csv", csv_path, "--format", "csv"]) == 0
    as_csv = capsys.readouterr().out

    assert "## size-accuracy" in md and "## quality" in md
    assert "# size-accuracy" in as_csv and "# quality" in as_csv
    # cell values agree between the two formats
    md_cells = [[c.strip() for c in line.strip("|").split("|")]
                for line in md.splitlines()
                if line.startswith("|") and "---" not in line and "sparsity" not in line]
    csv_cells = [line.split(",") for line in as_csv.splitlines()
                 if line and not line.startswith("#") and "sparsity" not in line]
    assert md_cells == csv_cells
    assert len(md_cells) == 8  # 4 rows in each of the two tables


def test_cli_exit_codes(data_dir, tmp_path, capsys):
    # missing input artifact -> usage error
    assert cli.main(["--quiet", "size", "--in", str(tmp_path / "nope.mcmp")]) == 2
    # malformed config -> usage error
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset = mnist\n")
    assert cli.main(["--quiet", "sweep", "--config", str(bad)]) == 2
    # corrupt artifact -> runtime failure
    broken = tmp_path / "broken.mcmp"
    broken.write_bytes(b"MCMPgarbage")
    assert cli.main(["--quiet", "size", "--in", str(broken)]) == 1
    capsys.readouterr()
    # argparse rejects unknown flags with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--quiet", "size", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("line, message", [
    ("epochs = 0", "epochs must be >= 1, got 0"),
    ("learning_rate = -1", "learning_rate must be positive, got -1.0"),
    ("val_split = 1.5", "val_split must be in [0, 1), got 1.5"),
    ("finetune_learning_rate = -1", "finetune_learning_rate must be positive, got -1.0"),
])
def test_cli_sweep_bad_protocol_is_a_usage_error(data_dir, tmp_path, capsys, line, message):
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(f"dataset = mnist\ndata_dir = {data_dir}\nout_dir = {out_dir}\n"
                        f"{line}\n")
    assert cli.main(["--quiet", "sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--epochs", "0"], "epochs must be >= 1, got 0"),
    (["prune", "--in", "base.mcmp.gz", "--target-sparsity", "0.5", "--learning-rate", "-1"],
     "finetune_learning_rate must be positive, got -1.0"),
])
def test_cli_bad_protocol_flag_exits_before_reading_data(tmp_path, capsys, argv, message):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = str(tmp_path / "m.mcmp.gz")
    assert cli.main(["--quiet", *argv, "--dataset", "mnist", "--data-dir", str(empty),
                     "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


def test_cli_prune_bad_target_sparsity_exits_before_reading_data(tmp_path, capsys):
    base = str(tmp_path / "base.mcmp.gz")
    save_artifact(base, build_model("mnist-cnn").params)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["--quiet", "prune", "--in", base, "--target-sparsity", "1.5",
                     "--dataset", "mnist", "--data-dir", str(empty),
                     "--out", str(tmp_path / "p.mcmp.gz")]) == 2
    assert capsys.readouterr().err == "error: target_sparsity must lie in [0, 1), got 1.5\n"


def test_cli_sweep_missing_data_exits_2_and_makes_no_out_dir(tmp_path, capsys):
    empty, out_dir = tmp_path / "empty", tmp_path / "out"
    empty.mkdir()
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(f"dataset = mnist\ndata_dir = {empty}\nout_dir = {out_dir}\n")
    assert cli.main(["--quiet", "sweep", "--config", str(cfg_path)]) == 2
    assert "missing dataset file train-images-idx3-ubyte" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["prune", "--in", "{base}", "--target-sparsity", "0.5"],
    ["quantize", "--in", "{base}", "--bits", "8"],
])
def test_cli_missing_out_directory_exits_before_any_work(tmp_path, capsys, argv):
    base = str(tmp_path / "base.mcmp.gz")
    save_artifact(base, build_model("mnist-cnn").params)
    empty, missing = tmp_path / "empty", tmp_path / "nodir"
    empty.mkdir()
    data = [] if argv[0] == "quantize" else ["--dataset", "mnist", "--data-dir", str(empty)]
    argv = [arg.format(base=base) for arg in argv]
    assert cli.main(["--quiet", *argv, *data, "--out", str(missing / "m.mcmp.gz")]) == 2
    assert capsys.readouterr().err == f"error: output directory {missing} does not exist\n"
    assert not missing.exists()


FAILING_SWEEP = """\
import sys
from compresslab import cli, pruning

def broken(model, data, cfg, target):
    raise RuntimeError("injected fine-tune crash")

pruning.prune_and_finetune = broken
sys.exit(cli.main(["--quiet", "sweep", "--config", sys.argv[1]]))
"""


def test_cli_sweep_reports_each_failed_cell_once(data_dir, tmp_path):
    out_dir, cfg_path = tmp_path / "out", tmp_path / "cfg"
    cfg_path.write_text(
        f"dataset = mnist\ndata_dir = {data_dir}\nout_dir = {out_dir}\nepochs = 1\n"
        "batch_size = 64\nval_split = 0.2\nseed = 9\n"
        "sparsity_grid = 0, 0.5\nprecision_grid = 32, 16, 8\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(src),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FAILING_SWEEP, str(cfg_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    logged = (out_dir / "failures.log").read_text().splitlines()
    assert len(logged) == 3
    for line in logged:  # "s=0.5 p=<bits>: RuntimeError: injected fine-tune crash"
        cell, err = line.split(": ", 1)
        assert err == "RuntimeError: injected fine-tune crash"
        assert proc.stderr.count(cell) == 1
        assert f"cell {cell} failed: {err}\n" in proc.stderr


def test_cli_quantize_rejects_requantization(data_dir, tmp_path, capsys):
    base = str(tmp_path / "m.mcmp")
    assert cli.main(["--quiet", "train", "--dataset", "mnist", "--data-dir",
                     data_dir, "--epochs", "1", "--batch-size", "64",
                     "--learning-rate", "0.1", "--val-split", "0", "--seed", "1",
                     "--out", base]) == 0
    q1 = str(tmp_path / "q1.mcmp")
    assert cli.main(["--quiet", "quantize", "--in", base, "--out", q1,
                     "--bits", "8"]) == 0
    assert cli.main(["--quiet", "quantize", "--in", q1, "--out",
                     str(tmp_path / "q2.mcmp"), "--bits", "8"]) == 1
    assert "already quantized" in capsys.readouterr().err


def test_cli_evaluate_infers_architecture(data_dir, tmp_path, capsys):
    base = str(tmp_path / "m.mcmp.gz")
    assert cli.main(["--quiet", "train", "--dataset", "mnist", "--data-dir",
                     data_dir, "--epochs", "1", "--batch-size", "64",
                     "--learning-rate", "0.1", "--val-split", "0", "--seed", "2",
                     "--out", base]) == 0
    capsys.readouterr()
    assert cli.main(["--quiet", "evaluate", "--in", base, "--dataset", "mnist",
                     "--data-dir", data_dir]) == 0
    out = capsys.readouterr().out.strip()
    assert 0.0 <= float(out) <= 100.0
