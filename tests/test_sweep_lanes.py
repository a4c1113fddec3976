"""The sweep's rows on two lanes: the same bytes as one lane, failures kept in
grid order, no thread left behind, a BLAS thread count the caller cannot
change, and log lines that name their row; and the first fine-tune epoch
that rows ramping from the same sparsity share, trained once per sweep.
"""

import ctypes
import functools
import glob
import hashlib
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from compresslab import datasets, nncore, pruning, quantization, sizing, sweep
from compresslab.nncore import TrainConfig, build_model
from compresslab.sweep import SweepConfig, run_sweep
from conftest import synthetic_dataset, write_idx_files
from test_sweep_golden import CONFIG, GOLDEN_SHA256, SRC

MULTI_CPU = len(os.sched_getaffinity(0)) > 1 if hasattr(os, "sched_getaffinity") else False
LANE = "compresslab-sweep-lane"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("idx")
    write_idx_files(str(d), synthetic_dataset(600, seed=31), synthetic_dataset(200, seed=32))
    return str(d)


def _config(data_dir, out_dir):
    return SweepConfig(dataset="mnist", data_dir=data_dir, out_dir=str(out_dir), epochs=1,
                       batch_size=64, val_split=0.2, seed=6,
                       sparsity_grid=(0.0, 0.5, 0.75, 0.9, 0.95), precision_grid=(32, 16, 8))


def _weight_sparsity(params):
    weights = [w for name, w in params.items() if name.endswith(".weight")]
    return sum(int((w == 0).sum()) for w in weights) / sum(w.size for w in weights)


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _threads():
    """The live threads, once nncore's helper has started: it lives for the
    rest of the process by design, and any one-lane phase may start it."""
    nncore._helper.submit(int).result()
    return set(threading.enumerate())


def _sweep_with_two_failures(monkeypatch, cfg):
    """Run the sweep with the 0.75 row's fine-tune failing and cell (0.9, 16)'s
    quantize failing.  Both are picked by value, never by call count, since
    the lanes interleave their calls.  Returns the lanes that ran rows."""
    real_prune, real_quantize, lanes = pruning.prune_and_finetune, \
        quantization.quantize_params, set()

    def prune_or_fail(model, data, cfg, target):
        lanes.add(threading.current_thread().name)
        if target == 0.75:
            raise RuntimeError("injected fine-tune crash")
        return real_prune(model, data, cfg, target)

    def quantize_or_fail(params, bits, mode):
        if bits == 16 and abs(_weight_sparsity(params) - 0.9) < 0.01:
            raise RuntimeError("injected quantize crash")
        return real_quantize(params, bits, mode)

    with monkeypatch.context() as m:
        m.setattr(pruning, "prune_and_finetune", prune_or_fail)
        m.setattr(quantization, "quantize_params", quantize_or_fail)
        before = _threads()
        records, failures = run_sweep(cfg)
        assert set(threading.enumerate()) == before  # the lane's worker is gone
    return lanes, records, failures


def test_two_lanes_and_one_lane_write_the_same_bytes(data_dir, tmp_path, monkeypatch):
    threaded, serial = tmp_path / "threaded", tmp_path / "serial"
    lanes, records, failures = _sweep_with_two_failures(monkeypatch, _config(data_dir, threaded))
    assert lanes == ({"MainThread", LANE} if MULTI_CPU else {"MainThread"})
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        lanes, records1, failures1 = _sweep_with_two_failures(
            monkeypatch, _config(data_dir, serial))
    assert lanes == {"MainThread"}
    assert _files(threaded) == _files(serial)
    assert (records, failures) == (records1, failures1)
    assert [(s, bits) for s, bits, _ in failures] == \
        [(0.75, 32), (0.75, 16), (0.75, 8), (0.9, 16)]
    assert (threaded / "failures.log").read_text() == (
        "s=0.75 p=32: RuntimeError: injected fine-tune crash\n"
        "s=0.75 p=16: RuntimeError: injected fine-tune crash\n"
        "s=0.75 p=8: RuntimeError: injected fine-tune crash\n"
        "s=0.9 p=16: RuntimeError: injected quantize crash\n")
    cells = [(r.sparsity, r.precision_bits) for r in records]
    assert cells == [(s, bits) for s in (0.0, 0.5, 0.9, 0.95) for bits in (32, 16, 8)
                     if (s, bits) != (0.9, 16)]


def test_the_helper_runs_only_while_fewer_than_two_lanes_do(monkeypatch):
    """Each lane counts itself until its loop ends, also on an error or an
    interrupt, and no kernel part goes to the helper while two are counted."""
    monkeypatch.setattr(nncore, "_cpus", lambda: 2)
    submits, real_submit = [], nncore._helper.submit
    short_started, short_done = threading.Event(), threading.Event()
    # (lanes counted, whether the short job had ended) at each hand-over
    monkeypatch.setattr(nncore._helper, "submit", lambda fn: submits.append(
        (len(nncore._lanes), short_done.is_set())) or real_submit(fn))
    model, data = build_model("mnist-cnn", seed=2), synthetic_dataset(8, seed=3)

    def job(kind):
        if kind == "short":
            short_started.set()
            nncore.loss_and_grad(model, data.images, data.labels)
            short_done.set()
            return
        assert short_started.wait(60)
        nncore.loss_and_grad(model, data.images, data.labels)  # beside the short job
        assert short_done.wait(60)
        deadline = time.monotonic() + 10
        while len(nncore._lanes) > 1 and time.monotonic() < deadline:  # its lane's loop ends
            time.sleep(0.001)
        nncore.loss_and_grad(model, data.images, data.labels)

    assert nncore._lanes == {}
    nncore._on_two_lanes(job, ["long", "short"])  # taken in order: "long" is counted first
    assert submits and all(lanes == 1 and done for lanes, done in submits)
    assert nncore._lanes == {}
    for error in (ValueError, KeyboardInterrupt):
        def fail(x, error=error):
            if x == 1:
                raise error
        with pytest.raises(error):
            nncore._on_two_lanes(fail, [0, 1, 2, 3])
        assert nncore._lanes == {}


def test_lanes_take_each_item_once_in_order_under_frequent_switches():
    taken, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        squares = nncore._on_two_lanes(lambda x: taken.append(x) or x * x, list(range(3000)))
    finally:
        sys.setswitchinterval(interval)
    assert squares == [x * x for x in range(3000)]
    assert sorted(taken) == list(range(3000))


@pytest.mark.parametrize("cpus", [None, {0}], ids=["two-lanes", "one-lane"])
def test_an_interrupted_row_stops_both_lanes(data_dir, tmp_path, monkeypatch, cpus):
    if cpus:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    real, started = pruning.prune_and_finetune, []

    def interrupt_first_row(model, data, cfg, target):
        started.append(target)
        if target == 0.5:
            raise KeyboardInterrupt
        return real(model, data, cfg, target)

    monkeypatch.setattr(pruning, "prune_and_finetune", interrupt_first_row)
    out = tmp_path / "out"
    before = _threads()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(_config(data_dir, out))
    assert set(threading.enumerate()) == before
    # the other lane may finish the row it holds, but takes no new one
    assert 0.5 in started and set(started) <= ({0.5, 0.75} if MULTI_CPU and not cpus else {0.5})
    assert not (out / "results.csv").exists()


def _slow_row_in_the_worker(in_row, finished, main_row):
    """A row function: the worker's row trains for about a minute unless
    stopped; this thread's row is ``main_row``."""
    data = synthetic_dataset(16, seed=5)

    def row(x):
        if threading.current_thread().name != LANE:
            return main_row(x)
        in_row.set()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            nncore.train(build_model("mnist-cnn", seed=1), data,
                         TrainConfig(epochs=20, batch_size=4, learning_rate=0.01))
        finished.append(x)
    return row


def test_an_interrupt_in_this_lanes_row_ends_the_workers_row_at_once(monkeypatch):
    monkeypatch.setattr(nncore, "_cpus", lambda: 2)
    in_row, finished = threading.Event(), []

    def interrupted(x):
        assert in_row.wait(60)
        raise KeyboardInterrupt

    before, start = _threads(), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        nncore._on_two_lanes(_slow_row_in_the_worker(in_row, finished, interrupted), [0, 1])
    assert time.monotonic() - start < 30 and not finished
    assert set(threading.enumerate()) == before


def test_a_failed_row_in_the_worker_ends_this_lanes_row_at_once(monkeypatch):
    monkeypatch.setattr(nncore, "_cpus", lambda: 2)
    in_row, finished, data = threading.Event(), [], synthetic_dataset(16, seed=5)

    def row(x):
        if threading.current_thread().name == LANE:
            assert in_row.wait(60)
            raise RuntimeError("injected row crash")
        in_row.set()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            nncore.train(build_model("mnist-cnn", seed=1), data,
                         TrainConfig(epochs=20, batch_size=4, learning_rate=0.01))
        finished.append(x)

    before, start = _threads(), time.monotonic()
    with pytest.raises(RuntimeError, match="injected row crash"):
        nncore._on_two_lanes(row, [0, 1])
    assert time.monotonic() - start < 30 and not finished
    assert set(threading.enumerate()) == before


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt for the test, also where pytest was
    started with SIGINT ignored (Python then installs no handler of its own)."""
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, old)


@pytest.mark.usefixtures("sigint_raises")
def test_an_interrupt_while_joining_ends_the_workers_row_at_once(monkeypatch):
    monkeypatch.setattr(nncore, "_cpus", lambda: 2)
    in_row, finished, main = threading.Event(), [], threading.main_thread().ident

    def ctrl_c():  # once this thread's lane has run out of items and waits for the worker
        assert in_row.wait(60)
        time.sleep(0.2)
        signal.pthread_kill(main, signal.SIGINT)

    before, start = _threads(), time.monotonic()
    sender = threading.Thread(target=ctrl_c)
    with pytest.raises(KeyboardInterrupt):
        sender.start()
        nncore._on_two_lanes(_slow_row_in_the_worker(
            in_row, finished, lambda x: in_row.wait(60)), [0, 1])
    sender.join()
    assert time.monotonic() - start < 30 and not finished
    assert set(threading.enumerate()) == before


@pytest.mark.usefixtures("sigint_raises")
def test_a_second_interrupt_does_not_wait_for_the_worker():
    in_row, release, main = threading.Event(), threading.Event(), threading.main_thread().ident

    def row(x):
        if threading.current_thread().name != LANE:
            assert in_row.wait(60)
            raise KeyboardInterrupt
        in_row.set()
        release.wait(60)  # a row that never looks for the stop

    def ctrl_c():
        assert in_row.wait(60)
        time.sleep(0.2)
        signal.pthread_kill(main, signal.SIGINT)

    sender, start = threading.Thread(target=ctrl_c), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sender.start()
        nncore._on_two_lanes(row, [0, 1])
    assert time.monotonic() - start < 30
    release.set()
    for thread in [sender, *(t for t in threading.enumerate() if t.name == LANE)]:
        thread.join()


def test_a_row_asked_to_stop_stores_no_more_cells(data_dir, tmp_path, monkeypatch):
    cfg = _config(data_dir, tmp_path)
    # this thread listed as a lane whose run has an error
    monkeypatch.setitem(nncore._lanes, threading.get_ident(), [RuntimeError("other lane")])
    with pytest.raises(KeyboardInterrupt):
        sweep._row(cfg, build_model("mnist-cnn", seed=1), 0.5, synthetic_dataset(10, seed=2))
    assert os.listdir(tmp_path) == []


def test_one_lane_where_a_conv_gemm_gives_the_helper_work(data_dir, tmp_path, monkeypatch):
    # mnist-cnn's conv has 26 * 26 * 108 multiply-adds per example: 2**26 at 920
    assert [sweep._too_big_for_two_lanes(build_model("mnist-cnn"), n)
            for n in (128, 919, 920)] == [False, False, True]
    assert sweep._too_big_for_two_lanes(build_model("cifar-smallnet"), 1)  # evaluation's batch
    monkeypatch.setattr(nncore, "_cpus", lambda: 2)
    monkeypatch.setattr(sweep, "_too_big_for_two_lanes", lambda model, batch: True)
    lanes, _, failures = _sweep_with_two_failures(monkeypatch, _config(data_dir, tmp_path))
    assert lanes == {"MainThread"} and len(failures) == 4


def test_fine_tune_epoch_lines_name_their_row(caplog):
    data = synthetic_dataset(160, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.02, val_split=0.2, seed=1)
    with caplog.at_level(logging.INFO, logger="compresslab.nncore"):
        pruning.prune_and_finetune(build_model("mnist-cnn", seed=1), data, cfg, 0.99)
    lines = [r.getMessage() for r in caplog.records if r.name == "compresslab.nncore"]
    assert len(lines) == 2
    # the first epoch runs at the ramp's start, which alone would not tell rows apart
    assert lines[0].startswith("epoch 1/2: sparsity 0.5000 of 0.9900, loss ")
    assert lines[1].startswith("epoch 2/2: sparsity 0.9900 of 0.9900, loss ")


def _shared_config(data_dir, out_dir):
    """Two epochs, so rows 0.5 and 0.9 share their first; 0.25's ramp starts at 0.25."""
    return replace(_config(data_dir, out_dir), epochs=2, sparsity_grid=(0.0, 0.25, 0.5, 0.9))


def _two_lanes_then_one(cfg, out_dir, monkeypatch):
    """``run_sweep`` into ``out_dir``/two and ``out_dir``/one; both must give
    the same files and results.  Returns the two-lane results."""
    results = []
    for lanes in ("two", "one"):
        with monkeypatch.context() as m:
            m.setattr(nncore, "_cpus", lambda: 2 if lanes == "two" else 1)
            results.append(run_sweep(replace(cfg, out_dir=str(out_dir / lanes))))
    assert _files(out_dir / "two") == _files(out_dir / "one")
    assert results[0] == results[1]
    return results[0]


@pytest.fixture(scope="module")
def shared_sweep(data_dir, tmp_path_factory):
    """A sweep whose rows 0.5 and 0.9 share a first epoch, and the fine-tunes it ran."""
    cfg, out, calls = _shared_config(data_dir, ""), tmp_path_factory.mktemp("shared"), set()
    real = pruning.prune_and_finetune

    def recorded(model, data, cfg, target, epochs=None):
        calls.add((target, epochs))
        return real(model, data, cfg, target, epochs=epochs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pruning, "prune_and_finetune", recorded)
        records, failures = _two_lanes_then_one(cfg, out, m)
    return cfg, out / "two", records, failures, calls


def test_rows_sharing_a_first_epoch_match_their_whole_fine_tunes(data_dir, shared_sweep):
    cfg, out, _, failures, calls = shared_sweep
    assert not failures
    assert sweep._sharing_first_epoch(cfg) == [(0.5, 0.9)]
    assert calls == {(0.25, None), (0.5, range(1)), (0.5, range(1, 2)), (0.9, range(1, 2))}
    stored = lambda s: (out / sweep.artifact_name(cfg.arch, cfg.dataset, s, 32)).read_bytes()
    baseline = nncore.model_from_params(sizing.load_artifact(
        str(out / sweep.artifact_name(cfg.arch, cfg.dataset, 0.0, 32))))
    train_data, _ = datasets.load_mnist(data_dir)
    for s in (0.25, 0.5, 0.9):
        whole, _ = pruning.prune_and_finetune(baseline, train_data, cfg.finetune_config(), s)
        path = out.parent / f"whole-{s}.mcmp.gz"
        sizing.save_artifact(str(path), quantization.quantize_params(whole.params, 32,
                                                                     cfg.int8_mode))
        assert path.read_bytes() == stored(s)


def test_a_failed_shared_epoch_fails_the_rows_it_serves(data_dir, tmp_path, monkeypatch,
                                                        shared_sweep):
    _, clean_out, clean_records, _, _ = shared_sweep
    real = pruning.prune_and_finetune

    def fail_first_epoch(model, data, cfg, target, epochs=None):
        if epochs == range(1):  # picked by value: the lanes interleave calls
            raise RuntimeError("injected first-epoch crash")
        return real(model, data, cfg, target, epochs=epochs)

    monkeypatch.setattr(pruning, "prune_and_finetune", fail_first_epoch)
    records, failures = _two_lanes_then_one(_shared_config(data_dir, ""), tmp_path, monkeypatch)
    assert failures == [(s, bits, "RuntimeError: injected first-epoch crash")
                        for s in (0.5, 0.9) for bits in (32, 16, 8)]
    assert records == [r for r in clean_records if r.sparsity in (0.0, 0.25)]
    files = _files(tmp_path / "two")
    assert {name for name in files if "_s0.5_" in name or "_s0.9_" in name} == set()
    assert {name: data for name, data in files.items() if name.endswith(".gz")} == \
        {name: data for name, data in _files(clean_out).items()
         if "_s0_" in name or "_s0.25_" in name}


@pytest.mark.parametrize("cpus", [2, 1], ids=["two-lanes", "one-lane"])
def test_a_failed_baseline_cell_ends_a_sweep_with_a_shared_epoch(data_dir, tmp_path,
                                                                 monkeypatch, cpus):
    real = quantization.quantize_params

    def fail_baseline(params, bits, mode):
        if bits == 32 and _weight_sparsity(params) < 0.01:
            raise RuntimeError("injected quantize crash")
        return real(params, bits, mode)

    monkeypatch.setattr(nncore, "_cpus", lambda: cpus)
    monkeypatch.setattr(quantization, "quantize_params", fail_baseline)
    with pytest.raises(RuntimeError, match="injected quantize crash"):
        run_sweep(_shared_config(data_dir, tmp_path))
    assert os.listdir(tmp_path) == []


def test_each_sweep_trains_its_shared_epoch_itself(data_dir, tmp_path, monkeypatch):
    real, first_epochs = nncore._run_epochs, []

    def counted(*args, epochs=None):
        if epochs == range(1):  # it runs alone, on the calling thread, with no lane listed
            first_epochs.append((threading.current_thread().name, dict(nncore._lanes)))
        return real(*args, epochs=epochs)

    monkeypatch.setattr(nncore, "_run_epochs", counted)
    _two_lanes_then_one(_shared_config(data_dir, ""), tmp_path, monkeypatch)  # two sweeps
    assert len(first_epochs) == 2
    assert first_epochs == [("MainThread", {})] * 2


def test_training_split_subsets_are_its_index_arrays():
    """train gathers from the index arrays of the one seeded split; a subset
    of them holds those examples."""
    data = synthetic_dataset(50, seed=8)
    train_idx, val_idx = nncore._split_indices(len(data), 0.3, seed=4)
    tr, val = data.subset(train_idx), data.subset(val_idx)
    assert len(val_idx) == 15 and sorted([*train_idx, *val_idx]) == list(range(50))
    np.testing.assert_array_equal(tr.images, data.images[train_idx])
    np.testing.assert_array_equal(val.labels, data.labels[val_idx])


def _bundled_openblas():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    return ctypes.CDLL(libs[0]) if len(libs) == 1 else None


@pytest.mark.skipif(_bundled_openblas() is None, reason="numpy does not bundle OpenBLAS here")
def test_one_blas_thread_gives_the_callers_count_back():
    lib = _bundled_openblas()
    get, set_threads = lib.scipy_openblas_get_num_threads64_, \
        lib.scipy_openblas_set_num_threads64_
    before = get()
    set_threads(2)  # a count other than the pin's, whatever the environment set
    try:
        with nncore._one_blas_thread():
            assert get() == 1
            with nncore._one_blas_thread():
                assert get() == 1
            assert get() == 1  # a nested call does not restore early
        assert get() == 2
    finally:
        set_threads(before)


@pytest.mark.skipif(_bundled_openblas() is None, reason="numpy does not bundle OpenBLAS here")
def test_one_blas_thread_pins_nothing_when_it_cannot_tell_the_library(monkeypatch):
    lib, real_glob = _bundled_openblas(), glob.glob
    monkeypatch.setattr(glob, "glob", lambda pattern: real_glob(pattern) * 2)
    # the lookup runs once per process: look again, as a process would where two match
    monkeypatch.setattr(nncore, "_openblas", functools.cache(nncore._openblas.__wrapped__))
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        with nncore._one_blas_thread():
            assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@pytest.mark.skipif(_bundled_openblas() is None, reason="numpy does not bundle OpenBLAS here")
def test_lane_pass_pins_one_blas_thread_around_both_lanes():
    """Without a pin around the whole pass, one lane's pin could give the
    caller's count back while the other lane runs BLAS."""
    lib = _bundled_openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        assert nncore._on_two_lanes(lambda x: nncore._openblas()[0](), list(range(4))) == [1] * 4
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


LIBRARY_CALLS = """\
import hashlib
import numpy as np
from compresslab import (TrainConfig, build_model, evaluate_accuracy, forward,
                         loss_and_grad, nncore, prune_and_finetune, train)
from compresslab.datasets import DatasetSplit
rng = np.random.default_rng(7)
data = DatasetSplit(rng.uniform(0, 1, (400, 28, 28, 1)).astype(np.float32),
                    rng.integers(0, 10, 400))
cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.1, val_split=0.2, seed=3)
model = train(build_model("mnist-cnn", seed=3), data, cfg)
pruned, _ = prune_and_finetune(model, data, cfg, 0.9)
for out in (*model.params.values(), *pruned.params.values(), forward(pruned, data.images)):
    print(hashlib.sha256(out.tobytes()).hexdigest())
loss, grads = loss_and_grad(model, data.images[:128], data.labels[:128])
for out in grads.values():
    print(hashlib.sha256(out.tobytes()).hexdigest())
print(repr(loss), repr(evaluate_accuracy(pruned, data)), nncore._openblas()[0]())
"""


@pytest.mark.skipif(_bundled_openblas() is None, reason="numpy does not bundle OpenBLAS here")
def test_library_calls_at_two_blas_threads_give_the_one_thread_bits():
    """Every GEMM runs inside forward or loss_and_grad, and both pin one BLAS
    thread, so train, prune_and_finetune, forward, evaluate_accuracy and
    loss_and_grad give the one-thread bits at a caller's count of two, and
    give that count back."""
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([os.path.abspath(SRC),
                                               os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", LIBRARY_CALLS], env=env, check=True,
                                   capture_output=True, text=True, timeout=600).stdout.split())
    assert outs[0][-1] == "1" and outs[1][-1] == "2"
    assert outs[0][:-1] == outs[1][:-1]


def test_sweep_at_two_blas_threads_matches_frozen_hashes(tmp_path):
    data_dir, out_dir = tmp_path / "idx", tmp_path / "out"
    data_dir.mkdir()
    write_idx_files(str(data_dir), synthetic_dataset(600, seed=1),
                    synthetic_dataset(200, seed=2))
    config = tmp_path / "sweep.cfg"
    config.write_text(CONFIG.format(data_dir=data_dir, out_dir=out_dir))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([os.path.abspath(SRC),
                                           os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "compresslab.cli", "--quiet", "sweep",
                    "--config", str(config)], env=env, check=True, timeout=600)
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
              for name in sorted(os.listdir(out_dir))}
    assert hashes == GOLDEN_SHA256
