"""The frozen sweep golden, reproduced by a process restricted to one CPU.

With one usable CPU the conv kernels run both halves of their work on the
calling thread and never start their helper thread.  The bits must not
notice: the child pins itself to one CPU with ``os.sched_setaffinity``, runs
the golden sweep config of ``test_sweep_golden.py`` at one BLAS thread, and
must reproduce ``GOLDEN_SHA256`` unchanged.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import synthetic_dataset, write_idx_files
from test_sweep_golden import CONFIG, GOLDEN_SHA256, SRC

CHILD = """\
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from compresslab import cli
code = cli.main(["--quiet", "sweep", "--config", sys.argv[1]])
print(len(os.sched_getaffinity(0)), threading.active_count())
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to compare against the one-CPU path")
def test_one_cpu_sweep_matches_frozen_hashes(tmp_path):
    data_dir, out_dir = tmp_path / "idx", tmp_path / "out"
    data_dir.mkdir()
    write_idx_files(str(data_dir), synthetic_dataset(600, seed=1),
                    synthetic_dataset(200, seed=2))
    config = tmp_path / "sweep.cfg"
    config.write_text(CONFIG.format(data_dir=data_dir, out_dir=out_dir))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(SRC),
                                           os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", CHILD, str(config)], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    assert out.splitlines()[-1] == "1 1"  # one CPU, and no thread but the main one
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
              for name in sorted(os.listdir(out_dir))}
    assert hashes == GOLDEN_SHA256
