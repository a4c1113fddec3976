"""The demos run to completion against the source tree.

Each demo runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, from an
empty working directory.  ``mnist_sweep.py`` is left out: it needs the real
MNIST files and runs for about an hour.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("demo", ["compress_synthetic.py", "pruning_walkthrough.py",
                                  "quantization_roundtrip.py", "report_tables.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(os.path.join(ROOT, "src")),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, os.path.abspath(os.path.join(ROOT, "demos", demo))],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
