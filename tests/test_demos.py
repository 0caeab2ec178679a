"""Every demo runs to completion on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("01_mixing_hides_sparsity.py", ["--n", "400"]),
        ("02_design_validation.py", ["--d", "6"]),
        # training is full-batch: batch_size only sets the steps per epoch, so
        # demos 03 and 04 run on any row count
        ("03_train_and_inspect.py", ["--n", "2000", "--epochs", "2"]),
        ("04_where_ica_fails.py", ["--n", "2000", "--seeds", "1"]),
        ("05_benchmark_grid.py", ["--which", "table1", "--out", None]),
    ],
)
def test_demo_runs(tmp_path, script, args):
    args = [str(tmp_path) if a is None else a for a in args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
