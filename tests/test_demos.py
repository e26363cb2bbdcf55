"""Each demo runs to completion as a script against the package in src/ and
prints, byte for byte, the standard output stored as
``tests/data/demo_<name>.txt``.

Demo 03 prints contraction slacks at ``%.3e``, so a last-bit change in a
certificate shows up there. Demo 04 is left out because it writes its CSV
files into demos/output/ and prints their absolute path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
DEMOS = ["01_duality_tradeoff.py", "02_erasure_by_mixing.py", "03_visibility_bounds.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    expected = (DATA / f"demo_{Path(name).stem}.txt").read_text(encoding="utf-8")
    assert out.stdout == expected
