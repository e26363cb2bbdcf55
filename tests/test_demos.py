"""Each demo runs to completion as a script against the package in src/.

Demo 04 is left out because it writes its CSV files into demos/output/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_duality_tradeoff.py", "02_erasure_by_mixing.py", "03_visibility_bounds.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
