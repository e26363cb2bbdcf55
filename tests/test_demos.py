"""Each demo runs to completion as a script against the package in src/ and
prints, byte for byte, the standard output stored as
``tests/data/demo_<name>.txt``.

Demo 03 prints contraction slacks at ``%.3e``, so a last-bit change in a
certificate shows up there. Demo 04 writes its CSV files into an
``output/`` directory next to the script and prints that directory's path,
so it runs as a copy in a temporary directory, with the path replaced by
``<output>`` in the pinned text. Its counts file is pinned too; its fitted
records are not, since they hold the fit's floats at full precision.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
DEMOS = ["01_duality_tradeoff.py", "02_erasure_by_mixing.py", "03_visibility_bounds.py"]


def _run(script: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    expected = (DATA / f"demo_{Path(name).stem}.txt").read_text(encoding="utf-8")
    assert _run(ROOT / "demos" / name) == expected


def test_interferometer_demo_output_and_counts(tmp_path):
    script = tmp_path / "04_interferometer_run.py"
    shutil.copy(ROOT / "demos" / script.name, script)
    stdout = _run(script).replace(str(tmp_path / "output"), "<output>")
    assert stdout == (DATA / "demo_04_interferometer_run.txt").read_text(encoding="utf-8")
    counts = (tmp_path / "output" / "fringes_hh_hh.csv").read_text(encoding="utf-8")
    assert counts == (DATA / "demo_04_fringes_hh_hh.csv").read_text(encoding="utf-8")
