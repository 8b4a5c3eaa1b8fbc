"""The demos run end to end as scripts against this checkout's `src/`;
demo 01 prints epoch 0's measurement arrays, one row per satellite, with
elevations from the satellite-state array aligned to those rows; demos
02 and 03 build one `EpochGeometry` for the session and hand it to SPP,
then locate it at the fixes for Doppler velocity, or for the TR-RTK
session grid whose epoch pairs demo 03 solves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0[1-4]_*.py"))


def test_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
