"""The demos run end to end as scripts against this checkout's `src/`;
demo 01 prints epoch 0's measurement arrays, one row per satellite, with
elevations from the satellite-state array aligned to those rows; demos
02 and 03 build one `EpochGeometry` for the session and hand it to SPP,
then take the geometry SPP located, at its fixes, for Doppler velocity,
or for the TR-RTK session grid whose epoch pairs demo 03 solves. Demo
05 drives the `gnssgraph` command, which a shim on PATH runs as
`python -m gnssgraph.cli` when the package is not installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0[1-5]_*.*"))


def test_four_demos_found():
    """The four Python demos, then the CLI workflow script."""
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]
    assert [p.suffix for p in DEMOS] == [".py"] * 4 + [".sh"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    shim = tmp_path / "gnssgraph"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gnssgraph.cli '
                    '"$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    command = (["sh", str(demo)] if demo.suffix == ".sh"
               else [sys.executable, str(demo)])
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
