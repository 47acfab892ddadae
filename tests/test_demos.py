"""Smoke tests: every demo script runs to completion from a fresh
interpreter, and README's Python blocks run in order in one namespace."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.S | re.M)


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def test_readme_python_blocks_run_in_order():
    # each block may use what the blocks before it defined, as a reader
    # pasting them one after another would
    assert len(README_BLOCKS) >= 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(README_BLOCKS, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
