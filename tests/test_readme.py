"""The README's Python examples run against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    blocks = _BLOCK.findall((ROOT / "README.md").read_text())
    assert blocks, "README.md has no python block"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in blocks:
        # a fresh interpreter per block, so every name it uses must come from the package
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
