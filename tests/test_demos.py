"""Each Python demo runs to completion as a script, and so does the README's
library tour."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", tour], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    float(done.stdout)  # the restored SNR in dB, one number
    assert len(done.stdout.split()) == 1
