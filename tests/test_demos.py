"""Each Python demo runs to completion as a script, and so do the shell
demo of the command line and the README's library tour."""

import os
import re
import runpy
import shlex
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


def test_cli_demo_runs(tmp_path):
    # the demo calls `eegscrub` and `python3`: both resolve to this
    # interpreter, with the package taken from src/
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "eegscrub"
    shim.write_text(f"#!/bin/sh\nexec {shlex.quote(sys.executable)} "
                    f'-m eegscrub.cli "$@"\n')
    shim.chmod(0o755)
    (bin_dir / "python3").symlink_to(sys.executable)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(["bash", str(ROOT / "demos" / "07_cli_pipeline.sh")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = re.findall(r"^(\w+),awgn,0\.0,3,-?\d", done.stdout, re.M)
    assert rows == ["dwt", "identity"], done.stdout
