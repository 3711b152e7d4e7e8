"""Commands that need no filter, Welch estimate or spline never load scipy.

scipy is imported inside the functions that call it, so importing the
package and running ``train``, ``eval``, ``predict`` or a scipy-free
denoiser costs no scipy start-up, and EMD's envelopes load only
``scipy.linalg``. Each case runs in a fresh interpreter, since this test
process has scipy loaded already.
"""

import json
import os
import subprocess
import sys

import numpy as np

import eegscrub
from eegscrub import (
    FeatureMatrix,
    Recording,
    Signal,
    rng_stream,
    save_feature_csv,
    save_raw_csv,
)

_REPORT = """
import json, sys
print("scipy:", json.dumps(sorted(k for k in sys.modules
                                  if k == "scipy" or k.startswith("scipy."))))
"""


def scipy_modules_after(cwd, *steps) -> list:
    """Run ``steps`` in turn in one fresh interpreter; after each, the scipy
    modules loaded so far."""
    src = os.path.dirname(os.path.dirname(eegscrub.__file__))
    done = subprocess.run([sys.executable, "-c",
                           "".join(step + _REPORT for step in steps)],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return [json.loads(line[len("scipy:"):])
            for line in done.stdout.splitlines() if line.startswith("scipy:")]


def test_import_loads_no_scipy_and_welch_does(tmp_path):
    # the welch_psd step is the positive control: the guard sees an import
    after_import, after_welch = scipy_modules_after(
        tmp_path, "import eegscrub, eegscrub.cli\n",
        "import numpy as np\n"
        "eegscrub.welch_psd(np.ones(64), fs=256.0, seg_len=32)\n")
    assert after_import == []
    assert "scipy.signal" in after_welch


def test_train_eval_predict_load_no_scipy(tmp_path):
    labels = np.arange(30) % 3
    rows = rng_stream(0, "scipy-free").normal(size=(30, 6)) + labels[:, None]
    save_feature_csv(FeatureMatrix(rows, tuple(f"f{i}" for i in range(6)),
                                   tuple(labels.tolist())),
                     tmp_path / "feats.csv")
    code = (
        "from eegscrub.cli import main\n"
        "feats, model = ['--features', 'feats.csv'], ['--model', 'm.eegmodel']\n"
        "assert main(['train', *feats, *model, '--epochs', '2']) == 0\n"
        "assert main(['eval', *feats, *model]) == 0\n"
        "assert main(['predict', *feats, *model, '--out', 'p.csv']) == 0\n"
    )
    assert scipy_modules_after(tmp_path, code) == [[]]


def denoise_noise(tmp_path, method: str) -> str:
    """``denoise --method <method>`` of a 4-channel noise recording, as
    code for ``scipy_modules_after``."""
    rng = rng_stream(0, "scipy-free")
    save_raw_csv(Recording(
        channels=tuple(Signal(samples=rng.normal(size=512), fs=256.0)
                       for _ in range(4)),
        channel_names=("TP9", "AF7", "AF8", "TP10")), tmp_path / "raw.csv")
    return ("from eegscrub.cli import main\n"
            f"assert main(['denoise', '--in', 'raw.csv', '--method', "
            f"'{method}', '--out', 'clean.csv']) == 0\n")


def test_denoise_ssa_cca_loads_no_scipy(tmp_path):
    code = denoise_noise(tmp_path, "ssa_cca")
    assert scipy_modules_after(tmp_path, code) == [[]]


def test_denoise_emd_maf_loads_linalg_not_interpolate(tmp_path):
    # the envelopes call LAPACK's tridiagonal solver, not CubicSpline
    (loaded,) = scipy_modules_after(tmp_path, denoise_noise(tmp_path,
                                                            "emd_maf"))
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.interpolate")]
    assert "scipy.signal" not in loaded
