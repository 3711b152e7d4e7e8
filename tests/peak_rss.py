"""Peak-memory rise of one step, measured in a fresh interpreter.

The peak resident set counts what tracemalloc cannot see, such as BLAS
operand copies, but only ever grows; so each measurement runs in a process
of its own, which imports eegscrub from this checkout. It reads Linux's
VmHWM, the peak of the process's own address space: ru_maxrss would start at
the peak of the process it was started from, this test run's, and hide any
smaller rise.
"""

import os
import subprocess
import sys

import eegscrub

_MEASURE = """
def _peak_mib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0

_before = _peak_mib()
{step}
print(_peak_mib() - _before)
"""


def peak_rise_mib(setup: str, step: str) -> float:
    """MiB by which ``step`` raises the peak RSS of a fresh interpreter that
    has run ``setup``; both are Python source. Run any first-use allocation
    (BLAS buffers, say) in ``setup``, on a small input."""
    src = os.path.dirname(os.path.dirname(eegscrub.__file__))
    done = subprocess.run([sys.executable, "-c",
                           setup + _MEASURE.format(step=step)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)
