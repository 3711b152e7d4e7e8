"""Measurement plumbing shared by the workloads: operations, passes, stats and
the environment record."""

import ctypes
import glob
import os
import platform
import resource
import statistics
import time


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("need at least one value")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def peak_rss_mib() -> float:
    """This process's own peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpFailed(Exception):
    """Raised by :meth:`Ops.run` after it has recorded a failed operation."""


class Ops:
    """Attempted operations, keyed so that a repeated pass counts once.

    An operation fails when it raises or when its output check reports a
    problem; the first failure of a key is kept with its kind. Check
    violations also make the run incorrect.
    """

    def __init__(self):
        self.attempted = set()
        self.failures = {}
        self.violations = {}

    def run(self, key: str, fn, check=None):
        self.attempted.add(key)
        try:
            result = fn()
        except Exception as exc:  # any library failure is a failed operation
            self.failures.setdefault(key, type(exc).__name__)
            raise OpFailed(key) from exc
        problems = check(result) if check is not None else []
        if problems:
            self.failures.setdefault(key, "CheckFailed")
            self.violations.setdefault(key, list(problems))
            raise OpFailed(key)
        return result

    def not_run(self, keys) -> None:
        """Count steps of a chain that could not start after a failure."""
        for key in keys:
            self.attempted.add(key)
            self.failures.setdefault(key, "NotRun")

    @property
    def correct(self) -> bool:
        return not self.violations

    def failure_kinds(self) -> dict:
        kinds = {}
        for kind in self.failures.values():
            kinds[kind] = kinds.get(kind, 0) + 1
        return kinds


def timed_passes(run_pass, seconds: float) -> list:
    """Run ``run_pass`` until ``seconds`` have passed, at least once; return
    the wall time of each pass."""
    deadline = time.perf_counter() + seconds
    walls = []
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - t0)
    return walls


def _blas_threads():
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    """HEAD commit read from ``.git`` without starting git; the benchmark
    may run from an export that is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
    }
