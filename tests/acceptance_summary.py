"""PASS/FAIL lines of the acceptance gate, printed in the terminal summary.

This lives in its own module, not in conftest, so that test files can import
it when another directory's conftest (benchmarks/tests) is loaded as well.
"""

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)
