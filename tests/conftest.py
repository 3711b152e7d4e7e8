import pytest

from acceptance_summary import CRITERION_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def tmp_path_str(tmp_path):
    return str(tmp_path)
