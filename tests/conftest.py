import sys

import pytest

from unshuffle import bsgs
from unshuffle.cli import main


@pytest.fixture
def run_cli(capsys):
    """Invoke the command line entry point, returning (exit_code, stdout, stderr)."""

    def run(*args):
        code = main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def bfs_limit(monkeypatch):
    """Set the element limit that bfs_enumerate reads at each call."""

    def set_limit(limit):
        monkeypatch.setattr(bsgs, "BFS_MAX_ELEMENTS", limit)

    return set_limit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay the per-criterion acceptance lines after capture is torn down
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
