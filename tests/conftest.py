import contextlib
import io

import pytest

from czorbits.cli import main
from czorbits.workspace import build_workspace

# one "ACCEPTANCE <name>: PASS|FAIL" entry per gate criterion, echoed
# after the run so the lines survive pytest's output capture
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def ws():
    """Full group/orbit/graph workspace, built once per test session."""
    return build_workspace()


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory, ws):
    """`czorbits verify` run once in-process on a table directory of its own,
    on the session's workspace: its exit code and its stdout lines. The
    exhaustive checks are slow, so the tests that read their lines share
    this one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--out-dir", str(tmp_path_factory.mktemp("verify"))])
    return code, out.getvalue().splitlines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
