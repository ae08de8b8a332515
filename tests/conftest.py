"""Prints one PASS/FAIL line per acceptance check at the end of a run,
and runs fresh interpreters for the subprocess tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ACCEPTANCE_FILE = "test_acceptance.py"
_verdicts: dict[str, bool] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.path.name != _ACCEPTANCE_FILE:
        return
    if report.when == "call":
        _verdicts[item.name] = report.passed
    elif report.failed:
        # setup or teardown blew up: the criterion did not pass
        _verdicts[item.name] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _verdicts.items():
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


@pytest.fixture()
def run_python():
    """Run a fresh interpreter that imports this checkout's cfakit, with
    the environment variables of env set on top of this one's."""
    import cfakit

    src = str(Path(cfakit.__file__).resolve().parent.parent)

    def run(*args, cwd=None, env=None):
        env = {**os.environ, **(env or {})}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, *map(str, args)],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )

    return run
