"""Package-level checks: what `import cfakit` loads, and the demo scripts."""

from __future__ import annotations

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_import_loads_neither_scipy_nor_requests(run_python):
    result = run_python(
        "-c", "import sys, cfakit; print(sorted({'scipy', 'requests'} & set(sys.modules)))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, run_python, tmp_path):
    result = run_python(demo, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
