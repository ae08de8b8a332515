"""Package-level checks: what `import cfakit` loads and exports, and the
demo scripts."""

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


# The evaluation API: label-index arrays in, one report out.  Pinned so
# that a second, per-document front end cannot come back unnoticed.
EVALUATE_API = {
    "BestSelection", "DisagreementRow", "DisagreementTables", "EvaluationReport",
    "GridStats", "ModelPredictions", "PrecisionResult", "Ratio", "combined_arrays",
    "evaluate_predictions", "expert_indices", "individual_arrays", "select_best",
    "write_report",
}


def test_public_names_resolve_and_the_evaluation_api_is_pinned():
    import cfakit
    import cfakit.evaluate as evaluate

    for name in cfakit.__all__:
        getattr(cfakit, name)
    defined = {
        name for name, obj in vars(evaluate).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == evaluate.__name__
    }
    assert defined == EVALUATE_API
    assert EVALUATE_API <= set(cfakit.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, run_python, tmp_path):
    result = run_python(demo, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
