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
    "GridStats", "ModelPredictions", "PrecisionResult", "combined_arrays",
    "evaluate_predictions", "expert_indices", "individual_arrays", "select_best",
    "write_report",
}


# The fusion API: a FusionBatch in, grid_arrays out.  Pinned for the same
# reason: no per-document instance or ranking objects beside them.  An RSC
# curve is an array and a combined model is its combo id string.
CORE_API = {
    "FusionBatch", "LabelSet", "cognitive_diversity", "diversity_strength",
    "normalize_scores", "rank_from_scores", "rsc_curve",
}
COMBINE_API = {"enumerate_combinations", "grid_arrays"}


# The whole public surface, so that adding a name takes an edit here.
PUBLIC_NAMES = {
    "BestSelection", "CfaError", "DataAccessError", "DisagreementRow",
    "DisagreementTables", "Document", "DomainError", "EPSILON", "EvaluationReport",
    "FusionBatch", "GenerationConfig", "GenerationOutcome", "GridStats",
    "KeywordLexicon", "LabelSet", "ModelPredictions", "PrecisionResult", "Prompt",
    "PromptSpec", "STRATEGIES", "TfidfCentroidScorer", "ValidationError",
    "cognitive_diversity", "combined_arrays", "corpus_quality_report", "distinct_n",
    "diversity_strength", "enumerate_combinations", "evaluate_predictions",
    "expert_indices", "generate_corpus", "generate_prompt_matrix", "grid_arrays",
    "individual_arrays", "keyword_scorer", "normalize_scores", "rank_from_scores",
    "rsc_curve", "select_best", "tokenize", "type_token_ratio", "write_report",
}


def _defined(module) -> set[str]:
    """The public functions and classes a module defines itself."""
    return {
        name for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    }


def test_public_names_resolve_and_the_evaluation_api_is_pinned():
    import cfakit
    import cfakit.evaluate as evaluate

    for name in cfakit.__all__:
        getattr(cfakit, name)
    assert sorted(cfakit.__all__) == sorted(PUBLIC_NAMES)  # each name once
    assert _defined(evaluate) == EVALUATE_API
    assert EVALUATE_API <= set(cfakit.__all__)


def test_the_fusion_api_is_pinned():
    import cfakit
    import cfakit.combine as combine
    import cfakit.core as core

    assert _defined(core) == CORE_API
    assert _defined(combine) == COMBINE_API
    assert CORE_API | COMBINE_API <= set(cfakit.__all__)
    assert "grid_arrays" in cfakit.__all__


# stdout of each demo that prints no temporary path, byte for byte
PINNED_STDOUT = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, run_python, tmp_path):
    result = run_python(demo, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    if demo.name != "05_cli_pipeline.py":  # 05 prints its temporary directory
        pinned = PINNED_STDOUT / f"{demo.stem}.txt"
        assert result.stdout.encode("utf-8") == pinned.read_bytes()
