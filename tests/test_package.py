"""Package-level checks: what `import cfakit` loads and exports, and the
demo scripts."""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_import_loads_neither_scipy_nor_requests(run_python):
    result = run_python(
        "-c", "import sys, cfakit; print(sorted({'scipy', 'requests'} & set(sys.modules)))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# What each command may load.  A fresh interpreter runs the command, then
# prints its exit status and sys.modules, one name a line.
_RUN_AND_LIST_MODULES = """
import sys
from cfakit.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:  # --help
    status = exc.code
print("exit", status)
print(*sorted(sys.modules), sep="\\n")
"""
_ARRAY_LAYERS = {"numpy", "cfakit.core", "cfakit.combine", "cfakit.evaluate", "cfakit.fused"}
_GENERATE_ONLY = {"cfakit.generation", "concurrent.futures"}
# No command loads dataclasses.  numpy imports inspect itself, so only the
# commands that run without numpy keep inspect out as well.
_NEVER = {"dataclasses"}
_NUMPY_FREE_NEVER = _ARRAY_LAYERS | _GENERATE_ONLY | _NEVER | {"inspect"}
FOOTPRINTS = {
    "help": (["--help"], set(), _NUMPY_FREE_NEVER | {"cfakit.corpus"}),
    "usage-error": (["score", "--scorer", "nonsense", "--corpus", "x"], set(),
                    _NUMPY_FREE_NEVER | {"cfakit.corpus", "cfakit.fileio"}),
    "score-keyword": (["score", "--config", "config.json", "--scorer", "keyword", "--corpus",
                       "corpus.jsonl", "--lexicon", "lexicon.json"],
                      {"cfakit.corpus"}, _NUMPY_FREE_NEVER),
    "score-tfidf": (["score", "--config", "config.json", "--scorer", "tfidf", "--corpus",
                     "corpus.jsonl", "--train", "corpus.jsonl"],
                    {"numpy", "cfakit.corpus"},
                    _GENERATE_ONLY | _NEVER | {"cfakit.core", "cfakit.fused"}),
    "gen-prompts": (["gen-prompts", "--config", "config.json", "--specs", "specs.json"],
                    {"cfakit.corpus"}, _NUMPY_FREE_NEVER),
    "corpus-stats": (["corpus-stats", "--config", "config.json", "--corpus", "corpus.jsonl"],
                     {"numpy", "cfakit.corpus"},
                     _GENERATE_ONLY | _NEVER | {"cfakit.core", "cfakit.fused"}),
    "diversity": (["diversity", "--config", "config.json"], {"numpy", "cfakit.core"},
                  _GENERATE_ONLY | _NEVER | {"cfakit.evaluate", "cfakit.corpus",
                                             "cfakit.combine", "cfakit.fused"}),
    "fuse": (["fuse", "--config", "config.json"], {"cfakit.combine", "cfakit.fused"},
             _GENERATE_ONLY | _NEVER | {"cfakit.evaluate", "cfakit.corpus"}),
    "fuse-perf": (["fuse", "--config", "perf.json"],
                  {"cfakit.combine", "cfakit.evaluate", "cfakit.fused"},
                  _GENERATE_ONLY | _NEVER | {"cfakit.corpus"}),
    "evaluate": (["evaluate", "--config", "config.json", "--fused", "fused.csv"],
                 {"cfakit.evaluate", "cfakit.fused"},
                 _GENERATE_ONLY | _NEVER | {"cfakit.corpus"}),
    "generate": (["generate", "--config", "config.json", "--prompts", "prompts.csv"],
                 _GENERATE_ONLY, _NEVER | {"numpy", "inspect", "cfakit.core", "cfakit.fused"}),
}


def _footprint_inputs(where: Path) -> None:
    """Small inputs for every command, on labels A, B, C."""
    docs = [("d1", "water water sea", "A"), ("d2", "sea sea land", "B"),
            ("d3", "land water land", "C")]
    config = {
        "labels": ["A", "B", "C"], "expert_labels": "experts.csv", "out_dir": "out",
        "systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t.csv"}],
        "generation": {"endpoint_url": "http://127.0.0.1:9/generate"},
    }
    files = {
        "config.json": json.dumps(config),
        "perf.json": json.dumps({**config, "weights": "perf"}),
        "corpus.jsonl": "".join(
            json.dumps({"doc_id": d, "text": text, "label": label}) + "\n"
            for d, text, label in docs),
        "lexicon.json": json.dumps({"A": ["water"], "B": ["sea"], "C": ["land"]}),
        "specs.json": json.dumps([{"publication_type": "note", "sources": ["x"],
                                   "template": "{label} by {source}"}]),
        "prompts.csv": "prompt_id,label,publication_type,source,prompt_text\n"
                       "p00001,A,note,x,A by x\n",
        "experts.csv": "doc_id,label\n" + "".join(f"{d},{label}\n" for d, _, label in docs),
        "fused.csv": "combo_id,doc_id,top1,tie_at_top,tied_top,ranking\n" + "".join(
            f"s+t:asc,{d},{label},false,{label},{'|'.join(sorted('ABC', key=label.__ne__))}\n"
            for d, _, label in docs),
    }
    for system, shift in (("s", 0.0), ("t", 0.5)):
        files[f"{system}.csv"] = "doc_id,label,score\n" + "".join(
            f"{d},{label},{(i * 3 + j) % 4 + shift}\n"
            for i, (d, _, _) in enumerate(docs) for j, label in enumerate("ABC"))
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")


def test_import_cfakit_loads_no_submodule_and_no_numpy(run_python):
    result = run_python("-c", "import sys, cfakit; print(*sorted(sys.modules), sep='\\n')")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "cfakit" in loaded
    assert not {m for m in loaded if m.startswith("cfakit.") or m == "numpy"}


@pytest.mark.parametrize("name", list(FOOTPRINTS))
def test_each_command_loads_only_what_it_runs(name, run_python, tmp_path):
    argv, loads, never = FOOTPRINTS[name]
    _footprint_inputs(tmp_path)
    result = run_python("-c", _RUN_AND_LIST_MODULES, *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    at = lines.index("exit 1" if name == "usage-error" else "exit 0")
    modules = set(lines[at + 1:])
    assert loads <= modules, sorted(loads - modules)
    assert not never & modules, sorted(never & modules)


# The evaluation API: label-index arrays in, one report out.  Pinned so
# that a second, per-document front end cannot come back unnoticed.
EVALUATE_API = {
    "BestSelection", "EvaluationReport", "ModelCounts", "ModelPredictions", "combined_arrays",
    "evaluate_predictions", "expert_indices", "individual_arrays", "select_best",
    "write_report",
}


# The fusion API: a FusionBatch in, grid_arrays out.  Pinned for the same
# reason: no per-document instance or ranking objects beside them.  An RSC
# curve is an array and a combined model is its combo id string.
CORE_API = {
    "FusionBatch", "cognitive_diversity", "diversity_strength",
    "normalize_scores", "rank_from_scores", "rsc_curve",
}
COMBINE_API = {"enumerate_combinations", "grid_arrays"}
# The label set and the run settings' vocabulary, which need no numpy.
SETTINGS_API = {"LabelSet"}


# The corpus API: a Document in, the run's LabelSet wherever labels go in,
# and one score(doc) for both scorers.  Pinned with the parameters of each
# call that takes a document or labels, so that a second input form (raw
# text, a bare sequence of labels, an optional label set) cannot come
# back unnoticed.
CORPUS_API = {
    "Document", "KeywordLexicon", "LabelQuality", "Prompt", "PromptSpec",
    "TfidfCentroidScorer", "corpus_quality_report", "distinct_n", "generate_prompt_matrix",
    "load_corpus", "load_lexicon", "load_prompt_file", "load_prompt_specs", "tokenize",
    "type_token_ratio", "write_prompt_file",
}
CORPUS_INPUTS = {
    "type_token_ratio": ("doc: 'Document'",),
    "distinct_n": ("doc: 'Document'", "n: 'int'"),
    "corpus_quality_report": ("corpus: 'Sequence[Document]'",),
    "generate_prompt_matrix": ("specs: 'Sequence[PromptSpec]'", "label_set: 'LabelSet'"),
    "KeywordLexicon": ("raw: 'Mapping[str, Sequence[str]]'", "label_set: 'LabelSet'"),
    "KeywordLexicon.score": ("doc: 'Document'",),
    "load_lexicon": ("path: 'Path | str'", "label_set: 'LabelSet'"),
    "TfidfCentroidScorer": ("corpus: 'Sequence[Document]'", "label_set: 'LabelSet'"),
    "TfidfCentroidScorer.score": ("doc: 'Document'",),
}


# The whole public surface, so that adding a name takes an edit here.
PUBLIC_NAMES = {
    "BestSelection", "CfaError", "DataAccessError", "Document", "DomainError",
    "EPSILON", "EvaluationReport", "FusionBatch", "GenerationConfig", "GenerationOutcome",
    "KeywordLexicon", "LabelSet", "ModelCounts", "ModelPredictions", "Prompt",
    "PromptSpec", "STRATEGIES", "TfidfCentroidScorer", "ValidationError",
    "cognitive_diversity", "combined_arrays", "corpus_quality_report", "distinct_n",
    "diversity_strength", "enumerate_combinations", "evaluate_predictions",
    "expert_indices", "generate_corpus", "generate_prompt_matrix", "grid_arrays",
    "individual_arrays", "normalize_scores", "rank_from_scores",
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
    # one ModelCounts per kind of model, never per-kind fields of the report
    assert evaluate.EvaluationReport._fields == (
        "tie_mode", "label_counts", "individual", "combined", "grid_stats", "disagreements")
    assert evaluate.ModelCounts._fields == ("model_ids", "correct", "ties", "overall", "best")


def test_the_fusion_api_is_pinned():
    import cfakit
    import cfakit.combine as combine
    import cfakit.core as core
    import cfakit.settings as settings

    assert _defined(core) == CORE_API
    assert _defined(combine) == COMBINE_API
    assert _defined(settings) == SETTINGS_API
    assert CORE_API | COMBINE_API | SETTINGS_API <= set(cfakit.__all__)
    assert "grid_arrays" in cfakit.__all__


def test_the_corpus_api_is_pinned():
    import cfakit.corpus as corpus

    assert _defined(corpus) == CORPUS_API
    for name, inputs in CORPUS_INPUTS.items():
        call = corpus
        for part in name.split("."):
            call = getattr(call, part)
        parameters = inspect.signature(call).parameters.values()
        assert tuple(str(p) for p in parameters if p.name != "self") == inputs, name
    # both scorers are classes with one public method, score(doc)
    for scorer in (corpus.KeywordLexicon, corpus.TfidfCentroidScorer):
        assert [n for n in vars(scorer) if not n.startswith("_")] == ["score"]


# stdout of each demo that prints no temporary path, byte for byte
PINNED_STDOUT = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, run_python, tmp_path):
    result = run_python(demo, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    if demo.name != "05_cli_pipeline.py":  # 05 prints its temporary directory
        pinned = PINNED_STDOUT / f"{demo.stem}.txt"
        assert result.stdout.encode("utf-8") == pinned.read_bytes()
