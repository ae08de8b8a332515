"""Combinatorial fusion analysis for multi-system label scoring.

The toolkit fuses the per-label scores of several scoring systems.  Each
system's scores are normalized and ranked per document, profiled as a
rank-score characteristic curve, and compared through cognitive
diversity.  Subsets of systems combine under four strategies (score
average, rank average, and their weighted versions), and the resulting
grid of combined models is evaluated against expert labels with exact
fraction arithmetic.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  `import cfakit`
# loads none of them: a name imports its submodule on first use (PEP 562),
# so a command pays only for the layers it runs.
_SOURCES = {
    "combine": ("EPSILON", "enumerate_combinations", "grid_arrays"),
    "core": ("FusionBatch", "cognitive_diversity", "diversity_strength", "normalize_scores",
             "rank_from_scores", "rsc_curve"),
    "corpus": ("Document", "KeywordLexicon", "Prompt", "PromptSpec", "TfidfCentroidScorer",
               "corpus_quality_report", "distinct_n", "generate_prompt_matrix", "tokenize",
               "type_token_ratio"),
    "errors": ("CfaError", "DataAccessError", "DomainError", "ValidationError"),
    "evaluate": ("BestSelection", "EvaluationReport", "ModelCounts", "ModelPredictions",
                 "combined_arrays", "evaluate_predictions", "expert_indices", "individual_arrays",
                 "select_best", "write_report"),
    "generation": ("GenerationConfig", "GenerationOutcome", "generate_corpus"),
    "settings": ("LabelSet", "STRATEGIES"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
