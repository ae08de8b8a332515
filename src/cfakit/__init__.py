"""Combinatorial fusion analysis for multi-system label scoring.

The toolkit fuses the per-label scores of several scoring systems.  Each
system's scores are normalized and ranked per document, profiled as a
rank-score characteristic curve, and compared through cognitive
diversity.  Subsets of systems combine under four strategies (score
average, rank average, and their weighted versions), and the resulting
grid of combined models is evaluated against expert labels with exact
fraction arithmetic.
"""

from .combine import EPSILON, STRATEGIES, enumerate_combinations, grid_arrays
from .core import (
    FusionBatch,
    LabelSet,
    cognitive_diversity,
    diversity_strength,
    normalize_scores,
    rank_from_scores,
    rsc_curve,
)
from .corpus import (
    Document,
    KeywordLexicon,
    Prompt,
    PromptSpec,
    TfidfCentroidScorer,
    corpus_quality_report,
    distinct_n,
    generate_prompt_matrix,
    keyword_scorer,
    tokenize,
    type_token_ratio,
)
from .errors import CfaError, DataAccessError, DomainError, ValidationError
from .evaluate import (
    BestSelection,
    DisagreementRow,
    DisagreementTables,
    EvaluationReport,
    GridStats,
    ModelPredictions,
    PrecisionResult,
    combined_arrays,
    evaluate_predictions,
    expert_indices,
    individual_arrays,
    select_best,
    write_report,
)
from .generation import GenerationConfig, GenerationOutcome, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "BestSelection",
    "CfaError",
    "DataAccessError",
    "DisagreementRow",
    "DisagreementTables",
    "Document",
    "DomainError",
    "EPSILON",
    "EvaluationReport",
    "FusionBatch",
    "GenerationConfig",
    "GenerationOutcome",
    "GridStats",
    "KeywordLexicon",
    "LabelSet",
    "ModelPredictions",
    "PrecisionResult",
    "Prompt",
    "PromptSpec",
    "STRATEGIES",
    "TfidfCentroidScorer",
    "ValidationError",
    "cognitive_diversity",
    "combined_arrays",
    "corpus_quality_report",
    "distinct_n",
    "diversity_strength",
    "enumerate_combinations",
    "evaluate_predictions",
    "expert_indices",
    "generate_corpus",
    "generate_prompt_matrix",
    "grid_arrays",
    "individual_arrays",
    "keyword_scorer",
    "normalize_scores",
    "rank_from_scores",
    "rsc_curve",
    "select_best",
    "tokenize",
    "type_token_ratio",
    "write_report",
]
