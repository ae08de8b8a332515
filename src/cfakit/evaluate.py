"""Evaluation of fused and individual predictions against expert labels.

Precision@1 is the fraction of documents whose top-ranked label matches
the expert label.  Fractions keep their raw integer numerator and
denominator so that comparisons between models are exact; floats only
appear in presentation.  Under the strict tie mode a top tie counts as
correct only when the deterministic tie-break picked the expert label;
the lenient mode accepts the expert label anywhere in the tied group.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .combine import FusedRanking, _fuse
from .core import FusionBatch, FusionInstance, LabelSet, as_batch
from .errors import ValidationError

TIE_MODES = ("strict", "lenient")


@dataclass(frozen=True)
class Prediction:
    """Top-ranked label plus the full tied-top group for one document.

    tied_top lists every label sharing the best combined value in label
    order; its first entry is always top1 because ties break by label
    order.  For untied predictions it is just (top1,).
    """

    top1: str
    tied_top: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        tied = tuple(self.tied_top) or (self.top1,)
        if self.top1 not in tied:
            raise ValidationError("tied_top must contain top1")
        object.__setattr__(self, "tied_top", tied)

    @property
    def tie(self) -> bool:
        return len(self.tied_top) > 1


def prediction_from_fused(fused: FusedRanking) -> Prediction:
    return Prediction(top1=fused.top1, tied_top=fused.tied_top)


def grid_predictions(
    grid: Mapping[str, Sequence[FusedRanking]],
) -> dict[str, dict[str, Prediction]]:
    """Per-document predictions for every combined model in a grid."""
    return {
        combo_id: {f.doc_id: prediction_from_fused(f) for f in results}
        for combo_id, results in grid.items()
    }


def individual_predictions(
    instances: FusionBatch | Sequence[FusionInstance],
) -> dict[str, dict[str, Prediction]]:
    """Per-document top-1 predictions of each system on its own.

    A single system is scored exactly like a size-one score average, so
    ties at the top resolve by label order and the tied group is kept.
    """
    batch = as_batch(instances)
    return {
        system_id: {f.doc_id: prediction_from_fused(f) for f in _fuse(batch, (j,), "asc")}
        for j, system_id in enumerate(batch.system_ids)
    }


@dataclass(frozen=True)
class Ratio:
    """An unreduced fraction keeping its raw counts."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValidationError("ratio denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise ValidationError("ratio numerator must lie in [0, denominator]")

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class PrecisionResult:
    """Precision@1 as raw counts plus the number of top-tied documents."""

    correct: int
    total: int
    tie_count: int = 0

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValidationError("precision needs at least one document")
        if not 0 <= self.correct <= self.total:
            raise ValidationError("correct count must lie in [0, total]")

    @property
    def value(self) -> float:
        return self.correct / self.total

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.correct, self.total)


def _check_tie_mode(tie_mode: str) -> None:
    if tie_mode not in TIE_MODES:
        raise ValidationError(
            f"unknown tie mode {tie_mode!r}; expected one of {TIE_MODES}"
        )


def _check_coverage(predictions: Mapping[str, Prediction], experts: Mapping[str, str]) -> None:
    if not experts:
        raise ValidationError("no expert-labeled documents to evaluate")
    missing = sorted(set(experts) - set(predictions))
    if missing:
        raise ValidationError(f"missing predictions for documents {missing}")


def _is_correct(prediction: Prediction, expert: str, tie_mode: str) -> bool:
    if tie_mode == "lenient" and prediction.tie:
        return expert in prediction.tied_top
    return prediction.top1 == expert


def precision_at_1(
    predictions: Mapping[str, Prediction],
    experts: Mapping[str, str],
    tie_mode: str = "strict",
) -> PrecisionResult:
    """Overall precision@1 over every expert-labeled document."""
    _check_tie_mode(tie_mode)
    _check_coverage(predictions, experts)
    correct = 0
    ties = 0
    for doc_id, expert in experts.items():
        prediction = predictions[doc_id]
        if prediction.tie:
            ties += 1
        if _is_correct(prediction, expert, tie_mode):
            correct += 1
    return PrecisionResult(correct=correct, total=len(experts), tie_count=ties)


def per_label_precision(
    predictions: Mapping[str, Prediction],
    experts: Mapping[str, str],
    label_set: LabelSet,
    tie_mode: str = "strict",
) -> dict[str, PrecisionResult | None]:
    """Precision@1 within each expert-label group.

    Labels with no documents map to None, marking the group empty rather
    than scoring it zero.
    """
    _check_tie_mode(tie_mode)
    _check_coverage(predictions, experts)
    for doc_id, expert in experts.items():
        if expert not in label_set:
            raise ValidationError(
                f"document {doc_id!r} has expert label {expert!r} outside the label set"
            )
    out: dict[str, PrecisionResult | None] = {}
    for label in label_set.labels:
        group = [doc_id for doc_id, expert in experts.items() if expert == label]
        if not group:
            out[label] = None
            continue
        correct = 0
        ties = 0
        for doc_id in group:
            prediction = predictions[doc_id]
            if prediction.tie:
                ties += 1
            if _is_correct(prediction, label, tie_mode):
                correct += 1
        out[label] = PrecisionResult(correct=correct, total=len(group), tie_count=ties)
    return out


@dataclass(frozen=True)
class BestSelection:
    """Best model id with every id that tied for the top precision."""

    model: str
    tied: tuple[str, ...]


def select_best(results: Mapping[str, PrecisionResult]) -> BestSelection:
    """Model with the highest precision; ties break by model id order."""
    if not results:
        raise ValidationError("cannot select the best model from empty results")
    best = max(result.fraction for result in results.values())
    tied = tuple(sorted(
        model_id for model_id, result in results.items() if result.fraction == best
    ))
    return BestSelection(model=tied[0], tied=tied)


@dataclass(frozen=True)
class GridStats:
    """How often combined models meet or beat the individual systems.

    cells_* count (model, label) cells of the per-label precision grid;
    models_ge_best_individual counts whole combined models by overall
    precision.  All comparisons are exact on the underlying fractions.
    """

    cells_ge_best_individual: Ratio
    cells_ge_individual_mean: Ratio
    models_ge_best_individual: Ratio


def grid_statistics(
    combined: Mapping[str, Mapping[str, Prediction]],
    individual: Mapping[str, Mapping[str, Prediction]],
    experts: Mapping[str, str],
    label_set: LabelSet,
    tie_mode: str = "strict",
) -> GridStats:
    """Exact count statistics of the combined grid against the individuals.

    Only labels that actually carry documents form cells; with every label
    populated the cell denominator is #combined models x #labels.
    """
    _check_tie_mode(tie_mode)
    if not combined:
        raise ValidationError("grid statistics need at least one combined model")
    if not individual:
        raise ValidationError("grid statistics need at least one individual model")

    individual_overall = {
        model_id: precision_at_1(preds, experts, tie_mode)
        for model_id, preds in individual.items()
    }
    individual_per_label = {
        model_id: per_label_precision(preds, experts, label_set, tie_mode)
        for model_id, preds in individual.items()
    }
    combined_overall = {
        model_id: precision_at_1(preds, experts, tie_mode)
        for model_id, preds in combined.items()
    }
    combined_per_label = {
        model_id: per_label_precision(preds, experts, label_set, tie_mode)
        for model_id, preds in combined.items()
    }

    populated = [
        label
        for label in label_set.labels
        if next(iter(individual_per_label.values()))[label] is not None
    ]
    t_individual = len(individual)

    # Per label: the best individual correct count and the total over all
    # individual systems.  Groups share one denominator per label, so
    # count comparisons are exact.
    best_count: dict[str, int] = {}
    sum_count: dict[str, int] = {}
    for label in populated:
        counts = [individual_per_label[m][label].correct for m in individual]
        best_count[label] = max(counts)
        sum_count[label] = sum(counts)

    cells = len(combined) * len(populated)
    ge_best = 0
    ge_mean = 0
    for model_id in combined:
        for label in populated:
            correct = combined_per_label[model_id][label].correct
            if correct >= best_count[label]:
                ge_best += 1
            # combined/g >= sum/(t*g)  <=>  t*combined >= sum
            if t_individual * correct >= sum_count[label]:
                ge_mean += 1

    best_overall = max(r.fraction for r in individual_overall.values())
    models_ge = sum(
        1 for r in combined_overall.values() if r.fraction >= best_overall
    )
    return GridStats(
        cells_ge_best_individual=Ratio(ge_best, cells),
        cells_ge_individual_mean=Ratio(ge_mean, cells),
        models_ge_best_individual=Ratio(models_ge, len(combined)),
    )


@dataclass(frozen=True)
class DisagreementRow:
    doc_id: str
    expert: str
    individual: str
    combined: str


@dataclass(frozen=True)
class DisagreementTables:
    """Documents where the best individual and best combined model differ.

    fusion_agrees_with_expert: combined = expert, individual wrong.
    fusion_disagrees_with_both: individual = expert, combined differs
    from both.
    both_disagree_with_expert: combined = individual, both wrong.
    Documents where all three agree appear in no table.
    """

    fusion_agrees_with_expert: tuple[DisagreementRow, ...]
    fusion_disagrees_with_both: tuple[DisagreementRow, ...]
    both_disagree_with_expert: tuple[DisagreementRow, ...]


def disagreement_tables(
    individual: Mapping[str, Prediction],
    combined: Mapping[str, Prediction],
    experts: Mapping[str, str],
) -> DisagreementTables:
    """Categorize expert/individual/combined disagreement per document."""
    _check_coverage(individual, experts)
    _check_coverage(combined, experts)
    agrees: list[DisagreementRow] = []
    neither: list[DisagreementRow] = []
    both_wrong: list[DisagreementRow] = []
    for doc_id in sorted(experts):
        expert = experts[doc_id]
        ind = individual[doc_id].top1
        comb = combined[doc_id].top1
        row = DisagreementRow(doc_id=doc_id, expert=expert, individual=ind, combined=comb)
        if comb == expert and ind != expert:
            agrees.append(row)
        elif comb != expert and comb != ind and ind == expert:
            neither.append(row)
        elif comb == ind and ind != expert:
            both_wrong.append(row)
    return DisagreementTables(
        fusion_agrees_with_expert=tuple(agrees),
        fusion_disagrees_with_both=tuple(neither),
        both_disagree_with_expert=tuple(both_wrong),
    )


@dataclass(frozen=True)
class EvaluationReport:
    """Everything the evaluation pipeline measures in one place."""

    tie_mode: str
    label_counts: dict[str, int]
    individual_overall: dict[str, PrecisionResult]
    combined_overall: dict[str, PrecisionResult]
    individual_per_label: dict[str, dict[str, PrecisionResult | None]]
    combined_per_label: dict[str, dict[str, PrecisionResult | None]]
    best_individual: BestSelection
    best_combined: BestSelection
    grid_stats: GridStats
    disagreements: DisagreementTables


def build_report(
    individual: Mapping[str, Mapping[str, Prediction]],
    combined: Mapping[str, Mapping[str, Prediction]],
    experts: Mapping[str, str],
    label_set: LabelSet,
    tie_mode: str = "strict",
) -> EvaluationReport:
    """Evaluate all models and assemble the full report."""
    _check_tie_mode(tie_mode)
    if not individual or not combined:
        raise ValidationError("the report needs individual and combined predictions")

    individual_overall = {
        m: precision_at_1(p, experts, tie_mode) for m, p in individual.items()
    }
    combined_overall = {
        m: precision_at_1(p, experts, tie_mode) for m, p in combined.items()
    }
    individual_per_label = {
        m: per_label_precision(p, experts, label_set, tie_mode)
        for m, p in individual.items()
    }
    combined_per_label = {
        m: per_label_precision(p, experts, label_set, tie_mode)
        for m, p in combined.items()
    }
    best_individual = select_best(individual_overall)
    best_combined = select_best(combined_overall)
    stats = grid_statistics(combined, individual, experts, label_set, tie_mode)
    tables = disagreement_tables(
        individual[best_individual.model], combined[best_combined.model], experts
    )
    label_counts = {
        label: sum(1 for expert in experts.values() if expert == label)
        for label in label_set.labels
    }
    return EvaluationReport(
        tie_mode=tie_mode,
        label_counts=label_counts,
        individual_overall=individual_overall,
        combined_overall=combined_overall,
        individual_per_label=individual_per_label,
        combined_per_label=combined_per_label,
        best_individual=best_individual,
        best_combined=best_combined,
        grid_stats=stats,
        disagreements=tables,
    )
