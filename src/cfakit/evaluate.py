"""Evaluation of fused and individual predictions against expert labels.

Precision@1 is the fraction of documents whose top-ranked label matches
the expert label.  Fractions keep their raw integer numerator and
denominator so that comparisons between models are exact; floats only
appear in presentation.  Under the strict tie mode a top tie counts as
correct only when the deterministic tie-break picked the expert label;
the lenient mode accepts the expert label anywhere in the tied group.

Every count comes from one pass over label-index arrays (see
ModelPredictions): a hit matrix of models x documents, summed overall
and per expert label with np.bincount.  The functions taking Prediction
mappings turn them into the same arrays.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .combine import FusedRanking, _top_labels
from .core import FusionBatch, FusionInstance, LabelSet, as_batch
from .errors import ValidationError
from .fileio import check_coverage, format_table, write_csv, write_json

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
        if len(set(tied)) != len(tied):
            raise ValidationError("tied_top repeats a label")
        object.__setattr__(self, "tied_top", tied)

    @property
    def tie(self) -> bool:
        return len(self.tied_top) > 1


class ModelPredictions(NamedTuple):
    """Top-1 predictions of several models on the same documents.

    labels names the label indices.  top1[m, d] is the index of the label
    model m ranks first on document d, and the boolean tied[m, d] marks
    every label sharing that label's combined value, top1 included.
    """

    model_ids: tuple[str, ...]
    labels: tuple[str, ...]
    top1: np.ndarray
    tied: np.ndarray


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


def individual_arrays(instances: FusionBatch | Sequence[FusionInstance]) -> ModelPredictions:
    """Top-1 predictions of each system on its own, documents in batch order.

    A single system is scored exactly like a size-one score average, so
    ties at the top resolve by label order and the tied group is kept.
    """
    batch = as_batch(instances)
    top1, tied = zip(*(_top_labels(batch, (j,), "asc") for j in range(batch.t)))
    return ModelPredictions(batch.system_ids, batch.label_set.labels,
                            np.stack(top1), np.stack(tied))


def individual_predictions(
    instances: FusionBatch | Sequence[FusionInstance],
) -> dict[str, dict[str, Prediction]]:
    """Per-document top-1 predictions of each system on its own: the
    individual_arrays decoded, tied labels in label order."""
    batch = as_batch(instances)
    p = individual_arrays(batch)
    return {
        system_id: {
            doc_id: Prediction(p.labels[top], tuple(compress(p.labels, mask)))
            for doc_id, top, mask in zip(batch.doc_ids, top1, tied)
        }
        for system_id, top1, tied in zip(p.model_ids, p.top1.tolist(), p.tied.tolist())
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


def expert_indices(
    experts: Mapping[str, str], label_set: LabelSet, doc_ids: Sequence[str] = ()
) -> np.ndarray:
    """The label-set index of each document's expert label, documents in
    doc_ids order or else in the experts' order."""
    for doc_id, label in experts.items():
        if label not in label_set:
            raise ValidationError(
                f"document {doc_id!r} has expert label {label!r} outside the label set"
            )
    return np.array([label_set.index(experts[d]) for d in doc_ids or experts], dtype=np.intp)


def _count(
    predictions: ModelPredictions, expert: np.ndarray, n_labels: int, tie_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """The one counting pass: the correct and the top-tied documents of
    each model per expert label, as exact (models, n_labels) integer
    arrays.  expert holds each document's expert label index."""
    if tie_mode == "lenient":
        # an untied group is top1 alone, so this is top1 == expert there
        hit = predictions.tied[:, np.arange(expert.size), expert]
    else:
        hit = predictions.top1 == expert
    tie = np.count_nonzero(predictions.tied, axis=2) > 1
    cell = np.arange(len(hit))[:, None] * n_labels + expert
    return tuple(
        np.bincount(cell[flags], minlength=len(hit) * n_labels).reshape(-1, n_labels)
        for flags in (hit, tie)
    )


def _results(
    model_ids: Sequence[str], counts: tuple, totals: list[int], labels: Sequence[str]
) -> tuple[dict[str, PrecisionResult], dict[str, dict[str, PrecisionResult | None]]]:
    """Overall and per-label results of each model; a label without
    documents maps to None, marking the group empty rather than scoring
    it zero."""
    overall: dict[str, PrecisionResult] = {}
    per_label: dict[str, dict[str, PrecisionResult | None]] = {}
    for model_id, correct, ties in zip(model_ids, *(c.tolist() for c in counts)):
        overall[model_id] = PrecisionResult(sum(correct), sum(totals), sum(ties))
        per_label[model_id] = {
            label: PrecisionResult(c, group, t) if group else None
            for label, c, group, t in zip(labels, correct, totals, ties)
        }
    return overall, per_label


def _encode(
    experts: Mapping[str, str],
    *groups: Mapping[str, Mapping[str, Prediction]],
    label_set: LabelSet | None = None,
) -> tuple[np.ndarray, list[ModelPredictions]]:
    """Expert label indices and one ModelPredictions per group of models,
    documents in the experts' order.  Labels index in label-set order,
    which must hold every expert label, then in order of appearance."""
    for models in groups:
        for predictions in models.values():
            check_coverage(predictions, experts)
    if label_set is not None:
        expert_indices(experts, label_set)
    rows = [[[predictions[d] for d in experts] for predictions in models.values()]
            for models in groups]
    labels = tuple(dict.fromkeys([
        *(label_set or ()), *experts.values(),
        *(label for group in rows for row in group for p in row for label in p.tied_top),
    ]))
    index = {label: i for i, label in enumerate(labels)}
    encoded = []
    for models, group in zip(groups, rows):
        top1 = np.zeros((len(models), len(experts)), dtype=np.intp)
        tied = np.zeros(top1.shape + (len(labels),), dtype=bool)
        for m, row in enumerate(group):
            for d, prediction in enumerate(row):
                top1[m, d] = index[prediction.top1]
                tied[m, d, [index[label] for label in prediction.tied_top]] = True
        encoded.append(ModelPredictions(tuple(models), labels, top1, tied))
    return np.array([index[label] for label in experts.values()], dtype=np.intp), encoded


def precision_at_1(
    predictions: Mapping[str, Prediction],
    experts: Mapping[str, str],
    tie_mode: str = "strict",
) -> PrecisionResult:
    """Overall precision@1 over every expert-labeled document."""
    _check_tie_mode(tie_mode)
    expert, (encoded,) = _encode(experts, {"": predictions})
    correct, ties = _count(encoded, expert, len(encoded.labels), tie_mode)
    return PrecisionResult(int(correct.sum()), len(experts), int(ties.sum()))


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
    expert, (encoded,) = _encode(experts, {"": predictions}, label_set=label_set)
    counts = _count(encoded, expert, label_set.n, tie_mode)
    totals = np.bincount(expert, minlength=label_set.n).tolist()
    return _results(("",), counts, totals, label_set.labels)[1][""]


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


def _grid_stats(individual: np.ndarray, combined: np.ndarray, totals: np.ndarray) -> GridStats:
    # individual and combined are correct counts per (model, label).  Only
    # labels that carry documents form cells.  Every model shares one
    # denominator per label, and one overall, so comparing counts compares
    # the fractions exactly.
    ind = individual[:, totals > 0]
    comb = combined[:, totals > 0]
    ge_best = np.count_nonzero(comb >= ind.max(axis=0))
    # combined/g >= sum/(t*g)  <=>  t*combined >= sum
    ge_mean = np.count_nonzero(len(ind) * comb >= ind.sum(axis=0))
    models_ge = np.count_nonzero(combined.sum(axis=1) >= individual.sum(axis=1).max())
    return GridStats(
        cells_ge_best_individual=Ratio(int(ge_best), comb.size),
        cells_ge_individual_mean=Ratio(int(ge_mean), comb.size),
        models_ge_best_individual=Ratio(int(models_ge), len(comb)),
    )


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
    expert, groups = _encode(experts, individual, combined, label_set=label_set)
    ind, comb = (_count(g, expert, label_set.n, tie_mode)[0] for g in groups)
    return _grid_stats(ind, comb, np.bincount(expert, minlength=label_set.n))


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
    check_coverage(individual, experts)
    check_coverage(combined, experts)
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


def evaluate_predictions(
    doc_ids: Sequence[str],
    label_set: LabelSet,
    expert: np.ndarray,
    individual: ModelPredictions,
    combined: ModelPredictions,
    tie_mode: str = "strict",
) -> EvaluationReport:
    """Evaluate all models and assemble the full report.

    expert is the label-set index of each document's expert label; it and
    the document axis of both prediction arrays follow doc_ids.  Each
    prediction set's labels start with the label set's, in order.
    """
    _check_tie_mode(tie_mode)
    if not individual.model_ids or not combined.model_ids:
        raise ValidationError("the report needs individual and combined predictions")
    expert = np.asarray(expert, dtype=np.intp)
    if (not len(doc_ids) or expert.shape != (len(doc_ids),)
            or expert.min() < 0 or expert.max() >= label_set.n):
        raise ValidationError("evaluation needs one expert label-set index per document")
    for p in (individual, combined):
        shape = (len(p.model_ids), len(doc_ids))
        if (p.labels[:label_set.n] != label_set.labels or p.top1.shape != shape
                or p.tied.shape != shape + (len(p.labels),)):
            raise ValidationError("predictions must be (models, documents) arrays "
                                  "on labels that start with the label set")

    totals = np.bincount(expert, minlength=label_set.n)
    ind = _count(individual, expert, label_set.n, tie_mode)
    comb = _count(combined, expert, label_set.n, tie_mode)
    individual_overall, individual_per_label = _results(
        individual.model_ids, ind, totals.tolist(), label_set.labels)
    combined_overall, combined_per_label = _results(
        combined.model_ids, comb, totals.tolist(), label_set.labels)
    best_individual = select_best(individual_overall)
    best_combined = select_best(combined_overall)

    def top1_of(p: ModelPredictions, best: BestSelection) -> dict[str, Prediction]:
        row = p.top1[p.model_ids.index(best.model)].tolist()
        return {doc_id: Prediction(p.labels[i]) for doc_id, i in zip(doc_ids, row)}

    tables = disagreement_tables(
        top1_of(individual, best_individual), top1_of(combined, best_combined),
        {doc_id: label_set.labels[i] for doc_id, i in zip(doc_ids, expert.tolist())},
    )
    return EvaluationReport(
        tie_mode=tie_mode,
        label_counts=dict(zip(label_set.labels, totals.tolist())),
        individual_overall=individual_overall,
        combined_overall=combined_overall,
        individual_per_label=individual_per_label,
        combined_per_label=combined_per_label,
        best_individual=best_individual,
        best_combined=best_combined,
        grid_stats=_grid_stats(ind[0], comb[0], totals),
        disagreements=tables,
    )


def build_report(
    individual: Mapping[str, Mapping[str, Prediction]],
    combined: Mapping[str, Mapping[str, Prediction]],
    experts: Mapping[str, str],
    label_set: LabelSet,
    tie_mode: str = "strict",
) -> EvaluationReport:
    """evaluate_predictions for per-document Prediction mappings."""
    expert, (ind, comb) = _encode(experts, individual, combined, label_set=label_set)
    return evaluate_predictions(list(experts), label_set, expert, ind, comb, tie_mode)


def write_report(report: EvaluationReport, out_dir: Path | str) -> None:
    """Write report.json and the five report tables under out_dir."""
    out_dir = Path(out_dir)
    # field name -> Ratio, and category -> rows, in field order
    stats = vars(report.grid_stats)
    tables = vars(report.disagreements)

    def precision(r):
        if r is None:
            return None
        return {"correct": r.correct, "total": r.total, "ties": r.tie_count, "value": r.value}

    def models(overall, per_label):
        return {
            model: {
                "overall": precision(overall[model]),
                "per_label": {label: precision(r) for label, r in per_label[model].items()},
            }
            for model in overall
        }

    write_json(out_dir / "report.json", {
        "tie_mode": report.tie_mode,
        "label_counts": dict(report.label_counts),
        "individual": models(report.individual_overall, report.individual_per_label),
        "combined": models(report.combined_overall, report.combined_per_label),
        # model and tied, whose tuple JSON writes as an array
        "best_individual": vars(report.best_individual),
        "best_combined": vars(report.best_combined),
        "grid_statistics": {
            name: {"numerator": r.numerator, "denominator": r.denominator, "value": r.value}
            for name, r in stats.items()
        },
        "disagreements": {
            category: [vars(row) for row in table] for category, table in tables.items()
        },
    })

    overall_rows, label_rows = [], []
    for kind, overall, per_label in (
        ("individual", report.individual_overall, report.individual_per_label),
        ("combined", report.combined_overall, report.combined_per_label),
    ):
        for model, r in sorted(overall.items()):
            overall_rows.append(
                (model, kind, r.correct, r.total, r.tie_count, format_table(r.value)))
            label_rows.extend(
                (model, kind, label, 0, 0, "n/a") if r is None
                else (model, kind, label, r.correct, r.total, format_table(r.value))
                for label, r in per_label[model].items()
            )
    write_csv(out_dir / "overall_precision.csv",
              ("model", "kind", "correct", "total", "ties", "precision"), overall_rows)
    write_csv(out_dir / "per_label_precision.csv",
              ("model", "kind", "label", "correct", "total", "precision"), label_rows)
    write_csv(
        out_dir / "grid_stats.csv",
        ("statistic", "numerator", "denominator", "value", "percent"),
        [(name, r.numerator, r.denominator, format_table(r.value), f"{100.0 * r.value:.2f}")
         for name, r in stats.items()],
    )
    write_csv(
        out_dir / "disagreements.csv",
        ("category", "doc_id", "expert", "individual", "combined"),
        [(category, row.doc_id, row.expert, row.individual, row.combined)
         for category, table in tables.items() for row in table],
    )
    # Average precision per subset and strategy, the plot-data view of the
    # combination grid.
    strategy_rows = []
    for combo_id, r in sorted(report.combined_overall.items()):
        subset, _, tag = combo_id.partition(":")
        strategy_rows.append((subset, tag, format_table(r.value)))
    strategy_rows.sort(key=lambda row: (row[0], row[1]))
    write_csv(out_dir / "strategy_precision.csv", ("subset", "strategy", "precision"),
              strategy_rows)
