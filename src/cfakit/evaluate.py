"""Evaluation of fused and individual predictions against expert labels.

Precision@1 is the fraction of documents whose top-ranked label matches
the expert label.  Fractions keep their raw integer numerator and
denominator so that comparisons between models are exact; floats only
appear in presentation.  Under the strict tie mode a top tie counts as
correct only when the deterministic tie-break picked the expert label;
the lenient mode accepts the expert label anywhere in the tied group.

Every count comes from one pass over label-index arrays (see
ModelPredictions): a hit matrix of models x documents, summed overall
and per expert label with np.bincount.  individual_arrays and
combined_arrays make those arrays from a batch, and
fileio.load_fused_predictions reads them from a fused grid file.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .combine import _fuse_arrays, _top_labels, grid_arrays
from .core import FusionBatch
from .errors import ValidationError
from .fileio import atomic_write_text, format_table, write_csv
from .settings import STRATEGIES, LabelSet, _check_tie_mode


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


def _stack(labels: tuple[str, ...], models: Iterable[tuple]) -> ModelPredictions:
    """ModelPredictions from (model_id, order, tied) triples, the order and
    tied arrays of one _fuse_arrays result per model."""
    model_ids, top1, tied = zip(*(
        (model_id, *_top_labels(order, count)) for model_id, order, count in models
    ))
    return ModelPredictions(model_ids, labels, np.stack(top1), np.stack(tied))


def individual_arrays(batch: FusionBatch) -> ModelPredictions:
    """Top-1 predictions of each system on its own, documents in batch order.

    A single system is scored exactly like a size-one score average, so
    ties at the top resolve by label order and the tied group is kept.
    """
    return _stack(batch.label_set.labels, (
        (system_id, *_fuse_arrays(batch, (j,), "asc")[1:3])
        for j, system_id in enumerate(batch.system_ids)
    ))


def combined_arrays(
    batch: FusionBatch,
    strategies: Sequence[str] = STRATEGIES,
    min_size: int = 2,
    weight_source: str = "ds",
    performance: Mapping[str, float] | None = None,
) -> ModelPredictions:
    """Top-1 predictions of every combined model, in grid_arrays' combo_id
    order (that of fused.csv) and under its arguments, documents in batch
    order."""
    grid = grid_arrays(batch, strategies, min_size, weight_source, performance)
    return _stack(batch.label_set.labels, (
        (combo_id, order, tied) for combo_id, (_, order, tied, _) in grid
    ))


@dataclass(frozen=True)
class PrecisionResult:
    """An exact count: correct of total, unreduced, plus the number of
    top-tied documents.  It holds a precision@1 and, with tie_count 0,
    each grid statistic."""

    correct: int
    total: int
    tie_count: int = 0

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValidationError("total count must be positive")
        if not 0 <= self.correct <= self.total:
            raise ValidationError("correct count must lie in [0, total]")

    @property
    def value(self) -> float:
        return self.correct / self.total

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.correct, self.total)


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

    cells_ge_best_individual: PrecisionResult
    cells_ge_individual_mean: PrecisionResult
    models_ge_best_individual: PrecisionResult


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
        cells_ge_best_individual=PrecisionResult(int(ge_best), comb.size),
        cells_ge_individual_mean=PrecisionResult(int(ge_mean), comb.size),
        models_ge_best_individual=PrecisionResult(int(models_ge), len(comb)),
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


def _disagreements(
    doc_ids: Sequence[str], labels: Sequence[str],
    expert: np.ndarray, individual: np.ndarray, combined: np.ndarray,
) -> DisagreementTables:
    """Categorize expert/individual/combined disagreement per document from
    the top-1 label indices, rows in doc_id order."""
    order = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
    expert, ind, comb = expert[order], individual[order], combined[order]

    def rows(mask: np.ndarray) -> tuple[DisagreementRow, ...]:
        return tuple(
            DisagreementRow(doc_ids[d], labels[e], labels[i], labels[c])
            for d, e, i, c in zip(*(a[mask].tolist() for a in (order, expert, ind, comb)))
        )

    # ind == expert != comb implies comb != ind
    return DisagreementTables(
        fusion_agrees_with_expert=rows((comb == expert) & (ind != expert)),
        fusion_disagrees_with_both=rows((ind == expert) & (comb != expert)),
        both_disagree_with_expert=rows((comb == ind) & (ind != expert)),
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
    the document axis of both prediction arrays follow doc_ids.  Both
    prediction sets index the label set's labels, and each top1 lies in
    its tied group.
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
        if (p.labels != label_set.labels or p.top1.shape != shape
                or p.tied.shape != shape + (label_set.n,)):
            raise ValidationError("predictions must be (models, documents) arrays "
                                  "on the label set's labels")
        if (p.top1.min() < 0 or p.top1.max() >= label_set.n
                or not np.take_along_axis(p.tied, p.top1[..., None], axis=2).all()):
            raise ValidationError("each top1 must be a label index inside its tied group")

    totals = np.bincount(expert, minlength=label_set.n)
    ind = _count(individual, expert, label_set.n, tie_mode)
    comb = _count(combined, expert, label_set.n, tie_mode)
    individual_overall, individual_per_label = _results(
        individual.model_ids, ind, totals.tolist(), label_set.labels)
    combined_overall, combined_per_label = _results(
        combined.model_ids, comb, totals.tolist(), label_set.labels)
    best_individual = select_best(individual_overall)
    best_combined = select_best(combined_overall)

    def top1_of(p: ModelPredictions, best: BestSelection) -> np.ndarray:
        return p.top1[p.model_ids.index(best.model)]

    tables = _disagreements(doc_ids, label_set.labels, expert,
                            top1_of(individual, best_individual),
                            top1_of(combined, best_combined))
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


def _record_template(depth: int) -> str:
    """A precision record as json.dumps(indent=2, sort_keys=True) writes it
    at depth indent spaces, a %s for each of correct, ties, total and value."""
    inner = "\n" + " " * (depth + 2)
    fields = ",".join(f'{inner}"{name}": %s' for name in ("correct", "ties", "total", "value"))
    return "{" + fields + "\n" + " " * depth + "}"


_OVERALL = _record_template(6)
_PER_LABEL = _record_template(8)


def _models_json(
    overall: Mapping[str, PrecisionResult],
    per_label: Mapping[str, Mapping[str, PrecisionResult | None]],
) -> str:
    """The individual or combined section of report.json, with the bytes
    json.dumps(indent=2, sort_keys=True, ensure_ascii=False) gives it one
    level deep: models by id, each with its overall record and its
    per-label records by label (null for a label without documents).
    Floats are written by repr, as json writes them."""

    def record(template: str, r: PrecisionResult | None) -> str:
        if r is None:
            return "null"
        return template % (r.correct, r.tie_count, r.total, repr(r.value))

    keys: dict[str, str] = {}  # label -> its key line in a per_label object
    models = []
    for model in sorted(overall):
        by_label = per_label[model]
        cells = []
        for label in sorted(by_label):
            key = keys.get(label)
            if key is None:
                key = keys[label] = f"\n        {json.dumps(label, ensure_ascii=False)}: "
            cells.append(key + record(_PER_LABEL, by_label[label]))
        labels = "{" + ",".join(cells) + "\n      }" if cells else "{}"
        models.append(
            f"\n    {json.dumps(model, ensure_ascii=False)}: {{"
            f'\n      "overall": {record(_OVERALL, overall[model])},'
            f'\n      "per_label": {labels}\n    }}'
        )
    return "{" + ",".join(models) + "\n  }" if models else "{}"


def write_report(report: EvaluationReport, out_dir: Path | str) -> None:
    """Write report.json and the five report tables under out_dir.

    report.json holds the bytes of json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False) of the report: the individual and combined
    sections are written from their fixed shape, the others by json."""
    out_dir = Path(out_dir)
    # field name -> PrecisionResult, and category -> rows, in field order
    stats = vars(report.grid_stats)
    tables = vars(report.disagreements)

    sections = {
        "tie_mode": report.tie_mode,
        "label_counts": dict(report.label_counts),
        # model and tied, whose tuple JSON writes as an array
        "best_individual": vars(report.best_individual),
        "best_combined": vars(report.best_combined),
        "grid_statistics": {
            name: {"numerator": r.correct, "denominator": r.total, "value": r.value}
            for name, r in stats.items()
        },
        "disagreements": {
            category: [vars(row) for row in table] for category, table in tables.items()
        },
    }
    # json writes no raw newline inside a string, so every newline starts
    # a line to indent one level deeper
    text = {
        name: json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", "\n  ")
        for name, value in sections.items()
    }
    text["individual"] = _models_json(report.individual_overall, report.individual_per_label)
    text["combined"] = _models_json(report.combined_overall, report.combined_per_label)
    atomic_write_text(out_dir / "report.json", "{" + ",".join(
        f'\n  "{name}": {text[name]}' for name in sorted(text)
    ) + "\n}\n")

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
        [(name, r.correct, r.total, format_table(r.value), f"{100.0 * r.value:.2f}")
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
