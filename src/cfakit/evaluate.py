"""Evaluation of fused and individual predictions against expert labels.

Precision@1 is the fraction of documents whose top-ranked label matches
the expert label.  Under the strict tie mode a top tie counts as correct
only when the deterministic tie-break picked the expert label; the
lenient mode accepts the expert label anywhere in the tied group.

Every count comes from one pass over label-index arrays (see
ModelPredictions): a hit matrix of models x documents, summed per
expert label with np.bincount.  individual_arrays and combined_arrays
make those arrays from a batch, and fused.load_fused_predictions reads
them from a fused grid file.  The report keeps the counts as they come,
one ModelCounts for the individual and one for the combined models,
beside each label's document count.  Every model shares those per-label
totals, and their sum overall, so comparing counts compares precisions
exactly; the grid statistics are (numerator, denominator) pairs of ints,
and floats only appear in presentation.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .combine import _fuse_arrays, grid_arrays
from .core import FusionBatch
from .errors import ValidationError
from .fileio import _JSON_KINDS, _names, _quote, atomic_write_text, format_table, write_csv
from .settings import LabelSet, _check_choice, _ids


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
    """ModelPredictions from (model_id, values, order) triples, the combined
    values and label order of one _fuse_arrays result per model.  The
    labels whose value equals the top label's are tied, the test by which
    _fuse_arrays counts them."""
    model_ids, top1, tied = zip(*(
        (model_id, order[:, 0], values == np.take_along_axis(values, order[:, :1], axis=1))
        for model_id, values, order in models
    ))
    return ModelPredictions(model_ids, labels, np.stack(top1), np.stack(tied))


def individual_arrays(batch: FusionBatch) -> ModelPredictions:
    """Top-1 predictions of each system on its own, documents in batch order.

    A single system is scored exactly like a size-one score average, so
    ties at the top resolve by label order and the tied group is kept.
    """
    return _stack(batch.label_set.labels, (
        (system_id, *_fuse_arrays(batch, (j,), "asc")[:2])
        for j, system_id in enumerate(batch.system_ids)
    ))


def combined_arrays(
    batch: FusionBatch, performance: Mapping[str, float] | None = None
) -> ModelPredictions:
    """Top-1 predictions of every combined model, in grid_arrays' combo_id
    order (that of fused.csv) and under its weights, documents in batch
    order."""
    grid = grid_arrays(batch, performance)
    return _stack(batch.label_set.labels, (
        (combo_id, values, order) for combo_id, (values, order, _, _) in grid
    ))


def expert_indices(
    experts: Mapping[str, str], label_set: LabelSet, doc_ids: Sequence[str]
) -> np.ndarray:
    """The label-set index of each document's expert label, documents in
    doc_ids order.  experts must label exactly the documents of doc_ids,
    each with a label from the label set."""
    doc_ids = _ids(doc_ids, "doc id")
    docs = set(doc_ids)
    unlabeled = sorted(docs - experts.keys())
    if unlabeled:
        raise ValidationError(f"expert labels missing for documents {_names(unlabeled)}")
    missing = sorted(experts.keys() - docs)
    if missing:
        raise ValidationError(f"missing predictions for documents {_names(missing)}")
    for doc_id, label in experts.items():
        if label not in label_set:
            raise ValidationError(
                f"document {doc_id!r} has expert label {label!r} outside the label set"
            )
    return np.array([label_set.index(experts[d]) for d in doc_ids], dtype=np.intp)


class BestSelection(NamedTuple):
    """Best model id with every id that tied for the top precision."""

    model: str
    tied: tuple[str, ...]


def select_best(model_ids: Sequence[str], correct: Sequence[int]) -> BestSelection:
    """Model with the most correct documents, given each model's count out
    of one shared total: the highest precision, compared exactly.  Ties
    break by model id order."""
    model_ids = _ids(model_ids, "model id")
    if not model_ids:
        raise ValidationError("cannot select the best model from empty results")
    if (not isinstance(correct, Sequence) or len(correct) != len(model_ids)
            or not all(map(_JSON_KINDS["an integer"], correct))):
        raise ValidationError("best model selection needs one integer correct count per model")
    best = max(correct)
    tied = tuple(sorted(m for m, count in zip(model_ids, correct) if count == best))
    return BestSelection(model=tied[0], tied=tied)


class ModelCounts(NamedTuple):
    """One kind of model's counts from the counting pass (_count).  Row m
    of correct counts, per label, the documents the model model_ids[m] got
    right, and of ties those whose top label it tied: exact (models,
    labels) integer arrays.  overall[m] is the model's correct documents
    over all labels, summed once, and best is select_best of overall."""

    model_ids: tuple[str, ...]
    correct: np.ndarray
    ties: np.ndarray
    overall: np.ndarray
    best: BestSelection


def _count(
    predictions: ModelPredictions, expert: np.ndarray, n_labels: int, tie_mode: str
) -> ModelCounts:
    """The one counting pass over the models of predictions.  expert holds
    each document's expert label index."""
    if tie_mode == "lenient":
        # an untied group is top1 alone, so this is top1 == expert there
        hit = predictions.tied[:, np.arange(expert.size), expert]
    else:
        hit = predictions.top1 == expert
    tie = np.count_nonzero(predictions.tied, axis=2) > 1
    cell = np.arange(len(hit))[:, None] * n_labels + expert
    correct, ties = (
        np.bincount(cell[flags], minlength=len(hit) * n_labels).reshape(-1, n_labels)
        for flags in (hit, tie)
    )
    overall = correct.sum(axis=1)
    return ModelCounts(predictions.model_ids, correct, ties, overall,
                       select_best(predictions.model_ids, overall.tolist()))


def _grid_stats(
    individual: ModelCounts, combined: ModelCounts, totals: np.ndarray
) -> dict[str, tuple[int, int]]:
    """How often combined models meet or beat the individual systems, by
    correct counts per (model, label) and overall, each statistic a
    (numerator, denominator) pair.  cells_* count (model, label) cells of
    the per-label precision grid, where only labels that carry documents
    form cells; models_ge_best_individual counts whole combined models by
    overall precision.  Every model shares one denominator per label, and
    one overall, so comparing counts compares the fractions exactly."""
    ind = individual.correct[:, totals > 0]
    comb = combined.correct[:, totals > 0]
    ge_best = np.count_nonzero(comb >= ind.max(axis=0))
    # combined/g >= sum/(t*g)  <=>  t*combined >= sum
    ge_mean = np.count_nonzero(len(ind) * comb >= ind.sum(axis=0))
    models_ge = np.count_nonzero(combined.overall >= individual.overall.max())
    return {
        "cells_ge_best_individual": (int(ge_best), comb.size),
        "cells_ge_individual_mean": (int(ge_mean), comb.size),
        "models_ge_best_individual": (int(models_ge), len(comb)),
    }


# the columns of a disagreement row, in report.json and disagreements.csv
DISAGREEMENT_COLUMNS = ("doc_id", "expert", "individual", "combined")


def _disagreements(
    doc_ids: Sequence[str], labels: Sequence[str],
    expert: np.ndarray, individual: np.ndarray, combined: np.ndarray,
) -> dict[str, tuple[tuple[str, str, str, str], ...]]:
    """Categorize expert/individual/combined disagreement per document from
    the top-1 label indices, rows of DISAGREEMENT_COLUMNS in doc_id order."""
    order = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
    expert, ind, comb = expert[order], individual[order], combined[order]

    def rows(mask: np.ndarray) -> tuple[tuple[str, str, str, str], ...]:
        return tuple(
            (doc_ids[d], labels[e], labels[i], labels[c])
            for d, e, i, c in zip(*(a[mask].tolist() for a in (order, expert, ind, comb)))
        )

    # ind == expert != comb implies comb != ind
    return {
        "fusion_agrees_with_expert": rows((comb == expert) & (ind != expert)),
        "fusion_disagrees_with_both": rows((ind == expert) & (comb != expert)),
        "both_disagree_with_expert": rows((comb == ind) & (ind != expert)),
    }


class EvaluationReport(NamedTuple):
    """Everything the evaluation pipeline measures in one place.

    label_counts maps each label, in label-set order, to its documents,
    the total every model is scored on for that label; each overall count
    is out of sum(label_counts.values()).  individual and combined hold
    the ModelCounts of the individual and of the combined models.
    grid_stats maps each grid statistic to its (numerator, denominator)
    pair of ints (_grid_stats).
    disagreements maps each category to the documents, as rows of
    DISAGREEMENT_COLUMNS, where the best individual and the best combined
    model differ: fusion_agrees_with_expert (combined = expert, individual
    wrong), fusion_disagrees_with_both (individual = expert, combined
    differs from both) and both_disagree_with_expert (combined =
    individual, both wrong).  Documents where all three agree appear in
    no category.
    """

    tie_mode: str
    label_counts: dict[str, int]
    individual: ModelCounts
    combined: ModelCounts
    grid_stats: dict[str, tuple[int, int]]
    disagreements: dict[str, tuple[tuple[str, str, str, str], ...]]


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
    its tied group.  Arrays may be lists; indices must have an integer
    dtype and tied groups a boolean one, and nothing is cast.
    """
    _check_choice("tie_mode", tie_mode)
    doc_ids = _ids(doc_ids, "doc id")
    try:
        individual, combined = (p._replace(model_ids=_ids(p.model_ids, "model id"),
                                           top1=np.asarray(p.top1), tied=np.asarray(p.tied))
                                for p in (individual, combined))
        expert = np.asarray(expert)
    except ValueError:  # ragged nesting
        raise ValidationError("expert indices and predictions must be rectangular") from None
    if not individual.model_ids or not combined.model_ids:
        raise ValidationError("the report needs individual and combined predictions")
    if (not len(doc_ids) or expert.dtype.kind not in "iu" or expert.shape != (len(doc_ids),)
            or expert.min() < 0 or expert.max() >= label_set.n):
        raise ValidationError("evaluation needs one expert label-set index per document")
    expert = expert.astype(np.intp, copy=False)
    for p in (individual, combined):
        shape = (len(p.model_ids), len(doc_ids))
        if (p.labels != label_set.labels or p.top1.shape != shape
                or p.tied.shape != shape + (label_set.n,)):
            raise ValidationError("predictions must be (models, documents) arrays "
                                  "on the label set's labels")
        if p.top1.dtype.kind not in "iu" or p.tied.dtype != np.bool_:
            raise ValidationError("top1 must hold label indices and tied booleans")
        if (p.top1.min() < 0 or p.top1.max() >= label_set.n
                or not np.take_along_axis(p.tied, p.top1[..., None], axis=2).all()):
            raise ValidationError("each top1 must be a label index inside its tied group")

    totals = np.bincount(expert, minlength=label_set.n)
    ind = _count(individual, expert, label_set.n, tie_mode)
    comb = _count(combined, expert, label_set.n, tie_mode)
    tables = _disagreements(
        doc_ids, label_set.labels, expert,
        individual.top1[individual.model_ids.index(ind.best.model)],
        combined.top1[combined.model_ids.index(comb.best.model)],
    )
    label_counts = dict(zip(label_set.labels, totals.tolist()))
    return EvaluationReport(tie_mode, label_counts, ind, comb, _grid_stats(ind, comb, totals),
                            tables)


def _record_template(depth: int) -> str:
    """A precision record as json.dumps(indent=2, sort_keys=True) writes it
    at depth indent spaces, a %s for each of correct, ties, total and value."""
    inner = "\n" + " " * (depth + 2)
    fields = ",".join(f'{inner}"{name}": %s' for name in ("correct", "ties", "total", "value"))
    return "{" + fields + "\n" + " " * depth + "}"


_OVERALL = _record_template(6)
_PER_LABEL = _record_template(8)


def write_report(report: EvaluationReport, out_dir: Path | str) -> None:
    """Write report.json and the five report tables under out_dir.

    report.json holds the bytes of json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False) of the report: the individual and combined
    sections are written from their fixed shape, floats by repr as json
    writes them, the others by json.  Each model's precision table rows
    and report.json entry are formatted in one pass over its counts, each
    id quoted once as write_csv would quote it."""
    out_dir = Path(out_dir)
    stats, tables = report.grid_stats, report.disagreements
    sections = {
        "tie_mode": report.tie_mode,
        "label_counts": dict(report.label_counts),
        # model and tied, whose tuple JSON writes as an array
        "best_individual": report.individual.best._asdict(),
        "best_combined": report.combined.best._asdict(),
        "grid_statistics": {
            name: {"numerator": n, "denominator": d, "value": n / d}
            for name, (n, d) in stats.items()
        },
        "disagreements": {
            category: [dict(zip(DISAGREEMENT_COLUMNS, row)) for row in table]
            for category, table in tables.items()
        },
    }
    # json writes no raw newline inside a string, so every newline starts
    # a line to indent one level deeper
    text = {
        name: json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", "\n  ")
        for name, value in sections.items()
    }
    labels, totals = list(report.label_counts), list(report.label_counts.values())
    total = sum(totals)
    by_name = sorted(range(len(labels)), key=labels.__getitem__)  # report.json's label order
    # by label and correct count: what follows the model and kind columns
    # of a table row, and the report.json record, a %d in place of the tie
    # count; each label's JSON key is kept apart, as a label may hold a %
    keys = [f"\n        {json.dumps(label, ensure_ascii=False)}: " for label in labels]
    tails, records = [], []
    for label, g in report.label_counts.items():
        tails.append([f"{_quote(label)},{n},{g},{format_table(n / g)}\n" for n in range(g + 1)]
                     if g else [f"{_quote(label)},0,0,n/a\n"])
        records.append([_PER_LABEL % (n, "%d", g, repr(n / g)) for n in range(g + 1)] if g else [])
    overall_lines, label_lines = [], []
    for kind, counts in {"individual": report.individual, "combined": report.combined}.items():
        models = []
        rows = zip(counts.model_ids, counts.overall.tolist(), counts.ties.sum(axis=1).tolist(),
                   counts.correct.tolist(), counts.ties.tolist())
        for model, c, t, cells, cell_ties in sorted(rows, key=lambda row: row[0]):
            head = f"{_quote(model)},{kind},"
            overall_lines.append(f"{head}{c},{total},{t},{format_table(c / total)}\n")
            label_lines.extend(head + tail[n] for tail, n in zip(tails, cells))
            per_label = ",".join(keys[l] + (records[l][cells[l]] % cell_ties[l] if totals[l]
                                            else "null") for l in by_name)
            models.append(
                f"\n    {json.dumps(model, ensure_ascii=False)}: {{"
                f'\n      "overall": {_OVERALL % (c, t, total, repr(c / total))},'
                f'\n      "per_label": {{{per_label}\n      }}\n    }}'
            )
        text[kind] = "{" + ",".join(models) + "\n  }" if models else "{}"
    atomic_write_text(out_dir / "report.json", "{" + ",".join(
        f'\n  "{name}": {text[name]}' for name in sorted(text)
    ) + "\n}\n")
    atomic_write_text(out_dir / "overall_precision.csv",
                      "model,kind,correct,total,ties,precision\n" + "".join(overall_lines))
    atomic_write_text(out_dir / "per_label_precision.csv",
                      "model,kind,label,correct,total,precision\n" + "".join(label_lines))
    write_csv(
        out_dir / "grid_stats.csv",
        ("statistic", "numerator", "denominator", "value", "percent"),
        [(name, n, d, format_table(n / d), f"{100.0 * (n / d):.2f}")
         for name, (n, d) in stats.items()],
    )
    write_csv(
        out_dir / "disagreements.csv",
        ("category", *DISAGREEMENT_COLUMNS),
        [(category, *row) for category, table in tables.items() for row in table],
    )
    # Average precision per subset and strategy, the plot-data view of the
    # combination grid; the combo id breaks a tie between "a" and "a:".
    values = [c / total for c in report.combined.overall.tolist()]
    write_csv(out_dir / "strategy_precision.csv", ("subset", "strategy", "precision"), [
        (subset, strategy, format_table(v)) for subset, strategy, _, v in sorted(
            (*combo_id.partition(":")[::2], combo_id, v)
            for combo_id, v in zip(report.combined.model_ids, values))
    ])
