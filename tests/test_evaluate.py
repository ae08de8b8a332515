"""Tests for precision, grid statistics, and disagreement tables."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from cfakit import (
    LabelSet,
    ModelPredictions,
    ValidationError,
    build_instance,
    combined_arrays,
    evaluate_predictions,
    expert_indices,
    individual_arrays,
    run_grid,
    select_best,
)
from cfakit.fileio import load_fused_predictions

LABELS = LabelSet(("L1", "L2", "L3"))


def _models(models, labels=LABELS):
    """ModelPredictions from {model_id: one prediction per document}, each
    prediction a top1 label or a "|"-joined tied group led by top1."""
    groups = [[[labels.index(label) for label in p.split("|")] for p in row]
              for row in models.values()]
    top1 = np.array([[group[0] for group in row] for row in groups], dtype=np.intp)
    tied = np.zeros(top1.shape + (labels.n,), dtype=bool)
    for m, row in enumerate(groups):
        for d, group in enumerate(row):
            tied[m, d, group] = True
    return ModelPredictions(tuple(models), labels.labels, top1, tied)


def _report(experts, individual, combined=None, labels=LABELS, tie_mode="strict"):
    """The report on the documents in the experts' order; the combined
    models default to the individual ones."""
    doc_ids = list(experts)
    return evaluate_predictions(
        doc_ids, labels, expert_indices(experts, labels, doc_ids),
        _models(individual, labels), _models(combined or individual, labels), tie_mode,
    )


def test_precision_simple_fraction():
    experts = {"d1": "L1", "d2": "L2", "d3": "L3", "d4": "L1"}
    result = _report(experts, {"m": ["L1", "L1", "L3", "L1"]}).individual_overall["m"]
    assert result.correct == 3
    assert result.total == 4
    assert result.value == 0.75
    assert result.fraction == Fraction(3, 4)
    assert result.tie_count == 0


def test_precision_strict_versus_lenient_ties():
    experts = {"d1": "L2"}
    # L1 and L2 tie at the top; the deterministic break picks L1
    tied = {"m": ["L1|L2"]}
    strict = _report(experts, tied, tie_mode="strict").individual_overall["m"]
    lenient = _report(experts, tied, tie_mode="lenient").individual_overall["m"]
    assert strict.correct == 0
    assert lenient.correct == 1
    assert strict.tie_count == 1
    assert lenient.tie_count == 1


def test_precision_tie_on_expert_top1_counts_in_both_modes():
    experts = {"d1": "L1"}
    tied = {"m": ["L1|L2"]}
    for tie_mode in ("strict", "lenient"):
        assert _report(experts, tied, tie_mode=tie_mode).individual_overall["m"].correct == 1


def test_precision_missing_predictions_listed(tmp_path):
    path = tmp_path / "fused.csv"
    path.write_text("combo_id,doc_id,top1,tie_at_top,tied_top,ranking\n"
                    "A+B:asc,d1,L1,false,L1,L1|L2|L3\n")
    with pytest.raises(ValidationError, match=r"\['d2'\]"):
        load_fused_predictions(path, LABELS, ["d1", "d2"])


def test_precision_unknown_tie_mode():
    with pytest.raises(ValidationError, match="tie mode"):
        _report({"d1": "L1"}, {"m": ["L1"]}, tie_mode="fuzzy")


def test_precision_empty_experts():
    empty = ModelPredictions(("m",), LABELS.labels, np.zeros((1, 0), dtype=np.intp),
                             np.zeros((1, 0, LABELS.n), dtype=bool))
    with pytest.raises(ValidationError, match="one expert label-set index per document"):
        evaluate_predictions([], LABELS, np.zeros(0, dtype=np.intp), empty, empty)


def test_predictions_must_index_exactly_the_label_set():
    expert = expert_indices({"d1": "L1"}, LABELS)
    good = _models({"m": ["L1"]})
    longer = good._replace(labels=(*LABELS.labels, "L9"),
                           tied=np.zeros((1, 1, LABELS.n + 1), dtype=bool))
    for bad in (longer, good._replace(top1=np.zeros((1, 2), dtype=np.intp))):
        with pytest.raises(ValidationError, match="on the label set's labels"):
            evaluate_predictions(["d1"], LABELS, expert, good, bad)
    # top1 outside the label set, or outside its tied group
    for top1 in (3, -1, 1):
        bad = good._replace(top1=np.array([[top1]], dtype=np.intp))
        with pytest.raises(ValidationError, match="top1 must be a label index inside"):
            evaluate_predictions(["d1"], LABELS, expert, good, bad)


def test_per_label_precision_groups_and_empty_labels():
    experts = {"d1": "L1", "d2": "L1", "d3": "L2"}
    table = _report(experts, {"m": ["L1", "L2", "L2"]}).individual_per_label["m"]
    assert table["L1"].correct == 1
    assert table["L1"].total == 2
    assert table["L2"].correct == 1
    assert table["L2"].total == 1
    assert table["L3"] is None


def test_per_label_precision_rejects_foreign_expert_label():
    with pytest.raises(ValidationError, match="outside the label set"):
        expert_indices({"d1": "L9"}, LABELS)


def test_overall_equals_document_weighted_mean_of_labels():
    rng = np.random.default_rng(79)
    labels = [f"L{i}" for i in range(5)]
    label_set = LabelSet(tuple(labels))
    for _ in range(20):
        docs = [f"d{i}" for i in range(int(rng.integers(5, 40)))]
        experts = {d: labels[int(rng.integers(0, 5))] for d in docs}
        predictions = {"m": [labels[int(rng.integers(0, 5))] for _ in docs]}
        report = _report(experts, predictions, labels=label_set)
        table = report.individual_per_label["m"]
        total = sum(r.correct for r in table.values() if r is not None)
        count = sum(r.total for r in table.values() if r is not None)
        assert Fraction(total, count) == report.individual_overall["m"].fraction


def test_select_best_picks_highest():
    from cfakit import PrecisionResult

    results = {
        "A": PrecisionResult(9542, 10000),
        "B": PrecisionResult(9100, 10000),
        "C": PrecisionResult(8800, 10000),
        "D": PrecisionResult(8000, 10000),
        "E": PrecisionResult(7800, 10000),
    }
    best = select_best(results)
    assert best.model == "A"
    assert best.tied == ("A",)


def test_select_best_breaks_ties_canonically():
    from cfakit import PrecisionResult

    results = {
        "B+C:asc": PrecisionResult(3, 4),
        "A+B:arc": PrecisionResult(3, 4),
        "A+C:wsc-ds": PrecisionResult(2, 4),
    }
    best = select_best(results)
    assert best.model == "A+B:arc"
    assert best.tied == ("A+B:arc", "B+C:asc")


def test_select_best_compares_fractions_not_floats():
    from cfakit import PrecisionResult

    # 1/3 versus 33/100: exact rational comparison keeps 1/3 on top
    results = {"x": PrecisionResult(1, 3), "y": PrecisionResult(33, 100)}
    assert select_best(results).model == "x"


def test_select_best_empty():
    with pytest.raises(ValidationError):
        select_best({})


def test_grid_statistics_hand_counted():
    experts = {"d1": "L1", "d2": "L1", "d3": "L2", "d4": "L3"}
    individual = {
        "A": ["L1", "L2", "L2", "L3"],
        "B": ["L2", "L2", "L3", "L3"],
    }
    # per-label correct counts: A -> L1:1, L2:1, L3:1; B -> L1:0, L2:0, L3:1
    # best individual per label: L1:1, L2:1, L3:1; sums: L1:1, L2:1, L3:2
    combined = {
        "A+B:asc": ["L1", "L1", "L2", "L3"],
        "A+B:arc": ["L2", "L2", "L3", "L1"],
    }
    # asc per-label: L1:2, L2:1, L3:1 -> >= best in all 3 cells
    # arc per-label: L1:0, L2:0, L3:0 -> no cell
    stats = _report(experts, individual, combined).grid_stats
    assert stats.cells_ge_best_individual.numerator == 3
    assert stats.cells_ge_best_individual.denominator == 6
    # mean counts (t=2): L1 needs 2c>=1, L2 needs 2c>=1, L3 needs 2c>=2
    # asc: (4>=1, 2>=1, 2>=2) -> 3 cells; arc: none
    assert stats.cells_ge_individual_mean.numerator == 3
    assert stats.cells_ge_individual_mean.denominator == 6
    # overall: A=3/4 (best), B=1/4; asc=4/4 >= 3/4, arc=0/4
    assert stats.models_ge_best_individual.numerator == 1
    assert stats.models_ge_best_individual.denominator == 2


def test_grid_statistics_equal_precision_counts_as_ge():
    experts = {"d1": "L1", "d2": "L2", "d3": "L3"}
    same = ["L1", "L2", "L1"]
    stats = _report(experts, {"A": same}, {"combo": same}).grid_stats
    assert stats.models_ge_best_individual.numerator == 1
    assert stats.cells_ge_best_individual.numerator == 3


SDG = LabelSet(tuple(f"SDG{i}" for i in range(1, 18)))


def test_disagreement_categories():
    # documents out of doc_id order, so the tables must sort them
    experts = {
        "c1": "SDG1", "all_differ": "SDG3", "b1": "SDG5", "agree": "SDG2",
        "a1": "SDG4",
    }
    individual = {"m": ["SDG11", "SDG6", "SDG5", "SDG2", "SDG12"]}
    combined = {"c": ["SDG11", "SDG7", "SDG1", "SDG2", "SDG4"]}
    tables = _report(experts, individual, combined, labels=SDG).disagreements
    assert [r.doc_id for r in tables.fusion_agrees_with_expert] == ["a1"]
    assert [r.doc_id for r in tables.fusion_disagrees_with_both] == ["b1"]
    assert [r.doc_id for r in tables.both_disagree_with_expert] == ["c1"]
    row = tables.fusion_agrees_with_expert[0]
    assert (row.expert, row.individual, row.combined) == ("SDG4", "SDG12", "SDG4")
    listed = {
        r.doc_id
        for table in (
            tables.fusion_agrees_with_expert,
            tables.fusion_disagrees_with_both,
            tables.both_disagree_with_expert,
        )
        for r in table
    }
    # full agreement and three-way disagreement land in no table
    assert "agree" not in listed
    assert "all_differ" not in listed


def test_disagreement_rows_sorted_by_doc_id():
    experts = {"z": "L1", "a": "L1", "m": "L1"}
    tables = _report(experts, {"i": ["L2"] * 3}, {"c": ["L1"] * 3}).disagreements
    assert [r.doc_id for r in tables.fusion_agrees_with_expert] == ["a", "m", "z"]


def test_individual_arrays_break_ties_by_label_order():
    inst = build_instance("d1", LABELS, {"A": [0.5, 0.5, 0.1]})
    predictions = individual_arrays([inst])
    assert predictions.model_ids == ("A",)
    assert predictions.labels == LABELS.labels
    assert predictions.top1.tolist() == [[0]]  # L1
    assert predictions.tied.tolist() == [[[True, True, False]]]  # L1, L2


def test_evaluate_predictions_end_to_end_small():
    rng = np.random.default_rng(83)
    docs = [f"d{i}" for i in range(12)]
    instances = [
        build_instance(
            d,
            LABELS,
            {s: rng.uniform(size=3).tolist() for s in ("A", "B", "C")},
        )
        for d in docs
    ]
    experts = {d: LABELS.labels[int(rng.integers(0, 3))] for d in docs}
    combined = combined_arrays(instances)
    # the same top-1 labels and tied groups as run_grid's FusedRankings
    grid = run_grid(instances)
    assert combined.model_ids == tuple(grid)
    for m, results in enumerate(grid.values()):
        for d, fused in enumerate(results):
            assert LABELS.labels[combined.top1[m, d]] == fused.top1
            assert [LABELS.labels[i] for i in np.flatnonzero(combined.tied[m, d])] == list(
                fused.tied_top)
    report = evaluate_predictions(
        docs, LABELS, expert_indices(experts, LABELS, docs),
        individual_arrays(instances), combined,
    )
    assert set(report.individual_overall) == {"A", "B", "C"}
    assert len(report.combined_overall) == 16  # 4 subsets x 4 strategies
    assert report.grid_stats.models_ge_best_individual.denominator == 16
    assert report.grid_stats.cells_ge_best_individual.denominator == 16 * 3
    assert sum(report.label_counts.values()) == len(docs)
    for model, table in report.combined_per_label.items():
        correct = sum(r.correct for r in table.values() if r is not None)
        total = sum(r.total for r in table.values() if r is not None)
        overall = report.combined_overall[model]
        assert Fraction(correct, total) == overall.fraction
