"""Tests for precision, grid statistics, and disagreement tables."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from cfakit import (
    FusionBatch,
    LabelSet,
    ModelPredictions,
    ValidationError,
    combined_arrays,
    evaluate_predictions,
    expert_indices,
    grid_arrays,
    individual_arrays,
    select_best,
)
from cfakit.fused import load_fused_predictions

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


def _overall(report, model, kind="individual"):
    """A model's (correct, total) over all documents: the report's overall
    count, which equals the model's per-label counts summed."""
    counts = getattr(report, kind)
    m = counts.model_ids.index(model)
    assert counts.overall.shape == (len(counts.model_ids),)
    assert counts.overall[m] == counts.correct[m].sum()
    return int(counts.overall[m]), sum(report.label_counts.values())


def _per_label(report, model, kind="individual"):
    """A model's (correct, total) per label from the report's arrays, None
    for a label without documents."""
    counts = getattr(report, kind)
    m = counts.model_ids.index(model)
    return {
        label: (int(c), group) if group else None
        for (label, group), c in zip(report.label_counts.items(), counts.correct[m])
    }


def test_precision_simple_fraction():
    experts = {"d1": "L1", "d2": "L2", "d3": "L3", "d4": "L1"}
    report = _report(experts, {"m": ["L1", "L1", "L3", "L1"]})
    correct, total = _overall(report, "m")
    assert correct == 3
    assert total == 4
    assert correct / total == 0.75
    assert Fraction(correct, total) == Fraction(3, 4)
    assert report.individual.ties.sum() == 0


def test_precision_strict_versus_lenient_ties():
    experts = {"d1": "L2"}
    # L1 and L2 tie at the top; the deterministic break picks L1
    tied = {"m": ["L1|L2"]}
    reports = [_report(experts, tied, tie_mode=mode) for mode in ("strict", "lenient")]
    (strict, _), (lenient, _) = (_overall(report, "m") for report in reports)
    assert strict == 0
    assert lenient == 1
    assert [report.individual.ties.sum() for report in reports] == [1, 1]


def test_precision_tie_on_expert_top1_counts_in_both_modes():
    experts = {"d1": "L1"}
    tied = {"m": ["L1|L2"]}
    for tie_mode in ("strict", "lenient"):
        assert _overall(_report(experts, tied, tie_mode=tie_mode), "m")[0] == 1


def test_precision_missing_predictions_listed(tmp_path):
    path = tmp_path / "fused.csv"
    path.write_text("combo_id,doc_id,top1,tie_at_top,tied_top,ranking\n"
                    "A+B:asc,d1,L1,false,L1,L1|L2|L3\n")
    with pytest.raises(ValidationError, match=r"\['d2'\]"):
        load_fused_predictions(
            path, FusionBatch(["d1", "d2"], LABELS, ["s"], np.zeros((2, 1, LABELS.n))))


def test_precision_unknown_tie_mode():
    with pytest.raises(ValidationError, match="tie mode"):
        _report({"d1": "L1"}, {"m": ["L1"]}, tie_mode="fuzzy")


def test_precision_empty_experts():
    empty = ModelPredictions(("m",), LABELS.labels, np.zeros((1, 0), dtype=np.intp),
                             np.zeros((1, 0, LABELS.n), dtype=bool))
    with pytest.raises(ValidationError, match="one expert label-set index per document"):
        evaluate_predictions([], LABELS, np.zeros(0, dtype=np.intp), empty, empty)


def test_predictions_must_index_exactly_the_label_set():
    expert = expert_indices({"d1": "L1"}, LABELS, ["d1"])
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


def _evaluate(expert=(0, 1, 2), top1=None, tied=None, tie_mode="strict"):
    """evaluate_predictions on three documents of one model that matches
    the expert; top1 and tied replace the combined model's arrays."""
    good = _models({"m": ["L1", "L2", "L3"]})
    bad = good._replace(top1=good.top1 if top1 is None else top1,
                        tied=good.tied if tied is None else tied)
    return evaluate_predictions(["d1", "d2", "d3"], LABELS, np.array(expert), good, bad, tie_mode)


@pytest.mark.parametrize("call", [
    lambda: _evaluate(expert=[0.9, 1.5, 2.2]),
    lambda: _evaluate(expert=[True, False, True]),
    lambda: _evaluate(top1=np.array([[0.0, 1.0, 2.0]])),
    lambda: _evaluate(tied=np.eye(3, dtype=np.intp)[None], tie_mode="lenient"),
    lambda: select_best(("a", "b"), [3]),
    lambda: select_best(("a",), [1, 5]),
], ids=["float-expert", "bool-expert", "float-top1", "int-tied", "fewer-counts", "more-counts"])
def test_indices_and_counts_are_refused_not_cast_or_dropped(call):
    with pytest.raises(ValidationError):
        call()


def test_model_ids_must_be_unique():
    expert = expert_indices({"d1": "L1"}, LABELS, ["d1"])
    good = _models({"m": ["L1"]})
    twice = good._replace(model_ids=("m", "m"), top1=np.repeat(good.top1, 2, axis=0),
                          tied=np.repeat(good.tied, 2, axis=0))
    for individual, combined in ((twice, good), (good, twice)):
        with pytest.raises(ValidationError, match="^duplicate model id 'm'$"):
            evaluate_predictions(["d1"], LABELS, expert, individual, combined)


def test_per_label_results_groups_and_empty_labels():
    experts = {"d1": "L1", "d2": "L1", "d3": "L2"}
    table = _per_label(_report(experts, {"m": ["L1", "L2", "L2"]}), "m")
    assert table["L1"] == (1, 2)
    assert table["L2"] == (1, 1)
    assert table["L3"] is None


def test_expert_indices_reject_a_foreign_expert_label():
    with pytest.raises(ValidationError, match="outside the label set"):
        expert_indices({"d1": "L9"}, LABELS, ["d1"])


def test_expert_indices_reject_a_document_without_an_expert_label():
    # ids listed as fileio._names lists them
    with pytest.raises(ValidationError) as caught:
        expert_indices({"d1": "L1"}, LABELS, ["d2"])
    assert str(caught.value) == "expert labels missing for documents ['d2']"
    docs = [f"d{i:02d}" for i in range(13, 0, -1)]
    with pytest.raises(ValidationError) as caught:
        expert_indices({"d13": "L1"}, LABELS, docs)
    assert str(caught.value) == ("expert labels missing for documents ['d01', 'd02', 'd03', "
                                 "'d04', 'd05', 'd06', 'd07', 'd08', 'd09', 'd10'] (12 in all)")


def test_expert_indices_reject_an_expert_label_outside_the_documents():
    # checked after the documents' own labels and before the label set
    with pytest.raises(ValidationError) as caught:
        expert_indices({"d1": "L1", "d0": "L9", "d2": "L2"}, LABELS, ["d1"])
    assert str(caught.value) == "missing predictions for documents ['d0', 'd2']"
    with pytest.raises(ValidationError) as caught:
        expert_indices({"d1": "L1", "d0": "L1"}, LABELS, ["d1", "d3"])
    assert str(caught.value) == "expert labels missing for documents ['d3']"


def test_overall_equals_document_weighted_mean_of_labels():
    rng = np.random.default_rng(79)
    labels = [f"L{i}" for i in range(5)]
    label_set = LabelSet(tuple(labels))
    for _ in range(20):
        docs = [f"d{i}" for i in range(int(rng.integers(5, 40)))]
        experts = {d: labels[int(rng.integers(0, 5))] for d in docs}
        predictions = {"m": [labels[int(rng.integers(0, 5))] for _ in docs]}
        report = _report(experts, predictions, labels=label_set)
        table = _per_label(report, "m")
        total = sum(c for c, _ in filter(None, table.values()))
        count = sum(g for _, g in filter(None, table.values()))
        assert Fraction(total, count) == Fraction(*_overall(report, "m"))


def test_select_best_picks_highest():
    # correct documents of 10000 each
    best = select_best(("A", "B", "C", "D", "E"), [9542, 9100, 8800, 8000, 7800])
    assert best.model == "A"
    assert best.tied == ("A",)


def test_select_best_breaks_ties_canonically():
    # correct documents of 4 each
    best = select_best(("B+C:asc", "A+B:arc", "A+C:wsc-ds"), [3, 3, 2])
    assert best.model == "A+B:arc"
    assert best.tied == ("A+B:arc", "B+C:asc")


def test_select_best_compares_fractions_not_floats():
    # 1/3 versus 33/100, as counts of one total of 300 documents
    assert select_best(("x", "y"), [100, 99]).model == "x"
    # of 2**60 documents, one and two wrong give the same float precision;
    # the exact counts keep the first alone on top
    total = 2 ** 60
    assert (total - 1) / total == (total - 2) / total
    best = select_best(("x", "y"), [total - 1, total - 2])
    assert best.model == "x"
    assert best.tied == ("x",)


def test_select_best_empty():
    with pytest.raises(ValidationError):
        select_best((), [])


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
    assert stats["cells_ge_best_individual"] == (3, 6)
    # mean counts (t=2): L1 needs 2c>=1, L2 needs 2c>=1, L3 needs 2c>=2
    # asc: (4>=1, 2>=1, 2>=2) -> 3 cells; arc: none
    assert stats["cells_ge_individual_mean"] == (3, 6)
    # overall: A=3/4 (best), B=1/4; asc=4/4 >= 3/4, arc=0/4
    assert stats["models_ge_best_individual"] == (1, 2)


def test_grid_statistics_equal_precision_counts_as_ge():
    experts = {"d1": "L1", "d2": "L2", "d3": "L3"}
    same = ["L1", "L2", "L1"]
    stats = _report(experts, {"A": same}, {"combo": same}).grid_stats
    assert stats["models_ge_best_individual"][0] == 1
    assert stats["cells_ge_best_individual"][0] == 3


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
    assert [doc for doc, *_ in tables["fusion_agrees_with_expert"]] == ["a1"]
    assert [doc for doc, *_ in tables["fusion_disagrees_with_both"]] == ["b1"]
    assert [doc for doc, *_ in tables["both_disagree_with_expert"]] == ["c1"]
    _, *row = tables["fusion_agrees_with_expert"][0]
    assert tuple(row) == ("SDG4", "SDG12", "SDG4")
    listed = {
        doc
        for table in (
            tables["fusion_agrees_with_expert"],
            tables["fusion_disagrees_with_both"],
            tables["both_disagree_with_expert"],
        )
        for doc, *_ in table
    }
    # full agreement and three-way disagreement land in no table
    assert "agree" not in listed
    assert "all_differ" not in listed


def test_disagreement_rows_sorted_by_doc_id():
    experts = {"z": "L1", "a": "L1", "m": "L1"}
    tables = _report(experts, {"i": ["L2"] * 3}, {"c": ["L1"] * 3}).disagreements
    assert [doc for doc, *_ in tables["fusion_agrees_with_expert"]] == ["a", "m", "z"]


def test_individual_arrays_break_ties_by_label_order():
    batch = FusionBatch(("d1",), LABELS, ("A",), [[[0.5, 0.5, 0.1]]])
    predictions = individual_arrays(batch)
    assert predictions.model_ids == ("A",)
    assert predictions.labels == LABELS.labels
    assert predictions.top1.tolist() == [[0]]  # L1
    assert predictions.tied.tolist() == [[[True, True, False]]]  # L1, L2

    # many documents and systems with two-decimal scores, so top ties are
    # common: top1 is the first argmax of each system's normalized scores
    # and the tied group every label that equals the row maximum
    rng = np.random.default_rng(29)
    docs = [f"d{i}" for i in range(40)]
    batch = FusionBatch(docs, LABELS, ("A", "B", "C", "D"),
                        rng.integers(0, 4, size=(40, 4, 3)) / 100)
    predictions = individual_arrays(batch)
    normalized = batch.normalized.transpose(1, 0, 2)  # systems, documents, labels
    assert np.count_nonzero(predictions.tied.sum(axis=2) > 1) > 20
    assert (predictions.top1 == normalized.argmax(axis=2)).all()
    assert (predictions.tied == (normalized == normalized.max(axis=2, keepdims=True))).all()


def test_evaluate_predictions_end_to_end_small():
    rng = np.random.default_rng(83)
    docs = [f"d{i}" for i in range(12)]
    batch = FusionBatch(docs, LABELS, ("A", "B", "C"), rng.uniform(size=(12, 3, 3)))
    experts = {d: LABELS.labels[int(rng.integers(0, 3))] for d in docs}
    combined = combined_arrays(batch)
    # the top-1 labels and tied groups of grid_arrays' label orders
    grid = list(grid_arrays(batch))
    assert combined.model_ids == tuple(combo_id for combo_id, _ in grid)
    for m, (_, (_, order, tied, _)) in enumerate(grid):
        for d in range(len(docs)):
            assert combined.top1[m, d] == order[d, 0]
            assert np.flatnonzero(combined.tied[m, d]).tolist() == sorted(order[d, :tied[d]])
    report = evaluate_predictions(
        docs, LABELS, expert_indices(experts, LABELS, docs),
        individual_arrays(batch), combined,
    )
    assert set(report.individual.model_ids) == {"A", "B", "C"}
    assert len(report.combined.model_ids) == 16  # 4 subsets x 4 strategies
    assert report.combined.correct.shape == report.combined.ties.shape == (16, 3)
    assert report.grid_stats["models_ge_best_individual"][1] == 16
    assert report.grid_stats["cells_ge_best_individual"][1] == 16 * 3
    assert sum(report.label_counts.values()) == len(docs)
    for model in report.combined.model_ids:
        table = _per_label(report, model, "combined")
        correct = sum(c for c, _ in filter(None, table.values()))
        total = sum(g for _, g in filter(None, table.values()))
        assert Fraction(correct, total) == Fraction(*_overall(report, model, "combined"))
