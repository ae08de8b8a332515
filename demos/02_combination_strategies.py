"""The four ways to fuse a subset of systems into one ranking.

Score combination averages normalized scores (higher wins); rank
combination averages rank positions (lower wins).  Each comes plain or
weighted by diversity strength.  Every grid fuses each subset under all
four.  The demo fuses one document over every subset of three systems,
weights the grid by hand, then shows the degenerate case where
identical systems force the weighted strategies to fall back.

Run:  python demos/02_combination_strategies.py
"""

from __future__ import annotations

from cfakit import FusionBatch, LabelSet, enumerate_combinations, grid_arrays

LABELS = LabelSet(("SDG4", "SDG6", "SDG13", "SDG14", "SDG15"))

RAW = {
    "model_a": [0.05, 0.92, 0.40, 0.20, 0.10],
    "model_b": [0.45, 0.60, 0.55, 0.50, 0.48],
    "model_c": [0.30, 0.35, 0.90, 0.25, 0.20],
}


def one_document(doc_id, raw):
    """A batch of one document from {system_id: scores}."""
    return FusionBatch((doc_id,), LABELS, tuple(raw), [list(raw.values())])


def main() -> None:
    batch = one_document("doc-01", RAW)
    labels = LABELS.labels

    subsets = enumerate_combinations(sorted(RAW))
    print(f"{len(RAW)} systems give {len(subsets)} subsets of size 2 or more:")
    for subset in subsets:
        print(f"  {'+'.join(subset)}")

    print("\nfused rankings for every (subset, strategy) combination")
    # each model's (values, order, tied, fallback) arrays, one row per document
    grid = dict(grid_arrays(batch))
    print(f"  grid size: {len(grid)} combined models")
    for combo_id, (_, order, tied, _) in sorted(grid.items()):
        ranking = [labels[i] for i in order[0]]
        marker = " (tie at top)" if tied[0] > 1 else ""
        print(f"  {combo_id:28s} top1={ranking[0]:6s} ranking={'>'.join(ranking)}{marker}")

    print("\nthe same math, called directly with explicit weights")
    weighted = dict(grid_arrays(batch, {"model_a": 2.0, "model_b": 1.0, "model_c": 1.0}))
    wsc = weighted["model_a+model_c:wsc-perf"][1][0, 0]
    print(f"  score combination of model_a (w=2) and model_c (w=1): top1={labels[wsc]}")
    wrc = weighted["model_a+model_c:wrc-perf"][1][0, 0]
    print(f"  rank combination, reciprocal weights:                 top1={labels[wrc]}")

    print("\ndegenerate case: two identical systems have zero diversity,")
    print("so diversity-strength weights vanish and the weighted strategies")
    print("fall back to the plain averages (flagged, never NaN)")
    twins = one_document(
        "doc-02", {"x": [0.3, 0.8, 0.1, 0.5, 0.2], "y": [0.3, 0.8, 0.1, 0.5, 0.2]}
    )
    _, order, _, fallback = dict(grid_arrays(twins))["x+y:wsc-ds"]
    print(f"  weight_fallback={fallback[0]}, top1={labels[order[0, 0]]}")


if __name__ == "__main__":
    main()
