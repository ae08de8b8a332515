"""Does fusing systems beat the best single system?

Five synthetic scoring systems of varying quality score 120 documents
over 17 labels.  The full combination grid (26 subsets x 4 strategies =
104 combined models) is evaluated against the expert labels: overall and
per-label precision at rank 1, grid-level win ratios, and the
disagreement tables that show where fusion fixes or breaks the top
individual system.

Run:  python demos/03_evaluation_report.py
"""

from __future__ import annotations

import numpy as np

from cfakit import (
    FusionBatch,
    LabelSet,
    combined_arrays,
    evaluate_predictions,
    expert_indices,
    individual_arrays,
)

LABELS = LabelSet(tuple(f"SDG{i}" for i in range(1, 18)))
QUALITY = {"m1": 2.4, "m2": 2.0, "m3": 1.6, "m4": 1.2, "m5": 0.8}


def synthesize(rng, n_docs):
    """Noisy scores that peak near the expert label, per system quality."""
    raw = []
    experts = {}
    for i in range(n_docs):
        true_index = int(rng.integers(0, LABELS.n))
        experts[f"doc{i:03d}"] = LABELS.labels[true_index]
        rows = []
        for sharpness in QUALITY.values():
            scores = rng.uniform(size=LABELS.n)
            scores[true_index] += sharpness * rng.uniform(0.2, 1.0)
            rows.append(scores.tolist())
        raw.append(rows)
    return FusionBatch(tuple(experts), LABELS, tuple(QUALITY), raw), experts


def main() -> None:
    rng = np.random.default_rng(7)
    batch, experts = synthesize(rng, 120)
    # every model's top-1 labels as label-index arrays, documents in batch order
    report = evaluate_predictions(
        batch.doc_ids,
        LABELS,
        expert_indices(experts, LABELS, batch.doc_ids),
        individual_arrays(batch),
        combined_arrays(batch),
    )

    print("individual systems, precision at rank 1")
    for model in sorted(report.individual_overall):
        r = report.individual_overall[model]
        print(f"  {model}: {r.correct}/{r.total} = {r.value:.4f}")
    best_ind = report.best_individual.model
    print(f"  best individual: {best_ind}")

    print("\ntop five combined models out of", len(report.combined_overall))
    ranked = sorted(
        report.combined_overall.items(), key=lambda kv: (-kv[1].value, kv[0])
    )
    for combo_id, r in ranked[:5]:
        print(f"  {combo_id:24s} {r.correct}/{r.total} = {r.value:.4f}")
    print(f"  best combined: {report.best_combined.model}")

    stats = report.grid_stats
    print("\ngrid statistics")
    print(f"  combined models at or above the best individual: "
          f"{stats.models_ge_best_individual.numerator}/"
          f"{stats.models_ge_best_individual.denominator} "
          f"({100 * stats.models_ge_best_individual.value:.2f}%)")
    print(f"  per-label cells at or above the best individual for that label: "
          f"{stats.cells_ge_best_individual.numerator}/"
          f"{stats.cells_ge_best_individual.denominator} "
          f"({100 * stats.cells_ge_best_individual.value:.2f}%)")
    print(f"  per-label cells at or above the individual mean: "
          f"{stats.cells_ge_individual_mean.numerator}/"
          f"{stats.cells_ge_individual_mean.denominator} "
          f"({100 * stats.cells_ge_individual_mean.value:.2f}%)")

    tables = report.disagreements
    print("\ndisagreements between the best individual and the best combined model")
    print(f"  fusion right where the individual was wrong: "
          f"{len(tables.fusion_agrees_with_expert)} documents")
    print(f"  fusion wrong where the individual was right: "
          f"{len(tables.fusion_disagrees_with_both)} documents")
    print(f"  both wrong the same way: "
          f"{len(tables.both_disagree_with_expert)} documents")
    for row in tables.fusion_agrees_with_expert[:3]:
        print(f"    {row.doc_id}: expert={row.expert} "
              f"individual={row.individual} combined={row.combined}")


if __name__ == "__main__":
    main()
