"""How scoring behavior becomes a curve, and how curves measure diversity.

Three toy systems score the same document over five labels.  Min-max
normalization puts them on a shared [0, 1] scale, ranking orders the
labels, and sorting the normalized scores by rank gives each system a
rank-score characteristic curve.  The distance between two curves is the
pair's cognitive diversity; a system's mean distance to the others is
its diversity strength.

Run:  python demos/01_rank_score_characteristics.py
"""

from __future__ import annotations

from cfakit import FusionBatch, LabelSet

LABELS = LabelSet(("SDG4", "SDG6", "SDG13", "SDG14", "SDG15"))

# model_a is confident, model_b is flat, model_c disagrees on the winner
RAW = {
    "model_a": [0.05, 0.92, 0.40, 0.20, 0.10],
    "model_b": [0.45, 0.60, 0.55, 0.50, 0.48],
    "model_c": [0.30, 0.35, 0.90, 0.25, 0.20],
}


def main() -> None:
    # a batch of one document: every array has a leading document axis
    batch = FusionBatch(("doc-01",), LABELS, tuple(RAW), [list(RAW.values())])
    ids = batch.system_ids

    print("normalized scores and ranks (rank 1 = highest score)")
    for system_id, norm, rank in zip(ids, batch.normalized[0], batch.ranks[0]):
        normalized = ", ".join(f"{v:.3f}" for v in norm)
        ranks = ", ".join(f"{r:g}" for r in rank)
        print(f"  {system_id}:")
        print(f"    normalized: [{normalized}]")
        print(f"    ranks:      [{ranks}]")

    print("\nrank-score characteristic curves (normalized score at rank 1..n)")
    for system_id, curve in zip(ids, batch.rsc[0]):
        values = ", ".join(f"{v:.3f}" for v in curve)
        print(f"  {system_id}: [{values}]")
    print("  a steep curve concentrates confidence at the top;")
    print("  a flat curve barely separates the labels")

    cd, ds = batch.cd[0], batch.ds[0]
    print("\npairwise cognitive diversity")
    for j in range(len(ids)):
        for k in range(j + 1, len(ids)):
            print(f"  CD({ids[j]}, {ids[k]}) = {cd[j, k]:.6f}")

    print("\ndiversity strength (mean distance to the other systems)")
    for system_id, strength in zip(ids, ds):
        print(f"  ds({system_id}) = {strength:.6f}")
    print("\nhigh-strength systems behave unlike the rest; the weighted")
    print("combination strategies in demo 02 use these values as weights")


if __name__ == "__main__":
    main()
