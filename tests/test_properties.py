"""Property tests: the array kernel against the naive oracle.

Hypothesis draws random shapes with heavy ties (scores with one or two
decimals) and whole constant rows, the inputs where a reordered sum or a
wrong tie rule shows up.  Ranks and rankings must agree exactly.
"""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _naive
from cfakit import (
    EPSILON,
    FusionBatch,
    LabelSet,
    build_instance,
    cognitive_diversity,
    enumerate_combinations,
    normalize_scores,
    rank_from_scores,
    run_grid,
)

# Before 3.12 CPython's sum() adds floats left to right, the order the
# kernel keeps, so the oracle's values agree bit for bit.  Later versions
# compensate sum()'s rounding, and values agree only to rounding error.
EXACT_SUMS = sys.version_info < (3, 12)


def assert_same_values(got, want):
    if EXACT_SUMS:
        assert list(got) == list(want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def score_cubes(draw, max_docs=4, max_systems=5, max_labels=8):
    """(docs, systems, labels) nested lists of tie-heavy scores."""
    docs = draw(st.integers(1, max_docs))
    systems = draw(st.integers(2, max_systems))
    labels = draw(st.integers(3, max_labels))
    scale = 10 ** draw(st.integers(1, 2))
    value = st.integers(-2 * scale, 2 * scale).map(lambda k: k / scale)
    row = st.one_of(
        st.lists(value, min_size=labels, max_size=labels),
        value.map(lambda v: [v] * labels),
    )
    return [[draw(row) for _ in range(systems)] for _ in range(docs)]


def _batch(cube, tie_policy="fractional"):
    docs, systems, labels = len(cube), len(cube[0]), len(cube[0][0])
    label_set = LabelSet(tuple(f"L{i}" for i in range(labels)))
    system_ids = tuple(f"S{j}" for j in range(systems))
    doc_ids = tuple(f"d{d}" for d in range(docs))
    return FusionBatch(doc_ids, label_set, system_ids, cube, tie_policy)


@settings(max_examples=150, deadline=None)
@given(score_cubes())
def test_ranks_and_normalization_match_oracle(cube):
    fractional = rank_from_scores(cube)
    ordinal = rank_from_scores(cube, "ordinal")
    normalized = normalize_scores(cube)
    for d, rows in enumerate(cube):
        for j, row in enumerate(rows):
            assert fractional[d, j].tolist() == _naive.ranks_fractional(row)
            assert ordinal[d, j].tolist() == _naive.ranks_ordinal(row)
            assert normalized[d, j].tolist() == _naive.normalize(row)
            # one vector at a time gives the same as the whole cube
            assert rank_from_scores(row).tolist() == fractional[d, j].tolist()
            assert normalize_scores(row).tolist() == normalized[d, j].tolist()


@settings(max_examples=150, deadline=None)
@given(score_cubes())
def test_cognitive_diversity_is_symmetric_and_matches_oracle(cube):
    batch = _batch(cube)
    assert np.array_equal(batch.cd, np.swapaxes(batch.cd, 1, 2))
    assert not np.diagonal(batch.cd, axis1=1, axis2=2).any()
    for d, rows in enumerate(cube):
        curves = [_naive.rsc(_naive.normalize(row)) for row in rows]
        for j, a in enumerate(curves):
            assert batch.rsc[d, j].tolist() == a
            assert cognitive_diversity(a, a) == 0.0
            for k, b in enumerate(curves):
                assert cognitive_diversity(a, b) == cognitive_diversity(b, a)
                assert batch.cd[d, j, k] == cognitive_diversity(a, b) == _naive.cd(a, b)


def _oracle_models(rows, ranks, subset):
    """Per-document naive values, higher-is-better flag and fallback flag."""
    normalized = [_naive.normalize(rows[j]) for j in subset]
    rank_rows = [ranks[j] for j in subset]
    curves = [_naive.rsc(v) for v in normalized]
    weights = [_naive.ds(curves, j) for j in range(len(subset))]
    score_fallback = sum(weights) <= EPSILON
    rank_fallback = any(w <= EPSILON for w in weights)
    return {
        "asc": (_naive.asc(normalized), True, False),
        "arc": (_naive.arc(rank_rows), False, False),
        "wsc-ds": (
            _naive.asc(normalized) if score_fallback else _naive.wsc(normalized, weights),
            True, score_fallback,
        ),
        "wrc-ds": (
            _naive.arc(rank_rows) if rank_fallback else _naive.wrc(rank_rows, weights),
            False, rank_fallback,
        ),
    }


@settings(max_examples=60, deadline=None)
@given(score_cubes(), st.sampled_from(("fractional", "ordinal")))
def test_kernel_grid_matches_per_document_oracle(cube, tie_policy):
    batch = _batch(cube, tie_policy)
    labels = list(batch.label_set.labels)
    rank_oracle = _naive.ranks_fractional if tie_policy == "fractional" else _naive.ranks_ordinal
    grid = run_grid(batch)
    assert len(grid) == 4 * len(enumerate_combinations(batch.system_ids))
    for d, rows in enumerate(cube):
        ranks = [rank_oracle(row) for row in rows]
        for subset in enumerate_combinations(batch.system_ids):
            idx = batch.subset_index(subset)
            for tag, (values, higher, fallback) in _oracle_models(rows, ranks, idx).items():
                fused = grid["+".join(subset) + ":" + tag][d]
                assert fused.doc_id == batch.doc_ids[d]
                assert fused.weight_fallback == fallback
                assert_same_values(fused.combined_values.tolist(), values)
                ranking = _naive.ranking(fused.combined_values.tolist(), labels, higher)
                assert list(fused.ranking) == ranking
                assert fused.top1 == ranking[0]
                best = fused.combined_values[labels.index(ranking[0])]
                tied = [l for l, v in zip(labels, fused.combined_values) if v == best]
                assert list(fused.tied_top) == tied
                assert fused.tie_at_top == (len(tied) > 1)
                if EXACT_SUMS:
                    assert ranking == _naive.ranking(values, labels, higher)

    # documents fused one at a time give the same bytes as the whole batch
    instances = [
        build_instance(doc_id, batch.label_set, dict(zip(batch.system_ids, rows)), tie_policy)
        for doc_id, rows in zip(batch.doc_ids, cube)
    ]
    for combo_id, results in run_grid(instances).items():
        for one, whole in zip(results, grid[combo_id], strict=True):
            assert one.combined_values.tobytes() == whole.combined_values.tobytes()
            assert one.ranking == whole.ranking
            assert one.tied_top == whole.tied_top
