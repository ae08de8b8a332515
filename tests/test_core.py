"""Tests for normalization, ranking, RSC curves, and diversity."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import _naive
from cfakit import (
    DomainError,
    FusionBatch,
    LabelSet,
    ValidationError,
    cognitive_diversity,
    diversity_strength,
    normalize_scores,
    rank_from_scores,
    rsc_curve,
)

LABELS3 = LabelSet(("L1", "L2", "L3"))


def _batch(raw, labels=LABELS3, doc_id="d1"):
    """A one-document batch from {system_id: scores}."""
    return FusionBatch((doc_id,), labels, tuple(raw), [list(raw.values())])


def test_label_set_rejects_duplicates():
    with pytest.raises(ValidationError, match="^duplicate label 'a'$"):
        LabelSet(("a", "b", "a"))


def test_label_set_requires_three_labels():
    with pytest.raises(DomainError):
        LabelSet(("a", "b"))


def test_label_set_index_and_membership():
    assert LABELS3.index("L2") == 1
    assert "L3" in LABELS3
    assert "L9" not in LABELS3
    with pytest.raises(ValidationError, match="unknown label"):
        LABELS3.index("L9")


def test_normalize_affine_rescale():
    assert normalize_scores([0.1, 0.9, 0.5]).tolist() == [0.0, 1.0, 0.5]
    assert normalize_scores([2.0, 4.0, 6.0]).tolist() == [0.0, 0.5, 1.0]


def test_normalize_constant_vector_maps_to_half():
    assert normalize_scores([3.0, 3.0, 3.0]).tolist() == [0.5, 0.5, 0.5]


def test_normalize_spread_past_the_largest_float():
    # max - min overflows; the row normalizes as its halves do, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert normalize_scores([1e308, -1e308, 0.0]).tolist() == [1.0, 0.0, 0.5]


def test_normalize_rejects_non_finite_with_index():
    with pytest.raises(ValidationError, match="index 1"):
        normalize_scores([0.2, float("nan"), 0.4])
    with pytest.raises(ValidationError, match="index 2"):
        normalize_scores([0.2, 0.4, float("inf")])


def test_normalize_rejects_empty():
    with pytest.raises(ValidationError):
        normalize_scores([])


def test_normalize_bounds_and_extremes_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        raw = rng.normal(size=rng.integers(3, 20)) * rng.uniform(0.1, 50)
        out = normalize_scores(raw)
        assert out.min() == 0.0
        assert out.max() == 1.0
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.array_equal(out, _naive.normalize(list(raw)))


def test_rank_highest_score_gets_rank_one():
    assert rank_from_scores([0.9, 0.1, 0.4]).tolist() == [1.0, 3.0, 2.0]


def test_rank_fractional_ties_share_average_position():
    assert rank_from_scores([0.5, 0.5, 0.2]).tolist() == [1.5, 1.5, 3.0]


def test_rank_ordinal_ties_go_to_lower_index():
    assert rank_from_scores([0.5, 0.5, 0.2], "ordinal").tolist() == [1.0, 2.0, 3.0]
    assert rank_from_scores([0.2, 0.5, 0.5], "ordinal").tolist() == [3.0, 1.0, 2.0]


def test_rank_unknown_policy():
    with pytest.raises(ValidationError, match="tie policy"):
        rank_from_scores([1.0, 2.0, 3.0], "median")


def test_fractional_ranks_sum_random_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        # integer draws force plenty of ties
        raw = rng.integers(0, 5, size=n).astype(float)
        ranks = rank_from_scores(raw)
        # an identity, not an oracle value: any n ranks sum to n(n+1)/2
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)
        assert ranks.tolist() == _naive.ranks_fractional(list(raw))
        ordinal = rank_from_scores(raw, "ordinal")
        assert sorted(ordinal.tolist()) == list(range(1, n + 1))
        assert ordinal.tolist() == _naive.ranks_ordinal(list(raw))


def test_rank_invariant_under_strictly_increasing_transform():
    rng = np.random.default_rng(13)
    for transform in (np.exp, np.tanh, lambda x: x**3, lambda x: 5 * x + 2):
        raw = rng.normal(size=12)
        assert np.array_equal(
            rank_from_scores(raw), rank_from_scores(transform(raw))
        )


def test_rsc_curve_orders_scores_by_rank():
    curve = rsc_curve([0.2, 1.0, 0.5])
    assert isinstance(curve, np.ndarray)
    assert curve.tolist() == [1.0, 0.5, 0.2]
    # equal scores keep label order, as sorted(reverse=True) keeps them, so
    # a -0.0 (a raw -0.0 under a minimum of 0.0) and a 0.0 never swap
    for norm, signs in (([-0.0, 0.0, 1.0, 0.5], [False, False, True, False]),
                        ([0.0, -0.0, 1.0, 0.5], [False, False, False, True])):
        assert np.signbit(_naive.rsc(norm)).tolist() == signs
        assert np.signbit(rsc_curve(norm)).tolist() == signs


def test_rsc_curve_is_non_increasing_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        raw = rng.integers(0, 6, size=(int(rng.integers(1, 4)), int(rng.integers(3, 15))))
        norm = normalize_scores(raw.astype(float))
        curve = rsc_curve(norm)
        assert np.all(np.diff(curve) <= 0)
        assert curve.tolist() == [_naive.rsc(row) for row in norm.tolist()]


def test_cognitive_diversity_known_value():
    value = cognitive_diversity([1.0, 0.5, 0.0], [0.9, 0.6, 0.3])
    # the literal is sqrt(0.11) rounded to 14 places
    assert value == pytest.approx(0.33166247903554, abs=1e-12)


def test_cognitive_diversity_properties():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(3, 20))
        a = np.sort(rng.uniform(size=n))[::-1]
        b = np.sort(rng.uniform(size=n))[::-1]
        ab = cognitive_diversity(a, b)
        ba = cognitive_diversity(b, a)
        assert ab >= 0.0
        assert abs(ab - ba) <= 1e-15
        assert cognitive_diversity(a, a) == 0.0
        assert ab == _naive.cd(list(a), list(b))


def test_cognitive_diversity_needs_three_labels():
    with pytest.raises(DomainError, match="at least 3"):
        cognitive_diversity([1.0, 0.0], [0.5, 0.5])


def test_cognitive_diversity_length_mismatch():
    with pytest.raises(ValidationError):
        cognitive_diversity([1.0, 0.5, 0.0], [1.0, 0.5])


def test_diversity_strength_row_means():
    cd = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert diversity_strength(cd)[0] == 1.5
    assert diversity_strength(cd)[1] == 2.0
    assert diversity_strength(cd)[2] == 2.5
    assert diversity_strength(cd).tolist() == [1.5, 2.0, 2.5]


def test_diversity_strength_needs_two_systems():
    with pytest.raises(DomainError):
        diversity_strength(np.zeros((1, 1)))


def test_fusion_batch_flags_a_constant_system_degenerate():
    batch = _batch({"A": [2.0, 2.0, 2.0], "B": [1.0, 2.0, 3.0]})
    assert batch.degenerate.tolist() == [[True, False]]
    assert batch.normalized[0, 0].tolist() == [0.5, 0.5, 0.5]


def test_fusion_batch_full_assembly():
    raw_a = [0.2, 0.8, 0.5]
    raw_b = [0.9, 0.1, 0.4]
    batch = _batch({"A": raw_a, "B": raw_b})
    assert batch.system_ids == ("A", "B")
    assert batch.normalized[0, 0].tolist() == _naive.normalize(raw_a)
    assert batch.ranks[0, 1].tolist() == [1.0, 3.0, 2.0]
    assert batch.cd is not None
    assert batch.cd[0, 0, 1] == _naive.cd(
        _naive.rsc(_naive.normalize(raw_a)), _naive.rsc(_naive.normalize(raw_b))
    )
    assert not batch.degenerate.any()


def test_fusion_batch_rejects_duplicate_system():
    with pytest.raises(ValidationError, match="^duplicate system id 'A'$"):
        FusionBatch(("d1",), LABELS3, ("A", "A"), [[[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]])


def test_fusion_batch_requires_distinct_string_doc_ids():
    raw = [[[0.1, 0.2, 0.3]]] * 2
    # ints would be written to fused.csv in numeric, not text, order
    with pytest.raises(ValidationError, match="doc ids must be strings"):
        FusionBatch((2, 10), LABELS3, ("A",), raw)
    with pytest.raises(ValidationError, match="^duplicate doc id 'd1'$"):
        FusionBatch(("d1", "d1"), LABELS3, ("A",), raw)
    assert FusionBatch(("", "d1"), LABELS3, ("A",), raw).doc_ids == ("", "d1")


def test_fusion_batch_rejects_wrong_shape():
    with pytest.raises(ValidationError, match=r"shape \(1, 1, 2\), expected \(1, 1, 3\)"):
        _batch({"A": [0.1, 0.2]})


def test_fusion_batch_requires_a_system():
    with pytest.raises(ValidationError, match="at least one scoring system"):
        _batch({})


def test_single_system_batch_has_no_diversity():
    batch = _batch({"A": [0.1, 0.2, 0.3]})
    assert batch.cd is None
    assert batch.ds is None
    assert batch.t == 1


def test_label_permutation_equivariance():
    rng = np.random.default_rng(23)
    labels = tuple(f"L{i}" for i in range(8))
    for _ in range(50):
        raw = {s: rng.uniform(size=8).tolist() for s in ("A", "B", "C")}
        batch = _batch(raw, LabelSet(labels), "d")
        perm = rng.permutation(8)
        permuted_labels = tuple(labels[i] for i in perm)
        permuted_raw = {s: [raw[s][i] for i in perm] for s in raw}
        batch_p = _batch(permuted_raw, LabelSet(permuted_labels), "d")
        assert batch.normalized[..., perm].tolist() == batch_p.normalized.tolist()
        assert batch.ranks[..., perm].tolist() == batch_p.ranks.tolist()
        # label permutation: the RSC curves sort the same values, so cd and
        # ds match to the bit
        assert np.array_equal(batch.cd, batch_p.cd)
        assert np.array_equal(batch.ds, batch_p.ds)


def test_subset_strength_recomputes_within_subset():
    rng = np.random.default_rng(29)
    labels = LabelSet(tuple(f"L{i}" for i in range(6)))
    raw = {s: rng.uniform(size=6).tolist() for s in ("A", "B", "C", "D")}
    batch = _batch(raw, labels, "d")
    # A, C and D sit at positions 0, 2 and 3 of the system axis
    strengths = diversity_strength(batch.cd[0][[0, 2, 3]][:, [0, 2, 3]])
    curves = {
        s: _naive.rsc(_naive.normalize(raw[s])) for s in ("A", "C", "D")
    }
    ordered = [curves[s] for s in ("A", "C", "D")]
    for j in range(3):
        assert strengths[j] == _naive.ds(ordered, j)


def test_subset_strength_rejects_a_single_system():
    labels = LabelSet(("x", "y", "z"))
    batch = _batch({"A": [1, 2, 3], "B": [3, 2, 1]}, labels, "d")
    with pytest.raises(DomainError):
        diversity_strength(batch.cd[0][:1, :1])


def test_batch_cd_is_symmetric_and_ds_is_the_pair_value():
    labels = LabelSet(("x", "y", "z"))
    batch = _batch({"A": [1, 2, 3], "B": [3, 2, 1]}, labels, "d")
    a, b = batch.system_ids.index("A"), batch.system_ids.index("B")
    assert batch.cd[0, a, b] == batch.cd[0, b, a]
    assert batch.ds[0, a] == batch.cd[0, a, b]
