"""Tests for normalization, ranking, RSC curves, and diversity."""

from __future__ import annotations

import numpy as np
import pytest

import _naive
from cfakit import (
    DiversityProfile,
    DomainError,
    LabelSet,
    RscCurve,
    ValidationError,
    build_instance,
    cognitive_diversity,
    diversity_strength,
    normalize_scores,
    rank_from_scores,
    rsc_curve,
)

LABELS3 = LabelSet(("L1", "L2", "L3"))


def test_label_set_rejects_duplicates():
    with pytest.raises(ValidationError, match="duplicate label"):
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
        assert np.allclose(out, _naive.normalize(list(raw)), atol=1e-15)


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
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)
        assert ranks.tolist() == pytest.approx(_naive.ranks_fractional(list(raw)))
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
    curve = rsc_curve([0.2, 1.0, 0.5], [3.0, 1.0, 2.0])
    assert curve.values.tolist() == [1.0, 0.5, 0.2]


def test_rsc_curve_is_non_increasing_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        raw = rng.integers(0, 6, size=int(rng.integers(3, 15))).astype(float)
        norm = normalize_scores(raw)
        curve = rsc_curve(norm, rank_from_scores(raw))
        assert np.all(np.diff(curve.values) <= 0)
        assert curve.values.tolist() == pytest.approx(_naive.rsc(list(norm)))


def test_rsc_curve_length_mismatch():
    with pytest.raises(ValidationError, match="differ in length"):
        rsc_curve([0.2, 1.0, 0.5], [1.0, 2.0])


def test_rsc_curve_type_rejects_increasing_values():
    with pytest.raises(ValidationError, match="non-increasing"):
        RscCurve(np.array([0.1, 0.9, 0.5]))


def test_cognitive_diversity_known_value():
    value = cognitive_diversity([1.0, 0.5, 0.0], [0.9, 0.6, 0.3])
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
        assert ab == pytest.approx(_naive.cd(list(a), list(b)), abs=1e-12)


def test_cognitive_diversity_needs_three_labels():
    with pytest.raises(DomainError, match="at least 3"):
        cognitive_diversity([1.0, 0.0], [0.5, 0.5])


def test_cognitive_diversity_length_mismatch():
    with pytest.raises(ValidationError):
        cognitive_diversity([1.0, 0.5, 0.0], [1.0, 0.5])


def test_diversity_strength_row_means():
    cd = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert diversity_strength(cd)[0] == pytest.approx(1.5)
    assert diversity_strength(cd)[1] == pytest.approx(2.0)
    assert diversity_strength(cd)[2] == pytest.approx(2.5)
    assert diversity_strength(cd).tolist() == pytest.approx([1.5, 2.0, 2.5])


def test_diversity_strength_needs_two_systems():
    with pytest.raises(DomainError):
        diversity_strength(np.zeros((1, 1)))


def test_system_scores_degenerate_flag():
    scores = build_instance("d", LABELS3, {"A": [2.0, 2.0, 2.0]}).systems[0]
    assert scores.degenerate
    assert scores.normalized.tolist() == [0.5, 0.5, 0.5]
    assert not build_instance("d", LABELS3, {"A": [1.0, 2.0, 3.0]}).systems[0].degenerate


def test_build_instance_full_assembly():
    raw_a = [0.2, 0.8, 0.5]
    raw_b = [0.9, 0.1, 0.4]
    inst = build_instance("d1", LABELS3, {"A": raw_a, "B": raw_b})
    assert inst.system_ids == ("A", "B")
    assert inst.systems[0].normalized.tolist() == _naive.normalize(raw_a)
    assert inst.systems[1].ranks.tolist() == [1.0, 3.0, 2.0]
    assert inst.diversity is not None
    assert inst.diversity.cd[0, 1] == pytest.approx(
        _naive.cd(_naive.rsc(_naive.normalize(raw_a)), _naive.rsc(_naive.normalize(raw_b))),
        abs=1e-12,
    )
    assert inst.degenerate_systems == ()


def test_build_instance_accepts_label_maps():
    inst = build_instance(
        "d1",
        LABELS3,
        {"A": {"L3": 0.5, "L1": 0.2, "L2": 0.8}},
    )
    assert inst.systems[0].raw.tolist() == [0.2, 0.8, 0.5]
    assert inst.diversity is None


def test_build_instance_missing_label_names_system_and_label():
    with pytest.raises(ValidationError, match=r"'A'.*'L3'"):
        build_instance("d1", LABELS3, {"A": {"L1": 0.2, "L2": 0.8}})


def test_build_instance_rejects_unknown_label():
    with pytest.raises(ValidationError, match="unknown label"):
        build_instance("d1", LABELS3, {"A": {"L1": 0.2, "L2": 0.8, "L3": 0.1, "L9": 0.4}})


def test_build_instance_rejects_duplicate_system():
    with pytest.raises(ValidationError, match="duplicate system"):
        build_instance(
            "d1", LABELS3, [("A", [0.1, 0.2, 0.3]), ("A", [0.3, 0.2, 0.1])]
        )


def test_build_instance_rejects_wrong_length():
    with pytest.raises(ValidationError, match="supplied 2 scores for 3 labels"):
        build_instance("d1", LABELS3, {"A": [0.1, 0.2]})


def test_build_instance_requires_a_system():
    with pytest.raises(ValidationError):
        build_instance("d1", LABELS3, {})


def test_single_system_instance_has_no_diversity():
    inst = build_instance("d1", LABELS3, {"A": [0.1, 0.2, 0.3]})
    assert inst.diversity is None
    assert inst.t == 1


def test_label_permutation_equivariance():
    rng = np.random.default_rng(23)
    labels = tuple(f"L{i}" for i in range(8))
    for _ in range(50):
        raw = {s: rng.uniform(size=8).tolist() for s in ("A", "B", "C")}
        inst = build_instance("d", LabelSet(labels), raw)
        perm = rng.permutation(8)
        permuted_labels = tuple(labels[i] for i in perm)
        permuted_raw = {s: [raw[s][i] for i in perm] for s in raw}
        inst_p = build_instance("d", LabelSet(permuted_labels), permuted_raw)
        for s, s_p in zip(inst.systems, inst_p.systems):
            assert s.normalized[perm].tolist() == s_p.normalized.tolist()
            assert s.ranks[perm].tolist() == s_p.ranks.tolist()
        assert np.allclose(inst.diversity.cd, inst_p.diversity.cd, atol=1e-15)
        assert np.allclose(inst.diversity.ds, inst_p.diversity.ds, atol=1e-15)


def test_subset_strength_recomputes_within_subset():
    rng = np.random.default_rng(29)
    labels = LabelSet(tuple(f"L{i}" for i in range(6)))
    raw = {s: rng.uniform(size=6).tolist() for s in ("A", "B", "C", "D")}
    inst = build_instance("d", labels, raw)
    profile = inst.diversity
    strengths = diversity_strength(profile.cd, inst.subset_index(("A", "C", "D")))
    curves = {
        s: _naive.rsc(_naive.normalize(raw[s])) for s in ("A", "C", "D")
    }
    ordered = [curves[s] for s in ("A", "C", "D")]
    for j in range(3):
        assert strengths[j] == pytest.approx(_naive.ds(ordered, j), abs=1e-12)


def test_subset_strength_rejects_unknown_and_small():
    labels = LabelSet(("x", "y", "z"))
    inst = build_instance("d", labels, {"A": [1, 2, 3], "B": [3, 2, 1]})
    with pytest.raises(ValidationError, match="unknown system"):
        diversity_strength(inst.diversity.cd, inst.subset_index(("A", "Q")))
    with pytest.raises(DomainError):
        diversity_strength(inst.diversity.cd, inst.subset_index(("A",)))


def test_diversity_profile_pair_lookup():
    labels = LabelSet(("x", "y", "z"))
    inst = build_instance("d", labels, {"A": [1, 2, 3], "B": [3, 2, 1]})
    profile = inst.diversity
    assert profile.pair("A", "B") == profile.pair("B", "A")
    assert profile.strength("A") == pytest.approx(profile.pair("A", "B"))
