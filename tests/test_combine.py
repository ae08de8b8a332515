"""Tests for the combination strategies and the grid of combined models."""

from __future__ import annotations

import math

import numpy as np
import pytest

import _naive
from cfakit import (
    DomainError,
    FusionBatch,
    LabelSet,
    ValidationError,
    enumerate_combinations,
    grid_arrays,
)

LABELS3 = LabelSet(("L1", "L2", "L3"))
LABELS4 = LabelSet(("L1", "L2", "L3", "L4"))


def _batch(raw, labels=LABELS3, doc_id="d1"):
    """A one-document batch from {system_id: scores}."""
    return FusionBatch((doc_id,), labels, tuple(raw), [list(raw.values())])


def _random_batch(rng, n=17, system_ids=("A", "B", "C", "D", "E")):
    labels = LabelSet(tuple(f"L{i:02d}" for i in range(n)))
    raw = {s: rng.uniform(size=n).tolist() for s in system_ids}
    return _batch(raw, labels, "d"), raw


def _grid(batch, performance=None, strategies=("asc", "arc", "wsc", "wrc")):
    """combo_id -> (values, order, tied, fallback), the weighted models
    weighted by performance when it is given, else by diversity strength."""
    source = "ds" if performance is None else "perf"
    return dict(grid_arrays(batch, strategies, weight_source=source, performance=performance))


def test_enumerate_five_systems_gives_26_subsets():
    subsets = enumerate_combinations(["A", "B", "C", "D", "E"])
    assert len(subsets) == 26
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)
    assert subsets[0] == ("A", "B")
    assert subsets[-1] == ("A", "B", "C", "D", "E")
    assert len(set(subsets)) == 26


def test_enumerate_two_systems_single_subset():
    assert enumerate_combinations(["B", "A"]) == [("A", "B")]


def test_enumerate_min_size_bounds():
    with pytest.raises(ValidationError, match="minimum subset size is 2"):
        enumerate_combinations(["A", "B", "C"], min_size=1)
    with pytest.raises(ValidationError, match="exceeds"):
        enumerate_combinations(["A", "B"], min_size=3)
    with pytest.raises(DomainError):
        enumerate_combinations(["A"])


def test_combined_model_canonical_id():
    # the subset's ids are sorted whatever the roster order; wsc and wrc
    # carry their weight source in the tag
    batch = _batch({"C": [0.1, 0.2, 0.3], "B": [0.3, 0.1, 0.2], "A": [0.2, 0.3, 0.1]})
    perf = {"A": 0.5, "B": 0.25, "C": 0.75}
    assert list(_grid(batch, perf, ("arc", "wsc"))) == [
        "A+B+C:arc", "A+B+C:wsc-perf", "A+B:arc", "A+B:wsc-perf",
        "A+C:arc", "A+C:wsc-perf", "B+C:arc", "B+C:wsc-perf",
    ]
    assert list(_grid(batch, strategies=("wrc",)))[0] == "A+B+C:wrc-ds"


def test_average_score_combination_with_tie_at_top():
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4]})
    values, order, tied, fallback = _grid(batch)["A+B:asc"]
    # normalized A = (0, 1, 1/2), normalized B = (1, 0, 3/8); means tie at 0.5
    assert values[0].tolist() == pytest.approx([0.5, 0.5, 0.4375])
    assert order[0].tolist() == [0, 1, 2]  # L1 > L2 > L3, top1 L1
    assert tied[0] == 2  # L1 and L2 tie at the top
    assert not fallback[0]


def test_average_rank_combination_all_tied_breaks_by_label_order():
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4]})
    values, order, tied, _ = _grid(batch)["A+B:arc"]
    assert values[0].tolist() == [2.0, 2.0, 2.0]
    assert order[0].tolist() == [0, 1, 2]
    assert tied[0] == 3


def test_weighted_score_combination_known_arithmetic():
    # middle labels reproduce (1*0.2 + 3*0.6)/4 and (1*0.8 + 3*0.4)/4
    batch = _batch({"A": [0.0, 0.2, 0.8, 1.0], "B": [0.0, 0.6, 0.4, 1.0]}, LABELS4)
    values, _, _, fallback = _grid(batch, {"A": 1.0, "B": 3.0})["A+B:wsc-perf"]
    assert values[0].tolist() == pytest.approx([0.0, 0.5, 0.5, 1.0])
    assert not fallback[0]


def test_weighted_rank_combination_known_arithmetic():
    # ranks A = (1, 2, 3), B = (2, 1, 3); weights (2, 4)
    batch = _batch({"A": [3.0, 2.0, 1.0], "B": [2.0, 3.0, 1.0]})
    values, order, tied, _ = _grid(batch, {"A": 2.0, "B": 4.0})["A+B:wrc-perf"]
    assert values[0].tolist() == pytest.approx([4 / 3, 5 / 3, 3.0])
    assert order[0, 0] == 0  # L1
    assert tied[0] == 1


def test_weighted_score_fallback_on_vanishing_weights():
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4]})
    grid = _grid(batch, {"A": 0.0, "B": 0.0})
    values, order, _, fallback = grid["A+B:wsc-perf"]
    plain, plain_order, _, _ = grid["A+B:asc"]
    assert fallback[0]
    assert values.tolist() == plain.tolist()
    assert order.tolist() == plain_order.tolist()


def test_weighted_rank_fallback_on_any_vanishing_weight():
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4]})
    grid = _grid(batch, {"A": 0.0, "B": 2.0})
    values, _, _, fallback = grid["A+B:wrc-perf"]
    assert fallback[0]
    assert values.tolist() == grid["A+B:arc"][0].tolist()


def test_identical_systems_have_zero_diversity_and_fall_back():
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.2, 0.8, 0.5]})
    assert batch.cd[0, 0, 1] == 0.0
    grid = _grid(batch)
    for combo_id in ("A+B:wsc-ds", "A+B:wrc-ds"):
        values, _, _, fallback = grid[combo_id]
        assert fallback[0]
        assert np.isfinite(values).all()


def test_weighted_score_rejects_negative_weights():
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4]})
    with pytest.raises(ValidationError, match="non-negative"):
        grid_arrays(batch, ("wsc",), weight_source="perf", performance={"A": -1.0, "B": 2.0})


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf],
                         ids=["negative", "tiny-negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("strategy", ["wsc", "wrc"])
def test_performance_weights_must_be_finite_and_non_negative(bad, strategy):
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4], "C": [0.1, 0.3, 0.2]})
    performance = {"A": 0.5, "B": bad, "C": 0.25}
    # raised by the call itself, before any model is made
    with pytest.raises(ValidationError, match="performance weights must be finite and non-negative"):
        grid_arrays(batch, ("asc", strategy), weight_source="perf", performance=performance)
    # unweighted strategies never read the performance weights
    grid = grid_arrays(batch, ("asc", "arc"), weight_source="perf", performance=performance)
    assert len(list(grid)) == 8


def test_weight_count_must_match_subset():
    # every system of the grid needs a weight, named in the message
    batch = _batch({"A": [0.2, 0.8, 0.5], "B": [0.9, 0.1, 0.4]})
    with pytest.raises(ValidationError, match=r"missing performance weights for systems \['B'\]"):
        grid_arrays(batch, ("wsc",), weight_source="perf", performance={"A": 1.0})


def test_unknown_subset_system():
    batch = _batch({"A": [0.2, 0.8, 0.5]})
    with pytest.raises(ValidationError, match="unknown system"):
        batch.subset_index(("A", "Z"))


def test_equal_weights_reduce_to_plain_averages():
    rng = np.random.default_rng(31)
    labels = LabelSet(tuple(f"L{i:02d}" for i in range(9)))
    batch = FusionBatch([f"d{i}" for i in range(30)], labels, ("A", "B", "C"),
                        rng.uniform(size=(30, 3, 9)))
    for weight in (1.0, 0.7, 3.5):
        grid = _grid(batch, {"A": weight, "B": weight, "C": weight})
        for weighted, plain in (("wsc-perf", "asc"), ("wrc-perf", "arc")):
            values, order, _, _ = grid[f"A+B+C:{weighted}"]
            plain_values, plain_order, _, _ = grid[f"A+B+C:{plain}"]
            assert np.allclose(values, plain_values, atol=1e-12)
            if weight == 1.0:
                # unit weights are arithmetic identities, so even exact
                # ties resolve the same way
                assert order.tolist() == plain_order.tolist()


def test_rank_combination_invariant_under_increasing_transforms():
    rng = np.random.default_rng(37)
    labels = LabelSet(tuple(f"L{i}" for i in range(11)))
    for transform in (np.exp, np.tanh, lambda x: x**3):
        raw = {s: rng.normal(size=11) for s in ("A", "B", "C")}
        base = _grid(_batch(raw, labels), strategies=("arc",))["A+B+C:arc"]
        warped = _grid(_batch({s: transform(v) for s, v in raw.items()}, labels),
                       strategies=("arc",))["A+B+C:arc"]
        assert base[0].tolist() == warped[0].tolist()
        assert base[1].tolist() == warped[1].tolist()


def test_score_combination_invariant_under_positive_affine():
    rng = np.random.default_rng(41)
    labels = LabelSet(tuple(f"L{i}" for i in range(11)))
    raw = {s: rng.normal(size=11) for s in ("A", "B", "C")}
    scales = {"A": (2.5, 1.0), "B": (0.3, -4.0), "C": (10.0, 0.2)}
    base = _grid(_batch(raw, labels), strategies=("asc",))["A+B+C:asc"]
    affine = _grid(_batch({s: a * raw[s] + b for s, (a, b) in scales.items()}, labels),
                   strategies=("asc",))["A+B+C:asc"]
    assert np.allclose(base[0], affine[0], atol=1e-12)
    assert base[1][0, 0] == affine[1][0, 0]  # the same top-1 label


def test_combined_values_match_naive_oracle_for_all_subsets():
    rng = np.random.default_rng(43)
    for _ in range(5):
        batch, raw = _random_batch(rng)
        normalized = {s: _naive.normalize(v) for s, v in raw.items()}
        ranks = {s: _naive.ranks_fractional(v) for s, v in raw.items()}
        curves = {s: _naive.rsc(n) for s, n in normalized.items()}
        labels = list(batch.label_set.labels)
        grid = _grid(batch)
        for subset in enumerate_combinations(sorted(raw)):
            vectors = [normalized[s] for s in subset]
            rank_vectors = [ranks[s] for s in subset]
            subset_curves = [curves[s] for s in subset]
            weights = [_naive.ds(subset_curves, j) for j in range(len(subset))]
            prefix = "+".join(subset) + ":"

            asc, order, _, _ = grid[prefix + "asc"]
            assert np.allclose(asc[0], _naive.asc(vectors), atol=1e-12)
            assert [labels[i] for i in order[0]] == _naive.ranking(asc[0].tolist(), labels, True)

            arc = grid[prefix + "arc"][0]
            assert np.allclose(arc[0], _naive.arc(rank_vectors), atol=1e-12)

            wsc = grid[prefix + "wsc-ds"][0]
            assert np.allclose(wsc[0], _naive.wsc(vectors, weights), atol=1e-12)

            wrc = grid[prefix + "wrc-ds"][0]
            assert np.allclose(wrc[0], _naive.wrc(rank_vectors, weights), atol=1e-12)


def test_grid_arrays_five_systems_104_models():
    rng = np.random.default_rng(47)
    batch, _ = _random_batch(rng)
    grid = _grid(batch)
    assert len(grid) == 104
    assert all(values.shape == (1, 17) for values, _, _, _ in grid.values())
    assert "A+B:asc" in grid
    assert "A+B+C+D+E:wrc-ds" in grid


def test_grid_arrays_two_systems_four_models():
    rng = np.random.default_rng(53)
    batch, _ = _random_batch(rng, system_ids=("A", "B"))
    assert list(_grid(batch)) == ["A+B:arc", "A+B:asc", "A+B:wrc-ds", "A+B:wsc-ds"]


def test_grid_arrays_strategy_subset_and_order():
    rng = np.random.default_rng(59)
    batch, _ = _random_batch(rng, system_ids=("A", "B", "C"))
    grid = _grid(batch, strategies=("arc", "asc"))
    tags = {combo.split(":")[1] for combo in grid}
    assert tags == {"asc", "arc"}
    assert len(grid) == 8
    assert list(grid) == sorted(grid)  # combo-id order, that of fused.csv


def test_grid_arrays_rejects_unknown_strategy():
    rng = np.random.default_rng(61)
    batch, _ = _random_batch(rng, system_ids=("A", "B"))
    with pytest.raises(ValidationError, match="unknown strategies"):
        grid_arrays(batch, strategies=("asc", "median"))


def test_fusion_batch_rejects_inconsistent_rosters():
    # every document scores the same systems: a document with another
    # roster size cannot form the (docs, systems, labels) array
    with pytest.raises(ValidationError, match="rectangular"):
        FusionBatch(("d1", "d2"), LABELS3, ("A", "B"),
                    [[[1, 2, 3], [3, 2, 1]], [[1, 2, 3]]])
    with pytest.raises(ValidationError, match="documents x systems x labels"):
        FusionBatch(("d1", "d2"), LABELS3, ("A", "B"), np.ones((2, 3, 3)))


def test_run_grid_rejects_inconsistent_label_sets():
    with pytest.raises(ValidationError, match="rectangular"):
        FusionBatch(("d1", "d2"), LABELS3, ("A", "B"),
                    [[[1, 2, 3], [3, 2, 1]], [[1, 2, 3, 4], [3, 2, 1, 0]]])
    with pytest.raises(ValidationError, match="documents x systems x labels"):
        FusionBatch(("d1", "d2"), LABELS3, ("A", "B"), np.ones((2, 2, 4)))


def test_grid_arrays_performance_weights():
    rng = np.random.default_rng(67)
    batch, raw = _random_batch(rng, system_ids=("A", "B", "C"))
    performance = {"A": 0.9, "B": 0.6, "C": 0.3}
    grid = _grid(batch, performance)
    assert "A+B:wsc-perf" in grid
    values = grid["A+B+C:wsc-perf"][0]
    normalized = [_naive.normalize(raw[s]) for s in ("A", "B", "C")]
    expected = _naive.wsc(normalized, [0.9, 0.6, 0.3])
    assert np.allclose(values[0], expected, atol=1e-12)


def test_grid_arrays_performance_requires_weights_for_all_systems():
    rng = np.random.default_rng(71)
    batch, _ = _random_batch(rng, system_ids=("A", "B"))
    with pytest.raises(ValidationError, match="missing performance"):
        grid_arrays(batch, weight_source="perf", performance={"A": 0.5})
    with pytest.raises(ValidationError, match="performance weighting requires"):
        grid_arrays(batch, weight_source="perf")


def test_grid_arrays_results_follow_document_order():
    rng = np.random.default_rng(73)
    labels = LabelSet(("x", "y", "z"))
    raw = rng.uniform(size=(4, 2, 3))
    batch = FusionBatch([f"d{i}" for i in (3, 0, 2, 1)], labels, ("A", "B"), raw)
    for combo_id, (values, order, tied, fallback) in grid_arrays(batch):
        assert len(values) == len(order) == len(tied) == len(fallback) == 4
        # row d of every array belongs to document d, whatever its id
        for d in range(4):
            one = FusionBatch((batch.doc_ids[d],), labels, ("A", "B"), raw[d:d + 1])
            alone = _grid(one)[combo_id]
            assert alone[0].tobytes() == values[d:d + 1].tobytes()
            assert alone[1].tolist() == order[d:d + 1].tolist()
