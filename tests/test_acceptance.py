"""Acceptance gate: one test per release criterion.

Each test here is a go/no-go check for the toolkit as a whole; the
conftest hook prints one PASS/FAIL line per criterion at the end of the
run.  Structural counts and formula fixed points are checked exactly,
floating-point agreement with the naive oracle at 1e-12, and basic
algebraic properties at 1e-15.
"""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import _naive
from cfakit import (
    DomainError,
    LabelSet,
    ModelPredictions,
    PromptSpec,
    average_rank_combination,
    average_score_combination,
    build_instance,
    distinct_n,
    enumerate_combinations,
    evaluate_predictions,
    expert_indices,
    generate_prompt_matrix,
    run_grid,
    type_token_ratio,
    weighted_rank_combination,
    weighted_score_combination,
)
from cfakit.cli import main
from cfakit.fileio import write_score_file

LABELS_17 = tuple(f"SDG{i}" for i in range(1, 18))
SYSTEMS_5 = ("sysA", "sysB", "sysC", "sysD", "sysE")


@lru_cache(maxsize=1)
def _random_instances():
    """100 randomized five-system, 17-label instances plus raw scores."""
    rng = np.random.default_rng(4242)
    label_set = LabelSet(LABELS_17)
    out = []
    for i in range(100):
        raw = {s: rng.uniform(size=17).tolist() for s in SYSTEMS_5}
        out.append((build_instance(f"doc{i:03d}", label_set, raw), raw))
    return tuple(out)


def test_five_system_grid_has_26_subsets_and_104_models():
    start = time.perf_counter()
    subsets = enumerate_combinations(SYSTEMS_5)
    assert len(subsets) == 26  # C(5,2)+C(5,3)+C(5,4)+C(5,5) = 10+10+5+1
    by_size = {size: sum(1 for s in subsets if len(s) == size) for size in (2, 3, 4, 5)}
    assert by_size == {2: 10, 3: 10, 4: 5, 5: 1}
    instance, _ = _random_instances()[0]
    grid = run_grid([instance])
    assert len(grid) == 26 * 4 == 104
    assert all(len(results) == 1 for results in grid.values())
    assert time.perf_counter() - start < 1.0


def _naive_full_grid(raw_by_system):
    """Direct transcription of the fusion math over every subset."""
    normalized = {s: _naive.normalize(v) for s, v in raw_by_system.items()}
    ranks = {s: _naive.ranks_fractional(normalized[s]) for s in raw_by_system}
    curves = {s: _naive.rsc(normalized[s]) for s in raw_by_system}
    ids = sorted(raw_by_system)
    higher = {"asc": True, "arc": False, "wsc-ds": True, "wrc-ds": False}
    out = {}
    for size in range(2, len(ids) + 1):
        for subset in itertools.combinations(ids, size):
            subset_curves = [curves[s] for s in subset]
            weights = [_naive.ds(subset_curves, j) for j in range(len(subset))]
            scores = [normalized[s] for s in subset]
            rank_rows = [ranks[s] for s in subset]
            values = {
                "asc": _naive.asc(scores),
                "arc": _naive.arc(rank_rows),
                "wsc-ds": _naive.wsc(scores, weights),
                "wrc-ds": _naive.wrc(rank_rows, weights),
            }
            for tag, vals in values.items():
                order = _naive.ranking(vals, list(LABELS_17), higher[tag])
                out["+".join(subset) + ":" + tag] = (vals, order)
    return out


def test_grid_agrees_with_independent_naive_implementation():
    start = time.perf_counter()
    for instance, raw in _random_instances():
        # pairwise diversity and per-system strength
        profile = instance.diversity
        curves = {s: _naive.rsc(_naive.normalize(raw[s])) for s in raw}
        ids = profile.system_ids
        all_curves = [curves[s] for s in ids]
        for j in range(len(ids)):
            assert profile.ds[j] == pytest.approx(
                _naive.ds(all_curves, j), abs=1e-12
            )
            for k in range(j + 1, len(ids)):
                assert profile.cd[j, k] == pytest.approx(
                    _naive.cd(curves[ids[j]], curves[ids[k]]), abs=1e-12
                )
        # every subset and strategy
        expected = _naive_full_grid(raw)
        grid = run_grid([instance])
        assert set(grid) == set(expected)
        for combo_id, results in grid.items():
            fused = results[0]
            vals, order = expected[combo_id]
            np.testing.assert_allclose(fused.combined_values, vals, atol=1e-12, rtol=0)
            assert list(fused.ranking) == order
            assert fused.top1 == order[0]
    assert time.perf_counter() - start < 10.0


def test_weighted_reductions_and_scale_invariances():
    label_set = LabelSet(LABELS_17)
    subsets = enumerate_combinations(SYSTEMS_5)
    increasing = [np.exp, np.tanh, lambda x: x**3, np.sqrt, lambda x: 5 * x + 1]
    rng = np.random.default_rng(977)
    for instance, raw in _random_instances():
        for subset in subsets:
            ones = [1.0] * len(subset)
            wsc = weighted_score_combination(instance, subset, ones)
            asc = average_score_combination(instance, subset)
            np.testing.assert_allclose(
                wsc.combined_values, asc.combined_values, atol=1e-12, rtol=0
            )
            wrc = weighted_rank_combination(instance, subset, ones)
            arc = average_rank_combination(instance, subset)
            np.testing.assert_allclose(
                wrc.combined_values, arc.combined_values, atol=1e-12, rtol=0
            )

        # rank averages see only score order, so any strictly increasing
        # per-system transform leaves them bit-identical
        warped = build_instance(
            instance.doc_id,
            label_set,
            {
                s: increasing[i % len(increasing)](np.asarray(raw[s])).tolist()
                for i, s in enumerate(sorted(raw))
            },
        )
        # positive affine transforms cancel in min-max normalization,
        # so score averages keep their values and argmax
        affine = build_instance(
            instance.doc_id,
            label_set,
            {
                s: (float(rng.uniform(0.5, 3.0)) * np.asarray(raw[s])
                    + float(rng.uniform(-2.0, 2.0))).tolist()
                for s in raw
            },
        )
        for subset in (SYSTEMS_5, SYSTEMS_5[:2], SYSTEMS_5[1:4]):
            base_arc = average_rank_combination(instance, subset)
            warped_arc = average_rank_combination(warped, subset)
            assert np.array_equal(base_arc.combined_values, warped_arc.combined_values)
            assert warped_arc.ranking == base_arc.ranking

            base_asc = average_score_combination(instance, subset)
            affine_asc = average_score_combination(affine, subset)
            np.testing.assert_allclose(
                affine_asc.combined_values, base_asc.combined_values, atol=1e-12, rtol=0
            )
            assert affine_asc.top1 == base_asc.top1


def test_diversity_and_rank_structure_properties():
    n = len(LABELS_17)
    expected_rank_sum = n * (n + 1) / 2
    for instance, _ in _random_instances():
        cd = instance.diversity.cd
        assert np.all(np.abs(cd - cd.T) <= 1e-15)
        assert np.all(np.abs(np.diag(cd)) <= 1e-15)
        assert np.all(cd >= 0.0)
        for curve in instance.curves:
            assert np.all(np.diff(curve.values) <= 0.0)  # non-increasing
        for system in instance.systems:
            assert float(system.ranks.sum()) == expected_rank_sum


def _report(labels, experts, individual, combined):
    """The report on the documents in the experts' order, each model given
    as its untied top-1 label per document."""
    doc_ids = list(experts)

    def arrays(models):
        top1 = np.array([[labels.index(label) for label in row] for row in models.values()],
                        dtype=np.intp)
        return ModelPredictions(tuple(models), labels.labels, top1,
                                np.eye(labels.n, dtype=bool)[top1])

    return evaluate_predictions(doc_ids, labels, expert_indices(experts, labels, doc_ids),
                                arrays(individual), arrays(combined))


def test_report_arithmetic_on_constructed_fixtures():
    labels = LabelSet(LABELS_17)

    # 296 of 306 correct
    experts = {f"d{i:03d}": "SDG1" for i in range(306)}
    predictions = {"m": ["SDG1" if i < 296 else "SDG2" for i in range(306)]}
    overall = _report(labels, experts, predictions, predictions).individual_overall["m"]
    assert overall.fraction == Fraction(296, 306)
    assert overall.value == pytest.approx(0.967320, abs=1e-6)

    # a label group of 16 documents with 15 correct
    group_experts = {f"g{i:02d}": "SDG4" for i in range(16)}
    group_predictions = {"m": ["SDG4" if i < 15 else "SDG5" for i in range(16)]}
    report = _report(labels, group_experts, group_predictions, group_predictions)
    table = report.individual_per_label["m"]
    assert table["SDG4"].value == 0.9375  # exact: 15/16 is a dyadic rational
    assert table["SDG4"].correct == 15
    assert table["SDG4"].total == 16

    # grid with 49 of 104 combined models at or above the best individual
    grid_experts = {}
    for i, label in enumerate(labels.labels):
        grid_experts[f"e{2 * i:03d}"] = label
        grid_experts[f"e{2 * i + 1:03d}"] = label
    correct_all = list(grid_experts.values())
    wrong_all = ["SDG1" if lab != "SDG1" else "SDG2" for lab in grid_experts.values()]
    mostly_wrong = [grid_experts["e000"], *wrong_all[1:]]
    combined = {}
    for i in range(104):
        combined[f"m{i:03d}"] = correct_all if i < 49 else wrong_all
    stats = _report(labels, grid_experts, {"base": mostly_wrong}, combined).grid_stats
    ratio = stats.models_ge_best_individual
    assert (ratio.numerator, ratio.denominator) == (49, 104)
    assert f"{100.0 * ratio.value:.2f}" == "47.12"
    assert stats.cells_ge_best_individual.denominator == 104 * 17 == 1768


def test_disagreement_fixture_is_categorized_exactly():
    fixture = [
        # fusion fixes the individual system's mistake
        ("a1", "SDG4", "SDG12", "SDG4"),
        ("a2", "SDG4", "SDG12", "SDG4"),
        ("a3", "SDG4", "SDG12", "SDG4"),
        # fusion breaks the individual system's correct call
        ("b1", "SDG5", "SDG5", "SDG1"),
        ("b2", "SDG5", "SDG5", "SDG1"),
        ("b3", "SDG5", "SDG5", "SDG1"),
        # both settle on the same label and the expert disagrees
        ("c1", "SDG1", "SDG11", "SDG11"),
        ("c2", "SDG1", "SDG11", "SDG11"),
        ("c3", "SDG1", "SDG11", "SDG11"),
    ]
    experts = {d: e for d, e, _, _ in fixture}
    individual = {"ind": [i for _, _, i, _ in fixture]}
    combined = {"comb": [c for _, _, _, c in fixture]}
    tables = _report(LabelSet(LABELS_17), experts, individual, combined).disagreements
    assert [r.doc_id for r in tables.fusion_agrees_with_expert] == ["a1", "a2", "a3"]
    assert [r.doc_id for r in tables.fusion_disagrees_with_both] == ["b1", "b2", "b3"]
    assert [r.doc_id for r in tables.both_disagree_with_expert] == ["c1", "c2", "c3"]
    for row in tables.fusion_agrees_with_expert:
        assert (row.expert, row.individual, row.combined) == ("SDG4", "SDG12", "SDG4")
    for row in tables.fusion_disagrees_with_both:
        assert (row.expert, row.individual, row.combined) == ("SDG5", "SDG5", "SDG1")
    for row in tables.both_disagree_with_expert:
        assert (row.expert, row.individual, row.combined) == ("SDG1", "SDG11", "SDG11")


def test_lexical_metrics_fixed_points_and_random_oracle():
    assert type_token_ratio("the cat the dog") == 0.75
    assert distinct_n("a b a b", 2) == 2.0 / 3.0  # bit-exact same division
    rng = np.random.default_rng(311)
    alphabet = ["uno", "dos", "tres", "cuatro"]
    for _ in range(50):
        words = [alphabet[int(i)] for i in rng.integers(0, 4, size=int(rng.integers(1, 25)))]
        text = " ".join(words)
        for n in (1, 2, 3, 4):
            assert distinct_n(text, n) == _naive.distinct_n(words, n)


def test_prompt_matrix_cardinality_is_exact():
    specs = [
        PromptSpec("academic article", "An article on {label} by {source}",
                   tuple(f"author{i:03d}" for i in range(300))),
        PromptSpec("news story", "A news story on {label} from {source}",
                   tuple(f"outlet{i:03d}" for i in range(237))),
    ]
    prompts = generate_prompt_matrix(specs, LabelSet(LABELS_17))
    assert len(prompts) == 537 * 17 == 9129
    assert len({p.prompt_id for p in prompts}) == 9129

    rng = np.random.default_rng(59)
    for _ in range(5):
        counts = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
        labels = tuple(f"T{i}" for i in range(int(rng.integers(3, 9))))
        random_specs = [
            PromptSpec(f"kind{j}", "{label} by {source}",
                       tuple(f"s{j}_{i}" for i in range(count)))
            for j, count in enumerate(counts)
        ]
        matrix = generate_prompt_matrix(random_specs, labels)
        assert len(matrix) == sum(counts) * len(labels)


def test_degenerate_inputs_fail_softly_and_never_nan(tmp_path):
    label_set = LabelSet(("L1", "L2", "L3", "L4"))

    # one constant system among normal ones
    mixed = build_instance(
        "d1",
        label_set,
        {"flat": [2.0, 2.0, 2.0, 2.0], "a": [0.1, 0.9, 0.4, 0.2], "b": [0.5, 0.2, 0.8, 0.1]},
    )
    flat = next(s for s in mixed.systems if s.system_id == "flat")
    assert flat.degenerate
    assert np.all(flat.normalized == 0.5)
    for results in run_grid([mixed]).values():
        assert np.isfinite(results[0].combined_values).all()

    # identical systems: zero diversity strength forces the fallback
    twin = build_instance(
        "d2", label_set, {"x": [0.3, 0.8, 0.1, 0.5], "y": [0.3, 0.8, 0.1, 0.5]}
    )
    wsc = weighted_score_combination(twin, ("x", "y"))
    wrc = weighted_rank_combination(twin, ("x", "y"))
    assert wsc.weight_fallback and wrc.weight_fallback
    assert np.isfinite(wsc.combined_values).all()
    assert np.isfinite(wrc.combined_values).all()
    np.testing.assert_array_equal(
        wsc.combined_values, average_score_combination(twin, ("x", "y")).combined_values
    )
    np.testing.assert_array_equal(
        wrc.combined_values, average_rank_combination(twin, ("x", "y")).combined_values
    )

    # all systems constant: everything ties, values stay finite
    all_flat = build_instance(
        "d3", label_set, {"p": [1.0, 1.0, 1.0, 1.0], "q": [7.0, 7.0, 7.0, 7.0]}
    )
    for results in run_grid([all_flat]).values():
        fused = results[0]
        assert np.isfinite(fused.combined_values).all()
        assert fused.tie_at_top
        assert fused.top1 == "L1"

    # two labels: a domain error in the library and exit code 3 in the CLI
    with pytest.raises(DomainError):
        LabelSet(("A", "B"))
    (tmp_path / "s.csv").write_text("doc_id,label,score\nd1,A,1.0\nd1,B,2.0\n")
    (tmp_path / "two.json").write_text(json.dumps({
        "labels": ["A", "B"],
        "systems": [{"id": "s", "path": "s.csv"}],
        "out_dir": ".",
    }))
    assert main(["fuse", "--config", str(tmp_path / "two.json")]) == 3


def test_full_pipeline_is_fast_and_rerun_identical(tmp_path):
    rng = np.random.default_rng(20240817)
    labels = list(LABELS_17)
    docs = [f"doc{i:03d}" for i in range(306)]
    for system in SYSTEMS_5:
        scores = {
            doc_id: {label: float(v) for label, v in zip(labels, rng.uniform(size=17))}
            for doc_id in docs
        }
        write_score_file(tmp_path / f"{system}.csv", scores, LabelSet(LABELS_17))
    # round-robin start guarantees every label group is populated
    expert_rows = [
        (doc_id, labels[i % 17] if i < 34 else labels[int(rng.integers(0, 17))])
        for i, doc_id in enumerate(docs)
    ]
    (tmp_path / "expert.csv").write_text(
        "doc_id,label\n" + "".join(f"{d},{lab}\n" for d, lab in expert_rows)
    )
    (tmp_path / "config.json").write_text(json.dumps({
        "labels": labels,
        "systems": [{"id": s, "path": f"{s}.csv"} for s in SYSTEMS_5],
        "expert_labels": "expert.csv",
        "out_dir": "out",
    }))
    config = str(tmp_path / "config.json")

    start = time.perf_counter()
    assert main(["fuse", "--config", config]) == 0
    assert main(["evaluate", "--config", config]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"

    out = tmp_path / "out"
    fused_lines = (out / "fused.csv").read_text().splitlines()
    assert len(fused_lines) == 1 + 104 * 306
    report = json.loads((out / "report.json").read_text())
    assert len(report["combined"]) == 104
    assert report["grid_statistics"]["cells_ge_best_individual"]["denominator"] == 1768

    outputs = [
        "fused.csv", "report.json", "overall_precision.csv",
        "per_label_precision.csv", "grid_stats.csv", "disagreements.csv",
        "strategy_precision.csv",
    ]
    first = {name: (out / name).read_bytes() for name in outputs}
    assert main(["fuse", "--config", config]) == 0
    assert main(["evaluate", "--config", config]) == 0
    for name in outputs:
        assert (out / name).read_bytes() == first[name], f"{name} changed on rerun"
