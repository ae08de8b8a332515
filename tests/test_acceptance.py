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
    Document,
    DomainError,
    FusionBatch,
    LabelSet,
    ModelPredictions,
    PromptSpec,
    distinct_n,
    enumerate_combinations,
    evaluate_predictions,
    expert_indices,
    generate_prompt_matrix,
    grid_arrays,
    type_token_ratio,
)
from cfakit.cli import main
from cfakit.fileio import write_score_file

LABELS_17 = tuple(f"SDG{i}" for i in range(1, 18))
SYSTEMS_5 = ("sysA", "sysB", "sysC", "sysD", "sysE")


def _one_document(doc_id, label_set, raw):
    """A batch of one document from {system_id: scores}."""
    return FusionBatch((doc_id,), label_set, tuple(raw), [list(raw.values())])


def _grid(batch, strategy=None, **arguments):
    """combo_id -> (values, order, tied, fallback) of every combined model,
    or of those whose tag names the given strategy."""
    return {combo_id: fused for combo_id, fused in grid_arrays(batch, **arguments)
            if strategy in (None, combo_id.partition(":")[2].partition("-")[0])}


@lru_cache(maxsize=1)
def _random_instances():
    """100 randomized five-system, 17-label one-document batches plus raw
    scores."""
    rng = np.random.default_rng(4242)
    label_set = LabelSet(LABELS_17)
    out = []
    for i in range(100):
        raw = {s: rng.uniform(size=17).tolist() for s in SYSTEMS_5}
        out.append((_one_document(f"doc{i:03d}", label_set, raw), raw))
    return tuple(out)


def test_five_system_grid_has_26_subsets_and_104_models():
    start = time.perf_counter()
    subsets = enumerate_combinations(SYSTEMS_5)
    assert len(subsets) == 26  # C(5,2)+C(5,3)+C(5,4)+C(5,5) = 10+10+5+1
    by_size = {size: sum(1 for s in subsets if len(s) == size) for size in (2, 3, 4, 5)}
    assert by_size == {2: 10, 3: 10, 4: 5, 5: 1}
    instance, _ = _random_instances()[0]
    grid = _grid(instance)
    assert len(grid) == 26 * 4 == 104
    assert all(len(values) == 1 for values, _, _, _ in grid.values())
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
        cd, ds = instance.cd[0], instance.ds[0]
        curves = {s: _naive.rsc(_naive.normalize(raw[s])) for s in raw}
        ids = instance.system_ids
        all_curves = [curves[s] for s in ids]
        for j in range(len(ids)):
            assert ds[j] == _naive.ds(all_curves, j)
            for k in range(j + 1, len(ids)):
                assert cd[j, k] == _naive.cd(curves[ids[j]], curves[ids[k]])
        # every subset and strategy
        expected = _naive_full_grid(raw)
        grid = _grid(instance)
        assert set(grid) == set(expected)
        for combo_id, (values, ranking, _, _) in grid.items():
            vals, order = expected[combo_id]
            assert np.array_equal(values[0], vals)
            assert [LABELS_17[i] for i in ranking[0]] == order
            assert LABELS_17[ranking[0, 0]] == order[0]
    assert time.perf_counter() - start < 10.0


def test_weighted_reductions_and_scale_invariances():
    label_set = LabelSet(LABELS_17)
    subsets = enumerate_combinations(SYSTEMS_5)
    increasing = [np.exp, np.tanh, lambda x: x**3, np.sqrt, lambda x: 5 * x + 1]
    rng = np.random.default_rng(977)
    ones = dict.fromkeys(SYSTEMS_5, 1.0)
    for instance, raw in _random_instances():
        grid = _grid(instance, performance=ones)
        for subset in subsets:
            prefix = "+".join(subset) + ":"
            wsc, asc = grid[prefix + "wsc-perf"][0], grid[prefix + "asc"][0]
            # equal weights: sum(w*x)/sum(w) need not round as sum(x)/k does
            np.testing.assert_allclose(wsc, asc, atol=1e-12, rtol=0)
            wrc, arc = grid[prefix + "wrc-perf"][0], grid[prefix + "arc"][0]
            # and sum(r/w)/sum(1/w) need not round as sum(r)/k does
            np.testing.assert_allclose(wrc, arc, atol=1e-12, rtol=0)

        # rank averages see only score order, so any strictly increasing
        # per-system transform leaves them bit-identical
        warped = _one_document(
            instance.doc_ids[0],
            label_set,
            {
                s: increasing[i % len(increasing)](np.asarray(raw[s])).tolist()
                for i, s in enumerate(sorted(raw))
            },
        )
        # positive affine transforms cancel in min-max normalization,
        # so score averages keep their values and argmax
        affine = _one_document(
            instance.doc_ids[0],
            label_set,
            {
                s: (float(rng.uniform(0.5, 3.0)) * np.asarray(raw[s])
                    + float(rng.uniform(-2.0, 2.0))).tolist()
                for s in raw
            },
        )
        warped_grid = _grid(warped, "arc")
        affine_grid = _grid(affine, "asc")
        for subset in (SYSTEMS_5, SYSTEMS_5[:2], SYSTEMS_5[1:4]):
            prefix = "+".join(subset) + ":"
            base_arc, warped_arc = grid[prefix + "arc"], warped_grid[prefix + "arc"]
            assert np.array_equal(base_arc[0], warped_arc[0])
            assert warped_arc[1].tolist() == base_arc[1].tolist()  # same ranking

            base_asc, affine_asc = grid[prefix + "asc"], affine_grid[prefix + "asc"]
            # affine invariance: min-max of a*x + b equals that of x only up to rounding
            np.testing.assert_allclose(affine_asc[0], base_asc[0], atol=1e-12, rtol=0)
            assert affine_asc[1][0, 0] == base_asc[1][0, 0]  # same top-1 label


def test_diversity_and_rank_structure_properties():
    n = len(LABELS_17)
    expected_rank_sum = n * (n + 1) / 2
    for instance, _ in _random_instances():
        cd = instance.cd[0]
        assert np.all(np.abs(cd - cd.T) <= 1e-15)
        assert np.all(np.abs(np.diag(cd)) <= 1e-15)
        assert np.all(cd >= 0.0)
        for curve in instance.rsc[0]:
            assert np.all(np.diff(curve) <= 0.0)  # non-increasing
        for ranks in instance.ranks[0]:
            assert float(ranks.sum()) == expected_rank_sum


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
    report = _report(labels, experts, predictions, predictions)
    correct, total = int(report.individual.overall[0]), sum(report.label_counts.values())
    assert correct == report.individual.correct[0].sum()
    assert Fraction(correct, total) == Fraction(296, 306)
    # the literal is the report's 6-decimal rounding of 296/306
    assert correct / total == pytest.approx(0.967320, abs=1e-6)

    # a label group of 16 documents with 15 correct
    group_experts = {f"g{i:02d}": "SDG4" for i in range(16)}
    group_predictions = {"m": ["SDG4" if i < 15 else "SDG5" for i in range(16)]}
    report = _report(labels, group_experts, group_predictions, group_predictions)
    correct = report.individual.correct[0, labels.index("SDG4")]
    total = report.label_counts["SDG4"]
    assert correct / total == 0.9375  # exact: 15/16 is a dyadic rational
    assert correct == 15
    assert total == 16

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
    n, d = stats["models_ge_best_individual"]
    assert (n, d) == (49, 104)
    assert f"{100.0 * (n / d):.2f}" == "47.12"
    assert stats["cells_ge_best_individual"][1] == 104 * 17 == 1768


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
    assert [doc for doc, *_ in tables["fusion_agrees_with_expert"]] == ["a1", "a2", "a3"]
    assert [doc for doc, *_ in tables["fusion_disagrees_with_both"]] == ["b1", "b2", "b3"]
    assert [doc for doc, *_ in tables["both_disagree_with_expert"]] == ["c1", "c2", "c3"]
    for _, *row in tables["fusion_agrees_with_expert"]:
        assert tuple(row) == ("SDG4", "SDG12", "SDG4")
    for _, *row in tables["fusion_disagrees_with_both"]:
        assert tuple(row) == ("SDG5", "SDG5", "SDG1")
    for _, *row in tables["both_disagree_with_expert"]:
        assert tuple(row) == ("SDG1", "SDG11", "SDG11")


def test_lexical_metrics_fixed_points_and_random_oracle():
    assert type_token_ratio(Document("d", "the cat the dog")) == 0.75
    assert distinct_n(Document("d", "a b a b"), 2) == 2.0 / 3.0  # bit-exact same division
    rng = np.random.default_rng(311)
    alphabet = ["uno", "dos", "tres", "cuatro"]
    for _ in range(50):
        words = [alphabet[int(i)] for i in rng.integers(0, 4, size=int(rng.integers(1, 25)))]
        doc = Document("d", " ".join(words))
        for n in (1, 2, 3, 4):
            assert distinct_n(doc, n) == _naive.distinct_n(words, n)


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
        matrix = generate_prompt_matrix(random_specs, LabelSet(labels))
        assert len(matrix) == sum(counts) * len(labels)


def test_degenerate_inputs_fail_softly_and_never_nan(tmp_path):
    label_set = LabelSet(("L1", "L2", "L3", "L4"))

    # one constant system among normal ones
    mixed = _one_document(
        "d1",
        label_set,
        {"flat": [2.0, 2.0, 2.0, 2.0], "a": [0.1, 0.9, 0.4, 0.2], "b": [0.5, 0.2, 0.8, 0.1]},
    )
    flat = mixed.system_ids.index("flat")
    assert mixed.degenerate[0, flat]
    assert np.all(mixed.normalized[0, flat] == 0.5)
    for values, _, _, _ in _grid(mixed).values():
        assert np.isfinite(values).all()

    # identical systems: zero diversity strength forces the fallback
    twin = _grid(_one_document(
        "d2", label_set, {"x": [0.3, 0.8, 0.1, 0.5], "y": [0.3, 0.8, 0.1, 0.5]}
    ))
    wsc, _, _, wsc_fallback = twin["x+y:wsc-ds"]
    wrc, _, _, wrc_fallback = twin["x+y:wrc-ds"]
    assert wsc_fallback[0] and wrc_fallback[0]
    assert np.isfinite(wsc).all()
    assert np.isfinite(wrc).all()
    np.testing.assert_array_equal(wsc, twin["x+y:asc"][0])
    np.testing.assert_array_equal(wrc, twin["x+y:arc"][0])

    # all systems constant: everything ties, values stay finite
    all_flat = _one_document(
        "d3", label_set, {"p": [1.0, 1.0, 1.0, 1.0], "q": [7.0, 7.0, 7.0, 7.0]}
    )
    for values, order, tied, _ in _grid(all_flat).values():
        assert np.isfinite(values).all()
        assert tied[0] > 1  # a tie at the top
        assert order[0, 0] == 0  # top1 is L1

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
