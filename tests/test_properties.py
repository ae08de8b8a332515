"""Property tests: the array kernel against the naive oracle.

Hypothesis draws random shapes with heavy ties (scores with one or two
decimals) and whole constant rows, the inputs where a reordered sum or a
wrong tie rule shows up.  Ranks and rankings must agree exactly.  The
evaluation counts are checked against a per-document recount, and the
bytes of fused.csv and of every other CSV table against csv.writer passes.
The tokenizer and the keyword scorer are checked against transcriptions
of their definitions.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _naive
from cfakit import (
    EPSILON,
    FusionBatch,
    KeywordLexicon,
    LabelSet,
    Prediction,
    build_instance,
    build_report,
    cognitive_diversity,
    enumerate_combinations,
    grid_statistics,
    keyword_scorer,
    normalize_scores,
    per_label_precision,
    precision_at_1,
    rank_from_scores,
    run_grid,
    tokenize,
)
from cfakit.combine import STRATEGIES, grid_arrays
from cfakit.fileio import FUSED_HEADER, write_csv, write_fused_file

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


@st.composite
def evaluations(draw):
    """Random predictions of individual and combined models, with ties at
    the top, expert labels that leave some label groups empty, and a tie
    mode."""
    labels = tuple(f"L{i}" for i in range(draw(st.integers(3, 6))))
    doc_ids = [f"d{i}" for i in range(draw(st.integers(1, 8)))]
    used = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1,
                         unique=True))
    experts = {d: draw(st.sampled_from(used)) for d in doc_ids}

    def model():
        out = {}
        for d in doc_ids:
            group = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
            tied = tuple(sorted(group, key=labels.index))
            out[d] = Prediction(draw(st.sampled_from(tied)), tied)
        return out

    individual = {f"S{j}": model() for j in range(draw(st.integers(1, 3)))}
    combined = {f"C{k}": model() for k in range(draw(st.integers(1, 5)))}
    tie_mode = draw(st.sampled_from(("strict", "lenient")))
    return LabelSet(labels), experts, individual, combined, tie_mode


def _recount(predictions, experts, tie_mode, label=None):
    """(correct, total, ties) over the documents of one expert label, or all."""
    correct = total = ties = 0
    for doc_id, expert in experts.items():
        if label is not None and expert != label:
            continue
        prediction = predictions[doc_id]
        tie = len(prediction.tied_top) > 1
        if tie_mode == "lenient" and tie:
            hit = expert in prediction.tied_top
        else:
            hit = prediction.top1 == expert
        correct += hit
        total += 1
        ties += tie
    return correct, total, ties


def _best(fractions):
    top = max(fractions.values())
    return sorted(model for model, value in fractions.items() if value == top)


@settings(max_examples=150, deadline=None)
@given(evaluations())
def test_evaluation_counts_match_per_document_recount(case):
    label_set, experts, individual, combined, tie_mode = case
    report = build_report(individual, combined, experts, label_set, tie_mode)
    overall = {**report.individual_overall, **report.combined_overall}
    per_label = {**report.individual_per_label, **report.combined_per_label}
    fractions = {}
    for model_id, predictions in {**individual, **combined}.items():
        want = _recount(predictions, experts, tie_mode)
        got = overall[model_id]
        assert (got.correct, got.total, got.tie_count) == want
        got = precision_at_1(predictions, experts, tie_mode)
        assert (got.correct, got.total, got.tie_count) == want
        fractions[model_id] = Fraction(want[0], want[1])
        table = per_label_precision(predictions, experts, label_set, tie_mode)
        assert table == per_label[model_id]
        for label in label_set.labels:
            want = _recount(predictions, experts, tie_mode, label)
            got = table[label]
            if want[1] == 0:
                assert got is None
            else:
                assert (got.correct, got.total, got.tie_count) == want
    assert report.label_counts == {
        label: sum(1 for e in experts.values() if e == label) for label in label_set.labels
    }

    best_individual = _best({m: fractions[m] for m in individual})
    best_combined = _best({m: fractions[m] for m in combined})
    assert list(report.best_individual.tied) == best_individual
    assert report.best_individual.model == best_individual[0]
    assert list(report.best_combined.tied) == best_combined
    assert report.best_combined.model == best_combined[0]

    ge_best = ge_mean = cells = 0
    for label in set(experts.values()):
        ind = [Fraction(*_recount(individual[m], experts, tie_mode, label)[:2])
               for m in individual]
        for model_id in combined:
            value = Fraction(*_recount(combined[model_id], experts, tie_mode, label)[:2])
            cells += 1
            ge_best += value >= max(ind)
            ge_mean += value >= sum(ind) / len(ind)
    models_ge = sum(
        1 for m in combined if fractions[m] >= max(fractions[i] for i in individual)
    )
    stats = grid_statistics(combined, individual, experts, label_set, tie_mode)
    assert stats == report.grid_stats
    assert (stats.cells_ge_best_individual.numerator,
            stats.cells_ge_best_individual.denominator) == (ge_best, cells)
    assert (stats.cells_ge_individual_mean.numerator,
            stats.cells_ge_individual_mean.denominator) == (ge_mean, cells)
    assert (stats.models_ge_best_individual.numerator,
            stats.models_ge_best_individual.denominator) == (models_ge, len(combined))


def _texts(alphabet, min_size=1):
    return st.text(st.sampled_from(alphabet), min_size=min_size, max_size=4)


# what csv quotes (",", '"', "\n", "\r") and characters outside ASCII
ODD = 'ab,"\n\r é中'


@st.composite
def fused_grids(draw):
    """A tie-heavy batch with odd label, document and system ids, documents
    in unsorted order, and grid arguments: a strategy subset, a weight
    source and, for perf, per-system weights (some vanishing)."""
    cube = draw(score_cubes())
    docs, systems, labels = len(cube), len(cube[0]), len(cube[0][0])
    label_set = LabelSet(tuple(draw(st.lists(_texts(ODD), min_size=labels,
                                             max_size=labels, unique=True))))
    doc_ids = draw(st.lists(_texts(ODD, 0), min_size=docs, max_size=docs, unique=True))
    system_ids = draw(st.lists(_texts(ODD), min_size=systems, max_size=systems, unique=True))
    batch = FusionBatch(doc_ids, label_set, system_ids, cube,
                        draw(st.sampled_from(("fractional", "ordinal"))))
    strategies = draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True))
    source = draw(st.sampled_from(("ds", "perf")))
    weight = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    performance = {s: draw(weight) for s in system_ids} if source == "perf" else None
    return batch, (strategies, 2, source, performance)


@settings(max_examples=150, deadline=None)
@given(fused_grids())
def test_fused_file_bytes_match_a_csv_writer_pass_over_run_grid(case):
    batch, arguments = case
    grid = run_grid(batch, *arguments)
    # the rows built from run_grid's FusedRankings, each written by a
    # csv.writer whose "\r\n" terminator makes it quote a bare "\r" on every
    # Python, then ended with "\n"
    want = io.StringIO()
    row = io.StringIO()
    writer = csv.writer(row, lineterminator="\r\n")

    def write(fields):
        row.seek(0)
        row.truncate()
        writer.writerow(fields)
        want.write(row.getvalue()[:-2] + "\n")

    write(FUSED_HEADER)
    for combo_id in sorted(grid):
        for fused in sorted(grid[combo_id], key=lambda f: f.doc_id):
            write((
                combo_id, fused.doc_id, fused.top1,
                "true" if fused.tie_at_top else "false",
                "|".join(fused.tied_top), "|".join(fused.ranking),
            ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fused.csv"
        models = write_fused_file(
            path, batch.label_set, batch.doc_ids,
            ((combo_id, order, tied)
             for combo_id, (_, order, tied, _) in grid_arrays(batch, *arguments)),
        )
        assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert models == len(grid)


# any text but "\r", which csv.writer(lineterminator="\n") leaves unquoted
# before Python 3.13, and NUL, which some versions refuse to write
_TEXT = st.one_of(
    _texts(ODD.replace("\r", ""), 0),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\0"), max_size=4),
)


@st.composite
def csv_tables(draw):
    """A header and rows of two or more str or int fields each, as in every
    table cfakit writes."""
    width = draw(st.integers(2, 5))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    row = st.lists(st.one_of(_TEXT, st.integers()), min_size=width, max_size=width)
    return header, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_write_csv_bytes_match_a_csv_writer_pass(table):
    header, rows = table
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == want.getvalue().encode("utf-8")


# words drawn from a few letters, edge punctuation and odd whitespace
_WORDY = "aZé9中-.,!¿«» \t\n\u00a0\u2028"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(_WORDY), st.text()))
def test_tokenize_matches_oracle(text):
    assert tokenize(text) == _naive.tokenize(text)


@st.composite
def keyword_cases(draw):
    """Token streams and lexicons over 3 or 4 words, so that phrases match,
    overlap and repeat often; empty documents included."""
    words = "abcd"[: draw(st.integers(3, 4))]
    tokens = draw(st.lists(st.sampled_from(words), max_size=30))
    phrase = st.lists(st.sampled_from(words), min_size=1, max_size=4)
    labels = draw(st.lists(st.sampled_from(("L1", "L2", "L3")), min_size=1, max_size=3,
                           unique=True))
    lexicon = {}
    for label in labels:
        phrases = draw(st.lists(phrase, min_size=1, max_size=6))
        lexicon[label] = phrases + phrases[: draw(st.integers(0, len(phrases)))]
    return tokens, lexicon


@settings(max_examples=300, deadline=None)
@given(keyword_cases())
def test_keyword_scorer_matches_sliding_window_oracle(case):
    tokens, lexicon = case
    raw = {label: [" ".join(phrase) for phrase in phrases] for label, phrases in lexicon.items()}
    got = keyword_scorer(" ".join(tokens), KeywordLexicon.from_dict(raw))
    assert got == _naive.keyword_scores(tokens, lexicon)
