"""Property tests: the array kernel against the naive oracle.

Hypothesis draws random shapes with heavy ties (scores with one or two
decimals) and whole constant rows, the inputs where a reordered sum or a
wrong tie rule shows up.  Ranks and rankings must agree exactly.  The
evaluation counts are checked against a per-document recount, and the
bytes of fused.csv and of every other CSV table against csv.writer passes.
The tokenizer and the keyword scorer are checked against transcriptions
of their definitions, the CSV reader against a csv.reader pass, the
score and fused.csv loaders against row-by-row reads and report.json
against json.dumps.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _naive
from cfakit import (
    EPSILON,
    BestSelection,
    DisagreementRow,
    DisagreementTables,
    EvaluationReport,
    FusionBatch,
    GridStats,
    KeywordLexicon,
    LabelSet,
    ModelPredictions,
    PrecisionResult,
    ValidationError,
    cognitive_diversity,
    combined_arrays,
    enumerate_combinations,
    evaluate_predictions,
    keyword_scorer,
    normalize_scores,
    rank_from_scores,
    tokenize,
    write_report,
)
from cfakit import fileio
from cfakit.combine import STRATEGIES, grid_arrays
from cfakit.fileio import (
    FUSED_HEADER,
    _table_rows,
    load_fused_predictions,
    load_score_cube,
    write_csv,
    write_fused_file,
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


@settings(max_examples=150, deadline=None)
@given(score_cubes(), st.sampled_from(("fractional", "ordinal")))
def test_batch_rsc_lies_in_unit_interval_and_is_non_increasing(cube, tie_policy):
    # the RSC invariant, under both tie policies and with constant rows
    rsc = _batch(cube, tie_policy).rsc
    assert rsc.shape == np.shape(cube)
    assert not rsc.flags.writeable
    assert rsc.min() >= 0.0 and rsc.max() <= 1.0
    assert not np.any(np.diff(rsc, axis=-1) > 0)


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
    grid = dict(grid_arrays(batch))
    assert len(grid) == 4 * len(enumerate_combinations(batch.system_ids))
    for d, rows in enumerate(cube):
        ranks = [rank_oracle(row) for row in rows]
        for subset in enumerate_combinations(batch.system_ids):
            idx = batch.subset_index(subset)
            for tag, (values, higher, fallback) in _oracle_models(rows, ranks, idx).items():
                got, order, tied, fell_back = grid["+".join(subset) + ":" + tag]
                combined = got[d].tolist()
                assert fell_back[d] == fallback
                assert_same_values(combined, values)
                ranking = _naive.ranking(combined, labels, higher)
                assert [labels[i] for i in order[d]] == ranking
                best = combined[labels.index(ranking[0])]
                # the labels tied at the top lead the ranking, in label order
                assert [labels[i] for i in order[d, :tied[d]]] == [
                    l for l, v in zip(labels, combined) if v == best
                ]
                if EXACT_SUMS:
                    assert ranking == _naive.ranking(values, labels, higher)

    # documents fused one at a time give the same bytes as the whole batch
    for d, (doc_id, rows) in enumerate(zip(batch.doc_ids, cube)):
        one = FusionBatch((doc_id,), batch.label_set, batch.system_ids, [rows], tie_policy)
        alone = dict(grid_arrays(one))
        assert list(alone) == list(grid)
        for combo_id, (values, order, tied, _) in alone.items():
            whole = grid[combo_id]
            assert values.tobytes() == whole[0][d:d + 1].tobytes()
            assert order.tolist() == whole[1][d:d + 1].tolist()
            assert tied.tolist() == whole[2][d:d + 1].tolist()


@st.composite
def evaluations(draw):
    """Random label-index predictions of individual and combined models,
    each top1 inside a tied group of one to three labels, expert labels
    that leave some label groups empty, documents in unsorted order, and a
    tie mode."""
    n = draw(st.integers(3, 6))
    labels = tuple(f"L{i}" for i in range(n))
    doc_ids = draw(st.permutations([f"d{i}" for i in range(draw(st.integers(1, 8)))]))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    expert = np.array([draw(st.sampled_from(used)) for _ in doc_ids], dtype=np.intp)

    def models(prefix, count):
        top1 = np.zeros((count, len(doc_ids)), dtype=np.intp)
        tied = np.zeros(top1.shape + (n,), dtype=bool)
        for m in range(count):
            for d in range(len(doc_ids)):
                group = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                      unique=True))
                top1[m, d] = draw(st.sampled_from(group))
                tied[m, d, group] = True
        return ModelPredictions(tuple(f"{prefix}{k}" for k in range(count)), labels, top1, tied)

    individual = models("S", draw(st.integers(1, 3)))
    combined = models("C", draw(st.integers(1, 5)))
    tie_mode = draw(st.sampled_from(("strict", "lenient")))
    return LabelSet(labels), doc_ids, expert, individual, combined, tie_mode


def _recount(predictions, m, expert, tie_mode, label=None):
    """(correct, total, ties) of model m over the documents of one expert
    label index, or all."""
    correct = total = ties = 0
    for d, e in enumerate(expert.tolist()):
        if label is not None and e != label:
            continue
        group = np.flatnonzero(predictions.tied[m, d]).tolist()
        tie = len(group) > 1
        if tie_mode == "lenient" and tie:
            hit = e in group
        else:
            hit = predictions.top1[m, d] == e
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
    label_set, doc_ids, expert, individual, combined, tie_mode = case
    report = evaluate_predictions(doc_ids, label_set, expert, individual, combined, tie_mode)
    overall = {**report.individual_overall, **report.combined_overall}
    per_label = {**report.individual_per_label, **report.combined_per_label}
    fractions = {}
    for predictions in (individual, combined):
        for m, model_id in enumerate(predictions.model_ids):
            want = _recount(predictions, m, expert, tie_mode)
            got = overall[model_id]
            assert (got.correct, got.total, got.tie_count) == want
            fractions[model_id] = Fraction(want[0], want[1])
            for index, label in enumerate(label_set.labels):
                want = _recount(predictions, m, expert, tie_mode, index)
                got = per_label[model_id][label]
                if want[1] == 0:
                    assert got is None
                else:
                    assert (got.correct, got.total, got.tie_count) == want
    assert report.label_counts == {
        label: expert.tolist().count(index) for index, label in enumerate(label_set.labels)
    }

    best_individual = _best({m: fractions[m] for m in individual.model_ids})
    best_combined = _best({m: fractions[m] for m in combined.model_ids})
    assert list(report.best_individual.tied) == best_individual
    assert report.best_individual.model == best_individual[0]
    assert list(report.best_combined.tied) == best_combined
    assert report.best_combined.model == best_combined[0]

    ge_best = ge_mean = cells = 0
    for label in set(expert.tolist()):
        ind = [Fraction(*_recount(individual, m, expert, tie_mode, label)[:2])
               for m in range(len(individual.model_ids))]
        for m in range(len(combined.model_ids)):
            value = Fraction(*_recount(combined, m, expert, tie_mode, label)[:2])
            cells += 1
            ge_best += value >= max(ind)
            ge_mean += value >= sum(ind) / len(ind)
    models_ge = sum(
        1 for m in combined.model_ids
        if fractions[m] >= max(fractions[i] for i in individual.model_ids)
    )
    stats = report.grid_stats
    assert stats.cells_ge_best_individual == PrecisionResult(ge_best, cells)
    assert stats.cells_ge_individual_mean == PrecisionResult(ge_mean, cells)
    assert stats.models_ge_best_individual == PrecisionResult(models_ge, len(combined.model_ids))

    # the disagreement tables, recounted per document in doc_id order from
    # the best models' top-1 labels
    labels = label_set.labels
    best_ind = individual.top1[individual.model_ids.index(best_individual[0])].tolist()
    best_comb = combined.top1[combined.model_ids.index(best_combined[0])].tolist()
    agrees, neither, both_wrong = [], [], []
    for doc_id, e, i, c in sorted(zip(doc_ids, expert.tolist(), best_ind, best_comb)):
        row = DisagreementRow(doc_id, labels[e], labels[i], labels[c])
        if c == e and i != e:
            agrees.append(row)
        elif c != e and c != i and i == e:
            neither.append(row)
        elif c == i and i != e:
            both_wrong.append(row)
    assert report.disagreements == DisagreementTables(
        tuple(agrees), tuple(neither), tuple(both_wrong))


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
def test_fused_file_bytes_match_a_csv_writer_pass_over_grid_arrays(case):
    batch, arguments = case
    grid = dict(grid_arrays(batch, *arguments))
    assert list(grid) == sorted(grid)
    # the rows built from grid_arrays' label orders, each written by a
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
    labels = batch.label_set.labels
    for combo_id in sorted(grid):
        _, order, tied, _ = grid[combo_id]
        for d in sorted(range(len(batch)), key=lambda d: batch.doc_ids[d]):
            ranking = [labels[i] for i in order[d]]
            write((
                combo_id, batch.doc_ids[d], ranking[0],
                "true" if tied[d] > 1 else "false",
                "|".join(ranking[:tied[d]]), "|".join(ranking),
            ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fused.csv"
        models = write_fused_file(
            path, batch.label_set, batch.doc_ids,
            ((combo_id, order, tied)
             for combo_id, (_, order, tied, _) in grid_arrays(batch, *arguments)),
        )
        assert path.read_bytes() == want.getvalue().encode("utf-8")
        combo_ids, top1, tied = load_fused_predictions(path, batch.label_set, batch.doc_ids)
    assert models == len(grid)
    # the library's producer makes what evaluate reads back, combo by combo
    made = combined_arrays(batch, *arguments)
    assert made.model_ids == tuple(grid)
    assert made.labels == batch.label_set.labels
    assert list(combo_ids) == sorted(grid)
    order = [combo_ids.index(combo_id) for combo_id in made.model_ids]
    assert np.array_equal(made.top1, top1[order])
    assert np.array_equal(made.tied, tied[order])


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


# the csv module's field size limit while a drawn table is read
FIELD_LIMIT = 16
# fields csv never quotes: no quote, NUL, comma or line break, and short,
# so that a line of them stays within FIELD_LIMIT
_PLAIN_FIELD = st.text(st.sampled_from("ab é"), max_size=2)
# fields that try csv.reader's own rules: quoted ones holding what csv
# quotes and NUL, a bare quote, a NUL, a field over FIELD_LIMIT, and
# fields within it whose line is over it
_CSV_FIELD = st.one_of(
    st.text(st.sampled_from('a,"\r\n\0'), max_size=4).map(
        lambda text: '"' + text.replace('"', '""') + '"'),
    st.just('a"b'),
    st.just("a\0"),
    st.integers(FIELD_LIMIT + 1, FIELD_LIMIT + 3).map(lambda n: "x" * n),
    st.integers(FIELD_LIMIT // 2, FIELD_LIMIT).map(lambda n: "y" * n),
)


# lone surrogates that surrogateescape writes as a byte that is not UTF-8:
# 0xff, which UTF-8 never uses, a continuation byte without a lead byte and
# a lead byte without its continuation byte
_BAD_BYTES = ("\udcff", "\udc80", "\udcc3")


@st.composite
def table_files(draw):
    """A header and the text of a table file under it: rows mostly as wide
    as the header, blank lines, \n, \r\n and lone \r line ends, a line
    with a quoted, NUL-holding or long field at the header, in the middle
    or nowhere, and now and then a lone surrogate anywhere on a drawn
    line, a quoted field spanning lines included, which the test writes
    as a byte that is not UTF-8."""
    header = ("h1", "h2", "h3")[: draw(st.integers(1, 3))]
    switch = draw(st.sampled_from(("header", "middle", "nowhere")))
    count = draw(st.integers(0 if switch != "middle" else 1, 8))
    if switch == "middle":
        first = draw(st.integers(1, count))
    else:
        first = 0 if switch == "header" else count + 1
    end = st.sampled_from(("\n", "\r\n", "\r"))
    lines = [",".join(('"h1"',) + header[1:] if first == 0 else header)]
    for number in range(1, count + 1):
        width = draw(st.sampled_from((len(header),) * 6 + (len(header) - 1, len(header) + 1)))
        if number == first:
            fields = draw(st.lists(_PLAIN_FIELD, min_size=width, max_size=width)) or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_CSV_FIELD)
        elif draw(st.integers(0, 5)) == 0:
            fields = []
        else:
            field = _PLAIN_FIELD if number < first else st.one_of(_PLAIN_FIELD, _CSV_FIELD)
            fields = draw(st.lists(field, min_size=width, max_size=width))
        lines.append(",".join(fields))
    if draw(_now_and_then(3)):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_BAD_BYTES)) + lines[i][at:]
    text = "".join(line + draw(end) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return header, text


@settings(max_examples=300, deadline=None)
@given(table_files())
# a wide row on line 2, then a bad byte in a quoted field on lines 3-4
@example((("h1", "h2"), 'h1,h2\nx,y,z\n"a\n\udcffb",c\n'))
# the same bad byte, then the wide row
@example((("h1", "h2"), 'h1,h2\n"a\r\n\udcc3b",c\nx,y,z\n'))
def test_table_rows_match_a_csv_reader_pass(case):
    header, text = case
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            try:
                got = list(_table_rows(path, header))
            except ValidationError as exc:
                got = str(exc)
            assert got == _naive.table_rows(path, header)
    finally:
        csv.field_size_limit(limit)


# the csv module's field size limit while drawn score files are read:
# every drawn line stays within it but for an over-limit field
SCORE_FIELD_LIMIT = 40
# scores: float's own texts, its odd grammar and the texts it rejects
_SCORE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-99, 99).map(lambda k: str(k / 4)),
    st.sampled_from((" 1.5 ", "1_0", "-0.0", "1e-3", "nan", "inf", "-inf", "x", "", "0x1p3")),
)


def _now_and_then(n):
    """True about one time in n."""
    return st.integers(0, n - 1).map(lambda k: k == n // 2)


@st.composite
def score_file_sets(draw):
    """A label set and one to three score files over it: documents from a
    shared pool in shuffled row order, labels in any order, and now and
    then a dropped, repeated, unknown-label, empty-field, wrong-width or
    over-limit row, a line break one field early, or a wrong header.  Plain sets use \n line ends only,
    no blank line and ids csv never quotes; the others add quoted fields,
    \r\n, blank lines and a missing last line end."""
    plain = draw(st.booleans())
    id_chars = "abé " if plain else 'ab,"\r\n'
    labels = draw(st.lists(st.text(st.sampled_from("ABC" + id_chars), min_size=1, max_size=2),
                           min_size=3, max_size=4, unique=True))
    pool = draw(st.lists(st.text(st.sampled_from(id_chars), min_size=1, max_size=3),
                         min_size=1, max_size=4, unique=True))
    files = []
    for _ in range(draw(st.integers(1, 3))):
        docs = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)) if draw(
            _now_and_then(4)) else pool
        score = _SCORE_TEXT if draw(_now_and_then(3)) else st.integers(0, 9).map(str)
        rows = [[doc, label, draw(score)] for doc in docs for label in draw(st.permutations(labels))]
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
            fault = draw(st.sampled_from(("drop", "repeat", "unknown", "empty", "wide", "narrow",
                                          "long")))
            row = list(draw(st.sampled_from(rows)))
            if fault == "drop":
                rows.remove(row)
                continue
            if fault == "unknown":
                row[1] = "Z"
            elif fault == "empty":
                row[draw(st.integers(0, 1))] = ""
            elif fault == "wide":
                row.append("1")
            elif fault == "narrow":
                row.pop()
            elif fault == "long":
                row[0] = "x" * (SCORE_FIELD_LIMIT + 1)
            rows.append(row)
        # a field is quoted when it must be, and now and then when it need not be
        lines = [",".join('"' + f.replace('"', '""') + '"'
                          if any(c in f for c in ',"\r\n') or not plain and draw(_now_and_then(9))
                          else f for f in row)
                 for row in draw(st.permutations(rows))]
        if len(lines) > 1 and draw(_now_and_then(8)):
            # a line break one field early: the fields in file order stay
            # as they were, but two lines have the wrong width
            i = draw(st.integers(0, len(lines) - 2))
            head, _, last = lines[i].rpartition(",")
            lines[i], lines[i + 1] = head, last + "," + lines[i + 1]
        end = "\n"
        if not plain:
            for _ in range(draw(st.sampled_from((0, 0, 1)))):
                lines.insert(draw(st.integers(0, len(lines))), "")
            end = draw(st.sampled_from(("\n", "\r\n")))
        header = "doc_id,label,value" if draw(_now_and_then(20)) else "doc_id,label,score"
        text = "".join(line + end for line in [header, *lines])
        if not plain and draw(_now_and_then(3)):
            text = text.removesuffix(end)
        files.append(text)
    return labels, files


@settings(max_examples=400, deadline=None)
@given(score_file_sets())
def test_score_cube_matches_a_row_by_row_read(case):
    labels, texts = case
    limit = csv.field_size_limit(SCORE_FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            systems = []
            for index, text in enumerate(texts):
                path = Path(tmp) / f"s{index}.csv"
                path.write_bytes(text.encode("utf-8"))
                systems.append((f"s{index}", path))
            want = _naive.score_cube(systems, labels)
            try:
                doc_ids, raw = load_score_cube(systems, LabelSet(tuple(labels)))
            except ValidationError as exc:
                assert type(exc) is ValidationError and str(exc) == want
            else:
                assert not isinstance(want, str), want
                assert doc_ids == want[0]
                assert raw.tobytes() == np.array(want[1], dtype=float).tobytes()
    finally:
        csv.field_size_limit(limit)


# the csv module's field size limit while drawn fused files are read
FUSED_FIELD_LIMIT = 64
_FUSED_FAULTS = ("drop", "repeat", "unknown", "wide", "narrow", "long", "nul", "head", "raw",
                 "cr", "cr", "blank", "not-utf8")


@st.composite
def fused_files(draw):
    """Labels, expert documents, a block size for the block reader and the
    bytes of a fused grid file: rows in combo order or interleaved, now and
    then filler models that push the drawn rows past the first 64 KiB, and
    now and then one or two faults: a dropped, repeated, unknown-document,
    wrong-width, over-limit, NUL-holding or unquoted row, a drawn head (any
    of _fused_head's faults), a \\r inside a line, a blank line, a byte
    that is not UTF-8 or a wrong header.  Plain files use \\n line ends and
    ids csv never quotes; the others add ids holding ',', '"', \\r or \\n,
    needless quotes, \\r\\n or lone \\r line ends and a missing last line
    end."""
    plain = draw(st.booleans())
    id_chars = "abé" if plain else 'ab,"\r\n'
    labels = draw(st.lists(_texts("AB" + id_chars), min_size=3, max_size=4, unique=True))
    doc_ids = draw(st.lists(_texts(id_chars), min_size=1, max_size=4, unique=True))
    combos = draw(st.lists(_texts("st+:" + id_chars), min_size=1, max_size=3, unique=True))
    rows = []
    for combo in combos:
        for doc in doc_ids:
            order = draw(st.permutations(labels))
            tied = min(draw(st.sampled_from((1, 1, 1, 2, 3))), len(labels))
            rows.append([combo, doc, order[0], "true" if tied > 1 else "false",
                         "|".join(order[:tied]), "|".join(order)])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    faults = [] if draw(_now_and_then(3)) else draw(
        st.lists(st.sampled_from(_FUSED_FAULTS), min_size=1, max_size=2))
    raw = []  # rows written without quotes
    for fault in faults:
        i = draw(st.integers(0, len(rows) - 1)) if rows else None
        if i is None or fault in ("cr", "blank", "not-utf8"):
            continue
        row = list(rows[i])
        if fault == "drop":
            del rows[i]
            continue
        if fault == "unknown":
            row[1] = "zz"
        elif fault == "wide":
            row.append("x")
        elif fault == "narrow":
            row.pop()
        elif fault == "long":
            row[draw(st.integers(0, 5))] = "x" * (FUSED_FIELD_LIMIT + 1)
        elif fault == "nul":
            row[draw(st.integers(0, 5))] += "\0"
        elif fault == "head":
            named = st.sampled_from(list(labels) + ["Z"])
            row[2:5] = (draw(named), draw(st.sampled_from(("true", "false", "yes"))),
                        "|".join(draw(st.lists(named, min_size=1, max_size=3))))
        elif fault == "raw":
            raw.append(row)
        if fault in ("repeat", "unknown"):
            rows.insert(draw(st.integers(0, len(rows))), row)
        else:
            rows[i] = row

    def quote(field, needless=False):
        if any(c in field for c in ',"\r\n') or needless:
            return '"' + field.replace('"', '""') + '"'
        return field

    lines = [",".join(field if any(row is r for r in raw) else
                      quote(field, not plain and draw(_now_and_then(9))) for field in row)
             for row in rows]
    for fault in faults:
        if fault == "cr" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            # not at the end, where it would only end the line
            at = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
            lines[i] = lines[i][:at] + "\r" + lines[i][at:]
        elif fault == "blank":
            lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(_now_and_then(8)):
        # filler models ahead of the drawn rows: 3,000 valid rows of 24
        # bytes or more, past 64 KiB
        filler = [",".join(map(quote, (f"~{m:04d}", doc, labels[0], "false", labels[0],
                                       "|".join(labels))))
                  for m in range(3_000 // len(doc_ids)) for doc in doc_ids]
        lines = filler + lines
    header = ",".join(FUSED_HEADER)
    if draw(_now_and_then(20)):
        header = header.replace("ranking", "rank")
    end = "\n" if plain else draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    text = "".join(line + end for line in [header, *lines])
    if not plain and draw(_now_and_then(3)):
        text = text.removesuffix(end)
    data = text.encode("utf-8")
    if "not-utf8" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return labels, doc_ids, draw(st.sampled_from((64, 256, 1 << 16))), data


_FUSED_ROWS = "".join(f"m{m},d{d},A,false,A,A|B|C\n" for m in range(3) for d in range(2))


@settings(max_examples=400, deadline=None)
@given(fused_files())
# in a later block, a repeated row and a \r inside a ranking
@example((["A", "B", "C"], ["d0", "d1"], 64,
          (",".join(FUSED_HEADER) + "\n" + _FUSED_ROWS + "m2,d1,A,false,A,A|B|C\n").encode()))
@example((["A", "B", "C"], ["d0", "d1"], 64,
          (",".join(FUSED_HEADER) + "\n" + _FUSED_ROWS.replace("A|B|C", "A|B\rC")).encode()))
def test_fused_predictions_match_a_row_by_row_read(case):
    labels, doc_ids, block, data = case
    limit = csv.field_size_limit(FUSED_FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp, _block_size(block):
            path = Path(tmp) / "fused.csv"
            path.write_bytes(data)
            want = _naive.fused_predictions(path, labels, doc_ids)
            try:
                combo_ids, top1, tied = load_fused_predictions(path, LabelSet(tuple(labels)),
                                                               doc_ids)
            except ValidationError as exc:
                assert type(exc) is ValidationError and str(exc) == want
            else:
                assert not isinstance(want, str), want
                assert list(combo_ids) == want[0]
                assert top1.dtype == np.intp and top1.tolist() == want[1]
                assert tied.shape == (len(combo_ids), len(doc_ids), len(labels))
                assert [[set(np.flatnonzero(mask).tolist()) for mask in combo]
                        for combo in tied] == want[2]
    finally:
        csv.field_size_limit(limit)


@contextmanager
def _block_size(size):
    """fileio's block reader reading size bytes at a time."""
    saved, fileio._BLOCK = fileio._BLOCK, size
    try:
        yield
    finally:
        fileio._BLOCK = saved


def _report_payload(report):
    """report.json's content as a dict, built field by field from the report."""
    def precision(r):
        if r is None:
            return None
        return {"correct": r.correct, "total": r.total, "ties": r.tie_count, "value": r.value}

    def models(overall, per_label):
        return {
            model: {
                "overall": precision(overall[model]),
                "per_label": {label: precision(r) for label, r in per_label[model].items()},
            }
            for model in overall
        }

    return {
        "tie_mode": report.tie_mode,
        "label_counts": dict(report.label_counts),
        "individual": models(report.individual_overall, report.individual_per_label),
        "combined": models(report.combined_overall, report.combined_per_label),
        "best_individual": vars(report.best_individual),
        "best_combined": vars(report.best_combined),
        "grid_statistics": {
            name: {"numerator": r.correct, "denominator": r.total, "value": r.value}
            for name, r in vars(report.grid_stats).items()
        },
        "disagreements": {
            category: [vars(row) for row in table]
            for category, table in vars(report.disagreements).items()
        },
    }


# what json escapes (quote, backslash, control characters), what it
# leaves as it is with ensure_ascii=False (non-ASCII, U+2028) and ":"
_JSON_TEXT = st.text(st.sampled_from('aZ:é中"\\\0\n\x1f\x7f\u2028'), min_size=1, max_size=4)


@st.composite
def reports(draw):
    """An evaluation report with odd model ids and labels, per-label maps
    in shuffled label order with empty (None) groups, and tied best models."""
    labels = draw(st.lists(_JSON_TEXT, max_size=4, unique=True))

    def precision():
        total = draw(st.integers(1, 40))
        return PrecisionResult(draw(st.integers(0, total)), total, draw(st.integers(0, total)))

    def models():
        ids = draw(st.lists(_JSON_TEXT, max_size=4, unique=True))
        overall = {model: precision() for model in ids}
        per_label = {
            model: {label: None if draw(st.booleans()) else precision()
                    for label in draw(st.permutations(labels))}
            for model in ids
        }
        return overall, per_label

    def best():
        tied = tuple(sorted(draw(st.lists(_JSON_TEXT, min_size=1, max_size=3, unique=True))))
        return BestSelection(tied[0], tied)

    def ratio():
        total = draw(st.integers(1, 40))
        return PrecisionResult(draw(st.integers(0, total)), total)

    def rows():
        return tuple(DisagreementRow(*draw(st.lists(_JSON_TEXT, min_size=4, max_size=4)))
                     for _ in range(draw(st.integers(0, 2))))

    (ind, ind_labels), (comb, comb_labels) = models(), models()
    return EvaluationReport(
        tie_mode=draw(st.sampled_from(("strict", "lenient"))),
        label_counts={label: draw(st.integers(0, 40)) for label in labels},
        individual_overall=ind,
        combined_overall=comb,
        individual_per_label=ind_labels,
        combined_per_label=comb_labels,
        best_individual=best(),
        best_combined=best(),
        grid_stats=GridStats(ratio(), ratio(), ratio()),
        disagreements=DisagreementTables(rows(), rows(), rows()),
    )


@settings(max_examples=200, deadline=None)
@given(reports())
def test_report_json_bytes_match_json_dumps(report):
    want = json.dumps(_report_payload(report), indent=2, sort_keys=True, ensure_ascii=False)
    with tempfile.TemporaryDirectory() as tmp:
        write_report(report, tmp)
        assert (Path(tmp) / "report.json").read_bytes() == (want + "\n").encode("utf-8")


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
