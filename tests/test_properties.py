"""Property tests: the array kernel against the naive oracle.

Hypothesis draws random shapes with heavy ties (scores with one or two
decimals) and whole constant rows, the inputs where a reordered sum or a
wrong tie rule shows up.  Values, ranks and rankings must agree exactly.
The evaluation counts are checked against a per-document recount, and the
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
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _naive
from cfakit import (
    EPSILON,
    BestSelection,
    Document,
    EvaluationReport,
    FusionBatch,
    KeywordLexicon,
    LabelSet,
    ModelCounts,
    ModelPredictions,
    ValidationError,
    cognitive_diversity,
    combined_arrays,
    enumerate_combinations,
    evaluate_predictions,
    normalize_scores,
    rank_from_scores,
    tokenize,
    write_report,
)
from cfakit import fused
from cfakit.combine import grid_arrays
from cfakit.cli import main
from cfakit.fileio import _table_rows, load_score_cube, write_csv, write_diversity, write_score_file
from cfakit.fused import FUSED_HEADER, load_fused_predictions, write_fused_file

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


def _batch(cube, tie_policy="fractional", system_ids=None):
    docs, systems, labels = len(cube), len(cube[0]), len(cube[0][0])
    label_set = LabelSet(tuple(f"L{i}" for i in range(labels)))
    system_ids = system_ids or tuple(f"S{j}" for j in range(systems))
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
    batch = _batch(cube, tie_policy)
    rsc = batch.rsc
    assert rsc.shape == np.shape(cube)
    assert not rsc.flags.writeable
    assert rsc.min() >= 0.0 and rsc.max() <= 1.0
    assert not np.any(np.diff(rsc, axis=-1) > 0)
    assert rsc.tolist() == [[_naive.rsc(_naive.normalize(row)) for row in rows] for rows in cube]
    # tied labels share one score, so no tie policy moves a curve, a
    # diversity or a strength
    other = _batch(cube, "ordinal" if tie_policy == "fractional" else "fractional")
    for name in ("rsc", "cd", "ds"):
        assert getattr(batch, name).tobytes() == getattr(other, name).tobytes()
    assert "ranks" not in vars(batch)


def _oracle_models(rows, ranks, subset, weights=None):
    """Per-document naive values, higher-is-better flag and fallback flag of
    each tag, the weighted ones by the given weights or else by diversity
    strength."""
    normalized = [_naive.normalize(rows[j]) for j in subset]
    rank_rows = [ranks[j] for j in subset]
    source = "ds" if weights is None else "perf"
    if weights is None:
        curves = [_naive.rsc(v) for v in normalized]
        weights = [_naive.ds(curves, j) for j in range(len(subset))]
    score_fallback = sum(weights) <= EPSILON
    rank_fallback = any(w <= EPSILON for w in weights)
    return {
        "asc": (_naive.asc(normalized), True, False),
        "arc": (_naive.arc(rank_rows), False, False),
        f"wsc-{source}": (
            _naive.asc(normalized) if score_fallback else _naive.wsc(normalized, weights),
            True, score_fallback,
        ),
        f"wrc-{source}": (
            _naive.arc(rank_rows) if rank_fallback else _naive.wrc(rank_rows, weights),
            False, rank_fallback,
        ),
    }


@settings(max_examples=60, deadline=None)
@given(score_cubes(), st.sampled_from(("fractional", "ordinal")), st.data())
def test_kernel_grid_matches_per_document_oracle(cube, tie_policy, data):
    # system ids in a drawn order, so that the system axis need not be in
    # id order, and half the time per-system performance weights, some
    # vanishing: each subset's sums run over its systems in id order
    system_ids = data.draw(st.permutations([f"S{j}" for j in range(len(cube[0]))]))
    performance = data.draw(st.none() | st.fixed_dictionaries(
        {s: st.sampled_from((0.0, 0.25, 0.5, 1.0)) for s in system_ids}))
    batch = _batch(cube, tie_policy, tuple(system_ids))
    labels = list(batch.label_set.labels)
    rank_oracle = _naive.ranks_fractional if tie_policy == "fractional" else _naive.ranks_ordinal
    grid = dict(grid_arrays(batch, performance))
    assert len(grid) == 4 * len(enumerate_combinations(batch.system_ids))
    for d, rows in enumerate(cube):
        ranks = [rank_oracle(row) for row in rows]
        for subset in enumerate_combinations(batch.system_ids):
            idx = [batch.system_ids.index(s) for s in subset]
            weights = None if performance is None else [performance[s] for s in subset]
            models = _oracle_models(rows, ranks, idx, weights)
            for tag, (values, higher, fallback) in models.items():
                got, order, tied, fell_back = grid["+".join(subset) + ":" + tag]
                combined = got[d].tolist()
                assert fell_back[d] == fallback
                # the oracle adds left to right, the order the kernel keeps
                assert combined == values
                ranking = _naive.ranking(combined, labels, higher)
                assert [labels[i] for i in order[d]] == ranking
                best = combined[labels.index(ranking[0])]
                # the labels tied at the top lead the ranking, in label order
                assert [labels[i] for i in order[d, :tied[d]]] == [
                    l for l, v in zip(labels, combined) if v == best
                ]
                assert ranking == _naive.ranking(values, labels, higher)

    # documents fused one at a time give the same bytes as the whole batch
    for d, (doc_id, rows) in enumerate(zip(batch.doc_ids, cube)):
        one = FusionBatch((doc_id,), batch.label_set, batch.system_ids, [rows], tie_policy)
        alone = dict(grid_arrays(one, performance))
        assert list(alone) == list(grid)
        for combo_id, (values, order, tied, _) in alone.items():
            whole = grid[combo_id]
            assert values.tobytes() == whole[0][d:d + 1].tobytes()
            assert order.tolist() == whole[1][d:d + 1].tolist()
            assert tied.tolist() == whole[2][d:d + 1].tolist()


@st.composite
def evaluations(draw, names=None):
    """Random label-index predictions of individual and combined models,
    each top1 inside a tied group of one to three labels, expert labels
    that leave some label groups empty, documents in unsorted order, and a
    tie mode.  A model may copy the first one's predictions, so that two
    tie for best.  With names, a strategy of id texts, labels, document
    and model ids are drawn from it."""
    n = draw(st.integers(3, 6))
    count = draw(st.integers(1, 8))
    if names is None:
        labels = tuple(f"L{i}" for i in range(n))
        doc_ids = draw(st.permutations([f"d{i}" for i in range(count)]))
    else:
        labels = tuple(draw(st.lists(names, min_size=n, max_size=n, unique=True)))
        doc_ids = draw(st.lists(names, min_size=count, max_size=count, unique=True))
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
        if count > 1 and draw(st.booleans()):
            top1[-1], tied[-1] = top1[0], tied[0]
        ids = (tuple(f"{prefix}{k}" for k in range(count)) if names is None
               else tuple(draw(st.lists(names, min_size=count, max_size=count, unique=True))))
        return ModelPredictions(ids, labels, top1, tied)

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
    total = sum(report.label_counts.values())
    fractions = {}
    for predictions, (ids, correct, ties, overall, _) in (
        (individual, report.individual), (combined, report.combined),
    ):
        assert ids == predictions.model_ids
        assert correct.shape == ties.shape == (len(ids), label_set.n)
        assert overall.shape == (len(ids),)
        assert correct.dtype.kind == ties.dtype.kind == overall.dtype.kind == "i"
        for m, model_id in enumerate(predictions.model_ids):
            want = _recount(predictions, m, expert, tie_mode)
            assert (correct[m].sum(), total, ties[m].sum()) == want
            assert overall[m] == want[0]
            fractions[model_id] = Fraction(want[0], want[1])
            for index, label in enumerate(label_set.labels):
                # a label without documents counts 0 of 0, which the
                # writers show as null and n/a
                want = _recount(predictions, m, expert, tie_mode, index)
                assert (correct[m, index], report.label_counts[label], ties[m, index]) == want
    assert report.label_counts == {
        label: expert.tolist().count(index) for index, label in enumerate(label_set.labels)
    }

    top_individual = _best({m: fractions[m] for m in individual.model_ids})
    top_combined = _best({m: fractions[m] for m in combined.model_ids})
    assert list(report.individual.best.tied) == top_individual
    assert report.individual.best.model == top_individual[0]
    assert list(report.combined.best.tied) == top_combined
    assert report.combined.best.model == top_combined[0]

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
    assert stats == {
        "cells_ge_best_individual": (ge_best, cells),
        "cells_ge_individual_mean": (ge_mean, cells),
        "models_ge_best_individual": (models_ge, len(combined.model_ids)),
    }
    assert all(type(n) is type(d) is int for n, d in stats.values())
    assert list(stats) == ["cells_ge_best_individual", "cells_ge_individual_mean",
                           "models_ge_best_individual"]

    # the disagreement tables, recounted per document in doc_id order from
    # the best models' top-1 labels
    labels = label_set.labels
    best_ind = individual.top1[individual.model_ids.index(top_individual[0])].tolist()
    best_comb = combined.top1[combined.model_ids.index(top_combined[0])].tolist()
    agrees, neither, both_wrong = [], [], []
    for doc_id, e, i, c in sorted(zip(doc_ids, expert.tolist(), best_ind, best_comb)):
        row = (doc_id, labels[e], labels[i], labels[c])
        if c == e and i != e:
            agrees.append(row)
        elif c != e and c != i and i == e:
            neither.append(row)
        elif c == i and i != e:
            both_wrong.append(row)
    assert report.disagreements == {
        "fusion_agrees_with_expert": tuple(agrees),
        "fusion_disagrees_with_both": tuple(neither),
        "both_disagree_with_expert": tuple(both_wrong),
    }
    assert list(report.disagreements) == ["fusion_agrees_with_expert",
                                          "fusion_disagrees_with_both",
                                          "both_disagree_with_expert"]


def _texts(alphabet, min_size=1):
    return st.text(st.sampled_from(alphabet), min_size=min_size, max_size=4)


# what csv quotes (",", '"', "\n", "\r") and characters outside ASCII
ODD = 'ab,"\n\r é中'
PLAIN = "ab é中"  # what csv never quotes


@st.composite
def fused_grids(draw):
    """A tie-heavy batch with odd (or, half the time, never quoted) label,
    document and system ids, documents in unsorted order, and, half the
    time, per-system performance weights (some vanishing)."""
    cube = draw(score_cubes())
    docs, systems, labels = len(cube), len(cube[0]), len(cube[0][0])
    alphabet = draw(st.sampled_from((ODD, PLAIN)))
    label_set = LabelSet(tuple(draw(st.lists(_texts(alphabet), min_size=labels,
                                             max_size=labels, unique=True))))
    doc_ids = draw(st.lists(_texts(alphabet, 0), min_size=docs, max_size=docs, unique=True))
    system_ids = draw(st.lists(_texts(alphabet), min_size=systems, max_size=systems,
                               unique=True))
    batch = FusionBatch(doc_ids, label_set, system_ids, cube,
                        draw(st.sampled_from(("fractional", "ordinal"))))
    weight = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    performance = draw(st.none() | st.fixed_dictionaries({s: weight for s in system_ids}))
    return batch, performance


@settings(max_examples=150, deadline=None)
@given(fused_grids())
def test_fused_file_bytes_match_a_csv_writer_pass_over_grid_arrays(case):
    batch, performance = case
    grid = dict(grid_arrays(batch, performance))
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
            path, batch,
            ((combo_id, order, tied)
             for combo_id, (_, order, tied, _) in grid_arrays(batch, performance)),
        )
        assert path.read_bytes() == want.getvalue().encode("utf-8")
        # a cache beside every grid, quoted ids and labels included, read
        # once through it and once, with it deleted, from the file's rows
        cache = path.with_name("fused.csv.cache")
        reads = []
        for hit in (True, False):
            assert (fused._fused_cache(path, labels, batch.doc_ids) is not None) == hit
            reads.append(load_fused_predictions(path, batch))
            cache.unlink(missing_ok=True)
    assert models == len(grid)
    # the library's producer makes what evaluate reads back, combo by combo
    made = combined_arrays(batch, performance)
    assert made.model_ids == tuple(grid)
    assert made.labels == batch.label_set.labels
    for combo_ids, top1, tied in reads:
        assert list(combo_ids) == sorted(grid)
        order = [combo_ids.index(combo_id) for combo_id in made.model_ids]
        assert top1.dtype == np.intp
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
    as a byte that is not UTF-8, and now and then a byte-order mark ahead
    of it all."""
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
    if draw(_now_and_then(3)):
        text = "\ufeff" + text  # a byte-order mark, as Excel's "CSV UTF-8" writes
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
    """Labels, expert documents and the
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
            row[draw(st.integers(0, len(row) - 1))] = "x" * (FUSED_FIELD_LIMIT + 1)
        elif fault == "nul":
            row[draw(st.integers(0, len(row) - 1))] += "\0"
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
    return labels, doc_ids, data


_FUSED_ROWS = "".join(f"m{m},d{d},A,false,A,A|B|C\n" for m in range(3) for d in range(2))


@settings(max_examples=400, deadline=None)
@given(fused_files())
# a repeated last row and a \r inside a ranking
@example((["A", "B", "C"], ["d0", "d1"],
          (",".join(FUSED_HEADER) + "\n" + _FUSED_ROWS + "m2,d1,A,false,A,A|B|C\n").encode()))
@example((["A", "B", "C"], ["d0", "d1"],
          (",".join(FUSED_HEADER) + "\n" + _FUSED_ROWS.replace("A|B|C", "A|B\rC")).encode()))
def test_fused_predictions_match_a_row_by_row_read(case):
    labels, doc_ids, data = case
    limit = csv.field_size_limit(FUSED_FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fused.csv"
            path.write_bytes(data)
            want = _naive.fused_predictions(path, labels, doc_ids)
            batch = FusionBatch(doc_ids, LabelSet(tuple(labels)), ["s"],
                                np.zeros((len(doc_ids), 1, len(labels))))
            try:
                combo_ids, top1, tied = load_fused_predictions(path, batch)
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


def _report_payload(report):
    """report.json's content as a dict, built field by field from the report."""
    total = sum(report.label_counts.values())

    def precision(correct, total, ties):
        return {"correct": correct, "total": total, "ties": ties, "value": correct / total}

    def models(counts):
        correct, ties = counts.correct, counts.ties
        return {
            model: {
                "overall": precision(int(correct[m].sum()), total, int(ties[m].sum())),
                "per_label": {
                    label: precision(int(correct[m, l]), group, int(ties[m, l])) if group else None
                    for l, (label, group) in enumerate(report.label_counts.items())
                },
            }
            for m, model in enumerate(counts.model_ids)
        }

    return {
        "tie_mode": report.tie_mode,
        "label_counts": dict(report.label_counts),
        "individual": models(report.individual),
        "combined": models(report.combined),
        "best_individual": report.individual.best._asdict(),
        "best_combined": report.combined.best._asdict(),
        "grid_statistics": {
            name: {"numerator": n, "denominator": d, "value": n / d}
            for name, (n, d) in report.grid_stats.items()
        },
        "disagreements": {
            category: [dict(zip(("doc_id", "expert", "individual", "combined"), row))
                       for row in table]
            for category, table in report.disagreements.items()
        },
    }


# what json escapes (quote, backslash, control characters), what it
# leaves as it is with ensure_ascii=False (non-ASCII, U+2028) and ":"
_JSON_TEXT = st.text(st.sampled_from('aZ:é中"\\\0\n\x1f\x7f\u2028'), min_size=1, max_size=4)


@st.composite
def reports(draw):
    """An evaluation report with odd model ids and labels, labels in
    unsorted order with empty groups, and tied best models.  A report
    without labels has no total to score on, so there is one at least."""
    labels = draw(st.lists(_JSON_TEXT, min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(0, 40), min_size=len(labels), max_size=len(labels))
                  .filter(any))

    def models():
        ids = tuple(draw(st.lists(_JSON_TEXT, max_size=4, unique=True)))
        correct, ties = (
            np.array([[draw(st.integers(0, group)) for group in counts] for _ in ids],
                     dtype=np.intp).reshape(len(ids), len(labels))
            for _ in range(2)
        )
        tied = tuple(sorted(draw(st.lists(_JSON_TEXT, min_size=1, max_size=3, unique=True))))
        return ModelCounts(ids, correct, ties, correct.sum(axis=1), BestSelection(tied[0], tied))

    def ratio():
        total = draw(st.integers(1, 40))
        return draw(st.integers(0, total)), total

    def rows():
        return tuple(tuple(draw(st.lists(_JSON_TEXT, min_size=4, max_size=4)))
                     for _ in range(draw(st.integers(0, 2))))

    return EvaluationReport(
        tie_mode=draw(st.sampled_from(("strict", "lenient"))),
        label_counts=dict(zip(labels, counts)),
        individual=models(),
        combined=models(),
        grid_stats={name: ratio() for name in (
            "cells_ge_best_individual", "cells_ge_individual_mean", "models_ge_best_individual")},
        disagreements={category: rows() for category in (
            "fusion_agrees_with_expert", "fusion_disagrees_with_both",
            "both_disagree_with_expert")},
    )


@settings(max_examples=200, deadline=None)
@given(reports())
def test_report_json_bytes_match_json_dumps(report):
    want = json.dumps(_report_payload(report), indent=2, sort_keys=True, ensure_ascii=False)
    with tempfile.TemporaryDirectory() as tmp:
        write_report(report, tmp)
        assert (Path(tmp) / "report.json").read_bytes() == (want + "\n").encode("utf-8")


# what csv quotes, what json escapes, and ":", which splits a combo id
# into its subset and strategy in strategy_precision.csv
_REPORT_TEXT = st.text(st.sampled_from('a:,"\n\r\\\x1f é中\u2028'), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(evaluations(_REPORT_TEXT))
def test_report_files_match_a_row_by_row_writer(case):
    label_set, doc_ids, expert, individual, combined, tie_mode = case
    report = evaluate_predictions(doc_ids, label_set, expert, individual, combined, tie_mode)
    labels = label_set.labels

    def plain(p):
        return {
            model: {
                doc_id: (labels[p.top1[m, d]], {labels[i] for i in np.flatnonzero(p.tied[m, d])})
                for d, doc_id in enumerate(doc_ids)
            }
            for m, model in enumerate(p.model_ids)
        }

    want = _naive.report_files(
        tie_mode, labels, {doc_id: labels[e] for doc_id, e in zip(doc_ids, expert.tolist())},
        plain(individual), plain(combined))
    with tempfile.TemporaryDirectory() as tmp:
        write_report(report, tmp)
        got = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    assert got == {name: text.encode("utf-8") for name, text in want.items()}


def test_report_files_keep_a_percent_sign_in_labels_and_ids():
    """Labels and model ids that %-formatting would read as directives,
    one of them a label without documents."""
    labels = ("100%", "%%", "x%s", "%d")
    doc_ids = ("d%s", "d2", "d3")
    expert = np.array([0, 1, 2], dtype=np.intp)
    tied = np.zeros((2, 3, 4), dtype=bool)
    tied[0, :, 0] = tied[0, 1, 1] = tied[1, :, 2] = True
    individual = ModelPredictions(("s%d", "s%%"), labels, np.array([[0, 1, 0], [2, 2, 2]]), tied)
    combined = ModelPredictions(("%s:score",), labels, np.array([[2, 2, 2]]), tied[1:])
    report = evaluate_predictions(doc_ids, LabelSet(labels), expert, individual, combined,
                                  "lenient")
    want = _naive.report_files(
        "lenient", labels, dict(zip(doc_ids, labels)),
        {"s%d": {"d%s": ("100%", {"100%"}), "d2": ("%%", {"100%", "%%"}),
                 "d3": ("100%", {"100%"})},
         "s%%": {doc_id: ("x%s", {"x%s"}) for doc_id in doc_ids}},
        {"%s:score": {doc_id: ("x%s", {"x%s"}) for doc_id in doc_ids}})
    with tempfile.TemporaryDirectory() as tmp:
        write_report(report, tmp)
        got = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    assert got == {name: text.encode("utf-8") for name, text in want.items()}
    assert json.loads(got["report.json"])["individual"]["s%d"]["per_label"]["%d"] is None


@st.composite
def diversity_batches(draw):
    """A tie-heavy batch with odd (or, half the time, never quoted) document
    and system ids, its score cube, and the documents, some repeated, to
    write RSC tables for."""
    cube = draw(score_cubes())
    docs, systems, labels = len(cube), len(cube[0]), len(cube[0][0])
    alphabet = draw(st.sampled_from((ODD, PLAIN)))
    doc_ids = draw(st.lists(_texts(alphabet, 0), min_size=docs, max_size=docs, unique=True))
    system_ids = draw(st.lists(_texts(alphabet), min_size=systems, max_size=systems,
                               unique=True))
    label_set = LabelSet(tuple(f"L{i}" for i in range(labels)))
    batch = FusionBatch(doc_ids, label_set, system_ids, cube)
    return batch, cube, draw(st.lists(st.sampled_from(doc_ids), max_size=4))


@settings(max_examples=150, deadline=None)
@given(diversity_batches())
def test_diversity_files_match_a_row_by_row_writer(case):
    batch, cube, docs = case
    rsc_docs = list(dict.fromkeys(docs))
    want = _naive.diversity_files(batch.doc_ids, batch.system_ids,
                                  dict(zip(batch.doc_ids, cube)), rsc_docs)
    # two documents whose RSC tables share a file name are refused (test_cli)
    assume(len(want) == 4 + len(rsc_docs))
    with tempfile.TemporaryDirectory() as tmp:
        assert write_diversity(batch, Path(tmp), docs) == len(rsc_docs)
        got = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    assert got == {name: text.encode("utf-8") for name, text in want.items()}


# floats whose repr is long ("0.30000000000000004"), in exponent form or -0.0
_ODD_FLOATS = (-0.0, 0.1 + 0.2, 1e-7, 5e-324, 1e16, -1.7976931348623157e308, 2.5e-05)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_file_matches_a_row_by_row_writer(data):
    labels = data.draw(st.lists(_texts(ODD), min_size=3, max_size=4, unique=True))
    doc_ids = data.draw(st.lists(_texts(ODD, 0), min_size=1, max_size=4, unique=True))
    score = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(_ODD_FLOATS))
    # each document's labels in an order of its own, as a scorer may give them
    scores = {doc_id: dict(data.draw(st.permutations([(label, data.draw(score))
                                                        for label in labels])))
              for doc_id in doc_ids}
    want = _naive.score_file_text(scores, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        write_score_file(path, scores, LabelSet(tuple(labels)))
        assert path.read_bytes() == want.encode("utf-8")


# corpus labels that csv quotes or not; None leaves a record unlabeled
_STATS_LABELS = ("a,b", 'q"', "n\nl", "r\rx", "plain", "é中", None)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_STATS_LABELS),
                          st.lists(st.sampled_from(("a", "b", "c", "a.", "!")), max_size=5)),
                # below 8 values numpy's mean adds them left to right, as the
                # oracle does; from 8 on it adds them pairwise
                min_size=1, max_size=7))
def test_corpus_stats_file_matches_a_row_by_row_writer(records):
    # short texts leave a metric undefined in a document, and now and then
    # in a whole group: no token ("!"), fewer than two or three tokens
    records = [(label, " ".join(words)) for label, words in records]
    want = _naive.corpus_stats_text(records)
    with tempfile.TemporaryDirectory() as tmp:
        corpus, config = Path(tmp) / "c.jsonl", Path(tmp) / "config.json"
        corpus.write_text("".join(
            json.dumps({"doc_id": f"d{i}", "text": text, "label": label}) + "\n"
            for i, (label, text) in enumerate(records)), encoding="utf-8")
        config.write_text(json.dumps({"out_dir": "out"}), encoding="utf-8")
        assert main(["corpus-stats", "--config", str(config), "--corpus", str(corpus)]) == 0
        got = (Path(tmp) / "out" / "corpus_stats.csv").read_bytes()
    assert got == want.encode("utf-8")


# words drawn from a few letters, edge punctuation and odd whitespace
_WORDY = "aZé9中-.,!¿«» \t\n\u00a0\u2028"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(_WORDY), st.text()))
def test_tokenize_matches_oracle(text):
    assert tokenize(text) == _naive.tokenize(text)


_KEYWORD_LABELS = ("L1", "L2", "L3")


@st.composite
def keyword_cases(draw):
    """Token streams and lexicons over 3 or 4 words, so that phrases match,
    overlap and repeat often; empty documents included.  Each lexicon
    covers the label set L1, L2, L3, in any order."""
    words = "abcd"[: draw(st.integers(3, 4))]
    tokens = draw(st.lists(st.sampled_from(words), max_size=30))
    phrase = st.lists(st.sampled_from(words), min_size=1, max_size=4)
    labels = draw(st.permutations(_KEYWORD_LABELS))
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
    got = KeywordLexicon(raw, LabelSet(_KEYWORD_LABELS)).score(Document("d", " ".join(tokens)))
    assert got == _naive.keyword_scores(tokens, lexicon)
