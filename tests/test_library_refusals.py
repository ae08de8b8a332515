"""The library boundary: one rule per input form, each refused with a
ValidationError and the one text of its rule.

LIBRARY_REFUSALS holds one malformed call per row, with the whole error
text it must raise; LIBRARY_DOMAIN_ERRORS one call outside an
operation's domain per row, with the whole text of its DomainError.  The
property below checks that every call taking a sequence of ids refuses
each wrong form of it through settings._ids, the one check of ids, with
_ids' own text.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfakit import (
    Document,
    DomainError,
    FusionBatch,
    GenerationConfig,
    KeywordLexicon,
    LabelSet,
    ModelPredictions,
    Prompt,
    TfidfCentroidScorer,
    ValidationError,
    cognitive_diversity,
    corpus_quality_report,
    distinct_n,
    diversity_strength,
    enumerate_combinations,
    evaluate_predictions,
    expert_indices,
    generate_corpus,
    generate_prompt_matrix,
    grid_arrays,
    normalize_scores,
    select_best,
    tokenize,
)
from cfakit.fileio import load_config
from cfakit.settings import _ids

LABELS = LabelSet(("A", "B", "C"))
RAW = [[[0.1, 0.7, 0.4], [0.3, 0.2, 0.9]]]  # one document, two systems


def _predictions(model_ids, top1=((0,),), tied=(((True, False, False),),)):
    """Predictions on one document, top1 and tied as given (lists, tuples or arrays)."""
    return ModelPredictions(model_ids, LABELS.labels, top1, tied)


def _evaluate(individual=None, combined=None, expert=(0,), doc_ids=("d1",)):
    return evaluate_predictions(doc_ids, LABELS, expert, individual or _predictions(("s",)),
                                combined or _predictions(("s+t:asc",)))


def _generate(prompts):
    # refused before out_dir is made or any prompt is fetched
    out_dir = Path(tempfile.gettempdir()) / "cfakit-never-written"
    return generate_corpus(prompts, GenerationConfig("http://127.0.0.1:9/"), out_dir)


COUNTS = "best model selection needs one integer correct count per model"
INDICES = "top1 must hold label indices and tied booleans"
RAGGED = "expert indices and predictions must be rectangular"
CONCURRENCY = "max_concurrency must be an integer of at least 1"
TIMEOUT = "timeout must be a finite number of seconds above 0"

# (case, a malformed library call, the whole text of its ValidationError)
LIBRARY_REFUSALS = [
    # a str where a sequence of ids belongs is refused, not read as characters
    ("label-set-string", lambda: LabelSet("ABC"), "labels must be a sequence, got str"),
    ("batch-doc-ids-string", lambda: FusionBatch("d1", LABELS, ("s", "t"), RAW),
     "doc ids must be a sequence, got str"),
    ("batch-system-ids-string", lambda: FusionBatch(("d1",), LABELS, "st", RAW),
     "system ids must be a sequence, got str"),
    ("select-best-string", lambda: select_best("ab", [1, 2]),
     "model ids must be a sequence, got str"),
    ("combinations-string", lambda: enumerate_combinations("abc"),
     "system ids must be a sequence, got str"),
    ("expert-indices-string", lambda: expert_indices({"d1": "A"}, LABELS, "d1"),
     "doc ids must be a sequence, got str"),
    ("evaluate-doc-ids-string", lambda: _evaluate(doc_ids="d1"),
     "doc ids must be a sequence, got str"),
    ("evaluate-doc-ids-none", lambda: _evaluate(doc_ids=None),
     "doc ids must be a sequence, got NoneType"),
    # a repeated document would be counted twice
    ("evaluate-doc-id-repeated", lambda: _evaluate(expert=(0, 0), doc_ids=("d1", "d1")),
     "duplicate doc id 'd1'"),
    # a count is an int that is not a bool
    ("select-best-string-count", lambda: select_best(["a"], ["x"]), COUNTS),
    ("select-best-bool-counts", lambda: select_best(["a", "b"], [True, 1]), COUNTS),
    ("select-best-float-count", lambda: select_best(["a"], [1.0]), COUNTS),
    # a wrong form of value
    ("evaluate-float-top1-list", lambda: _evaluate(_predictions(("s",), top1=[[0.0]])), INDICES),
    ("evaluate-int-tied-list",
     lambda: _evaluate(combined=_predictions(("s+t:asc",), tied=[[[1, 0, 0]]])), INDICES),
    # a ragged list is refused, not left to numpy's ValueError
    ("evaluate-ragged-top1", lambda: _evaluate(_predictions(("s",), top1=[[0], [0, 1]])), RAGGED),
    ("evaluate-ragged-tied",
     lambda: _evaluate(combined=_predictions(("s+t:asc",), tied=[[[True, False, False]], [[1]]])),
     RAGGED),
    ("evaluate-ragged-expert",
     lambda: evaluate_predictions(["d1"], LABELS, [[0], [0, 1]], _predictions(("s",)),
                                  _predictions(("s+t:asc",))),
     RAGGED),
    ("diversity-strength-string", lambda: diversity_strength("x"),
     "cognitive diversity values do not form a rectangular array of numbers"),
    ("diversity-strength-nan", lambda: diversity_strength([[0.0, math.nan], [math.nan, 0.0]]),
     "cognitive diversity value at index (0, 1) is not finite: nan"),
    ("label-set-none", lambda: LabelSet(None), "labels must be a sequence, got NoneType"),
    ("label-set-empty-label", lambda: LabelSet(("A", "", "C")),
     "label '' is empty or holds the reserved '|'"),
    ("label-set-pipe", lambda: LabelSet(("A", "B|C", "D")),
     "label 'B|C' is empty or holds the reserved '|'"),
    ("select-best-none-counts", lambda: select_best(["a"], None), COUNTS),
    ("combinations-none", lambda: enumerate_combinations(None),
     "system ids must be a sequence, got NoneType"),
    ("distinct-n-string", lambda: distinct_n(Document("d", "a b"), "x"),
     "n-gram order must be an integer of at least 1, got 'x'"),
    ("distinct-n-bool", lambda: distinct_n(Document("d", "a b"), True),
     "n-gram order must be an integer of at least 1, got True"),
    ("lexicon-list", lambda: KeywordLexicon(["x"], LABELS),
     "lexicon must be a JSON object of label -> phrases"),
    # a real is not a bool, as a count is not
    ("grid-bool-weights",
     lambda: grid_arrays(FusionBatch(("d1",), LABELS, ("s", "t"), RAW), {"s": True, "t": False}),
     "performance weights must be finite and non-negative numbers"),
    # the generation settings
    ("generation-timeout-string", lambda: GenerationConfig("http://x", timeout="x"), TIMEOUT),
    ("generation-timeout-nan", lambda: GenerationConfig("http://x", timeout=math.nan), TIMEOUT),
    ("generation-timeout-zero", lambda: GenerationConfig("http://x", timeout=0), TIMEOUT),
    ("generation-timeout-bool", lambda: GenerationConfig("http://x", timeout=True), TIMEOUT),
    ("generation-max-concurrency-bool",
     lambda: GenerationConfig("http://x", max_concurrency=True), CONCURRENCY),
    ("generation-max-concurrency-string",
     lambda: GenerationConfig("http://x", max_concurrency="4"), CONCURRENCY),
    ("generation-max-concurrency-zero",
     lambda: GenerationConfig("http://x", max_concurrency=0), CONCURRENCY),
    ("label-set-integer-label", lambda: LabelSet(("A", 5, "C")),
     "labels must be strings, got int"),
    # a sequence of records takes the sequence test of ids
    ("prompt-matrix-none", lambda: generate_prompt_matrix(None, LABELS),
     "prompt specs must be a sequence, got NoneType"),
    ("quality-report-none", lambda: corpus_quality_report(None),
     "corpus must be a sequence, got NoneType"),
    ("tfidf-training-none", lambda: TfidfCentroidScorer(None, LABELS),
     "training corpus must be a sequence, got NoneType"),
    ("generate-corpus-none", lambda: _generate(None), "prompts must be a sequence, got NoneType"),
    # an empty sequence where a call needs at least one element
    ("batch-without-documents", lambda: FusionBatch((), LABELS, ("s", "t"), RAW),
     "at least one document is required"),
    ("batch-without-systems", lambda: FusionBatch(("d1",), LABELS, (), RAW),
     "at least one scoring system is required"),
    ("quality-report-empty", lambda: corpus_quality_report([]),
     "cannot report on an empty corpus"),
    ("tfidf-training-empty", lambda: TfidfCentroidScorer([], LABELS),
     "training corpus is empty"),
    ("select-best-empty", lambda: select_best([], []),
     "cannot select the best model from empty results"),
    ("evaluate-without-individual-models", lambda: _evaluate(_predictions(())),
     "the report needs individual and combined predictions"),
    # an array of the wrong shape or out of range
    ("raw-score-scalar", lambda: normalize_scores(5), "raw score must form a vector"),
    ("raw-score-empty", lambda: normalize_scores([]), "raw score vector is empty"),
    ("batch-raw-shape", lambda: FusionBatch(("d1",), LABELS, ("s",), RAW),
     "raw scores have shape (1, 2, 3), expected (1, 1, 3) for documents x systems x labels"),
    ("curves-differ-in-length", lambda: cognitive_diversity([0.0, 0.5, 1.0], [0.0, 0.5]),
     "curves differ in length: (3,) versus (2,)"),
    ("diversity-strength-not-square", lambda: diversity_strength([[0.0, 1.0]]),
     "cognitive diversity matrix must be square"),
    ("evaluate-expert-outside-labels", lambda: _evaluate(expert=[3]),
     "evaluation needs one expert label-set index per document"),
    ("evaluate-top1-of-two-documents", lambda: _evaluate(_predictions(("s",), top1=[[0, 0]])),
     "predictions must be (models, documents) arrays on the label set's labels"),
    ("evaluate-top1-outside-its-tied-group", lambda: _evaluate(_predictions(("s",), top1=[[1]])),
     "each top1 must be a label index inside its tied group"),
    # wsc divides by the weights' sum, so it must not overflow
    ("grid-performance-weights-sum-overflows",
     lambda: grid_arrays(FusionBatch(("d1",), LABELS, ("s", "t"), RAW), {"s": 1e308, "t": 1e308}),
     "performance weights must have a finite sum"),
    ("grid-missing-performance-weight",
     lambda: grid_arrays(FusionBatch(("d1",), LABELS, ("s", "t"), RAW), {"s": 1.0}),
     "missing performance weights for systems ['t']"),
    # a record's own text
    ("tokenize-none", lambda: tokenize(None), "text must be a string"),
    ("document-id-empty", lambda: Document("", "x"), "doc_id must be a non-empty string"),
]

# (case, a library call outside an operation's domain, the whole text of its DomainError)
LIBRARY_DOMAIN_ERRORS = [
    ("cognitive-diversity-of-two-labels", lambda: cognitive_diversity([0.0, 1.0], [1.0, 0.0]),
     "cognitive diversity needs at least 3 labels, got 2"),
    ("diversity-strength-of-one-system", lambda: diversity_strength([[0.0]]),
     "diversity strength needs at least two systems"),
]


@pytest.mark.parametrize("call, text", [case[1:] for case in LIBRARY_REFUSALS],
                         ids=[case[0] for case in LIBRARY_REFUSALS])
def test_a_malformed_library_call_raises_one_validation_error(call, text):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == text


@pytest.mark.parametrize("call, text", [case[1:] for case in LIBRARY_DOMAIN_ERRORS],
                         ids=[case[0] for case in LIBRARY_DOMAIN_ERRORS])
def test_a_library_call_outside_its_domain_raises_one_domain_error(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text


def test_lists_work_wherever_arrays_do():
    eye = np.eye(3, dtype=bool)
    arrays = _evaluate(_predictions(("s",), np.array([[0]]), eye[None, :1]),
                       _predictions(("s+t:asc",), np.array([[1]]), eye[None, 1:2]))
    lists = _evaluate(_predictions(("s",), [[0]], [[[True, False, False]]]),
                      _predictions(("s+t:asc",), [[1]], [[[False, True, False]]]))
    for report in (arrays, lists):
        assert report.individual.overall.tolist() == [1]
        assert report.combined.overall.tolist() == [0]
        assert report.grid_stats == {"cells_ge_best_individual": (0, 1),
                                     "cells_ge_individual_mean": (0, 1),
                                     "models_ge_best_individual": (0, 1)}
    assert lists.disagreements == arrays.disagreements
    assert lists.disagreements["fusion_disagrees_with_both"] == (("d1", "A", "A", "B"),)


def test_a_repeated_system_id_reads_the_same_from_the_config_and_the_batch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"labels": ["A", "B", "C"], "systems": [
        {"id": "s", "path": "s.csv"}, {"id": "s", "path": "t.csv"}]}))
    with pytest.raises(ValidationError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: duplicate system id 's'"
    with pytest.raises(ValidationError) as info:
        FusionBatch(("d1",), LABELS, ("s", "s"), RAW)
    assert str(info.value) == "duplicate system id 's'"


# each call that takes a sequence of ids: the noun its errors use, whether
# it takes the sequence itself (generate_corpus takes each id from a
# Prompt; a str or None for its prompts is the generate-corpus-none row),
# and the call
ID_ENTRIES = {
    "LabelSet": ("label", True, LabelSet),
    "FusionBatch-doc-ids": ("doc id", True, lambda ids: FusionBatch(ids, LABELS, ("s",), RAW)),
    "FusionBatch-system-ids": ("system id", True,
                               lambda ids: FusionBatch(("d1",), LABELS, ids, RAW)),
    "enumerate_combinations": ("system id", True, enumerate_combinations),
    "evaluate_predictions": ("model id", True, lambda ids: _evaluate(_predictions(ids))),
    "evaluate_predictions-doc-ids": ("doc id", True, lambda ids: _evaluate(doc_ids=ids)),
    "select_best": ("model id", True, lambda ids: select_best(ids, [1])),
    "expert_indices": ("doc id", True, lambda ids: expert_indices({"d1": "A"}, LABELS, ids)),
    "generate_corpus": ("prompt id", False,
                        lambda ids: _generate([Prompt(i, "A", "t", "s", "text") for i in ids])),
}

_ID = st.text("ab+:|", max_size=3)
_NOT_A_STRING = st.none() | st.booleans() | st.integers() | st.floats() | st.binary(max_size=2)


@st.composite
def malformed_ids(draw, whole: bool):
    """A wrong form of a sequence of ids: a str or None (when whole), or a
    list of distinct strings with one non-string or one repeated id put in."""
    form = draw(st.sampled_from(("str", "none", "element", "repeat") if whole
                                else ("element", "repeat")))
    if form == "str":
        return draw(_ID)
    if form == "none":
        return None
    ids = draw(st.lists(_ID, min_size=1, max_size=4, unique=True))
    bad = draw(_NOT_A_STRING if form == "element" else st.sampled_from(ids))
    ids.insert(draw(st.integers(0, len(ids))), bad)
    return ids


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ID_ENTRIES)), st.data())
def test_every_id_taking_call_refuses_a_wrong_form_with_the_one_ids_text(name, data):
    what, whole, call = ID_ENTRIES[name]
    ids = data.draw(malformed_ids(whole))
    with pytest.raises(ValidationError) as expected:
        _ids(ids, what)
    with pytest.raises(ValidationError) as info:
        call(ids)
    assert str(info.value) == str(expected.value)
