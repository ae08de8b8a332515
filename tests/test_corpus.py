"""Tests for tokenization, lexical metrics, prompts, and the two scorers."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

import _naive
from cfakit import (
    Document,
    KeywordLexicon,
    LabelSet,
    PromptSpec,
    TfidfCentroidScorer,
    ValidationError,
    corpus_quality_report,
    distinct_n,
    generate_prompt_matrix,
    tokenize,
    type_token_ratio,
)


def _doc(text: str) -> Document:
    return Document("d", text)


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("Water, water!") == ("water", "water")


def test_tokenize_keeps_interior_hyphen():
    assert tokenize("SDG-6 goals") == ("sdg-6", "goals")


def test_tokenize_drops_punctuation_only_tokens():
    assert tokenize("a -- b ...") == ("a", "b")


def test_tokenize_handles_unicode_punctuation_and_whitespace():
    assert tokenize("«quoted» word") == ("quoted", "word")


def test_tokenize_empty_and_non_string():
    assert tokenize("   ") == ()
    with pytest.raises(ValidationError):
        tokenize(42)


def test_type_token_ratio():
    assert type_token_ratio(_doc("water water sanitation access")) == 0.75
    assert type_token_ratio(_doc("")) is None
    assert type_token_ratio(Document("d1", "one two three")) == 1.0


def test_distinct_n_known_values():
    assert distinct_n(_doc("a b a b"), 2) == 2.0 / 3.0
    assert distinct_n(_doc("a b c"), 3) == 1.0  # exactly one trigram
    assert distinct_n(_doc("a b"), 3) is None  # too short: undefined, not zero
    assert distinct_n(_doc("a a a a"), 1) == 0.25


def test_distinct_n_order_validation():
    with pytest.raises(ValidationError):
        distinct_n(_doc("a b c"), 0)


def test_lexical_metrics_match_naive_oracle():
    rng = np.random.default_rng(23)
    alphabet = ["aqua", "terra", "ignis", "ventus", "lux"]
    for _ in range(50):
        words = [alphabet[int(i)] for i in rng.integers(0, 5, size=int(rng.integers(1, 30)))]
        doc = _doc(" ".join(words))
        for n in (1, 2, 3):
            expected = _naive.distinct_n(words, n)
            assert distinct_n(doc, n) == expected
        assert type_token_ratio(doc) == len(set(words)) / len(words)


def test_document_requires_id():
    with pytest.raises(ValidationError):
        Document("", "text")


def test_quality_report_groups_and_ordering():
    corpus = [
        Document("d1", "clean water for all", label="SDG6"),
        Document("d2", "water water water", label="SDG6"),
        Document("d3", "quality education everywhere", label="SDG4"),
        Document("d4", "stray note"),
    ]
    rows = corpus_quality_report(corpus)
    assert [r.label for r in rows] == ["SDG4", "SDG6", "unlabeled", "overall"]
    by_label = {r.label: r for r in rows}
    assert by_label["SDG6"].doc_count == 2
    assert by_label["SDG6"].mean_ttr == (1.0 + 1.0 / 3.0) / 2.0
    assert by_label["overall"].doc_count == 4
    assert by_label["overall"].mean_tokens == (4 + 3 + 3 + 2) / 4.0


def test_quality_report_excludes_undefined_metrics_from_means():
    corpus = [
        Document("d1", "word", label="L"),  # distinct-2 and -3 undefined
        Document("d2", "alpha beta alpha beta", label="L"),
        Document("d3", "solo", label="M"),
    ]
    rows = corpus_quality_report(corpus)
    by_label = {r.label: r for r in rows}
    # d1 contributes nothing to the n-gram means, only d2 does
    assert by_label["L"].mean_distinct2 == 2.0 / 3.0
    assert by_label["L"].mean_distinct3 == 1.0
    # a group where the metric is undefined everywhere reports None
    assert by_label["M"].mean_distinct2 is None
    assert by_label["M"].mean_ttr == 1.0


def test_quality_report_empty_corpus():
    with pytest.raises(ValidationError):
        corpus_quality_report([])


def test_prompt_matrix_shape_and_example():
    spec = PromptSpec(
        publication_type="briefing note",
        template="Draft a briefing note on {label} in the voice of {source}",
        sources=("a development economist", "a field reporter"),
    )
    labels = LabelSet(("SDG 6", "SDG 13", "SDG 4"))
    prompts = generate_prompt_matrix([spec], labels)
    assert len(prompts) == 6  # 2 sources x 3 labels
    first = prompts[0]
    assert first.prompt_id == "p00001"
    assert first.text == (
        "Draft a briefing note on SDG 6 in the voice of a development economist"
    )
    assert first.source == "a development economist"
    assert first.label == "SDG 6"
    assert [p.prompt_id for p in prompts] == [f"p{i:05d}" for i in range(1, 7)]


def test_prompt_matrix_counts_all_specs():
    specs = [
        PromptSpec("news", "A news piece on {label} from {source}", ("Reuters",)),
        PromptSpec("blog", "A blog post on {label} by {source}", ("x", "y", "z")),
    ]
    prompts = generate_prompt_matrix(specs, LabelSet(("A", "B", "C", "D")))
    assert len(prompts) == (1 + 3) * 4
    assert {p.publication_type for p in prompts} == {"news", "blog"}


def test_prompt_matrix_is_deterministic():
    spec = PromptSpec("t", "{label} via {source}", ("s1", "s2"))
    once = generate_prompt_matrix([spec], LabelSet(("A", "B", "C")))
    twice = generate_prompt_matrix([spec], LabelSet(("A", "B", "C")))
    assert once == twice


def test_prompt_template_placeholder_validation():
    bad = PromptSpec("t", "no placeholders here", ("s",))
    with pytest.raises(ValidationError, match="prompt spec 0"):
        generate_prompt_matrix([bad], LabelSet(("A", "B", "C")))
    doubled = PromptSpec("t", "{label} and {label} by {source}", ("s",))
    with pytest.raises(ValidationError, match="exactly once, found 2"):
        generate_prompt_matrix([doubled], LabelSet(("A", "B", "C")))


def test_prompt_placeholders_are_substituted_in_one_pass():
    # text put in for one placeholder is kept as it is, placeholders and all
    spec = PromptSpec("t", "Write a {source} piece about {label}.", ("The {label} Times",))
    prompts = generate_prompt_matrix([spec], LabelSet(("SDG1", "the {source} goal", "C")))
    assert [p.text for p in prompts] == [
        "Write a The {label} Times piece about SDG1.",
        "Write a The {label} Times piece about the {source} goal.",
        "Write a The {label} Times piece about C.",
    ]
    label_first = PromptSpec("t", "On {label}, by {source}", ("{label}",))
    assert generate_prompt_matrix([label_first], LabelSet(("{source}", "B", "C")))[0].text == (
        "On {source}, by {label}")


LMN = LabelSet(("L", "M", "N"))


def test_keyword_scorer_known_value():
    lexicon = KeywordLexicon(
        {"SDG6": ["water", "sanitation"], "SDG4": ["education"], "SDG13": ["climate"]},
        LabelSet(("SDG4", "SDG6", "SDG13")),
    )
    scores = lexicon.score(_doc("water water sanitation access"))
    # freq 3 of 4 tokens, 2 distinct phrases: (3/4) * (1 + log2(3))
    assert scores["SDG6"] == 1.938721875540867
    assert scores["SDG4"] == 0.0


def test_keyword_scorer_counts_overlapping_phrase_matches():
    lexicon = KeywordLexicon({"L": ["a a"], "M": ["m"], "N": ["n"]}, LMN)
    scores = lexicon.score(_doc("a a a"))
    # two overlapping bigram matches in three tokens, one distinct phrase
    assert scores["L"] == (2.0 / 3.0) * 2.0


def test_keyword_scorer_empty_document():
    lexicon = KeywordLexicon({"L1": ["x"], "L2": ["y"], "L3": ["z"]},
                             LabelSet(("L1", "L2", "L3")))
    assert lexicon.score(_doc("")) == {"L1": 0.0, "L2": 0.0, "L3": 0.0}


def test_keyword_scorer_invariant_under_text_duplication():
    # doubling the text doubles both frequency and length for
    # single-token phrases, so the density score is unchanged
    lexicon = KeywordLexicon({"L": ["water", "access"], "M": ["m"], "N": ["n"]}, LMN)
    text = "water access to clean water"
    single = lexicon.score(_doc(text))["L"]
    double = lexicon.score(_doc(text + " " + text))["L"]
    assert double == single


def test_keyword_scorer_accepts_documents():
    lexicon = KeywordLexicon({"L": ["clean water"], "M": ["m"], "N": ["n"]}, LMN)
    doc = Document("d1", "Clean water, clean water!")
    assert lexicon.score(doc)["L"] == (2.0 / 4.0) * 2.0


def test_lexicon_phrase_length_bounds():
    with pytest.raises(ValidationError, match="1 to 4 tokens"):
        KeywordLexicon({"L": ["one two three four five"], "M": ["m"], "N": ["n"]}, LMN)
    with pytest.raises(ValidationError, match="1 to 4 tokens"):
        KeywordLexicon({"L": ["..."], "M": ["m"], "N": ["n"]}, LMN)  # tokenizes to nothing


def test_lexicon_rejects_empty():
    with pytest.raises(ValidationError):
        KeywordLexicon({}, LMN)
    with pytest.raises(ValidationError, match="no phrases"):
        KeywordLexicon({"L": [], "M": ["m"], "N": ["n"]}, LMN)


def test_lexicon_covers_exactly_the_label_set():
    with pytest.raises(ValidationError, match=r"lexicon lacks phrases for labels \['N'\]"):
        KeywordLexicon({"L": ["l"], "M": ["m"]}, LMN)
    with pytest.raises(ValidationError, match=r"lexicon covers unknown labels \['O'\]"):
        KeywordLexicon({"L": ["l"], "M": ["m"], "N": ["n"], "O": ["o"]}, LMN)


def test_lexicon_widths_are_the_distinct_phrase_lengths():
    lexicon = KeywordLexicon({"A": ["clean water", "water"], "B": ["a b c", "x y"], "C": ["c"]},
                             LabelSet(("A", "B", "C")))
    assert lexicon.widths == (1, 2, 3)


def _naive_tfidf(train, query_tokens):
    """Dict-based tf-idf centroid scorer used as an independent check."""
    vocabulary = sorted({t for _, tokens in train for t in tokens})
    n_docs = len(train)
    idf = {}
    for term in vocabulary:
        df = sum(1 for _, tokens in train if term in set(tokens))
        idf[term] = math.log(1.0 + n_docs / df)

    def embed(tokens):
        counts = Counter(t for t in tokens if t in idf)
        return {t: c * idf[t] for t, c in counts.items()}

    centroids = {}
    for label in sorted({lab for lab, _ in train}):
        vectors = [embed(tokens) for lab, tokens in train if lab == label]
        centroid = {}
        for vector in vectors:
            for term, value in vector.items():
                centroid[term] = centroid.get(term, 0.0) + value
        centroids[label] = {t: v / len(vectors) for t, v in centroid.items()}

    query = embed(query_tokens)
    q_norm = math.sqrt(sum(v * v for v in query.values()))
    scores = {}
    for label, centroid in centroids.items():
        c_norm = math.sqrt(sum(v * v for v in centroid.values()))
        dot = sum(query.get(t, 0.0) * v for t, v in centroid.items())
        scores[label] = 0.0 if q_norm * c_norm == 0.0 else dot / (q_norm * c_norm)
    return scores


def test_tfidf_scorer_matches_naive_oracle():
    train_docs = [
        Document("t1", "clean water and safe water", label="SDG6"),
        Document("t2", "sanitation systems need water", label="SDG6"),
        Document("t3", "education for every child", label="SDG4"),
        Document("t4", "child learning and education quality", label="SDG4"),
        Document("t5", "climate action against warming", label="SDG13"),
    ]
    scorer = TfidfCentroidScorer(train_docs, LabelSet(("SDG13", "SDG4", "SDG6")))
    queries = [
        "water sanitation for every child",
        "education education climate",
        "clean warming systems",
    ]
    for text in queries:
        expected = _naive_tfidf(
            [(d.label, list(d.tokens)) for d in train_docs], tokenize(text)
        )
        got = scorer.score(_doc(text))
        assert set(got) == set(expected)
        for label in expected:
            # within 1e-12: the scorer sums through BLAS (ROADMAP item 2)
            assert got[label] == pytest.approx(expected[label], abs=1e-12)


def test_tfidf_disjoint_vocabulary_separates_labels():
    train_docs = [
        Document("t1", "alpha beta alpha", label="X"),
        Document("t2", "beta alpha beta", label="X"),
        Document("t3", "gamma delta gamma", label="Y"),
        Document("t4", "delta gamma delta", label="Y"),
        Document("t5", "epsilon", label="Z"),
    ]
    scorer = TfidfCentroidScorer(train_docs, LabelSet(("X", "Y", "Z")))
    scores = scorer.score(_doc("alpha beta"))
    assert scores["X"] > 0.9
    assert scores["Y"] == 0.0


def test_tfidf_respects_label_set_order_and_coverage():
    train_docs = [Document(f"t{label}", "alpha", label=label) for label in "XYZ"]
    scorer = TfidfCentroidScorer(train_docs, LabelSet(("Z", "X", "Y")))
    assert list(scorer.score(_doc("alpha"))) == ["Z", "X", "Y"]
    with pytest.raises(ValidationError, match=r"\['Y', 'Z'\]"):
        TfidfCentroidScorer(train_docs[:1], LabelSet(("X", "Y", "Z")))
    # a document outside the label set would shift the idf unseen
    with pytest.raises(ValidationError, match=r"unknown labels \['W'\]"):
        TfidfCentroidScorer(
            [Document(f"t{label}", "alpha", label=label) for label in "WXYZ"],
            LabelSet(("X", "Y", "Z")),
        )


def test_tfidf_rejects_unlabeled_training_docs():
    with pytest.raises(ValidationError, match=r"\['t2'\]"):
        TfidfCentroidScorer(
            [Document("t1", "a", label="X"), Document("t2", "b")], LabelSet(("X", "Y", "Z"))
        )


def test_tfidf_unseen_vocabulary_scores_zero():
    scorer = TfidfCentroidScorer(
        [
            Document("t1", "alpha beta", label="X"),
            Document("t2", "gamma", label="Y"),
            Document("t3", "delta", label="Z"),
        ],
        LabelSet(("X", "Y", "Z")),
    )
    scores = scorer.score(_doc("omicron sigma"))
    assert scores == {"X": 0.0, "Y": 0.0, "Z": 0.0}


def test_tfidf_scorer_refuses_an_empty_corpus():
    with pytest.raises(ValidationError, match="empty"):
        TfidfCentroidScorer([], LabelSet(("X", "Y", "Z")))


def test_tfidf_errors_name_at_most_ten_ids():
    xyz = LabelSet(("X", "Y", "Z"))
    labeled = [Document(f"t{label}", "alpha", label=label) for label in "XYZ"]
    unlabeled = [Document(f"u{i:02d}", "beta") for i in range(30)]
    first_ten = [f"u{i:02d}" for i in range(10)]
    with pytest.raises(ValidationError) as caught:
        TfidfCentroidScorer(labeled + unlabeled, xyz)
    assert str(caught.value) == (
        f"training documents must be labeled; unlabeled: {first_ten} (30 in all)")
    unknown = [Document(f"u{i:02d}", "beta", label=f"W{i:02d}") for i in range(12)]
    with pytest.raises(ValidationError) as caught:
        TfidfCentroidScorer(labeled + unknown, xyz)
    assert str(caught.value) == (
        f"training documents have unknown labels {[f'W{i:02d}' for i in range(10)]} (12 in all)")
