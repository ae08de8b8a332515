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
    keyword_scorer,
    tokenize,
    type_token_ratio,
)


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
    assert type_token_ratio("water water sanitation access") == 0.75
    assert type_token_ratio("") is None
    assert type_token_ratio(Document("d1", "one two three")) == 1.0


def test_distinct_n_known_values():
    assert distinct_n("a b a b", 2) == pytest.approx(2.0 / 3.0)
    assert distinct_n("a b c", 3) == 1.0  # exactly one trigram
    assert distinct_n("a b", 3) is None  # too short: undefined, not zero
    assert distinct_n("a a a a", 1) == 0.25


def test_distinct_n_order_validation():
    with pytest.raises(ValidationError):
        distinct_n("a b c", 0)


def test_lexical_metrics_match_naive_oracle():
    rng = np.random.default_rng(23)
    alphabet = ["aqua", "terra", "ignis", "ventus", "lux"]
    for _ in range(50):
        words = [alphabet[int(i)] for i in rng.integers(0, 5, size=int(rng.integers(1, 30)))]
        text = " ".join(words)
        for n in (1, 2, 3):
            expected = _naive.distinct_n(words, n)
            assert distinct_n(text, n) == pytest.approx(expected, abs=1e-15)
        assert type_token_ratio(text) == pytest.approx(
            len(set(words)) / len(words), abs=1e-15
        )


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
    assert by_label["SDG6"].mean_ttr == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)
    assert by_label["overall"].doc_count == 4
    assert by_label["overall"].mean_tokens == pytest.approx((4 + 3 + 3 + 2) / 4.0)


def test_quality_report_excludes_undefined_metrics_from_means():
    corpus = [
        Document("d1", "word", label="L"),  # distinct-2 and -3 undefined
        Document("d2", "alpha beta alpha beta", label="L"),
        Document("d3", "solo", label="M"),
    ]
    rows = corpus_quality_report(corpus)
    by_label = {r.label: r for r in rows}
    # d1 contributes nothing to the n-gram means, only d2 does
    assert by_label["L"].mean_distinct2 == pytest.approx(2.0 / 3.0)
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
    labels = ("SDG 6", "SDG 13", "SDG 4")
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
    once = generate_prompt_matrix([spec], ("A", "B", "C"))
    twice = generate_prompt_matrix([spec], ("A", "B", "C"))
    assert once == twice


def test_prompt_template_placeholder_validation():
    bad = PromptSpec("t", "no placeholders here", ("s",))
    with pytest.raises(ValidationError, match="prompt spec 0"):
        generate_prompt_matrix([bad], ("A", "B", "C"))
    doubled = PromptSpec("t", "{label} and {label} by {source}", ("s",))
    with pytest.raises(ValidationError, match="exactly once, found 2"):
        generate_prompt_matrix([doubled], ("A", "B", "C"))


def test_prompt_matrix_rejects_duplicate_labels():
    spec = PromptSpec("t", "{label} by {source}", ("s",))
    with pytest.raises(ValidationError, match="unique"):
        generate_prompt_matrix([spec], ("A", "A"))


def test_keyword_scorer_known_value():
    lexicon = KeywordLexicon.from_dict(
        {"SDG6": ["water", "sanitation"], "SDG4": ["education"]}
    )
    scores = keyword_scorer("water water sanitation access", lexicon)
    # freq 3 of 4 tokens, 2 distinct phrases: (3/4) * (1 + log2(3))
    assert scores["SDG6"] == pytest.approx(1.938721875540867, abs=1e-12)
    assert scores["SDG4"] == 0.0


def test_keyword_scorer_counts_overlapping_phrase_matches():
    lexicon = KeywordLexicon.from_dict({"L": ["a a"]})
    scores = keyword_scorer("a a a", lexicon)
    # two overlapping bigram matches in three tokens, one distinct phrase
    assert scores["L"] == pytest.approx((2.0 / 3.0) * 2.0, abs=1e-15)


def test_keyword_scorer_empty_document():
    lexicon = KeywordLexicon.from_dict({"L1": ["x"], "L2": ["y"]})
    assert keyword_scorer("", lexicon) == {"L1": 0.0, "L2": 0.0}


def test_keyword_scorer_invariant_under_text_duplication():
    # doubling the text doubles both frequency and length for
    # single-token phrases, so the density score is unchanged
    lexicon = KeywordLexicon.from_dict({"L": ["water", "access"]})
    text = "water access to clean water"
    single = keyword_scorer(text, lexicon)["L"]
    double = keyword_scorer(text + " " + text, lexicon)["L"]
    assert double == pytest.approx(single, abs=1e-15)


def test_keyword_scorer_accepts_documents():
    lexicon = KeywordLexicon.from_dict({"L": ["clean water"]})
    doc = Document("d1", "Clean water, clean water!")
    assert keyword_scorer(doc, lexicon)["L"] == pytest.approx(
        (2.0 / 4.0) * 2.0, abs=1e-15
    )


def test_lexicon_phrase_length_bounds():
    with pytest.raises(ValidationError, match="1 to 4 tokens"):
        KeywordLexicon.from_dict({"L": ["one two three four five"]})
    with pytest.raises(ValidationError, match="1 to 4 tokens"):
        KeywordLexicon.from_dict({"L": ["..."]})  # tokenizes to nothing


def test_lexicon_rejects_empty():
    with pytest.raises(ValidationError):
        KeywordLexicon.from_dict({})
    with pytest.raises(ValidationError, match="no phrases"):
        KeywordLexicon.from_dict({"L": []})


def test_lexicon_rejects_an_empty_phrase():
    # an empty phrase would match nowhere, or everywhere
    with pytest.raises(ValidationError, match="empty phrase"):
        KeywordLexicon({"L": (("water",), ())})


def test_lexicon_widths_are_the_distinct_phrase_lengths():
    lexicon = KeywordLexicon.from_dict({"A": ["clean water", "water"], "B": ["a b c", "x y"]})
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
    scorer = TfidfCentroidScorer().train(train_docs)
    queries = [
        "water sanitation for every child",
        "education education climate",
        "clean warming systems",
    ]
    for text in queries:
        expected = _naive_tfidf(
            [(d.label, list(d.tokens)) for d in train_docs], tokenize(text)
        )
        got = scorer.score(text)
        assert set(got) == set(expected)
        for label in expected:
            assert got[label] == pytest.approx(expected[label], abs=1e-12)


def test_tfidf_disjoint_vocabulary_separates_labels():
    train_docs = [
        Document("t1", "alpha beta alpha", label="X"),
        Document("t2", "beta alpha beta", label="X"),
        Document("t3", "gamma delta gamma", label="Y"),
        Document("t4", "delta gamma delta", label="Y"),
    ]
    scorer = TfidfCentroidScorer().train(train_docs)
    scores = scorer.score("alpha beta")
    assert scores["X"] > 0.9
    assert scores["Y"] == 0.0


def test_tfidf_respects_label_set_order_and_coverage():
    train_docs = [Document("t1", "alpha", label="X")]
    scorer = TfidfCentroidScorer().train(
        train_docs, None
    )
    assert scorer.labels == ("X",)
    with pytest.raises(ValidationError, match=r"\['Y', 'Z'\]"):
        TfidfCentroidScorer().train(train_docs, LabelSet(("X", "Y", "Z")))


def test_tfidf_rejects_unlabeled_training_docs():
    with pytest.raises(ValidationError, match=r"\['t2'\]"):
        TfidfCentroidScorer().train(
            [Document("t1", "a", label="X"), Document("t2", "b")]
        )


def test_tfidf_unseen_vocabulary_scores_zero():
    scorer = TfidfCentroidScorer().train(
        [
            Document("t1", "alpha beta", label="X"),
            Document("t2", "gamma", label="Y"),
        ]
    )
    scores = scorer.score("omicron sigma")
    assert scores == {"X": 0.0, "Y": 0.0}


def test_tfidf_untrained_scorer_refuses():
    with pytest.raises(ValidationError, match="trained"):
        TfidfCentroidScorer().score("anything")
    with pytest.raises(ValidationError, match="empty"):
        TfidfCentroidScorer().train([])
