"""Corpus utilities: tokenization, lexical quality metrics, prompt
generation, and two self-contained scoring systems.

The tokenizer lowercases, splits on Unicode whitespace, and strips
leading and trailing punctuation from each token while keeping interior
punctuation, so "SDG-6" stays one token.  All metrics run on these
tokens, which keeps every number reproducible from raw text alone.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import LabelSet
from .errors import ValidationError

MAX_PHRASE_TOKENS = 4


def _strip_punctuation(token: str) -> str:
    # letters and digits are never punctuation, so most tokens need no scan
    if token[0].isalnum() and token[-1].isalnum():
        return token
    start = 0
    end = len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercased whitespace tokens with edge punctuation stripped."""
    if not isinstance(text, str):
        raise ValidationError("text must be a string")
    out = []
    for raw in text.lower().split():
        token = _strip_punctuation(raw)
        if token:
            out.append(token)
    return tuple(out)


@dataclass(frozen=True)
class Document:
    """A text with an optional expert label and its derived tokens."""

    doc_id: str
    text: str
    label: str | None = None
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise ValidationError("doc_id must be a non-empty string")
        object.__setattr__(self, "tokens", tokenize(self.text))


def _ngrams(tokens: Sequence[str], n: int):
    """The contiguous n-token windows of tokens, as tuples, in order."""
    return zip(*(tokens[i:] for i in range(n)))


def _tokens_of(doc) -> tuple[str, ...]:
    if isinstance(doc, Document):
        return doc.tokens
    if isinstance(doc, str):
        return tokenize(doc)
    raise ValidationError("expected a Document or raw text")


def type_token_ratio(doc) -> float | None:
    """Unique tokens over total tokens; None when the text is empty."""
    tokens = _tokens_of(doc)
    if not tokens:
        return None
    return len(set(tokens)) / len(tokens)


def distinct_n(doc, n: int) -> float | None:
    """Unique contiguous n-grams over total n-grams.

    None when the document holds fewer than n tokens, marking the metric
    undefined rather than zero.
    """
    if n < 1:
        raise ValidationError(f"n-gram order must be at least 1, got {n}")
    tokens = _tokens_of(doc)
    total = len(tokens) - n + 1
    if total <= 0:
        return None
    return len(set(_ngrams(tokens, n))) / total


@dataclass(frozen=True)
class LabelQuality:
    """Mean lexical statistics over one group of documents."""

    label: str
    doc_count: int
    mean_tokens: float
    mean_ttr: float | None
    mean_distinct2: float | None
    mean_distinct3: float | None


def _mean_or_none(values: list[float]) -> float | None:
    if not values:
        return None
    return float(np.mean(values))


def _group_quality(label: str, metrics: Sequence[tuple]) -> LabelQuality:
    # metrics: one (token count, TTR, distinct-2, distinct-3) per document
    tokens, *rates = zip(*metrics)
    means = [_mean_or_none([v for v in values if v is not None]) for values in rates]
    return LabelQuality(label, len(metrics), float(np.mean(tokens)), *means)


def corpus_quality_report(corpus: Sequence[Document]) -> list[LabelQuality]:
    """Per-label quality rows plus a final overall row.

    Unlabeled documents group under "unlabeled".  Labels are sorted for a
    deterministic table, and per-document metrics that are undefined are
    left out of their group's mean.  Each document's metrics are computed
    once and shared by its label row and the overall row.
    """
    docs = list(corpus)
    if not docs:
        raise ValidationError("cannot report on an empty corpus")
    metrics = [
        (len(doc.tokens), type_token_ratio(doc), distinct_n(doc, 2), distinct_n(doc, 3))
        for doc in docs
    ]
    groups: dict[str, list[tuple]] = {}
    for doc, values in zip(docs, metrics):
        groups.setdefault(doc.label or "unlabeled", []).append(values)
    labels = sorted(k for k in groups if k != "unlabeled")
    if "unlabeled" in groups:
        labels.append("unlabeled")
    rows = [_group_quality(label, groups[label]) for label in labels]
    rows.append(_group_quality("overall", metrics))
    return rows


@dataclass(frozen=True)
class PromptSpec:
    """A publication type with a prompt template and its source list.

    The template must mention {source} and {label} exactly once each.
    """

    publication_type: str
    template: str
    sources: tuple[str, ...]


@dataclass(frozen=True)
class Prompt:
    prompt_id: str
    label: str
    publication_type: str
    source: str
    text: str


def _check_spec(index: int, spec: PromptSpec) -> None:
    for placeholder in ("{source}", "{label}"):
        count = spec.template.count(placeholder)
        if count != 1:
            raise ValidationError(
                f"prompt spec {index} ({spec.publication_type!r}): template must "
                f"contain {placeholder} exactly once, found {count}"
            )
    if not spec.publication_type:
        raise ValidationError(f"prompt spec {index}: publication type is empty")


def generate_prompt_matrix(
    specs: Sequence[PromptSpec], labels: LabelSet | Sequence[str]
) -> list[Prompt]:
    """Cross every (publication type, source) pair with every label.

    The matrix holds sum(len(spec.sources)) * len(labels) prompts with
    sequential ids that are stable across runs for identical inputs.
    """
    label_list = list(labels.labels if isinstance(labels, LabelSet) else labels)
    if len(set(label_list)) != len(label_list):
        raise ValidationError("prompt labels must be unique")
    prompts: list[Prompt] = []
    counter = 1
    for index, spec in enumerate(specs):
        _check_spec(index, spec)
        for source in spec.sources:
            for label in label_list:
                text = spec.template.replace("{source}", source).replace("{label}", label)
                prompts.append(
                    Prompt(
                        prompt_id=f"p{counter:05d}",
                        label=label,
                        publication_type=spec.publication_type,
                        source=source,
                        text=text,
                    )
                )
                counter += 1
    return prompts


@dataclass(frozen=True)
class KeywordLexicon:
    """Per-label keyword phrases, each stored as its token sequence."""

    phrases: dict[str, tuple[tuple[str, ...], ...]]
    # the distinct phrase lengths in tokens, ascending
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ValidationError("lexicon must cover at least one label")
        for label, phrase_list in self.phrases.items():
            if not phrase_list:
                raise ValidationError(f"label {label!r} has no phrases")
            if not all(phrase_list):
                raise ValidationError(f"label {label!r} has an empty phrase")
        widths = {len(phrase) for phrase_list in self.phrases.values() for phrase in phrase_list}
        object.__setattr__(self, "widths", tuple(sorted(widths)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.phrases)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Sequence[str]]) -> "KeywordLexicon":
        phrases: dict[str, tuple[tuple[str, ...], ...]] = {}
        for label, entries in raw.items():
            # a string would be read as its characters
            if not isinstance(entries, (list, tuple)) or not all(
                isinstance(entry, str) for entry in entries
            ):
                raise ValidationError(f"lexicon label {label!r} must be an array of strings")
            tokenized = []
            for entry in entries:
                tokens = tokenize(entry)
                if not 1 <= len(tokens) <= MAX_PHRASE_TOKENS:
                    raise ValidationError(
                        f"label {label!r}: phrase {entry!r} must span 1 to "
                        f"{MAX_PHRASE_TOKENS} tokens, got {len(tokens)}"
                    )
                tokenized.append(tokens)
            phrases[label] = tuple(tokenized)
        return cls(phrases=phrases)


def keyword_scorer(doc, lexicon: KeywordLexicon) -> dict[str, float]:
    """Keyword-density score per label.

    For each label the score is (total match frequency / token count)
    scaled by (1 + log2(1 + distinct matched phrases)); labels with no
    match score zero, as does an empty document.  Multi-token phrases
    match as contiguous token runs and overlapping occurrences all count;
    a phrase listed twice counts twice in both terms.  Each document's
    n-grams are counted once per phrase width the lexicon uses.
    """
    tokens = _tokens_of(doc)
    counts = {n: Counter(_ngrams(tokens, n)) for n in lexicon.widths}
    scores: dict[str, float] = {}
    for label, phrase_list in lexicon.phrases.items():
        found = [c for c in (counts[len(p)].get(tuple(p), 0) for p in phrase_list) if c]
        frequency, distinct = sum(found), len(found)
        scores[label] = (
            (frequency / len(tokens)) * (1.0 + math.log2(1 + distinct)) if distinct else 0.0
        )
    return scores


class TfidfCentroidScorer:
    """Scores documents by cosine similarity to per-label tf-idf centroids.

    Training builds one tf-idf vector per document, with tf the raw term
    count and idf = ln(1 + N / df) over the N training documents, then
    averages the vectors of each label into its centroid.  Scoring embeds
    a document with the training vocabulary and idf; terms unseen in
    training are ignored, and a document sharing no vocabulary with a
    centroid scores zero for that label.
    """

    def __init__(self) -> None:
        self._vocabulary: dict[str, int] | None = None
        self._idf: np.ndarray | None = None
        self._centroids: dict[str, np.ndarray] | None = None

    @property
    def trained(self) -> bool:
        return self._centroids is not None

    @property
    def labels(self) -> tuple[str, ...]:
        self._require_trained()
        return tuple(self._centroids)

    def train(
        self, corpus: Sequence[Document], label_set: LabelSet | None = None
    ) -> "TfidfCentroidScorer":
        docs = list(corpus)
        if not docs:
            raise ValidationError("training corpus is empty")
        unlabeled = [d.doc_id for d in docs if d.label is None]
        if unlabeled:
            raise ValidationError(
                f"training documents must be labeled; unlabeled: {unlabeled}"
            )
        by_label: dict[str, list[Document]] = {}
        for doc in docs:
            by_label.setdefault(doc.label, []).append(doc)
        labels = list(label_set.labels) if label_set is not None else sorted(by_label)
        empty = [label for label in labels if label not in by_label]
        if empty:
            raise ValidationError(f"no training documents for labels {empty}")

        vocabulary = sorted({token for doc in docs for token in doc.tokens})
        index = {term: i for i, term in enumerate(vocabulary)}
        df = np.zeros(len(vocabulary))
        for doc in docs:
            for term in set(doc.tokens):
                df[index[term]] += 1
        n_docs = len(docs)
        idf = np.log(1.0 + n_docs / df)

        self._vocabulary = index
        self._idf = idf
        self._centroids = {}
        for label in labels:
            vectors = [self._embed(doc) for doc in by_label[label]]
            self._centroids[label] = np.mean(vectors, axis=0)
        return self

    def _embed(self, doc) -> np.ndarray:
        vector = np.zeros(len(self._vocabulary))
        for term, count in Counter(_tokens_of(doc)).items():
            i = self._vocabulary.get(term)
            if i is not None:
                vector[i] = count * self._idf[i]
        return vector

    def _require_trained(self) -> None:
        if not self.trained:
            raise ValidationError("scorer must be trained before scoring")

    def score(self, doc) -> dict[str, float]:
        """Cosine similarity of the document against every centroid."""
        self._require_trained()
        vector = self._embed(doc)
        norm = float(np.linalg.norm(vector))
        scores: dict[str, float] = {}
        for label, centroid in self._centroids.items():
            denominator = norm * float(np.linalg.norm(centroid))
            if denominator == 0.0:
                scores[label] = 0.0
            else:
                scores[label] = float(vector.dot(centroid) / denominator)
        return scores
