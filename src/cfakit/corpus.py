"""Corpus utilities: tokenization, lexical quality metrics, prompt
generation, two self-contained scoring systems, and the corpus, prompt,
lexicon and prompt-spec files.

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
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DataAccessError, ValidationError
from .fileio import (_JSON_KINDS, _field, _json_lines, _names, _parse_json, _read_text,
                     _table_rows, write_csv)
from .settings import LabelSet, _sequence

if TYPE_CHECKING:  # numpy loads in the functions that build arrays
    import numpy as np

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


class Document:
    """A text with an optional expert label and its derived tokens."""

    def __init__(self, doc_id: str, text: str, label: str | None = None) -> None:
        if not isinstance(doc_id, str) or not doc_id:
            raise ValidationError("doc_id must be a non-empty string")
        self.doc_id = doc_id
        self.text = text
        self.label = label
        self.tokens = tokenize(text)


def load_corpus(path: Path | str) -> list[Document]:
    """Load a document corpus.

    A directory is read as one subdirectory per label holding .txt files;
    a file is read as JSON lines with doc_id, text, and optional label.
    """
    path = Path(path)
    if path.is_dir():
        return _load_corpus_dir(path)
    if path.is_file():
        return _load_corpus_jsonl(path)
    raise DataAccessError(f"corpus not found: {path}")


def _load_corpus_dir(path: Path) -> list[Document]:
    docs: list[Document] = []
    seen: dict[str, Path] = {}
    for label_dir in sorted(p for p in path.iterdir() if p.is_dir()):
        for text_file in sorted(label_dir.glob("*.txt")):
            doc_id = text_file.stem
            if doc_id in seen:
                raise ValidationError(
                    f"{text_file}: duplicate document {doc_id!r}, also {seen[doc_id]}"
                )
            seen[doc_id] = text_file
            text = _read_text(text_file)
            docs.append(Document(doc_id=doc_id, text=text, label=label_dir.name))
    if not docs:
        raise ValidationError(f"{path}: no label directories with .txt documents")
    return docs


def _load_corpus_jsonl(path: Path) -> list[Document]:
    docs: list[Document] = []
    seen: set[str] = set()
    for where, record in _json_lines(path):
        if not isinstance(record, dict) or "doc_id" not in record or "text" not in record:
            raise ValidationError(f"{where}: record needs doc_id and text")
        doc_id = _field(where, record, "doc_id", "a string", None)
        text = _field(where, record, "text", "a string", None)
        # a null label is no label
        label = None if record.get("label") is None else _field(
            where, record, "label", "a string", None)
        for key, value in (("doc_id", doc_id), ("label", label)):
            if value == "":
                raise ValidationError(f"{where}: {key!r} must not be empty")
        if doc_id in seen:
            raise ValidationError(f"{where}: duplicate document {doc_id!r}")
        seen.add(doc_id)
        docs.append(Document(doc_id=doc_id, text=text, label=label))
    if not docs:
        raise ValidationError(f"{path}: no documents")
    return docs


def _ngrams(tokens: Sequence[str], n: int):
    """The contiguous n-token windows of tokens, as tuples, in order."""
    return zip(*(tokens[i:] for i in range(n)))


def type_token_ratio(doc: Document) -> float | None:
    """Unique tokens over total tokens; None when the text is empty."""
    tokens = doc.tokens
    if not tokens:
        return None
    return len(set(tokens)) / len(tokens)


def distinct_n(doc: Document, n: int) -> float | None:
    """Unique contiguous n-grams over total n-grams.

    None when the document holds fewer than n tokens, marking the metric
    undefined rather than zero.
    """
    if not _JSON_KINDS["an integer"](n) or n < 1:
        raise ValidationError(f"n-gram order must be an integer of at least 1, got {n!r}")
    tokens = doc.tokens
    total = len(tokens) - n + 1
    if total <= 0:
        return None
    return len(set(_ngrams(tokens, n))) / total


class LabelQuality(NamedTuple):
    """Mean lexical statistics over one group of documents."""

    label: str
    doc_count: int
    mean_tokens: float
    mean_ttr: float | None
    mean_distinct2: float | None
    mean_distinct3: float | None


def _group_quality(label: str, metrics: Sequence[tuple]) -> LabelQuality:
    # metrics: one (token count, TTR, distinct-2, distinct-3) per document;
    # a rate's mean is None when no document defines it
    import numpy as np

    tokens, *rates = zip(*metrics)
    defined = ([v for v in values if v is not None] for values in rates)
    means = [float(np.mean(values)) if values else None for values in defined]
    return LabelQuality(label, len(metrics), float(np.mean(tokens)), *means)


def corpus_quality_report(corpus: Sequence[Document]) -> list[LabelQuality]:
    """Per-label quality rows plus a final overall row.

    Unlabeled documents group under "unlabeled", so neither row name may
    be a corpus label.  Labels are sorted for a deterministic table, and
    per-document metrics that are undefined are left out of their group's
    mean.  Each document's metrics are computed once and shared by its
    label row and the overall row.
    """
    docs = list(_sequence(corpus, "corpus"))
    if not docs:
        raise ValidationError("cannot report on an empty corpus")
    reserved = sorted({doc.label for doc in docs} & {"overall", "unlabeled"})
    if reserved:
        raise ValidationError(f"corpus labels {reserved} are reserved for report rows")
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


class PromptSpec(NamedTuple):
    """A publication type with a prompt template and its source list.

    The template must mention {source} and {label} exactly once each.
    """

    publication_type: str
    template: str
    sources: tuple[str, ...]


class Prompt(NamedTuple):
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


def generate_prompt_matrix(specs: Sequence[PromptSpec], label_set: LabelSet) -> list[Prompt]:
    """Cross every (publication type, source) pair with every label.

    The matrix holds sum(len(spec.sources)) * len(label_set) prompts with
    sequential ids that are stable across runs for identical inputs.
    """
    prompts: list[Prompt] = []
    for index, spec in enumerate(_sequence(specs, "prompt specs")):
        _check_spec(index, spec)
        for source in spec.sources:
            for label in label_set.labels:
                # one pass: text put in for one placeholder is never searched
                text = source.join(part.replace("{label}", label)
                                   for part in spec.template.split("{source}"))
                prompts.append(Prompt(f"p{len(prompts) + 1:05d}", label,
                                      spec.publication_type, source, text))
    return prompts


PROMPT_HEADER = ("prompt_id", "label", "publication_type", "source", "prompt_text")


def write_prompt_file(path: Path | str, prompts: Sequence[Prompt]) -> None:
    # a Prompt's fields are the file's columns, as load_prompt_file reads them
    write_csv(path, PROMPT_HEADER, prompts)


def load_prompt_file(path: Path | str) -> list[Prompt]:
    path = Path(path)
    prompts = []
    seen: set[str] = set()
    for line_no, row in _table_rows(path, PROMPT_HEADER):
        for name, value in zip(PROMPT_HEADER[:2], row):
            if not value:
                raise ValidationError(f"{path}:{line_no}: {name!r} must not be empty")
        if row[0] in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate prompt id {row[0]!r}")
        seen.add(row[0])
        prompts.append(Prompt(*row))
    if not prompts:
        raise ValidationError(f"{path}: no prompts")
    return prompts


def load_prompt_specs(path: Path | str) -> list[PromptSpec]:
    path = Path(path)
    raw = _parse_json(_read_text(path), path)
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: prompt specs must be a JSON array")
    specs: list[PromptSpec] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: prompt spec {index} must be an object")
        for key in ("publication_type", "template", "sources"):
            if key not in entry:
                raise ValidationError(f"{path}: prompt spec {index} lacks field {key!r}")
        where = f"{path}: prompt spec {index}"
        specs.append(PromptSpec(
            _field(where, entry, "publication_type", "a string", None),
            _field(where, entry, "template", "a string", None),
            tuple(_field(where, entry, "sources", "an array of strings", None)),
        ))
    return specs


class KeywordLexicon:
    """Per-label keyword phrases, each stored as its token sequence, and
    the keyword-density scorer they make.

    raw maps every label of label_set, and no other, to an array of
    phrases, each spanning 1 to MAX_PHRASE_TOKENS tokens.
    """

    def __init__(self, raw: Mapping[str, Sequence[str]], label_set: LabelSet) -> None:
        if not isinstance(raw, Mapping):
            raise ValidationError("lexicon must be a JSON object of label -> phrases")
        phrases: dict[str, tuple[tuple[str, ...], ...]] = {}
        for label, entries in raw.items():
            # a string would be read as its characters
            if not _JSON_KINDS["an array of strings"](entries):
                raise ValidationError(f"lexicon label {label!r} must be an array of strings")
            if not entries:
                raise ValidationError(f"label {label!r} has no phrases")
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
        missing = sorted(set(label_set.labels) - set(phrases))
        if missing:
            raise ValidationError(f"lexicon lacks phrases for labels {missing}")
        extra = sorted(set(phrases) - set(label_set.labels))
        if extra:
            raise ValidationError(f"lexicon covers unknown labels {extra}")
        self.phrases = phrases
        # the distinct phrase lengths in tokens, ascending
        self.widths = tuple(sorted({len(tokens) for tokenized in phrases.values()
                                    for tokens in tokenized}))

    def score(self, doc: Document) -> dict[str, float]:
        """Keyword-density score per label.

        For each label the score is (total match frequency / token count)
        scaled by (1 + log2(1 + distinct matched phrases)); labels with no
        match score zero, as does an empty document.  Multi-token phrases
        match as contiguous token runs and overlapping occurrences all
        count; a phrase listed twice counts twice in both terms.  Each
        document's n-grams are counted once per phrase width the lexicon
        uses.
        """
        tokens = doc.tokens
        counts = {n: Counter(_ngrams(tokens, n)) for n in self.widths}
        scores: dict[str, float] = {}
        for label, phrase_list in self.phrases.items():
            found = [c for c in (counts[len(p)].get(p, 0) for p in phrase_list) if c]
            frequency, distinct = sum(found), len(found)
            scores[label] = (
                (frequency / len(tokens)) * (1.0 + math.log2(1 + distinct)) if distinct else 0.0
            )
        return scores


def load_lexicon(path: Path | str, label_set: LabelSet) -> KeywordLexicon:
    path = Path(path)
    raw = _parse_json(_read_text(path), path)
    try:
        return KeywordLexicon(raw, label_set)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


class TfidfCentroidScorer:
    """Scores documents by cosine similarity to per-label tf-idf centroids.

    The scorer trains when it is built, on a corpus of labeled documents:
    it builds one tf-idf vector per document, with tf the raw term count
    and idf = ln(1 + N / df) over the N training documents, then averages
    the vectors of each label into its centroid.  The labels are those of
    label_set, in its order, which the corpus must cover exactly.  Scoring
    embeds a document with the training vocabulary and idf; terms unseen
    in training are ignored, and a document sharing no vocabulary with a
    centroid scores zero for that label.
    """

    def __init__(self, corpus: Sequence[Document], label_set: LabelSet) -> None:
        import numpy as np

        docs = list(_sequence(corpus, "training corpus"))
        if not docs:
            raise ValidationError("training corpus is empty")
        unlabeled = [d.doc_id for d in docs if d.label is None]
        if unlabeled:
            raise ValidationError(
                f"training documents must be labeled; unlabeled: {_names(unlabeled)}"
            )
        by_label: dict[str, list[Document]] = {}
        for doc in docs:
            by_label.setdefault(doc.label, []).append(doc)
        labels = label_set.labels
        empty = [label for label in labels if label not in by_label]
        if empty:
            raise ValidationError(f"no training documents for labels {empty}")
        unknown = sorted(set(by_label) - set(labels))
        if unknown:
            raise ValidationError(f"training documents have unknown labels {_names(unknown)}")

        vocabulary = sorted({token for doc in docs for token in doc.tokens})
        self._vocabulary = {term: i for i, term in enumerate(vocabulary)}
        df = np.zeros(len(vocabulary))
        for doc in docs:
            for term in set(doc.tokens):
                df[self._vocabulary[term]] += 1
        self._idf = np.log(1.0 + len(docs) / df)
        # label -> (centroid, its norm), the norm computed once here
        self._centroids: dict[str, tuple[np.ndarray, float]] = {}
        for label in labels:
            vectors = [self._embed(doc) for doc in by_label[label]]
            centroid = np.mean(vectors, axis=0)
            self._centroids[label] = (centroid, float(np.linalg.norm(centroid)))

    def _embed(self, doc: Document) -> np.ndarray:
        import numpy as np

        vector = np.zeros(len(self._vocabulary))
        for term, count in Counter(doc.tokens).items():
            i = self._vocabulary.get(term)
            if i is not None:
                vector[i] = count * self._idf[i]
        return vector

    def score(self, doc: Document) -> dict[str, float]:
        """Cosine similarity of the document against every centroid."""
        import numpy as np

        vector = self._embed(doc)
        norm = float(np.linalg.norm(vector))
        scores: dict[str, float] = {}
        for label, (centroid, centroid_norm) in self._centroids.items():
            denominator = norm * centroid_norm
            if denominator == 0.0:
                scores[label] = 0.0
            else:
                scores[label] = float(vector.dot(centroid) / denominator)
        return scores
