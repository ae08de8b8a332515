"""Corpus utilities: lexical quality, prompt matrices, built-in scorers.

Shows the tokenizer's conventions, type-token ratio and distinct-n as
repetitiveness measures, the per-label corpus quality report, the
(publication type x source) x label prompt matrix, and both built-in
scoring systems: keyword density against a phrase lexicon and cosine
similarity to per-label tf-idf centroids.

Run:  python demos/04_corpus_tools.py
"""

from __future__ import annotations

from cfakit import (
    Document,
    KeywordLexicon,
    LabelSet,
    PromptSpec,
    TfidfCentroidScorer,
    corpus_quality_report,
    distinct_n,
    generate_prompt_matrix,
    tokenize,
    type_token_ratio,
)

CORPUS = [
    Document("d1", "Clean water and sanitation for every village.", label="SDG6"),
    Document("d2", "Water, water, water: infrastructure needs funding.", label="SDG6"),
    Document("d3", "Education opens doors; every school counts.", label="SDG4"),
    Document("d4", "Learning outcomes improve with better teachers.", label="SDG4"),
    Document("d5", "An unrelated note without a label."),
    Document("d6", "Climate action cuts emissions and slows warming.", label="SDG13"),
]
# the run's labels: every prompt matrix, lexicon and tf-idf scorer covers them
LABELS = LabelSet(("SDG4", "SDG6", "SDG13"))


def main() -> None:
    print("tokenizer: lowercase, split on whitespace, strip edge punctuation")
    print(f"  'Water, water!'  -> {tokenize('Water, water!')}")
    print(f"  'SDG-6 targets.' -> {tokenize('SDG-6 targets.')}  (interior hyphen kept)")

    print("\nlexical quality per document")
    for doc in CORPUS:
        ttr = type_token_ratio(doc)
        d2 = distinct_n(doc, 2)
        print(f"  {doc.doc_id}: tokens={len(doc.tokens)} "
              f"ttr={ttr:.3f} distinct2={'n/a' if d2 is None else f'{d2:.3f}'}")

    print("\nper-label quality report (repetitive text scores low)")
    for row in corpus_quality_report(CORPUS):
        ttr = "n/a" if row.mean_ttr is None else f"{row.mean_ttr:.3f}"
        print(f"  {row.label:10s} docs={row.doc_count} "
              f"mean_tokens={row.mean_tokens:.1f} mean_ttr={ttr}")

    print("\nprompt matrix: every (publication type, source) pair x every label")
    specs = [
        PromptSpec(
            publication_type="briefing note",
            template="Draft a briefing note on {label} in the voice of {source}",
            sources=("a development economist", "a field reporter"),
        ),
        PromptSpec(
            publication_type="news story",
            template="Write a news story covering {label}, in the style of {source}",
            sources=("a wire service",),
        ),
    ]
    prompts = generate_prompt_matrix(specs, LABELS)
    print(f"  {sum(len(s.sources) for s in specs)} source slots x {len(LABELS)} labels "
          f"= {len(prompts)} prompts")
    for prompt in prompts[:3]:
        print(f"  {prompt.prompt_id}: {prompt.text}")

    print("\nkeyword scorer: phrase frequency scaled by phrase variety")
    lexicon = KeywordLexicon({
        "SDG6": ["water", "sanitation", "clean water"],
        "SDG4": ["education", "school", "learning"],
        "SDG13": ["climate", "emissions", "warming"],
    }, LABELS)
    for doc in CORPUS[:3]:
        scores = lexicon.score(doc)
        formatted = ", ".join(f"{k}={v:.3f}" for k, v in sorted(scores.items()))
        print(f"  {doc.doc_id}: {formatted}")

    print("\ntf-idf centroid scorer: cosine similarity to per-label centroids")
    train = [d for d in CORPUS if d.label is not None]
    scorer = TfidfCentroidScorer(train, LABELS)
    query = Document("q", "new wells bring clean water and sanitation")
    scores = scorer.score(query)
    print(f"  query: {query.text!r}")
    for label, value in sorted(scores.items(), key=lambda kv: -kv[1]):
        print(f"    {label}: {value:.4f}")


if __name__ == "__main__":
    main()
