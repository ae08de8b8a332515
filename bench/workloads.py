"""Seeded inputs and command sequences for the benchmark workloads.

Every workload scores the 17 SDG labels.  The same seed always yields
the same files, byte for byte, so outputs can be checked against
recorded digests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LABELS = tuple(f"SDG{i}" for i in range(1, 18))
DEFAULT_SEED = 1

# Files each command writes under the out directory.  The correctness
# gate checks these, so files a later version adds are left alone.
REPORT_FILES = (
    "report.json",
    "overall_precision.csv",
    "per_label_precision.csv",
    "grid_stats.csv",
    "disagreements.csv",
    "strategy_precision.csv",
)
DIVERSITY_FILES = (
    "diversity_pairs.csv",
    "diversity_strength.csv",
    "diversity_pairs_mean.csv",
    "diversity_strength_mean.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    uniform_systems: int
    corpus_systems: bool
    round_digits: int | None
    config: dict = field(default_factory=dict)


WORKLOADS = {
    # The paper scale.  Two of the five systems come from the built-in
    # keyword and tf-idf scorers, which give constant rows and top ties.
    "paper": Workload("paper", 306, 3, True, None),
    # 2^8 - 9 = 247 subsets x 4 strategies = 988 models: per-model work
    # is about ten times paper's while per-document work stays the same.
    # Two-decimal scores give the rank ties of printed classifier outputs;
    # the ordinal tie policy and lenient tie mode are timed only here.
    "systems8": Workload(
        "systems8", 306, 8, False, 2,
        {"tie_policy": "ordinal", "tie_mode": "lenient"},
    ),
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: a name for reports, the command, its argv."""

    name: str
    command: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    root: Path
    config: Path
    out_dir: Path
    systems: tuple[tuple[str, Path], ...]
    expert: Path
    steps: tuple[Step, ...]

    @property
    def models(self) -> int:
        t = len(self.systems)
        return 4 * (2**t - t - 1)

    @property
    def tie_policy(self) -> str:
        return self.workload.config.get("tie_policy", "fractional")

    @property
    def tie_mode(self) -> str:
        return self.workload.config.get("tie_mode", "strict")


def _doc_ids(count: int, prefix: str = "d") -> list[str]:
    return [f"{prefix}{i:05d}" for i in range(1, count + 1)]


def _balanced_labels(rng: random.Random, count: int) -> list[str]:
    # every label gets documents, so every per-label cell is populated
    labels = [LABELS[i % len(LABELS)] for i in range(count)]
    rng.shuffle(labels)
    return labels


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    words: set[str] = set()
    while len(words) < count:
        syllables = rng.choice((2, 3, 3, 4))
        words.add("".join(rng.choice(consonants) + rng.choice(vowels)
                          for _ in range(syllables)))
    out = sorted(words)
    rng.shuffle(out)
    return out


def _write_lines(path: Path, header: str, lines) -> None:
    path.write_text(header + "\n" + "".join(line + "\n" for line in lines),
                    encoding="utf-8")


def _write_uniform_scores(rng, path, doc_ids, digits) -> None:
    def score() -> float:
        value = rng.random()
        return value if digits is None else round(value, digits)

    _write_lines(path, "doc_id,label,score", (
        f"{doc_id},{label},{score()!r}" for doc_id in doc_ids for label in LABELS
    ))


class _TextMaker:
    """Synthetic documents: filler words plus topic words of a label.

    A quarter of the documents carry no topic word at all, so the keyword
    scorer gives them a constant all-zero row.
    """

    def __init__(self, rng: random.Random):
        words = _pseudo_words(rng, 600 + 10 * len(LABELS))
        self.rng = rng
        self.filler = words[:600]
        self.topic = {
            label: words[600 + 10 * i: 610 + 10 * i]
            for i, label in enumerate(LABELS)
        }

    def lexicon(self) -> dict[str, list[str]]:
        # the last two topic words of each label are left out, so tf-idf
        # sees evidence the keyword scorer does not
        return {
            label: words[:4] + [f"{words[4]} {words[5]}", f"{words[6]} {words[7]}"]
            for label, words in self.topic.items()
        }

    def text(self, label: str, generic: bool) -> str:
        rng = self.rng
        tokens = [rng.choice(self.filler) for _ in range(rng.randint(40, 160))]
        if not generic:
            topic = self.topic[label]
            inserts = [rng.choice(topic) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.4:
                pair = rng.choice((4, 6))
                inserts.append(f"{topic[pair]} {topic[pair + 1]}")
            if rng.random() < 0.5:
                other = rng.choice([l for l in LABELS if l != label])
                inserts += [rng.choice(self.topic[other]) for _ in range(rng.randint(1, 2))]
            for insert in inserts:
                tokens.insert(rng.randrange(len(tokens) + 1), insert)
        for i in range(11, len(tokens), 12):
            tokens[i] += "."
        return " ".join(tokens)


def _write_corpus(path: Path, rows) -> None:
    path.write_text("".join(
        json.dumps({"doc_id": d, "text": t, "label": l}) + "\n" for d, t, l in rows
    ), encoding="utf-8")


def generate(workload: Workload, seed: int, root: Path) -> Inputs:
    """Write the workload's inputs under root and return its command plan."""
    rng = random.Random(f"{workload.name}-{seed}")
    root.mkdir(parents=True, exist_ok=True)
    out_dir = root / "out"
    doc_ids = _doc_ids(workload.docs)
    experts = _balanced_labels(rng, workload.docs)
    expert = root / "expert.csv"
    _write_lines(expert, "doc_id,label",
                 (f"{d},{l}" for d, l in zip(doc_ids, experts)))

    systems: list[tuple[str, Path]] = []
    steps: list[Step] = []
    config = root / "config.json"
    common = ("--config", str(config))
    if workload.corpus_systems:
        maker = _TextMaker(rng)
        corpus = root / "corpus.jsonl"
        _write_corpus(corpus, [
            (d, maker.text(l, generic=rng.random() < 0.25), l)
            for d, l in zip(doc_ids, experts)
        ])
        train = root / "train.jsonl"
        _write_corpus(train, [
            (t, maker.text(l, generic=False), l)
            for t, l in zip(_doc_ids(5 * len(LABELS), "t"), LABELS * 5)
        ])
        lexicon = root / "lexicon.json"
        lexicon.write_text(json.dumps(maker.lexicon(), indent=2), encoding="utf-8")
        systems += [("kw", out_dir / "scores_keyword.csv"),
                    ("tf", out_dir / "scores_tfidf.csv")]
        steps += [
            Step("corpus-stats", "corpus-stats",
                 ("corpus-stats", *common, "--corpus", str(corpus)),
                 ("corpus_stats.csv",)),
            Step("score-keyword", "score",
                 ("score", *common, "--scorer", "keyword", "--corpus", str(corpus),
                  "--lexicon", str(lexicon)),
                 ("scores_keyword.csv",)),
            Step("score-tfidf", "score",
                 ("score", *common, "--scorer", "tfidf", "--corpus", str(corpus),
                  "--train", str(train)),
                 ("scores_tfidf.csv",)),
        ]
    for i in range(1, workload.uniform_systems + 1):
        path = root / f"scores_u{i}.csv"
        _write_uniform_scores(rng, path, doc_ids, workload.round_digits)
        systems.append((f"u{i}", path))

    if workload.corpus_systems:
        doc = rng.choice(doc_ids)
        steps.append(Step("diversity", "diversity", ("diversity", *common, "--doc", doc),
                          DIVERSITY_FILES + (f"rsc_{doc}.csv",)))
    else:
        steps.append(Step("diversity", "diversity", ("diversity", *common),
                          DIVERSITY_FILES))
    steps += [
        Step("fuse", "fuse", ("fuse", *common), ("fused.csv",)),
        Step("evaluate", "evaluate", ("evaluate", *common), REPORT_FILES),
    ]

    config.write_text(json.dumps({
        "labels": list(LABELS),
        "systems": [{"id": sid, "path": str(path.relative_to(root))}
                    for sid, path in systems],
        "expert_labels": expert.name,
        "out_dir": "out",
        **workload.config,
    }, indent=2), encoding="utf-8")
    return Inputs(workload, root, config, out_dir, tuple(systems), expert, tuple(steps))
