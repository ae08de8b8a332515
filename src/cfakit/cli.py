"""Command line interface.

Subcommands: score, diversity, fuse, evaluate, corpus-stats, gen-prompts,
generate.  Every command requires `--config`: one JSON config file
carries every run setting, the output directory and `generate`'s
endpoint, token and concurrency included; the other flags name only a
command's inputs.
Exit codes: 0 success, 1 validation error, 2 I/O error, 3 domain error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CfaError, ValidationError

if TYPE_CHECKING:  # each command imports the layers it runs
    from .core import FusionBatch
    from .fileio import RunConfig

SCORERS = ("keyword", "tfidf")
# the flags that name a file; "" would name the working directory
PATH_FLAGS = ("config", "corpus", "lexicon", "train", "fused", "specs", "prompts")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide
    # with the I/O exit code; route them through the validation path.
    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfakit", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", required=True, help="path to the JSON run configuration")

    score = subparsers.add_parser("score", help="score a corpus with a built-in system")
    common(score)
    score.add_argument("--scorer", required=True, choices=SCORERS)
    score.add_argument("--corpus", required=True, help="corpus file or directory")
    score.add_argument("--lexicon", help="keyword lexicon JSON (keyword scorer)")
    score.add_argument("--train", help="labeled training corpus (tfidf scorer)")

    diversity = subparsers.add_parser(
        "diversity", help="per-document diversity and RSC plot data"
    )
    common(diversity)
    diversity.add_argument(
        "--doc", action="append", default=[],
        help="emit an RSC table for this document (repeatable)",
    )

    fuse = subparsers.add_parser("fuse", help="run the combination grid")
    common(fuse)

    evaluate = subparsers.add_parser("evaluate", help="evaluate fused predictions")
    common(evaluate)
    evaluate.add_argument("--fused", help="fused predictions file (default: <out>/fused.csv)")

    stats = subparsers.add_parser("corpus-stats", help="lexical quality report")
    common(stats)
    stats.add_argument("--corpus", required=True, help="corpus file or directory")

    prompts = subparsers.add_parser("gen-prompts", help="emit the prompt matrix")
    common(prompts)
    prompts.add_argument("--specs", required=True, help="prompt specs JSON")

    generate = subparsers.add_parser("generate", help="fetch text for a prompt matrix")
    common(generate)
    generate.add_argument("--prompts", required=True, help="prompt matrix CSV")

    score.set_defaults(func=cmd_score)
    diversity.set_defaults(func=cmd_diversity)
    fuse.set_defaults(func=cmd_fuse)
    evaluate.set_defaults(func=cmd_evaluate)
    stats.set_defaults(func=cmd_corpus_stats)
    prompts.set_defaults(func=cmd_gen_prompts)
    generate.set_defaults(func=cmd_generate)
    return parser


def _load_batch(config: RunConfig) -> FusionBatch:
    from .core import FusionBatch
    from .fileio import load_score_cube

    label_set = config.label_set()
    systems = config.require_systems()
    doc_ids, raw = load_score_cube(systems, label_set)
    return FusionBatch(doc_ids, label_set, [sid for sid, _ in systems], raw, config.tie_policy)


def _load_experts(config: RunConfig, batch: FusionBatch):
    """The label-set index of each batch document's expert label."""
    from .evaluate import expert_indices
    from .fileio import load_expert_labels

    return expert_indices(load_expert_labels(config.require_experts()),
                          batch.label_set, batch.doc_ids)


def cmd_score(args, config: RunConfig) -> None:
    from .corpus import TfidfCentroidScorer, load_corpus, load_lexicon
    from .fileio import write_score_file

    own, other = ("lexicon", "train") if args.scorer == "keyword" else ("train", "lexicon")
    if getattr(args, other) is not None:  # the other scorer's input, never read
        raise ValidationError(f"the {args.scorer} scorer does not read --{other}")
    if not getattr(args, own):
        raise ValidationError(f"the {args.scorer} scorer requires --{own}")
    label_set = config.label_set()
    corpus = load_corpus(args.corpus)
    if args.scorer == "keyword":
        scorer = load_lexicon(args.lexicon, label_set)
    else:
        scorer = TfidfCentroidScorer(load_corpus(args.train), label_set)
    scores = {doc.doc_id: scorer.score(doc) for doc in corpus}
    out = config.out_dir / f"scores_{args.scorer}.csv"
    write_score_file(out, scores, label_set)
    print(f"wrote {out} ({len(scores)} documents x {label_set.n} labels)")


def cmd_diversity(args, config: RunConfig) -> None:
    from .fileio import write_diversity

    batch = _load_batch(config)
    tables = write_diversity(batch, config.out_dir, args.doc)
    rsc = f" and {tables} RSC tables" if tables else ""
    print(f"wrote diversity tables for {len(batch)} documents{rsc}")


def _performance_weights(batch: FusionBatch, config: RunConfig) -> dict[str, float]:
    from .evaluate import _count, individual_arrays

    expert = _load_experts(config, batch)
    counts = _count(individual_arrays(batch), expert, batch.label_set.n, config.tie_mode)
    return {s: c / len(batch) for s, c in zip(batch.system_ids, counts.overall.tolist())}


def cmd_fuse(args, config: RunConfig) -> None:
    from .combine import _grid_shares
    from .fused import _cpus, write_fused_file

    batch = _load_batch(config)
    performance = _performance_weights(batch, config) if config.weights == "perf" else None
    shares = _grid_shares(batch, performance, _cpus())
    out = config.out_dir / "fused.csv"
    models = write_fused_file(out, batch, *(
        ((combo_id, order, tied) for combo_id, (_, order, tied, _) in grid) for grid in shares
    ))
    print(f"wrote {out} ({models} combined models, {models * len(batch)} fused rankings)")


def cmd_evaluate(args, config: RunConfig) -> None:
    from .evaluate import ModelPredictions, evaluate_predictions, individual_arrays, write_report
    from .fileio import format_table
    from .fused import load_fused_predictions

    batch = _load_batch(config)
    label_set = batch.label_set
    expert = _load_experts(config, batch)
    fused_path = config.out_dir / "fused.csv" if args.fused is None else Path(args.fused)
    combo_ids, top1, tied = load_fused_predictions(fused_path, batch)
    report = evaluate_predictions(
        batch.doc_ids, label_set, expert, individual_arrays(batch),
        ModelPredictions(combo_ids, label_set.labels, top1, tied), config.tie_mode,
    )
    write_report(report, config.out_dir)
    best = report.combined.best
    correct = int(report.combined.overall[report.combined.model_ids.index(best.model)])
    print(
        f"wrote {config.out_dir / 'report.json'}; best combined model "
        f"{best.model} at {format_table(correct / sum(report.label_counts.values()))}"
    )


def cmd_corpus_stats(args, config: RunConfig) -> None:
    from .corpus import corpus_quality_report, load_corpus
    from .fileio import format_table, write_csv

    corpus = load_corpus(args.corpus)
    rows = [
        (q.label, q.doc_count, format_table(q.mean_tokens),
         *("n/a" if v is None else format_table(v)
           for v in (q.mean_ttr, q.mean_distinct2, q.mean_distinct3)))
        for q in corpus_quality_report(corpus)
    ]
    out = config.out_dir / "corpus_stats.csv"
    write_csv(out, ("label", "docs", "mean_tokens", "mean_ttr",
                    "mean_distinct2", "mean_distinct3"), rows)
    print(f"wrote {out} ({len(corpus)} documents)")


def cmd_gen_prompts(args, config: RunConfig) -> None:
    from .corpus import generate_prompt_matrix, load_prompt_specs, write_prompt_file

    label_set = config.label_set()
    specs = load_prompt_specs(args.specs)
    prompts = generate_prompt_matrix(specs, label_set)
    out = config.out_dir / "prompts.csv"
    write_prompt_file(out, prompts)
    print(f"wrote {out} ({len(prompts)} prompts)")


def cmd_generate(args, config: RunConfig) -> None:
    from .corpus import load_prompt_file
    from .generation import GenerationConfig, generate_corpus

    # a config without endpoint_url reaches GenerationConfig's own check
    generation = GenerationConfig(**{"endpoint_url": None, **config.generation})
    prompts = load_prompt_file(args.prompts)
    outcome = generate_corpus(prompts, generation, config.out_dir)
    print(
        f"fetched {outcome.fetched}, skipped {outcome.skipped} already stored, "
        f"{len(outcome.errors)} errors; corpus at {config.out_dir / 'corpus.jsonl'}"
    )


def main(argv=None) -> int:
    # before any layer loads numpy: BLAS runs on one thread, so tf-idf's dot
    # and norm sum in one order and no pool thread keeps `fuse` from forking
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in PATH_FLAGS:
            if getattr(args, flag, None) == "":
                raise ValidationError(f"--{flag} must name a file, got an empty string")
        # after parse_args, so --help and usage errors load no fileio
        from .fileio import load_config

        args.func(args, load_config(args.config))
    except CfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
