"""Command line interface.

Subcommands: score, diversity, fuse, evaluate, corpus-stats, gen-prompts,
generate.  One JSON config file carries the shared run settings; flags
override individual fields.  Exit codes: 0 success, 1 validation error,
2 I/O error, 3 domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .combine import STRATEGIES, WEIGHT_SOURCES, grid_arrays
from .core import TIE_POLICIES, FusionBatch
from .corpus import (
    TfidfCentroidScorer,
    corpus_quality_report,
    generate_prompt_matrix,
    keyword_scorer,
)
from .errors import CfaError, ValidationError
from .evaluate import (
    TIE_MODES,
    ModelPredictions,
    _count,
    evaluate_predictions,
    expert_indices,
    individual_arrays,
    write_report,
)
from .fileio import (
    RunConfig,
    _check_config,
    check_coverage,
    format_table,
    load_config,
    load_corpus,
    load_expert_labels,
    load_fused_predictions,
    load_lexicon,
    load_prompt_file,
    load_prompt_specs,
    load_score_file,
    write_csv,
    write_diversity,
    write_fused_file,
    write_prompt_file,
    write_score_file,
)
from .generation import GenerationConfig, generate_corpus

SCORERS = ("keyword", "tfidf")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide
    # with the I/O exit code; route them through the validation path.
    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfakit", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", help="path to the JSON run configuration")
        sub.add_argument("--out", help="output directory (overrides config)")

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
    diversity.add_argument("--tie-policy", choices=TIE_POLICIES)
    diversity.add_argument(
        "--doc", action="append", default=[],
        help="emit an RSC table for this document (repeatable)",
    )

    fuse = subparsers.add_parser("fuse", help="run the combination grid")
    common(fuse)
    fuse.add_argument("--tie-policy", choices=TIE_POLICIES)
    fuse.add_argument("--strategies", help=f"comma list from {','.join(STRATEGIES)}")
    fuse.add_argument("--min-subset", type=int, dest="min_subset")
    fuse.add_argument("--weights", choices=WEIGHT_SOURCES)

    evaluate = subparsers.add_parser("evaluate", help="evaluate fused predictions")
    common(evaluate)
    evaluate.add_argument("--tie-policy", choices=TIE_POLICIES)
    evaluate.add_argument("--tie-mode", choices=TIE_MODES, dest="tie_mode")
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
    generate.add_argument("--endpoint", help="generation endpoint URL")
    generate.add_argument("--auth-token", dest="auth_token")
    generate.add_argument("--max-concurrency", type=int, dest="max_concurrency")

    score.set_defaults(func=cmd_score)
    diversity.set_defaults(func=cmd_diversity)
    fuse.set_defaults(func=cmd_fuse)
    evaluate.set_defaults(func=cmd_evaluate)
    stats.set_defaults(func=cmd_corpus_stats)
    prompts.set_defaults(func=cmd_gen_prompts)
    generate.set_defaults(func=cmd_generate)
    return parser


def _config_from(args) -> RunConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = RunConfig()
    updates = {}
    for flag, field_name in (
        ("tie_policy", "tie_policy"),
        ("tie_mode", "tie_mode"),
        ("weights", "weights"),
        ("min_subset", "min_subset"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            updates[field_name] = value
    strategies = getattr(args, "strategies", None)
    if strategies:
        updates["strategies"] = tuple(
            s.strip() for s in strategies.split(",") if s.strip()
        )
    if args.out:
        updates["out_dir"] = Path(args.out)
    if updates:
        config = dataclasses.replace(config, **updates)
        _check_config(config)
    return config


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ValidationError(f"the {args.command} command requires --config")
    return _config_from(args)


def _load_batch(config: RunConfig):
    label_set = config.label_set()
    systems = config.require_systems()
    tables = {sid: load_score_file(path, label_set) for sid, path in systems}
    ids = list(tables)
    first_docs = set(tables[ids[0]])
    for sid in ids[1:]:
        if set(tables[sid]) != first_docs:
            difference = sorted(set(tables[sid]) ^ first_docs)
            raise ValidationError(
                f"systems {ids[0]!r} and {sid!r} cover different documents: "
                f"{difference[:10]}"
            )
    doc_ids = sorted(first_docs)
    raw = [
        [[tables[sid][doc_id][label] for label in label_set.labels] for sid in ids]
        for doc_id in doc_ids
    ]
    return label_set, FusionBatch(doc_ids, label_set, ids, raw, config.tie_policy)


def _load_experts(config: RunConfig, batch: FusionBatch):
    """The label-set index of each batch document's expert label."""
    experts = load_expert_labels(config.require_experts())
    check_coverage(batch.doc_ids, experts)
    return expert_indices(experts, batch.label_set, batch.doc_ids)


def cmd_score(args) -> None:
    config = _require_config(args)
    label_set = config.label_set()
    corpus = load_corpus(args.corpus)
    if args.scorer == "keyword":
        if not args.lexicon:
            raise ValidationError("the keyword scorer requires --lexicon")
        lexicon = load_lexicon(args.lexicon)
        missing = sorted(set(label_set.labels) - set(lexicon.labels))
        if missing:
            raise ValidationError(f"lexicon lacks phrases for labels {missing}")
        extra = sorted(set(lexicon.labels) - set(label_set.labels))
        if extra:
            raise ValidationError(f"lexicon covers unknown labels {extra}")

        def score_one(doc):
            return keyword_scorer(doc, lexicon)
    else:
        if not args.train:
            raise ValidationError("the tfidf scorer requires --train")
        scorer = TfidfCentroidScorer().train(load_corpus(args.train), label_set)
        score_one = scorer.score
    scores = {doc.doc_id: score_one(doc) for doc in corpus}
    out = config.out_dir / f"scores_{args.scorer}.csv"
    write_score_file(out, scores, label_set)
    print(f"wrote {out} ({len(scores)} documents x {label_set.n} labels)")


def cmd_diversity(args) -> None:
    config = _require_config(args)
    _, batch = _load_batch(config)
    tables = write_diversity(batch, config.out_dir, args.doc)
    print(
        f"wrote diversity tables for {len(batch)} documents"
        + (f" and {tables} RSC tables" if tables else "")
    )


def _performance_weights(batch: FusionBatch, config: RunConfig) -> dict[str, float]:
    expert = _load_experts(config, batch)
    correct, _ = _count(individual_arrays(batch), expert, batch.label_set.n, config.tie_mode)
    return {s: c / len(batch) for s, c in zip(batch.system_ids, correct.sum(axis=1).tolist())}


def cmd_fuse(args) -> None:
    config = _require_config(args)
    label_set, batch = _load_batch(config)
    performance = None
    if config.weights == "perf":
        performance = _performance_weights(batch, config)
    grid = grid_arrays(
        batch,
        strategies=config.strategies,
        min_size=config.min_subset,
        weight_source=config.weights,
        performance=performance,
    )
    out = config.out_dir / "fused.csv"
    models = write_fused_file(
        out, label_set, batch.doc_ids,
        ((combo_id, order, tied) for combo_id, (_, order, tied, _) in grid),
    )
    print(f"wrote {out} ({models} combined models, {models * len(batch)} fused rankings)")


def cmd_evaluate(args) -> None:
    config = _require_config(args)
    label_set, batch = _load_batch(config)
    expert = _load_experts(config, batch)
    fused_path = Path(args.fused) if args.fused else config.out_dir / "fused.csv"
    combo_ids, top1, tied = load_fused_predictions(fused_path, label_set, batch.doc_ids)
    report = evaluate_predictions(
        batch.doc_ids, label_set, expert, individual_arrays(batch),
        ModelPredictions(combo_ids, label_set.labels, top1, tied), config.tie_mode,
    )
    write_report(report, config.out_dir)
    best = report.best_combined
    print(
        f"wrote {config.out_dir / 'report.json'}; best combined model "
        f"{best.model} at {format_table(report.combined_overall[best.model].value)}"
    )


def cmd_corpus_stats(args) -> None:
    config = _config_from(args)
    corpus = load_corpus(args.corpus)
    rows = []
    for quality in corpus_quality_report(corpus):
        rows.append(
            (
                quality.label,
                quality.doc_count,
                format_table(quality.mean_tokens),
                "n/a" if quality.mean_ttr is None else format_table(quality.mean_ttr),
                "n/a" if quality.mean_distinct2 is None else format_table(quality.mean_distinct2),
                "n/a" if quality.mean_distinct3 is None else format_table(quality.mean_distinct3),
            )
        )
    out = config.out_dir / "corpus_stats.csv"
    write_csv(out, ("label", "docs", "mean_tokens", "mean_ttr",
                    "mean_distinct2", "mean_distinct3"), rows)
    print(f"wrote {out} ({len(corpus)} documents)")


def cmd_gen_prompts(args) -> None:
    config = _require_config(args)
    label_set = config.label_set()
    specs = load_prompt_specs(args.specs)
    prompts = generate_prompt_matrix(specs, label_set)
    out = config.out_dir / "prompts.csv"
    write_prompt_file(out, prompts)
    print(f"wrote {out} ({len(prompts)} prompts)")


def cmd_generate(args) -> None:
    config = _config_from(args)
    endpoint = args.endpoint or config.endpoint_url
    if not endpoint:
        raise ValidationError("generate requires --endpoint or a generation.endpoint_url config")
    generation = GenerationConfig(
        endpoint_url=endpoint,
        auth_token=args.auth_token or config.auth_token,
        max_concurrency=(config.max_concurrency if args.max_concurrency is None
                         else args.max_concurrency),
    )
    prompts = load_prompt_file(args.prompts)
    outcome = generate_corpus(prompts, generation, config.out_dir)
    print(
        f"fetched {outcome.fetched}, skipped {outcome.skipped} already stored, "
        f"{len(outcome.errors)} errors; corpus at {config.out_dir / 'corpus.jsonl'}"
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except CfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
