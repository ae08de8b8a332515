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

from .combine import run_grid
from .core import FusionBatch, LabelSet, _ordered_sum
from .corpus import (
    TfidfCentroidScorer,
    corpus_quality_report,
    generate_prompt_matrix,
    keyword_scorer,
)
from .errors import CfaError, DomainError, ValidationError
from .evaluate import (
    EvaluationReport,
    Prediction,
    build_report,
    individual_predictions,
    precision_at_1,
)
from .fileio import (
    RunConfig,
    _check_config,
    format_table,
    load_config,
    load_corpus,
    load_expert_labels,
    load_fused_file,
    load_lexicon,
    load_prompt_file,
    load_prompt_specs,
    load_score_file,
    write_csv,
    write_fused_file,
    write_json,
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
    diversity.add_argument("--tie-policy", choices=("fractional", "ordinal"))
    diversity.add_argument(
        "--doc", action="append", default=[],
        help="emit an RSC table for this document (repeatable)",
    )

    fuse = subparsers.add_parser("fuse", help="run the combination grid")
    common(fuse)
    fuse.add_argument("--tie-policy", choices=("fractional", "ordinal"))
    fuse.add_argument("--strategies", help="comma list from asc,arc,wsc,wrc")
    fuse.add_argument("--min-subset", type=int, dest="min_subset")
    fuse.add_argument("--weights", choices=("ds", "perf"))

    evaluate = subparsers.add_parser("evaluate", help="evaluate fused predictions")
    common(evaluate)
    evaluate.add_argument("--tie-policy", choices=("fractional", "ordinal"))
    evaluate.add_argument("--tie-mode", choices=("strict", "lenient"), dest="tie_mode")
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


def _check_expert_alignment(doc_ids, experts) -> None:
    unlabeled = sorted(set(doc_ids) - set(experts))
    if unlabeled:
        raise ValidationError(f"expert labels missing for documents {unlabeled[:10]}")


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


def _safe_name(doc_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in doc_id)


def cmd_diversity(args) -> None:
    config = _require_config(args)
    _, batch = _load_batch(config)
    if batch.cd is None:
        raise DomainError("diversity reports need at least two systems")
    out_dir = config.out_dir
    ids = batch.system_ids
    pairs = [(j, k) for j in range(len(ids)) for k in range(j + 1, len(ids))]

    pair_rows = []
    strength_rows = []
    for doc_id, cd, ds in zip(batch.doc_ids, batch.cd.tolist(), batch.ds.tolist()):
        pair_rows.extend(
            (doc_id, ids[j], ids[k], format_table(cd[j][k])) for j, k in pairs
        )
        strength_rows.extend(
            (doc_id, system_id, format_table(value)) for system_id, value in zip(ids, ds)
        )
    write_csv(out_dir / "diversity_pairs.csv",
              ("doc_id", "system_a", "system_b", "cd"), pair_rows)
    write_csv(out_dir / "diversity_strength.csv",
              ("doc_id", "system", "ds"), strength_rows)

    # summed over documents in document order, like every other reduction
    mean_cd = (_ordered_sum(batch.cd) / len(batch)).tolist()
    mean_ds = (_ordered_sum(batch.ds) / len(batch)).tolist()
    mean_pairs = [(ids[j], ids[k], format_table(mean_cd[j][k])) for j, k in pairs]
    mean_strengths = [
        (system_id, format_table(value)) for system_id, value in zip(ids, mean_ds)
    ]
    write_csv(out_dir / "diversity_pairs_mean.csv",
              ("system_a", "system_b", "mean_cd"), mean_pairs)
    write_csv(out_dir / "diversity_strength_mean.csv",
              ("system", "mean_ds"), mean_strengths)

    row_of = {doc_id: d for d, doc_id in enumerate(batch.doc_ids)}
    for doc_id in args.doc:
        if doc_id not in row_of:
            raise ValidationError(
                f"unknown document {doc_id!r}; known documents: {sorted(row_of)}"
            )
        rows = []
        for system_id, curve in zip(ids, batch.rsc[row_of[doc_id]].tolist()):
            for position, value in enumerate(curve, start=1):
                rows.append((position, format_table(value), system_id))
        write_csv(out_dir / f"rsc_{_safe_name(doc_id)}.csv",
                  ("rank", "score", "system"), rows)
    print(
        f"wrote diversity tables for {len(batch)} documents"
        + (f" and {len(args.doc)} RSC tables" if args.doc else "")
    )


def _performance_weights(batch, config: RunConfig) -> dict[str, float]:
    experts = load_expert_labels(config.require_experts())
    _check_expert_alignment(batch.doc_ids, experts)
    predictions = individual_predictions(batch)
    return {
        system_id: precision_at_1(preds, experts, config.tie_mode).value
        for system_id, preds in predictions.items()
    }


def cmd_fuse(args) -> None:
    config = _require_config(args)
    _, batch = _load_batch(config)
    performance = None
    if config.weights == "perf":
        performance = _performance_weights(batch, config)
    grid = run_grid(
        batch,
        strategies=config.strategies,
        min_size=config.min_subset,
        weight_source=config.weights,
        performance=performance,
    )
    out = config.out_dir / "fused.csv"
    write_fused_file(out, grid)
    total = sum(len(results) for results in grid.values())
    print(f"wrote {out} ({len(grid)} combined models, {total} fused rankings)")


def report_to_dict(report: EvaluationReport) -> dict:
    def precision(result):
        if result is None:
            return None
        return {
            "correct": result.correct,
            "total": result.total,
            "ties": result.tie_count,
            "value": result.value,
        }

    def ratio(r):
        return {"numerator": r.numerator, "denominator": r.denominator, "value": r.value}

    def rows(table):
        return [
            {
                "doc_id": row.doc_id,
                "expert": row.expert,
                "individual": row.individual,
                "combined": row.combined,
            }
            for row in table
        ]

    return {
        "tie_mode": report.tie_mode,
        "label_counts": dict(report.label_counts),
        "individual": {
            model: {
                "overall": precision(report.individual_overall[model]),
                "per_label": {
                    label: precision(result)
                    for label, result in report.individual_per_label[model].items()
                },
            }
            for model in report.individual_overall
        },
        "combined": {
            model: {
                "overall": precision(report.combined_overall[model]),
                "per_label": {
                    label: precision(result)
                    for label, result in report.combined_per_label[model].items()
                },
            }
            for model in report.combined_overall
        },
        "best_individual": {
            "model": report.best_individual.model,
            "tied": list(report.best_individual.tied),
        },
        "best_combined": {
            "model": report.best_combined.model,
            "tied": list(report.best_combined.tied),
        },
        "grid_statistics": {
            "cells_ge_best_individual": ratio(report.grid_stats.cells_ge_best_individual),
            "cells_ge_individual_mean": ratio(report.grid_stats.cells_ge_individual_mean),
            "models_ge_best_individual": ratio(report.grid_stats.models_ge_best_individual),
        },
        "disagreements": {
            "fusion_agrees_with_expert": rows(report.disagreements.fusion_agrees_with_expert),
            "fusion_disagrees_with_both": rows(report.disagreements.fusion_disagrees_with_both),
            "both_disagree_with_expert": rows(report.disagreements.both_disagree_with_expert),
        },
    }


def _write_report_tables(report: EvaluationReport, label_set: LabelSet, out_dir: Path) -> None:
    overall_rows = []
    for kind, results in (
        ("individual", report.individual_overall),
        ("combined", report.combined_overall),
    ):
        for model in sorted(results):
            r = results[model]
            overall_rows.append(
                (model, kind, r.correct, r.total, r.tie_count, format_table(r.value))
            )
    write_csv(out_dir / "overall_precision.csv",
              ("model", "kind", "correct", "total", "ties", "precision"), overall_rows)

    label_rows = []
    for kind, tables in (
        ("individual", report.individual_per_label),
        ("combined", report.combined_per_label),
    ):
        for model in sorted(tables):
            for label in label_set.labels:
                result = tables[model][label]
                if result is None:
                    label_rows.append((model, kind, label, 0, 0, "n/a"))
                else:
                    label_rows.append(
                        (model, kind, label, result.correct, result.total,
                         format_table(result.value))
                    )
    write_csv(out_dir / "per_label_precision.csv",
              ("model", "kind", "label", "correct", "total", "precision"), label_rows)

    stats = report.grid_stats
    stat_rows = []
    for name, ratio in (
        ("cells_ge_best_individual", stats.cells_ge_best_individual),
        ("cells_ge_individual_mean", stats.cells_ge_individual_mean),
        ("models_ge_best_individual", stats.models_ge_best_individual),
    ):
        stat_rows.append(
            (name, ratio.numerator, ratio.denominator,
             format_table(ratio.value), f"{100.0 * ratio.value:.2f}")
        )
    write_csv(out_dir / "grid_stats.csv",
              ("statistic", "numerator", "denominator", "value", "percent"), stat_rows)

    disagreement_rows = []
    for category, table in (
        ("fusion_agrees_with_expert", report.disagreements.fusion_agrees_with_expert),
        ("fusion_disagrees_with_both", report.disagreements.fusion_disagrees_with_both),
        ("both_disagree_with_expert", report.disagreements.both_disagree_with_expert),
    ):
        for row in table:
            disagreement_rows.append(
                (category, row.doc_id, row.expert, row.individual, row.combined)
            )
    write_csv(out_dir / "disagreements.csv",
              ("category", "doc_id", "expert", "individual", "combined"),
              disagreement_rows)

    # Average precision per subset and strategy, the plot-data view of the
    # combination grid.
    strategy_rows = []
    for combo_id in sorted(report.combined_overall):
        subset, _, tag = combo_id.partition(":")
        strategy_rows.append(
            (subset, tag, format_table(report.combined_overall[combo_id].value))
        )
    strategy_rows.sort(key=lambda row: (row[0], row[1]))
    write_csv(out_dir / "strategy_precision.csv",
              ("subset", "strategy", "precision"), strategy_rows)


def cmd_evaluate(args) -> None:
    config = _require_config(args)
    label_set, batch = _load_batch(config)
    experts = load_expert_labels(config.require_experts())
    _check_expert_alignment(batch.doc_ids, experts)

    fused_path = Path(args.fused) if args.fused else config.out_dir / "fused.csv"
    fused = load_fused_file(fused_path)
    combined: dict[str, dict[str, Prediction]] = {}
    for combo_id, docs in fused.items():
        _check_expert_alignment(docs, experts)
        combined[combo_id] = {
            doc_id: Prediction(top1=fields["top1"], tied_top=fields["tied_top"])
            for doc_id, fields in docs.items()
        }
    individual = individual_predictions(batch)

    report = build_report(individual, combined, experts, label_set, config.tie_mode)
    out_dir = config.out_dir
    write_json(out_dir / "report.json", report_to_dict(report))
    _write_report_tables(report, label_set, out_dir)
    best = report.best_combined
    print(
        f"wrote {out_dir / 'report.json'}; best combined model "
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
        max_concurrency=args.max_concurrency or config.max_concurrency,
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
