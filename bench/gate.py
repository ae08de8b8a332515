"""Correctness gate: checks a workload's outputs without using cfakit.

Fused rows are recomputed from the score files with the independent
oracle in tests/_naive.py, report precisions are recounted from
fused.csv and the expert labels, and output bytes are compared across
reruns and against digests recorded for the default seed.  Every problem
is charged to the step that wrote the offending file.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import random
from itertools import combinations
from pathlib import Path

from workloads import LABELS, Inputs

EPSILON = 1e-12
TAGS = ("asc", "arc", "wsc-ds", "wrc-ds")
LABEL_SET = frozenset(LABELS)
UNIFORM_SAMPLE = 200
TIED_SAMPLE = 100
RECOUNT_MODELS = 30


def load_oracle(path: Path):
    spec = importlib.util.spec_from_file_location("_naive", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_outputs(inputs: Inputs) -> dict[str, dict[str, str | None]]:
    """sha256 of every file each step writes; None for a missing file."""
    out = {}
    for step in inputs.steps:
        out[step.name] = {}
        for name in step.outputs:
            path = inputs.out_dir / name
            out[step.name][name] = (
                hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            )
    return out


def compare_digests(expected, actual, what: str) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    for step, files in actual.items():
        for name, digest in files.items():
            if digest is None:
                problems.setdefault(step, []).append(f"{name} was not written")
            elif step in expected and expected[step].get(name) != digest:
                problems.setdefault(step, []).append(f"{name} differs from {what}")
    return problems


def _read_scores(path: Path) -> dict[str, list[float]]:
    index = {label: i for i, label in enumerate(LABELS)}
    scores: dict[str, list[float]] = {}
    with path.open(encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        next(rows)
        for doc_id, label, text in rows:
            scores.setdefault(doc_id, [0.0] * len(LABELS))[index[label]] = float(text)
    return scores


def _read_experts(path: Path) -> dict[str, str]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        next(rows)
        return {doc_id: label for doc_id, label in rows}


def expected_combos(system_ids) -> list[str]:
    ids = sorted(system_ids)
    return [
        "+".join(subset) + ":" + tag
        for size in range(2, len(ids) + 1)
        for subset in combinations(ids, size)
        for tag in TAGS
    ]


class Gate:
    def __init__(self, inputs: Inputs, oracle, seed: int):
        self.inputs = inputs
        self.oracle = oracle
        self.rng = random.Random(f"gate-{inputs.workload.name}-{seed}")
        self.problems: dict[str, list[str]] = {}
        self.views: dict[tuple[str, str], tuple[list, list, list]] = {}

    def fail(self, step: str, message: str) -> None:
        self.problems.setdefault(step, []).append(message)

    def run(self) -> dict[str, list[str]]:
        """Check the outputs in the out directory; return problems by step."""
        out = self.inputs.out_dir
        for name, step in (("fused.csv", "fuse"), ("report.json", "evaluate")):
            if not (out / name).is_file():
                self.fail(step, f"{name} missing")
        if self.problems:
            return self.problems
        self.scores = {sid: _read_scores(path) for sid, path in self.inputs.systems}
        self.experts = _read_experts(self.inputs.expert)
        self.doc_ids = sorted(self.experts)
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except ValueError as exc:
            self.fail("evaluate", f"report.json is not JSON: {exc}")
            return self.problems
        combos = expected_combos(sid for sid, _ in self.inputs.systems)
        recount = set(self.rng.sample(combos, min(RECOUNT_MODELS, len(combos))))
        best = report.get("best_combined", {}).get("model")
        if best in combos:
            recount.add(best)
        predictions = self._check_fused(combos, recount)
        if predictions is not None:
            self._check_report(report, combos, predictions)
        return self.problems

    # -- fused.csv ------------------------------------------------------

    def _check_fused(self, combos, recount):
        # one document per combined model, then more at random
        uniform = {(combo, self.rng.choice(self.doc_ids)) for combo in combos}
        while len(uniform) < min(len(combos) + UNIFORM_SAMPLE,
                                 len(combos) * len(self.doc_ids)):
            uniform.add((self.rng.choice(combos), self.rng.choice(self.doc_ids)))
        tied_pool: list[list[str]] = []
        tied_seen = 0
        sampled: list[list[str]] = []
        predictions: dict[str, dict[str, tuple[str, tuple[str, ...]]]] = {c: {} for c in recount}
        counts = dict.fromkeys(combos, 0)
        expected_lines = 1 + len(combos) * len(self.doc_ids)
        lines = 0
        previous = None
        with (self.inputs.out_dir / "fused.csv").open(encoding="utf-8", newline="") as handle:
            rows = csv.reader(handle)
            header = next(rows, None)
            lines += 1
            if header != ["combo_id", "doc_id", "top1", "tie_at_top", "tied_top", "ranking"]:
                self.fail("fuse", f"fused.csv header {header}")
                return None
            for row in rows:
                lines += 1
                if len(row) != 6 or row[0] not in counts or row[1] not in self.experts:
                    self.fail("fuse", f"fused.csv line {lines}: unexpected row {row[:3]}")
                    return None
                key = (row[0], row[1])
                if previous is not None and key <= previous:
                    self.fail("fuse", f"fused.csv line {lines}: rows out of order")
                    return None
                previous = key
                counts[row[0]] += 1
                if not self._consistent(row):
                    self.fail("fuse", f"fused.csv line {lines}: top1, tie_at_top, "
                                      f"tied_top and ranking disagree")
                    return None
                if key in uniform:
                    sampled.append(row)
                if row[3] == "true":
                    # reservoir sample of rows reporting a tie at the top
                    tied_seen += 1
                    if len(tied_pool) < TIED_SAMPLE:
                        tied_pool.append(row)
                    else:
                        slot = self.rng.randrange(tied_seen)
                        if slot < TIED_SAMPLE:
                            tied_pool[slot] = row
                if row[0] in predictions:
                    predictions[row[0]][row[1]] = (row[2], tuple(row[4].split("|")))
        if lines != expected_lines:
            self.fail("fuse", f"fused.csv has {lines} lines, expected {expected_lines}")
        short = [c for c, n in counts.items() if n != len(self.doc_ids)]
        if short:
            self.fail("fuse", f"{len(short)} combined models lack documents, e.g. {short[0]}")
        for row in sampled + tied_pool:
            expected = self._oracle_row(row[0], row[1])
            if row[2:] != expected:
                self.fail("fuse", f"fused row {row[0]} {row[1]}: {row[2:4]} "
                                  f"!= oracle {expected[:2]}")
        return predictions

    @staticmethod
    def _consistent(row) -> bool:
        # ties break by label order, so the tied group heads the ranking
        ranking = row[5].split("|")
        tied = row[4].split("|")
        return (len(ranking) == len(LABELS) and set(ranking) == LABEL_SET
                and ranking[0] == row[2] and ranking[:len(tied)] == tied
                and row[3] == ("true" if len(tied) > 1 else "false"))

    def _system_view(self, system_id: str, doc_id: str):
        key = (system_id, doc_id)
        if key not in self.views:
            o = self.oracle
            raw = self.scores[system_id][doc_id]
            ranks = (o.ranks_ordinal(raw) if self.inputs.tie_policy == "ordinal"
                     else o.ranks_fractional(raw))
            normalized = o.normalize(raw)
            self.views[key] = normalized, ranks, o.rsc(normalized)
        return self.views[key]

    def _oracle_row(self, combo_id: str, doc_id: str) -> list[str]:
        o = self.oracle
        subset_text, tag = combo_id.split(":")
        strategy = tag.split("-")[0]
        views = [self._system_view(s, doc_id) for s in subset_text.split("+")]
        scores = [v[0] for v in views]
        ranks = [v[1] for v in views]
        if strategy in ("wsc", "wrc"):
            curves = [v[2] for v in views]
            weights = [o.ds(curves, j) for j in range(len(curves))]
            # vanishing weights fall back to the unweighted strategy
            if (sum(weights) if strategy == "wsc" else min(weights)) <= EPSILON:
                strategy = "asc" if strategy == "wsc" else "arc"
        if strategy == "asc":
            values, higher = o.asc(scores), True
        elif strategy == "arc":
            values, higher = o.arc(ranks), False
        elif strategy == "wsc":
            values, higher = o.wsc(scores, weights), True
        else:
            values, higher = o.wrc(ranks, weights), False
        ranking = o.ranking(values, LABELS, higher)
        best = max(values) if higher else min(values)
        tied = [label for label, v in zip(LABELS, values) if v == best]
        return [ranking[0], "true" if len(tied) > 1 else "false",
                "|".join(tied), "|".join(ranking)]

    # -- report.json ------------------------------------------------------

    def _check_report(self, report, combos, predictions) -> None:
        models = len(combos)
        populated = len(set(self.experts.values()))
        try:
            combined = report["combined"]
            individual = report["individual"]
            stats = report["grid_statistics"]
            denominators = (
                stats["cells_ge_best_individual"]["denominator"],
                stats["cells_ge_individual_mean"]["denominator"],
                stats["models_ge_best_individual"]["denominator"],
            )
        except (KeyError, TypeError) as exc:
            self.fail("evaluate", f"report.json lacks {exc}")
            return
        if len(combined) != models or set(combined) != set(combos):
            self.fail("evaluate", f"report.json has {len(combined)} combined models, "
                                  f"expected {models}")
        if denominators != (models * populated, models * populated, models):
            self.fail("evaluate", f"grid statistics denominators {denominators}")
        for model, preds in predictions.items():
            if model in combined:
                self._recount(model, combined[model], preds)
        for system_id, _ in self.inputs.systems:
            if system_id not in individual:
                self.fail("evaluate", f"report.json lacks individual system {system_id}")
                continue
            preds = {}
            for doc_id in self.doc_ids:
                normalized = self.oracle.normalize(self.scores[system_id][doc_id])
                best = max(normalized)
                tied = tuple(l for l, v in zip(LABELS, normalized) if v == best)
                preds[doc_id] = (tied[0], tied)
            self._recount(system_id, individual[system_id], preds)

    def _recount(self, model: str, entry, preds) -> None:
        lenient = self.inputs.tie_mode == "lenient"
        overall = [0, 0, 0]
        per_label = {label: [0, 0, 0] for label in LABELS}
        for doc_id, expert in self.experts.items():
            top1, tied = preds[doc_id]
            hit = expert in tied if lenient and len(tied) > 1 else top1 == expert
            for counts in (overall, per_label[expert]):
                counts[0] += hit
                counts[1] += 1
                counts[2] += len(tied) > 1

        def as_dict(counts):
            if counts[1] == 0:
                return None
            return {"correct": counts[0], "total": counts[1], "ties": counts[2],
                    "value": counts[0] / counts[1]}

        expected = {"overall": as_dict(overall),
                    "per_label": {l: as_dict(c) for l, c in per_label.items()}}
        if entry != expected:
            self.fail("evaluate", f"precision of {model} differs from the recount")
