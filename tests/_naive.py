"""Naive reference implementations used as independent test oracles.

Every function is a direct pure-Python transcription of the defining
formula, written without looking at the library code and importing
nothing from it.  Tests compare library output against these.
"""

from __future__ import annotations

import csv
import io
import json
import math
import unicodedata
from fractions import Fraction


def normalize(raw):
    lo = min(raw)
    hi = max(raw)
    if hi == lo:
        return [0.5 for _ in raw]
    return [(x - lo) / (hi - lo) for x in raw]


def ranks_fractional(scores):
    # rank = number of strictly greater scores + average position among equals
    out = []
    for s in scores:
        greater = sum(1 for x in scores if x > s)
        equal = sum(1 for x in scores if x == s)
        out.append(greater + (equal + 1) / 2)
    return out


def ranks_ordinal(scores):
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    out = [0.0] * n
    for position, i in enumerate(order, start=1):
        out[i] = float(position)
    return out


def rsc(normalized):
    return sorted(normalized, reverse=True)


def left_sum(values):
    # floats added one at a time from the left; the builtin sum()
    # compensates float rounding from Python 3.12 on
    total = 0
    for value in values:
        total += value
    return total


def cd(curve_a, curve_b):
    # squared via multiplication: libm pow(x, 2) can be an ulp off the
    # correctly rounded square, which would perturb exact tie groups
    n = len(curve_a)
    return math.sqrt(left_sum((a - b) * (a - b) for a, b in zip(curve_a, curve_b)) / (n - 2))


def ds(curves, j):
    t = len(curves)
    return left_sum(cd(curves[j], curves[k]) for k in range(t) if k != j) / (t - 1)


def asc(score_vectors):
    t = len(score_vectors)
    n = len(score_vectors[0])
    return [left_sum(v[i] for v in score_vectors) / t for i in range(n)]


def arc(rank_vectors):
    return asc(rank_vectors)


def wsc(score_vectors, weights):
    total = left_sum(weights)
    n = len(score_vectors[0])
    return [
        left_sum(w * v[i] for w, v in zip(weights, score_vectors)) / total
        for i in range(n)
    ]


def wrc(rank_vectors, weights):
    inverse = [1.0 / w for w in weights]
    total = left_sum(inverse)
    n = len(rank_vectors[0])
    return [
        left_sum(iv * v[i] for iv, v in zip(inverse, rank_vectors)) / total
        for i in range(n)
    ]


def ranking(values, labels, higher_is_better):
    # value order, ties to the earlier label
    keys = [(-v if higher_is_better else v) for v in values]
    order = sorted(range(len(values)), key=lambda i: (keys[i], i))
    return [labels[i] for i in order]


def distinct_n(tokens, n):
    total = len(tokens) - n + 1
    if total <= 0:
        return None
    grams = set()
    for i in range(total):
        grams.add(tuple(tokens[i : i + n]))
    return len(grams) / total


def tokenize(text):
    # lowercase, split at whitespace, then drop characters of a P* category
    # from each end of a word until a non-punctuation character is reached
    out = []
    for word in text.lower().split():
        chars = list(word)
        while chars and unicodedata.category(chars[0])[0] == "P":
            del chars[0]
        while chars and unicodedata.category(chars[-1])[0] == "P":
            del chars[-1]
        if chars:
            out.append("".join(chars))
    return tuple(out)


def keyword_scores(tokens, lexicon):
    # lexicon: label -> list of phrases, each a list of tokens; a window
    # is tried at every start position, so overlapping matches all count
    scores = {}
    for label, phrases in lexicon.items():
        frequency = 0
        distinct = 0
        for phrase in phrases:
            width = len(phrase)
            matches = 0
            for start in range(len(tokens) - width + 1):
                if list(tokens[start : start + width]) == list(phrase):
                    matches += 1
            frequency += matches
            if matches > 0:
                distinct += 1
        if not tokens or distinct == 0:
            scores[label] = 0.0
        else:
            scores[label] = (frequency / len(tokens)) * (1.0 + math.log2(1 + distinct))
    return scores


def table_row_stream(path, header):
    # every physical line through one csv.reader: (line number, row) of
    # each non-empty row below the header, the row's number that of the
    # line it starts on; the text of the first error ends the stream, and a
    # csv error names the reader's physical line.  Each line is decoded on
    # its own; a row made from a line that is not UTF-8 (the header
    # before it is compared, any other row before its width) names the
    # first such line
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.splitlines(keepends=True)  # at \r\n, \r or \n, as newline="" does
    bad = set()
    for number, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            bad.add(number)
    reader = csv.reader(line.decode("utf-8", "surrogateescape") for line in lines)
    read = 0  # physical lines the rows so far were made of

    def not_utf8(row):
        nonlocal read
        first, read = read + 1, reader.line_num
        if row and bad & set(range(first, read + 1)):
            return f"{path}: not valid UTF-8 (line {min(bad)})"

    try:
        found = next(reader, [])
        fault = not_utf8(found)
        if fault or found != list(header):
            found = ",".join(found)
            if found[:1] == "\ufeff":  # a byte-order mark, named since it is invisible
                found = "a byte-order mark (U+FEFF) before " + found[1:]
            yield fault or f"{path}: expected header {','.join(header)}, found {found}"
            return
        for row in reader:
            line_no = read + 1
            fault = not_utf8(row)
            if fault:
                yield fault
                return
            if not row:
                continue
            if len(row) != len(header):
                yield f"{path}:{line_no}: expected {len(header)} columns, found {len(row)}"
                return
            yield line_no, row
    except csv.Error as exc:
        yield f"{path}:{reader.line_num}: malformed CSV: {exc}"


def table_rows(path, header):
    # the rows of table_row_stream, or the text of its error
    out = []
    for item in table_row_stream(path, header):
        if isinstance(item, str):
            return item
        out.append(item)
    return out


def score_file(path, labels):
    # doc_id -> label -> score, one row at a time, each row checked as it
    # is read, or the text of the first error
    out = {}
    for item in table_row_stream(path, ("doc_id", "label", "score")):
        if isinstance(item, str):
            return item
        line_no, (doc_id, label, text) = item
        if not doc_id or not label:
            return f"{path}:{line_no}: empty doc_id or label"
        try:
            score = float(text)
        except ValueError:
            return f"{path}:{line_no}: score {text!r} is not a number"
        if not math.isfinite(score):
            return f"{path}:{line_no}: score {text!r} is not finite"
        doc = out.setdefault(doc_id, {})
        if label in doc:
            return f"{path}:{line_no}: duplicate row for document {doc_id!r} label {label!r}"
        doc[label] = score
    if not out:
        return f"{path}: no score rows"
    for doc_id, scores in out.items():
        missing = sorted(set(labels) - set(scores))
        if missing:
            return f"{path}: document {doc_id!r} lacks scores for labels {missing}"
        extra = sorted(set(scores) - set(labels))
        if extra:
            return f"{path}: document {doc_id!r} scores unknown labels {extra}"
    return out


def score_cube(systems, labels):
    # (sorted doc ids, raw[doc][system][label] nested lists) of the
    # (system id, path) pairs, or the text of the first error: each file
    # is read whole before the next, and the files are compared last
    tables = {}
    for system_id, path in systems:
        table = score_file(path, labels)
        if isinstance(table, str):
            return table
        tables[system_id] = table
    ids = list(tables)
    first = set(tables[ids[0]])
    for system_id in ids[1:]:
        if set(tables[system_id]) != first:
            difference = sorted(set(tables[system_id]) ^ first)
            names = str(difference) if len(difference) <= 10 else (
                f"{difference[:10]} ({len(difference)} in all)")
            return f"systems {ids[0]!r} and {system_id!r} cover different documents: {names}"
    doc_ids = sorted(first)
    raw = [[[tables[s][d][label] for label in labels] for s in ids] for d in doc_ids]
    return doc_ids, raw


def fused_predictions(path, labels, doc_ids):
    # (combo ids in the order of their first rows, top1[combo][doc] and
    # tied[combo][doc] as a set of label indices, docs in doc_ids order) of
    # a fused grid file read one row at a time, each row checked as it is
    # read, or the text of the first error
    header = ("combo_id", "doc_id", "top1", "tie_at_top", "tied_top", "ranking")
    index = {label: i for i, label in enumerate(labels)}
    predicted = {}  # combo -> doc -> (top1, tied)
    for item in table_row_stream(path, header):
        if isinstance(item, str):
            return item
        line_no, (combo, doc_id, top1, tie, tied, _) = item
        where = f"{path}:{line_no}:"
        if tie not in ("true", "false"):
            return f"{where} tie_at_top must be true or false"
        if top1 not in index:
            return f"{where} top1 label {top1!r} is outside the label set"
        group = [top1] if tied == top1 else tied.split("|")
        for name in group:
            if name not in index:
                return f"{where} tied_top label {name!r} is outside the label set"
        if len(set(group)) != len(group):
            return f"{where} tied_top repeats a label"
        if top1 not in group:
            return f"{where} tied_top must contain top1"
        if (tie == "true") != (len(group) > 1):
            return f"{where} tie_at_top is {tie} but tied_top lists {len(group)} label(s)"
        if doc_id not in doc_ids:
            return f"{where} document {doc_id!r} is outside the run's documents"
        rows = predicted.setdefault(combo, {})
        if doc_id in rows:
            return f"{where} duplicate row for {combo!r} / {doc_id!r}"
        rows[doc_id] = (index[top1], {index[name] for name in group})
    if not predicted:
        return f"{path}: no fused predictions"

    def names(found):
        found = sorted(found)
        return str(found) if len(found) <= 10 else f"{found[:10]} ({len(found)} in all)"

    for combo, rows in predicted.items():
        where = f"{path}: combo {combo!r}:"
        if set(doc_ids) - set(rows):
            return f"{where} missing predictions for documents {names(set(doc_ids) - set(rows))}"
    top1 = [[predicted[c][d][0] for d in doc_ids] for c in predicted]
    tied = [[predicted[c][d][1] for d in doc_ids] for c in predicted]
    return list(predicted), top1, tied


def csv_text(header, rows):
    # a table as csv.writer writes it, one row at a time, each line ended
    # with "\n"; the "\r\n" terminator makes the writer quote a bare "\r"
    # on every Python
    out = []
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    for row in [header, *rows]:
        line.seek(0)
        line.truncate()
        writer.writerow(row)
        out.append(line.getvalue()[:-2] + "\n")
    return "".join(out)


def report_files(tie_mode, labels, experts, individual, combined):
    # {file name: text} of the six report files.  experts maps each doc_id
    # to its expert label; individual and combined map each model id to a
    # dict doc_id -> (top1 label, set of labels tied at the top).  Every
    # count is made one document at a time, and every row written alone
    def count(predictions, label=None):
        correct = total = ties = 0
        for doc_id, expert in experts.items():
            if label is not None and expert != label:
                continue
            top1, group = predictions[doc_id]
            if tie_mode == "lenient":
                correct += expert in group
            else:
                correct += top1 == expert
            total += 1
            ties += len(group) > 1
        return correct, total, ties

    def record(c, t, ties):
        return {"correct": c, "total": t, "ties": ties, "value": c / t}

    kinds = {"individual": individual, "combined": combined}
    overall = {kind: {m: count(p) for m, p in models.items()} for kind, models in kinds.items()}
    per_label = {
        kind: {m: {label: count(p, label) for label in labels} for m, p in models.items()}
        for kind, models in kinds.items()
    }
    best = {}
    for kind in kinds:
        value = {m: Fraction(c, t) for m, (c, t, _) in overall[kind].items()}
        tied = sorted(m for m in value if value[m] == max(value.values()))
        best[kind] = {"model": tied[0], "tied": tied}

    # grid statistics over the labels that carry documents
    ge_best = ge_mean = cells = 0
    for label in labels:
        if not any(expert == label for expert in experts.values()):
            continue
        ind = [Fraction(*per_label["individual"][m][label][:2]) for m in individual]
        for m in combined:
            value = Fraction(*per_label["combined"][m][label][:2])
            cells += 1
            ge_best += value >= max(ind)
            ge_mean += value >= sum(ind) / len(ind)
    top = max(Fraction(c, t) for c, t, _ in overall["individual"].values())
    models_ge = sum(Fraction(c, t) >= top for c, t, _ in overall["combined"].values())
    stats = {
        "cells_ge_best_individual": (ge_best, cells),
        "cells_ge_individual_mean": (ge_mean, cells),
        "models_ge_best_individual": (models_ge, len(combined)),
    }

    # the best models' top-1 labels, documents in doc_id order
    tables = {"fusion_agrees_with_expert": [], "fusion_disagrees_with_both": [],
              "both_disagree_with_expert": []}
    for doc_id in sorted(experts):
        e = experts[doc_id]
        i = individual[best["individual"]["model"]][doc_id][0]
        c = combined[best["combined"]["model"]][doc_id][0]
        row = {"doc_id": doc_id, "expert": e, "individual": i, "combined": c}
        if c == e and i != e:
            tables["fusion_agrees_with_expert"].append(row)
        elif i == e and c != e:
            tables["fusion_disagrees_with_both"].append(row)
        elif c == i and i != e:
            tables["both_disagree_with_expert"].append(row)

    payload = {
        "tie_mode": tie_mode,
        "label_counts": {label: sum(e == label for e in experts.values()) for label in labels},
        "best_individual": best["individual"],
        "best_combined": best["combined"],
        "grid_statistics": {
            name: {"numerator": n, "denominator": d, "value": n / d}
            for name, (n, d) in stats.items()
        },
        "disagreements": tables,
    }
    for kind in kinds:
        payload[kind] = {
            m: {"overall": record(*overall[kind][m]),
                "per_label": {label: record(*r) if r[1] else None
                              for label, r in per_label[kind][m].items()}}
            for m in overall[kind]
        }

    overall_rows, label_rows, strategy_rows = [], [], []
    for kind in kinds:
        for m in sorted(overall[kind]):
            c, t, ties = overall[kind][m]
            overall_rows.append([m, kind, c, t, ties, f"{c / t:.6f}"])
            for label in labels:
                c, t, _ = per_label[kind][m][label]
                label_rows.append([m, kind, label, c, t, f"{c / t:.6f}" if t else "n/a"])
    for m, (c, t, _) in overall["combined"].items():
        subset, _, strategy = m.partition(":")
        strategy_rows.append((subset, strategy, m, f"{c / t:.6f}"))
    return {
        "report.json": json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        "overall_precision.csv": csv_text(
            ("model", "kind", "correct", "total", "ties", "precision"), overall_rows),
        "per_label_precision.csv": csv_text(
            ("model", "kind", "label", "correct", "total", "precision"), label_rows),
        "grid_stats.csv": csv_text(
            ("statistic", "numerator", "denominator", "value", "percent"),
            [(name, n, d, f"{n / d:.6f}", f"{100.0 * (n / d):.2f}")
             for name, (n, d) in stats.items()]),
        "disagreements.csv": csv_text(
            ("category", "doc_id", "expert", "individual", "combined"),
            [(category, *row.values()) for category, rows in tables.items() for row in rows]),
        # a subset and strategy pair names one model but for an id without
        # ":" and the same id ended with ":", kept in model id order
        "strategy_precision.csv": csv_text(
            ("subset", "strategy", "precision"),
            [(s, strategy, p) for s, strategy, _, p in sorted(strategy_rows)]),
    }


def diversity_files(doc_ids, system_ids, raw, rsc_docs):
    # {file name: text} of the four diversity tables and the RSC table of
    # each document of rsc_docs.  raw maps each doc_id to its per-system
    # score lists, in system_ids order.  Every value is computed one
    # document at a time, means are summed over documents in doc_ids order,
    # and every row is written alone
    curves = {d: [rsc(normalize(scores)) for scores in raw[d]] for d in doc_ids}
    t = len(system_ids)
    pairs = [(j, k) for j in range(t) for k in range(j + 1, t)]
    cds = {d: {(j, k): cd(c[j], c[k]) for j, k in pairs} for d, c in curves.items()}
    dss = {d: [ds(c, j) for j in range(t)] for d, c in curves.items()}

    def mean(values):
        return f"{left_sum(values) / len(doc_ids):.6f}"

    files = {
        "diversity_pairs.csv": csv_text(
            ("doc_id", "system_a", "system_b", "cd"),
            [(d, system_ids[j], system_ids[k], f"{cds[d][j, k]:.6f}")
             for d in doc_ids for j, k in pairs]),
        "diversity_strength.csv": csv_text(
            ("doc_id", "system", "ds"),
            [(d, s, f"{dss[d][j]:.6f}") for d in doc_ids for j, s in enumerate(system_ids)]),
        "diversity_pairs_mean.csv": csv_text(
            ("system_a", "system_b", "mean_cd"),
            [(system_ids[j], system_ids[k], mean(cds[d][j, k] for d in doc_ids))
             for j, k in pairs]),
        "diversity_strength_mean.csv": csv_text(
            ("system", "mean_ds"),
            [(s, mean(dss[d][j] for d in doc_ids)) for j, s in enumerate(system_ids)]),
    }
    for d in rsc_docs:
        # the doc_id with every character but letters, digits and -_. as _
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in d)
        files[f"rsc_{safe}.csv"] = csv_text(
            ("rank", "score", "system"),
            [(position, f"{value:.6f}", s)
             for s, curve in zip(system_ids, curves[d])
             for position, value in enumerate(curve, start=1)])
    return files


def score_file_text(scores, labels):
    # a score file: one row per document, in the order of scores, and per
    # label, in the order of labels; each score as the shortest decimal
    # that reads back as the same float
    return csv_text(("doc_id", "label", "score"),
                    [(doc_id, label, repr(row[label]))
                     for doc_id, row in scores.items() for label in labels])


def corpus_stats_text(records):
    # corpus_stats.csv of (label or None, text) records: one row per label,
    # sorted, then "unlabeled" for the records without one, then "overall"
    # for all.  Each mean is taken over the documents that define the
    # metric, added left to right, and is "n/a" when none does
    def row(name, docs):
        cells = [name, len(docs)]
        for k in range(4):
            values = [doc[k] for doc in docs if doc[k] is not None]
            cells.append(f"{left_sum(values) / len(values):.6f}" if values else "n/a")
        return cells

    every, groups = [], {}
    for label, text in records:
        tokens = tokenize(text)
        ttr = len(set(tokens)) / len(tokens) if tokens else None
        every.append((len(tokens), ttr, distinct_n(tokens, 2), distinct_n(tokens, 3)))
        groups.setdefault(label, []).append(every[-1])
    names = sorted(label for label in groups if label is not None)
    rows = [row(label, groups[label]) for label in names]
    if None in groups:
        rows.append(row("unlabeled", groups[None]))
    rows.append(row("overall", every))
    return csv_text(("label", "docs", "mean_tokens", "mean_ttr", "mean_distinct2",
                     "mean_distinct3"), rows)
