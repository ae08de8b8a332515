"""Naive reference implementations used as independent test oracles.

Every function is a direct pure-Python transcription of the defining
formula, written without looking at the library code and importing
nothing from it.  Tests compare library output against these.
"""

from __future__ import annotations

import csv
import math
import unicodedata


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


def cd(curve_a, curve_b):
    # squared via multiplication: libm pow(x, 2) can be an ulp off the
    # correctly rounded square, which would perturb exact tie groups
    n = len(curve_a)
    total = 0
    for a, b in zip(curve_a, curve_b):
        diff = a - b
        total += diff * diff
    return math.sqrt(total / (n - 2))


def ds(curves, j):
    t = len(curves)
    return sum(cd(curves[j], curves[k]) for k in range(t) if k != j) / (t - 1)


def asc(score_vectors):
    t = len(score_vectors)
    n = len(score_vectors[0])
    return [sum(v[i] for v in score_vectors) / t for i in range(n)]


def arc(rank_vectors):
    return asc(rank_vectors)


def wsc(score_vectors, weights):
    total = sum(weights)
    n = len(score_vectors[0])
    return [
        sum(w * v[i] for w, v in zip(weights, score_vectors)) / total
        for i in range(n)
    ]


def wrc(rank_vectors, weights):
    inverse = [1.0 / w for w in weights]
    total = sum(inverse)
    n = len(rank_vectors[0])
    return [
        sum(iv * v[i] for iv, v in zip(inverse, rank_vectors)) / total
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
    # each non-empty row below the header, the row's number counted from
    # the header's 1; the text of the first error ends the stream, and a
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
            yield fault or f"{path}: expected header {','.join(header)}, found {','.join(found)}"
            return
        line_no = 1
        for row in reader:
            line_no += 1
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
        if not doc_ids:
            return f"{where} no expert-labeled documents to evaluate"
        if set(rows) - set(doc_ids):
            return f"{where} expert labels missing for documents {names(set(rows) - set(doc_ids))}"
        if set(doc_ids) - set(rows):
            return f"{where} missing predictions for documents {names(set(doc_ids) - set(rows))}"
    top1 = [[predicted[c][d][0] for d in doc_ids] for c in predicted]
    tied = [[predicted[c][d][1] for d in doc_ids] for c in predicted]
    return list(predicted), top1, tied
