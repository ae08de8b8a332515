"""Naive reference implementations used as independent test oracles.

Every function is a direct pure-Python transcription of the defining
formula, written without looking at the library code and importing
nothing from it.  Tests compare library output against these.
"""

from __future__ import annotations

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
