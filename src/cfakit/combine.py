"""Combination strategies over subsets of scoring systems.

Four strategies fuse the per-label outputs of a system subset into one
combined vector per document:

  asc  average of normalized scores, higher is better
  arc  average of ranks, lower is better
  wsc  weighted average of normalized scores, weights w_j, higher better
  wrc  rank average weighted by the reciprocals 1/w_j, lower better

Weights are diversity strengths recomputed within the subset, or each
system's performance when grid_arrays is given a performance mapping.
grid_arrays takes a FusionBatch and yields every subset of two or more
of its t systems crossed with the four strategies, one combined model at
a time, each fused for every document at once by _fuse_arrays.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from itertools import combinations

import numpy as np

from .core import FusionBatch, _ordered_sum, diversity_strength
from .errors import DomainError, ValidationError
from .fileio import _JSON_KINDS
from .settings import STRATEGIES, _ids

# Weights at or below this threshold are treated as vanishing; weighted
# strategies fall back to their unweighted versions instead of dividing
# by (nearly) zero.
EPSILON = 1e-12
# The fewest combined models worth a forked process of their own (see
# README "The pipeline in five commands").
MIN_SHARE = 250


def enumerate_combinations(system_ids: Sequence[str]) -> list[tuple[str, ...]]:
    """All system subsets of two or more, up to the full roster.

    Subsets are listed smallest size first, lexicographically within each
    size, so the enumeration is deterministic.
    """
    ids = sorted(_ids(system_ids, "system id"))
    t = len(ids)
    if t < 2:
        raise DomainError(f"a combination grid needs at least two systems, got {t}")
    return [subset for size in range(2, t + 1) for subset in combinations(ids, size)]


def _fuse_arrays(
    batch: FusionBatch, idx: Sequence[int], strategy: str, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fuse the systems at positions idx under one strategy, for every
    document at once; weights is (docs, len(idx)), never negative, and
    read by wsc and wrc only.

    wsc is sum(w_j * s_j) / sum(w_j) and falls back to the plain score
    average where the weights sum to (nearly) zero, as when every subset
    system is the same; wrc is sum(r_j / w_j) / sum(1 / w_j) and falls
    back to the plain rank average where any weight vanishes.

    Returns the (docs, labels) combined values, each document's label
    indices best first (value ties keep label order), the number of labels
    tied at the top, and the weight fallback flag of each document.
    """
    cube = batch.ranks if strategy in ("arc", "wrc") else batch.normalized
    rows = [cube[:, j] for j in idx]
    if strategy in ("asc", "arc"):
        values = _ordered_sum(rows) / len(rows)
        fallback = np.zeros(len(batch), dtype=bool)
    else:
        if strategy == "wsc":
            factors = weights
            total = _ordered_sum(weights.T)
            fallback = total <= EPSILON
        else:
            # the reciprocal of a vanishing weight would blow up
            fallback = np.any(weights <= EPSILON, axis=1)
            factors = 1.0 / np.where(fallback[:, None], 1.0, weights)
            total = _ordered_sum(factors.T)
        values = _ordered_sum(f[:, None] * row for f, row in zip(factors.T, rows))
        values /= np.where(fallback, 1.0, total)[:, None]
        if fallback.any():
            # the plain subset mean, only where some document needs it
            values = np.where(fallback[:, None], _ordered_sum(rows) / len(rows), values)

    keys = -values if strategy in ("asc", "wsc") else values
    # stable sort: value ties keep label order
    order = np.argsort(keys, axis=1, kind="stable")
    best = np.take_along_axis(keys, order[:, :1], axis=1)
    tied = np.count_nonzero(keys == best, axis=1)
    return values, order, tied, fallback


def grid_arrays(
    batch: FusionBatch, performance: Mapping[str, float] | None = None
) -> Iterator[tuple[str, tuple[np.ndarray, ...]]]:
    """Fuse every document under every (subset, strategy) combination, one
    combined model at a time, as (combo_id, the _fuse_arrays result) pairs.
    A combo_id names the subset's system ids, sorted and joined by "+",
    then ":" and the strategy tag: the strategy, with "-ds" or "-perf"
    after wsc and wrc, as in "A+B:asc" or "A+B:wsc-ds".  Pairs come in
    combo_id order, the order of fused.csv: subsets sorted by their
    "a+b:" prefix, then each subset's strategies by tag.  A batch's system
    ids hold no ":", so no prefix starts another and a subset's models stay
    together.  The arguments are checked at the call, before any pair is
    made.

    Without performance, wsc and wrc are weighted by diversity strengths,
    recomputed per document and subset, and tagged "-ds".  With it, they
    are weighted by its value for each system, the same for every
    document, and tagged "-perf"; it must name every system of the batch,
    each with a finite, non-negative real number, and their sum must be
    finite."""
    (grid,) = _grid_shares(batch, performance, 1)
    return grid


def _grid_shares(batch: FusionBatch, performance: Mapping[str, float] | None, cpus: int):
    """grid_arrays' pairs in contiguous shares of its sorted subsets, one
    iterator each: a share per CPU, none of fewer than MIN_SHARE models."""
    perf: dict[str, float] | None = None
    if performance is not None:
        missing = sorted(set(batch.system_ids) - set(performance))
        if missing:
            raise ValidationError(f"missing performance weights for systems {missing}")
        weights = [performance[system_id] for system_id in batch.system_ids]
        if not all(_JSON_KINDS["a finite real"](w) and w >= 0 for w in weights):
            raise ValidationError("performance weights must be finite and non-negative numbers")
        perf = dict(zip(batch.system_ids, map(float, weights)))
        if not np.isfinite(sum(perf.values())):  # wsc divides by the sum
            raise ValidationError("performance weights must have a finite sum")
    subsets = sorted(enumerate_combinations(batch.system_ids), key=lambda s: "+".join(s) + ":")
    n = max(1, min(cpus, len(subsets) * len(STRATEGIES) // MIN_SHARE))
    if n > 1 and perf is None:
        batch.cd  # made once here, not in each process a share goes to
    cuts = [len(subsets) * k // n for k in range(n + 1)]
    return [_grid(batch, subsets[a:b], perf) for a, b in zip(cuts, cuts[1:])]


def _grid(batch: FusionBatch, subsets, perf):
    """grid_arrays' pairs, made as they are asked for."""
    position = {system_id: j for j, system_id in enumerate(batch.system_ids)}
    source = "ds" if perf is None else "perf"
    for subset in subsets:
        # positions in sorted-id order, the order every sum over systems takes
        idx = [position[system_id] for system_id in subset]
        prefix = "+".join(subset) + ":"
        # one set of weights per subset, shared by wsc and wrc: strengths
        # within the subset's own cd matrix; a grid has at least two
        # systems, so batch.cd is never None here
        weights = (diversity_strength(batch.cd[:, idx][:, :, idx]) if perf is None else
                   np.broadcast_to([perf[s] for s in subset], (len(batch), len(idx))))
        # no strategy name starts another, so strategies sort as their tags do
        for strategy in sorted(STRATEGIES):
            tag = f"{strategy}-{source}" if strategy in ("wsc", "wrc") else strategy
            yield prefix + tag, _fuse_arrays(batch, idx, strategy, weights)
