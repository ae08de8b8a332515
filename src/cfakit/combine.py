"""Combination strategies over subsets of scoring systems.

Four strategies fuse the per-label outputs of a system subset into one
combined vector per document:

  asc  average of normalized scores, higher is better
  arc  average of ranks, lower is better
  wsc  weighted average of normalized scores, weights w_j, higher better
  wrc  rank average weighted by the reciprocals 1/w_j, lower better

Weights default to diversity strengths recomputed within the subset;
performance weights can be supplied instead.  The grid runner enumerates
every subset of size min_size..t crossed with the chosen strategies.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import FusionBatch, FusionInstance, _ordered_sum, as_batch, diversity_strength
from .errors import DomainError, ValidationError

STRATEGIES = ("asc", "arc", "wsc", "wrc")
WEIGHT_SOURCES = ("ds", "perf")

# Weights at or below this threshold are treated as vanishing; weighted
# strategies fall back to their unweighted versions instead of dividing
# by (nearly) zero.
EPSILON = 1e-12


@dataclass(frozen=True)
class CombinedModel:
    """A subset of at least two systems paired with a combination strategy."""

    systems: tuple[str, ...]
    strategy: str
    weight_source: str | None = None

    def __post_init__(self) -> None:
        systems = tuple(sorted(self.systems))
        object.__setattr__(self, "systems", systems)
        if len(systems) < 2:
            raise ValidationError("a combined model needs at least two systems")
        if len(set(systems)) != len(systems):
            raise ValidationError("a combined model cannot repeat a system")
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        weighted = self.strategy in ("wsc", "wrc")
        if weighted:
            if self.weight_source not in WEIGHT_SOURCES:
                raise ValidationError(
                    f"strategy {self.strategy!r} needs a weight source from {WEIGHT_SOURCES}"
                )
        elif self.weight_source is not None:
            raise ValidationError(
                f"strategy {self.strategy!r} does not take a weight source"
            )

    @property
    def tag(self) -> str:
        if self.weight_source is None:
            return self.strategy
        return f"{self.strategy}-{self.weight_source}"

    @property
    def combo_id(self) -> str:
        return "+".join(self.systems) + ":" + self.tag


@dataclass(frozen=True, eq=False)
class FusedRanking:
    """Combined values and the resulting label ranking for one document.

    combined_values follows the label-set order.  ranking lists labels
    from best to worst with value ties broken by label order, so top1 is
    always deterministic.  tied_top lists every label sharing the best
    combined value, in label order; tie_at_top is true when there is more
    than one.  combined_values is a read-only row of the (docs, labels)
    block of values fused for every document at once.  weight_fallback marks results where a weighted strategy
    fell back to its unweighted counterpart because of vanishing weights.
    """

    doc_id: str
    combined_values: np.ndarray
    ranking: tuple[str, ...]
    top1: str
    tie_at_top: bool
    tied_top: tuple[str, ...]
    weight_fallback: bool = False


def _check_strategies(strategies: Sequence[str]) -> list[str]:
    """The chosen strategies, in STRATEGIES order."""
    unknown = sorted(set(strategies) - set(STRATEGIES))
    if unknown:
        raise ValidationError(f"unknown strategies {unknown}; expected a subset of {STRATEGIES}")
    chosen = [s for s in STRATEGIES if s in strategies]
    if not chosen:
        raise ValidationError("at least one strategy is required")
    return chosen


def _check_weight_source(weight_source: str) -> None:
    if weight_source not in WEIGHT_SOURCES:
        raise ValidationError(
            f"unknown weight source {weight_source!r}; expected one of {WEIGHT_SOURCES}"
        )


def _check_min_size(min_size: int) -> None:
    if min_size < 2:
        raise ValidationError(f"minimum subset size is 2, got {min_size}")


def enumerate_combinations(system_ids: Sequence[str], min_size: int = 2) -> list[tuple[str, ...]]:
    """All system subsets from min_size up to the full roster.

    Subsets are listed smallest size first, lexicographically within each
    size, so the enumeration is deterministic.
    """
    ids = sorted(system_ids)
    if len(set(ids)) != len(ids):
        raise ValidationError("system ids must be unique")
    t = len(ids)
    if t < 2:
        raise DomainError(f"a combination grid needs at least two systems, got {t}")
    _check_min_size(min_size)
    if min_size > t:
        raise ValidationError(
            f"minimum subset size {min_size} exceeds the system count {t}"
        )
    return [
        subset
        for size in range(min_size, t + 1)
        for subset in combinations(ids, size)
    ]


def _fuse_arrays(
    batch: FusionBatch, idx: Sequence[int], strategy: str, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fuse the systems at positions idx under one strategy, for every
    document at once; weights is (docs, len(idx)) for wsc and wrc.

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
            if np.any(weights < 0):
                raise ValidationError("score combination weights must be non-negative")
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


def _fuse(batch: FusionBatch, fused: tuple) -> list[FusedRanking]:
    """A _fuse_arrays result as one FusedRanking per document."""
    values, order, tied, fallback = fused
    labels = batch.label_set.labels
    values.setflags(write=False)
    out = []
    for doc_id, row, positions, count, flag in zip(
        batch.doc_ids, values, order.tolist(), tied.tolist(), fallback.tolist()
    ):
        ranking = tuple([labels[i] for i in positions])
        # the tied labels lead the ranking, already in label order
        out.append(FusedRanking(
            doc_id, row, ranking, ranking[0], count > 1, ranking[:count], flag
        ))
    return out


def _top_labels(
    batch: FusionBatch, idx: Sequence[int], strategy: str, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The top-1 label index of each document and a (docs, labels) mask of
    the labels tied at the top, from the same kernel as _fuse."""
    _, order, tied, _ = _fuse_arrays(batch, idx, strategy, weights)
    mask = np.zeros(order.shape, dtype=bool)
    leading = np.arange(order.shape[1]) < tied[:, None]
    np.put_along_axis(mask, order, leading, axis=1)
    return order[:, 0], mask


def _fuse_one(
    instance: FusionInstance, subset: Sequence[str], strategy: str, weights=None
) -> FusedRanking:
    idx = instance.subset_index(subset)
    if strategy in ("wsc", "wrc"):
        weights = _resolve_weights(instance, subset, idx, weights)
    return _fuse(instance, _fuse_arrays(instance, idx, strategy, weights))[0]


def _resolve_weights(batch: FusionBatch, subset, idx, weights) -> np.ndarray:
    if weights is None:
        if batch.cd is None:
            raise DomainError(
                "diversity-strength weights need an instance with at least two systems"
            )
        return diversity_strength(batch.cd, idx)
    if isinstance(weights, Mapping):
        try:
            resolved = [float(weights[system_id]) for system_id in subset]
        except KeyError as exc:
            raise ValidationError(f"missing weight for system {exc.args[0]!r}") from None
    else:
        resolved = [float(w) for w in weights]
        if len(resolved) != len(idx):
            raise ValidationError(
                f"got {len(resolved)} weights for {len(idx)} systems"
            )
    arr = np.asarray(resolved, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError("weights must be finite")
    return np.broadcast_to(arr, (len(batch), arr.size))


def average_score_combination(instance: FusionInstance, subset: Sequence[str]) -> FusedRanking:
    """Mean of the subset's normalized scores per label; higher is better."""
    return _fuse_one(instance, subset, "asc")


def average_rank_combination(instance: FusionInstance, subset: Sequence[str]) -> FusedRanking:
    """Mean of the subset's ranks per label; lower is better."""
    return _fuse_one(instance, subset, "arc")


def weighted_score_combination(
    instance: FusionInstance, subset: Sequence[str], weights=None
) -> FusedRanking:
    """Weighted mean of normalized scores: sum(w_j * s_j) / sum(w_j).

    Weights default to diversity strengths recomputed within the subset.
    When the weights sum to (nearly) zero, for example when all subset
    systems are identical, the result falls back to the plain score
    average and is flagged via weight_fallback.
    """
    return _fuse_one(instance, subset, "wsc", weights)


def weighted_rank_combination(
    instance: FusionInstance, subset: Sequence[str], weights=None
) -> FusedRanking:
    """Rank average weighted by reciprocals: sum(r_j / w_j) / sum(1 / w_j).

    The reciprocal form keeps the combined value on the rank scale while
    letting larger weights count for more.  Any weight at or below the
    vanishing threshold would blow up its reciprocal, so the result falls
    back to the plain rank average and is flagged via weight_fallback.
    """
    return _fuse_one(instance, subset, "wrc", weights)


def run_grid(
    instances: FusionBatch | Sequence[FusionInstance],
    strategies: Sequence[str] = STRATEGIES,
    min_size: int = 2,
    weight_source: str = "ds",
    performance: Mapping[str, float] | None = None,
) -> dict[str, list[FusedRanking]]:
    """Fuse every document under every (subset, strategy) combination.

    instances is a batch or a sequence of instances; they must share one
    label set and one system roster.  Returns a mapping from combo_id to
    the per-document results in input order.
    Performance weights apply globally per system and require the
    performance mapping; diversity-strength weights are recomputed per
    document and subset.
    """
    batch = as_batch(instances)
    return {
        combo_id: _fuse(batch, fused)
        for combo_id, fused in grid_arrays(batch, strategies, min_size, weight_source, performance)
    }


def grid_arrays(
    batch: FusionBatch,
    strategies: Sequence[str] = STRATEGIES,
    min_size: int = 2,
    weight_source: str = "ds",
    performance: Mapping[str, float] | None = None,
) -> Iterator[tuple[str, tuple[np.ndarray, ...]]]:
    """The combination grid of run_grid, one combo at a time in run_grid's
    order, as (combo_id, the _fuse_arrays result) pairs.  The arguments are
    checked when iteration starts, before the first pair is made."""
    roster = set(batch.system_ids)
    chosen = _check_strategies(strategies)
    _check_weight_source(weight_source)
    needs_weights = any(s in ("wsc", "wrc") for s in chosen)
    perf: dict[str, float] | None = None
    if needs_weights and weight_source == "perf":
        if performance is None:
            raise ValidationError("performance weighting requires per-system performances")
        missing = sorted(roster - set(performance))
        if missing:
            raise ValidationError(f"missing performance weights for systems {missing}")
        perf = {system_id: float(performance[system_id]) for system_id in roster}
        values = np.array(list(perf.values()))
        if not np.isfinite(values).all() or np.any(values < 0):
            raise ValidationError("performance weights must be finite and non-negative")

    for subset in enumerate_combinations(sorted(roster), min_size):
        idx = batch.subset_index(subset)
        weights = None
        if needs_weights:
            # one set of weights per subset, shared by wsc and wrc
            weights = _resolve_weights(batch, subset, idx, perf)
        for strategy in chosen:
            source = weight_source if strategy in ("wsc", "wrc") else None
            model = CombinedModel(systems=subset, strategy=strategy, weight_source=source)
            yield model.combo_id, _fuse_arrays(batch, idx, strategy, weights)
