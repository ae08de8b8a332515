"""Score, rank, and diversity mathematics for combinatorial fusion.

A scoring system assigns one real score to every label of a document.
This module normalizes those scores, converts them to ranks, builds the
rank-score characteristic (RSC) curve that profiles how a system spreads
its scores over rank positions, and measures pairwise cognitive diversity
between systems.  Every function works along the last (label) axis, so
one call covers a single score vector or a whole (documents, systems,
labels) cube; normalization and ranking never mix values from different
documents or systems.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError
from .settings import MIN_LABELS, LabelSet, _check_choice, _check_system_ids, _ids


def _freeze(values: Iterable[float] | np.ndarray, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _ordered_sum(terms: Iterable) -> np.ndarray:
    # Plain elementwise adds, first term to last.  The reduction order is
    # part of the output contract, so sums over systems, rank positions and
    # documents never go through np.sum, np.mean or BLAS, whose pairwise
    # summation changes low bits and with them exact tie groups.
    terms = iter(terms)
    total = np.array(next(terms), dtype=float)
    for term in terms:
        total += term
    return total


def _as_rows(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError:  # ragged nesting or a non-numeric entry
        raise ValidationError(f"{what}s do not form a rectangular array of numbers") from None
    if arr.ndim == 0:
        raise ValidationError(f"{what} must form a vector")
    if arr.size == 0:
        raise ValidationError(f"{what} vector is empty")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        index = where[0] if arr.ndim == 1 else where
        raise ValidationError(f"{what} at index {index} is not finite: {float(arr[where])!r}")
    return arr


def normalize_scores(raw) -> np.ndarray:
    """Min-max normalize raw scores to [0, 1] along the last axis.

    A constant row carries no ordering information, so every entry maps
    to 0.5; callers mark such systems degenerate rather than failing.
    """
    arr = _as_rows(raw, "raw score")
    lo = arr.min(axis=-1, keepdims=True)
    span = arr.max(axis=-1, keepdims=True) - lo
    flat = span == 0.0
    return np.where(flat, 0.5, (arr - lo) / np.where(flat, 1.0, span))


def rank_from_scores(scores, tie_policy: str = "fractional") -> np.ndarray:
    """Assign ranks along the last axis so rank 1 goes to the highest score.

    Under the fractional policy tied scores share the average of the rank
    positions they span, #greater + (#equal + 1) / 2; under the ordinal
    policy the tie goes to the lower label index.
    """
    _check_choice("tie_policy", tie_policy)
    arr = _as_rows(scores, "score")
    if tie_policy == "ordinal":
        order = np.argsort(-arr, axis=-1, kind="stable")
        return np.argsort(order, axis=-1, kind="stable") + 1.0
    # [..., i, k] compares label k against label i
    others = arr[..., None, :]
    mine = arr[..., :, None]
    greater = np.count_nonzero(others > mine, axis=-1)
    equal = np.count_nonzero(others == mine, axis=-1)
    return greater + (equal + 1) / 2


def rsc_curve(normalized) -> np.ndarray:
    """The rank-score characteristic: normalized score at each rank position.

    values[..., i - 1] is the normalized score of the label holding rank
    i, that is the normalized scores sorted in non-increasing order along
    the last axis, so the curve lies in [0, 1].  Tied labels hold equal
    scores, so no tie policy changes it.
    """
    # a stable sort of the negated scores keeps equal scores in label order,
    # as sorted(reverse=True) does, so a -0.0 and a 0.0 never swap places
    return -np.sort(-_as_rows(normalized, "normalized score"), axis=-1, kind="stable")


def cognitive_diversity(curve_a, curve_b):
    """Cognitive diversity between two RSC curves, or two stacks of them.

    sqrt(sum_i (f_A(i) - f_B(i))^2 / (n - 2)) over rank positions
    i = 1..n, summed in rank order.  The divisor requires at least three
    labels.  The value is symmetric, non-negative, and zero for identical
    curves.  Stacks pair up elementwise over their leading axes and give
    an array; two single curves give a float.
    """
    a, b = (_as_rows(c, "curve value") for c in (curve_a, curve_b))
    if a.shape != b.shape:
        raise ValidationError(f"curves differ in length: {a.shape} versus {b.shape}")
    n = int(a.shape[-1])
    if n < MIN_LABELS:
        raise DomainError(
            f"cognitive diversity needs at least {MIN_LABELS} labels, got {n}"
        )
    diff = a - b
    squares = diff * diff
    total = _ordered_sum(squares[..., i] for i in range(n))
    out = np.sqrt(total / (n - 2))
    return float(out) if out.ndim == 0 else out


def diversity_strength(cd) -> np.ndarray:
    """Mean cognitive diversity between each system and the others.

    cd is a (..., t, t) pairwise diversity matrix; leading axes, such as
    documents, carry through.  Within a combination, a system's strength
    is that of the combination's own matrix, cd[..., idx, :][..., idx]:
    weights for combination are taken relative to the systems actually
    being combined, not the full roster.
    """
    m = _as_rows(cd, "cognitive diversity value")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError("cognitive diversity matrix must be square")
    t = m.shape[-1]
    if t < 2:
        raise DomainError("diversity strength needs at least two systems")
    out = np.empty(m.shape[:-2] + (t,))
    for j in range(t):
        total = _ordered_sum(m[..., j, k] for k in range(t) if k != j)
        out[..., j] = total / (t - 1)
    return out


class FusionBatch:
    """Scores of many documents with their ranks, curves and diversity.

    raw is a (docs, systems, labels) array of finite scores aligned with
    doc_ids, system_ids and the label set.  Each derived array keeps those
    axes (cd is (docs, systems, systems); cd and ds are None for a single
    system) and is computed for every document at once, on first use.
    A system id is non-empty and holds no "+", ":" or "|", which separate
    the parts of combo ids and of report table fields.
    """

    def __init__(
        self,
        doc_ids: tuple[str, ...],
        label_set: LabelSet,
        system_ids: tuple[str, ...],
        raw: np.ndarray,
        tie_policy: str = "fractional",
    ) -> None:
        # fused.csv lists documents by doc_id text, and its writer and reader
        # take them from here; the empty string is an id like any other
        docs, ids = _ids(doc_ids, "doc id"), _ids(system_ids, "system id")
        if not docs:
            raise ValidationError("at least one document is required")
        if not ids:
            raise ValidationError("at least one scoring system is required")
        _check_system_ids(ids)
        _check_choice("tie_policy", tie_policy)
        raw = _freeze(_as_rows(raw, "raw score"))
        if raw.shape != (len(docs), len(ids), label_set.n):
            raise ValidationError(
                f"raw scores have shape {raw.shape}, expected "
                f"{(len(docs), len(ids), label_set.n)} for documents x systems x labels"
            )
        self.doc_ids = docs
        self.label_set = label_set
        self.system_ids = ids
        self.raw = raw
        self.tie_policy = tie_policy

    def __len__(self) -> int:
        return len(self.doc_ids)

    @property
    def t(self) -> int:
        return len(self.system_ids)

    @cached_property
    def normalized(self) -> np.ndarray:
        return _freeze(normalize_scores(self.raw))

    @cached_property
    def ranks(self) -> np.ndarray:
        return _freeze(rank_from_scores(self.raw, self.tie_policy))

    @cached_property
    def rsc(self) -> np.ndarray:
        return _freeze(rsc_curve(self.normalized))

    @cached_property
    def degenerate(self) -> np.ndarray:
        return _freeze(self.raw.max(axis=-1) == self.raw.min(axis=-1), bool)

    @cached_property
    def cd(self) -> np.ndarray | None:
        if self.t < 2:
            return None
        # every ordered pair at once; the diagonal is exactly zero and the
        # two triangles are bit-identical because squares drop the sign
        pairs = np.broadcast_arrays(self.rsc[:, :, None, :], self.rsc[:, None, :, :])
        return _freeze(cognitive_diversity(*pairs))

    @cached_property
    def ds(self) -> np.ndarray | None:
        return None if self.cd is None else _freeze(diversity_strength(self.cd))
