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

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError

TIE_POLICIES = ("fractional", "ordinal")

# Cognitive diversity divides by n - 2, so fewer labels have no defined
# diversity and are rejected outright.
MIN_LABELS = 3


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
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        raise ValidationError(f"{what} must form a vector")
    if arr.size == 0:
        raise ValidationError(f"{what} vector is empty")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        index = where[0] if arr.ndim == 1 else where
        raise ValidationError(f"{what} at index {index} is not finite: {arr[where]!r}")
    return arr


@dataclass(frozen=True)
class LabelSet:
    """Ordered, fixed set of label identifiers scored for each document."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        seen: set[str] = set()
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValidationError("labels must be non-empty strings")
            if "|" in label:
                raise ValidationError(f"label {label!r} must not contain '|'")
            if label in seen:
                raise ValidationError(f"duplicate label {label!r}")
            seen.add(label)
        if len(labels) < MIN_LABELS:
            raise DomainError(
                f"label set needs at least {MIN_LABELS} labels, got {len(labels)}"
            )
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown label {label!r}") from None


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


def _check_tie_policy(tie_policy: str) -> None:
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(
            f"unknown tie policy {tie_policy!r}; expected one of {TIE_POLICIES}"
        )


def rank_from_scores(scores, tie_policy: str = "fractional") -> np.ndarray:
    """Assign ranks along the last axis so rank 1 goes to the highest score.

    Under the fractional policy tied scores share the average of the rank
    positions they span, #greater + (#equal + 1) / 2; under the ordinal
    policy the tie goes to the lower label index.
    """
    _check_tie_policy(tie_policy)
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


@dataclass(frozen=True, eq=False)
class SystemScores:
    """One system's raw scores with their normalized values and ranks."""

    system_id: str
    raw: np.ndarray
    normalized: np.ndarray
    ranks: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class RscCurve:
    """Rank-score characteristic: normalized score at each rank position.

    values[..., i - 1] is the normalized score of the label holding rank
    i, so the curve is non-increasing along the last axis by construction.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_rows(self.values, "curve value")
        if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
            raise ValidationError("curve values must lie in [0, 1]")
        if np.any(np.diff(arr, axis=-1) > 0):
            raise ValidationError("curve values must be non-increasing")
        object.__setattr__(self, "values", _freeze(arr))


def rsc_curve(normalized, ranks) -> RscCurve:
    """Build the RSC curve pairing each rank position with its score.

    With fractional tie ranks this equals the normalized scores sorted in
    non-increasing order; tied labels hold equal scores, so the shared
    rank is unambiguous.
    """
    norm = _as_rows(normalized, "normalized score")
    rk = _as_rows(ranks, "rank")
    if norm.shape != rk.shape:
        raise ValidationError(
            f"normalized scores {norm.shape} and ranks {rk.shape} differ in length"
        )
    order = np.argsort(rk, axis=-1, kind="stable")
    return RscCurve(np.take_along_axis(norm, order, axis=-1))


def cognitive_diversity(curve_a, curve_b):
    """Cognitive diversity between two RSC curves, or two stacks of them.

    sqrt(sum_i (f_A(i) - f_B(i))^2 / (n - 2)) over rank positions
    i = 1..n, summed in rank order.  The divisor requires at least three
    labels.  The value is symmetric, non-negative, and zero for identical
    curves.  Stacks pair up elementwise over their leading axes and give
    an array; two single curves give a float.
    """
    a, b = (_as_rows(getattr(c, "values", c), "curve value") for c in (curve_a, curve_b))
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


def diversity_strength(cd, subset: Sequence[int] | None = None) -> np.ndarray:
    """Mean cognitive diversity between each system and the others.

    cd is a (..., t, t) pairwise diversity matrix; leading axes, such as
    documents, carry through.  With subset, a sequence of system indices,
    strengths are recomputed within the subset, in subset order: weights
    for combination are taken relative to the systems actually being
    combined, not the full roster.
    """
    m = np.asarray(cd, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError("cognitive diversity matrix must be square")
    t = m.shape[-1]
    idx = list(range(t)) if subset is None else [int(j) for j in subset]
    if len(idx) < 2:
        raise DomainError("diversity strength needs at least two systems")
    if len(set(idx)) != len(idx) or not all(0 <= j < t for j in idx):
        raise ValidationError(f"subset {idx} repeats a system or is out of range for {t}")
    if not np.isfinite(m).all():
        raise ValidationError("cognitive diversity matrix contains non-finite values")
    out = np.empty(m.shape[:-2] + (len(idx),))
    for pos, j in enumerate(idx):
        total = _ordered_sum(m[..., j, k] for k in idx if k != j)
        out[..., pos] = total / (len(idx) - 1)
    return out


@dataclass(frozen=True, eq=False)
class DiversityProfile:
    """Pairwise cognitive diversities and per-system diversity strengths."""

    system_ids: tuple[str, ...]
    cd: np.ndarray
    ds: np.ndarray

    def pair(self, id_a: str, id_b: str) -> float:
        return float(self.cd[self._pos(id_a), self._pos(id_b)])

    def strength(self, system_id: str) -> float:
        return float(self.ds[self._pos(system_id)])

    def _pos(self, system_id: str) -> int:
        try:
            return self.system_ids.index(system_id)
        except ValueError:
            raise ValidationError(f"unknown system id {system_id!r}") from None


@dataclass(frozen=True, eq=False)
class FusionBatch:
    """Scores of many documents with their ranks, curves and diversity.

    raw is a (docs, systems, labels) array of finite scores aligned with
    doc_ids, system_ids and the label set.  Each derived array keeps those
    axes (cd is (docs, systems, systems); cd and ds are None for a single
    system) and is computed for every document at once, on first use.
    """

    doc_ids: tuple[str, ...]
    label_set: LabelSet
    system_ids: tuple[str, ...]
    raw: np.ndarray
    tie_policy: str = "fractional"

    def __post_init__(self) -> None:
        docs, ids = tuple(self.doc_ids), tuple(self.system_ids)
        if not docs:
            raise ValidationError("at least one document is required")
        if not ids:
            raise ValidationError("at least one scoring system is required")
        if not all(isinstance(s, str) and s for s in ids):
            raise ValidationError("system ids must be non-empty strings")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate system id in {list(ids)}")
        _check_tie_policy(self.tie_policy)
        raw = _freeze(_as_rows(self.raw, "raw score"))
        if raw.shape != (len(docs), len(ids), self.label_set.n):
            raise ValidationError(
                f"raw scores have shape {raw.shape}, expected "
                f"{(len(docs), len(ids), self.label_set.n)} for documents x systems x labels"
            )
        object.__setattr__(self, "doc_ids", docs)
        object.__setattr__(self, "system_ids", ids)
        object.__setattr__(self, "raw", raw)

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
        return rsc_curve(self.normalized, self.ranks).values

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

    def subset_index(self, subset: Sequence[str]) -> tuple[int, ...]:
        """Positions of the named systems on the system axis, in subset order."""
        ids = list(subset)
        if not ids:
            raise ValidationError("subset must name at least one system")
        if len(set(ids)) != len(ids):
            raise ValidationError("subset contains a repeated system id")
        index = {s: j for j, s in enumerate(self.system_ids)}
        try:
            return tuple(index[s] for s in ids)
        except KeyError as exc:
            raise ValidationError(f"unknown system id {exc.args[0]!r}") from None


@dataclass(frozen=True, eq=False)
class FusionInstance(FusionBatch):
    """A batch of one document, with per-system views of its arrays.

    diversity is None when the instance holds a single system.
    """

    @property
    def doc_id(self) -> str:
        return self.doc_ids[0]

    @property
    def systems(self) -> tuple[SystemScores, ...]:
        return tuple(
            SystemScores(s, self.raw[0, j], self.normalized[0, j], self.ranks[0, j],
                         bool(self.degenerate[0, j]))
            for j, s in enumerate(self.system_ids)
        )

    @property
    def curves(self) -> tuple[RscCurve, ...]:
        return tuple(RscCurve(values) for values in self.rsc[0])

    @property
    def diversity(self) -> DiversityProfile | None:
        if self.cd is None:
            return None
        return DiversityProfile(self.system_ids, self.cd[0], self.ds[0])

    @property
    def degenerate_systems(self) -> tuple[str, ...]:
        return tuple(s for s, flag in zip(self.system_ids, self.degenerate[0]) if flag)


def build_instance(
    doc_id: str,
    label_set: LabelSet,
    system_scores,
    tie_policy: str = "fractional",
) -> FusionInstance:
    """Assemble a fusion instance from raw per-system label scores.

    system_scores maps system id to either a score vector aligned with the
    label set or a mapping from label to score.  Every system must supply
    exactly one finite score per label.
    """
    if isinstance(system_scores, Mapping):
        items = list(system_scores.items())
    else:
        items = [tuple(item) for item in system_scores]
        for item in items:
            if len(item) != 2:
                raise ValidationError("system scores must be (system_id, scores) pairs")
    vectors = [_vector_for_labels(s, scores, label_set) for s, scores in items]
    ids = [system_id for system_id, _ in items]
    return FusionInstance((doc_id,), label_set, ids, [vectors], tie_policy)


def _vector_for_labels(system_id: str, scores, label_set: LabelSet) -> list[float]:
    if isinstance(scores, Mapping):
        for label in scores:
            if label not in label_set:
                raise ValidationError(
                    f"system {system_id!r} scored unknown label {label!r}"
                )
        missing = [label for label in label_set.labels if label not in scores]
        if missing:
            raise ValidationError(
                f"system {system_id!r} is missing a score for label {missing[0]!r}"
            )
        return [float(scores[label]) for label in label_set.labels]
    vector = list(scores)
    if len(vector) != label_set.n:
        raise ValidationError(
            f"system {system_id!r} supplied {len(vector)} scores for {label_set.n} labels"
        )
    return [float(v) for v in vector]


def as_batch(instances) -> FusionBatch:
    """A batch as given, or instances sharing one label set, system roster
    and tie policy stacked into one, in the first instance's system order."""
    if isinstance(instances, FusionBatch):
        return instances
    instances = list(instances)
    if not instances:
        raise ValidationError("at least one fusion instance is required")
    first = instances[0]
    for inst in instances:
        if inst.label_set.labels != first.label_set.labels:
            raise ValidationError(f"document {inst.doc_id!r} uses a different label set")
        if set(inst.system_ids) != set(first.system_ids):
            raise ValidationError(
                f"document {inst.doc_id!r} has systems {sorted(inst.system_ids)}, "
                f"expected {sorted(first.system_ids)}"
            )
        if inst.tie_policy != first.tie_policy:
            raise ValidationError(f"document {inst.doc_id!r} uses a different tie policy")
    raw = [inst.raw[0, list(inst.subset_index(first.system_ids))] for inst in instances]
    return FusionBatch(
        [inst.doc_id for inst in instances], first.label_set, first.system_ids,
        raw, first.tie_policy,
    )
