"""The label set and the vocabulary of the run settings.

Every command checks these before it loads any data: the label set a
config names and its system ids, through _ids, the one check of every
sequence of ids, and each choice setting's value, through CHOICES.
STRATEGIES names the four strategies every grid fuses.  The module needs
only the standard library, so commands without array work skip numpy.
"""

from __future__ import annotations

from .errors import DomainError, ValidationError

STRATEGIES = ("asc", "arc", "wsc", "wrc")

# each choice setting: the name its errors use and its values, default first
CHOICES = {
    "tie_policy": ("tie policy", ("fractional", "ordinal")),
    "tie_mode": ("tie mode", ("strict", "lenient")),
    "weights": ("weight source", ("ds", "perf")),
}

# Characters with structural meaning in combo ids and output tables.
RESERVED_ID_CHARS = "+:|"

# Cognitive diversity divides by n - 2, so fewer labels have no defined
# diversity and are rejected outright.
MIN_LABELS = 3


class LabelSet:
    """Ordered, fixed set of label identifiers scored for each document."""

    def __init__(self, labels: tuple[str, ...]) -> None:
        labels = _ids(labels, "label")
        for label in labels:
            if not label or "|" in label:
                raise ValidationError(f"label {label!r} is empty or holds the reserved '|'")
        if len(labels) < MIN_LABELS:
            raise DomainError(
                f"label set needs at least {MIN_LABELS} labels, got {len(labels)}"
            )
        self.labels = labels
        self._index = {l: i for i, l in enumerate(labels)}

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


def _sequence(values, what: str):
    """values, refused when a str (never read as characters) or not iterable:
    the one test of a sequence, of ids or of records."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ValidationError(f"{what} must be a sequence, got {type(values).__name__}")
    return values


def _ids(values, what: str) -> tuple[str, ...]:
    """values as a tuple of distinct strings, after the sequence test."""
    ids: dict[str, None] = {}  # in order
    for value in _sequence(values, f"{what}s"):
        if not isinstance(value, str):
            raise ValidationError(f"{what}s must be strings, got {type(value).__name__}")
        if value in ids:
            raise ValidationError(f"duplicate {what} {value!r}")
        ids[value] = None
    return tuple(ids)


def _check_system_ids(system_ids: tuple[str, ...]) -> None:
    for system_id in system_ids:
        if not system_id or any(c in system_id for c in RESERVED_ID_CHARS):
            raise ValidationError(
                f"system id {system_id!r} is empty or uses a reserved "
                f"character from {RESERVED_ID_CHARS!r}"
            )


def _check_choice(setting: str, value: str) -> None:
    name, values = CHOICES[setting]
    if value not in values:
        raise ValidationError(f"unknown {name} {value!r}; expected one of {values}")
