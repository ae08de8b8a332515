"""The label set and the vocabulary of the run settings.

Every command checks these before it loads any data: the label set a
config names, its system ids, and each choice setting's value, which
_check_choice looks up in CHOICES.  STRATEGIES names the four combination
strategies, which every grid fuses.  The module needs nothing beyond the
standard library, so the commands that do no array work
(`score --scorer keyword`, `gen-prompts`) never load numpy.
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
        labels = tuple(labels)
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


def _check_system_id(system_id: str, where: str = "") -> None:
    if not system_id or any(c in system_id for c in RESERVED_ID_CHARS):
        raise ValidationError(
            f"{where}system id {system_id!r} is empty or uses a reserved "
            f"character from {RESERVED_ID_CHARS!r}"
        )


def _check_choice(setting: str, value: str) -> None:
    name, values = CHOICES[setting]
    if value not in values:
        raise ValidationError(f"unknown {name} {value!r}; expected one of {values}")
