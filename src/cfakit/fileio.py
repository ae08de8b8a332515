"""File formats and configuration.

Score files are long-format CSV with header doc_id,label,score, one row
per document and label.  Scores round-trip at full precision; the
6-decimal formatting is reserved for report tables.  All writers go
through an atomic write-then-rename so a crash never leaves a partial
file, and all output bytes are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .errors import DataAccessError, DomainError, ValidationError
from .settings import (
    STRATEGIES,
    LabelSet,
    _check_min_size,
    _check_strategies,
    _check_tie_mode,
    _check_tie_policy,
    _check_weight_source,
)

if TYPE_CHECKING:  # numpy and the other layers load where a function uses them
    import numpy as np

    from .core import FusionBatch
    from .corpus import Document, KeywordLexicon, PromptSpec

SCORE_HEADER = ("doc_id", "label", "score")
EXPERT_HEADER = ("doc_id", "label")
FUSED_HEADER = ("combo_id", "doc_id", "top1", "tie_at_top", "tied_top", "ranking")

# Characters with structural meaning in combo ids and output tables.
RESERVED_ID_CHARS = "+:|"


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the same float."""
    return repr(float(value))


def format_table(value: float) -> str:
    """Fixed 6-decimal formatting for report tables."""
    return f"{value:.6f}"


@contextmanager
def atomic_writer(path: Path | str) -> Iterator[TextIO]:
    """A text handle on a temporary file that replaces path when the block
    ends; on any error the temporary file is removed and path keeps its
    old bytes.

    The temporary file has a name of its own in the target directory, so
    two runs sharing an output directory never touch each other's
    temporary files, and it reaches the disk before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL never opens another writer's file; mode 0o666 leaves the
    # permissions to the umask, as a plain open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write text to path through atomic_writer."""
    with atomic_writer(path) as handle:
        handle.write(text)


def _quote(value) -> str:
    """The one quoting rule of every CSV writer: a field holding a ",", a
    '"', a \\r or a \\n is quoted, with its quotes doubled."""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = []
    for row in (header, *rows):
        line = ",".join(map(str, row))
        # _quote changes a field only if it holds a quote, a line break or
        # a comma of its own, which the joined line shows
        if '"' in line or "\r" in line or "\n" in line or line.count(",") >= len(row):
            line = ",".join(map(_quote, row))
        lines.append(line + "\n")
    atomic_write_text(path, "".join(lines))


def _read_text(path: Path, whole_lines: bool = False) -> str:
    """Every input file other than a CSV table is read here, with universal
    newlines as open() reads them: missing, unreadable and non-UTF-8 files
    are reported by name, never as a traceback.  whole_lines drops the
    bytes after the last newline before decoding."""
    if not path.exists():
        raise DataAccessError(f"file not found: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataAccessError(f"cannot read {path}: {exc}") from exc
    if whole_lines:
        data = data[: data.rfind(b"\n") + 1]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _not_utf8(path: Path, data: bytes) -> ValidationError:
    """The error for a file whose bytes are not valid UTF-8, naming the line
    of the first bad byte; lines end at \\r\\n, \\r or \\n, as open() reads
    them."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return ValidationError(f"{path}: not valid UTF-8 (line {line})")
    return ValidationError(f"{path}: not valid UTF-8")  # rewritten since it failed


def _table_rows(path: Path, header: Sequence[str]):
    """(line number, row) for each non-empty row below the expected header,
    as csv.reader reads the file, every one checked to have as many
    columns as the header.

    Faults are named in file order: each row is checked for a byte that
    is not UTF-8 (the header before it is compared, the others before
    their width), and a row csv.reader cannot read, such as one with a
    field over csv.field_size_limit(), fails as it is read.  A missing,
    unreadable, non-UTF-8 or malformed file is reported by name, never as
    a traceback."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
            reader = csv.reader(handle)
            found = _utf8_row(path, next(reader, []))
            if tuple(found) != tuple(header):
                raise ValidationError(
                    f"{path}: expected header {','.join(header)}, found {','.join(found)}"
                )
            width = len(header)
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(_utf8_row(path, row)) != width:
                    raise ValidationError(
                        f"{path}:{line_no}: expected {width} columns, found {len(row)}"
                    )
                yield line_no, row
    except FileNotFoundError:
        raise DataAccessError(f"file not found: {path}") from None
    except OSError as exc:
        raise DataAccessError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None


def _utf8_row(path: Path, row: list[str]) -> list[str]:
    """row, unless it holds a byte that is not UTF-8, which the
    surrogateescape error handler reads as a lone surrogate: then the
    error naming the file's first bad byte, since no earlier row held one."""
    text = "".join(row)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise _not_utf8(path, path.read_bytes()) from None
    return row


def write_score_file(
    path: Path | str,
    scores: Mapping[str, Mapping[str, float]],
    label_set: LabelSet,
) -> None:
    """Write one system's scores, documents in mapping order, labels in
    label-set order, at full float precision."""
    rows = []
    for doc_id, label_scores in scores.items():
        for label in label_set.labels:
            rows.append((doc_id, label, format_float(label_scores[label])))
    write_csv(path, SCORE_HEADER, rows)


def load_score_cube(
    systems: Sequence[tuple[str, Path | str]], label_set: LabelSet
) -> tuple[list[str], np.ndarray]:
    """The sorted document ids of a run's (system id, score file) pairs and
    their (docs, systems, labels) array of raw scores.  Every file passes
    its own checks (_score_table) before the files must cover the same
    documents."""
    import numpy as np

    tables = [_score_table(Path(path), label_set) for _, path in systems]
    first = tables[0][0].keys()
    for (system_id, _), (rows, _) in zip(systems[1:], tables[1:]):
        if rows.keys() != first:
            raise ValidationError(
                f"systems {systems[0][0]!r} and {system_id!r} cover different documents: "
                f"{_names(sorted(rows.keys() ^ first))}"
            )
    doc_ids = sorted(first)
    raw = np.empty((len(doc_ids), len(systems), label_set.n))
    for s, (rows, table) in enumerate(tables):
        raw[:, s] = table[[rows[doc_id] for doc_id in doc_ids]]
    return doc_ids, raw


def _score_table(path: Path, label_set: LabelSet) -> tuple[dict[str, int], np.ndarray]:
    """A score file's documents, each mapped to its row in file order, and
    its (docs, labels) scores.

    A file holding no '"', NUL or \\r, each line of three fields (so no
    line is blank) and within csv.field_size_limit(), is split whole at its
    commas and line ends; any other file is read through _table_rows.  The
    checks run on whole columns; when one fails, _score_fault names the
    first fault."""
    import numpy as np

    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        text = ""  # _table_rows reports it
    header = ",".join(SCORE_HEADER) + "\n"
    body = text[len(header):].removesuffix("\n")
    lines = body.split("\n")
    if (text.startswith(header) and not any(c in text for c in '"\0\r')
            and max(map(len, lines)) < csv.field_size_limit()
            and set(map(str.count, lines, itertools.repeat(","))) == {2}):
        fields = body.replace("\n", ",").split(",")
    else:
        try:
            fields = [field for _, row in _table_rows(path, SCORE_HEADER) for field in row]
        except ValidationError:  # a row _table_rows rejects, perhaps after a faulty one
            raise _score_fault(path, label_set) from None
    docs, labels, texts = fields[0::3], fields[1::3], fields[2::3]
    n, width = len(docs), label_set.n
    try:
        if not n or "" in docs or "" in labels:
            raise ValueError
        # float's grammar: " 1.5 " and "1_0" are numbers
        scores = np.fromiter(map(float, texts), float, n)
    except ValueError:
        raise _score_fault(path, label_set) from None
    label_index = dict(zip(label_set.labels, range(width)))
    columns = np.fromiter(map(label_index.get, labels, itertools.repeat(width)), np.intp, n)
    rows = dict(zip(dict.fromkeys(docs), itertools.count()))
    cells = np.fromiter(map(rows.__getitem__, docs), np.intp, n) * width + columns
    # a score that is not finite, an unknown label, or a cell without a row or with two
    if (not np.isfinite(scores).all() or (columns == width).any()
            or (np.bincount(cells, minlength=len(rows) * width) != 1).any()):
        raise _score_fault(path, label_set)
    table = np.empty(len(rows) * width)
    table[cells] = scores
    return rows, table.reshape(len(rows), width)


def _score_fault(path: Path, label_set: LabelSet) -> ValidationError:
    """The first fault of a score file, read row by row: the first faulty
    row, checked for an empty field, a score that is not a number or not
    finite and a repeated cell, in that order; then a file without rows;
    then the first document that lacks a label or scores an unknown one."""
    seen: dict[str, set[str]] = {}
    for line_no, (doc_id, label, text) in _table_rows(path, SCORE_HEADER):
        where = f"{path}:{line_no}:"
        if not doc_id or not label:
            return ValidationError(f"{where} empty doc_id or label")
        try:
            if not math.isfinite(float(text)):
                return ValidationError(f"{where} score {text!r} is not finite")
        except ValueError:
            return ValidationError(f"{where} score {text!r} is not a number")
        if label in seen.setdefault(doc_id, set()):
            return ValidationError(
                f"{where} duplicate row for document {doc_id!r} label {label!r}"
            )
        seen[doc_id].add(label)
    if not seen:
        return ValidationError(f"{path}: no score rows")
    wanted = set(label_set.labels)
    for doc_id, labels in seen.items():
        for what, names in (("lacks scores for", wanted - labels),
                            ("scores unknown", labels - wanted)):
            if names:
                return ValidationError(f"{path}: document {doc_id!r} {what} labels "
                                       f"{sorted(names)}")


def load_expert_labels(path: Path | str) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for line_no, (doc_id, label) in _table_rows(path, EXPERT_HEADER):
        if not doc_id or not label:
            raise ValidationError(f"{path}:{line_no}: empty doc_id or label")
        if doc_id in out:
            raise ValidationError(f"{path}:{line_no}: duplicate document {doc_id!r}")
        out[doc_id] = label
    if not out:
        raise ValidationError(f"{path}: no expert labels")
    return out


def write_fused_file(
    path: Path | str,
    label_set: LabelSet,
    doc_ids: Sequence[str],
    fused: Iterable[tuple[str, np.ndarray, np.ndarray]],
) -> int:
    """Persist a combination grid, sorted by combo_id then doc_id, and
    return the number of combined models.

    fused yields (combo_id, order, tied) per combined model, in combo_id
    order as grid_arrays makes them: order[d] lists the label indices of
    document doc_ids[d] best first and tied[d] counts the labels tied at
    the top.  Each row's ranking is its labels in that order, tied_top the
    first tied of them and top1 the first.  Each model's rows go to the
    temporary file as the model arrives, so memory holds one model's rows,
    not the grid's.  A combo_id that does not sort after the one before is
    a ValidationError; on any error the file at path keeps its old bytes.
    """
    import numpy as np

    labels = label_set.labels
    # The ranking holds every label (labels hold no "|"), so it is quoted
    # exactly when one of them is, each label with its quotes doubled.
    rank_quote = '"' if any(_quote(label) != label for label in labels) else ""
    inner = [label.replace('"', '""') for label in labels]
    piped = np.array([f"{label}|" for label in inner], dtype=object)
    last = np.array([f"{label}{rank_quote}\n" for label in inner], dtype=object)
    # the head of a row without a tie at the top: top1,false,top1, and the
    # ranking's opening quote
    untied = np.array(
        [f"{_quote(label)},false,{_quote(label)},{rank_quote}" for label in labels], dtype=object
    )
    perm = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
    # one row of tokens per document: combo, doc, head, then the ranking
    rows = np.empty((len(doc_ids), len(labels) + 3), dtype=object)
    rows[:, 1] = [_quote(doc_ids[d]) + "," for d in perm.tolist()]
    models = 0
    previous = None
    with atomic_writer(path) as handle:
        handle.write(",".join(FUSED_HEADER) + "\n")
        for combo_id, order, tied in fused:
            if previous is not None and combo_id <= previous:
                raise ValidationError(
                    f"{path}: combo id {combo_id!r} does not sort after {previous!r}"
                )
            previous = combo_id
            order, tied = order[perm], tied[perm]
            rows[:, 0] = _quote(combo_id) + ","
            rows[:, 2] = untied[order[:, 0]]
            for d in np.flatnonzero(tied > 1).tolist():
                # the tied labels lead the ranking
                group = [labels[i] for i in order[d, : tied[d]].tolist()]
                rows[d, 2] = f"{_quote(group[0])},true,{_quote('|'.join(group))},{rank_quote}"
            rows[:, 3:-1] = piped[order[:, :-1]]
            rows[:, -1] = last[order[:, -1]]
            handle.write("".join(rows.ravel().tolist()))
            models += 1
    return models


def _names(names: list[str]) -> str:
    """A list of names for an error line: the first 10, then how many
    there are in all when there are more."""
    if len(names) <= 10:
        return str(names)
    return f"{names[:10]} ({len(names)} in all)"


def _safe_name(doc_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in doc_id)


def write_diversity(batch: FusionBatch, out_dir: Path, docs: Sequence[str] = ()) -> int:
    """Write the per-document and mean cognitive diversity and diversity
    strength tables of a batch of two or more systems, and one RSC table
    rsc_<doc>.csv for each distinct document in docs; return the number of
    RSC tables.  Every document is checked before any file is written."""
    from .core import _ordered_sum

    if batch.cd is None:
        raise DomainError("diversity reports need at least two systems")
    row_of = {doc_id: d for d, doc_id in enumerate(batch.doc_ids)}
    rsc_docs: dict[str, str] = {}  # file name -> document
    for doc_id in dict.fromkeys(docs):
        if doc_id not in row_of:
            raise ValidationError(
                f"unknown document {doc_id!r}; known documents: {_names(sorted(row_of))}"
            )
        name = f"rsc_{_safe_name(doc_id)}.csv"
        if rsc_docs.setdefault(name, doc_id) != doc_id:
            raise ValidationError(
                f"documents {rsc_docs[name]!r} and {doc_id!r} would both be written to {name}"
            )
    ids = batch.system_ids
    pairs = [(j, k) for j in range(len(ids)) for k in range(j + 1, len(ids))]

    # the per-document tables as write_csv would write them: each id
    # quoted once, each value column formatted in one pass
    docs = [_quote(doc_id) for doc_id in batch.doc_ids]
    systems = [_quote(system_id) for system_id in ids]
    first, second = (list(side) for side in zip(*pairs))
    heads = [f"{doc},{systems[j]},{systems[k]}," for doc in docs for j, k in pairs]
    atomic_write_text(out_dir / "diversity_pairs.csv", "doc_id,system_a,system_b,cd\n" + "".join(
        map("{}{:.6f}\n".format, heads, batch.cd[:, first, second].ravel().tolist())))
    heads = [f"{doc},{system}," for doc in docs for system in systems]
    atomic_write_text(out_dir / "diversity_strength.csv", "doc_id,system,ds\n" + "".join(
        map("{}{:.6f}\n".format, heads, batch.ds.ravel().tolist())))

    # summed over documents in document order, like every other reduction
    mean_cd = (_ordered_sum(batch.cd) / len(batch)).tolist()
    mean_ds = (_ordered_sum(batch.ds) / len(batch)).tolist()
    mean_pairs = [(ids[j], ids[k], format_table(mean_cd[j][k])) for j, k in pairs]
    mean_strengths = [
        (system_id, format_table(value)) for system_id, value in zip(ids, mean_ds)
    ]
    write_csv(out_dir / "diversity_pairs_mean.csv",
              ("system_a", "system_b", "mean_cd"), mean_pairs)
    write_csv(out_dir / "diversity_strength_mean.csv",
              ("system", "mean_ds"), mean_strengths)

    for name, doc_id in rsc_docs.items():
        rows = []
        for system_id, curve in zip(ids, batch.rsc[row_of[doc_id]].tolist()):
            for position, value in enumerate(curve, start=1):
                rows.append((position, format_table(value), system_id))
        write_csv(out_dir / name, ("rank", "score", "system"), rows)
    return len(rsc_docs)


def check_coverage(doc_ids: Iterable[str], expert_docs: Iterable[str], where: str = "") -> None:
    """Predictions on doc_ids must cover exactly the expert-labeled
    documents, and there must be at least one."""
    doc_ids, expert_docs = set(doc_ids), set(expert_docs)
    if not expert_docs:
        raise ValidationError(f"{where}no expert-labeled documents to evaluate")
    unlabeled = sorted(doc_ids - expert_docs)
    if unlabeled:
        raise ValidationError(f"{where}expert labels missing for documents {_names(unlabeled)}")
    missing = sorted(expert_docs - doc_ids)
    if missing:
        raise ValidationError(f"{where}missing predictions for documents {_names(missing)}")


def _fused_head(
    path: Path, line_no: int, labels: Mapping[str, int], top1: str, tie_text: str, tied_text: str
) -> tuple[int, list[int]]:
    """The top1 label index and the tied group's label indices, top1
    included, of a fused row's (top1, tie_at_top, tied_top) columns, each
    checked against the label set and against each other."""
    if tie_text != "true" and tie_text != "false":
        raise ValidationError(f"{path}:{line_no}: tie_at_top must be true or false")
    top = labels.get(top1)
    if top is None:
        raise ValidationError(
            f"{path}:{line_no}: top1 label {top1!r} is outside the label set"
        )
    group = [top]
    if tied_text != top1:
        names = tied_text.split("|")
        group = [labels.get(label, -1) for label in names]
        if -1 in group:
            outside = names[group.index(-1)]
            raise ValidationError(
                f"{path}:{line_no}: tied_top label {outside!r} is outside the label set"
            )
        if len(set(group)) != len(group):
            raise ValidationError(f"{path}:{line_no}: tied_top repeats a label")
        if top not in group:
            raise ValidationError(f"{path}:{line_no}: tied_top must contain top1")
    # once checked, a tied_top other than top1 lists two labels or more
    if (tie_text == "true") != (tied_text != top1):
        raise ValidationError(
            f"{path}:{line_no}: tie_at_top is {tie_text} but tied_top lists "
            f"{len(group)} label(s)"
        )
    return top, group


def load_fused_predictions(
    path: Path | str, label_set: LabelSet, doc_ids: Sequence[str]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Read the top-1 predictions of a fused grid file as label indices.

    Returns the combo ids in file order, the top1 label index of each
    (combo, document) and a boolean (combos, documents, labels) array
    marking each tied_top group, documents in doc_ids order.  Every combo
    must predict exactly the documents in doc_ids, with top1 and tied_top
    labels from the label set, top1 in tied_top, and tie_at_top true
    exactly when tied_top lists more than one label.  The ranking column
    is not read.  A file that _fused_blocks does not suit is read again
    by _fused_rows, which names the first fault with its path:line.
    """
    import numpy as np

    path = Path(path)
    labels = {label: i for i, label in enumerate(label_set.labels)}
    docs = {doc_id: d for d, doc_id in enumerate(doc_ids)}
    # each distinct row head's (top1, tied group); each combo's head per document
    groups, combos = _fused_blocks(path, labels, docs) or _fused_rows(path, labels, docs)
    tops = np.array([top for top, _ in groups], dtype=np.intp)
    masks = np.zeros((len(groups), len(labels)), dtype=bool)
    for h, (_, group) in enumerate(groups):
        masks[h, group] = True
    at = np.array(list(combos.values()), dtype=np.intp)
    return tuple(combos), tops[at], masks[at]


_BLOCK = 1 << 16  # bytes read at a time by _fused_blocks


def _fused_blocks(path: Path, labels: Mapping[str, int], docs: Mapping[str, int]):
    """load_fused_predictions' (groups, combos) read in blocks of whole
    lines, each split at its newlines and each line at its commas, or None
    for a file that needs _fused_rows: see the README's "Fused grid"."""
    header = (",".join(FUSED_HEADER) + "\n").encode()
    limit = csv.field_size_limit()
    heads, groups, combos = {}, [], {}
    combo_id = at = None
    try:
        with open(path, "rb") as handle:
            if handle.readline(len(header)) != header:
                return None
            data = b""
            while more := handle.read(_BLOCK) or data and b"\n":
                data += more  # at the end, a line end after a last line without one
                cut = data.rfind(b"\n") + 1
                if not cut:
                    return None  # a line longer than a block
                text, data = data[:cut].decode("utf-8"), data[cut:]
                lines = text[:-1].split("\n")
                if '"' in text or "\0" in text or "\r" in text or (
                        len(text) > limit and max(map(len, lines)) > limit):
                    return None
                for line in lines:
                    combo, doc_id, top1, tie_text, tied_text, _ = line.split(",")
                    if combo != combo_id:
                        combo_id = combo
                        at = combos.setdefault(combo_id, [-1] * len(docs))
                    key = (top1, tie_text, tied_text)
                    head = heads.get(key)
                    if head is None:  # a faulty one is named by _fused_rows
                        groups.append(_fused_head(path, 0, labels, *key))
                        head = heads[key] = len(heads)
                    d = docs[doc_id]
                    if at[d] >= 0:
                        return None
                    at[d] = head
    except (OSError, ValueError, KeyError, ValidationError):
        return None
    return (groups, combos) if combos and all(-1 not in at for at in combos.values()) else None


def _fused_rows(path: Path, labels: Mapping[str, int], docs: Mapping[str, int]):
    """load_fused_predictions' (groups, combos) read row by row, each row checked in turn."""
    # Each distinct (top1, tie_at_top, tied_top) is a head, checked on the
    # first row that shows it.  heads maps it to its index in groups.
    heads: dict[tuple[str, str, str], int] = {}
    groups: list[tuple[int, list[int]]] = []
    # per combo: the head of each document, -1 until its row, and the
    # documents without an expert label
    combos: dict[str, tuple[list[int], set[str]]] = {}
    combo_id = None
    for line_no, row in _table_rows(path, FUSED_HEADER):
        if row[0] != combo_id:
            combo_id = row[0]
            if combo_id not in combos:
                combos[combo_id] = ([-1] * len(docs), set())
            at, strangers = combos[combo_id]
        _, doc_id, top1, tie_text, tied_text, _ = row
        key = (top1, tie_text, tied_text)
        head = heads.get(key)
        if head is None:
            groups.append(_fused_head(path, line_no, labels, *key))
            head = heads[key] = len(heads)
        d = docs.get(doc_id)
        if d is None or at[d] >= 0:
            if d is not None or doc_id in strangers:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate row for {combo_id!r} / {doc_id!r}"
                )
            strangers.add(doc_id)
            continue
        at[d] = head
    if not combos:
        raise ValidationError(f"{path}: no fused predictions")
    for combo_id, (at, strangers) in combos.items():
        if strangers or -1 in at:
            found = list(strangers) + [doc_id for doc_id, d in docs.items() if at[d] >= 0]
            check_coverage(found, docs, f"{path}: combo {combo_id!r}: ")
    return groups, {combo_id: at for combo_id, (at, _) in combos.items()}


def load_corpus(path: Path | str) -> list[Document]:
    """Load a document corpus.

    A directory is read as one subdirectory per label holding .txt files;
    a file is read as JSON lines with doc_id, text, and optional label.
    """
    path = Path(path)
    if path.is_dir():
        return _load_corpus_dir(path)
    if path.is_file():
        return _load_corpus_jsonl(path)
    raise DataAccessError(f"corpus not found: {path}")


def _load_corpus_dir(path: Path) -> list[Document]:
    from .corpus import Document

    docs: list[Document] = []
    seen: dict[str, Path] = {}
    for label_dir in sorted(p for p in path.iterdir() if p.is_dir()):
        for text_file in sorted(label_dir.glob("*.txt")):
            doc_id = text_file.stem
            if doc_id in seen:
                raise ValidationError(
                    f"{text_file}: duplicate document {doc_id!r}, also {seen[doc_id]}"
                )
            seen[doc_id] = text_file
            text = _read_text(text_file)
            docs.append(Document(doc_id=doc_id, text=text, label=label_dir.name))
    if not docs:
        raise ValidationError(f"{path}: no label directories with .txt documents")
    return docs


def _load_corpus_jsonl(path: Path) -> list[Document]:
    from .corpus import Document

    docs: list[Document] = []
    seen: set[str] = set()
    # newlines only, as in generation: a JSON string may hold U+2028
    lines = _read_text(path).split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{line_no}: malformed JSON: {exc}") from exc
        if not isinstance(record, dict) or "doc_id" not in record or "text" not in record:
            raise ValidationError(f"{path}:{line_no}: record needs doc_id and text")
        doc_id = record["doc_id"]
        if doc_id in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate document {doc_id!r}")
        seen.add(doc_id)
        docs.append(
            Document(doc_id=doc_id, text=record["text"], label=record.get("label"))
        )
    if not docs:
        raise ValidationError(f"{path}: no documents")
    return docs


PROMPT_HEADER = ("prompt_id", "label", "publication_type", "source", "prompt_text")


def write_prompt_file(path: Path | str, prompts: Sequence) -> None:
    rows = [
        (p.prompt_id, p.label, p.publication_type, p.source, p.text)
        for p in prompts
    ]
    write_csv(path, PROMPT_HEADER, rows)


def load_prompt_file(path: Path | str) -> list:
    from .corpus import Prompt

    path = Path(path)
    prompts = []
    seen: set[str] = set()
    for line_no, row in _table_rows(path, PROMPT_HEADER):
        if row[0] in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate prompt id {row[0]!r}")
        seen.add(row[0])
        prompts.append(Prompt(*row))
    if not prompts:
        raise ValidationError(f"{path}: no prompts")
    return prompts


def load_lexicon(path: Path | str) -> KeywordLexicon:
    from .corpus import KeywordLexicon

    raw = _load_json(Path(path))
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: lexicon must be a JSON object of label -> phrases")
    try:
        return KeywordLexicon.from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_prompt_specs(path: Path | str) -> list[PromptSpec]:
    from .corpus import PromptSpec

    raw = _load_json(Path(path))
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: prompt specs must be a JSON array")
    specs: list[PromptSpec] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: prompt spec {index} must be an object")
        for key in ("publication_type", "template", "sources"):
            if key not in entry:
                raise ValidationError(f"{path}: prompt spec {index} lacks field {key!r}")
        where = f"{path}: prompt spec {index}"
        specs.append(PromptSpec(
            _field(where, entry, "publication_type", "a string", None),
            _field(where, entry, "template", "a string", None),
            tuple(_field(where, entry, "sources", "an array of strings", None)),
        ))
    return specs


def _load_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; flags override individual fields.

    Path checks happen when a command actually uses the field, so a
    config can name score files that an earlier command has yet to write.
    """

    labels: tuple[str, ...] = ()
    systems: tuple[tuple[str, Path], ...] = ()
    expert_labels: Path | None = None
    tie_policy: str = "fractional"
    tie_mode: str = "strict"
    strategies: tuple[str, ...] = STRATEGIES
    min_subset: int = 2
    weights: str = "ds"
    out_dir: Path = Path(".")
    endpoint_url: str | None = None
    auth_token: str | None = None
    max_concurrency: int = 4

    def label_set(self) -> LabelSet:
        if not self.labels:
            raise ValidationError("config must list the label set under 'labels'")
        return LabelSet(tuple(self.labels))

    def require_systems(self) -> tuple[tuple[str, Path], ...]:
        if not self.systems:
            raise ValidationError("config must list at least one system under 'systems'")
        return self.systems

    def require_experts(self) -> Path:
        if self.expert_labels is None:
            raise ValidationError("config must name the expert labels file")
        return self.expert_labels


_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "an array": lambda v: isinstance(v, list),
    "an array of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "an object": lambda v: isinstance(v, dict),
}


def _field(where, obj: dict, key: str, kind: str, default):
    """obj[key] if it is a JSON value of the given kind, default if absent:
    a string is never read as characters, nor a float or string as an int."""
    if key not in obj:
        return default
    value = obj[key]
    if not _JSON_KINDS[kind](value):
        raise ValidationError(
            f"{where}: {key!r} must be {kind}, got {type(value).__name__}"
        )
    return value


def load_config(path: Path | str) -> RunConfig:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    known = {
        "labels", "systems", "expert_labels", "tie_policy", "tie_mode",
        "strategies", "min_subset", "weights", "out_dir", "generation",
    }
    generation = _field(path, raw, "generation", "an object", {})
    unknown = sorted(set(raw) - known) + sorted(
        f"generation.{key}"
        for key in set(generation) - {"endpoint_url", "auth_token", "max_concurrency"}
    )
    if unknown:
        raise ValidationError(f"{path}: unknown config fields {unknown}")

    base = path.parent
    systems: list[tuple[str, Path]] = []
    seen: set[str] = set()
    for index, entry in enumerate(_field(path, raw, "systems", "an array", [])):
        if not isinstance(entry, dict) or "id" not in entry or "path" not in entry:
            raise ValidationError(f"{path}: system {index} needs 'id' and 'path'")
        where = f"{path}: system {index}"
        system_id = _field(where, entry, "id", "a string", None)
        if not system_id or any(c in system_id for c in RESERVED_ID_CHARS):
            raise ValidationError(
                f"{path}: system id {system_id!r} is empty or uses a reserved "
                f"character from {RESERVED_ID_CHARS!r}"
            )
        if system_id in seen:
            raise ValidationError(f"{path}: duplicate system id {system_id!r}")
        seen.add(system_id)
        systems.append((system_id, base / _field(where, entry, "path", "a string", None)))

    expert_labels = _field(path, raw, "expert_labels", "a string", None)

    config = RunConfig(
        labels=tuple(_field(path, raw, "labels", "an array of strings", RunConfig.labels)),
        systems=tuple(systems),
        expert_labels=None if expert_labels is None else base / expert_labels,
        tie_policy=_field(path, raw, "tie_policy", "a string", RunConfig.tie_policy),
        tie_mode=_field(path, raw, "tie_mode", "a string", RunConfig.tie_mode),
        strategies=tuple(_field(
            path, raw, "strategies", "an array of strings", RunConfig.strategies
        )),
        min_subset=_field(path, raw, "min_subset", "an integer", RunConfig.min_subset),
        weights=_field(path, raw, "weights", "a string", RunConfig.weights),
        out_dir=base / _field(path, raw, "out_dir", "a string", RunConfig.out_dir),
        endpoint_url=_field(path, generation, "endpoint_url", "a string", RunConfig.endpoint_url),
        auth_token=_field(path, generation, "auth_token", "a string", RunConfig.auth_token),
        max_concurrency=_field(
            path, generation, "max_concurrency", "an integer", RunConfig.max_concurrency
        ),
    )
    _check_config(config)
    return config


def _check_config(config: RunConfig) -> None:
    """Each run setting through its check."""
    _check_tie_policy(config.tie_policy)
    _check_tie_mode(config.tie_mode)
    _check_strategies(config.strategies)
    _check_weight_source(config.weights)
    _check_min_size(config.min_subset)
