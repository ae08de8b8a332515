"""Score, expert and diversity files, the run configuration, and what
every format shares: atomic writers, CSV quoting, the input readers and
the JSON decoder.  cfakit.fused holds fused.csv and cfakit.corpus the
corpus, prompt, lexicon and prompt-spec files.

Score files are long-format CSV with header doc_id,label,score, one row
per document and label.  Scores round-trip at full precision; the
6-decimal formatting is reserved for report tables.  All writers go
through an atomic write-then-rename so a crash never leaves a partial
file, and all output bytes are deterministic for identical inputs.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import json
import math
import numbers
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .errors import DataAccessError, DomainError, ValidationError
from .settings import CHOICES, LabelSet, _check_choice, _check_system_ids, _ids

if TYPE_CHECKING:  # numpy and the other layers load where a function uses them
    import numpy as np

    from .core import FusionBatch

SCORE_HEADER = ("doc_id", "label", "score")
EXPERT_HEADER = ("doc_id", "label")


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the same float."""
    return repr(float(value))


def format_table(value: float) -> str:
    """Fixed 6-decimal formatting for report tables."""
    return f"{value:.6f}"


@contextmanager
def atomic_writer(path: Path | str) -> Iterator[TextIO]:
    """A text handle on a temporary file that replaces path when the with
    statement ends; on any error the temporary file is removed and path
    keeps its old bytes.  An OSError, from making the directory to the
    rename and the handle's writes included, or a path the file system
    encoding cannot encode, becomes the _unwritable error naming path.

    The temporary file has a name of its own in the target directory, so
    two runs sharing an output directory never touch each other's
    temporary files, and it reaches the disk before the rename.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
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
    except (OSError, UnicodeEncodeError) as exc:
        raise _unwritable(path, exc) from exc


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
    atomic_write_text(path, "".join(",".join(map(_quote, row)) + "\n" for row in (header, *rows)))


def _unreadable(path: Path, exc: OSError | UnicodeEncodeError) -> DataAccessError:
    """The one error for an input file that cannot be opened or read."""
    if isinstance(exc, FileNotFoundError):
        return DataAccessError(f"file not found: {path}")
    return DataAccessError(f"cannot read {path}: {exc}")


def _unwritable(path: Path, exc: OSError | UnicodeEncodeError) -> DataAccessError:
    """The one error for an output file that cannot be written: the OS's
    reason without the file it names, which may be a temporary file."""
    return DataAccessError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}")


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except (OSError, UnicodeEncodeError) as exc:
        raise _unreadable(path, exc) from exc


def _read_text(path: Path, whole_lines: bool = False) -> str:
    """An input file other than a CSV table, with universal newlines as
    open() reads them.  whole_lines drops the bytes after the last newline
    before decoding.  A leading UTF-8 byte-order mark is refused: it would
    stick to the first token or JSON value unseen."""
    data = _read_bytes(path)
    if data.startswith(codecs.BOM_UTF8):
        raise ValidationError(f"{path}: starts with a byte-order mark (U+FEFF)")
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
    columns as the header.  A row is numbered by the line it starts on,
    which a quoted line break puts ahead of the count of rows.

    Faults are named in file order: each row is checked for a byte that
    is not UTF-8 (the header before it is compared, the others before
    their width), and a row csv.reader cannot read, such as one with a
    field over csv.field_size_limit(), fails as it is read.  A missing,
    unreadable, non-UTF-8 or malformed file is reported by name, never as
    a traceback, and a header after a UTF-8 byte-order mark is refused
    with the mark named."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
            reader = csv.reader(handle)
            found = _utf8_row(path, next(reader, []))
            if tuple(found) != tuple(header):
                text = ",".join(found)
                if text.startswith("\ufeff"):  # invisible, so the two headers look alike
                    text = f"a byte-order mark (U+FEFF) before {text[1:]}"
                raise ValidationError(f"{path}: expected header {','.join(header)}, found {text}")
            width = len(header)
            line_no = reader.line_num + 1
            for row in reader:
                if row:
                    if len(_utf8_row(path, row)) != width:
                        raise ValidationError(
                            f"{path}:{line_no}: expected {width} columns, found {len(row)}"
                        )
                    yield line_no, row
                line_no = reader.line_num + 1
    except (OSError, UnicodeEncodeError) as exc:
        raise _unreadable(path, exc) from exc
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
            raise _not_utf8(path, _read_bytes(path)) from None
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

    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = ""  # _table_rows names the first fault
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


class RunConfig(NamedTuple):
    """Parsed configuration, the one source of the run settings, which
    load_config alone builds and gives its defaults.  generation holds
    the keys of GENERATION_FIELDS that the config gives, type-checked.

    Path checks happen when a command actually uses the field, so a
    config can name score files that an earlier command has yet to write.
    """

    labels: tuple[str, ...]
    systems: tuple[tuple[str, Path], ...]
    expert_labels: Path | None
    tie_policy: str
    tie_mode: str
    weights: str
    out_dir: Path
    generation: dict[str, object]

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


def _parse_json(data: str | bytes, where):
    """The value of a JSON document: malformed JSON, nesting deeper than the
    decoder's recursion limit and an integer too long for int() are a
    ValidationError naming where, never a traceback."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: malformed JSON: {exc}") from exc


def _json_lines(path: Path, whole_lines: bool = False) -> Iterator[tuple[str, object]]:
    """(path:line, value) of each non-blank line of a JSON-lines file, split at
    newlines only: a JSON string may hold U+2028, where str.splitlines() splits."""
    for line_no, line in enumerate(_read_text(path, whole_lines).split("\n"), start=1):
        if line.strip():
            where = f"{path}:{line_no}"
            yield where, _parse_json(line, where)


_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a finite real": lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                                and math.isfinite(v)),
    "an array": lambda v: isinstance(v, list),
    "an array of strings": lambda v: (isinstance(v, (list, tuple))
                                      and all(isinstance(x, str) for x in v)),
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


# each key of the config's generation object and the JSON kind it takes
GENERATION_FIELDS = {
    "endpoint_url": "a string", "auth_token": "a string", "max_concurrency": "an integer",
}


def load_config(path: Path | str) -> RunConfig:
    path = Path(path)
    raw = _parse_json(_read_text(path), path)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    known = {"labels", "systems", "expert_labels", *CHOICES, "out_dir", "generation"}
    generation = _field(path, raw, "generation", "an object", {})
    # a systems value that is not an array, or an entry that is not an
    # object, gets its own error below
    entries = raw.get("systems") if isinstance(raw.get("systems"), list) else []
    unknown = sorted(set(raw) - known) + sorted(
        f"generation.{key}"
        for key in set(generation) - GENERATION_FIELDS.keys()
    ) + [f"systems[{index}].{key}" for index, entry in enumerate(entries)
         if isinstance(entry, dict) for key in sorted(entry.keys() - {"id", "path"})]
    if unknown:
        raise ValidationError(f"{path}: unknown config fields {unknown}")

    base = path.parent

    def path_field(where, obj: dict, key: str, default):
        # "" would name the config's own directory, and no system call takes a NUL
        value = _field(where, obj, key, "a string", default)
        if value == "":
            raise ValidationError(f"{where}: {key!r} must not be empty")
        if value is not None and "\0" in value:
            raise ValidationError(f"{where}: {key!r} must not hold a NUL character")
        return None if value is None else base / value

    systems: list[tuple[str, Path]] = []
    for index, entry in enumerate(_field(path, raw, "systems", "an array", [])):
        if not isinstance(entry, dict) or "id" not in entry or "path" not in entry:
            raise ValidationError(f"{path}: system {index} needs 'id' and 'path'")
        where = f"{path}: system {index}"
        system_id = _field(where, entry, "id", "a string", None)
        systems.append((system_id, path_field(where, entry, "path", None)))

    def choice(key: str) -> str:  # a choice defaults to its first value
        return _field(path, raw, key, "a string", CHOICES[key][1][0])

    config = RunConfig(
        labels=tuple(_field(path, raw, "labels", "an array of strings", ())),
        systems=tuple(systems),
        expert_labels=path_field(path, raw, "expert_labels", None),
        tie_policy=choice("tie_policy"),
        tie_mode=choice("tie_mode"),
        weights=choice("weights"),
        out_dir=path_field(path, raw, "out_dir", "."),
        generation={key: _field(path, generation, key, kind, None)
                    for key, kind in GENERATION_FIELDS.items() if key in generation},
    )
    # after every type, each value through a library call's check: choices, then system ids
    for key in CHOICES:
        _check_choice(key, getattr(config, key))
    try:
        _check_system_ids(_ids((system_id for system_id, _ in systems), "system id"))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return config
