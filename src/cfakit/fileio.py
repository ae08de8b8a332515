"""File formats and configuration.

Score files are long-format CSV with header doc_id,label,score, one row
per document and label.  Scores round-trip at full precision; the
6-decimal formatting is reserved for report tables.  All writers go
through an atomic write-then-rename so a crash never leaves a partial
file, and all output bytes are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .combine import STRATEGIES, _check_min_size, _check_strategies, _check_weight_source
from .core import FusionBatch, LabelSet, _check_tie_policy, _ordered_sum
from .corpus import Document, KeywordLexicon, PromptSpec
from .errors import DataAccessError, DomainError, ValidationError

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


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write text to path via a temporary file and an atomic rename.

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
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _quote(value) -> str:
    """The one quoting rule of every CSV writer: a field holding a ",", a
    '"', a \\r or a \\n is quoted, with its quotes doubled."""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(map(_quote, row)) + "\n" for row in (header, *rows)]
    atomic_write_text(path, "".join(lines))


def write_json(path: Path | str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
    atomic_write_text(path, text + "\n")


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
    every one checked to have as many columns as the header.  The file is
    read through csv.reader one line at a time; a missing, unreadable,
    non-UTF-8 or malformed file is reported by name, never as a traceback."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            found = next(reader, [])
            if tuple(found) != tuple(header):
                raise ValidationError(
                    f"{path}: expected header {','.join(header)}, found {','.join(found)}"
                )
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path}:{line_no}: expected {len(header)} columns, found {len(row)}"
                    )
                yield line_no, row
    except FileNotFoundError:
        raise DataAccessError(f"file not found: {path}") from None
    except OSError as exc:
        raise DataAccessError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise _not_utf8(path, path.read_bytes()) from None
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ValidationError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None


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


def load_score_file(path: Path | str, label_set: LabelSet | None = None) -> dict[str, dict[str, float]]:
    """Parse a score file into doc_id -> label -> score.

    Validates the header, one finite score per (doc_id, label) row, no
    duplicate rows, and, when a label set is given, that every document
    covers exactly that label set.
    """
    path = Path(path)
    out: dict[str, dict[str, float]] = {}
    for line_no, (doc_id, label, text) in _table_rows(path, SCORE_HEADER):
        if not doc_id or not label:
            raise ValidationError(f"{path}:{line_no}: empty doc_id or label")
        try:
            score = float(text)
        except ValueError:
            raise ValidationError(f"{path}:{line_no}: score {text!r} is not a number") from None
        if not math.isfinite(score):
            raise ValidationError(f"{path}:{line_no}: score {text!r} is not finite")
        doc = out.setdefault(doc_id, {})
        if label in doc:
            raise ValidationError(
                f"{path}:{line_no}: duplicate row for document {doc_id!r} label {label!r}"
            )
        doc[label] = score
    if not out:
        raise ValidationError(f"{path}: no score rows")
    if label_set is not None:
        wanted = set(label_set.labels)
        for doc_id, label_scores in out.items():
            missing = sorted(wanted - set(label_scores))
            if missing:
                raise ValidationError(
                    f"{path}: document {doc_id!r} lacks scores for labels {missing}"
                )
            extra = sorted(set(label_scores) - wanted)
            if extra:
                raise ValidationError(
                    f"{path}: document {doc_id!r} scores unknown labels {extra}"
                )
    return out


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

    fused yields (combo_id, order, tied) per combined model: order[d]
    lists the label indices of document doc_ids[d] best first and tied[d]
    counts the labels tied at the top.  Each row's ranking is its labels
    in that order, tied_top the first tied of them and top1 the first.
    """
    labels = label_set.labels
    # The ranking holds every label (labels hold no "|"), so it is quoted
    # exactly when one of them is, each label with its quotes doubled.
    rank_quote = '"' if any(_quote(label) != label for label in labels) else ""
    inner = np.array([label.replace('"', '""') for label in labels], dtype=object)
    # top1,tie_at_top,tied_top of a document without a tie at the top
    untied = np.array([f"{_quote(label)},false,{_quote(label)}" for label in labels], dtype=object)
    perm = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
    docs = [_quote(doc_ids[d]) for d in perm.tolist()]
    chunks: dict[str, str] = {}
    for combo_id, order, tied in fused:
        order, tied = order[perm], tied[perm]
        heads = untied[order[:, 0]].tolist()
        for d in np.flatnonzero(tied > 1).tolist():
            # the tied labels lead the ranking
            group = [labels[i] for i in order[d, : tied[d]].tolist()]
            heads[d] = f"{_quote(group[0])},true,{_quote('|'.join(group))}"
        lead = _quote(combo_id) + ","
        chunks[combo_id] = "".join([
            f"{lead}{doc},{head},{rank_quote}{ranking}{rank_quote}\n"
            for doc, head, ranking in zip(
                docs, heads, map("|".join, inner[order].tolist())
            )
        ])
    header = ",".join(FUSED_HEADER) + "\n"
    atomic_write_text(path, header + "".join(chunks[c] for c in sorted(chunks)))
    return len(chunks)


def _safe_name(doc_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in doc_id)


def write_diversity(batch: FusionBatch, out_dir: Path, docs: Sequence[str] = ()) -> int:
    """Write the per-document and mean cognitive diversity and diversity
    strength tables of a batch of two or more systems, and one RSC table
    rsc_<doc>.csv for each distinct document in docs; return the number of
    RSC tables.  Every document is checked before any file is written."""
    if batch.cd is None:
        raise DomainError("diversity reports need at least two systems")
    row_of = {doc_id: d for d, doc_id in enumerate(batch.doc_ids)}
    rsc_docs: dict[str, str] = {}  # file name -> document
    for doc_id in dict.fromkeys(docs):
        if doc_id not in row_of:
            raise ValidationError(
                f"unknown document {doc_id!r}; known documents: {sorted(row_of)}"
            )
        name = f"rsc_{_safe_name(doc_id)}.csv"
        if rsc_docs.setdefault(name, doc_id) != doc_id:
            raise ValidationError(
                f"documents {rsc_docs[name]!r} and {doc_id!r} would both be written to {name}"
            )
    ids = batch.system_ids
    pairs = [(j, k) for j in range(len(ids)) for k in range(j + 1, len(ids))]

    pair_rows = []
    strength_rows = []
    for doc_id, cd, ds in zip(batch.doc_ids, batch.cd.tolist(), batch.ds.tolist()):
        pair_rows.extend(
            (doc_id, ids[j], ids[k], format_table(cd[j][k])) for j, k in pairs
        )
        strength_rows.extend(
            (doc_id, system_id, format_table(value)) for system_id, value in zip(ids, ds)
        )
    write_csv(out_dir / "diversity_pairs.csv",
              ("doc_id", "system_a", "system_b", "cd"), pair_rows)
    write_csv(out_dir / "diversity_strength.csv",
              ("doc_id", "system", "ds"), strength_rows)

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
        raise ValidationError(f"{where}expert labels missing for documents {unlabeled[:10]}")
    missing = sorted(expert_docs - doc_ids)
    if missing:
        raise ValidationError(f"{where}missing predictions for documents {missing}")


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
    is not read.
    """
    path = Path(path)
    labels = {label: i for i, label in enumerate(label_set.labels)}
    docs = {doc_id: d for d, doc_id in enumerate(doc_ids)}
    # per combo: which documents have a row, the documents without an
    # expert label, and the combo's first cell
    combos: dict[str, tuple[bytearray, set[str], int]] = {}
    cells: list[int] = []  # combo * documents + document, per row
    tops: list[int] = []
    tied_cells: list[int] = []  # cell * labels + label, per label of a tied group
    combo_id = None
    for line_no, row in _table_rows(path, FUSED_HEADER):
        if row[0] != combo_id:
            combo_id = row[0]
            if combo_id not in combos:
                combos[combo_id] = (bytearray(len(docs)), set(), len(combos) * len(docs))
            seen, strangers, base = combos[combo_id]
        _, doc_id, top1, tie_text, tied_text, _ = row
        if tie_text != "true" and tie_text != "false":
            raise ValidationError(f"{path}:{line_no}: tie_at_top must be true or false")
        top = labels.get(top1)
        if top is None:
            raise ValidationError(
                f"{path}:{line_no}: top1 label {top1!r} is outside the label set"
            )
        group = None
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
        if (tie_text == "true") != (group is not None):
            raise ValidationError(
                f"{path}:{line_no}: tie_at_top is {tie_text} but tied_top lists "
                f"{1 if group is None else len(group)} label(s)"
            )
        d = docs.get(doc_id)
        if d is None or seen[d]:
            if d is not None or doc_id in strangers:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate row for {combo_id!r} / {doc_id!r}"
                )
            strangers.add(doc_id)
            continue
        seen[d] = 1
        cells.append(base + d)
        tops.append(top)
        if group is not None:
            tied_cells.extend((base + d) * len(labels) + label for label in group)
    if not combos:
        raise ValidationError(f"{path}: no fused predictions")
    for combo_id, (seen, strangers, _) in combos.items():
        if strangers or 0 in seen:
            found = list(strangers) + [doc_id for doc_id, d in docs.items() if seen[d]]
            check_coverage(found, docs, f"{path}: combo {combo_id!r}: ")
    shape = (len(combos), len(docs))
    top1 = np.empty(len(combos) * len(docs), dtype=np.intp)
    top1[cells] = tops
    tied = np.zeros(top1.size * len(labels), dtype=bool)
    tied[np.asarray(cells) * len(labels) + tops] = True
    tied[tied_cells] = True
    return tuple(combos), top1.reshape(shape), tied.reshape(shape + (len(labels),))


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
        prompt_id, label, publication_type, source, text = row
        if prompt_id in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate prompt id {prompt_id!r}")
        seen.add(prompt_id)
        prompts.append(
            Prompt(
                prompt_id=prompt_id,
                label=label,
                publication_type=publication_type,
                source=source,
                text=text,
            )
        )
    if not prompts:
        raise ValidationError(f"{path}: no prompts")
    return prompts


def load_lexicon(path: Path | str) -> KeywordLexicon:
    raw = _load_json(Path(path))
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: lexicon must be a JSON object of label -> phrases")
    try:
        return KeywordLexicon.from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_prompt_specs(path: Path | str) -> list[PromptSpec]:
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
        specs.append(
            PromptSpec(
                publication_type=_field(where, entry, "publication_type", "a string", None),
                template=_field(where, entry, "template", "a string", None),
                sources=tuple(_field(where, entry, "sources", "an array of strings", None)),
            )
        )
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
    unknown = sorted(set(raw) - known)
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

    generation = _field(path, raw, "generation", "an object", {})
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
    """Each run setting through the check of the module that owns it."""
    from .evaluate import _check_tie_mode

    _check_tie_policy(config.tie_policy)
    _check_tie_mode(config.tie_mode)
    _check_strategies(config.strategies)
    _check_weight_source(config.weights)
    _check_min_size(config.min_subset)
