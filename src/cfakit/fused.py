"""The fused.csv format: the combination grid's writer, its cache
(README "Fused grid cache") and the reader of either.  Only the commands
that fuse or evaluate load it, and both load numpy anyway."""

from __future__ import annotations

import csv
import json
import os
import pickle
import signal
import tempfile
import zlib
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .fileio import _names, _quote, _table_rows, _unwritable, atomic_writer

if TYPE_CHECKING:
    from .core import FusionBatch

FUSED_HEADER = ("combo_id", "doc_id", "top1", "tie_at_top", "tied_top", "ranking")


def write_fused_file(
    path: Path | str,
    batch: FusionBatch,
    models: Iterable[tuple[str, np.ndarray, np.ndarray]],
    *more: Iterable[tuple[str, np.ndarray, np.ndarray]],
) -> int:
    """Persist a combination grid of batch's documents and labels, sorted
    by combo_id then doc_id, and return the number of combined models.

    models yields (combo_id, order, tied) per combined model, in combo_id
    order as grid_arrays makes them: order[d] lists the label indices of
    document batch.doc_ids[d] best first and tied[d] counts the labels
    tied at the top.  Each of more (the fuse command's shares) is a later
    contiguous share of the grid, spliced in after models with the bytes
    of one share: it is fused in a forked worker, or here where a second
    thread or a single CPU rules out a fork.  Every worker is killed and
    reaped before this returns or raises.  Each row's ranking is its
    labels in that order, tied_top the first tied of them and top1 the
    first.  Each model's rows go to the temporary file as the model
    arrives, so memory holds one model's rows and 4 bytes per row of the
    grid; on any error the file at path keeps its old bytes.  Then
    <path>.cache (_fused_cache) is written if the grid has a model and no
    NUL byte was written, which 3.10's csv.reader rejects; otherwise any
    old cache is removed.
    """
    if more and _cpus() == 1:
        models, more = chain(models, *more), ()
    labels, doc_ids = batch.label_set.labels, batch.doc_ids
    perm = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
    # for the cache, each row's head: label t untied, or a tied group
    heads, combo_ids, index = {(t,): t for t in range(len(labels))}, [], []
    cached = True  # until a NUL byte is written
    blob = (",".join(FUSED_HEADER) + "\n").encode()
    size, crc = len(blob), zlib.crc32(blob)
    workers: list = []  # (pid, rows file, result reader) of each worker not yet reaped
    try:
        with atomic_writer(path) as handle:
            for share in more:
                workers.append(_fork_share(batch, perm, share, Path(path).parent))
            handle.buffer.write(blob)
            spliced = [_spliced(workers, worker, heads) for worker in workers]
            for combo_id, blob, at in chain(_model_rows(batch, perm, models, heads), *spliced):
                size, crc = size + len(blob), zlib.crc32(blob, crc)
                handle.buffer.write(blob)
                cached &= b"\0" not in blob
                combo_ids.append(combo_id)
                index.append(at)
    finally:
        for pid, *files in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            for file in files:
                file.close()
    cache = Path(path).with_name(Path(path).name + ".cache")
    if not (cached and combo_ids):
        try:
            cache.unlink(missing_ok=True)
        except OSError as exc:
            raise _unwritable(cache, exc) from exc
        return len(combo_ids)
    data = np.array(index, "<i4")[:, np.argsort(perm)].tobytes()  # documents in doc_ids order
    header = {"version": 1, "bytes": size, "crc32": crc, "labels": list(labels),
              "doc_ids": list(doc_ids), "combo_ids": combo_ids,
              "heads": [[group[0], list(group)] for group in heads]}
    header["check"] = zlib.crc32(data, zlib.crc32(json.dumps(header, sort_keys=True).encode()))
    with atomic_writer(cache) as handle:
        handle.buffer.write(json.dumps(header, sort_keys=True).encode() + b"\n" + data)
    return len(combo_ids)


def _cpus() -> int:
    """The CPUs this process may fork onto: 1 where that is unknown, or
    where it runs a second thread, as then it must not fork."""
    try:
        return len(os.sched_getaffinity(0)) if len(os.listdir("/proc/self/task")) == 1 else 1
    except (AttributeError, OSError):
        return 1


def _fork_share(batch: FusionBatch, perm: np.ndarray, models: Iterable, out_dir: Path):
    """(pid, rows file, result reader) of a forked worker that writes the
    rows of models to an anonymous file in out_dir, then pickles each
    model's combo id, rows size and heads with the heads it met in order,
    or its exception.  It ends in os._exit (no atexit hook or stdio flush)."""
    rows, (read, write) = tempfile.TemporaryFile(dir=out_dir), os.pipe()
    parent, pid = os.getpid(), os.fork()
    if pid:
        os.close(write)
        return pid, rows, open(read, "rb")
    try:
        os.close(read)  # so a dead parent's pipe refuses the result
        heads, made = {(t,): t for t in range(batch.label_set.n)}, []
        try:
            for combo_id, blob, at in _model_rows(batch, perm, models, heads):
                if os.getppid() != parent:  # the parent is gone
                    os._exit(1)
                rows.write(blob)
                made.append((combo_id, len(blob), at))
            rows.flush()
            result = made, list(heads)
        except BaseException as exc:
            result = exc
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _spliced(workers: list, worker: tuple, heads: dict):
    """A worker's (combo_id, rows, heads) per model once it has ended, its
    heads numbered as if met here; the worker's exception is raised here."""
    pid, rows, reader = worker
    with rows, reader:
        result, status = reader.read(), os.waitpid(pid, 0)[1]
        workers.remove(worker)
        if status:
            raise OSError(f"a fuse worker ended without a result (wait status {status})")
        result = pickle.loads(result)
        if isinstance(result, BaseException):
            raise result
        made, groups = result
        renumber = np.array([heads.setdefault(g, len(heads)) for g in groups], np.int32)
        rows.seek(0)
        for combo_id, size, at in made:
            yield combo_id, rows.read(size), renumber[at]


def _model_rows(batch: FusionBatch, perm: np.ndarray, models: Iterable, heads: dict):
    """Each model's combo_id, fused.csv rows and row heads, documents in
    perm order; a tied group new to heads gets the next index there."""
    labels, doc_ids = batch.label_set.labels, batch.doc_ids
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
    # one row of tokens per document: combo, doc, head, then the ranking
    rows = np.empty((len(doc_ids), len(labels) + 3), dtype=object)
    rows[:, 1] = [_quote(doc_ids[d]) + "," for d in perm.tolist()]
    for combo_id, order, tied in models:
        order, tied = order[perm], tied[perm]
        rows[:, 0] = _quote(combo_id) + ","
        rows[:, 2] = untied[order[:, 0]]
        at = order[:, 0].astype(np.int32)
        for d in np.flatnonzero(tied > 1).tolist():
            # the tied labels lead the ranking
            group = order[d, : tied[d]].tolist()
            names = [labels[i] for i in group]
            rows[d, 2] = f"{_quote(names[0])},true,{_quote('|'.join(names))},{rank_quote}"
            at[d] = heads.setdefault(tuple(group), len(heads))
        rows[:, 3:-1] = piped[order[:, :-1]]
        rows[:, -1] = last[order[:, -1]]
        yield combo_id, "".join(rows.ravel().tolist()).encode(), at


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
    path: Path | str, batch: FusionBatch
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Read the top-1 predictions of a fused grid file of batch's documents
    and labels as label indices.

    Returns the combo ids in file order, the top1 label index of each
    (combo, document) and a boolean (combos, documents, labels) array
    marking each tied_top group, documents in batch.doc_ids order.  Every
    combo must predict exactly those documents, with top1 and tied_top
    labels from the label set, top1 in tied_top, and tie_at_top true
    exactly when tied_top lists more than one label.  The ranking column
    is not read.  A file without a valid cache (_fused_cache) is read by
    _fused_rows, which names the first fault with its path:line.
    """
    path = Path(path)
    labels = {label: i for i, label in enumerate(batch.label_set.labels)}
    docs = {doc_id: d for d, doc_id in enumerate(batch.doc_ids)}
    # each distinct row head's (top1, tied group); each combo's head per document
    read = _fused_cache(path, batch.label_set.labels, batch.doc_ids)
    groups, combo_ids, at = read or _fused_rows(path, labels, docs)
    tops = np.array([top for top, _ in groups], dtype=np.intp)
    masks = np.zeros((len(groups), len(labels)), dtype=bool)
    for h, (_, group) in enumerate(groups):
        masks[h, group] = True
    at = np.asarray(at)
    return combo_ids, tops[at], masks[at]


def _fused_cache(path: Path, labels: Sequence[str], doc_ids: Sequence[str]):
    """load_fused_predictions' (groups, combo ids, heads) from the cache beside
    path, or None unless it passes its own CRC-32 and was made for these labels
    and documents, from path's bytes as they are, with distinct string combo ids,
    every field within csv.field_size_limit() and every head a top1 inside a
    tied group of distinct labels: see README "Fused grid cache"."""
    try:
        with open(path.with_name(path.name + ".cache"), "rb") as handle:
            header, data = json.loads(handle.readline()), handle.read()
        check, combo_ids = header.pop("check"), header["combo_ids"]
        at = np.frombuffer(data, "<i4").reshape(len(combo_ids), len(doc_ids))
        if not (check == zlib.crc32(data, zlib.crc32(json.dumps(header, sort_keys=True).encode()))
                and header["labels"] == list(labels) and header["doc_ids"] == list(doc_ids)
                and all(type(c) is str for c in combo_ids)
                and len(set(combo_ids)) == len(combo_ids)
                # the longest field csv.reader would meet: a header name, an
                # id or the ranking, which holds every label
                and max(map(len, (*FUSED_HEADER, *combo_ids, *doc_ids, "|".join(labels))))
                <= csv.field_size_limit()
                and at.size and 0 <= at.min() and at.max() < len(header["heads"])
                and all(type(top) is int and top in group and len(set(group)) == len(group)
                        and all(type(t) is int and 0 <= t < len(labels) for t in group)
                        for top, group in header["heads"])):
            return None
        size = crc = 0  # the file's, read last as it is the one long read
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 16):
                size, crc = size + len(chunk), zlib.crc32(chunk, crc)
        if [header["version"], header["bytes"], header["crc32"]] == [1, size, crc]:
            return header["heads"], tuple(combo_ids), at
    except (OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError):
        return None


def _fused_rows(path: Path, labels: Mapping[str, int], docs: Mapping[str, int]):
    """load_fused_predictions' (groups, combo ids, heads) read row by row, each row checked."""
    # Each distinct (top1, tie_at_top, tied_top) is a head, checked on the
    # first row that shows it.  heads maps it to its index in groups.
    heads: dict[tuple[str, str, str], int] = {}
    groups: list[tuple[int, list[int]]] = []
    # per combo: the head of each document, -1 until its row
    combos: dict[str, list[int]] = {}
    combo_id = None
    for line_no, row in _table_rows(path, FUSED_HEADER):
        if row[0] != combo_id:
            combo_id = row[0]
            at = combos.setdefault(combo_id, [-1] * len(docs))
        _, doc_id, top1, tie_text, tied_text, _ = row
        key = (top1, tie_text, tied_text)
        head = heads.get(key)
        if head is None:
            groups.append(_fused_head(path, line_no, labels, *key))
            head = heads[key] = len(heads)
        d = docs.get(doc_id)
        if d is None:
            raise ValidationError(
                f"{path}:{line_no}: document {doc_id!r} is outside the run's documents"
            )
        if at[d] >= 0:
            raise ValidationError(f"{path}:{line_no}: duplicate row for {combo_id!r} / {doc_id!r}")
        at[d] = head
    if not combos:
        raise ValidationError(f"{path}: no fused predictions")
    for combo_id, at in combos.items():
        if -1 in at:  # a row naming another document was refused at its line
            missing = sorted(doc_id for doc_id, d in docs.items() if at[d] < 0)
            raise ValidationError(
                f"{path}: combo {combo_id!r}: missing predictions for documents {_names(missing)}"
            )
    return groups, tuple(combos), list(combos.values())
