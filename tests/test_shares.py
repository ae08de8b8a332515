"""`cfakit fuse` over shares of the grid in forked workers: the bytes of a
one-process run whatever the CPU count, every failure one error line with
the old files kept, and no worker left behind; none is forked where a
second thread rules a fork out.

Each run is a fresh interpreter pinned to at most 3 CPUs, so no test
starts more than 2 workers."""

from __future__ import annotations

import csv
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cfakit
from cfakit import FusionBatch, LabelSet
from cfakit.combine import MIN_SHARE, grid_arrays
from cfakit.fused import write_fused_file

SRC = str(Path(cfakit.__file__).resolve().parent.parent)
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="a worker needs a second CPU")

# Runs the command line on the first int(argv[1]) CPUs, then reports the
# forks it made and whether any child is left, reaped or not.  Before the
# run the caller's code in argv[2] patches the process.
_PINNED = """
import os, sys
# as a library caller pins BLAS: before the patch's imports load numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
forks, fork = [], os.fork
def counted():
    forks.append(1)
    return fork()
os.fork = counted
from cfakit.cli import main
exec(sys.argv[2])
status = main(sys.argv[3:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = "some"
except ChildProcessError:
    left = "none"
print("forks", len(forks), "children", left)
sys.exit(status)
"""

# every temporary write fails as on a full disk; only workers write to one
_FULL_DISK = """
import errno, tempfile
class Full:
    def __init__(self, file):
        self.file = file
    def __getattr__(self, name):
        return getattr(self.file, name)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.file.close()
    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
temporary = tempfile.TemporaryFile
tempfile.TemporaryFile = lambda *args, **kwargs: Full(temporary(*args, **kwargs))
"""

# a worker is killed at its first model
_DYING_WORKER = """
import signal, cfakit.combine
fuse, parent = cfakit.combine._fuse_arrays, os.getpid()
def dying(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return fuse(*args)
cfakit.combine._fuse_arrays = dying
"""

# each model takes 10 ms longer, so a grid lasts seconds
_SLOW_KERNEL = """
import time, cfakit.combine
fuse = cfakit.combine._fuse_arrays
def slow(*args):
    time.sleep(0.01)
    return fuse(*args)
cfakit.combine._fuse_arrays = slow
"""

# the parent's own share fails at its first model as on a full disk, while
# its worker, 10 ms a model, still runs
_FULL_DISK_IN_THE_PARENT = """
import errno, time, cfakit.combine
fuse, parent = cfakit.combine._fuse_arrays, os.getpid()
def failing(*args):
    if os.getpid() == parent:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    time.sleep(0.01)
    return fuse(*args)
cfakit.combine._fuse_arrays = failing
"""


def _env(**extra) -> dict[str, str]:
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def _grid_workspace(where: Path, systems=tuple(f"s{j}" for j in range(8))) -> None:
    """An 8-system config on 5 documents, one of them quoted ("d,3"), with
    scores of one decimal, so labels tie at the top."""
    rng = np.random.default_rng(11)
    doc_ids, labels = ["d1", "d2", "d,3", "d4", "d5"], ["A", "B", "C", "D"]
    entries = []
    for j, system in enumerate(systems):
        with open(where / f"scores{j}.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("doc_id", "label", "score"))
            for doc_id in doc_ids:
                writer.writerows((doc_id, label, f"{rng.integers(0, 4) / 10}")
                                 for label in labels)
        entries.append({"id": system, "path": f"scores{j}.csv"})
    (where / "config.json").write_text(json.dumps(
        {"labels": labels, "systems": entries, "out_dir": "out"}))


def _fuse(where: Path, cpus: int, patch: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _PINNED, str(cpus), patch, "fuse", "--config", "config.json"],
        capture_output=True, text=True, env=_env(), cwd=where, timeout=120)


@pytest.mark.parametrize("nul", [False, True], ids=["cached", "nul-in-a-system-id"])
def test_fused_bytes_do_not_depend_on_the_cpus(tmp_path, nul):
    systems = [f"s{j}" for j in range(7)] + ["s7\0" if nul else "s7"]
    _grid_workspace(tmp_path, systems)
    out = tmp_path / "out"
    written = set()
    for cpus in (1, 2, 3):
        out.mkdir(exist_ok=True)
        (out / "fused.csv.cache").write_bytes(b"an older run's cache\n")
        result = _fuse(tmp_path, cpus)
        assert result.returncode == 0, result.stderr
        shares = max(1, min(cpus, CPUS, 988 // MIN_SHARE))
        assert result.stdout.splitlines()[-1] == f"forks {shares - 1} children none"
        cache = out / "fused.csv.cache"
        # a NUL written removes the cache, from whichever share writes it
        assert cache.exists() != nul
        written.add(((out / "fused.csv").read_bytes(), cache.exists() and cache.read_bytes()))
    assert len(written) == 1
    ((fused, _),) = written
    assert fused.count(b"\n") == 1 + 988 * 5
    assert b',"d,3",' in fused and b",true," in fused


@needs_two_cpus
@pytest.mark.parametrize("patch, reason", [
    (_FULL_DISK, os.strerror(28)),
    (_DYING_WORKER, f"a fuse worker ended without a result (wait status {int(signal.SIGKILL)})"),
    # the worker is still running, so the clean-up kills and reaps it
    (_FULL_DISK_IN_THE_PARENT, os.strerror(28)),
], ids=["full-disk", "killed", "full-disk-in-the-parent"])
def test_a_failed_worker_gives_one_error_line_and_keeps_the_old_files(tmp_path, patch, reason):
    _grid_workspace(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "fused.csv").write_bytes(b"an older run's grid\n")
    (out / "fused.csv.cache").write_bytes(b"an older run's cache\n")
    result = _fuse(tmp_path, 2, patch)
    assert result.returncode == 2, result.stderr
    fused = Path("out", "fused.csv")
    assert result.stderr.splitlines() == [f"error: cannot write {fused}: {reason}"]
    assert result.stdout.splitlines() == ["forks 1 children none"]
    assert sorted(p.name for p in out.iterdir()) == ["fused.csv", "fused.csv.cache"]
    assert (out / "fused.csv").read_bytes() == b"an older run's grid\n"
    assert (out / "fused.csv.cache").read_bytes() == b"an older run's cache\n"


def _session(sid: int) -> list[int]:
    """The live processes of session sid; a zombie has ended already."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # it ended while listed
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(stat.parent.name))
    return pids


@needs_two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists sessions from /proc")
def test_no_worker_outlives_a_killed_fuse(tmp_path):
    _grid_workspace(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-c", _PINNED, "2", _SLOW_KERNEL, "fuse", "--config", "config.json"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_env(), cwd=tmp_path,
        start_new_session=True)
    try:
        # the workers are forked before the header reaches the temporary file
        deadline = time.monotonic() + 60
        while not any(p.stat().st_size for p in (tmp_path / "out").glob(".fused.csv.*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert len(_session(proc.pid)) == 2
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 2
    while _session(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _session(proc.pid) == []


def test_importing_the_command_line_leaves_the_blas_threads_alone():
    # main() pins BLAS when a command runs; an import changes no caller's environment
    env = {key: value for key, value in _env().items() if key != "OPENBLAS_NUM_THREADS"}
    code = "import os, cfakit.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "None\n"


def test_tfidf_scores_do_not_depend_on_the_blas_threads(tmp_path):
    # 12,000 distinct training terms: OpenBLAS splits a dot product or norm
    # of over about 10,000 terms across its threads, each summing its part
    labels = ["A", "B", "C"]
    train = [{"doc_id": f"t{i}", "label": labels[i % 3],
              "text": " ".join(f"w{j} " * (j % 3 + 1) for j in range(i * 600, i * 600 + 700))}
             for i in range(20)]
    docs = [{"doc_id": f"d{i}", "text": " ".join(f"w{j}" for j in range(i * 500, i * 500 + 2000))}
            for i in range(24)]
    for name, records in (("train.jsonl", train), ("corpus.jsonl", docs)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "config.json").write_text(json.dumps({"labels": labels, "out_dir": "out"}))
    scores = set()
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "cfakit.cli", "score", "--config", "config.json", "--scorer",
             "tfidf", "--corpus", "corpus.jsonl", "--train", "train.jsonl"],
            capture_output=True, text=True, env=_env(OPENBLAS_NUM_THREADS=threads),
            cwd=tmp_path, timeout=120)
        assert result.returncode == 0, result.stderr
        scores.add((tmp_path / "out" / "scores_tfidf.csv").read_bytes())
    assert len(scores) == 1


def test_a_library_caller_with_a_second_thread_fuses_its_shares_without_a_fork(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    batch = FusionBatch([f"d{d}" for d in range(5)], LabelSet(("A", "B", "C")),
                        ["s0", "s1", "s2"], rng.random((5, 3, 3)).round(1))
    grid = [(combo_id, order, tied) for combo_id, (_, order, tied, _) in grid_arrays(batch)]
    assert write_fused_file(tmp_path / "one.csv", batch, grid) == len(grid)

    def no_fork():
        raise AssertionError("forked while a second thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert write_fused_file(tmp_path / "shares.csv", batch, grid[:5], grid[5:9],
                                grid[9:]) == len(grid)
    finally:
        done.set()
        thread.join()
    for name in ("shares.csv", "shares.csv.cache"):
        one = name.replace("shares", "one")
        assert (tmp_path / name).read_bytes() == (tmp_path / one).read_bytes()
