"""Seeded end-to-end benchmark of the cfakit command line.

    python3 bench/run.py --workload paper --seed 1 --seconds 4 --trace 0

Run from anywhere inside a checkout; it always measures that checkout's
src/ tree, never an installed copy.  Inputs are generated from the seed
under bench/_work/ and deleted afterwards.

--trace 0 runs the workload's command sequence as `python -m cfakit.cli`
subprocesses, one at a time (a closed loop with one client).  The
sequence is repeated, leaving out commands already timed for --seconds,
so every command is timed for at least that long; the run reports the
median wall time and peak RSS of each command, and the median time of a
fresh interpreter running `import cfakit`.

--trace 1 instead calls cfakit.cli.main in-process, once untraced and
once traced per command, and reports the time each layer spends in
itself, call and work counts, and `-X importtime` figures.  Spans go to
bench/_last/, beside a JSON file with every figure of the run.

Both modes check the outputs (see gate.py).  The last line of stdout is
one JSON object: correct, attempted, failed (command runs, and those
that exited nonzero or wrote output the gate rejects) and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gate import Gate, compare_digests, digest_outputs, load_oracle
from workloads import DEFAULT_SEED, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "_naive.py"
DIGESTS = BENCH / "digests.json"
LAST = BENCH / "_last"

TIMED_COMMANDS = ("diversity", "fuse", "evaluate")
SETUP_REPEATS = 3
# Every command is timed at least this often, in separate rounds, so no
# command's median rests on one sample taken during a burst of load from
# other tenants of a shared machine.
MIN_SAMPLES = 2
IMPORTTIME_REPEATS = 3
# No new round of commands starts after this, so a run ends well inside
# three minutes even when --seconds asks for more.
RUN_BUDGET_S = 100.0
IMPORT_PACKAGES = ("cfakit", "scipy", "numpy", "requests")
COMMANDS = ("corpus-stats", "score", "diversity", "fuse", "evaluate")
# The (layer, command) pairs that occur on some workload; the detail file
# keeps every pair the trace saw.
LAYER_COMMANDS = {
    "cli": COMMANDS,
    "fileio": COMMANDS,
    "core": ("diversity", "fuse", "evaluate"),
    "combine": ("fuse", "evaluate"),
    "evaluate": ("evaluate",),
    "corpus": ("corpus-stats", "score"),
}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digests as the record for the default seed",
    )
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv, env, cwd: Path, log) -> tuple[float, int, float]:
    """Wall seconds, exit code and this child's own peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def import_cfakit(env, cwd: Path, *flags: str) -> tuple[float, str]:
    """Time a fresh interpreter importing cfakit; return its stderr too.

    Fails unless the import loads this checkout's src/cfakit.
    """
    start = time.perf_counter()
    found = subprocess.run(
        [sys.executable, *flags, "-c", "import cfakit; print(cfakit.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    path = found.stdout.strip()
    if found.returncode != 0 or not path or Path(path).resolve().parent != SRC / "cfakit":
        raise BenchError(f"`import cfakit` did not load {SRC / 'cfakit'}: "
                         f"{path or found.stderr.strip()[-300:]}")
    return elapsed, found.stderr


def median(values) -> float:
    return float(statistics.median(values))


def charge(failures: set, round_index: int, problems: dict, notes: list, what: str) -> None:
    for step, messages in problems.items():
        failures.add((round_index, step))
        notes += [f"round {round_index} {step}: {m} ({what})" for m in messages]


def gate_problems(inputs, seed: int) -> dict[str, list[str]]:
    try:
        return Gate(inputs, load_oracle(ORACLE), seed).run()
    except Exception as exc:  # a malformed output must count as a failure
        return {inputs.steps[-1].name: [f"gate could not read the outputs: {exc!r}"]}


def recorded_digests(workload: str, seed: int):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def record_digests(workload: str, digests) -> None:
    record = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    record[workload] = digests
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_digests(args, rounds, failures, notes) -> None:
    """Reruns must be byte-identical, and match the default seed's record."""
    for index, digests in enumerate(rounds[1:], start=1):
        charge(failures, index, compare_digests(rounds[0], digests, "the first run"),
               notes, "rerun")
    if args.record_digests and args.seed == DEFAULT_SEED:
        record_digests(args.workload, rounds[0])
        return
    record = recorded_digests(args.workload, args.seed)
    if record is not None:
        charge(failures, 0, compare_digests(record, rounds[0], "the recorded digest"),
               notes, "record")


# -- end-to-end run (--trace 0) ---------------------------------------------

def measure_subprocess(args, inputs, work: Path) -> dict:
    env = child_env()
    # the first import also fills the checkout's bytecode cache; the
    # median keeps that one slow sample out of setup_s
    setup = [import_cfakit(env, work)[0] for _ in range(SETUP_REPEATS)]
    samples = {step.name: [] for step in inputs.steps}
    rounds, failures, notes = [], set(), []
    started = time.perf_counter()
    with open(work / "children.log", "w+b") as log:
        # Rounds run the sequence in order, skipping commands already timed
        # MIN_SAMPLES times and for --seconds.  Reruns rewrite identical
        # inputs for later commands.
        while not failures:
            pending = [s for s in inputs.steps
                       if len(samples[s.name]) < MIN_SAMPLES
                       or sum(r[0] for r in samples[s.name]) < args.seconds]
            if not pending or (rounds and time.perf_counter() - started > RUN_BUDGET_S):
                break
            for step in pending:
                sample = run_child(
                    [sys.executable, "-m", "cfakit.cli", *step.argv], env, work, log)
                samples[step.name].append(sample)
                if sample[1] != 0:
                    failures.add((len(rounds), step.name))
                    notes.append(f"round {len(rounds)} {step.name}: exit {sample[1]}")
            rounds.append(digest_outputs(inputs))
        if notes:
            log.seek(0)
            notes.append("child output tail: " + log.read()[-2000:].decode(errors="replace"))
    check_digests(args, rounds, failures, notes)
    charge(failures, len(rounds) - 1, gate_problems(inputs, args.seed), notes, "gate")

    step_median = {name: median(r[0] for r in runs) for name, runs in samples.items()}
    metrics = {
        "pipeline_s": (sum(step_median.values()), "s"),
        **{f"{step.command}_s": (step_median[step.name], "s")
           for step in inputs.steps if step.command in TIMED_COMMANDS},
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (max(median(r[2] for r in runs) for runs in samples.values()), "MB"),
    }
    detail = {
        "samples": {name: [{"seconds": r[0], "exit": r[1], "peak_rss_mb": r[2]} for r in runs]
                    for name, runs in samples.items()},
        "setup_seconds": setup,
    }
    attempted = sum(len(runs) for runs in samples.values())
    return result(attempted, failures, notes, metrics, detail)


# -- traced run (--trace 1) -------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per package from `-X importtime` output.

    Each package counts at its outermost import, and interpreter start-up
    is every top-level import other than cfakit's.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(cumulative) / 1e6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = pending.get(0, [])

    def outermost(nodes, package):
        return sum(node[1] if node[0].split(".")[0] == package
                   else outermost(node[2], package) for node in nodes)

    out = {f"import.{p}_s": outermost(roots, p) for p in IMPORT_PACKAGES}
    out["import.interpreter_s"] = sum(n[1] for n in roots if n[0] != "cfakit")
    return out


def bytes_written_so_far() -> int:
    """Bytes this process has passed to write() (Linux task I/O accounting)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise BenchError("/proc/self/io has no wchar line")


def call_main(cli, argv) -> int:
    """Exit code of cfakit.cli.main; 1 when it raises, as a child would."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))
    except Exception:  # the run goes on and reports the command as failed
        traceback.print_exc()
        return 1


def measure_traced(args, inputs, work: Path) -> dict:
    from tracing import Tracer

    env = child_env()
    imports = [parse_importtime(import_cfakit(env, work, "-X", "importtime")[1])
               for _ in range(IMPORTTIME_REPEATS)]
    metrics = {k: (median(i[k] for i in imports), "s") for k in imports[0]}

    sys.path.insert(0, str(SRC))
    import cfakit.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "cfakit":
        raise BenchError(f"imported {cli.__file__}, not {SRC / 'cfakit'}")

    tracer = Tracer()
    tracer.prepare()
    failures, notes = set(), []
    untraced: dict[str, float] = {}
    traced: dict[str, float] = {}
    runs = [{}, {}]
    fused_rows = bytes_written = 0
    for step in inputs.steps:
        gc.collect()
        start = time.perf_counter()
        code = call_main(cli, step.argv)
        untraced[step.command] = untraced.get(step.command, 0.0) + time.perf_counter() - start
        runs[0][step.name] = digest_outputs(inputs)[step.name]
        gc.collect()
        written = bytes_written_so_far()
        with tracer.active(step.command):
            start = time.perf_counter()
            traced_code = call_main(cli, step.argv)
            traced[step.command] = traced.get(step.command, 0.0) + time.perf_counter() - start
        bytes_written += bytes_written_so_far() - written
        runs[1][step.name] = digest_outputs(inputs)[step.name]
        for index, exit_code in enumerate((code, traced_code)):
            if exit_code != 0:
                failures.add((index, step.name))
                notes.append(f"{step.name}: exit {exit_code}")
        if "fused.csv" in step.outputs and (inputs.out_dir / "fused.csv").is_file():
            with (inputs.out_dir / "fused.csv").open("rb") as handle:
                fused_rows = sum(1 for _ in handle) - 1
    check_digests(args, runs, failures, notes)
    charge(failures, 1, gate_problems(inputs, args.seed), notes, "gate")

    self_times = tracer.self_times()
    layer_calls = tracer.layer_calls()
    for layer, commands in LAYER_COMMANDS.items():
        for command in commands:
            metrics[f"{layer}.{command}.self_s"] = (self_times.get((layer, command), 0.0), "s")
            metrics[f"{layer}.{command}.calls"] = (layer_calls.get((layer, command), 0), "count")
    counters, missing = tracer.counters()
    models_scored = len(inputs.systems) + inputs.models
    metrics.update({
        "fileio.score_rows_read": (counters["fileio.score_rows_read"], "count"),
        "fileio.fused_rows_written": (fused_rows, "count"),
        "fileio.fused_rows_read": (counters["fileio.fused_rows_read"], "count"),
        "fileio.bytes_written": (bytes_written, "B"),
        "core.instances_built": (counters["core.instances_built"], "count"),
        "combine.rankings": (counters["combine.rankings"], "count"),
        "corpus.docs_scored": (counters["corpus.docs_scored"], "count"),
        "evaluate.precision_passes_per_model": (
            counters["evaluate.precision_calls"] / models_scored, "ratio"),
    })
    for command in COMMANDS:
        overhead = traced[command] / untraced[command] - 1 if command in untraced else 0.0
        metrics[f"trace.{command}.overhead"] = (overhead, "ratio")

    LAST.mkdir(exist_ok=True)
    spans = LAST / f"{args.workload}-spans.tsv.gz"
    tracer.write_spans(spans)
    detail = {
        "untraced_seconds": untraced,
        "traced_seconds": traced,
        "function_calls": {c: tracer.function_calls(c) for c in tracer.commands},
        "self_seconds": {f"{l}.{c}": v for (l, c), v in sorted(self_times.items())},
        "missing_counted_names": missing,
        "spans": len(tracer.ends),
        "spans_file": str(spans.relative_to(ROOT)),
        "importtime_runs": imports,
    }
    return result(2 * len(inputs.steps), failures, notes, metrics, detail)


# -- output -------------------------------------------------------------------

def result(attempted: int, failures: set, notes: list, metrics: dict, detail: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": {**detail, "problems": notes},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cfakit" / "cli.py").is_file() or not ORACLE.is_file():
        print(f"error: {ROOT} is not a cfakit checkout: it needs src/cfakit and "
              "tests/_naive.py", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(WORKLOADS[args.workload], args.seed, work)
        measure = measure_traced if args.trace else measure_subprocess
        outcome = measure(args, inputs, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = outcome.pop("detail")
    LAST.mkdir(exist_ok=True)
    (LAST / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), **outcome, "detail": detail}, indent=2) + "\n",
        encoding="utf-8")
    for note in detail["problems"]:
        print(note, file=sys.stderr)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
