"""In-process tracing of cfakit's layers.

Every public function and method that a cfakit layer module defines is
wrapped where other modules, and the module's own globals, look it up.
The layers are found by walking module namespaces, not by listing
function names, so the trace keeps working when functions are renamed
or removed.  A span is recorded where a call crosses from one layer into
another; calls inside a layer only count.  Spans live in flat arrays in
memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# generation is left out: its time belongs to the HTTP endpoint
LAYERS = ("cli", "fileio", "core", "combine", "evaluate", "corpus")


def _rows_in(result) -> int:
    # doc -> label -> score and combo -> doc -> fields: count the leaves
    if not isinstance(result, Mapping):
        return 0
    return sum(len(v) for v in result.values() if isinstance(v, Mapping))


# Exact work counts taken at named entry points.  A name that a later
# version no longer has counts zero, and the run lists it as missing.
CALL_COUNTERS = {
    "core.instances_built": ("core.build_instance",),
    "corpus.docs_scored": ("corpus.keyword_scorer", "corpus.TfidfCentroidScorer.score"),
}
RESULT_COUNTERS = {
    "fileio.load_score_file": ("fileio.score_rows_read", _rows_in),
    "fileio.load_fused_file": ("fileio.fused_rows_read", _rows_in),
}
CONSTRUCTOR_COUNTERS = {"combine.FusedRanking": "combine.rankings"}
PRECISION_PASSES = ("evaluate.precision_at_1", "evaluate.per_label_precision")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layers: list[int] = []
        self.commands: list[str] = []
        self.counts: list[list[int]] = []
        self.tallies: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.name_ids = array("l")
        self.command_ids = array("l")
        self._stack: list[tuple[int, int]] = []
        self._command = -1
        self._current_counts: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping -------------------------------------------------------

    def prepare(self) -> None:
        """Wrap every public function and method of the layer modules."""
        layer_of = {f"cfakit.{name}": name for name in LAYERS}
        wrappers: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cfakit" or n.startswith("cfakit.")) and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and not value.__name__.startswith("_")
                        and value.__module__ in layer_of):
                    if id(value) not in wrappers:
                        layer = layer_of[value.__module__]
                        wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}", layer)
                    self._patch(module, attr, wrappers[id(value)])
                elif (isinstance(value, type) and not value.__name__.startswith("_")
                        and value.__module__ == module.__name__
                        and module.__name__ in layer_of):
                    self._wrap_class(value, layer_of[module.__name__])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._wrap(raw, name, layer))
        counter = CONSTRUCTOR_COUNTERS.get(f"{layer}.{cls.__name__}")
        if counter is not None:
            init = cls.__init__
            tallies = self.tallies

            def counted_init(obj, *args, **kwargs):
                tallies[counter] = tallies.get(counter, 0) + 1
                init(obj, *args, **kwargs)

            self.names.append(f"{layer}.{cls.__name__}")
            self.name_layers.append(LAYERS.index(layer))
            self._patch(cls, "__init__", counted_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], value))

    @contextmanager
    def active(self, command: str):
        """Trace the calls made inside the block and charge them to command."""
        if command not in self.commands:
            self.commands.append(command)
            self.counts.append([0] * len(self.names))
        self._command = self.commands.index(command)
        self._current_counts = self.counts[self._command]
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        layer_id = LAYERS.index(layer)
        self.name_layers.append(layer_id)
        counter, measure = RESULT_COUNTERS.get(name, (None, None))
        tracer = self
        stack = self._stack
        tallies = self.tallies
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids, command_ids = self.name_ids, self.command_ids

        def wrapper(*args, **kwargs):
            tracer._current_counts[name_id] += 1
            if stack and stack[-1][1] == layer_id:
                result = fn(*args, **kwargs)
            else:
                index = len(ends)
                parents.append(stack[-1][0] if stack else -1)
                name_ids.append(name_id)
                command_ids.append(tracer._command)
                ends.append(0.0)
                stack.append((index, layer_id))
                starts.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = perf_counter()
                    stack.pop()
            if measure is not None:
                tallies[counter] = tallies.get(counter, 0) + measure(result)
            return result

        for attr in ("__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    # -- summarizing ------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds per (layer, command): each span minus its child spans."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        out: dict[tuple[str, str], float] = {}
        for i, duration in enumerate(durations):
            key = (LAYERS[self.name_layers[self.name_ids[i]]],
                   self.commands[self.command_ids[i]])
            out[key] = out.get(key, 0.0) + duration - child[i]
        return out

    def function_calls(self, command: str | None = None) -> dict[str, int]:
        out: dict[str, int] = {}
        for cmd, counts in zip(self.commands, self.counts):
            if command is None or cmd == command:
                for name_id, count in enumerate(counts):
                    if count:
                        name = self.names[name_id]
                        out[name] = out.get(name, 0) + count
        return out

    def layer_calls(self) -> dict[tuple[str, str], int]:
        """Calls into each layer's public functions, per command."""
        out: dict[tuple[str, str], int] = {}
        for command, counts in zip(self.commands, self.counts):
            for name_id, count in enumerate(counts):
                if count:
                    key = (LAYERS[self.name_layers[name_id]], command)
                    out[key] = out.get(key, 0) + count
        return out

    def counters(self) -> tuple[dict[str, int], list[str]]:
        """Exact work counts, and the counted names this version lacks."""
        calls = self.function_calls()
        known = set(self.names)
        out: dict[str, int] = {}
        for counter, names in CALL_COUNTERS.items():
            out[counter] = sum(calls.get(n, 0) for n in names)
        for counter in [c for c, _ in RESULT_COUNTERS.values()] + list(CONSTRUCTOR_COUNTERS.values()):
            out[counter] = self.tallies.get(counter, 0)
        evaluate = self.function_calls("evaluate")
        out["evaluate.precision_calls"] = sum(evaluate.get(n, 0) for n in PRECISION_PASSES)
        wanted = [n for names in CALL_COUNTERS.values() for n in names]
        wanted += list(RESULT_COUNTERS) + list(CONSTRUCTOR_COUNTERS) + list(PRECISION_PASSES)
        return out, [n for n in wanted if n not in known]

    def write_spans(self, path: Path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tname\tcommand\tparent\tstart_s\tend_s\n")
            for i in range(len(self.ends)):
                handle.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t"
                    f"{self.commands[self.command_ids[i]]}\t{self.parents[i]}\t"
                    f"{self.starts[i] - origin:.9f}\t{self.ends[i] - origin:.9f}\n"
                )
