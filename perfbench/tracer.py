"""Layer tracing from outside the program.

``Tracer.install`` rebinds the names that callers look up (module
globals such as ``rebac.pdp.match_principals`` and ``SystemGraph``
methods) to wrappers; ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes.  Coarse calls become spans (name, start, end,
parent) kept in memory; hot, tiny functions only have their calls
counted, so that their wrappers do not distort the spans around them.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import rebac.differential
import rebac.matching
import rebac.oracle
import rebac.pdp
import rebac.workspace
from rebac.graph import SystemGraph

# (owner, attribute, span name); match_path spans get .hit or .miss appended
_SPANNED = [
    (rebac.workspace, "loads_workspace", "workspace.loads"),
    (rebac.pdp, "evaluate", "pdp.evaluate"),
    (rebac.pdp, "match_principals", "matching.match_principals"),
    (rebac.matching, "match_path", "matching.match_path"),
    (rebac.differential, "match_path", "differential.match_path"),
    (rebac.differential, "oracle_satisfies", "oracle.satisfies"),
    (rebac.differential, "random_graph", "differential.random_graph"),
    (rebac.oracle, "compile_nfa", "oracle.compile_nfa"),
    (SystemGraph, "with_edge", "graph.update"),
    (SystemGraph, "without_edge", "graph.update"),
]
# path functions as the matcher looks them up, and per-request validation
_COUNTED = [
    (rebac.matching, "simplify", "paths.calls"),
    (rebac.matching, "head", "paths.calls"),
    (rebac.matching, "suffix", "paths.calls"),
    (rebac.matching, "render", "paths.calls"),
    (rebac.matching, "validate_policy", "matching.validate_policy"),
]


class Tracer:
    """Spans and call counts for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._fresh: set[int] = set()  # ids of snapshots not yet queried
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _spanned(self, name: str, fn):
        begin, end = self._begin, self._end
        classify = name.endswith("match_path")

        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if classify:
                self.spans[index][0] = name + (".hit" if result.found else ".miss")
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- graph snapshots -----------------------------------------------------

    def _graph_init(self, fn):
        begin, end, fresh = self._begin, self._end, self._fresh

        def __init__(graph, *args, **kwargs):
            index = begin("graph.build")
            try:
                fn(graph, *args, **kwargs)
            finally:
                end(index)
            fresh.add(id(graph))

        return __init__

    def _edges_incident(self, fn):
        # the first query on a fresh snapshot pays for its incident index
        begin, end, fresh, counts = self._begin, self._end, self._fresh, self.counts

        def edges_incident(graph, entity):
            counts["graph.edges_incident"] += 1
            key = id(graph)
            if key not in fresh:
                return fn(graph, entity)
            fresh.discard(key)
            index = begin("graph.index_build")
            try:
                return fn(graph, entity)
            finally:
                end(index)

        return edges_incident

    # -- install / uninstall ---------------------------------------------------

    def _rebind(self, owner, attribute: str, wrapper) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every target that exists; a renamed one just yields no samples."""
        if self._saved:
            return
        for owner, attribute, name in _SPANNED:
            if hasattr(owner, attribute):
                self._rebind(owner, attribute, self._spanned(name, getattr(owner, attribute)))
        for owner, attribute, name in _COUNTED:
            if hasattr(owner, attribute):
                self._rebind(owner, attribute, self._counted(name, getattr(owner, attribute)))
        self._rebind(SystemGraph, "__init__", self._graph_init(SystemGraph.__init__))
        self._rebind(SystemGraph, "edges_incident", self._edges_incident(SystemGraph.edges_incident))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        """Seconds per span, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per span minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name].append(end - start - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
