"""Typed multigraph of entities, and the model that constrains it.

A :class:`SystemModel` fixes the vocabulary: entity types, relationship
labels, which labels are symmetric, and which (from-type, to-type,
label) triples an edge may instantiate.  A :class:`SystemGraph` is an
immutable snapshot of entities and labelled edges over such a model.
Its entities are fixed when it is constructed; adding or removing one
edge returns a new snapshot, so a graph in hand never changes and can be
shared freely across threads.

Symmetric edges are direction-free: they are stored once, with the
lexicographically smaller endpoint first, and match in both directions.

What a snapshot holds: the model, the entity table (id to type, with its
sorted id tuple computed once), its edge count, and a label index with
one entry per node that has edges: its label table and its comparison
count.  The table maps ``(label, direction)`` to the sorted tuple of
neighbours reached that way, with direction ``out``, ``in`` or ``sym``.
The count is ``out + in + 2·sym``: what one scan of all its incident
edges costs the matcher, since a symmetric edge is tried in both senses.
The index is the only copy of the edges: the constructor collapses the
triples it is given into a transient set, validates that set, builds the
index from it and drops it; ``edges`` and ``edges_incident`` are derived
from the index on each call.

What validation costs: one hashed test per entity and per stored edge,
against the ``(from_type, to_type, label)`` triples the model admits.
Only the offending entities and edges are sorted and described.

What an update copies: :meth:`SystemGraph.with_edge` and
:meth:`SystemGraph.without_edge` share the model, the entity table and
every untouched node's entry.  They copy only the top-level node map and
rebuild the entries of the edge's ends, and ``with_edge`` validates only
the new edge, so an update never re-sorts or re-walks the graph.  Edge
endpoints are the entity table's own key strings, so the index holds one
string object per entity, not one per edge end.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from sys import intern
from types import MappingProxyType
from typing import Iterable, Literal

__all__ = [
    "GraphError",
    "UnknownEntityError",
    "GraphValidationError",
    "SystemModel",
    "SystemGraph",
    "validate_model",
]


class GraphError(Exception):
    pass


class UnknownEntityError(GraphError):
    def __init__(self, entity: str):
        super().__init__(f"unknown entity {entity!r}")
        self.entity = entity


class GraphValidationError(GraphError):
    """Raised when a graph or model is rejected; carries all violations."""

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid")


Direction = Literal["out", "in", "sym"]

# the order in which edges_incident lists direction groups; the
# matcher's recount of a scan that ends early follows it
DIRECTION_RANK = {"out": 0, "in": 1, "sym": 2}

_OPPOSITE = {"out": "in", "in": "out", "sym": "sym"}


# (label, direction) -> sorted neighbours, for one node
NodeTable = Mapping[tuple[str, Direction], tuple[str, ...]]
# node -> (its label table, its comparison count)
LabelIndex = Mapping[str, tuple[NodeTable, int]]

NO_EDGES = (MappingProxyType({}), 0)  # the index entry of every node without edges


@dataclass(frozen=True)
class SystemModel:
    """Vocabulary and typing discipline for system graphs."""

    types: frozenset[str]
    labels: frozenset[str]
    symmetric: frozenset[str]
    permissible: frozenset[tuple[str, str, str]]  # (from_type, to_type, label)

    def __init__(self, types, labels, symmetric=(), permissible=()):
        object.__setattr__(self, "types", frozenset(types))
        object.__setattr__(self, "labels", frozenset(labels))
        object.__setattr__(self, "symmetric", frozenset(symmetric))
        object.__setattr__(self, "permissible", frozenset(tuple(t) for t in permissible))


def validate_model(model: SystemModel) -> list[str]:
    """Internal consistency violations of the model itself, as messages."""
    problems = []
    for label in sorted(model.symmetric - model.labels):
        problems.append(f"symmetric label {label!r} is not a declared label")
    for from_type, to_type, label in sorted(model.permissible):
        if from_type not in model.types:
            problems.append(f"permissible triple ({from_type!r}, {to_type!r}, {label!r}): unknown type {from_type!r}")
        if to_type not in model.types:
            problems.append(f"permissible triple ({from_type!r}, {to_type!r}, {label!r}): unknown type {to_type!r}")
        if label not in model.labels:
            problems.append(f"permissible triple ({from_type!r}, {to_type!r}, {label!r}): unknown label {label!r}")
    return problems


class SystemGraph:
    """Immutable snapshot of the entity multigraph.

    ``entities`` maps entity id (a string) to type name; ``edges`` is any
    iterable of (from, to, label) triples, read in one pass before the
    index is built.  Duplicate triples collapse.  The label index is the
    snapshot's only copy of the edges.  Construction validates the model
    and the graph, and raises :class:`GraphValidationError` with every
    violation before building the index, so every snapshot is well-formed.
    """

    __slots__ = ("model", "_types", "_ids", "_index", "_edge_count")

    def __init__(
        self,
        model: SystemModel,
        entities: Mapping[str, str] | Iterable[tuple[str, str]],
        edges: Iterable[tuple[str, str, str]] = (),
    ):
        pairs = entities.items() if isinstance(entities, Mapping) else entities
        types = {intern(entity): intern(type_name) for entity, type_name in pairs}
        sym = model.symmetric
        stored = set()
        for from_id, to_id, label in edges:
            if label in sym and to_id < from_id:
                from_id, to_id = to_id, from_id
            stored.add((intern(from_id), intern(to_id), intern(label)))
        problems = validate_model(model) + _graph_problems(model, types, stored)
        if problems:
            raise GraphValidationError(problems)
        self._init(model, types, None, _build_index(sym, stored), len(stored))

    def _init(self, model, types, ids, index, edge_count) -> None:
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "_types", types)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_edge_count", edge_count)

    def __setattr__(self, name, value):
        raise AttributeError("SystemGraph is immutable; use with_edge/without_edge")

    # -- lookups ---------------------------------------------------------

    @property
    def entity_ids(self) -> tuple[str, ...]:
        ids = self._ids
        if ids is None:
            ids = tuple(sorted(self._types))
            object.__setattr__(self, "_ids", ids)
        return ids

    @property
    def edges(self) -> frozenset[tuple[str, str, str]]:
        """Stored triples; symmetric ones have the smaller endpoint first.
        Derived from the label index on each call."""
        return frozenset(
            (node, other, label)
            for node, (table, _) in self._index.items()
            for (label, direction), others in table.items()
            if direction != "in"
            for other in others
            if direction == "out" or node <= other
        )

    @property
    def edge_count(self) -> int:
        """Number of stored edges, ``len(edges)``, without building the set."""
        return self._edge_count

    def __contains__(self, entity: str) -> bool:
        return entity in self._types

    def __len__(self) -> int:
        return len(self._types)

    def has_entity(self, entity: str) -> bool:
        return entity in self._types

    def type_of(self, entity: str) -> str:
        try:
            return self._types[entity]
        except KeyError:
            raise UnknownEntityError(entity) from None

    def has_edge(self, from_id: str, to_id: str, label: str) -> bool:
        """Whether the edge holds from ``from_id`` to ``to_id``.

        Symmetric labels hold in both directions; for other labels the
        (from, to, label) and (to, from, label) triples are independent.
        """
        key = (label, "sym" if label in self.model.symmetric else "out")
        return to_id in self._index.get(from_id, NO_EDGES)[0].get(key, ())

    def edges_incident(self, entity: str) -> tuple[tuple[str, str, Direction], ...]:
        """Edges touching ``entity`` as ``(neighbor, label, direction)``.

        Order: all ``out`` edges, then ``in``, then ``sym``, each group
        sorted by (neighbor, label).  Symmetric edges appear once per
        stored edge, as direction ``sym``.  Derived from the label index
        on each call.
        """
        if entity not in self._types:
            raise UnknownEntityError(entity)
        table = self._index.get(entity, NO_EDGES)[0]
        incident = [(other, label, direction) for (label, direction), others in table.items() for other in others]
        return tuple(sorted(incident, key=lambda edge: (DIRECTION_RANK[edge[2]], edge)))

    def label_index(self) -> LabelIndex:
        """``node -> (table, count)``: the node's ``(label, direction) ->
        sorted neighbours`` table and its comparison count ``out + in +
        2·sym``.  Nodes without edges are absent.  Snapshots share these
        entries; callers must not change them."""
        return self._index

    # -- functional updates ----------------------------------------------

    def with_edge(self, from_id: str, to_id: str, label: str) -> "SystemGraph":
        """New snapshot with the edge added; rejects ill-formed additions."""
        problems = _edge_problems(self.model, self._types, from_id, to_id, label)
        if problems:
            raise GraphValidationError(problems)
        return self._edge_update(from_id, to_id, label, add=True)

    def without_edge(self, from_id: str, to_id: str, label: str) -> "SystemGraph":
        return self._edge_update(from_id, to_id, label, add=False)

    def _edge_update(self, from_id: str, to_id: str, label: str, *, add: bool) -> "SystemGraph":
        if self.has_edge(from_id, to_id, label) == add:
            return self
        # both ends are entities here; interning yields the entity table's keys
        from_id, to_id, label = intern(from_id), intern(to_id), intern(label)
        direction = "sym" if label in self.model.symmetric else "out"
        ends = [(from_id, (label, direction), to_id)]
        if from_id != to_id or direction == "out":  # a symmetric loop is one incident edge
            ends.append((to_id, (label, _OPPOSITE[direction]), from_id))
        index = dict(self._index)
        _edit(index, ends, add)
        graph = object.__new__(SystemGraph)
        graph._init(self.model, self._types, self._ids, index, self._edge_count + (1 if add else -1))
        return graph

    def __repr__(self) -> str:
        return f"SystemGraph({len(self._types)} entities, {self._edge_count} edges)"


def _edit(index: dict, ends, add: bool) -> None:
    """For each ``(node, key, other)`` of ``ends``, add or remove ``other``
    under ``key`` in ``node``'s entry of the top-level map given, which
    the caller has copied.  Each changed node's table is copied first, so
    snapshots that share the old entry keep it."""
    for node, key, other in ends:
        table, count = index.get(node, NO_EDGES)
        table = dict(table)
        others = table.get(key, ())
        weight = 2 if key[1] == "sym" else 1
        if add:
            i = bisect_left(others, other)
            table[key] = others[:i] + (other,) + others[i:]
            count += weight
        else:
            others = tuple(o for o in others if o != other)
            if others:
                table[key] = others
            else:
                del table[key]
            count -= weight
        if table:
            index[node] = (table, count)
        else:
            del index[node]


def _build_index(symmetric, edges) -> LabelIndex:
    keys = {}  # label -> (key at the from end, key at the to end), one key object each
    alone: dict[str, tuple[str]] = {}  # one 1-tuple per entity, shared by every table it is alone in
    index: dict = {}  # node -> its table, until the last loop pairs the table with its count
    for from_id, to_id, label in edges:
        ends = keys.get(label)
        if ends is None:
            ends = ((label, "sym"),) * 2 if label in symmetric else ((label, "out"), (label, "in"))
            keys[label] = ends
        from_key, to_key = ends
        if from_id == to_id and from_key is to_key:
            ends = ((from_id, from_key, to_id),)  # a symmetric loop is one incident edge
        else:
            ends = ((from_id, from_key, to_id), (to_id, to_key, from_id))
        for node, key, other in ends:
            table = index.get(node)
            if table is None:
                table = index[node] = {}
            # a key holds a shared 1-tuple until its second neighbour makes it a list
            others = table.get(key)
            if others is None:
                one = alone.get(other)
                if one is None:
                    one = alone[other] = (other,)
                table[key] = one
            elif type(others) is tuple:
                table[key] = [others[0], other]
            else:
                others.append(other)
    for node, table in index.items():
        count = 0
        for key, others in table.items():
            if type(others) is list:
                others.sort()
                table[key] = others = tuple(others)
            count += len(others) * (2 if key[1] == "sym" else 1)
        index[node] = (table, count)  # replacing a value keeps the iteration valid
    return index


def _edge_problems(model, types, from_id, to_id, label) -> list[str]:
    problems = []
    for endpoint in (from_id, to_id):
        if endpoint not in types:
            problems.append(f"edge ({from_id!r}, {to_id!r}, {label!r}): unknown entity {endpoint!r}")
    if label not in model.labels:
        problems.append(f"edge ({from_id!r}, {to_id!r}, {label!r}): unknown label {label!r}")
    if problems:
        return problems
    from_type, to_type = types[from_id], types[to_id]
    allowed = (from_type, to_type, label) in model.permissible
    if label in model.symmetric:
        # symmetric edges carry no direction, so either typing orientation counts
        allowed = allowed or (to_type, from_type, label) in model.permissible
    if not allowed:
        problems.append(
            f"edge ({from_id!r}, {to_id!r}, {label!r}): "
            f"({from_type!r}, {to_type!r}, {label!r}) is not permissible"
        )
    return problems


def _admissible(model: SystemModel) -> set[tuple[str, str, str]]:
    """The ``(from_type, to_type, label)`` triples a stored edge may carry.

    These are the permissible triples over declared types and labels, a
    symmetric label's in both orientations.  Triples naming anything
    undeclared are left out, so an edge whose entity or label is unknown
    is never admitted and reaches :func:`_edge_problems` to be described.
    """
    types, labels, symmetric = model.types, model.labels, model.symmetric
    admissible = set()
    for from_type, to_type, label in model.permissible:
        if from_type in types and to_type in types and label in labels:
            admissible.add((from_type, to_type, label))
            if label in symmetric:
                admissible.add((to_type, from_type, label))
    return admissible


def _graph_problems(model: SystemModel, types: Mapping[str, str], edges) -> list[str]:
    """Violations of an entity table and its stored triples under the
    model: offending entities in id order, then offending edges in order."""
    problems, known_types = [], model.types
    for entity in sorted(e for e, t in types.items() if t not in known_types or e == "*"):
        if types[entity] not in known_types:
            problems.append(f"entity {entity!r} has unknown type {types[entity]!r}")
        if entity == "*":
            problems.append("entity id '*' is reserved for the wildcard object")
    admissible, type_of = _admissible(model), types.get
    offending = [(f, t, l) for f, t, l in edges if (type_of(f), type_of(t), l) not in admissible]
    for from_id, to_id, label in sorted(offending):
        if all(e in types and types[e] in known_types for e in (from_id, to_id)):
            problems.extend(_edge_problems(model, types, from_id, to_id, label))
        else:
            edge = f"edge ({from_id!r}, {to_id!r}, {label!r})"
            problems.extend(f"{edge}: unknown entity {e!r}" for e in (from_id, to_id) if e not in types)
    return problems
