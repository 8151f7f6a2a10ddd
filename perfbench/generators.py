"""Seeded input generators for the four benchmark workloads.

Each generator takes an integer seed and returns the workspace as JSON
text plus the operation stream the benchmark drives against it.  The
program under test only ever sees the JSON text, through
``loads_workspace``; the streams stay inside the benchmark.  The same
seed always gives the same text and the same stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# corp-policy
#
# Why: the corporate fixture's 12-rule AllMatch policy runs 12 short matches
# per request.  Time goes to per-rule overhead (residual hashing, render,
# validate_policy, _unfold), not to graph traversal, so compiling each
# policy once should show here and barely show on deep-graph.
# ---------------------------------------------------------------------------

CORP_TYPES = ["User", "Group", "Project", "Folder", "File", "Printer"]
CORP_LABELS = ["Client-of", "Deliverable-for", "Member-of", "Participant-of", "Resource-for", "Supervises"]
CORP_PERMISSIBLE = [
    ("Group", "Project", "Client-of"),
    ("Group", "User", "Client-of"),
    ("File", "Project", "Deliverable-for"),
    ("Folder", "Project", "Deliverable-for"),
    ("File", "Folder", "Member-of"),
    ("Folder", "Folder", "Member-of"),
    ("User", "Group", "Member-of"),
    ("User", "Project", "Participant-of"),
    ("File", "Project", "Resource-for"),
    ("Folder", "Project", "Resource-for"),
    ("Printer", "Project", "Resource-for"),
    ("Printer", "Group", "Resource-for"),
    ("User", "Project", "Supervises"),
    ("User", "Group", "Supervises"),
]

# One department: the corporate fixture's entities and edges.
_DEPT_ENTITIES = {
    "CEO": "User", "CFO": "User", "CTO": "User",
    "Tech.#1": "User", "Tech.#2": "User", "Sales.#1": "User", "Sales.#2": "User",
    "Execs": "Group", "Tech. Team": "Group", "Sales Team": "Group", "Client#1": "Group",
    "Proj.#1": "Project", "Proj.#2": "Project",
    "Proj.#1 Folder": "Folder", "Proj.#1 Specs": "Folder", "Proj.#1 Deliverables": "Folder",
    "Proj.#2 Folder": "Folder", "Proj.#2 Deliverables": "Folder",
    "Func.Spec.#1": "File", "Test.Spec.#1": "File", "Proj.#1 Report#1": "File",
    "Func.Spec.#2": "File", "Proj.#2 Report#1": "File",
    "Printer#1": "Printer", "Printer#2": "Printer",
}
_DEPT_EDGES = [
    ("CEO", "Execs", "Supervises"), ("CTO", "Execs", "Member-of"), ("CFO", "Execs", "Member-of"),
    ("CTO", "Tech. Team", "Supervises"), ("CFO", "Sales Team", "Supervises"),
    ("Tech.#1", "Tech. Team", "Member-of"), ("Tech.#2", "Tech. Team", "Member-of"),
    ("Sales.#1", "Sales Team", "Member-of"), ("Sales.#2", "Sales Team", "Member-of"),
    ("Tech.#2", "Proj.#1", "Participant-of"), ("Tech.#2", "Proj.#1", "Supervises"),
    ("Sales.#2", "Proj.#1", "Participant-of"), ("Tech.#1", "Proj.#2", "Participant-of"),
    ("Tech.#1", "Proj.#2", "Supervises"), ("Sales.#1", "Proj.#2", "Participant-of"),
    ("Proj.#1 Folder", "Proj.#1", "Resource-for"), ("Proj.#1 Specs", "Proj.#1 Folder", "Member-of"),
    ("Func.Spec.#1", "Proj.#1 Specs", "Member-of"), ("Test.Spec.#1", "Proj.#1 Specs", "Member-of"),
    ("Proj.#1 Deliverables", "Proj.#1", "Deliverable-for"),
    ("Proj.#1 Report#1", "Proj.#1 Deliverables", "Member-of"),
    ("Proj.#2 Folder", "Proj.#2", "Resource-for"), ("Func.Spec.#2", "Proj.#2 Folder", "Member-of"),
    ("Proj.#2 Deliverables", "Proj.#2", "Deliverable-for"),
    ("Proj.#2 Report#1", "Proj.#2 Deliverables", "Member-of"),
    ("Printer#1", "Tech. Team", "Resource-for"), ("Printer#2", "Proj.#1", "Resource-for"),
    ("Client#1", "Proj.#1", "Client-of"), ("Client#1", "Sales.#2", "Client-of"),
]
CORP_RULES = [
    ("Client-of . ~Deliverable-for . (~Member-of)+", "Deliverable Client"),
    ("Supervises+ . ~Member-of . Supervises . ~Deliverable-for", "Deliverable Reviewer"),
    ("Supervises+ . ~Member-of . Supervises . ~Deliverable-for . (~Member-of)+", "Deliverable Reviewer"),
    ("Supervises . ~Deliverable-for", "Deliverable Supervisor"),
    ("Supervises . ~Deliverable-for . (~Member-of)+", "Deliverable Supervisor"),
    ("Participant-of . ~Deliverable-for", "Deliverable User"),
    ("Participant-of . ~Deliverable-for . (~Member-of)+", "Deliverable User"),
    ("Supervises . ~Resource-for", "Project Resource Supervisor"),
    ("Supervises . ~Resource-for . (~Member-of)+", "Project Resource Supervisor"),
    ("Participant-of . ~Resource-for", "Project Resource User"),
    ("Participant-of . ~Resource-for . (~Member-of)+", "Project Resource User"),
    ("Member-of . ~Resource-for", "Team Resource User"),
]
_CORP_AUTH = [
    ("Deliverable Client", "*", "read", True),
    ("Deliverable Reviewer", "*", "read", True),
    ("Deliverable Supervisor", "*", "read", True),
    ("Deliverable Supervisor", "*", "write", True),
    ("Deliverable User", "*", "read", True),
    ("Project Resource Supervisor", "*", "read", True),
    ("Project Resource Supervisor", "*", "write", True),
    ("Project Resource User", "*", "read", True),
    ("Project Resource User", "d00:Func.Spec.#1", "write", False),
    ("Project Resource User", "*", "write", True),
    ("Team Resource User", "*", "write", True),
]
# Folders that get a deeper working tree in every department copy.
_TREE_ROOTS = ("Proj.#1 Specs", "Proj.#2 Folder", "Proj.#1 Deliverables")


@dataclass
class Generated:
    """A workspace as JSON text plus the operations to run against it."""

    text: str
    requests: list[tuple[str, str, str]] = field(default_factory=list)
    steps: list["ChurnStep"] = field(default_factory=list)
    trial_seeds: list[int] = field(default_factory=list)
    entity_count: int = 0
    edge_count: int = 0


def _document(types, labels, symmetric, permissible, entities, edges, pms, crs, rules, auth) -> dict:
    return {
        "version": 1,
        "model": {
            "types": list(types),
            "labels": list(labels),
            "symmetric": list(symmetric),
            "permissible": [{"from": f, "to": t, "label": l} for f, t, l in permissible],
        },
        "graph": {
            "entities": [{"id": e, "type": t} for e, t in entities.items()],
            "edges": [{"from": f, "to": t, "label": l} for f, t, l in edges],
        },
        "authorization_system": {
            "pms": pms,
            "crs": crs,
            "principal_rules": [{"path": p, "principal": n} for p, n in rules],
            "auth_rules": [{"principal": p, "object": o, "action": a, "allow": b} for p, o, a, b in auth],
            "defaults": {"system": "deny", "subjects": {}, "objects": {}},
        },
        "requests": [],
    }


def corporate_org(seed: int, departments: int = 32, requests: int = 2000) -> Generated:
    """Copies of the fixture's department with deeper folder trees, a few
    cross-department edges, and mostly intra-department requests."""
    rng = random.Random(seed)
    entities: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    users, groups, objects = [], [], []  # per department
    for d in range(departments):
        prefix = f"d{d:02d}:"
        for name, kind in _DEPT_ENTITIES.items():
            entities[prefix + name] = kind
        edges.extend((prefix + f, prefix + t, l) for f, t, l in _DEPT_EDGES)
        created = 0

        def grow(parent: str, depth: int) -> None:
            nonlocal created
            for _ in range(rng.randint(1, 2)):
                created += 1
                folder = f"{prefix}Folder#{created}"
                entities[folder] = "Folder"
                edges.append((folder, parent, "Member-of"))
                for _ in range(rng.randint(1, 2)):
                    created += 1
                    entities[f"{prefix}File#{created}"] = "File"
                    edges.append((f"{prefix}File#{created}", folder, "Member-of"))
                if depth > 1:
                    grow(folder, depth - 1)

        for root in _TREE_ROOTS:
            grow(prefix + root, rng.randint(2, 4))
        members = [e for e in entities if e.startswith(prefix)]
        users.append([e for e in members if entities[e] == "User"])
        groups.append([prefix + "Client#1"])
        objects.append([e for e in members if entities[e] in ("File", "Folder", "Printer")])

    # a few edges that cross departments
    for d in range(departments):
        if rng.random() < 0.3:
            other = f"d{rng.randrange(departments):02d}:"
            here = f"d{d:02d}:"
            edges.append((here + rng.choice(("Tech.#1", "Tech.#2", "Sales.#1")), other + "Proj.#2", "Participant-of"))
            edges.append((here + "Client#1", other + "Proj.#1", "Client-of"))
            edges.append((here + "Printer#1", other + "Tech. Team", "Resource-for"))

    reqs = []
    for _ in range(requests):
        d = rng.randrange(departments)
        subject = rng.choice(groups[d]) if rng.random() < 0.1 else rng.choice(users[d])
        target_dept = d if rng.random() < 0.9 else rng.randrange(departments)
        reqs.append((subject, rng.choice(objects[target_dept]), rng.choice(("read", "write"))))

    doc = _document(
        CORP_TYPES, CORP_LABELS, [], CORP_PERMISSIBLE, entities, edges,
        "AllMatch", "FirstMatch", CORP_RULES, _CORP_AUTH,
    )
    return Generated(json.dumps(doc), reqs, entity_count=len(entities), edge_count=len(set(edges)))


# ---------------------------------------------------------------------------
# deep-graph and churn
#
# Why deep-graph: the criterion-7 generator (labels a-e, e symmetric) at 1k
# nodes and 5k edges has a giant e-component, so closures such as
# a+ . (~e)+ make the BFS visit hundreds to thousands of (node, residual)
# pairs per request, with a heavy tail.  Time goes to the inner loop over
# incident edges; per-rule overhead is a small share.  A label-indexed
# graph should show here.
#
# Why churn: the same generator at 50k edges, with single-edge updates each
# followed by a run of decisions on the new snapshot.  The graph is sparse
# (25k nodes) so that reads stay cheap and the cost of making a snapshot
# (the update itself and the incident index the next query rebuilds) is
# what the workload measures.  Incremental snapshots should show here; a
# change that speeds reads but makes snapshots dearer gets worse here.
# ---------------------------------------------------------------------------

# The graphs are fixed, as in criterion 7; the seed varies the requests and
# the update stream.  Graph structure moves per-request work far more than
# request sampling does, so per-seed graphs would spread the figures widely.
GRAPH_SEED = 20260816
GRAPH_LABELS = ("a", "b", "c", "d", "e")
GRAPH_SYMMETRIC = ("e",)
GRAPH_RULES = [
    ("a+ . (~e)+", "p1"),
    ("(a . ~b)+ . c+", "p2"),
    ("a . b+ . c . d . e", "p3"),
    ("~a . e . b", "p4"),
]
_GRAPH_AUTH = [
    ("p1", "*", "read", True),
    ("p2", "*", "read", False),
    ("p2", "*", "write", True),
    ("p3", "*", "write", True),
    ("p4", "*", "read", True),
]


def _stored(u: str, v: str, label: str) -> tuple[str, str, str]:
    # symmetric edges are undirected: keep the smaller endpoint first
    if label in GRAPH_SYMMETRIC and v < u:
        u, v = v, u
    return (u, v, label)


def _random_edges(rng: random.Random, nodes: list[str], count: int) -> set[tuple[str, str, str]]:
    edges: set[tuple[str, str, str]] = set()
    while len(edges) < count:
        edges.add(_stored(rng.choice(nodes), rng.choice(nodes), rng.choice(GRAPH_LABELS)))
    return edges


def _graph_document(nodes: list[str], edges) -> str:
    doc = _document(
        ["node"], GRAPH_LABELS, GRAPH_SYMMETRIC, [("node", "node", l) for l in GRAPH_LABELS],
        {n: "node" for n in nodes}, sorted(edges), "FirstMatch", "FirstMatch", GRAPH_RULES, _GRAPH_AUTH,
    )
    return json.dumps(doc)


def deep_graph(seed: int, nodes: int = 1000, edges: int = 5000, requests: int = 1200) -> Generated:
    """The fixed random graph with seeded random request pairs.

    Subjects are drawn from the nodes with an outgoing ``a`` edge, so every
    request starts the rules' traversals.  A uniformly random subject has
    none about a third of the time, which puts the median decision on the
    cliff between trivial and full searches, where it jumps between seeds.
    """
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    edge_set = _random_edges(random.Random(GRAPH_SEED), names, edges)
    subjects = sorted({u for u, _, label in edge_set if label == "a"})
    # each subject and each target comes up equally often, in seeded order
    # and pairing, which keeps the work mix the same from seed to seed
    subject_order = [s for _ in range(requests // len(subjects) + 1) for s in rng.sample(subjects, len(subjects))]
    target_order = [t for _ in range(requests // nodes + 1) for t in rng.sample(names, nodes)]
    reqs = [(subject_order[i], target_order[i], rng.choice(("read", "write"))) for i in range(requests)]
    return Generated(_graph_document(names, edge_set), reqs, entity_count=nodes, edge_count=len(edge_set))


@dataclass(frozen=True)
class ChurnStep:
    """One single-edge update and the decisions run on the snapshot after it."""

    add: bool  # with_edge when True, without_edge when False
    edge: tuple[str, str, str]
    requests: tuple[tuple[str, str, str], ...]


def churn(seed: int, nodes: int = 25000, edges: int = 50000, steps: int = 2000, reads: int = 50) -> Generated:
    """Update stream alternating additions of absent edges and removals of
    present ones, so the edge count stays put.  The first read after each
    update asks about the updated edge's endpoints.  Half the rest follow an
    ``a`` edge and then ``e`` edges from their subject, the shape of the
    first rule, so rules match; the others ask about pairs a short random
    walk apart.  Walks run on the initial graph."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    edge_set = _random_edges(random.Random(GRAPH_SEED), names, edges)
    text = _graph_document(names, edge_set)

    present = sorted(edge_set)
    position = {e: i for i, e in enumerate(present)}
    neighbours: dict[str, list[str]] = {}
    by_label: dict[tuple[str, str], list[str]] = {}
    for u, v, label in present:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
        by_label.setdefault((u, label), []).append(v)
        if label in GRAPH_SYMMETRIC:
            by_label.setdefault((v, label), []).append(u)
    a_sources = sorted({u for u, label in by_label if label == "a"})

    def walk(start: str, labels) -> str:
        node = start
        for label in labels:
            options = by_label.get((node, label)) if label else neighbours.get(node)
            if not options:
                break
            node = rng.choice(options)
        return node

    def read() -> tuple[str, str]:
        if rng.random() < 0.5:
            subject = rng.choice(a_sources)
            return subject, walk(subject, ["a"] + ["e"] * rng.randint(1, 2))
        subject = rng.choice(names)
        return subject, walk(subject, [None] * rng.randint(1, 3))

    stream = []
    for step in range(steps):
        if step % 2 == 0:
            while True:
                edge = _stored(rng.choice(names), rng.choice(names), rng.choice(GRAPH_LABELS))
                if edge not in position:
                    break
            position[edge] = len(present)
            present.append(edge)
        else:
            edge = present[rng.randrange(len(present))]
            last = present.pop()
            if last != edge:
                present[position[edge]] = last
                position[last] = position[edge]
            del position[edge]
        actions = ("read", "write")
        reqs = [(edge[0], edge[1], rng.choice(actions))]
        for _ in range(reads - 1):
            reqs.append((*read(), rng.choice(actions)))
        stream.append(ChurnStep(step % 2 == 0, edge, tuple(reqs)))
    return Generated(text, steps=stream, entity_count=nodes, edge_count=len(edge_set))


# ---------------------------------------------------------------------------
# crosscheck
#
# Why: run_differential trials (matcher against oracle on small random
# graphs), the work `rebac oracle-check` does.  Without it the oracle and
# the many-tiny-graphs use of graph build and validate go unmeasured, and
# an eager index that helps deep-graph could slow graph builds unseen.
# The workspace is four corporate departments, loaded for set-up and for
# the decision-level check of its requests; one department's size alone
# varies twofold between seeds.
# ---------------------------------------------------------------------------


def crosscheck(seed: int, trials: int = 3000, requests: int = 60) -> Generated:
    org = corporate_org(seed, departments=4, requests=requests)
    rng = random.Random(seed)
    org.trial_seeds = [rng.getrandbits(32) for _ in range(trials)]
    return org


GENERATORS = {
    "corp-policy": corporate_org,
    "deep-graph": deep_graph,
    "churn": churn,
    "crosscheck": crosscheck,
}
