"""Workspace documents: the JSON interchange format.

A workspace bundles a model, a graph, an authorization system and an
optional request list into one JSON document::

    {
      "version": 1,
      "model": {"types": [...], "labels": [...], "symmetric": [...],
                "permissible": [{"from": type, "to": type, "label": l}, ...]},
      "graph": {"entities": [{"id": ..., "type": ...}, ...],
                "edges": [{"from": ..., "to": ..., "label": ...}, ...]},
      "authorization_system": {
        "pms": "FirstMatch" | "AllMatch",
        "crs": "FirstMatch" | "DenyOverride" | "AllowOverride",
        "principal_rules": [{"path": text | "TOP", "principal": ...}, ...],
        "auth_rules": [{"principal": ..., "object": id | "*",
                        "action": ..., "allow": bool}, ...],
        "defaults": {"system": "allow" | "deny",
                     "subjects": {id: "allow" | "deny", ...},
                     "objects": {id: "allow" | "deny", ...}}},
      "requests": [{"subject": ..., "object": ..., "action": ...}, ...]
    }

Loading validates everything and raises :class:`WorkspaceError` with
the full list of violations, bad JSON included.  ``_RECORDS`` declares
each record's fields once: the loader reads records by it, and
:func:`document`, the one writer of this layout, writes them by it.
Saving passes :func:`document` a canonical form (sorted model and graph
collections and default maps), written with a two-space indent and a
trailing newline, so a canonically formatted file survives a load/save
round trip byte for byte.  Rule order is meaningful and always preserved.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from operator import itemgetter
from pathlib import Path

from .graph import GraphValidationError, SystemGraph, SystemModel, validate_model
from .matching import MatchStrategy, PrincipalMatchingRule, TOP, validate_policy
from .paths import DIAMOND, PathSyntaxError, parse
from .pdp import AuthorizationRule, AuthorizationSystem, ConflictStrategy, Decision, Request, validate_system

__all__ = [
    "Workspace",
    "WorkspaceError",
    "load_workspace",
    "loads_workspace",
    "save_workspace",
    "dumps_workspace",
]

FORMAT_VERSION = 1

_TOP_LEVEL_KEYS = {"version", "model", "graph", "authorization_system", "requests"}


class WorkspaceError(ValueError):
    """A workspace document that cannot be used; carries all violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        summary = self.violations[0] if len(self.violations) == 1 else f"{len(self.violations)} violations"
        super().__init__(summary)


@dataclass
class Workspace:
    model: SystemModel
    graph: SystemGraph
    system: AuthorizationSystem
    requests: list[Request] = field(default_factory=list)


def _expect_list(data, key, problems, where) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        problems.append(f"{where}.{key} must be a list")
        return []
    return value


def _string_items(values, problems, where) -> list[str]:
    out = []
    for item in values:
        if isinstance(item, str):
            out.append(item)
        else:
            problems.append(f"{where} entries must be strings, found {item!r}")
    return out


# list key -> (name of one record, type of each record field)
_RECORDS = {
    "permissible": ("model.permissible[{i}]", {"from": str, "to": str, "label": str}),
    "entities": ("graph.entities[{i}]", {"id": str, "type": str}),
    "edges": ("graph.edges[{i}]", {"from": str, "to": str, "label": str}),
    "principal_rules": ("principal rule {n}:", {"path": str, "principal": str}),
    "auth_rules": ("authorization rule {n}:", {"principal": str, "object": str, "action": str, "allow": bool}),
    "requests": ("requests[{i}]", {"subject": str, "object": str, "action": str}),
}


def _records(data, key, problems, where) -> list[tuple]:
    """Field values of each well-formed record in the list ``data[key]``.

    A record that is not an object with a value of the declared type in
    every field is reported by its name, formatted with its 0-based
    position ``i`` or 1-based position ``n``, and skipped.  A list of
    well-formed records is checked one field at a time, in bulk; only a
    list holding a malformed record is walked record by record.
    """
    name, fields = _RECORDS[key]
    values = itemgetter(*fields)
    types = tuple(fields.values())  # decoded JSON values have exactly these types
    items = _expect_list(data, key, problems, where)
    try:
        records = list(map(values, items))
    except (KeyError, TypeError):  # a field is missing, or an item is not an object
        pass
    else:
        if all({*map(type, map(itemgetter(j), records))} <= {t} for j, t in enumerate(types)):
            return records
    strings = "/".join(k for k, t in fields.items() if t is str)
    booleans = "/".join(k for k, t in fields.items() if t is bool)
    shape = f"an object with string {strings}" + (f" and boolean {booleans}" if booleans else "")
    records = []
    for i, item in enumerate(items):
        try:
            record = values(item)
        except (KeyError, TypeError):
            record = ()
        if tuple(map(type, record)) == types:
            records.append(record)
        else:
            problems.append(f"{name.format(i=i, n=i + 1)} must be {shape}")
    return records


def _released(records: list, section: dict):
    """Yield ``records``, then free them and the decoded JSON ``section``
    they came from, so that the graph's tables, built after its one pass
    over the edges, are not allocated among objects about to die."""
    yield from records
    records.clear()
    section.clear()


def _decision(value, problems, where) -> Decision:
    if value in ("allow", "deny"):
        return Decision(value)
    problems.append(f"{where} must be \"allow\" or \"deny\", found {value!r}")
    return Decision.DENY


def loads_workspace(text: str, source: str = "<workspace>") -> Workspace:
    """Parse and validate a workspace document from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError([f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]) from None
    except RecursionError:
        raise WorkspaceError([f"{source}: invalid JSON: nested too deeply to decode"]) from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise WorkspaceError([f"{source}: invalid JSON: {exc}"]) from None

    problems: list[str] = []
    if not isinstance(data, dict):
        raise WorkspaceError([f"{source}: document must be a JSON object"])
    for key in sorted(set(data) - _TOP_LEVEL_KEYS):
        problems.append(f"unknown top-level key {key!r}")
    version = data.get("version")
    # True == 1 == 1.0 in Python, so the type is compared too
    if type(version) is not int or version != FORMAT_VERSION:
        problems.append(f"version must be {FORMAT_VERSION}, found {version!r}")
    for key in ("model", "graph", "authorization_system"):
        if not isinstance(data.get(key), dict):
            problems.append(f"missing or malformed {key!r} section")
            raise WorkspaceError(problems)

    # model ---------------------------------------------------------------
    model_data = data["model"]
    types = _string_items(_expect_list(model_data, "types", problems, "model"), problems, "model.types")
    labels = _string_items(_expect_list(model_data, "labels", problems, "model"), problems, "model.labels")
    symmetric = _string_items(_expect_list(model_data, "symmetric", problems, "model"), problems, "model.symmetric")
    permissible = _records(model_data, "permissible", problems, "model")
    model = SystemModel(types, labels, symmetric, permissible)
    model_problems = validate_model(model)
    problems.extend(model_problems)

    # graph ---------------------------------------------------------------
    graph_data = data["graph"]
    entities: dict[str, str] = {}
    for entity, type_name in _records(graph_data, "entities", problems, "graph"):
        if entities.setdefault(entity, type_name) != type_name:
            problems.append(f"duplicate entity {entity!r} with conflicting types")
    edges = _released(_records(graph_data, "edges", problems, "graph"), graph_data)
    try:
        graph = SystemGraph(model, entities, edges)
    except GraphValidationError as exc:  # the model's violations come first and are listed above
        problems.extend(exc.violations[len(model_problems):])

    # authorization system --------------------------------------------------
    system_data = data["authorization_system"]
    try:
        pms = MatchStrategy(system_data.get("pms"))
    except ValueError:
        problems.append(f"authorization_system.pms must be one of {[s.value for s in MatchStrategy]}")
        pms = MatchStrategy.ALL_MATCH
    try:
        crs = ConflictStrategy(system_data.get("crs"))
    except ValueError:
        problems.append(f"authorization_system.crs must be one of {[s.value for s in ConflictStrategy]}")
        crs = ConflictStrategy.FIRST_MATCH

    principal_rules = []
    for path, principal in _records(system_data, "principal_rules", problems, "authorization_system"):
        try:
            condition = TOP if path == "TOP" else parse(path, model.labels)
        except PathSyntaxError as exc:
            problems.append(f"principal rule {len(principal_rules) + 1}: {exc}")
            condition = DIAMOND  # keeps the principal, whose authorization rules are not at fault
        principal_rules.append(PrincipalMatchingRule(condition, principal))

    auth_rules = [AuthorizationRule(*r) for r in _records(system_data, "auth_rules", problems, "authorization_system")]

    defaults = system_data.get("defaults", {})
    if not isinstance(defaults, dict):
        problems.append("authorization_system.defaults must be an object")
        defaults = {}
    system_default = _decision(defaults.get("system", "deny"), problems, "defaults.system")
    subject_defaults: dict[str, Decision] = {}
    object_defaults: dict[str, Decision] = {}
    for bucket, out in (("subjects", subject_defaults), ("objects", object_defaults)):
        mapping = defaults.get(bucket, {})
        if not isinstance(mapping, dict):
            problems.append(f"defaults.{bucket} must be an object")
            continue
        for entity, value in mapping.items():
            out[entity] = _decision(value, problems, f"defaults.{bucket}[{entity!r}]")

    problems.extend(validate_policy(principal_rules))  # parsing rejects '*': only a misplaced TOP is left
    for n, rule in enumerate(principal_rules[:-1]):
        if rule.condition is TOP:  # stands in as the empty path, like an unparsable one
            principal_rules[n] = PrincipalMatchingRule(DIAMOND, rule.principal)
    system = AuthorizationSystem(
        principal_rules=principal_rules,
        pms=pms,
        auth_rules=auth_rules,
        crs=crs,
        system_default=system_default,
        subject_defaults=subject_defaults,
        object_defaults=object_defaults,
    )
    problems.extend(validate_system(system, entities))

    # requests --------------------------------------------------------------
    requests = [Request(*r) for r in _records(data, "requests", problems, "workspace")]
    for i, request in enumerate(requests):
        for entity in dict.fromkeys((request.subject, request.object)):
            if entity not in entities:
                problems.append(f"requests[{i}]: unknown entity {entity!r}")

    if problems:
        raise WorkspaceError(problems)
    return Workspace(model, graph, system, requests)


def load_workspace(path: str | Path) -> Workspace:
    path = Path(path)
    return loads_workspace(path.read_text(encoding="utf-8"), source=str(path))


def document(*, types, labels, symmetric=(), permissible, entities, edges, pms: str, crs: str, principal_rules,
             auth_rules, system_default: str = "deny", subject_defaults=(), object_defaults=(), requests=()) -> dict:
    """A workspace document in the layout above, holding what it is given,
    in the order given.  Each record is a tuple of its field values, in
    the order ``_RECORDS`` names the fields."""

    def records(key, rows):
        return [dict(zip(_RECORDS[key][1], row)) for row in rows]

    return {
        "version": FORMAT_VERSION,
        "model": {"types": list(types), "labels": list(labels), "symmetric": list(symmetric),
                  "permissible": records("permissible", permissible)},
        "graph": {"entities": records("entities", entities), "edges": records("edges", edges)},
        "authorization_system": {
            "pms": pms,
            "crs": crs,
            "principal_rules": records("principal_rules", principal_rules),
            "auth_rules": records("auth_rules", auth_rules),
            "defaults": {"system": system_default, "subjects": dict(subject_defaults),
                         "objects": dict(object_defaults)},
        },
        "requests": records("requests", requests),
    }


def workspace_to_dict(workspace: Workspace) -> dict:
    """Canonical JSON-ready form: model and graph collections and default
    maps sorted, rule and request order kept."""
    model, graph, system = workspace.model, workspace.graph, workspace.system
    return document(
        types=sorted(model.types),
        labels=sorted(model.labels),
        symmetric=sorted(model.symmetric),
        permissible=sorted(model.permissible),
        entities=[(entity, graph.type_of(entity)) for entity in graph.entity_ids],
        edges=sorted(graph.edges),
        pms=system.pms.value,
        crs=system.crs.value,
        principal_rules=[(rule.text, rule.principal) for rule in system.principal_rules],
        auth_rules=map(astuple, system.auth_rules),
        system_default=system.system_default.value,
        subject_defaults=[(entity, d.value) for entity, d in sorted(system.subject_defaults.items())],
        object_defaults=[(entity, d.value) for entity, d in sorted(system.object_defaults.items())],
        requests=map(astuple, workspace.requests),
    )


def dumps_workspace(workspace: Workspace) -> str:
    return json.dumps(workspace_to_dict(workspace), indent=2) + "\n"


def save_workspace(workspace: Workspace, path: str | Path) -> None:
    Path(path).write_text(dumps_workspace(workspace), encoding="utf-8", newline="\n")
