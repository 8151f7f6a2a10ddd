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
the full list of violations.  Saving emits a canonical form (fixed key
order, sorted entity/edge lists, two-space indent, trailing newline),
so a canonically formatted file survives a load/save round trip byte
for byte.  Rule order is meaningful and always preserved.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from .graph import SystemGraph, SystemModel, validate_graph, validate_model
from .matching import MatchStrategy, PrincipalMatchingRule, TOP, validate_policy
from .paths import PathSyntaxError, parse, render
from .pdp import (
    AuthorizationRule,
    AuthorizationSystem,
    ConflictStrategy,
    Decision,
    Request,
    WILDCARD,
)

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

    problems: list[str] = []
    if not isinstance(data, dict):
        raise WorkspaceError([f"{source}: document must be a JSON object"])
    for key in sorted(set(data) - _TOP_LEVEL_KEYS):
        problems.append(f"unknown top-level key {key!r}")
    if data.get("version") != FORMAT_VERSION:
        problems.append(f"version must be {FORMAT_VERSION}, found {data.get('version')!r}")
    for key in ("model", "graph", "authorization_system"):
        if not isinstance(data.get(key), dict):
            problems.append(f"missing or malformed {key!r} section")
            raise WorkspaceError(problems)

    # model ---------------------------------------------------------------
    model_data = data["model"]
    types = _string_items(_expect_list(model_data, "types", problems, "model"), problems, "model.types")
    labels = _string_items(_expect_list(model_data, "labels", problems, "model"), problems, "model.labels")
    symmetric = _string_items(_expect_list(model_data, "symmetric", problems, "model"), problems, "model.symmetric")
    permissible = []
    for i, item in enumerate(_expect_list(model_data, "permissible", problems, "model")):
        if isinstance(item, dict) and all(isinstance(item.get(k), str) for k in ("from", "to", "label")):
            permissible.append((item["from"], item["to"], item["label"]))
        else:
            problems.append(f"model.permissible[{i}] must be an object with string from/to/label")
    model = SystemModel(types, labels, symmetric, permissible)
    problems.extend(validate_model(model))

    # graph ---------------------------------------------------------------
    graph_data = data["graph"]
    entities: dict[str, str] = {}
    for i, item in enumerate(_expect_list(graph_data, "entities", problems, "graph")):
        if not (isinstance(item, dict) and isinstance(item.get("id"), str) and isinstance(item.get("type"), str)):
            problems.append(f"graph.entities[{i}] must be an object with string id/type")
            continue
        if item["id"] in entities:
            if entities[item["id"]] != item["type"]:
                problems.append(f"duplicate entity {item['id']!r} with conflicting types")
            continue
        entities[item["id"]] = item["type"]
    edges = []
    for i, item in enumerate(_expect_list(graph_data, "edges", problems, "graph")):
        if isinstance(item, dict) and all(isinstance(item.get(k), str) for k in ("from", "to", "label")):
            edges.append((item["from"], item["to"], item["label"]))
        else:
            problems.append(f"graph.edges[{i}] must be an object with string from/to/label")
    graph = SystemGraph(model, entities, edges, validate=False)
    problems.extend(validate_graph(graph))

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
    for i, item in enumerate(_expect_list(system_data, "principal_rules", problems, "authorization_system")):
        if not (isinstance(item, dict) and isinstance(item.get("path"), str) and isinstance(item.get("principal"), str)):
            problems.append(f"principal rule {i + 1}: must be an object with string path/principal")
            continue
        if item["path"] == "TOP":
            principal_rules.append(PrincipalMatchingRule(TOP, item["principal"]))
            continue
        try:
            condition = parse(item["path"], model.labels)
        except PathSyntaxError as exc:
            problems.append(f"principal rule {i + 1}: {exc}")
            continue
        principal_rules.append(PrincipalMatchingRule(condition, item["principal"]))
    problems.extend(validate_policy(principal_rules))

    auth_rules = []
    for i, item in enumerate(_expect_list(system_data, "auth_rules", problems, "authorization_system")):
        shape_ok = (
            isinstance(item, dict)
            and all(isinstance(item.get(k), str) for k in ("principal", "object", "action"))
            and isinstance(item.get("allow"), bool)
        )
        if not shape_ok:
            problems.append(
                f"authorization rule {i + 1}: must be an object with string principal/object/action and boolean allow"
            )
            continue
        if item["object"] != WILDCARD and not graph.has_entity(item["object"]):
            problems.append(f"authorization rule {i + 1}: object {item['object']!r} is not an entity or \"*\"")
        auth_rules.append(AuthorizationRule(item["principal"], item["object"], item["action"], item["allow"]))

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
            if not graph.has_entity(entity):
                problems.append(f"defaults.{bucket}: unknown entity {entity!r}")
            out[entity] = _decision(value, problems, f"defaults.{bucket}[{entity!r}]")

    system = AuthorizationSystem(
        principal_rules=principal_rules,
        pms=pms,
        auth_rules=auth_rules,
        crs=crs,
        system_default=system_default,
        subject_defaults=subject_defaults,
        object_defaults=object_defaults,
    )

    # requests --------------------------------------------------------------
    requests = []
    for i, item in enumerate(_expect_list(data, "requests", problems, "workspace")):
        if isinstance(item, dict) and all(isinstance(item.get(k), str) for k in ("subject", "object", "action")):
            requests.append(Request(item["subject"], item["object"], item["action"]))
        else:
            problems.append(f"requests[{i}] must be an object with string subject/object/action")

    if problems:
        raise WorkspaceError(problems)
    return Workspace(model, graph, system, requests)


def load_workspace(path: str | Path) -> Workspace:
    path = Path(path)
    return loads_workspace(path.read_text(encoding="utf-8"), source=str(path))


def workspace_to_dict(workspace: Workspace) -> dict:
    """Canonical JSON-ready form; see module docstring for the layout."""
    model = workspace.model
    graph = workspace.graph
    system = workspace.system

    def rule_path(rule: PrincipalMatchingRule) -> str:
        return "TOP" if rule.condition is TOP else render(rule.condition)

    return {
        "version": FORMAT_VERSION,
        "model": {
            "types": sorted(model.types),
            "labels": sorted(model.labels),
            "symmetric": sorted(model.symmetric),
            "permissible": [
                {"from": f, "to": t, "label": l} for f, t, l in sorted(model.permissible)
            ],
        },
        "graph": {
            "entities": [
                {"id": entity, "type": graph.type_of(entity)} for entity in graph.entity_ids
            ],
            "edges": [
                {"from": f, "to": t, "label": l} for f, t, l in sorted(graph.edges)
            ],
        },
        "authorization_system": {
            "pms": system.pms.value,
            "crs": system.crs.value,
            "principal_rules": [
                {"path": rule_path(rule), "principal": rule.principal}
                for rule in system.principal_rules
            ],
            "auth_rules": [
                {
                    "principal": rule.principal,
                    "object": rule.object,
                    "action": rule.action,
                    "allow": rule.allow,
                }
                for rule in system.auth_rules
            ],
            "defaults": {
                "system": system.system_default.value,
                "subjects": {
                    entity: system.subject_defaults[entity].value
                    for entity in sorted(system.subject_defaults)
                },
                "objects": {
                    entity: system.object_defaults[entity].value
                    for entity in sorted(system.object_defaults)
                },
            },
        },
        "requests": [
            {"subject": r.subject, "object": r.object, "action": r.action}
            for r in workspace.requests
        ],
    }


def dumps_workspace(workspace: Workspace) -> str:
    buffer = io.StringIO()
    json.dump(workspace_to_dict(workspace), buffer, indent=2)
    buffer.write("\n")
    return buffer.getvalue()


def save_workspace(workspace: Workspace, path: str | Path) -> None:
    Path(path).write_text(dumps_workspace(workspace), encoding="utf-8", newline="\n")
