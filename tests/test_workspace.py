from __future__ import annotations

import copy
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rebac import (
    Workspace,
    WorkspaceError,
    dumps_workspace,
    load_workspace,
    loads_workspace,
    make_fixture,
    save_workspace,
)
from rebac.fixtures import FIXTURES
from rebac.matching import TOP
from rebac.workspace import workspace_to_dict

from strategies import DOCUMENTS, JSON_VALUES, POSITIONS, UNDECODABLE, json_type


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_documents_round_trip_byte_identically(name):
    text = dumps_workspace(make_fixture(name))
    assert dumps_workspace(loads_workspace(text)) == text
    assert text.endswith("\n")


def test_round_trip_through_files(tmp_path):
    path = tmp_path / "ws.json"
    save_workspace(make_fixture("unix"), path)
    reloaded = load_workspace(path)
    assert dumps_workspace(reloaded) == path.read_text()


def test_canonical_dump_sorts_model_and_graph_but_keeps_rule_order():
    ws = loads_workspace(dumps_workspace(make_fixture("corporate")))
    data = workspace_to_dict(ws)
    assert data["model"]["labels"] == sorted(data["model"]["labels"])
    entity_ids = [e["id"] for e in data["graph"]["entities"]]
    assert entity_ids == sorted(entity_ids)
    principals = [r["principal"] for r in data["authorization_system"]["principal_rules"]]
    assert principals == [r.principal for r in ws.system.principal_rules]
    assert data["requests"] == [
        {"subject": r.subject, "object": r.object, "action": r.action} for r in ws.requests
    ]


def test_catch_all_rule_serializes_as_top_string():
    data = workspace_to_dict(make_fixture("unix"))
    assert data["authorization_system"]["principal_rules"][-1]["path"] == "TOP"
    reloaded = loads_workspace(json.dumps(data))
    assert reloaded.system.principal_rules[-1].condition is TOP


def test_loaded_workspace_is_usable():
    ws = loads_workspace(dumps_workspace(make_fixture("unix")))
    assert isinstance(ws, Workspace)
    assert len(ws.graph) == 6
    assert len(ws.requests) == 4


# -- negative corpus ---------------------------------------------------------


def base() -> dict:
    return json.loads(dumps_workspace(make_fixture("unix")))


def violations(doc) -> list[str]:
    with pytest.raises(WorkspaceError) as excinfo:
        loads_workspace(doc if isinstance(doc, str) else json.dumps(doc))
    return excinfo.value.violations


def test_invalid_json_reports_line_and_column():
    (violation,) = violations('{\n  "version": 1,,\n}')
    assert "invalid JSON at line 2 column 16" in violation


@pytest.mark.parametrize("text", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_json_that_cannot_be_decoded_is_one_violation(text):
    (violation,) = violations(text)
    assert violation.startswith("<workspace>: invalid JSON: ")


def test_non_object_document():
    assert violations("[1, 2]") == ["<workspace>: document must be a JSON object"]


def test_wrong_version():
    # True and 1.0 compare equal to 1 in Python, but are not the version 1
    for version in (2, True, 1.0, "1"):
        doc = base()
        doc["version"] = version
        assert f"version must be 1, found {version!r}" in violations(doc)


def test_unknown_top_level_key():
    doc = base()
    doc["extra"] = {}
    assert "unknown top-level key 'extra'" in violations(doc)


def test_missing_sections_stop_early():
    doc = base()
    del doc["model"]
    assert violations(doc) == ["missing or malformed 'model' section"]


def test_symmetric_label_must_be_declared():
    doc = base()
    doc["model"]["symmetric"] = ["friend"]
    assert "symmetric label 'friend' is not a declared label" in violations(doc)


def test_permissible_triple_with_unknown_type():
    doc = base()
    doc["model"]["permissible"].append({"from": "Robot", "to": "File", "label": "uo"})
    assert any("unknown type 'Robot'" in v for v in violations(doc))


def test_edge_not_covered_by_permissible_triples():
    doc = base()
    doc["graph"]["edges"].append({"from": "file1", "to": "alice", "label": "uo"})
    assert any("not permissible" in v for v in violations(doc))


def test_edge_with_unknown_entity():
    doc = base()
    doc["graph"]["edges"].append({"from": "mallory", "to": "file1", "label": "uo"})
    assert any("unknown entity 'mallory'" in v for v in violations(doc))


def test_duplicate_entity_with_conflicting_types():
    doc = base()
    doc["graph"]["entities"].append({"id": "alice", "type": "File"})
    assert "duplicate entity 'alice' with conflicting types" in violations(doc)


def test_reserved_wildcard_entity_id():
    doc = base()
    doc["graph"]["entities"].append({"id": "*", "type": "User"})
    assert "entity id '*' is reserved for the wildcard object" in violations(doc)


def test_principal_rule_with_unknown_label():
    doc = base()
    doc["authorization_system"]["principal_rules"].insert(
        0, {"path": "uo . nope", "principal": "owner"}
    )
    assert any(
        v.startswith("principal rule 1:") and "unknown relationship label 'nope'" in v
        for v in violations(doc)
    )


def test_principal_rule_with_star_token():
    doc = base()
    doc["authorization_system"]["principal_rules"].insert(0, {"path": "uo*", "principal": "p"})
    assert any("'*' has no surface form" in v for v in violations(doc))


def test_catch_all_must_be_last():
    doc = base()
    rules = doc["authorization_system"]["principal_rules"]
    rules.insert(0, rules.pop())  # move TOP to the front
    assert any("TOP is only allowed as the last rule" in v for v in violations(doc))


def test_policy_faults_are_listed_in_load_order():
    # the shape faults an AuthorizationSystem refuses come between the
    # parse errors and the checks against the graph's entities
    doc = base()
    system = doc["authorization_system"]
    rules = system["principal_rules"]
    rules.insert(0, rules.pop())  # move TOP to the front
    rules[2]["path"] = "uo . nope"
    system["auth_rules"].insert(0, {"principal": "ownr", "object": "file9", "action": "read", "allow": True})
    system["auth_rules"].append({"principal": "nobody", "object": "*", "action": "read", "allow": False})
    system["defaults"]["objects"] = {"ghost": "allow"}
    assert violations(doc) == [
        "principal rule 3: unknown relationship label 'nope' (at position 5)",
        "rule 1: TOP is only allowed as the last rule",
        "authorization rule 1: principal 'ownr' is not produced by any principal matching rule",
        "authorization rule 1: object 'file9' is not an entity or \"*\"",
        "authorization rule 6: principal 'nobody' is not produced by any principal matching rule",
        "defaults.objects: unknown entity 'ghost'",
    ]


def test_authorization_rule_object_must_exist_or_be_wildcard():
    doc = base()
    doc["authorization_system"]["auth_rules"].append(
        {"principal": "owner", "object": "file9", "action": "read", "allow": True}
    )
    n = len(doc["authorization_system"]["auth_rules"])
    assert f"authorization rule {n}: object 'file9' is not an entity or \"*\"" in violations(doc)


def test_authorization_rule_allow_must_be_boolean():
    doc = base()
    doc["authorization_system"]["auth_rules"][0]["allow"] = "yes"
    assert any("boolean allow" in v for v in violations(doc))


def test_defaults_must_name_known_entities_and_decisions():
    doc = base()
    doc["authorization_system"]["defaults"]["subjects"] = {"mallory": "allow"}
    doc["authorization_system"]["defaults"]["objects"] = {"file1": "maybe"}
    found = violations(doc)
    assert "defaults.subjects: unknown entity 'mallory'" in found
    assert any("defaults.objects['file1']" in v and "'maybe'" in v for v in found)


def test_bad_pms_and_crs_values():
    doc = base()
    doc["authorization_system"]["pms"] = "SomeMatch"
    doc["authorization_system"]["crs"] = "Coinflip"
    found = violations(doc)
    assert any("authorization_system.pms must be one of" in v for v in found)
    assert any("authorization_system.crs must be one of" in v for v in found)


def test_authorization_rule_principal_must_be_matched_by_some_rule():
    doc = base()
    doc["authorization_system"]["auth_rules"].insert(
        0, {"principal": "ownr", "object": "*", "action": "write", "allow": False}
    )
    assert violations(doc) == [
        "authorization rule 1: principal 'ownr' is not produced by any principal matching rule"
    ]


def test_request_entities_must_exist():
    doc = base()
    doc["requests"][1]["object"] = "ghost"
    assert violations(doc) == ["requests[1]: unknown entity 'ghost'"]


def test_malformed_request_entry():
    doc = base()
    doc["requests"].append({"subject": "alice", "action": "read"})
    n = len(doc["requests"]) - 1
    assert f"requests[{n}] must be an object with string subject/object/action" in violations(doc)


def test_requests_must_be_a_list():
    doc = base()
    doc["requests"] = 5
    assert "workspace.requests must be a list" in violations(doc)


def test_all_problems_reported_together():
    doc = base()
    doc["version"] = 3
    doc["extra"] = 1
    doc["model"]["symmetric"] = ["friend"]
    doc["requests"].append([])
    found = violations(doc)
    assert len(found) >= 4


def test_error_message_summarizes_violation_count():
    doc = base()
    doc["version"] = 3
    doc["extra"] = 1
    with pytest.raises(WorkspaceError, match="2 violations"):
        loads_workspace(json.dumps(doc))


def test_original_document_not_mutated_by_loading():
    doc = base()
    snapshot = copy.deepcopy(doc)
    loads_workspace(json.dumps(doc))
    assert doc == snapshot


# -- hostile JSON --------------------------------------------------------------


@given(st.sampled_from(POSITIONS), st.sampled_from(JSON_VALUES))
@settings(max_examples=500, deadline=None)
def test_a_value_of_another_json_type_loads_or_is_a_violation(position, value):
    name, path = position
    doc = copy.deepcopy(DOCUMENTS[name])
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    assume(json_type(container[last]) != json_type(value))
    container[last] = value
    try:
        loads_workspace(json.dumps(doc))
    except WorkspaceError as exc:
        assert exc.violations
