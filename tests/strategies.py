"""Hostile workspace JSON for the property-based tests: fixture documents
with one value replaced, and arbitrary text.  Random graphs and
conditions come from ``rebac.differential``, not from here."""

from __future__ import annotations

import copy
import json

import hypothesis.strategies as st

from rebac import dumps_workspace, make_fixture
from rebac.fixtures import FIXTURES


def _positions(value, path=()):
    # every section, list entry and record field below the document root
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def json_type(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


DOCUMENTS = {name: json.loads(dumps_workspace(make_fixture(name))) for name in sorted(FIXTURES)}
POSITIONS = [(name, path) for name, doc in DOCUMENTS.items() for path in _positions(doc)]
JSON_VALUES = [None, True, False, 0, 7, 2.5, "", "ghost", [], ["ghost"], {}, {"id": "ghost"}]
# text that json.loads rejects with an error other than JSONDecodeError
UNDECODABLE = {
    "deeply nested": "[" * 100_000 + "]" * 100_000,
    "overlong integer": '{"version": 1' + "0" * 4300 + "}",
}


@st.composite
def workspace_texts(draw, name: str) -> str:
    """Fixture ``name``'s document, the same with one value replaced by
    any of ``JSON_VALUES``, or arbitrary text."""
    kind = draw(st.sampled_from(["fixture", "replaced", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    doc = copy.deepcopy(DOCUMENTS[name])
    if kind == "replaced":
        *parents, last = draw(st.sampled_from([path for doc_name, path in POSITIONS if doc_name == name]))
        container = doc
        for key in parents:
            container = container[key]
        container[last] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc)
