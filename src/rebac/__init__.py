"""Relationship-based access control over typed entity graphs.

Authorization requests are decided by matching path conditions, regular
patterns over relationship labels, against the system graph: matching
rules map the requester to principals, and ordered authorization rules
plus conflict resolution and defaults turn those principals into an
Allow or Deny.  An independent automaton-based oracle double-checks the
matcher.

The package exports what the CLI, the benchmark, ``scripts/`` and the
README example call, and besides those:

- the types a policy is built from in code: ``SystemModel``,
  ``PrincipalMatchingRule``, ``AuthorizationRule``,
  ``AuthorizationSystem`` and ``ConflictStrategy``;
- the errors a caller catches: ``GraphValidationError`` from the graph
  constructor, ``PolicyError`` from the ``AuthorizationSystem``
  constructor and ``UnknownEntityError`` from ``evaluate``;
- ``oracle_satisfies``, the independent decider the matcher is checked
  against.

The condition tree, the validators and the pipeline's stages stay in
their modules (``rebac.paths``, ``rebac.graph``, ``rebac.pdp``).
"""

from .graph import GraphError, GraphValidationError, SystemGraph, SystemModel, UnknownEntityError
from .matching import TOP, MatchStrategy, PolicyError, PrincipalMatchingRule, match_path, work_bound
from .oracle import oracle_satisfies
from .paths import PathSyntaxError, parse, render, simplify
from .pdp import AuthorizationRule, AuthorizationSystem, ConflictStrategy, Decision, Request, evaluate
from .fixtures import FIXTURES, make_fixture
from .workspace import (
    Workspace,
    WorkspaceError,
    dumps_workspace,
    load_workspace,
    loads_workspace,
    save_workspace,
)

__version__ = "0.1.0"
