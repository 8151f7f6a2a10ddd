"""Relationship-based access control over typed entity graphs.

Authorization requests are decided by matching path conditions, regular
patterns over relationship labels, against the system graph: matching
rules map the requester to principals, and ordered authorization rules
plus conflict resolution and defaults turn those principals into an
Allow or Deny.  An independent automaton-based oracle double-checks the
matcher.
"""

from .graph import (
    GraphError,
    GraphValidationError,
    SystemGraph,
    SystemModel,
    UnknownEntityError,
    validate_graph,
    validate_model,
)
from .matching import (
    TOP,
    MatchMetrics,
    MatchResult,
    MatchStrategy,
    PolicyError,
    PrincipalMatchingRule,
    match_path,
    match_principals,
    work_bound,
)
from .oracle import compile_nfa, oracle_satisfies, satisfying_targets
from .paths import (
    DIAMOND,
    Concat,
    Diamond,
    EdgeCondition,
    PathCondition,
    PathSyntaxError,
    Plus,
    Reverse,
    Star,
    UnknownLabelError,
    head,
    length,
    parse,
    plus_count,
    render,
    simplify,
    suffix,
)
from .pdp import (
    WILDCARD,
    AuthorizationRule,
    AuthorizationSystem,
    ConflictStrategy,
    Decision,
    DecisionTrace,
    DefaultStage,
    Request,
    apply_defaults,
    evaluate,
    possible_decisions,
    resolve,
)
from .fixtures import FIXTURES, make_fixture
from .workspace import (
    Workspace,
    WorkspaceError,
    dumps_workspace,
    load_workspace,
    loads_workspace,
    save_workspace,
    workspace_to_dict,
)

__version__ = "0.1.0"
