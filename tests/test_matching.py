from __future__ import annotations

import random

import pytest

import rebac.paths
from rebac import (
    AuthorizationSystem,
    ConflictStrategy,
    PolicyError,
    PrincipalMatchingRule,
    MatchStrategy,
    SystemGraph,
    SystemModel,
    TOP,
    UnknownEntityError,
    make_fixture,
    match_path,
    parse,
    render,
    simplify,
    work_bound,
)
from rebac.differential import random_condition, random_graph, random_simple_condition, run_differential
from rebac.matching import _EMPTY, _States, match_principals, validate_policy
from rebac.paths import DIAMOND, MAX_DEPTH, Concat, EdgeCondition, Plus, Star, length, plus_count

from reference_matcher import reference_match_path
from test_acceptance import _large_graph

SINGLE = SystemModel(["t"], ["a", "b"], permissible=[("t", "t", "a"), ("t", "t", "b")])


def small(entities, edges):
    return SystemGraph(SINGLE, {e: "t" for e in entities}, edges)


def test_worked_rows_on_five_node_graph(five_node_graph):
    rows = [
        ("r1 . ~r2 . r3 . r4", True),
        ("r1 . r2", False),
        ("r1+ . ~r2 . r3 . r4", True),
        ("r1 . ~r2 . r3 . ~r4", True),
    ]
    for text, expected in rows:
        pc = parse(text, five_node_graph.model.labels)
        assert match_path(five_node_graph, "s", "o", pc).found is expected


def test_fragment_participant_and_folder_paths(fragment_graph):
    labels = fragment_graph.model.labels
    assert match_path(fragment_graph, "U1", "P1", parse("P", labels)).found
    assert match_path(fragment_graph, "D2", "P1", parse("M+ . R", labels)).found
    assert not match_path(fragment_graph, "D2", "P1", parse("M . R", labels)).found


def test_empty_condition_shortcut_reports_zero_work():
    g = small(["x", "y"], [("x", "y", "a")])
    found, metrics = match_path(g, "x", "x", DIAMOND)
    assert found
    assert (metrics.nodes_visited, metrics.edges_considered, metrics.queue_peak) == (0, 0, 0)
    assert not match_path(g, "x", "y", DIAMOND).found


def test_source_equal_target_needs_a_cycle_for_nonempty_conditions():
    acyclic = small(["x", "y"], [("x", "y", "a")])
    assert not match_path(acyclic, "x", "x", parse("a")).found

    loop = small(["x"], [("x", "x", "a")])
    assert match_path(loop, "x", "x", parse("a")).found
    assert match_path(loop, "x", "x", parse("~a")).found


def test_repetition_tail_is_checked_at_nodes_without_edges():
    # after the single hop the remainder is a zero-or-more repetition;
    # the match must be recognized at the edgeless node itself
    g = small(["x", "y"], [("x", "y", "a")])
    assert match_path(g, "x", "y", parse("a+")).found


def test_nested_repetition_matches_like_flat_repetition():
    g = small(["x", "y", "z"], [("x", "y", "a"), ("y", "z", "a")])
    pc = parse("(a+)+")
    assert match_path(g, "x", "z", pc).found
    assert not match_path(g, "x", "x", pc).found


def test_symmetric_edges_cross_in_both_senses(five_node_graph):
    labels = five_node_graph.model.labels
    assert match_path(five_node_graph, "v3", "o", parse("r4", labels)).found
    assert match_path(five_node_graph, "o", "v3", parse("r4", labels)).found
    assert match_path(five_node_graph, "v3", "o", parse("~r4", labels)).found


def test_metrics_are_deterministic(five_node_graph):
    pc = parse("r1+ . ~r2 . r3 . r4", five_node_graph.model.labels)
    first = match_path(five_node_graph, "s", "o", pc)
    second = match_path(five_node_graph, "s", "o", pc)
    assert first == second


def test_seen_bound_holds_for_adversarial_conditions():
    nodes = [f"n{i}" for i in range(5)]
    edges = [(u, v, l) for u in nodes for v in nodes for l in ("a", "b")]
    dense = small(nodes, edges)
    for text in ["(a+)+", "(a+ . b+)+", "((a+)+)+", "a+ . (b+ . a)+"]:
        pc = parse(text)
        found, metrics = match_path(dense, "n0", "n3", pc)
        assert found
        bound = len(dense) * (length(pc) + plus_count(pc) + 1)
        assert metrics.pairs_seen <= bound
        assert metrics.queue_peak <= bound


def test_work_bound_counts_leading_stars():
    # a* . b* sees 7 pairs: more than a bound that leaves out the stars
    g = small(["x", "y"], [("x", "y", "a"), ("y", "x", "b"), ("x", "x", "b")])
    pc = Concat(Star(EdgeCondition("a")), Star(EdgeCondition("b")))
    _, metrics = match_path(g, "x", "y", pc)
    assert len(g) * (length(pc) + 1) < metrics.pairs_seen <= work_bound(g, pc)
    assert metrics.nodes_visited <= work_bound(g, pc)


# the condition and |V| of the trial run_differential draws from each seed
REPRODUCERS = {
    4264359290: ("((~c)+ . c)+ . (c . ((~a)+ . ~c)+ . a)+", 2),
    3101670111: ("((c+ . ~c)+ . ((~c . c)+ . c)+)+", 2),
    456755500: ("((c+ . c)+ . ~c)+", 5),
}


@pytest.mark.parametrize("seed", REPRODUCERS)
def test_nested_closures_stay_within_the_work_bound(seed):
    # each trial sees more pairs than the old bound |V| * (length + plus_count + 1)
    rng = random.Random(seed)
    graph, condition = random_graph(rng), random_simple_condition(rng)
    _, metrics = match_path(graph, rng.choice(graph.entity_ids), rng.choice(graph.entity_ids), condition)
    assert (render(condition), len(graph)) == REPRODUCERS[seed]
    assert len(graph) * (length(condition) + plus_count(condition) + 1) < metrics.pairs_seen
    assert metrics.pairs_seen <= work_bound(graph, condition)
    assert run_differential(seed, 1).agreements == 1


def _same_as_reference(graph, source, target, condition) -> list[str]:
    lines, reference_lines = [], []
    result = match_path(graph, source, target, condition, trace=lines.append)
    reference = reference_match_path(graph, source, target, condition, trace=reference_lines.append)
    assert (result, lines) == (reference, reference_lines), (source, target, condition)
    return lines


def test_numbered_search_repeats_the_residual_search_exactly():
    # found, all four metrics and every trace line
    rng = random.Random(15)
    for _ in range(4000):
        graph = random_graph(rng)
        nodes = graph.entity_ids
        _same_as_reference(graph, rng.choice(nodes), rng.choice(nodes), random_condition(rng))


def test_numbered_search_repeats_the_planted_hit_and_miss():
    graph, source, target = _large_graph()
    _same_as_reference(graph, source, target, parse("a . b+ . c . d . e"))
    _same_as_reference(graph, "n0", "n999", parse("(a . ~b)+ . c+"))


# the rule shapes of the deep-graph benchmark workload
DEEP_GRAPH_CONDITIONS = ["a+ . (~e)+", "(a . ~b)+ . c+", "a . b+ . c . d . e", "~a . e . b"]


def test_numbered_search_repeats_the_deep_graph_rules_with_a_symmetric_label():
    # the large graph with e symmetric, as in that workload; the planted
    # chain ends in a hit on e's sym key, whose recount spans every
    # direction group
    graph, source, target = _large_graph()
    model = SystemModel(["node"], graph.model.labels, symmetric=["e"], permissible=graph.model.permissible)
    graph = SystemGraph(model, dict.fromkeys(graph.entity_ids, "node"), graph.edges)
    subjects = sorted(node for node, (table, _) in graph.label_index().items() if ("a", "out") in table)
    rng = random.Random(19)
    pairs = [(source, target)] + [(rng.choice(subjects), rng.choice(graph.entity_ids)) for _ in range(49)]
    found, symmetric_exits = 0, 0
    for text in DEEP_GRAPH_CONDITIONS:
        for s, t in pairs:
            lines = _same_as_reference(graph, s, t, parse(text))
            found += lines[-1].endswith(f"matched {t}")
            symmetric_exits += lines[-1].endswith(f"[e]  matched {t}")
    assert symmetric_exits >= 1 and 0 < found < len(pairs) * len(DEEP_GRAPH_CONDITIONS)


def _plain(index):
    return {node: ({key: list(o) for key, o in table.items()}, count) for node, (table, count) in index.items()}


def test_searches_leave_the_label_tables_unchanged():
    # the tables are shared by snapshots and read in place; random graphs
    # have a symmetric label, self-loops and nodes without edges
    rng = random.Random(19)
    for _ in range(300):
        graph = random_graph(rng)
        before = _plain(graph.label_index())
        nodes = graph.entity_ids
        for _ in range(3):
            match_path(graph, rng.choice(nodes), rng.choice(nodes), random_condition(rng))
        assert _plain(graph.label_index()) == before


# one text per form, each MAX_DEPTH levels deep
DEPTH_FORMS = [
    "a" + "+" * (MAX_DEPTH - 1),
    "(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1),
    " . ".join(["a"] * MAX_DEPTH),
    "~" * (MAX_DEPTH - 1) + "a",
]


def test_residuals_number_at_most_length_plus_twice_plus_count_plus_one():
    # from a node with a loop of every label, every branch's head can be
    # crossed, so a miss sees every residual once: pairs_seen counts them
    rng = random.Random(15)
    model = random_graph(rng).model
    loops = SystemGraph(model, {"x": "node", "y": "node"}, [("x", "x", label) for label in model.labels])
    conditions = [random_condition(rng) for _ in range(5000)] + [parse(text) for text in DEPTH_FORMS]
    for pc in conditions:
        found, metrics = match_path(loops, "x", "y", pc)
        assert not found
        assert metrics.pairs_seen <= length(simplify(pc)) + 2 * plus_count(simplify(pc)) + 1, pc


def _within_edge_bound(graph, source, target, condition) -> None:
    # each (node, branch) pair is active at most once, adding the node's cost
    _, metrics = match_path(graph, source, target, condition)
    costs = sum(cost for _, cost in graph.label_index().values())
    factor = work_bound(graph, condition) // len(graph)
    assert metrics.edges_considered <= factor * costs, (source, target, condition)


def test_edge_work_stays_within_bound_factor_times_the_comparison_counts():
    rng = random.Random(17)
    for _ in range(20_000):
        graph = random_graph(rng)
        nodes = graph.entity_ids
        _within_edge_bound(graph, rng.choice(nodes), rng.choice(nodes), random_condition(rng))
    for name in ("corporate", "rbac", "unix"):
        workspace = make_fixture(name)
        for rule in workspace.system.principal_rules:
            if rule.condition is not TOP:
                for request in workspace.requests:
                    _within_edge_bound(workspace.graph, request.subject, request.object, rule.condition)
    model = random_graph(rng).model
    loops = SystemGraph(model, {"x": "node", "y": "node"}, [("x", "x", label) for label in model.labels])
    for text in DEPTH_FORMS:
        for target in ("x", "y"):
            _within_edge_bound(loops, "x", target, parse(text))


def test_a_built_rule_is_searched_without_simplifying_again(monkeypatch):
    # over a label no other test uses, so that nothing met earlier can stand in
    model = SystemModel(["node"], ["z"], permissible=[("node", "node", "z")])
    loops = SystemGraph(model, {"x": "node", "y": "node"}, [("x", "x", "z")])
    rules = [PrincipalMatchingRule(parse(text.replace("a", "z")), "p") for text in DEPTH_FORMS]

    def forbidden(*args):
        raise AssertionError("a search simplified its condition again")

    monkeypatch.setattr(rebac.paths, "_simplify", forbidden)
    for rule in rules:
        assert match_path(loops, "x", "x", rule).found
        assert not match_path(loops, "x", "y", rule).found


def _factors(pc) -> int:
    count = 0
    while isinstance(pc, Concat):
        count, pc = count + 1, pc.right
    return count + (pc != DIAMOND)


def test_suffix_joins_each_part_once_on_the_deepest_closure(monkeypatch):
    # every residual that a search of uo followed by 99 '+' can number
    workspace = make_fixture("unix")
    simple = simplify(parse("uo" + "+" * (MAX_DEPTH - 1), workspace.graph.model.labels))
    calls, suffixes = 0, 0
    concat, suffix = rebac.paths._concat_canonical, rebac.matching.suffix

    def counted_concat(left, right):
        nonlocal calls
        calls += 1
        return concat(left, right)

    def counted_suffix(residual):
        nonlocal calls, suffixes
        calls, suffixes = 0, suffixes + 1
        rest = suffix(residual)
        assert calls <= 2 * _factors(rest), (residual, calls)
        return rest

    monkeypatch.setattr(rebac.paths, "_concat_canonical", counted_concat)
    monkeypatch.setattr(rebac.matching, "suffix", counted_suffix)
    states = _States(workspace.graph.model.symmetric)
    state = states.number(simple)
    while state < len(states.residuals):
        for branch in states.unfold(state):
            if branch != _EMPTY:
                states.move(branch)
        state += 1
    assert suffixes >= MAX_DEPTH


def _rule_searches_like_its_condition(graph, source, target, rule) -> None:
    # found, all four metrics and every trace line
    lines, bare_lines = [], []
    result = match_path(graph, source, target, rule, trace=lines.append)
    bare = match_path(graph, source, target, rule.condition, trace=bare_lines.append)
    assert (result, lines) == (bare, bare_lines), (source, target, rule)
    assert rule.simple == simplify(rule.condition)
    assert len(graph) * rule.bound_factor == work_bound(graph, rule.condition)


@pytest.mark.parametrize("name", ["corporate", "rbac", "unix"])
def test_rule_searches_like_its_condition_on_the_fixtures(name):
    workspace = make_fixture(name)
    rules = [rule for rule in workspace.system.principal_rules if rule.condition is not TOP]
    assert rules and workspace.requests
    for rule in rules:
        for request in workspace.requests:
            _rule_searches_like_its_condition(workspace.graph, request.subject, request.object, rule)


def test_rule_searches_like_its_condition_on_random_and_deepest_conditions():
    rng = random.Random(23)
    for _ in range(2000):
        graph = random_graph(rng)
        nodes = graph.entity_ids
        rule = PrincipalMatchingRule(random_condition(rng), "p")
        _rule_searches_like_its_condition(graph, rng.choice(nodes), rng.choice(nodes), rule)
    model = random_graph(rng).model
    loops = SystemGraph(model, {"x": "node", "y": "node"}, [("x", "x", label) for label in model.labels])
    for text in DEPTH_FORMS:
        for target in ("x", "y"):
            _rule_searches_like_its_condition(loops, "x", target, PrincipalMatchingRule(parse(text), "p"))


def test_star_rule_builds_and_searches_like_its_condition():
    # an AuthorizationSystem refuses it, but building the rule must not raise
    g = small(["x", "y"], [("x", "y", "a"), ("y", "x", "b"), ("x", "x", "b")])
    rule = PrincipalMatchingRule(Concat(Star(EdgeCondition("a")), Star(EdgeCondition("b"))), "p")
    _rule_searches_like_its_condition(g, "x", "y", rule)


def test_top_rule_has_no_path_to_match():
    g = small(["x", "y"], [("x", "y", "a")])
    with pytest.raises(PolicyError, match="TOP is not a path condition"):
        match_path(g, "x", "y", PrincipalMatchingRule(TOP, "everyone"))


@pytest.mark.parametrize("repeated", [Plus, Star], ids=["plus", "star"])
def test_repeated_leading_star_has_no_head(repeated):
    g = small(["x", "y"], [("x", "y", "a")])
    with pytest.raises(ValueError, match="leading zero-or-more repetition has no head"):
        match_path(g, "x", "y", repeated(Star(EdgeCondition("a"))))


def test_unknown_entities_rejected(five_node_graph):
    with pytest.raises(UnknownEntityError):
        match_path(five_node_graph, "s", "ghost", DIAMOND)


def test_trace_emits_one_line_per_dequeue(five_node_graph):
    lines: list[str] = []
    pc = parse("r1 . ~r2 . r3 . r4", five_node_graph.model.labels)
    match_path(five_node_graph, "s", "o", pc, trace=lines.append)
    assert lines[0].startswith("s ")
    assert "r1 . ~r2 . r3 . r4" in lines[0]
    assert any("matched o" in line for line in lines)


def test_trace_renders_internal_star_residuals():
    g = small(["x", "y", "z"], [("x", "y", "a"), ("y", "z", "a")])
    lines: list[str] = []
    match_path(g, "x", "z", parse("a+"), trace=lines.append)
    assert any("a*" in line for line in lines)


# -- match_principals ------------------------------------------------------

RULES = [
    PrincipalMatchingRule(parse("a"), "direct"),
    PrincipalMatchingRule(parse("a . b"), "two-step"),
    PrincipalMatchingRule(parse("a+"), "direct"),  # duplicate principal
    PrincipalMatchingRule(TOP, "everyone"),
]


def test_first_match_stops_at_first_matching_rule():
    g = small(["x", "y"], [("x", "y", "a")])
    result = match_principals(g, "x", "y", RULES, MatchStrategy.FIRST_MATCH)
    assert result.principals == ["direct"]
    assert len(result.evaluations) == 1


def test_all_match_evaluates_every_rule_and_deduplicates():
    g = small(["x", "y"], [("x", "y", "a")])
    result = match_principals(g, "x", "y", RULES, MatchStrategy.ALL_MATCH)
    assert result.principals == ["direct", "everyone"]
    assert [ev.found for ev in result.evaluations] == [True, False, True, True]
    assert [ev.rule_number for ev in result.evaluations] == [1, 2, 3, 4]


def test_catch_all_applies_when_nothing_else_matches():
    g = small(["x", "y"], [])
    for strategy in MatchStrategy:
        result = match_principals(g, "x", "y", RULES, strategy)
        assert result.principals == ["everyone"]


def test_catch_all_records_empty_metrics():
    g = small(["x", "y"], [])
    result = match_principals(g, "x", "y", RULES, MatchStrategy.ALL_MATCH)
    top_eval = result.evaluations[-1]
    assert top_eval.condition == "TOP"
    assert top_eval.metrics.nodes_visited == 0


def system_of(rules) -> AuthorizationSystem:
    return AuthorizationSystem(rules, MatchStrategy.ALL_MATCH, [], ConflictStrategy.FIRST_MATCH)


def test_policy_with_misplaced_catch_all_is_rejected():
    bad = [PrincipalMatchingRule(TOP, "everyone"), PrincipalMatchingRule(parse("a"), "p")]
    with pytest.raises(PolicyError, match="^rule 1: TOP is only allowed as the last rule$"):
        system_of(bad)


def test_policy_with_star_condition_is_rejected():
    # the '*' sits below the top of the condition
    bad = [
        PrincipalMatchingRule(parse("a"), "q"),
        PrincipalMatchingRule(Concat(EdgeCondition("a"), Star(EdgeCondition("a"))), "p"),
    ]
    with pytest.raises(PolicyError) as excinfo:
        system_of(bad)
    assert str(excinfo.value) == "rule 2: '*' conditions are internal and not allowed in policies"


def test_policy_with_nested_plus_allows_star_only_internally():
    ok = [PrincipalMatchingRule(Plus(Plus(EdgeCondition("a"))), "p")]
    assert validate_policy(ok) == []
    assert system_of(ok).principal_rules == tuple(ok)
