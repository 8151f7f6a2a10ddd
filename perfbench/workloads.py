"""The four workload runners.

Every workload follows the same plan, in one process with one client
thread and a closed loop (the next operation starts when the last one
returns):

1. set-up, repeated: ``loads_workspace`` on the generated text plus the
   first decision, which pays the lazy incident index and cache fill;
2. a counter pass over a fixed prefix of the operation stream, untimed,
   which warms the process and yields the exact work counters;
3. the timed loop, which replays the stream from its start for the
   requested seconds; every repeated operation must repeat its outcome
   and its counters exactly;
4. the reference check, outside any timing.

With tracing on, the timed loop is split in two halves, untraced and
traced, and the set-up, counter pass and traced half run under the
:class:`~tracer.Tracer`.
"""

from __future__ import annotations

import gc
import json
import resource
from dataclasses import dataclass, field
from time import perf_counter

import rebac.differential
import rebac.matching
import rebac.oracle
import rebac.pdp
import rebac.workspace
from rebac.paths import length, plus_count, simplify
from rebac.pdp import Request

from generators import GENERATORS, Generated
from reference import Adjacency, ReferenceDecider
from tracer import Tracer

# Set-up repeats until it has used SETUP_BUDGET_S, between SETUP_MIN_REPEATS
# and SETUP_MAX_REPEATS times: a set-up of a few milliseconds gets the full
# count, the half-second churn set-up its minimum.  Each repeat's first
# decision is the next request of the stream, so that the median does not
# hang on one request's cost.
SETUP_BUDGET_S = 1.5
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
COUNTED_REQUESTS = {"corp-policy": 2000, "deep-graph": 200}  # counter pass length
CHURN_COUNTED_STEPS = 4


@dataclass
class Loop:
    """What one timed loop did."""

    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    update_latencies: list[float] = field(default_factory=list)


@dataclass
class Counters:
    """Exact work of the counter pass."""

    ops: int = 0
    match_path_calls: int = 0
    match_path_found: int = 0
    pairs_seen: int = 0
    edges_considered: int = 0
    nodes_visited: int = 0
    bound_util_max: float = 0.0

    def add(self, metrics, found: bool, bound: int) -> None:
        """Add one match_path call's work; ``bound`` is its work bound."""
        self.match_path_calls += 1
        self.match_path_found += found
        self.pairs_seen += metrics.pairs_seen
        self.edges_considered += metrics.edges_considered
        self.nodes_visited += metrics.nodes_visited
        self.bound_util_max = max(self.bound_util_max, metrics.pairs_seen / bound)


@dataclass
class Result:
    workload: str
    entities: int = 0
    edges: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    loop: Loop = field(default_factory=Loop)
    traced_loop: Loop | None = None
    counters: Counters = field(default_factory=Counters)
    pass_counts: dict[str, int] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    tracer: Tracer | None = None

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)


def _signature(trace):
    """Outcome, principals and per-rule work of one decision."""
    return (
        trace.outcome,
        tuple(trace.matched_principals),
        tuple(
            (ev.found, ev.metrics.pairs_seen, ev.metrics.edges_considered, ev.metrics.nodes_visited)
            for ev in trace.metrics
        ),
    )


def _bounds(workspace) -> dict[int, int]:
    """Work bound |V| * (length + plus_count + 1) per rule number."""
    size = len(workspace.graph)
    bounds = {}
    for number, rule in enumerate(workspace.system.principal_rules, start=1):
        if rule.condition is not rebac.matching.TOP:
            pc = simplify(rule.condition)
            bounds[number] = size * (length(pc) + plus_count(pc) + 1)
    return bounds


def _count_decision(result: Result, trace, bounds: dict[int, int]) -> None:
    result.counters.ops += 1
    for ev in trace.metrics:
        if ev.rule_number in bounds:
            result.counters.add(ev.metrics, ev.found, bounds[ev.rule_number])


def _setup(result: Result, text: str, firsts: list[Request]):
    times = result.setup_times
    while len(times) < SETUP_MIN_REPEATS or (
        len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_BUDGET_S
    ):
        workspace = None  # the previous snapshot is garbage before the next load
        gc.collect()
        started = perf_counter()
        workspace = rebac.workspace.loads_workspace(text)
        rebac.pdp.evaluate(workspace.graph, workspace.system, firsts[len(times) % len(firsts)])
        times.append(perf_counter() - started)
    return workspace


class _Phases:
    """Runs the timed loop, split into untraced and traced halves when tracing."""

    def __init__(self, result: Result, seconds: float, trace: bool):
        self.result, self.seconds = result, seconds
        self.tracer = Tracer() if trace else None
        result.tracer = self.tracer
        self._mark = 0

    def __enter__(self):
        if self.tracer:
            self.tracer.install()
        return self

    def __exit__(self, *exc):
        if self.tracer:
            self.tracer.uninstall()

    def counting(self):
        """Start of the counter pass: its spans are dropped, its counts kept."""
        if self.tracer:
            self._mark = len(self.tracer.spans)
            self.tracer.counts.clear()

    def counted(self):
        if self.tracer:
            del self.tracer.spans[self._mark:]
            self.result.pass_counts = dict(self.tracer.counts)

    def timed(self, run_loop):
        """Call ``run_loop(seconds) -> Loop`` once, or twice when tracing."""
        if not self.tracer:
            self.result.loop = run_loop(self.seconds)
            return
        self.tracer.uninstall()
        self.result.loop = run_loop(self.seconds / 2)
        self.tracer.install()
        self.result.traced_loop = run_loop(self.seconds / 2)
        self.tracer.uninstall()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# corp-policy and deep-graph: a fixed request list, replayed


def _run_requests(result: Result, gen: Generated, seconds: float, trace: bool) -> None:
    requests = [Request(*r) for r in gen.requests]
    count = len(requests)
    with _Phases(result, seconds, trace) as phases:
        workspace = _setup(result, gen.text, requests[:SETUP_MAX_REPEATS])
        graph, system = workspace.graph, workspace.system
        bounds = _bounds(workspace)

        # signature of each request's first run; later runs must repeat it
        known: list = [None] * count
        phases.counting()
        for i, request in enumerate(requests[:COUNTED_REQUESTS[result.workload]]):
            decision = rebac.pdp.evaluate(graph, system, request)
            known[i] = _signature(decision)
            _count_decision(result, decision, bounds)
        phases.counted()
        result.attempted += result.counters.ops

        def loop(budget: float) -> Loop:
            evaluate = rebac.pdp.evaluate
            out = Loop()
            latencies = out.latencies
            i = 0
            started = now = perf_counter()
            while now - started < budget:
                index = i % count
                request = requests[index]
                i += 1
                before = perf_counter()
                try:
                    decision = evaluate(graph, system, request)
                except Exception as exc:  # a raising decision is a failed operation
                    now = perf_counter()
                    result.fail(1, f"{request}: {exc!r}")
                    continue
                now = perf_counter()
                latencies.append(now - before)
                signature = _signature(decision)
                if known[index] is None:
                    known[index] = signature
                elif signature != known[index]:
                    result.fail(1, f"{request}: outcome or counters differ from an earlier run")
            out.elapsed = now - started
            result.attempted += i
            return out

        phases.timed(loop)
    result.peak_rss_mb = _peak_rss_mb()

    # every distinct request that ran, outside the timing
    reference = ReferenceDecider(system)
    adjacency = _adjacency(gen)
    for request, signature in zip(requests, known):
        if signature is not None:
            _check(result, reference, adjacency, request, signature, bounds)


def _check(result, reference, adjacency, request, signature, bounds) -> None:
    """One decision against the work bound and the reference."""
    for number, (_, pairs_seen, _, _) in enumerate(signature[2], start=1):
        if number in bounds and pairs_seen > bounds[number]:
            result.fail(1, f"{request} rule {number}: pairs_seen {pairs_seen} above the bound {bounds[number]}")
    outcome, principals = reference.decide(adjacency, request.subject, request.object, request.action)
    if (outcome, tuple(principals)) != signature[:2]:
        result.fail(1, f"{request}: evaluate gave {signature[:2]}, the reference {outcome, principals}")


def _adjacency(gen: Generated) -> Adjacency:
    model = json.loads(gen.text)
    edges = [(e["from"], e["to"], e["label"]) for e in model["graph"]["edges"]]
    return Adjacency(edges, model["model"]["symmetric"])


# ---------------------------------------------------------------------------
# churn: single-edge updates, each followed by a run of decisions


def _run_churn(result: Result, gen: Generated, seconds: float, trace: bool) -> None:
    steps = gen.steps
    recorded: list[list] = []  # signatures of each step the timed loop ran

    def apply(graph, step):
        return graph.with_edge(*step.edge) if step.add else graph.without_edge(*step.edge)

    with _Phases(result, seconds, trace) as phases:
        workspace = _setup(result, gen.text, [Request(*r) for r in steps[0].requests])
        system = workspace.system
        bounds = _bounds(workspace)

        phases.counting()
        expected: list[list] = []
        graph = workspace.graph
        for step in steps[:CHURN_COUNTED_STEPS]:
            graph = apply(graph, step)
            signatures = []
            for request in step.requests:
                decision = rebac.pdp.evaluate(graph, system, Request(*request))
                signatures.append(_signature(decision))
                _count_decision(result, decision, bounds)
            expected.append(signatures)
        phases.counted()
        result.attempted += CHURN_COUNTED_STEPS + result.counters.ops
        # hold only the loaded snapshot, as a client replaying the stream would
        state = {"graph": workspace.graph, "next": 0}
        del graph, workspace

        def loop(budget: float) -> Loop:
            evaluate = rebac.pdp.evaluate
            out = Loop()
            latencies = out.latencies
            graph = state.pop("graph")
            k = state["next"]
            started = now = perf_counter()
            while now - started < budget and k < len(steps):
                step = steps[k]
                signatures = []
                before_update = perf_counter()
                try:
                    graph = apply(graph, step)
                    for j, request in enumerate(step.requests):
                        before = perf_counter()
                        decision = evaluate(graph, system, Request(*request))
                        now = perf_counter()
                        latencies.append(now - before)
                        if j == 0:
                            out.update_latencies.append(now - before_update)
                        signatures.append(_signature(decision))
                except Exception as exc:  # a raising update or decision fails its step
                    now = perf_counter()
                    result.fail(1 + len(step.requests) - len(signatures), f"step {k}: {exc!r}")
                recorded.append(signatures)
                k += 1
            out.elapsed = now - started
            state["graph"], state["next"] = graph, k
            return out

        phases.timed(loop)
    result.peak_rss_mb = _peak_rss_mb()
    state.clear()

    # repeat check against the counter pass, then the reference replay
    adjacency = _adjacency(gen)
    reference = ReferenceDecider(system)
    for k, signatures in enumerate(recorded):
        step = steps[k]
        result.attempted += 1 + len(step.requests)
        (adjacency.add if step.add else adjacency.remove)(*step.edge)
        for j, signature in enumerate(signatures):
            request = Request(*step.requests[j])
            if k < len(expected) and signature != expected[k][j]:
                result.fail(1, f"step {k} {request}: outcome or counters differ from the counter pass")
            _check(result, reference, adjacency, request, signature, bounds)


# ---------------------------------------------------------------------------
# crosscheck: run_differential trials


def _run_crosscheck(result: Result, gen: Generated, seconds: float, trace: bool) -> None:
    requests = [Request(*r) for r in gen.requests]
    seeds = gen.trial_seeds

    def counter_pass() -> list:
        """Run every trial once: (agreed, its match_path call's work), or the
        repr of the exception the trial raised."""
        calls = []
        original = rebac.differential.match_path

        def capture(graph, source, target, condition, **kwargs):
            outcome = original(graph, source, target, condition, **kwargs)
            pc = simplify(condition)
            bound = len(graph) * (length(pc) + plus_count(pc) + 1)
            calls.append((outcome.found, outcome.metrics.pairs_seen, outcome.metrics.edges_considered,
                          outcome.metrics.nodes_visited, bound, outcome.metrics))
            return outcome

        outcomes = []
        rebac.differential.match_path = capture
        try:
            for seed in seeds:
                calls.clear()
                try:
                    agreed = rebac.differential.run_differential(seed, 1).agreements
                except Exception as exc:  # a raising trial is a failed operation
                    outcomes.append(repr(exc))
                else:
                    outcomes.append((agreed, calls[0]))
        finally:
            rebac.differential.match_path = original
        return outcomes

    with _Phases(result, seconds, trace) as phases:
        workspace = _setup(result, gen.text, requests[:SETUP_MAX_REPEATS])

        phases.counting()
        first = counter_pass()
        phases.counted()
        phases.counting()  # the repeat's counts equal the first pass's
        again = counter_pass()
        phases.counted()
        result.attempted += 2 * len(seeds)
        for i, (outcome, outcome_again) in enumerate(zip(first, again)):
            if isinstance(outcome, str) or isinstance(outcome_again, str):
                result.fail(1, f"trial seed {seeds[i]}: {outcome if isinstance(outcome, str) else outcome_again}")
                continue
            (agreed, call), (agreed_again, call_again) = outcome, outcome_again
            found, pairs_seen, _, _, bound, metrics = call
            result.counters.ops += 1
            result.counters.add(metrics, found, bound)
            if pairs_seen > bound:
                result.fail(1, f"trial seed {seeds[i]}: pairs_seen {pairs_seen} above the bound {bound}")
            if not agreed:
                result.fail(1, f"trial seed {seeds[i]}: matcher and oracle disagree")
            if call[:5] != call_again[:5] or agreed_again != agreed:
                result.fail(1, f"trial seed {seeds[i]}: counters differ between two runs")

        def loop(budget: float) -> Loop:
            run_differential = rebac.differential.run_differential
            out = Loop()
            latencies = out.latencies
            count = len(seeds)
            i = 0
            started = now = perf_counter()
            while now - started < budget:
                seed = seeds[i % count]
                i += 1
                before = perf_counter()
                try:
                    report = run_differential(seed, 1)
                except Exception as exc:  # a raising trial is a failed operation
                    now = perf_counter()
                    result.fail(1, f"trial seed {seed}: {exc!r}")
                    continue
                now = perf_counter()
                latencies.append(now - before)
                if report.agreements != 1:
                    result.fail(1, f"trial seed {seed}: matcher and oracle disagree")
            out.elapsed = now - started
            result.attempted += i
            return out

        phases.timed(loop)
    result.peak_rss_mb = _peak_rss_mb()

    # decision-level check of the workspace: evaluate against the reference,
    # and each rule's matcher answer against the oracle, as oracle-check does
    graph, system = workspace.graph, workspace.system
    reference = ReferenceDecider(system)
    adjacency = _adjacency(gen)
    bounds = _bounds(workspace)
    for request in requests:
        result.attempted += 1
        _check(result, reference, adjacency, request, _signature(rebac.pdp.evaluate(graph, system, request)), bounds)
        for rule in system.principal_rules:
            if rule.condition is rebac.matching.TOP:
                continue
            result.attempted += 1
            got = rebac.matching.match_path(graph, request.subject, request.object, rule.condition).found
            if got != rebac.oracle.oracle_satisfies(graph, request.subject, request.object, rule.condition):
                result.fail(1, f"{request} under {rule.principal}: matcher and oracle disagree")


RUNNERS = {
    "corp-policy": _run_requests,
    "deep-graph": _run_requests,
    "churn": _run_churn,
    "crosscheck": _run_crosscheck,
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result(workload)
    generated = GENERATORS[workload](seed)
    result.entities, result.edges = generated.entity_count, generated.edge_count
    # The generated inputs live as long as the run; keep the collector from
    # rescanning them, so that its cost reflects the program's own objects.
    gc.collect()
    gc.freeze()
    RUNNERS[workload](result, generated, seconds, trace)
    return result

