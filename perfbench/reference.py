"""Independent reference for whole decisions.

Principal matching is decided on the oracle's semantics: each rule's
condition is compiled with ``rebac.oracle.compile_nfa`` and the
automaton is walked over an adjacency index that this module builds and
updates itself from the generated edge list.  ``oracle_satisfies`` would
give the same answers but scans every entity per transition, which is
far too slow at 25k entities.  Nothing here calls into
``rebac.matching``.  The second stage reuses the decision pipeline's own
``possible_decisions``, ``resolve`` and ``apply_defaults``.
"""

from __future__ import annotations

from rebac import TOP, MatchStrategy
from rebac.oracle import compile_nfa
from rebac.pdp import DefaultStage, Decision, apply_defaults, possible_decisions, resolve


class Adjacency:
    """Mutable (node, label, reversed) -> neighbours index of a graph."""

    def __init__(self, edges, symmetric):
        self.symmetric = frozenset(symmetric)
        self.step: dict[tuple[str, str, bool], set[str]] = {}
        for edge in edges:
            self.add(*edge)

    def _pairs(self, u, v, label):
        if label in self.symmetric:
            # a symmetric edge holds in both directions under both senses
            for rev in (False, True):
                yield (u, label, rev), v
                yield (v, label, rev), u
        else:
            yield (u, label, False), v
            yield (v, label, True), u

    def add(self, u, v, label):
        for key, node in self._pairs(u, v, label):
            self.step.setdefault(key, set()).add(node)

    def remove(self, u, v, label):
        for key, node in self._pairs(u, v, label):
            self.step[key].discard(node)


class Automaton:
    """A condition's NFA with epsilon closures precomputed per state."""

    def __init__(self, condition):
        nfa = compile_nfa(condition)
        epsilon: dict[int, list[int]] = {}
        self.moves: dict[int, list[tuple[str, bool, int]]] = {}
        for src, cond, dst in nfa.transitions:
            if cond is None:
                epsilon.setdefault(src, []).append(dst)
            else:
                self.moves.setdefault(src, []).append((cond.label, cond.reversed, dst))
        self.accept = nfa.accept
        self.start = nfa.start
        self.closure = {}
        for state in range(nfa.state_count):
            reach, todo = {state}, [state]
            while todo:
                for nxt in epsilon.get(todo.pop(), ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        todo.append(nxt)
            self.closure[state] = tuple(reach)

    def connects(self, adjacency: Adjacency, source: str, target: str) -> bool:
        seen = {(source, s) for s in self.closure[self.start]}
        todo = list(seen)
        while todo:
            node, state = todo.pop()
            if state == self.accept and node == target:
                return True
            for label, rev, dst in self.moves.get(state, ()):
                for other in adjacency.step.get((node, label, rev), ()):
                    for s in self.closure[dst]:
                        if (other, s) not in seen:
                            seen.add((other, s))
                            todo.append((other, s))
        return False


class ReferenceDecider:
    """Decides requests for one authorization system without the matcher."""

    def __init__(self, system):
        self.system = system
        self.rules = [
            (None if rule.condition is TOP else Automaton(rule.condition), rule.principal)
            for rule in system.principal_rules
        ]

    def principals(self, adjacency: Adjacency, subject: str, object_: str) -> list[str]:
        found: list[str] = []
        for automaton, principal in self.rules:
            if automaton is None or automaton.connects(adjacency, subject, object_):
                if principal not in found:
                    found.append(principal)
                if self.system.pms is MatchStrategy.FIRST_MATCH:
                    break
        return found

    def decide(self, adjacency: Adjacency, subject: str, object_: str, action: str) -> tuple[Decision, list[str]]:
        principals = self.principals(adjacency, subject, object_)
        if not principals:
            return apply_defaults(DefaultStage.NO_PRINCIPALS, subject, object_, self.system)[0], principals
        bits = possible_decisions(principals, object_, action, self.system.auth_rules)
        if not bits:
            return apply_defaults(DefaultStage.NO_DECISION, subject, object_, self.system)[0], principals
        return resolve(bits, self.system.crs), principals
