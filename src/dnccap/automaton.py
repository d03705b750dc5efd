"""Deterministic automata for channel constraints.

Every constraint kind compiles to a trim deterministic automaton over the
channel's symbol names: a missing transition is a rejection, every kept
state is reachable, and every kept state can still reach an accepting
state. Enumeration and capacity estimation both walk these automata, and
the estimator's soundness depends on trimness.

Construction routes:
  free        one state, loops on every symbol
  forbidden   Aho-Corasick trie of the patterns with failure links; a move
              that completes a pattern is cut; every state accepts
  regex       Glushkov position automaton, subset construction (state count
              capped), trimming, then Moore minimization
"""

from __future__ import annotations

from collections import deque

from ._record import Record
from .chanspec import (
    ChannelSpec,
    Concat,
    Epsilon,
    ForbiddenPatterns,
    Free,
    Regex,
    RegexNode,
    Star,
    Symbol,
    Union,
)
from .errors import ResourceLimitError


class ConstraintAutomaton(Record):
    """Trim DFA: transitions[state][symbol] -> state, absent means reject."""

    __slots__ = ("transitions", "initial", "accepting")
    transitions: tuple[dict, ...]
    initial: int
    accepting: frozenset

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def run(self, symbols) -> int | None:
        state = self.initial
        for sym in symbols:
            state = self.transitions[state].get(sym)
            if state is None:
                return None
        return state

    def accepts(self, symbols) -> bool:
        state = self.run(symbols)
        return state is not None and state in self.accepting

    def is_acyclic(self) -> bool:
        """Whether no path leads from a state back to itself. In a trim
        automaton every path spells part of an accepted string, so an
        acyclic one accepts finitely many strings, and a cyclic one
        infinitely many.

        Kahn's topological sort: states whose every incoming arc comes
        from a removed state are removed; all are removed exactly when
        there is no cycle.
        """
        transitions = self.transitions
        indegree = [0] * len(transitions)
        for row in transitions:
            for t in row.values():
                indegree[t] += 1
        ready = [s for s, d in enumerate(indegree) if not d]
        removed = 0
        while ready:
            removed += 1
            for t in transitions[ready.pop()].values():
                indegree[t] -= 1
                if not indegree[t]:
                    ready.append(t)
        return removed == len(transitions)


# The regex route refuses a subset construction with more states than this.
STATE_LIMIT = 10_000


def for_spec(spec: ChannelSpec) -> ConstraintAutomaton:
    """Compile the spec's constraint into a trim deterministic automaton."""
    names = spec.symbol_names()
    constraint = spec.constraint
    if isinstance(constraint, Free):
        return ConstraintAutomaton(({name: 0 for name in names},), 0, frozenset({0}))
    if isinstance(constraint, ForbiddenPatterns):
        return _pattern_automaton(names, constraint.patterns)
    if isinstance(constraint, Regex):
        return _regex_automaton(constraint.expr, names)
    raise TypeError(f"not a constraint: {constraint!r}")


def _pattern_automaton(names, patterns) -> ConstraintAutomaton:
    """Pattern-avoiding DFA on the trie of the patterns, with failure links
    (Aho & Corasick, CACM 1975).

    A trie node is a prefix of a pattern, the root the empty one. Its link
    is the node of its longest proper suffix; a move on a symbol goes to
    the child, or, without one, where the link moves: to the longest
    suffix of the new string that is a node. A node whose string ends in a
    whole pattern, its own or its link's, is dead, and every move into a
    dead node is cut. Breadth-first order builds a node's link and moves
    from those of a shorter node, already built, so the automaton takes
    O(nodes * symbols) steps. Every live node accepts, because the
    language is prefix-closed; the dead ones are never entered and are
    trimmed away.
    """
    children: list[dict] = [{}]
    dead = [False]
    for pattern in patterns:
        node = 0
        for name in pattern:
            node = children[node].setdefault(name, len(children))
            if node == len(children):
                children.append({})
                dead.append(False)
        dead[node] = True
    link = [0] * len(children)
    rows: list[dict] = [{}] * len(children)
    order = [0]
    for node in order:
        # The root links to itself, and its row is empty while it is built:
        # its missing moves and its children's links go to the root.
        back = rows[link[node]]
        dead[node] = dead[node] or dead[link[node]]
        row = {}
        for name in names:
            child = children[node].get(name)
            if child is None:
                row[name] = back.get(name, 0)
            else:
                link[child] = back.get(name, 0)
                order.append(child)
                row[name] = child
        rows[node] = row
    rows = [{name: t for name, t in row.items() if not dead[t]} for row in rows]
    return _tidy(rows, 0, {s for s, d in enumerate(dead) if not d}, names)


# --- Glushkov position construction for regexes -------------------------------


def _glushkov(node: RegexNode, symbols: list):
    """Return (nullable, first, last, follow). Symbol positions are numbered
    in traversal order: each one appends its symbol to `symbols`, so
    position p reads symbols[p]. follow maps a position to the positions
    that may come directly after it."""
    if isinstance(node, Epsilon):
        return True, set(), set(), {}
    if isinstance(node, Symbol):
        p = len(symbols)
        symbols.append(node.name)
        return False, {p}, {p}, {}
    if isinstance(node, Union):
        nullable, first, last, follow = False, set(), set(), {}
        for part in node.parts:
            n, f, l, fo = _glushkov(part, symbols)
            nullable = nullable or n
            first |= f
            last |= l
            _merge_follow(follow, fo)
        return nullable, first, last, follow
    if isinstance(node, Concat):
        nullable, first, last, follow = True, set(), set(), {}
        for part in node.parts:
            n, f, l, fo = _glushkov(part, symbols)
            _merge_follow(follow, fo)
            for p in last:
                follow.setdefault(p, set()).update(f)
            if nullable:
                first |= f
            last = l | (last if n else set())
            nullable = nullable and n
        return nullable, first, last, follow
    if isinstance(node, Star):
        _, first, last, follow = _glushkov(node.child, symbols)
        for p in last:
            follow.setdefault(p, set()).update(first)
        return True, first, last, follow
    raise TypeError(f"not a regex node: {node!r}")


def _merge_follow(into: dict, other: dict) -> None:
    for p, s in other.items():
        into.setdefault(p, set()).update(s)


def _regex_automaton(expr: RegexNode, names) -> ConstraintAutomaton:
    symbols_at: list = []
    nullable, first, last, follow = _glushkov(expr, symbols_at)

    # NFA states: -1 is the start, others are symbol positions; position q is
    # entered by reading its own symbol. Subset construction keys moves on
    # the symbol at the target position.
    def successors(nfa_state):
        return first if nfa_state == -1 else follow.get(nfa_state, ())

    def is_accepting(subset) -> bool:
        if nullable and -1 in subset:
            return True
        return not last.isdisjoint(subset)

    start = frozenset({-1})
    subset_ids = {start: 0}
    rows: list[dict] = [{}]
    accepting = set()
    if is_accepting(start):
        accepting.add(0)
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        sid = subset_ids[subset]
        moves: dict = {}
        for s in subset:
            for q in successors(s):
                moves.setdefault(symbols_at[q], set()).add(q)
        for sym in sorted(moves):
            target = frozenset(moves[sym])
            tid = subset_ids.get(target)
            if tid is None:
                if len(rows) >= STATE_LIMIT:
                    raise ResourceLimitError(
                        f"regex automaton exceeded the state limit of {STATE_LIMIT}"
                    )
                tid = len(rows)
                subset_ids[target] = tid
                rows.append({})
                if is_accepting(target):
                    accepting.add(tid)
                queue.append(target)
            rows[sid][sym] = tid

    transitions, initial, acc = _trim(rows, 0, accepting)
    transitions, initial, acc = _minimize(transitions, initial, acc, names)
    return _tidy(transitions, initial, acc, names)


# --- shared cleanup -----------------------------------------------------------


def _trim(rows, initial, accepting):
    """Drop states that are unreachable or cannot reach acceptance."""
    n = len(rows)
    reach = {initial}
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        for t in rows[s].values():
            if t not in reach:
                reach.add(t)
                queue.append(t)
    rev = [[] for _ in range(n)]
    for s, row in enumerate(rows):
        for t in row.values():
            rev[t].append(s)
    live = set(a for a in accepting if a in reach)
    queue = deque(live)
    while queue:
        t = queue.popleft()
        for s in rev[t]:
            if s in reach and s not in live:
                live.add(s)
                queue.append(s)
    if initial not in live:
        raise ValueError("constraint accepts no string at all")
    keep = sorted(live)
    renumber = {s: i for i, s in enumerate(keep)}
    out = []
    for s in keep:
        out.append({sym: renumber[t] for sym, t in rows[s].items() if t in live})
    return out, renumber[initial], {renumber[a] for a in accepting if a in live}


def _minimize(rows, initial, accepting, alphabet):
    """Moore partition refinement on a trim DFA; missing moves are a class."""
    n = len(rows)
    alphabet = sorted(alphabet)
    block = [1 if s in accepting else 0 for s in range(n)]
    while True:
        signatures: dict = {}
        new_block = [0] * n
        for s in range(n):
            sig = (
                block[s],
                tuple(
                    block[rows[s][sym]] if sym in rows[s] else -1 for sym in alphabet
                ),
            )
            bid = signatures.get(sig)
            if bid is None:
                bid = len(signatures)
                signatures[sig] = bid
            new_block[s] = bid
        if new_block == block:
            break
        block = new_block
    n_blocks = max(block) + 1
    out = [dict() for _ in range(n_blocks)]
    for s in range(n):
        for sym, t in rows[s].items():
            out[block[s]][sym] = block[t]
    return out, block[initial], {block[a] for a in accepting}


def _tidy(rows, initial, accepting, alphabet) -> ConstraintAutomaton:
    """Renumber states breadth-first from the initial state in sorted symbol
    order, so equal constraints always yield the identical automaton."""
    rows, initial, accepting = _trim(rows, initial, accepting)
    order = [initial]
    seen = {initial}
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        for sym in sorted(rows[s]):
            t = rows[s][sym]
            if t not in seen:
                seen.add(t)
                order.append(t)
    renumber = {s: i for i, s in enumerate(order)}
    transitions = tuple(
        {sym: renumber[t] for sym, t in rows[s].items()} for s in order
    )
    return ConstraintAutomaton(
        transitions, 0, frozenset(renumber[a] for a in accepting)
    )
