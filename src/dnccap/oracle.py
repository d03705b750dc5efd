"""Brute-force ground truth: enumerate channel strings by exact weight.

The enumeration is one best-first walk over weight classes: a min-heap of
exact weight vectors, each queued class carrying the path count of every
(walk, automaton state) configuration that reaches it. Weights are
strictly positive, so every class popped at some weight received all of
its contributions from strictly smaller weights; counts are therefore
exact when popped. Strings in a deterministic automaton correspond
one-to-one to automaton paths, so aggregating counts per configuration
enumerates strings without storing them.

`estimate_capacity` turns the same walk into a certified lower bound on
capacity. Next to the series walk from the initial state, the walk runs
one loop walk per automaton state q (up to STATE_CAP), all in the same
heap, counting the strings whose run starts and ends at q (with q
reachable and useful, which trim automata guarantee). Those string sets
are closed under concatenation, so for any weight w with R_q[w] >= 1,

    capacity >= ln(R_q[w]) / w.

The estimate is the best such bound over all states and enumerated
weights; it can only improve as the cutoff grows. The companion upper
proxy min over large enumerated weights of ln(N[w]) / w gives the
reported uncertainty. The walk keeps the best bound as it records the
return counts and hands the series the float weight it queued each class
with, so the estimate computes no weight again.

A trim automaton without a cycle accepts finitely many strings, so its
capacity is 0 exactly, whatever the cutoff; the estimate says so instead
of bounding it. This check reads the automaton only, not the counting
quotient of the analytic routes.

The work budget MAX_CONFIGS counts configurations, every walk's included,
and is checked once per popped class. When it runs out, the
ResourceLimitError's `partial` holds the series' completed weight
classes, a prefix of the full series.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from operator import add, mul

from . import automaton as automaton_mod
from ._record import Record
from .automaton import ConstraintAutomaton
from .chanspec import ChannelSpec
from .errors import InsufficientDataError, ResourceLimitError
from .genpoly import CoefficientSeries, WeightVector
from .solver import CapacityReport

# One enumeration, loop walks included, counts at most this many
# (walk, state, weight) configurations.
MAX_CONFIGS = 1_000_000
STATE_CAP = 64


class EnumerationResult(Record):
    """Exact counts by weight, plus per-state return counts for estimation.

    `configurations` is what the budget counted, the (walk, state) entries
    of every popped weight class; `classes` is the number of heap pops.
    `loop_bound` is the best ln(count) / weight over the return counts in
    `loop_counts`, 0.0 when there are none. `finite` is True when the
    channel's automaton has no cycle, so the channel has finitely many
    strings.
    """

    __slots__ = (
        "series",
        "loop_counts",
        "n_states",
        "states_analyzed",
        "configurations",
        "classes",
        "loop_bound",
        "finite",
    )
    series: CoefficientSeries
    loop_counts: Mapping[int, tuple[tuple[WeightVector, int], ...]]
    n_states: int
    states_analyzed: int
    configurations: int
    classes: int
    loop_bound: float
    finite: bool


def _walk(
    spec: ChannelSpec, machine: ConstraintAutomaton, cutoff: float, n_loops: int
) -> tuple[list, list, list, float, int, int]:
    """Series and return counts of one best-first walk over weight classes.

    Walk w < n_loops counts the paths that start at state w and records
    those ending back at w; walk n_loops counts the paths from the initial
    state and records those ending in an accepting state. A min-heap pops
    weight classes in (numeric weight, multiplicities) order, and
    `pending` holds each queued class's path counts keyed by
    walk * n_states + state. Every contribution to a class comes from a
    strictly lighter one, so a popped class is final. Per popped class the
    walk computes one successor class per distinct symbol weight, whose
    numeric weight is computed once and queued only within the cutoff and
    only if some arc reaches it, then makes one dict update per (walk,
    state, arc). The pop order is the order of weight_sort_key, so each
    walk's records come out in series order. Every recorded count is at
    least 1. The budget counts the (walk, state) entries of each popped
    class; past MAX_CONFIGS the ResourceLimitError's `partial` holds the
    series' weight classes completed before that class.

    Returns (series pairs, per-walk return pairs, series weights, loop
    bound, configurations, classes). The pairs are (WeightVector, count),
    the walks sharing one WeightVector per recorded class; the series
    weights are the floats the walk queued each series class with, the int
    0 at weight zero as WeightVector.value gives it; the loop bound is the
    best ln(count) / weight over the returns at positive weight, 0.0 if
    none exceeds it.
    """
    max_configs = MAX_CONFIGS
    heappop, heappush = heapq.heappop, heapq.heappush
    n = machine.n_states
    values = spec.basis.values()
    step_index: dict[tuple[int, ...], int] = {}
    step_of = {
        sym.name: step_index.setdefault(sym.weight.mults, len(step_index))
        for sym in spec.symbols
    }
    steps = list(step_index)
    # One arc list per key, shared by every walk: (step index, key offset).
    arcs = [
        tuple((step_of[name], nxt - state) for name, nxt in row.items())
        for state, row in enumerate(machine.transitions)
    ] * (n_loops + 1)
    series_base = n_loops * n
    record = {series_base + a: -1 for a in machine.accepting}
    record.update((q * n + q, q) for q in range(n_loops))
    zero = (0,) * len(values)
    start = {q * n + q: 1 for q in range(n_loops)}
    start[series_base + machine.initial] = 1
    pending: dict[tuple[int, ...], dict[int, int]] = {zero: start}
    # The int 0, as WeightVector.value gives weight zero to the series.
    heap = [(0, zero)]
    series: list[tuple[WeightVector, int]] = []
    weights: list[float] = []
    loops: list[list[tuple[WeightVector, int]]] = [[] for _ in range(n_loops)]
    loop_bound = 0.0
    log = math.log
    # Every class is a sum of symbol weights, so a valid vector.
    vector = WeightVector._unchecked
    configurations = classes = 0
    while heap:
        value, mults = heappop(heap)
        configs = pending.pop(mults)
        classes += 1
        configurations += len(configs)
        if configurations > max_configs:
            raise ResourceLimitError(
                f"enumeration exceeded {max_configs} configurations "
                f"(reached weight {value:.6g} of cutoff {cutoff:.6g})",
                partial=dict(series),
            )
        targets = []
        fresh = []
        for step in steps:
            nmults = tuple(map(add, mults, step))
            target = pending.get(nmults)
            if target is None:
                nvalue = sum(map(mul, nmults, values))
                if nvalue <= cutoff:
                    target = {}
                    fresh.append((nvalue, nmults, target))
            targets.append(target)
        accepted = 0
        wv = None
        for key, count in configs.items():
            slot = record.get(key)
            if slot is not None:
                if slot < 0:
                    accepted += count
                else:
                    if wv is None:
                        wv = vector(mults)
                    loops[slot].append((wv, count))
                    # A count of 1 bounds nothing, and every return at weight 0 is 1.
                    if count > 1:
                        bound = log(count) / value
                        if bound > loop_bound:
                            loop_bound = bound
            for i, offset in arcs[key]:
                target = targets[i]
                if target is not None:
                    nkey = key + offset
                    target[nkey] = target.get(nkey, 0) + count
        if accepted:
            if wv is None:
                wv = vector(mults)
            series.append((wv, accepted))
            weights.append(value)
        for nvalue, nmults, target in fresh:
            if target:
                pending[nmults] = target
                heappush(heap, (nvalue, nmults))
    return series, loops, weights, loop_bound, configurations, classes


def enumerate_channel(
    spec: ChannelSpec,
    cutoff: float,
    *,
    with_loops: bool = True,
) -> EnumerationResult:
    """Enumerate all channel strings of weight <= cutoff, grouped by weight.

    With `with_loops` the same walk also counts, for each of the first
    STATE_CAP automaton states, the paths that return to it: the return
    counts the capacity estimator needs. All walks share one heap of
    weight classes and one budget of MAX_CONFIGS (walk, state, weight)
    configurations, checked once per popped class. When the budget runs
    out, the ResourceLimitError's `partial` holds the series' completed
    weight classes, a prefix of the full series.
    """
    cutoff = float(cutoff)
    if not cutoff >= 0 or math.isinf(cutoff):
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff!r}")
    machine = automaton_mod.for_spec(spec)
    n_loops = min(machine.n_states, STATE_CAP) if with_loops else 0
    series, loops, weights, loop_bound, configurations, classes = _walk(
        spec, machine, cutoff, n_loops
    )
    loop_counts: dict[int, tuple[tuple[WeightVector, int], ...]] = {}
    for state, returns in enumerate(loops):
        # The first return of every loop walk is its own start, at weight 0.
        if len(returns) > 1:
            loop_counts[state] = tuple(returns[1:])
    return EnumerationResult(
        series=CoefficientSeries._from_values(spec.basis, series, weights, cutoff),
        loop_counts=loop_counts,
        n_states=machine.n_states,
        states_analyzed=n_loops,
        configurations=configurations,
        classes=classes,
        loop_bound=loop_bound,
        finite=machine.is_acyclic(),
    )


def enumerate_by_weight(spec: ChannelSpec, cutoff: float) -> CoefficientSeries:
    """Exact (weight, count) series of the channel up to the cutoff."""
    return enumerate_channel(spec, cutoff, with_loops=False).series


def estimate_capacity(enum: EnumerationResult) -> CapacityReport:
    """Certified lower bound on capacity from an enumeration.

    The bound is the best ln(return count) / weight over automaton states;
    it never decreases as the enumeration cutoff grows. The error bound
    pairs it with the upper proxy min over the heavier half of enumerated
    weights of ln(cumulative string count up to w) / w. Cumulative counts
    stay meaningful when individual weight classes are sparse (mixed
    irrational weights leave classes of count 1 at every cutoff); the
    proxy is not certified, but the gap shrinks as the cutoff grows.

    A finite channel (`enum.finite`) has capacity 0 exactly, at every
    cutoff, with error bound 0.
    """
    series = enum.series
    if enum.finite:
        return CapacityReport(
            method="oracle-estimate",
            radius_or_pole=math.inf,
            capacity_nats=0.0,
            error_bound=0.0,
            iterations=len(series.entries),
            note="automaton has no cycle; finitely many strings, capacity 0",
        )
    if sum(1 for _, c in series.entries if c >= 1) < 2:
        raise InsufficientDataError(
            "enumeration found fewer than two weights with strings; "
            "raise the cutoff"
        )
    estimate = enum.loop_bound
    cumulative: list[tuple[float, int]] = []
    running = 0
    for value, c in series.pairs():
        running += c
        if value:
            cumulative.append((value, running))
    if cumulative:
        upper_half = cumulative[len(cumulative) // 2 :]
        proxy = min(math.log(c) / w for w, c in upper_half)
    else:
        proxy = 0.0
    gap = max(0.0, proxy - estimate)
    return CapacityReport(
        method="oracle-estimate",
        radius_or_pole=math.exp(-estimate),
        capacity_nats=estimate,
        error_bound=gap,
        iterations=len(series.entries),
        note=(
            f"lower bound from {enum.states_analyzed} of {enum.n_states} "
            f"automaton state(s); upper proxy {proxy:.6g}"
        ),
    )
