"""Brute-force ground truth: enumerate channel strings by exact weight.

The enumeration is a best-first walk over (automaton state, exact weight
vector) configurations. Weights are strictly positive, so every
configuration popped at some weight received all of its contributions from
strictly smaller weights; counts are therefore exact when popped. Strings
in a deterministic automaton correspond one-to-one to automaton paths, so
aggregating counts per configuration enumerates strings without storing
them.

`estimate_capacity` turns the same walk into a certified lower bound on
capacity. For each automaton state q it counts the strings whose run
starts and ends at q (with q reachable and useful, which trim automata
guarantee). Those string sets are closed under concatenation, so for any
weight w with R_q[w] >= 1,

    capacity >= ln(R_q[w]) / w.

The estimate is the best such bound over all states and enumerated
weights; it can only improve as the cutoff grows. The companion upper
proxy min over large enumerated weights of ln(N[w]) / w gives the
reported uncertainty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import add
from typing import Mapping

from . import automaton as automaton_mod
from .automaton import ConstraintAutomaton
from .chanspec import ChannelSpec
from .errors import InsufficientDataError, ResourceLimitError
from .genpoly import CoefficientSeries, WeightVector
from .solver import CapacityReport

# One enumeration, loop walks included, pops at most this many
# configurations.
MAX_CONFIGS = 1_000_000
STATE_CAP = 64


@dataclass(frozen=True)
class EnumerationResult:
    """Exact counts by weight, plus per-state return counts for estimation."""

    series: CoefficientSeries
    loop_counts: Mapping[int, tuple[tuple[WeightVector, int], ...]]
    n_states: int
    states_analyzed: int


def _count_paths(
    spec: ChannelSpec,
    machine: ConstraintAutomaton,
    start: int,
    targets,
    cutoff: float,
    budget: list,
) -> tuple[tuple[WeightVector, int], ...]:
    """(weight vector, count) of automaton paths start -> targets, in
    series order.

    A min-heap pops (multiplicities, state) configurations in (numeric
    weight, multiplicities, state) order, and `pending` holds the path
    count reaching each queued one. All contributions to a configuration
    come from strictly lighter ones, so its count is final when popped.
    The numeric weight is computed once, when a configuration first
    appears, exactly as WeightVector.value computes it; the pop order is
    therefore the order of weight_sort_key, and each weight vector enters
    the output the first time the walk meets it, already in place. Every
    recorded count is at least 1. Each popped configuration costs one dict
    update per arc. Keys are raw int tuples, turned into WeightVectors
    only in the result and in a budget error's partial counts. `budget`
    is a single-element mutable pop counter shared across calls, which
    may reach MAX_CONFIGS.
    """
    max_configs = MAX_CONFIGS
    values = spec.basis.values()
    arcs = [(sym.name, sym.weight.mults) for sym in spec.symbols]
    zero = (0,) * len(values)
    pending: dict[tuple[tuple[int, ...], int], int] = {(zero, start): 1}
    heap = [(0.0, zero, start)]
    out: dict[tuple[int, ...], int] = {}
    while heap:
        value, mults, state = heapq.heappop(heap)
        count = pending.pop((mults, state))
        budget[0] += 1
        if budget[0] > max_configs:
            raise ResourceLimitError(
                f"enumeration exceeded {max_configs} configurations "
                f"(reached weight {value:.6g} of cutoff {cutoff:.6g})",
                partial={WeightVector(m): c for m, c in out.items()},
            )
        if state in targets:
            out[mults] = out.get(mults, 0) + count
        row = machine.transitions[state]
        for name, step in arcs:
            nxt = row.get(name)
            if nxt is None:
                continue
            nmults = tuple(map(add, mults, step))
            nkey = (nmults, nxt)
            if nkey in pending:
                pending[nkey] += count
                continue
            nvalue = sum(m * v for m, v in zip(nmults, values) if m)
            if nvalue <= cutoff:
                pending[nkey] = count
                heapq.heappush(heap, (nvalue, nmults, nxt))
    return tuple((WeightVector(m), c) for m, c in out.items())


def enumerate_channel(
    spec: ChannelSpec,
    cutoff: float,
    *,
    with_loops: bool = True,
) -> EnumerationResult:
    """Enumerate all channel strings of weight <= cutoff, grouped by weight.

    With `with_loops` the walk is repeated from each of the first
    STATE_CAP automaton states to collect the return counts the capacity
    estimator needs. The walks share one budget of MAX_CONFIGS popped
    configurations.
    """
    cutoff = float(cutoff)
    if not cutoff >= 0 or math.isinf(cutoff):
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff!r}")
    machine = automaton_mod.for_spec(spec)
    budget = [0]
    entries = _count_paths(spec, machine, machine.initial, machine.accepting, cutoff, budget)
    series = CoefficientSeries(spec.basis, entries, cutoff)
    loop_counts: dict[int, tuple[tuple[WeightVector, int], ...]] = {}
    analyzed = 0
    if with_loops:
        for state in range(min(machine.n_states, STATE_CAP)):
            returns = _count_paths(spec, machine, state, {state}, cutoff, budget)
            analyzed += 1
            pairs = tuple((wv, c) for wv, c in returns if not wv.is_zero())
            if pairs:
                loop_counts[state] = pairs
    return EnumerationResult(
        series=series,
        loop_counts=loop_counts,
        n_states=machine.n_states,
        states_analyzed=analyzed,
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
    """
    series = enum.series
    if sum(1 for _, c in series.entries if c >= 1) < 2:
        raise InsufficientDataError(
            "enumeration found fewer than two weights with strings; "
            "raise the cutoff"
        )
    basis = series.basis
    estimate = 0.0
    for pairs in enum.loop_counts.values():
        for wv, count in pairs:
            if count >= 1:
                bound = math.log(count) / wv.value(basis)
                if bound > estimate:
                    estimate = bound
    cumulative: list[tuple[float, int]] = []
    running = 0
    for wv, c in series.entries:
        running += c
        if not wv.is_zero():
            cumulative.append((wv.value(basis), running))
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
