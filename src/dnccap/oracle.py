"""Brute-force ground truth: enumerate channel strings by exact weight.

The enumeration is one best-first walk over weight classes: a min-heap of
exact weight vectors, each queued class carrying the path count of every
(walk, automaton state) configuration that reaches it. Weights are
strictly positive, so every class popped at some weight received all of
its contributions from strictly smaller weights; counts are therefore
exact when popped. Strings in a deterministic automaton correspond
one-to-one to automaton paths, so aggregating counts per configuration
enumerates strings without storing them.

Each class is keyed by one int that packs its multiplicities in mixed
radix (see `_places`). A queued class is only its heap entry (float, key)
and its `pending` counts: the float comes from the key's digits, and the
WeightVectors of the recorded classes are decoded from their keys once,
at the end (`_vectors`). The series expansion packs and decodes its keys
the same way, but this module keeps its own code for it: the oracle
shares no code with the analytic routes it checks.

An automaton of one state, the free channel's and that of any constraint
whose trim DFA has one state, walks in a loop of its own: a queued class
carries one int, and symbols of equal weight are one step with their
number as multiplicity. Two or more states walk in the packed loop below,
which keeps a dict of counts per class. The choice reads only the
automaton's state count, and both loops give the same results to the bit.

`estimate_capacity` turns the same walk into a certified lower bound on
capacity. The walk runs one loop walk per automaton state q (up to
STATE_CAP), all in the same heap, counting the strings whose run starts
and ends at q (with q reachable and useful, which trim automata
guarantee). The loop walks travel together, each in its own slot of one
int per (weight class, state), so following an arc is one int addition
for all of them (see `_walk`). The initial state is state 0, and its
loop walk also records the series: the strings that run from it to an
accepting state. The return string sets are closed under concatenation,
so for any weight w with R_q[w] >= 1,

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

The work budget MAX_CONFIGS counts the (walk, state) configurations
actually walked, every loop walk's included, and is checked once per
popped class. When it runs out, the ResourceLimitError's `partial` holds
the series' completed weight classes, a prefix of the full series.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Mapping
from itertools import accumulate, chain, islice, repeat
from operator import floordiv, itemgetter, mod, mul, truediv

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
# Starting width in bits of one walk's slot in a packed count (see `_walk`).
# It only sets how many times a walk doubles the width; narrow slots make
# the additions of shallow walks cheap.
SLOT_BITS = 16


class EnumerationResult(Record):
    """Exact counts by weight, plus per-state return counts for estimation.

    `configurations` is what the budget counted, the (walk, state) pairs
    with a positive count in every popped weight class, the series walk
    being the initial state's loop walk; the walks share one packed int per
    (class, state), and the count is the same as when each pair had a dict
    entry of its own. `classes` is the number of heap pops.
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


def _places(values, cutoff: float, steps, budget: int) -> list[int]:
    """Place values of the walk's packed class keys.

    A class with multiplicities m is keyed by the int sum_i m_i * place_i,
    a mixed-radix number whose first atom is the most significant digit.
    The radix of atom i exceeds twice the largest digit D_i any queued
    class can carry, and twice every step's digit S_i, so the key of a
    successor, key + step key, has digits D_i + S_i below the radix and
    never carries: distinct vectors get distinct keys, and on vectors of
    such digits int order is tuple order.

    D_i is the smaller of two bounds, both exact ints:
      - cutoff: a class is queued when its computed value is <= cutoff.
        Each product m_j * v_j and the left-to-right sum of these
        nonnegative products lie within a relative (atoms + 2) * 2**-52
        of the exact values, so m_i * v_i <= 2 * cutoff * (1 - 2**-53)
        and m_i <= float(2 * cutoff / v_i). An infinite quotient gives no
        bound and is skipped, never turned into an int.
      - budget: a class is the sum of the steps of a chain of popped
        classes from weight zero, each pop counts at least one
        configuration, and at most `budget` configurations pass the
        budget check, so m_i <= budget * S_i.
    """
    places = []
    place = 1
    for i in reversed(range(len(values))):
        step_digit = max((step[i] for step in steps), default=0)
        digit = budget * step_digit
        quotient = 2.0 * cutoff / values[i]
        if not math.isinf(quotient):
            digit = min(digit, int(quotient))
        places.append(place)
        place *= 2 * max(digit, step_digit) + 1
    places.reverse()
    return places


def _slot_masks(n_slots: int, width: int, guard: int) -> tuple[int, int, int, int]:
    """Masks of n_slots slots of `width` bits: one slot's mask, then over
    every slot 2**(width - 1) - 1, the high bit, and the top `guard` bits."""
    mask = (1 << width) - 1
    unit = sum(1 << w * width for w in range(n_slots))
    top = mask >> width - guard << width - guard
    return mask, unit * (mask >> 1), unit << width - 1, unit * top


def _widen(packed: int, n_slots: int, nbytes: int) -> int:
    """`packed` with each of its n_slots slots, nbytes bytes each, moved
    into a slot twice as wide, order and values kept."""
    raw = packed.to_bytes(n_slots * nbytes, "little")
    pad = bytes(nbytes)
    return int.from_bytes(
        b"".join([raw[i : i + nbytes] + pad for i in range(0, len(raw), nbytes)]), "little"
    )


def _vectors(keys: list[int], places: list[int]) -> list[WeightVector]:
    """The WeightVector of each packed key, decoded column by column: a
    digit is the quotient by its atom's place of what the more significant
    digits leave, and the last digit is the remainder."""
    columns = []
    low = keys
    for place in places[:-1]:
        columns.append(list(map(floordiv, low, repeat(place))))
        low = list(map(mod, low, repeat(place)))
    columns.append(low)
    # Every class is a sum of symbol weights, so its digits are valid.
    return list(map(tuple.__new__, repeat(WeightVector), zip(*columns)))


def _walk(
    spec: ChannelSpec, machine: ConstraintAutomaton, cutoff: float, n_loops: int
) -> tuple[list, list, list, float, int, int]:
    """Series and return counts of one best-first walk over weight classes.

    Walk w < n_loops counts the paths that start at state w and records
    those ending back at w. Walk 0 starts at state 0, the initial state of
    every automaton `automaton.for_spec` builds, so it also records the
    paths ending in an accepting state: the series. Without loop walks
    (n_loops == 0) walk 0 runs for the series alone. A min-heap pops
    weight classes in (numeric weight, multiplicities) order: each class
    is keyed by one int that packs its multiplicities (see `_places`), so
    a successor's key is one int addition and ties in weight pop in
    multiplicity order. Every contribution to a class comes from a
    strictly lighter one, so a popped class is final. Per popped class the
    walk computes one successor key per distinct symbol weight; a new
    successor's numeric weight is computed once, from the key's digits,
    and it is queued as (weight, key) only within the cutoff and only if
    some arc reaches it. The pop order is the order of weight_sort_key, so
    each walk's records come out in series order. Every recorded count is
    at least 1. Records are flat lists of keys and counts until the walk
    ends, when `_decode` turns each recorded key into one WeightVector.

    An automaton of one state, which every free channel has, walks in
    `_single_walk`, which needs none of what follows: a class carries one
    int, its path count, and the symbols of one weight are one step whose
    multiplicity is their number. Both loops pop the same classes in the
    same order, count the same configurations and compute the same floats.

    With two or more states the walks travel together. `pending` maps each
    queued class to one int per automaton state, whose slot w, `width` bits
    wide, holds walk w's path count, so following an arc is one int
    addition for every walk at once. The series is slot 0 summed over the accepting states; the
    return to state q is slot q at state q.

    No slot ever carries into the next. With the largest in-degree below
    2**h, the top `guard` = 2h bits of every slot are its guard bits. Once
    a popped class's arcs are followed, a guard bit set in any of its
    entries doubles `width` and repacks every queued int, so every entry
    added so far is below 2**(width - guard). A popped entry is the sum of
    at most in-degree of these, so it is below 2**(width - h), and the
    entries it is added to stay below 2**width. A doubling keeps every
    entry added so far below 2**(width - guard) as long as width >= h; the
    width starts at SLOT_BITS, doubled until it exceeds the guard. Slots
    grow with the counts the walk reaches, never with the cutoff. A single
    walk has one unbounded slot, with no guard and no repacking.

    The budget counts the (walk, state) pairs of each popped class with a
    positive count. For a single walk these are the class's entries; with
    several, the nonzero slots, found by adding 2**(width - 1) - 1 to every
    slot: a popped slot is below 2**(width - 1), so its high bit is then
    set exactly when it is not 0. The budget is checked once per popped
    class, here once its arcs are followed; past MAX_CONFIGS the
    ResourceLimitError's `partial` holds the series' weight classes
    completed before that class, their keys decoded there.

    Returns (series pairs, per-walk return pairs, series weights, loop
    bound, configurations, classes). The pairs are (WeightVector, count),
    the walks sharing one WeightVector per recorded class; the series
    weights are the floats the walk queued each series class with, the int
    0 at weight zero as WeightVector.value gives it; the loop bound is the
    best ln(count) / weight over the returns at positive weight, 0.0 if
    none exceeds it.
    """
    values = spec.basis.values()
    step_index: dict[tuple[int, ...], int] = {}
    step_of = {
        sym.name: step_index.setdefault(sym.weight.mults, len(step_index))
        for sym in spec.symbols
    }
    places = _places(values, cutoff, list(step_index), MAX_CONFIGS)
    step_keys = [sum(map(mul, step, places)) for step in step_index]
    # A key's digits, most significant first: the quotient by each leading
    # place, and the remainder last. A channel's symbols have positive
    # weight, so its basis has an atom.
    lead = list(zip(places, values))[:-1]
    last = values[-1]
    if machine.n_states == 1:
        steps = Counter(step_keys[step_of[name]] for name in machine.transitions[0])
        return _single_walk(list(steps.items()), lead, last, places, cutoff, n_loops)
    max_configs = MAX_CONFIGS
    heappop, heappush = heapq.heappop, heapq.heappush
    n = machine.n_states
    # One arc list per state: (step index, next state).
    arcs = [
        tuple((step_of[name], nxt) for name, nxt in row.items()) for row in machine.transitions
    ]
    # What a state records: bit 1 the series, bit 2 the return of its own walk.
    record = [0] * n
    for a in machine.accepting:
        record[a] = 1
    for q in range(n_loops):
        record[q] |= 2
    n_walks = max(n_loops, 1)
    many = n_walks > 1
    if many:
        indegree = [0] * n
        for row in machine.transitions:
            for nxt in row.values():
                indegree[nxt] += 1
        guard = 2 * max(indegree).bit_length()
        # Doubling from SLOT_BITS keeps the width a whole number of bytes.
        width = SLOT_BITS
        while width <= guard:
            width *= 2
        mask, below_high, high, guard_bits = _slot_masks(n_walks, width, guard)
    else:
        width = guard_bits = 0
    pending: dict[int, dict[int, int]] = {0: {q: 1 << q * width for q in range(n_walks)}}
    # Weight zero is the int 0, as WeightVector.value gives it to the
    # series; the zero vector's key is 0 too.
    heap: list[tuple[float, int]] = [(0, 0)]
    series_keys: list[int] = []
    series_counts: list[int] = []
    weights: list[float] = []
    loop_keys: list[list[int]] = [[] for _ in range(n_loops)]
    loop_counts: list[list[int]] = [[] for _ in range(n_loops)]
    loop_bound = 0.0
    log = math.log
    configurations = classes = 0
    while heap:
        value, key = heappop(heap)
        configs = pending.pop(key)
        classes += 1
        if not many:
            configurations += len(configs)
        targets = []
        fresh = []
        for step_key in step_keys:
            nkey = key + step_key
            target = pending.get(nkey)
            if target is None:
                # WeightVector.value's left-to-right sum of the key's digits.
                nvalue = 0.0
                low = nkey
                for place, v in lead:
                    digit, low = divmod(low, place)
                    nvalue += digit * v
                nvalue += low * last
                if nvalue <= cutoff:
                    target = {}
                    fresh.append((nvalue, nkey, target))
            targets.append(target)
        accepted = seen = 0
        for state, packed in configs.items():
            if many:
                seen |= packed
                configurations += (packed + below_high & high).bit_count()
            kind = record[state]
            if kind:
                if kind & 1:
                    accepted += packed & mask if many else packed
                if kind & 2:
                    count = packed >> state * width & mask if many else packed
                    if count:
                        loop_keys[state].append(key)
                        loop_counts[state].append(count)
                        # A count of 1 bounds nothing, and every return at weight 0 is 1.
                        if count > 1:
                            bound = log(count) / value
                            if bound > loop_bound:
                                loop_bound = bound
            for i, nxt in arcs[state]:
                target = targets[i]
                if target is not None:
                    target[nxt] = target.get(nxt, 0) + packed
        if configurations > max_configs:
            raise _budget_error(series_keys, series_counts, places, value, cutoff)
        if accepted:
            series_keys.append(key)
            series_counts.append(accepted)
            weights.append(value)
        for nvalue, nkey, target in fresh:
            if target:
                pending[nkey] = target
                heappush(heap, (nvalue, nkey))
        if seen & guard_bits:
            nbytes = width // 8
            for entries in pending.values():
                for state, packed in entries.items():
                    entries[state] = _widen(packed, n_walks, nbytes)
            width *= 2
            mask, below_high, high, guard_bits = _slot_masks(n_walks, width, guard)
    series, *loops = _decode(places, [(series_keys, series_counts), *zip(loop_keys, loop_counts)])
    return series, loops, weights, loop_bound, configurations, classes


def _single_walk(
    steps: list[tuple[int, int]],
    lead: list,
    last: float,
    places: list[int],
    cutoff: float,
    n_loops: int,
) -> tuple[list, list, list, float, int, int]:
    """`_walk` on an automaton of one state, its arcs given as `steps`, the
    (step key, multiplicity) pairs. `pending` maps a queued class's key to
    its path count, and following a step adds the count times the
    multiplicity to the successor. Every popped class is one configuration
    and one series record. The state is initial and, the automaton being
    trim, accepting, so walk 0, the only loop walk, returns to it at every
    series class: the returns are the series list itself.
    """
    max_configs = MAX_CONFIGS
    heappop, heappush = heapq.heappop, heapq.heappush
    pending = {0: 1}
    heap: list[tuple[float, int]] = [(0, 0)]
    keys: list[int] = []
    counts: list[int] = []
    weights: list[float] = []
    while heap:
        value, key = heappop(heap)
        count = pending.pop(key)
        if len(keys) >= max_configs:
            raise _budget_error(keys, counts, places, value, cutoff)
        keys.append(key)
        counts.append(count)
        weights.append(value)
        for step_key, mult in steps:
            nkey = key + step_key
            if nkey in pending:
                pending[nkey] += count * mult
            else:
                # WeightVector.value's left-to-right sum of the key's digits.
                nvalue = 0.0
                low = nkey
                for place, v in lead:
                    digit, low = divmod(low, place)
                    nvalue += digit * v
                nvalue += low * last
                if nvalue <= cutoff:
                    pending[nkey] = count * mult
                    heappush(heap, (nvalue, nkey))
    (series,) = _decode(places, [(keys, counts)])
    loop_bound = 0.0
    if n_loops:
        # The first return is the zero class, of count 1; ln(1) / w is 0.0.
        loop_bound = max(map(truediv, map(math.log, counts[1:]), weights[1:]), default=0.0)
    return series, [series] * n_loops, weights, loop_bound, len(keys), len(keys)


def _decode(places: list[int], records: list[tuple[list, list]]) -> list[list]:
    """The (WeightVector, count) pairs of each (keys, counts) record list.
    Every recorded key is decoded once, and all lists that record it share
    its WeightVector. A class is popped once, so one list has no key twice."""
    if len(records) == 1:
        ((keys, counts),) = records
        return [list(zip(_vectors(keys, places), counts))]
    recorded = list(dict.fromkeys(chain.from_iterable(keys for keys, _ in records)))
    vector = dict(zip(recorded, _vectors(recorded, places))).__getitem__
    return [list(zip(map(vector, keys), counts)) for keys, counts in records]


def _budget_error(
    keys: list[int], counts: list[int], places: list[int], value: float, cutoff: float
) -> ResourceLimitError:
    """The error of a walk past MAX_CONFIGS at the class of weight `value`,
    whose `partial` holds the series records before it."""
    return ResourceLimitError(
        f"enumeration exceeded {MAX_CONFIGS} configurations "
        f"(reached weight {value:.6g} of cutoff {cutoff:.6g})",
        partial=dict(zip(_vectors(keys, places), counts)),
    )


def enumerate_channel(
    spec: ChannelSpec,
    cutoff: float,
    *,
    with_loops: bool = True,
) -> EnumerationResult:
    """Enumerate all channel strings of weight <= cutoff, grouped by weight.

    With `with_loops` the same walk also counts, for each of the first
    STATE_CAP automaton states, the paths that return to it: the return
    counts the capacity estimator needs. The first of these loop walks,
    from the initial state, is also the series walk. All walks share one
    heap of weight classes and one budget of MAX_CONFIGS (walk, state,
    weight) configurations, checked once per popped class. When the
    budget runs out, the ResourceLimitError's `partial` holds the series'
    completed weight classes, a prefix of the full series.
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
    # The weights strictly increase, so only the first can be 0; the
    # proxy takes the heavier half of the positive ones.
    values = series._values
    first = 0 if values[0] else 1
    start = first + (len(values) - first) // 2
    if len(values) > first:
        running = islice(accumulate(map(itemgetter(1), series.entries)), start, None)
        proxy = min(map(truediv, map(math.log, running), values[start:]))
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
