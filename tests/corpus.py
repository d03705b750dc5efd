"""Shared channel corpus and naive reference implementations.

The matchers and the enumerator here deliberately avoid the package's
automaton and generating function machinery, so cross-checks against them
are independent: membership is substring search for forbidden patterns and
a memoized recursive matcher for regex syntax trees, and enumeration is
exhaustive generation of every alphabet string under the weight cutoff.
`reference_expand_series` is the former series expansion, one power of the
denominator's growth part at a time, kept as an independent reference for
the weight-ordered recurrence in `expand_series`, and `reference_evaluate`
is the former float evaluation, which recomputed every weight's value on
each call, kept as the reference for the cached exponents.
`reference_check_density` is the former density check, a numpy
least-squares fit over counts taken by a scan of every weight, kept as the
reference for the closed-form fit in `check_density`.
`reference_pattern_automaton` is the former forbidden-pattern automaton,
an Aho-Corasick trie with failure links, kept as the reference for the
construction on pattern prefixes.
`reference_bracket_denominator_roots` is the former pole scan, which
evaluated the denominator at every grid point, kept as the reference for
the scan that skips the grid runs whose sign a bound proves.
`reference_correlation_quotient` is the former single-pattern quotient
from the pattern's autocorrelation (Guibas & Odlyzko), kept as the
reference for the one-pattern case of the cluster quotient.
`reference_count_paths` is the former enumeration walk, one heap of
(weight, state) configurations per start state, and
`reference_enumerate_channel` its composition into the series walk and
one loop walk per state; they are kept as the reference for the single
walk over weight classes that `enumerate_channel` shares among them.
`reference_is_acyclic` checks each state for a path back to itself, the
reference for the topological sort of `ConstraintAutomaton.is_acyclic`.
`reference_weight_value` is the former `WeightVector.value`, a sum over
the nonzero terms only, kept as the reference for the weight expression
that sums every term.
`ReferenceWeightVector` is the former `WeightVector`, a frozen dataclass
around a tuple of multiplicities, kept as the reference for the tuple
subclass that replaced it, and `reference_estimate_capacity` the former
`estimate_capacity`, which recomputed the float weight of every return
count and series entry, kept as the reference for the estimate that reads
the floats the walk computed.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from pathlib import Path

from dnccap import ChannelSpec, load_spec, oracle
from dnccap import automaton as automaton_mod
from dnccap.automaton import ConstraintAutomaton, _tidy
from dnccap.chanspec import (
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
from dnccap.errors import (
    BasisMismatchError,
    EvalOverflowError,
    ExpansionError,
    InsufficientDataError,
    ResourceLimitError,
)
from dnccap.genpoly import (
    CoefficientSeries,
    GeneralizedPolynomial,
    RationalGF,
    WeightBasis,
    WeightVector,
    weight_sort_key,
)
from dnccap.solver import (
    DEFAULT_TOL,
    GRID_STEP,
    Y_MAX,
    CapacityReport,
    DensityReport,
    RootResult,
)

CHANNELS_DIR = Path(__file__).resolve().parent.parent / "channels"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "capacity"


def cli_env() -> dict[str, str]:
    """Environment for a child `python -m dnccap` that imports this checkout."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), path]))}

# Shipped channels with enumeration cutoffs that yield at least 200 strings.
SHIPPED_CUTOFFS = {
    "ex2.json": 18.0,
    "ex3.json": 10.0,
    "unary.json": 200.0,
    "binary.json": 8.0,
    "avoid11.json": 13.0,
    "avoid11-regex.json": 13.0,
    "avoid101.json": 11.0,
    "mixed-free.json": 14.0,
    "half-step.json": 8.0,
    "two-patterns.json": 25.0,
}

# Cutoffs small enough for exhaustive naive enumeration.
NAIVE_CUTOFFS = {
    "ex2.json": 8.0,
    "ex3.json": 7.0,
    "unary.json": 7.0,
    "binary.json": 7.0,
    "avoid11.json": 7.0,
    "avoid11-regex.json": 7.0,
    "avoid101.json": 7.0,
    "mixed-free.json": 8.0,
    "half-step.json": 5.0,
    "two-patterns.json": 12.0,
}


def load_channel(name: str) -> ChannelSpec:
    return load_spec(CHANNELS_DIR / name)


def random_code_channel(seed: int) -> str:
    """JSON text for a seeded random prefix-free code channel.

    Starts from the two one-letter words and repeatedly splits a random
    word w into w0 and w1, which keeps the set prefix-free; the channel is
    the star of the word union, which prefix-freeness makes unambiguous.
    Odd seeds get mixed symbol weights.
    """
    rng = random.Random(seed)
    words = {"0", "1"}
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(sorted(words))
        words.remove(w)
        words.add(w + "0")
        words.add(w + "1")
    expr = "(" + "|".join(sorted(words)) + ")*"
    if seed % 2:
        atoms = {"unit": 1.0, "half": 0.5}
        weights = [{"unit": 1}, {"half": 3}]
    else:
        atoms = {"unit": 1.0}
        weights = [{"unit": 1}, {"unit": 2}]
    doc = {
        "atoms": atoms,
        "symbols": [
            {"name": "0", "weight": weights[0]},
            {"name": "1", "weight": weights[1]},
        ],
        "constraint": {"type": "regex", "expr": expr, "unambiguous": True},
    }
    return json.dumps(doc)


RANDOM_SEEDS = (11, 14)
RANDOM_CODE_CUTOFFS = {11: 16.0, 14: 16.0}


# --- naive membership ----------------------------------------------------------


def naive_regex_match(node: RegexNode, seq: tuple) -> bool:
    """Span-based recursive matcher, memoized; no automata involved."""
    memo: dict = {}

    def match(n: RegexNode, i: int, j: int) -> bool:
        key = (id(n), i, j)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(n, Epsilon):
            result = i == j
        elif isinstance(n, Symbol):
            result = j == i + 1 and seq[i] == n.name
        elif isinstance(n, Union):
            result = any(match(part, i, j) for part in n.parts)
        elif isinstance(n, Concat):

            def split(parts, a, b):
                if len(parts) == 1:
                    return match(parts[0], a, b)
                return any(
                    match(parts[0], a, k) and split(parts[1:], k, b)
                    for k in range(a, b + 1)
                )

            result = split(list(n.parts), i, j)
        elif isinstance(n, Star):
            if i == j:
                result = True
            else:
                result = any(
                    match(n.child, i, k) and match(n, k, j) for k in range(i + 1, j + 1)
                )
        else:
            raise TypeError(f"not a regex node: {n!r}")
        memo[key] = result
        return result

    return match(node, 0, len(seq))


def naive_accepts(spec: ChannelSpec, seq: tuple) -> bool:
    constraint = spec.constraint
    if isinstance(constraint, Free):
        return True
    if isinstance(constraint, ForbiddenPatterns):
        for pattern in constraint.patterns:
            k = len(pattern)
            if any(seq[i : i + k] == pattern for i in range(len(seq) - k + 1)):
                return False
        return True
    if isinstance(constraint, Regex):
        return naive_regex_match(constraint.expr, seq)
    raise TypeError(f"not a constraint: {constraint!r}")


def naive_enumerate(spec: ChannelSpec, cutoff: float) -> dict[tuple, int]:
    """Counts of accepted strings by exact weight vector, brute force.

    Generates every alphabet string under the cutoff and tests membership
    one string at a time. Weight vectors are integer tallies, so the keys
    agree exactly with the package's representation.
    """
    basis = spec.basis
    arcs = [(s.name, s.weight.mults) for s in spec.symbols]
    values = basis.values()

    def value(mults: tuple) -> float:
        return sum(m * v for m, v in zip(mults, values) if m)

    counts: dict[tuple, int] = {}
    stack = [((), tuple(0 for _ in values))]
    while stack:
        seq, mults = stack.pop()
        if naive_accepts(spec, seq):
            counts[mults] = counts.get(mults, 0) + 1
        for name, wv in arcs:
            nmults = tuple(a + b for a, b in zip(mults, wv))
            if value(nmults) <= cutoff:
                stack.append((seq + (name,), nmults))
    return counts


# --- reference series expansion -------------------------------------------------


def reference_expand_series(gf: RationalGF, cutoff: float) -> CoefficientSeries:
    """Exact counts of num / (d0 * (1 - E)) as (num / d0) * sum over n of E**n.

    Multiplies out one power of E at a time, truncating at the cutoff, then
    sorts and validates every class. Costs levels x classes x |den|.
    """
    cutoff = float(cutoff)
    if not cutoff >= 0 or math.isinf(cutoff):
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff!r}")
    basis = gf.basis
    d0 = gf.denominator.constant_coefficient

    def val(wv: WeightVector) -> float:
        return wv.value(basis)

    geom = {
        wv: Fraction(-c, d0)
        for wv, c in gf.denominator.terms()
        if not wv.is_zero() and val(wv) <= cutoff
    }
    current = {wv: Fraction(c, d0) for wv, c in gf.numerator.terms() if val(wv) <= cutoff}
    acc = dict(current)
    while current:
        nxt: dict[WeightVector, Fraction] = {}
        for wv1, c1 in current.items():
            for wv2, c2 in geom.items():
                wv = wv1 + wv2
                if val(wv) <= cutoff:
                    nxt[wv] = nxt.get(wv, 0) + c1 * c2
        current = {wv: c for wv, c in nxt.items() if c}
        for wv, c in current.items():
            acc[wv] = acc.get(wv, 0) + c
    entries = []
    for wv in sorted((wv for wv, c in acc.items() if c), key=weight_sort_key(basis)):
        c = acc[wv]
        if c.denominator != 1:
            raise ExpansionError(f"non-integral count {c} at weight {val(wv):.6g}")
        if c < 0:
            raise ExpansionError(f"negative count {c} at weight {val(wv):.6g}")
        entries.append((wv, int(c)))
    return CoefficientSeries(basis, tuple(entries), cutoff)


# --- reference float evaluation -------------------------------------------------


def reference_evaluate(p: GeneralizedPolynomial, y: float) -> float:
    """p(y) with each term's weight recomputed by WeightVector.value,
    summed left to right in term order (0**0 = 1)."""
    if y < 0:
        raise ValueError("evaluation point must be nonnegative")
    total = 0.0
    for wv, c in p.terms():
        try:
            total += c * (y ** wv.value(p.basis))
        except OverflowError as exc:
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}") from exc
    if math.isinf(total) or math.isnan(total):
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
    return total


# --- reference density fit ------------------------------------------------------


def reference_check_density(weights, *, cutoff=None, margin: float = 1.0) -> DensityReport:
    """Counts of distinct weights below each integer n by a full scan, and
    both growth fits by numpy.linalg.lstsq on a [1, x] design matrix."""
    import numpy as np

    distinct = sorted(set(float(w) for w in weights))
    if cutoff is None:
        if not distinct:
            raise InsufficientDataError("no weights to analyze")
        cutoff = distinct[-1]
    cutoff = float(cutoff)
    top = int(math.floor(cutoff))
    if top < 1:
        raise InsufficientDataError("cutoff below 1; no integer thresholds to count")
    counts = []
    for n in range(1, top + 1):
        counts.append((n, sum(1 for w in distinct if w < n)))
    # Past the first threshold that counts every weight the counts are flat.
    fit_top = min(top, math.floor(distinct[-1]) + 1) if distinct else top
    usable = [(n, c) for n, c in counts[:fit_top] if c >= 1]
    if len(usable) < 4:
        raise InsufficientDataError(f"only {len(usable)} thresholds have a nonzero weight count")
    upper = usable[len(usable) // 2 :]
    ns = np.array([n for n, _ in upper], dtype=float)
    cs = np.array([c for _, c in upper], dtype=float)
    log_c = np.log(cs)

    def fit(xs):
        design = np.column_stack([np.ones_like(xs), xs])
        coef, *_ = np.linalg.lstsq(design, log_c, rcond=None)
        resid = log_c - design @ coef
        return float(coef[1]), float(resid @ resid)

    slope_poly, sse_poly = fit(np.log(ns))
    _, sse_exp = fit(ns)
    return DensityReport(
        cutoff=cutoff,
        counts_below_n=tuple(counts),
        fitted_exponent=slope_poly,
        exponential_flag=bool(sse_exp < margin * sse_poly),
        poly_residual=sse_poly,
        exp_residual=sse_exp,
    )


# --- reference pattern automaton ------------------------------------------------


def reference_pattern_automaton(names, patterns) -> ConstraintAutomaton:
    """Aho-Corasick matcher with the match states cut away.

    Surviving states are the pattern-free prefix classes, all accepting
    because the language is prefix-closed.
    """
    children: list[dict] = [{}]
    terminal = [False]
    for pattern in patterns:
        node = 0
        for sym in pattern:
            nxt = children[node].get(sym)
            if nxt is None:
                children.append({})
                terminal.append(False)
                nxt = len(children) - 1
                children[node][sym] = nxt
            node = nxt
        terminal[node] = True

    # Failure links by breadth-first search; a node is terminal if any
    # suffix of its prefix is a full pattern.
    fail = [0] * len(children)
    full = [dict() for _ in children]
    full[0] = dict(children[0])
    queue = deque()
    for child in children[0].values():
        fail[child] = 0
        queue.append(child)
    while queue:
        node = queue.popleft()
        terminal[node] = terminal[node] or terminal[fail[node]]
        goto = dict(full[fail[node]])
        goto.update(children[node])
        full[node] = goto
        for sym, child in children[node].items():
            fail[child] = full[fail[node]].get(sym, 0)
            queue.append(child)
    for state in range(len(children)):
        for name in names:
            full[state].setdefault(name, 0)

    transitions = []
    for state in range(len(children)):
        row = {}
        if not terminal[state]:
            for name in names:
                target = full[state][name]
                if not terminal[target]:
                    row[name] = target
        transitions.append(row)
    accepting = frozenset(s for s in range(len(children)) if not terminal[s])
    return _tidy(transitions, 0, accepting, names)


# --- reference correlation quotient ---------------------------------------------


def reference_correlation_quotient(spec: ChannelSpec) -> RationalGF:
    """c(x) / (x**k + (1 - 2x) c(x)) for one forbidden pattern of length k
    over two symbols of one weight u, with x = y**u and c the pattern's
    autocorrelation polynomial: bit i is set when the pattern shifted
    right by i agrees with itself on the overlap."""
    (pattern,) = spec.constraint.patterns
    u = spec.symbols[0].weight
    assert len(spec.symbols) == 2 and spec.symbols[1].weight == u
    k = len(pattern)
    basis = spec.basis
    corr = GeneralizedPolynomial(
        basis, {u.scaled(i): 1 for i in range(k) if pattern[i:] == pattern[: k - i]}
    )
    x = GeneralizedPolynomial.monomial(basis, u)
    one = GeneralizedPolynomial.one(basis)
    den = GeneralizedPolynomial.monomial(basis, u.scaled(k)) + (one - 2 * x) * corr
    return RationalGF(corr, den)


# --- reference pole scan --------------------------------------------------------


def reference_bracket_denominator_roots(
    gf: RationalGF, *, tol: float = DEFAULT_TOL
) -> tuple[list[RootResult], int]:
    """Every grid point of (0, Y_MAX] evaluated, y = 0 included, then each
    sign change bisected; returns (roots in increasing order, evaluations)."""
    evaluate = gf.denominator.evaluate
    n_grid = int(math.ceil(Y_MAX / GRID_STEP))
    evaluations = n_grid + 1

    found: list[RootResult] = []
    prev_y, prev_v = 0.0, evaluate(0.0)
    # Denominator normalization makes the value at 0 positive.
    for j in range(1, n_grid + 1):
        y = min(j * GRID_STEP, Y_MAX)
        v = evaluate(y)
        if v == 0.0:
            found.append(RootResult(y, y, y, 0))
            probe = y + 0.5 * GRID_STEP
            if probe >= Y_MAX:
                prev_v = None
                continue
            prev_y, prev_v = probe, evaluate(probe)
            evaluations += 1
            continue
        if prev_v is not None and (v < 0.0) != (prev_v < 0.0):
            lo, hi = prev_y, y
            flo = prev_v
            iterations = 0
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                if mid == lo or mid == hi:
                    break
                iterations += 1
                fmid = evaluate(mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            evaluations += iterations
            found.append(RootResult((lo + hi) / 2.0, lo, hi, iterations))
        prev_y, prev_v = y, v
    return found, evaluations


# --- reference enumeration walk ---------------------------------------------------


def reference_count_paths(
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
    max_configs = oracle.MAX_CONFIGS
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


def reference_enumerate_channel(
    spec: ChannelSpec, cutoff: float, *, with_loops: bool = True
) -> oracle.EnumerationResult:
    """The series walk, then one loop walk from each of the first
    STATE_CAP states, sharing one MAX_CONFIGS pop budget. Every pop of
    these walks is one configuration, so `configurations` and `classes`
    both hold the total pops."""
    cutoff = float(cutoff)
    machine = automaton_mod.for_spec(spec)
    budget = [0]
    entries = reference_count_paths(
        spec, machine, machine.initial, machine.accepting, cutoff, budget
    )
    series = CoefficientSeries(spec.basis, entries, cutoff)
    loop_counts: dict[int, tuple[tuple[WeightVector, int], ...]] = {}
    analyzed = 0
    if with_loops:
        for state in range(min(machine.n_states, oracle.STATE_CAP)):
            returns = reference_count_paths(spec, machine, state, {state}, cutoff, budget)
            analyzed += 1
            pairs = tuple((wv, c) for wv, c in returns if not wv.is_zero())
            if pairs:
                loop_counts[state] = pairs
    return oracle.EnumerationResult(
        series=series,
        loop_counts=loop_counts,
        n_states=machine.n_states,
        states_analyzed=analyzed,
        configurations=budget[0],
        classes=budget[0],
        loop_bound=reference_loop_bound(loop_counts, spec.basis),
        finite=reference_is_acyclic(machine),
    )


def reference_is_acyclic(machine: ConstraintAutomaton) -> bool:
    """No state is reachable from its own successors."""
    for state in range(machine.n_states):
        seen = set()
        stack = list(machine.transitions[state].values())
        while stack:
            s = stack.pop()
            if s == state:
                return False
            if s not in seen:
                seen.add(s)
                stack.extend(machine.transitions[s].values())
    return True


def reference_weight_value(wv: WeightVector, basis: WeightBasis) -> float:
    """The former WeightVector.value: a generator over the nonzero terms."""
    return sum(m * v for m, v in zip(wv.mults, basis.values()) if m)


# --- reference weight vector and capacity estimate ---------------------------------


@dataclass(frozen=True)
class ReferenceWeightVector:
    """The former WeightVector: a frozen dataclass around the tuple."""

    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        mults = tuple(self.mults)
        for m in mults:
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValueError(f"multiplicities must be integers, got {m!r}")
            if m < 0:
                raise ValueError(f"negative multiplicity {m}")
        object.__setattr__(self, "mults", mults)

    def __add__(self, other: "ReferenceWeightVector") -> "ReferenceWeightVector":
        if len(self.mults) != len(other.mults):
            raise BasisMismatchError("cannot add weight vectors of different lengths")
        return ReferenceWeightVector(tuple(a + b for a, b in zip(self.mults, other.mults)))

    def scaled(self, k: int) -> "ReferenceWeightVector":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return ReferenceWeightVector(tuple(k * m for m in self.mults))

    def is_zero(self) -> bool:
        return not any(self.mults)

    def value(self, basis: WeightBasis) -> float:
        values = basis.values()
        if len(values) != len(self.mults):
            raise BasisMismatchError("weight vector does not match basis size")
        return sum(map(mul, self.mults, values)) or 0

    def as_mapping(self, basis: WeightBasis) -> dict[str, int]:
        return {a.name: m for a, m in zip(basis.atoms, self.mults) if m}


def reference_loop_bound(
    loop_counts: Mapping[int, tuple[tuple[WeightVector, int], ...]], basis: WeightBasis
) -> float:
    """Best ln(count) / weight over the return counts, each weight
    recomputed by WeightVector.value; 0.0 when none is positive."""
    estimate = 0.0
    for pairs in loop_counts.values():
        for wv, count in pairs:
            if count >= 1:
                bound = math.log(count) / wv.value(basis)
                if bound > estimate:
                    estimate = bound
    return estimate


def reference_estimate_capacity(enum: oracle.EnumerationResult) -> CapacityReport:
    """The former estimate_capacity, recomputing every weight it reads."""
    series = enum.series
    if sum(1 for _, c in series.entries if c >= 1) < 2:
        raise InsufficientDataError(
            "enumeration found fewer than two weights with strings; "
            "raise the cutoff"
        )
    basis = series.basis
    estimate = reference_loop_bound(enum.loop_counts, basis)
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
