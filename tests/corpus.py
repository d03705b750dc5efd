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
each call and multiplied each int coefficient into its term, kept as the
reference for the cached exponents and float coefficients;
`reference_value_and_slope` takes the slope beside it.
`reference_check_density` is the former density check, a numpy
least-squares fit over counts taken by a scan of every weight, kept as the
reference for the closed-form fit in `check_density`.
`reference_pattern_automaton` is an earlier forbidden-pattern automaton,
an Aho-Corasick trie whose every node copies its failure link's moves,
kept as the reference for the one-pass trie construction of
`_pattern_automaton`.
`reference_bracket_denominator_roots` is the former pole scan, which
evaluated the denominator at every grid point, kept as the reference for
the scan that skips the grid runs whose sign a bound proves.
`reference_correlation_quotient` is the former single-pattern quotient
from the pattern's autocorrelation (Guibas & Odlyzko), kept as the
reference for the one-pattern case of the cluster quotient; it multiplies
by a dict convolution of its own, not by the term kernel under test.
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
Where the former code added floats with the builtin sum(), the references
here add them with `reference_sum`, a plain left-to-right loop: the sum()
of Python 3.11, which later versions replace with a compensated one.
`ReferenceWeightVector` is the former `WeightVector`, a frozen dataclass
around a tuple of multiplicities, kept as the reference for the tuple
subclass that replaced it, and `reference_estimate_capacity` the former
`estimate_capacity`, which recomputed the float weight of every return
count and series entry, kept as the reference for the estimate that reads
the floats the walk computed.
`reference_tuple_expand_series`, `reference_tuple_walk` and
`reference_tuple_enumerate_channel` are the former hot loops, verbatim
apart from their names and module prefixes: they key each weight class
by its multiplicity tuple, and the enumeration runs a series walk from
the initial state beside that state's loop walk. They are kept as the
reference for the packed int keys and for the series walk that is the
initial state's loop walk.
`reference_bisection_root` and `reference_bisect_bracket` are the former
bisection loops of `smallest_positive_root` and of a pole bracket: each
evaluates every midpoint. They are kept as the reference for the bisections
that skip the midpoints a Newton window decides. Both halve through
`reference_halvings`, which writes out step by step the stop rule for a
root below tol that `solver._bisection` takes in rounds, and the reference
pole scan bisects its brackets through `reference_bisect_bracket`.
`reference_is_removable` is the former removability check, which summed
the numerator's term sizes and then evaluated it, two passes, each over the
int coefficients; it is kept as the reference for the check that takes both
sums in one over the float coefficients, and the reference solvers below
call it.
`reference_parse_regex` is the former regex parser, verbatim apart from its
names: it builds a token list of (kind, text, offset) tuples first and then
walks it through peek and advance calls. It is kept as the reference for
the one-pass descent over the expression string, and the reference spec
parser below reads regexes through it.
`reference_tokenize_pattern` is the former pattern tokenizer, verbatim apart
from its name and docstring: a character loop that scans each
whitespace-separated word by hand. It is kept as the reference for the
tokenizer that reads names with one compiled token pattern, and the
reference spec parser below splits patterns through it.
`reference_parse_spec`, `reference_build_gf` (with `reference_mul`) and
`reference_auto_capacity` are the former warm capacity path: a parser
that checked every value again in the public constructors, builders that
multiplied by 1 term by term and built every polynomial through the
checking constructor, and solvers that made each evaluation through
helper calls. They are the former code apart from their names, products
through `reference_mul`, the regex builder's sums and differences through
the checking constructor, evaluations through `reference_evaluate`, and
atom names matched in full. They are kept as the reference for the
parser that checks each value once, the product that skips a factor 1
and the solvers that call `evaluate` directly.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import os
import random
import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from pathlib import Path

from dnccap import ChannelSpec, load_spec, oracle
from dnccap import automaton as automaton_mod
from dnccap import genpoly
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
    SymbolDef,
    Union,
    _require_object,
    concat_of,
    union_of,
)
from dnccap.errors import (
    BasisMismatchError,
    EvalOverflowError,
    ExpansionError,
    InsufficientDataError,
    ResourceLimitError,
    SolverError,
    SpecError,
    UnsupportedChannelError,
)
from dnccap.gf_builder import MAX_PATTERNS, _contains
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
    MAX_DOUBLINGS,
    REMOVABLE_RTOL,
    SKIP_MARGIN,
    Y_MAX,
    CapacityReport,
    DensityReport,
    RootResult,
    _check_tol,
    _finite_language_report,
)

CHANNELS_DIR = Path(__file__).resolve().parent.parent / "channels"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "capacity"


def reference_sum(terms):
    """The builtin sum() as Python 3.11 adds floats: one term at a time
    from the left, the int 0 for no terms. The references add weights and
    term sizes with it, in this explicit loop, so they give the package's
    left-to-right floats on every Python version without calling its code."""
    total = 0
    for t in terms:
        total += t
    return total


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
        return reference_sum(m * v for m, v in zip(mults, values) if m)

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


def reference_value_and_slope(p: GeneralizedPolynomial, y: float) -> tuple[float, float]:
    """(p(y), y * p'(y)) as `reference_evaluate` takes p(y), the slope
    adding each term's weight times the term."""
    if y < 0:
        raise ValueError("evaluation point must be nonnegative")
    total = slope = 0.0
    for wv, c in p.terms():
        e = wv.value(p.basis)
        try:
            t = c * (y ** e)
        except OverflowError as exc:
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}") from exc
        total += t
        slope += e * t
    if math.isinf(total) or math.isnan(total):
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
    return total, slope


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
    # Polynomials in x as {power of x: coefficient}, multiplied by a plain
    # convolution, so that no polynomial arithmetic of the package is used.
    corr = {i: 1 for i in range(k) if pattern[i:] == pattern[: k - i]}
    den = {k: 1}
    for i, c in corr.items():
        for j, f in ((0, 1), (1, -2)):
            den[i + j] = den.get(i + j, 0) + f * c

    def poly(coeffs: dict[int, int]) -> GeneralizedPolynomial:
        return GeneralizedPolynomial(
            spec.basis, {u.scaled(i): c for i, c in coeffs.items() if c}
        )

    return RationalGF(poly(corr), poly(den))


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
            root = reference_bisect_bracket(gf.denominator, prev_y, y, prev_v, tol)
            evaluations += root.iterations
            found.append(root)
        prev_y, prev_v = y, v
    return found, evaluations


# --- reference bisection loops ------------------------------------------------


def reference_is_removable(gf: RationalGF, y0: float) -> bool:
    """Does the numerator vanish at y0, relative to its term magnitudes?"""
    num = gf.numerator
    scale = reference_sum(abs(c) * y0 ** wv.value(num.basis) for wv, c in num.terms())
    return abs(reference_evaluate(num, y0)) <= REMOVABLE_RTOL * scale


def reference_bisection_root(
    p: GeneralizedPolynomial,
    target: float = 1.0,
    *,
    tol: float = DEFAULT_TOL,
) -> RootResult:
    """Unique y > 0 with p(y) = target, for p with nonnegative coefficients.

    p must be strictly increasing where it matters: all coefficients
    nonnegative, at least one term of positive weight, and p(0) < target.
    The returned enclosure satisfies p(low) <= target <= p(high) with
    high - low <= tol.
    """
    _check_tol(tol)
    for wv, c in p.terms():
        if c < 0:
            raise SolverError("polynomial has a negative coefficient; not monotone")
    p0 = p.evaluate(0.0)
    if not p0 < target:
        raise SolverError(
            f"no positive root: value at 0 is {p0:.6g}, already at or above {target:.6g}"
        )
    if all(wv.is_zero() for wv, _ in p.terms()):
        raise SolverError("polynomial is constant; it never reaches the target")

    # One call per evaluation; a value that overflows counts as inf.
    at = p.evaluate
    iterations = 0
    lo, hi = 0.0, 1.0
    while True:
        try:
            below = at(hi) < target
        except EvalOverflowError:
            below = False
        if not below:
            break
        lo, hi = hi, hi * 2.0
        iterations += 1
        if iterations > MAX_DOUBLINGS:
            raise SolverError(f"no root found below {hi:.3g}")

    def below(mid: float) -> bool:
        try:
            return at(mid) < target
        except EvalOverflowError:
            return False

    found = reference_halvings(lo, hi, tol, below)
    return RootResult(found.root, found.low, found.high, iterations + found.iterations)


def reference_bisect_bracket(
    den: GeneralizedPolynomial, lo: float, hi: float, flo: float, tol: float
) -> RootResult:
    def on_lo_side(mid: float) -> bool | None:
        fmid = den.evaluate(mid)
        return None if fmid == 0.0 else (fmid < 0.0) == (flo < 0.0)

    return reference_halvings(lo, hi, tol, on_lo_side)


def reference_halvings(lo: float, hi: float, tol: float, on_lo_side) -> RootResult:
    """Halve [lo, hi] while hi - lo > tol, evaluating every midpoint, or to
    adjacent floats. `on_lo_side(mid)` is True, False, or None for an exact
    zero, which closes the bracket. A stop that leaves lo at 0 is noted,
    and halving goes on while hi - lo > tol * hi; if lo is still 0 at the
    end, the noted stop is the answer."""
    iterations = 0
    first = None
    while True:
        if first is None and not hi - lo > tol:
            if lo > 0.0:
                break
            first = lo, hi, iterations
        if first is not None and not hi - lo > tol * hi:
            break
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        iterations += 1
        low = on_lo_side(mid)
        if low is None:
            lo = hi = mid
            break
        if low:
            lo = mid
        else:
            hi = mid
    if first is not None and lo == 0.0:
        lo, hi, iterations = first
    return RootResult((lo + hi) / 2.0, lo, hi, iterations)


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
            nvalue = reference_sum(m * v for m, v in zip(nmults, values) if m)
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
    return reference_sum(m * v for m, v in zip(wv.mults, basis.values()) if m)


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
        return reference_sum(map(mul, self.mults, values)) or 0

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


# --- former tuple-keyed hot loops ---------------------------------------------------


def reference_tuple_expand_series(gf: RationalGF, cutoff: float) -> CoefficientSeries:
    """Exact coefficient extraction from a quotient, up to a weight cutoff.

    Write the denominator as d0 - sum_j e_j * y**u_j, every u_j of strictly
    positive weight. Then the counts obey one recurrence in weight order:

        d0 * c[w] = num[w] + sum_j e_j * c[w - u_j]

    A min-heap pops weight classes in (numeric value, exponent vector)
    order, and `pending` holds the partial sum of each queued class. Every
    contribution to a class comes from a strictly lighter one, so a popped
    class is final: it is divided by d0 and checked there, then passes
    e_j * c[w] on to each w + u_j within the cutoff. The cost is one heap
    push and pop per weight class plus one exact integer product per
    class and denominator term. A count that comes out non-integral or
    negative means the quotient does not enumerate a language (e.g. an
    ambiguous construction) and raises ExpansionError. TERM_LIMIT caps
    the number of weight classes generated.
    """
    cutoff = float(cutoff)
    if not cutoff >= 0 or math.isinf(cutoff):
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff!r}")
    term_limit = genpoly.TERM_LIMIT
    basis = gf.basis
    values = basis.values()
    d0 = gf.denominator.constant_coefficient
    growth = [
        (wv.mults, -c)
        for wv, c in gf.denominator.terms()
        if not wv.is_zero() and wv.value(basis) <= cutoff
    ]
    pending: dict[tuple[int, ...], int] = {}
    heap: list[tuple[float, tuple[int, ...]]] = []
    for wv, c in gf.numerator.terms():
        value = wv.value(basis)
        if value <= cutoff:
            pending[wv.mults] = c
            heap.append((value, wv.mults))
    heapq.heapify(heap)
    generated = len(heap)
    entries: list[tuple[WeightVector, int]] = []
    weights: list[float] = []
    vector = WeightVector._unchecked
    while heap:
        if generated > term_limit:
            raise ResourceLimitError(
                f"series expansion exceeded the term limit of {term_limit}"
            )
        value, mults = heapq.heappop(heap)
        total = pending.pop(mults)
        count, rest = divmod(total, d0)
        if rest:
            # d0 > 0 and does not divide total: the reduced fraction n/d.
            g = math.gcd(total, d0)
            raise ExpansionError(
                f"non-integral count {total // g}/{d0 // g} at weight {value:.6g}: "
                "the quotient does not enumerate a language"
            )
        if count < 0:
            raise ExpansionError(
                f"negative count {count} at weight {value:.6g}: "
                "the quotient does not enumerate a language"
            )
        if not count:
            continue
        entries.append((vector(mults), count))
        weights.append(value)
        for step, e in growth:
            nmults = tuple(map(add, mults, step))
            if nmults in pending:
                pending[nmults] += e * count
                continue
            nvalue = reference_sum(map(mul, nmults, values))
            if nvalue <= cutoff:
                pending[nmults] = e * count
                heapq.heappush(heap, (nvalue, nmults))
                generated += 1
    return CoefficientSeries._from_values(basis, entries, weights, cutoff)


def reference_tuple_walk(
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
    max_configs = oracle.MAX_CONFIGS
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
                nvalue = reference_sum(map(mul, nmults, values))
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


def reference_tuple_enumerate_channel(
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
    n_loops = min(machine.n_states, oracle.STATE_CAP) if with_loops else 0
    series, loops, weights, loop_bound, configurations, classes = reference_tuple_walk(
        spec, machine, cutoff, n_loops
    )
    loop_counts: dict[int, tuple[tuple[WeightVector, int], ...]] = {}
    for state, returns in enumerate(loops):
        # The first return of every loop walk is its own start, at weight 0.
        if len(returns) > 1:
            loop_counts[state] = tuple(returns[1:])
    return oracle.EnumerationResult(
        series=CoefficientSeries._from_values(spec.basis, series, weights, cutoff),
        loop_counts=loop_counts,
        n_states=machine.n_states,
        states_analyzed=n_loops,
        configurations=configurations,
        classes=classes,
        loop_bound=loop_bound,
        finite=machine.is_acyclic(),
    )


# --- reference warm capacity path ------------------------------------------------

_REFERENCE_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REFERENCE_SYMBOL_FORBIDDEN = set("()|*ε")


def _reference_parse_atoms(doc, where: str) -> WeightBasis:
    if not isinstance(doc, dict):
        raise SpecError(f"{where}: expected an object of atom values")
    atoms = []
    for name, raw in doc.items():
        if not _REFERENCE_ATOM_NAME.fullmatch(name):
            raise SpecError(f"{where}.{name}: atom names must be identifiers")
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise SpecError(f"{where}.{name}: atom value must be a number")
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        if not value > 0.0 or math.isinf(value):
            raise SpecError(f"{where}.{name}: atom value must be positive and finite")
        atoms.append((name, value))
    try:
        return WeightBasis.from_mapping(dict(atoms))
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _reference_parse_symbols(doc, basis: WeightBasis, where: str) -> tuple[SymbolDef, ...]:
    if not isinstance(doc, list) or not doc:
        raise SpecError(f"{where}: expected a nonempty array of symbols")
    symbols = []
    seen = set()
    for i, entry in enumerate(doc):
        here = f"{where}[{i}]"
        obj = _require_object(entry, here, ("name", "weight"))
        name = obj["name"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"{here}.name: symbol names must be nonempty strings")
        if any(ch.isspace() or ch in _REFERENCE_SYMBOL_FORBIDDEN for ch in name):
            raise SpecError(
                f"{here}.name: symbol name {name!r} may not contain whitespace or ()|*ε"
            )
        if name in seen:
            raise SpecError(f"{here}.name: duplicate symbol {name!r}")
        seen.add(name)
        weight_doc = obj["weight"]
        if not isinstance(weight_doc, dict):
            raise SpecError(f"{here}.weight: expected an object of atom multiplicities")
        mults = [0] * basis.size
        for atom, mult in weight_doc.items():
            if isinstance(mult, bool) or not isinstance(mult, int):
                raise SpecError(f"{here}.weight.{atom}: multiplicity must be an integer")
            if mult < 0:
                raise SpecError(f"{here}.weight.{atom}: multiplicity must be nonnegative")
            try:
                mults[basis.index(atom)] = mult
            except KeyError:
                raise SpecError(f"{here}.weight.{atom}: undeclared atom {atom!r}") from None
        wv = WeightVector._unchecked(mults)
        try:
            total = reference_sum(map(mul, wv, basis.values()))
        except OverflowError:
            # A multiplicity too large to become a float.
            total = math.inf
        if total <= 0.0:
            raise SpecError(f"{here}.weight: symbol {name!r} must have positive total weight")
        if math.isinf(total):
            raise SpecError(f"{here}.weight: symbol {name!r} must have finite total weight")
        symbols.append(SymbolDef(name, wv))
    return tuple(symbols)


_SPECIALS = "()|*"
_EPSILON = "ε"


def _reference_tokenize_regex(expr: str, names: frozenset[str], single: bool):
    """Yield (kind, text, offset) tokens; kinds are the literal special
    characters, 'eps', 'name', and a final 'end'."""
    tokens = []
    i = 0
    n = len(expr)
    while i < n:
        ch = expr[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SPECIALS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == _EPSILON:
            tokens.append(("eps", ch, i))
            i += 1
            continue
        if single:
            if ch in names:
                tokens.append(("name", ch, i))
                i += 1
                continue
            raise SpecError(f"regex offset {i}: undeclared symbol {ch!r}")
        j = i
        while j < n and not expr[j].isspace() and expr[j] not in _SPECIALS and expr[j] != _EPSILON:
            j += 1
        word = expr[i:j]
        if word not in names:
            raise SpecError(f"regex offset {i}: undeclared symbol {word!r}")
        tokens.append(("name", word, i))
        i = j
    tokens.append(("end", "", n))
    return tokens


class _ReferenceRegexParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> RegexNode:
        node = self.union()
        kind, text, off = self.tokens[self.pos]
        if kind == ")":
            raise SpecError(f"regex offset {off}: unbalanced ')'")
        if kind != "end":
            raise SpecError(f"regex offset {off}: unexpected {text!r}")
        return node

    def union(self) -> RegexNode:
        parts = [self.concat()]
        while self.peek() == "|":
            self.advance()
            parts.append(self.concat())
        return union_of(parts)

    def concat(self) -> RegexNode:
        parts = []
        while self.peek() in ("(", "eps", "name"):
            parts.append(self.postfix())
        if not parts:
            kind, text, off = self.tokens[self.pos]
            what = repr(text) if text else "end of expression"
            raise SpecError(f"regex offset {off}: expected a term, found {what}")
        return concat_of(parts)

    def postfix(self) -> RegexNode:
        node = self.atom()
        while self.peek() == "*":
            self.advance()
            node = Star(node)
        return node

    def atom(self) -> RegexNode:
        kind, text, off = self.advance()
        if kind == "(":
            node = self.union()
            k2, _, off2 = self.tokens[self.pos]
            if k2 != ")":
                raise SpecError(f"regex offset {off}: unbalanced '('")
            self.advance()
            return node
        if kind == "eps":
            return Epsilon()
        if kind == "name":
            return Symbol(text)
        raise SpecError(f"regex offset {off}: unexpected {text!r}")


def reference_parse_regex(expr: str, symbol_names) -> RegexNode:
    """The former parse_regex: a token list first, then a parser over it."""
    names = frozenset(symbol_names)
    if not names:
        raise SpecError("regex offset 0: no symbols declared")
    single = all(len(n) == 1 for n in names)
    tokens = _reference_tokenize_regex(expr, names, single)
    try:
        return _ReferenceRegexParser(tokens).parse()
    except RecursionError:
        raise SpecError("regex offset 0: expression nests too deeply") from None


def reference_tokenize_pattern(text: str, symbol_names, where: str) -> tuple[str, ...]:
    """The former tokenize_pattern: a character loop over the pattern."""
    names = frozenset(symbol_names)
    single = all(len(n) == 1 for n in names)
    if single and text and names.issuperset(text):
        # Every character is a name, and no name is whitespace.
        return tuple(text)
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if single:
            if ch not in names:
                raise SpecError(f"{where}: undeclared symbol {ch!r} at offset {i}")
            out.append(ch)
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        word = text[i:j]
        if word not in names:
            raise SpecError(f"{where}: undeclared symbol {word!r} at offset {i}")
        out.append(word)
        i = j
    if not out:
        raise SpecError(f"{where}: pattern is empty")
    return tuple(out)


def _reference_parse_constraint(doc, names, where: str):
    if not isinstance(doc, dict):
        raise SpecError(f"{where}: expected an object")
    kind = doc.get("type")
    if kind == "free":
        _require_object(doc, where, ("type",))
        return Free()
    if kind == "forbidden":
        _require_object(doc, where, ("type", "patterns"))
        raw = doc["patterns"]
        if not isinstance(raw, list) or not raw:
            raise SpecError(f"{where}.patterns: expected a nonempty array of patterns")
        patterns = []
        for i, pat in enumerate(raw):
            here = f"{where}.patterns[{i}]"
            if not isinstance(pat, str):
                raise SpecError(f"{here}: patterns must be strings")
            patterns.append(reference_tokenize_pattern(pat, names, here))
        return ForbiddenPatterns(tuple(patterns))
    if kind == "regex":
        _require_object(doc, where, ("type", "expr", "unambiguous"))
        if doc["unambiguous"] is not True:
            raise SpecError(
                f"{where}.unambiguous: regex constraints must declare "
                '"unambiguous": true; counting is only valid for unambiguous '
                "expressions and the claim is cross-checked empirically"
            )
        expr = doc["expr"]
        if not isinstance(expr, str):
            raise SpecError(f"{where}.expr: expected a string")
        return Regex(reference_parse_regex(expr, names))
    raise SpecError(f"{where}.type: expected 'free', 'forbidden', or 'regex', got {kind!r}")


def reference_parse_spec(text) -> ChannelSpec:
    """The former parse_spec: every value checked again by the public
    constructors, each position string built ahead of its checks."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecError(f"byte offset {exc.start}: document is not valid UTF-8") from exc
    if not isinstance(text, str):
        raise SpecError("document root: expected a JSON string or bytes")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise SpecError("line 1, column 1: document nests too deeply") from None
    _require_object(doc, "document root", ("atoms", "symbols", "constraint"))
    basis = _reference_parse_atoms(doc["atoms"], "atoms")
    symbols = _reference_parse_symbols(doc["symbols"], basis, "symbols")
    names = tuple(s.name for s in symbols)
    constraint = _reference_parse_constraint(doc["constraint"], names, "constraint")
    try:
        return ChannelSpec(basis, symbols, constraint)
    except ValueError as exc:
        raise SpecError(f"document root: {exc}") from exc


def reference_mul(p: GeneralizedPolynomial, q: GeneralizedPolynomial) -> GeneralizedPolynomial:
    """The former product: every pair of terms multiplied, ones included."""
    if p.basis != q.basis:
        raise BasisMismatchError("operands use different weight bases")
    out: dict[WeightVector, int] = {}
    for wv1, c1 in p.terms():
        for wv2, c2 in q.terms():
            wv = tuple.__new__(WeightVector, map(add, wv1, wv2))
            out[wv] = out.get(wv, 0) + c1 * c2
    return GeneralizedPolynomial(p.basis, out)


def reference_gf_free_monoid(spec: ChannelSpec) -> RationalGF:
    basis = spec.basis
    den = [(WeightVector.zero(basis), 1)] + [(s.weight, -1) for s in spec.symbols]
    return RationalGF(GeneralizedPolynomial.one(basis), GeneralizedPolynomial(basis, den))


def reference_gf_forbidden_patterns(spec: ChannelSpec) -> RationalGF:
    basis = spec.basis
    distinct = list(dict.fromkeys(spec.constraint.patterns))
    patterns = [
        v for v in distinct if not any(u != v and _contains(v, u) for u in distinct)
    ]
    if len(patterns) > MAX_PATTERNS:
        raise ResourceLimitError(
            f"{len(patterns)} forbidden patterns exceed the limit of {MAX_PATTERNS}"
        )

    def term(word, coefficient: int = 1):
        columns = zip(*(spec.weight_of(name).mults for name in word))
        return WeightVector(tuple(sum(column) for column in columns)), coefficient

    def entry(v, u) -> GeneralizedPolynomial:
        terms = [term(v[t:]) for t in range(1, min(len(u), len(v))) if u[-t:] == v[:t]]
        return GeneralizedPolynomial(basis, terms + [(WeightVector.zero(basis), int(v == u))])

    one = GeneralizedPolynomial.one(basis)
    rows = [[reference_gf_free_monoid(spec).denominator] + [one] * len(patterns)]
    for v in patterns:
        rows.append(
            [GeneralizedPolynomial(basis, [term(v, -1)])] + [entry(v, u) for u in patterns]
        )

    @functools.cache
    def minor(cols: tuple[int, ...]) -> GeneralizedPolynomial:
        row = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        terms = []
        for k, col in enumerate(cols):
            if row[col]:
                product = reference_mul(row[col], minor(cols[:k] + cols[k + 1 :]))
                terms += [(wv, -c if k % 2 else c) for wv, c in product.terms()]
        return GeneralizedPolynomial(basis, terms)

    return RationalGF(minor(tuple(range(1, len(rows)))), minor(tuple(range(len(rows)))))


def reference_gf_from_regex(expr: RegexNode, spec: ChannelSpec) -> RationalGF:
    basis = spec.basis
    one = GeneralizedPolynomial.one(basis)

    def combine(p, q, sign):
        # p + sign * q through the checking constructor, which merges
        # equal exponents and drops zeros, not through the term kernel.
        return GeneralizedPolynomial(
            basis, [*p.terms(), *((wv, sign * c) for wv, c in q.terms())]
        )

    def walk(node):
        if isinstance(node, Epsilon):
            return one, one
        if isinstance(node, Symbol):
            return GeneralizedPolynomial.monomial(basis, spec.weight_of(node.name)), one
        if isinstance(node, Union):
            num, den = walk(node.parts[0])
            for part in node.parts[1:]:
                n2, d2 = walk(part)
                num = combine(reference_mul(num, d2), reference_mul(n2, den), 1)
                den = reference_mul(den, d2)
            return num, den
        if isinstance(node, Concat):
            num, den = walk(node.parts[0])
            for part in node.parts[1:]:
                n2, d2 = walk(part)
                num = reference_mul(num, n2)
                den = reference_mul(den, d2)
            return num, den
        if isinstance(node, Star):
            n2, d2 = walk(node.child)
            if n2.constant_coefficient != 0:
                raise UnsupportedChannelError(
                    "star of an expression that matches the empty string; "
                    "rewrite the regex so the starred part is not nullable"
                )
            return d2, combine(d2, n2, -1)
        raise TypeError(f"not a regex node: {node!r}")

    num, den = walk(expr)
    return RationalGF(num, den)


def reference_build_gf(spec: ChannelSpec) -> RationalGF:
    """The former build_gf, each product by 1 computed term by term and
    every polynomial built through the checking constructor."""
    constraint = spec.constraint
    if isinstance(constraint, Free):
        gf = reference_gf_free_monoid(spec)
    elif isinstance(constraint, ForbiddenPatterns):
        gf = reference_gf_forbidden_patterns(spec)
    else:
        gf = reference_gf_from_regex(constraint.expr, spec)
    for part, poly in (("numerator", gf.numerator), ("denominator", gf.denominator)):
        try:
            finite = all(math.isfinite(wv.value(poly.basis)) for wv, _ in poly.terms())
        except OverflowError:
            finite = False
        if not finite:
            raise SpecError(
                f"constraint: a word weight in the quotient's {part} is too large "
                "for a float"
            )
    return gf


def _log_enclosure_width(low: float, high: float) -> float:
    if low <= 0.0:
        return math.inf
    return math.log(high / low)


def _reference_evaluate_or_inf(p: GeneralizedPolynomial, y: float) -> float:
    try:
        return reference_evaluate(p, y)
    except EvalOverflowError:
        return math.inf


def reference_characteristic_part(den: GeneralizedPolynomial) -> GeneralizedPolynomial | None:
    terms = {}
    for wv, c in den.terms():
        if wv.is_zero():
            continue
        if c > 0:
            return None
        terms[wv] = -c
    return GeneralizedPolynomial(den.basis, terms)


def reference_smallest_positive_root(
    p: GeneralizedPolynomial, target: float = 1.0, *, tol: float = DEFAULT_TOL
) -> RootResult:
    _check_tol(tol)
    for wv, c in p.terms():
        if c < 0:
            raise SolverError("polynomial has a negative coefficient; not monotone")
    p0 = reference_evaluate(p, 0.0)
    if not p0 < target:
        raise SolverError(
            f"no positive root: value at 0 is {p0:.6g}, already at or above {target:.6g}"
        )
    if all(wv.is_zero() for wv, _ in p.terms()):
        raise SolverError("polynomial is constant; it never reaches the target")
    iterations = 0
    lo, hi = 0.0, 1.0
    while _reference_evaluate_or_inf(p, hi) < target:
        lo, hi = hi, hi * 2.0
        iterations += 1
        if iterations > MAX_DOUBLINGS:
            raise SolverError(f"no root found below {hi:.3g}")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        iterations += 1
        if _reference_evaluate_or_inf(p, mid) < target:
            lo = mid
        else:
            hi = mid
    return RootResult((lo + hi) / 2.0, lo, hi, iterations)


def reference_capacity_from_characteristic(gf: RationalGF, *, tol: float = DEFAULT_TOL):
    _check_tol(tol)
    den = gf.denominator
    growth = reference_characteristic_part(den)
    if growth is None:
        raise SolverError(
            "denominator is not in star form (positive constant minus "
            "nonnegative growth terms); use the pole method"
        )
    d0 = den.constant_coefficient
    if not growth:
        return _finite_language_report("characteristic-root")
    result = reference_smallest_positive_root(growth, float(d0), tol=tol)
    if reference_is_removable(gf, result.root):
        raise SolverError(
            f"numerator vanishes at the characteristic root y = {result.root:.12g}; "
            "the singularity is removable there, use the pole scan instead"
        )
    return CapacityReport(
        method="characteristic-root",
        radius_or_pole=result.root,
        capacity_nats=-math.log(result.root),
        error_bound=_log_enclosure_width(result.low, result.high),
        iterations=result.iterations,
    )


class _ReferencePoleScan:
    """The former pole scan, each evaluation made through two helpers."""

    def __init__(self, den: GeneralizedPolynomial, tol: float):
        _check_tol(tol)
        self.den = den
        self.tol = tol
        self.evaluations = 0

    def _evaluate(self, p, y):
        self.evaluations += 1
        return reference_evaluate(p, y)

    def _bound(self, p, y):
        self.evaluations += 1
        return _reference_evaluate_or_inf(p, y)

    def __iter__(self):
        den = self.den
        pos = GeneralizedPolynomial(den.basis, [(wv, c) for wv, c in den.terms() if c > 0])
        neg = GeneralizedPolynomial(den.basis, [(wv, -c) for wv, c in den.terms() if c < 0])
        margin = SKIP_MARGIN * (len(den) + 4)
        n_grid = int(math.ceil(Y_MAX / GRID_STEP))
        prev_y, prev_v = 0.0, self._evaluate(den, 0.0)
        p_prev, n_prev = self._bound(pos, 0.0), self._bound(neg, 0.0)
        j, k = 0, 1
        while j < n_grid:
            k = min(k, n_grid - j)
            y = min((j + k) * GRID_STEP, Y_MAX)
            p_y, n_y = self._bound(pos, y), self._bound(neg, y)
            slack = margin * (p_y + n_y)
            if (p_y - n_prev < -slack) if prev_v < 0.0 else (p_prev - n_y > slack):
                j += k
                prev_y, p_prev, n_prev = y, p_y, n_y
                k *= 2
                continue
            if k > 1:
                k //= 2
                continue
            j += 1
            v = self._evaluate(den, y)
            if v == 0.0:
                yield RootResult(y, y, y, 0)
                probe = y + 0.5 * GRID_STEP
                if probe >= Y_MAX:
                    return
                prev_y, prev_v = probe, self._evaluate(den, probe)
                p_prev, n_prev = self._bound(pos, probe), self._bound(neg, probe)
                continue
            if (v < 0.0) != (prev_v < 0.0):
                yield self._bisect(prev_y, y, prev_v)
            prev_y, prev_v, p_prev, n_prev = y, v, p_y, n_y

    def _bisect(self, lo, hi, flo):
        iterations = 0
        while hi - lo > self.tol:
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break
            iterations += 1
            fmid = self._evaluate(self.den, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return RootResult((lo + hi) / 2.0, lo, hi, iterations)


def reference_smallest_positive_pole(gf: RationalGF, *, tol: float = DEFAULT_TOL):
    scan = _ReferencePoleScan(gf.denominator, tol)
    if all(wv.is_zero() for wv, _ in gf.denominator.terms()):
        return _finite_language_report("smallest-pole")
    skipped = 0
    for cand in scan:
        if reference_is_removable(gf, cand.root):
            skipped += 1
            continue
        note = None
        if skipped:
            note = f"skipped {skipped} removable denominator root(s) below the pole"
        return CapacityReport(
            method="smallest-pole",
            radius_or_pole=cand.root,
            capacity_nats=-math.log(cand.root),
            error_bound=_log_enclosure_width(cand.low, cand.high),
            iterations=scan.evaluations,
            note=note,
        )
    detail = f" apart from {skipped} removable root(s)" if skipped else ""
    raise SolverError(
        f"no sign change of the denominator in (0, {Y_MAX:g}]{detail}; "
        "a root of even multiplicity would not show, so the pole scan "
        "gives no answer"
    )


def reference_auto_capacity(spec: ChannelSpec, gf: RationalGF) -> CapacityReport:
    """The CLI's default route on the former solvers: the pole scan for
    forbidden patterns and denominators without star form, else the
    characteristic root."""
    if isinstance(spec.constraint, ForbiddenPatterns) or (
        reference_characteristic_part(gf.denominator) is None
    ):
        return reference_smallest_positive_pole(gf)
    return reference_capacity_from_characteristic(gf)
