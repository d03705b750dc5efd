"""Reference answers computed without the program's own routes.

Nothing here imports dnccap. A channel is described by a small "model":

    {"atoms": {"unit": 1.0, "pi": 3.14159...},
     "symbols": [["0", {"unit": 1}], ["1", {"pi": 1}]],
     "forbidden": [["1", "1"]]}

i.e. a weighted alphabet and a (possibly empty) set of forbidden
substrings. Exponents are keyed canonically as sorted (atom, multiplicity)
pairs with the zero multiplicities dropped, which is what the program's
`WeightVector.as_mapping` yields, so series from either side compare as
plain dictionaries.

    count_series       exact counts by weight, by a dynamic program over
                       "longest suffix that is a proper pattern prefix"
    transfer_capacity  capacity from the Perron root of the transfer
                       matrix of that suffix automaton (numpy eigenvalues)
    monoid_capacity    capacity of a free monoid over words of given
                       weights: bisection on sum of y**w = 1
"""

from __future__ import annotations

import heapq
import math

import numpy as np


def ekey(mapping) -> tuple:
    """Canonical exponent key of an {atom: multiplicity} mapping."""
    return tuple(sorted((name, m) for name, m in mapping.items() if m))


def _value(mults, values) -> float:
    # Same summation order as the program, so cutoff tests agree exactly.
    return sum(m * v for m, v in zip(mults, values) if m)


def key_value(key, atoms) -> float:
    """Numeric weight of an exponent key over {atom: value}, in atom order."""
    mapping = dict(key)
    return _value([mapping.get(n, 0) for n in atoms], [float(v) for v in atoms.values()])


def _alphabet(model):
    names = list(model["atoms"])
    values = [float(model["atoms"][n]) for n in names]
    symbols = [
        (sym, tuple(int(weight.get(n, 0)) for n in names))
        for sym, weight in model["symbols"]
    ]
    return names, values, symbols


def suffix_automaton(model):
    """States are the proper pattern prefixes reachable from the empty one;
    a move is dropped when the extended string ends with a pattern."""
    patterns = [tuple(p) for p in model.get("forbidden", ())]
    prefixes = {()} | {p[:i] for p in patterns for i in range(1, len(p))}
    sym_names = [s for s, _ in model["symbols"]]

    def move(state, sym):
        s = state + (sym,)
        if any(s[len(s) - len(p):] == p for p in patterns if len(p) <= len(s)):
            return None
        for i in range(len(s) + 1):
            if s[i:] in prefixes:
                return s[i:]
        raise AssertionError("the empty prefix always matches")

    index = {(): 0}
    order = [()]
    delta = []
    i = 0
    while i < len(order):
        row = {}
        for sym in sym_names:
            t = move(order[i], sym)
            if t is None:
                continue
            if t not in index:
                index[t] = len(order)
                order.append(t)
            row[sym] = index[t]
        delta.append(row)
        i += 1
    return delta


def count_series(model, cutoff: float) -> dict:
    """Exact number of accepted strings per exact weight up to the cutoff."""
    names = list(model["atoms"])
    out = {}
    for mults, by_state in _walk(model, cutoff):
        out[ekey(dict(zip(names, mults)))] = sum(by_state.values())
    return {k: c for k, c in out.items() if c}


def configurations(model, cutoff: float) -> int:
    """Number of (exact weight, state) pairs reachable up to the cutoff: the
    size of one enumeration walk."""
    return sum(len(by_state) for _, by_state in _walk(model, cutoff))


def _walk(model, cutoff: float):
    """Yield (weight vector, {state: count}) in increasing weight order."""
    names, values, symbols = _alphabet(model)
    delta = suffix_automaton(model)
    zero = (0,) * len(names)
    pending = {zero: {0: 1}}
    heap = [(0.0, zero)]
    while heap:
        _, mults = heapq.heappop(heap)
        by_state = pending.pop(mults)
        yield mults, by_state
        for state, count in by_state.items():
            for sym, wv in symbols:
                target = delta[state].get(sym)
                if target is None:
                    continue
                nxt = tuple(a + b for a, b in zip(mults, wv))
                v = _value(nxt, values)
                if v > cutoff:
                    continue
                slot = pending.get(nxt)
                if slot is None:
                    slot = pending[nxt] = {}
                    heapq.heappush(heap, (v, nxt))
                slot[target] = slot.get(target, 0) + count


def _spectral_radius(matrix) -> float:
    return float(max(abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))


def _bisect_increasing(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Root of an increasing f on (lo, hi] with f(lo) < 0 <= f(hi)."""
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            return hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def transfer_capacity(model) -> float:
    """-ln y* where the Perron root of A(y) = sum over arcs of y**w is 1."""
    _, values, symbols = _alphabet(model)
    delta = suffix_automaton(model)
    n = len(delta)
    weight = {sym: _value(wv, values) for sym, wv in symbols}
    if len({wv for _, wv in symbols}) == 1:
        adjacency = [[0.0] * n for _ in range(n)]
        for p, row in enumerate(delta):
            for q in row.values():
                adjacency[p][q] += 1.0
        rho = _spectral_radius(adjacency)
        u = next(iter(weight.values()))
        return max(0.0, math.log(rho) / u) if rho > 0 else 0.0

    def excess(y: float) -> float:
        a = [[0.0] * n for _ in range(n)]
        for p, row in enumerate(delta):
            for sym, q in row.items():
                a[p][q] += y ** weight[sym]
        return _spectral_radius(a) - 1.0

    if excess(1.0) < 0.0:
        return 0.0
    return -math.log(_bisect_increasing(excess))


def monoid_capacity(weights) -> float:
    """Capacity of all concatenations of words with the given weights,
    assuming unique decodability (a free monoid or a prefix code)."""
    ws = [float(w) for w in weights]

    def excess(y: float) -> float:
        return sum(y ** w for w in ws) - 1.0

    if excess(1.0) <= 0.0:
        return 0.0
    return -math.log(_bisect_increasing(excess))
