"""Seeded inputs for the two workloads.

`cases(workload, seed)` returns one cycle of operations; the harness
repeats the cycle until its time is up. The program only ever sees the
spec bytes. Everything else in a Case tells the gate how to check the
answer:

    words        weights of the words of a uniquely decodable code
                 (a free monoid or a prefix code): capacity by bisection
    model        weighted alphabet plus forbidden substrings (see refs):
                 exact counts by dynamic programming, capacity from the
                 transfer matrix
    frozen       name of a frozen series in reference/series.json
    flag         the density flag the weight set was built to trip or not

The same (workload, seed) always gives byte-identical spec documents. Each
family's size parameter is stratified over the cycle rather than drawn, so
seeds change the details (bits, weights, code words) but not the mix, and
the latency distribution keeps its shape from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import refs

CHANNELS = Path(__file__).resolve().parents[2] / "channels"

# Forbidden-substring descriptions of the shipped channels. ex2's regex
# (ε|1)(0|01)* is exactly "no 11" over weights 1 and pi.
CHANNEL_FORBIDDEN = {
    "ex2": [["1", "1"]],
    "ex3": [["1", "1", "1"]],
    "mixed-free": [],
    "half-step": [],
}

# Deepest cutoff each frozen series in reference/series.json covers.
FROZEN_CUTOFFS = {"ex3": 205.5, "ex2": 85.5, "mixed-free": 85.5, "half-step": 45.5}

ATOMS = {"unit": 1.0, "pi": math.pi, "e": math.e, "r2": math.sqrt(2.0)}


@dataclass(frozen=True)
class Case:
    """One operation: `op` picks the runner in ops.RUNNERS, `spec` is the
    document the program reads, `ref` what the gate compares with (keys
    above)."""

    name: str
    op: str
    spec: bytes
    cutoff: float | None = None
    ref: dict = field(default_factory=dict)


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def channel_model(name: str) -> dict:
    doc = json.loads((CHANNELS / f"{name}.json").read_text(encoding="utf-8"))
    return {
        "atoms": doc["atoms"],
        "symbols": [[s["name"], s["weight"]] for s in doc["symbols"]],
        "forbidden": CHANNEL_FORBIDDEN[name],
    }


def channel_bytes(name: str) -> bytes:
    return (CHANNELS / f"{name}.json").read_bytes()


def _spec_doc(model, constraint) -> dict:
    return {
        "atoms": model["atoms"],
        "symbols": [{"name": s, "weight": w} for s, w in model["symbols"]],
        "constraint": constraint,
    }


def _forbidden_doc(model) -> dict:
    if not model["forbidden"]:
        return _spec_doc(model, {"type": "free"})
    return _spec_doc(
        model,
        {"type": "forbidden", "patterns": ["".join(p) for p in model["forbidden"]]},
    )


# --- families -----------------------------------------------------------------


def free_monoid(rng: random.Random, k: int) -> tuple[dict, list]:
    """k symbols, each weighted by its own generic atom in [0.5, 2.5)."""
    atoms = {f"w{i}": rng.uniform(0.5, 2.5) for i in range(k)}
    model = {
        "atoms": atoms,
        "symbols": [[f"s{i}", {f"w{i}": 1}] for i in range(k)],
        "forbidden": [],
    }
    return model, list(atoms.values())


def single_pattern(rng: random.Random, k: int) -> dict:
    """One binary pattern of length k over two symbols of one weight u."""
    bits = [rng.choice("01") for _ in range(k)]
    return {
        "atoms": {"u": rng.uniform(0.5, 2.0)},
        "symbols": [["0", {"u": 1}], ["1", {"u": 1}]],
        "forbidden": [bits],
    }


def prefix_code(rng: random.Random, n_words: int) -> tuple[dict, list]:
    """Regex (ε|x)(w1|...|wn)* with the w's a prefix code over a, b, c and
    x a fourth symbol that starts no code word, so the regex is unambiguous
    and its denominator has star form. Mixed weights over unit, pi, e, r2."""
    names = list(ATOMS)
    weights = {}
    for sym in "abcx":
        mapping = {}
        while not mapping:
            mapping = {n: 1 for n in names if rng.random() < 0.35}
        weights[sym] = mapping
    words: list[str] = []
    while len(words) < n_words:
        # A greedy draw can complete the code early; start over when it does.
        words = []
        for _ in range(100):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            if all(not w.startswith(v) and not v.startswith(w) for v in words):
                words.append(w)
                if len(words) == n_words:
                    break
    doc = {
        "atoms": ATOMS,
        "symbols": [{"name": s, "weight": weights[s]} for s in "abcx"],
        "constraint": {
            "type": "regex",
            "expr": "(ε|x)(" + "|".join(words) + ")*",
            "unambiguous": True,
        },
    }

    def wvalue(sym: str) -> float:
        return sum(m * ATOMS[n] for n, m in weights[sym].items())

    word_weights = [sum(wvalue(ch) for ch in w) for w in words]
    return doc, word_weights


def density_weights(rng: random.Random, dense: bool) -> list:
    """A weight list whose count below n grows exponentially (dense) or
    quadratically (the lattice a*alpha + b*beta)."""
    if dense:
        out = []
        for n in range(1, 13):
            m = int(1.55 ** n)
            out.extend(round(n - 1 + (j + rng.random()) / (m + 1), 9) for j in range(m))
        return sorted(set(w for w in out if w > 0))
    alpha, beta = rng.uniform(0.7, 1.6), rng.uniform(0.7, 1.6)
    # check_density fits the upper half of the thresholds; cut at 24, about
    # 1 in 100 such lattices still looks exponential to it, at 32 none did
    # in 400 draws.
    top = 32.0
    return sorted(
        round(a * alpha + b * beta, 9)
        for a in range(int(top / alpha) + 1)
        for b in range(int(top / beta) + 1)
        if 0 < a * alpha + b * beta <= top
    )


def _state_count(patterns) -> int:
    """len(refs.suffix_automaton(...)) without building it: reading a
    pattern-free proper prefix leads to the state of that prefix, and every
    state is one, so the states are the proper prefixes free of patterns."""
    prefixes = {p[:i] for p in patterns for i in range(len(p))}
    return sum(not any(p in q for p in patterns) for q in prefixes)


def pattern_set(rng: random.Random, states: int) -> dict:
    """Three to six binary forbidden patterns of lengths 3 to 7 over weights
    1 and pi whose matching automaton has exactly `states` states, so the
    oracle's work per walk is fixed by the slot rather than by the seed;
    kept only when the channel still has positive capacity."""
    while True:
        pats = set()
        n_patterns = rng.randint(3, 6)
        while len(pats) < n_patterns:
            pats.add("".join(rng.choice("01") for _ in range(rng.randint(3, 7))))
        model = {
            "atoms": {"unit": 1.0, "pi": math.pi},
            "symbols": [["0", {"unit": 1}], ["1", {"pi": 1}]],
            "forbidden": [list(p) for p in sorted(pats)],
        }
        if _state_count(pats) == states and refs.transfer_capacity(model) > 0.05:
            return model


# --- workloads ----------------------------------------------------------------


def capacity_sweep(rng: random.Random) -> list[Case]:
    """Parse, build the quotient, solve by the auto route. Three draws each
    of 15 free monoids, 14 single patterns, 8 prefix-code regexes and 3
    density lists: 120 cases."""
    out = []
    for r in range(3):
        for k in range(2, 17):
            model, words = free_monoid(rng, k)
            out.append(Case(f"free-{k}.{r}", "capacity", _dumps(_forbidden_doc(model)),
                            ref={"words": words}))
        for k in range(3, 17):
            model = single_pattern(rng, k)
            out.append(Case(f"pattern-{k}.{r}", "capacity", _dumps(_forbidden_doc(model)),
                            ref={"model": model}))
        for n in range(2, 10):
            doc, words = prefix_code(rng, n)
            out.append(Case(f"code-{n}.{r}", "capacity", _dumps(doc), ref={"words": words}))
        for i, dense in enumerate((False, True, False)):
            doc = {"weights": density_weights(rng, dense)}
            out.append(Case(f"density-{i}.{r}", "density", _dumps(doc), ref={"flag": dense}))
    rng.shuffle(out)
    return out


# Automaton sizes of the multi-pattern slots in counts-deep, and the number
# of (weight, state) configurations one enumeration walk should reach: each
# set's cutoff is raised until it does, so a slot costs about the same
# whatever patterns the seed drew.
PATTERN_STATES = (8, 12, 16, 20, 24, 27)
PATTERN_CONFIGURATIONS = 150


def counts_deep(rng: random.Random) -> list[Case]:
    """Deep exact counts on the shipped channels, each cutoff through the
    series, the enumerator and `capacity --verify` (78 cases); 24
    multi-pattern sets through the oracle only. The many cheap cutoffs
    fill in the latency distribution between the deep ones, so that p90
    does not hang on a few cases, while the cycle stays short enough for
    each case to repeat often in a run."""
    out = []
    plan = {
        "ex3": (40, 80, 120, 160, 200),
        "ex2": (20, 30, 40, 50, 60, 70, 80),
        "mixed-free": (20, 30, 40, 50, 60, 70, 80),
        "half-step": (10, 15, 20, 25, 30, 35, 40),
    }
    for name, cutoffs in plan.items():
        spec = channel_bytes(name)
        ref = {"frozen": name, "model": channel_model(name)}
        for base in cutoffs:
            for op in ("verify", "series", "oracle-series"):
                cutoff = base + round(rng.uniform(0.0, 0.5), 3)
                out.append(Case(f"{name}-{op}-{base}", op, spec, cutoff, ref=ref))
    for i, states in enumerate(PATTERN_STATES * 4):
        model = pattern_set(rng, states)
        cutoff = 8.0
        while refs.configurations(model, cutoff) < PATTERN_CONFIGURATIONS:
            cutoff += 0.5
        cutoff += round(rng.uniform(0.0, 0.25), 3)
        out.append(
            Case(f"patterns-{i}", "oracle", _dumps(_forbidden_doc(model)), cutoff, ref={"model": model})
        )
    rng.shuffle(out)
    return out


WORKLOADS = {
    "capacity-sweep": capacity_sweep,
    "counts-deep": counts_deep,
}


def cases(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def defect_probes() -> list[Case]:
    """The known wrong or refused answers listed in ROADMAP item 2, each
    with a reference the gate computes independently."""
    double_pole = {
        "atoms": {"unit": 1.0, "r2": math.sqrt(2.0)},
        "symbols": [
            {"name": "0", "weight": {"unit": 1}},
            {"name": "1", "weight": {"r2": 1}},
            {"name": "2", "weight": {"unit": 1}},
        ],
        "constraint": {"type": "regex", "expr": "(0|1)*2(0|1)*", "unambiguous": True},
    }
    ambiguous = {
        "atoms": {"unit": 1.0},
        "symbols": [{"name": "0", "weight": {"unit": 1}}],
        "constraint": {"type": "regex", "expr": "(0|00)*", "unambiguous": True},
    }
    two_patterns = {
        "atoms": {"unit": 1.0, "pi": math.pi},
        "symbols": [["0", {"unit": 1}], ["1", {"pi": 1}]],
        "forbidden": [["1", "1"], ["0", "0", "0"]],
    }
    return [
        # Exactly one 2: the growth is that of (0|1)*, weights 1 and sqrt 2.
        Case("double-pole", "capacity", _dumps(double_pole), ref={"words": [1.0, math.sqrt(2.0)]}),
        # The language is 0*, one string per length: capacity 0.
        Case("ambiguous-declared", "capacity", _dumps(ambiguous), ref={"words": [1.0]}),
        Case("two-patterns", "capacity", _dumps(_forbidden_doc(two_patterns)), ref={"model": two_patterns}),
    ]
