"""Correctness gate: every operation's answer against an outside reference.

An answer is a plain dict the workload runner extracts from the program's
output after the operation's clock has stopped. `Gate.check` returns the
list of problems; an empty list means the operation passed.

References never come from the route being checked:
  capacity  bisection on sum of y**w = 1 for a free monoid or prefix code,
            otherwise the Perron root of a transfer matrix the benchmark
            builds itself (refs.transfer_capacity)
  counts    the frozen series in reference/series.json where a case names
            one, otherwise the benchmark's own dynamic program
  density   the growth law the weight list was constructed with
The two counting routes (series expansion and enumeration) must also agree
with each other wherever an operation produces both.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import refs

CAPACITY_TOL = 1e-9
FROZEN_PATH = Path(__file__).resolve().parent.parent / "reference" / "series.json"


def load_frozen(path: Path = FROZEN_PATH) -> dict:
    """name -> (atoms, cutoff, {exponent key: count})."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    out = {}
    for name, entry in doc["series"].items():
        counts = {refs.ekey(m): int(c) for m, c in entry["entries"]}
        out[name] = (entry["atoms"], float(entry["cutoff"]), counts)
    return out


class Gate:
    def __init__(self, frozen: dict):
        self.frozen = frozen
        self._capacity: dict = {}
        self._series: dict = {}

    def capacity(self, case) -> float:
        key = (case.name, case.spec)
        if key not in self._capacity:
            ref = case.ref
            if "words" in ref:
                value = refs.monoid_capacity(ref["words"])
            else:
                value = refs.transfer_capacity(ref["model"])
            self._capacity[key] = value
        return self._capacity[key]

    def series(self, case, cutoff: float) -> dict:
        key = (case.name, case.spec, cutoff)
        if key not in self._series:
            name = case.ref.get("frozen")
            if name is not None and cutoff <= self.frozen[name][1]:
                atoms, _, counts = self.frozen[name]
                value = {k: c for k, c in counts.items() if refs.key_value(k, atoms) <= cutoff}
            else:
                value = refs.count_series(case.ref["model"], cutoff)
            self._series[key] = value
        return self._series[key]

    def prepare(self, case) -> None:
        """Compute the references `check` will need for this case."""
        if case.op in ("capacity", "verify", "oracle"):
            self.capacity(case)
        if case.op not in ("capacity", "density"):
            self.series(case, case.cutoff)

    def check(self, case, answer: dict) -> list[str]:
        problems = []
        if "error" in answer:
            return [answer["error"]]
        if "capacity" in answer:
            expected = self.capacity(case)
            got, bound = answer["capacity"], answer["error_bound"]
            if not abs(got - expected) <= bound + CAPACITY_TOL:
                problems.append(
                    f"capacity {got!r} (bound {bound:.3g}, {answer.get('method')}) "
                    f"but the reference is {expected!r}"
                )
        for label in ("series", "enumerated"):
            if label in answer:
                expected = self.series(case, case.cutoff)
                diff = _first_difference(answer[label], expected)
                if diff:
                    problems.append(f"{label} counts at cutoff {case.cutoff:g}: {diff}")
        if "series" in answer and "enumerated" in answer and answer["series"] != answer["enumerated"]:
            problems.append("series expansion and enumeration disagree")
        if "estimate" in answer:
            expected = self.capacity(case)
            if not 0.0 <= answer["estimate"] <= expected + CAPACITY_TOL:
                problems.append(
                    f"oracle lower bound {answer['estimate']!r} exceeds the reference {expected!r}"
                )
        if "flag" in answer and answer["flag"] != case.ref["flag"]:
            problems.append(f"density flag {answer['flag']} but the weights were built with {case.ref['flag']}")
        for what in answer.get("self_reported", ()):
            problems.append(what)
        return problems


def _first_difference(got: dict, expected: dict) -> str | None:
    if got == expected:
        return None
    for key in sorted(set(got) | set(expected)):
        if got.get(key) != expected.get(key):
            return f"at {dict(key) or 0} got {got.get(key)} expected {expected.get(key)}"
    return None
