"""Spans around the program's public entry points, recorded from outside.

`Tracer.install()` replaces each target function with a wrapper in every
loaded dnccap module that holds a reference to it (so `cli`'s
`from .gf_builder import build_gf` is wrapped too), and `uninstall()` puts
the originals back. No file of the program changes.

A span is [id, parent id, name, start, end, info]; `info` is a small
summary of the result (term counts, states, method) taken after the span's
clock stopped. Spans stay in memory until the caller writes them out.

This module imports nothing from the benchmark package, so the traced CLI
child (child.py) can load it on its own.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer, module, attribute, summary of the result)
TARGETS = (
    ("chanspec", "dnccap.chanspec", "load_spec", None),
    ("chanspec", "dnccap.chanspec", "parse_spec", None),
    ("gf_builder", "dnccap.gf_builder", "build_gf",
     lambda gf: (len(gf.numerator), len(gf.denominator))),
    ("genpoly", "dnccap.genpoly", "expand_series", len),
    ("genpoly", "dnccap.genpoly", "GeneralizedPolynomial.evaluate", None),
    ("solver", "dnccap.solver", "characteristic_part", None),
    ("solver", "dnccap.solver", "capacity_from_characteristic", lambda r: r.iterations),
    ("solver", "dnccap.solver", "smallest_positive_pole", lambda r: r.iterations),
    ("solver", "dnccap.solver", "check_density", None),
    ("automaton", "dnccap.automaton", "for_spec", lambda m: m.n_states),
    ("oracle", "dnccap.oracle", "enumerate_channel",
     lambda e: (len(e.series), e.states_analyzed, len(e.loop_counts))),
    ("oracle", "dnccap.oracle", "estimate_capacity", None),
    ("cli", "dnccap.cli", "main", None),
)


def span_name(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._sites: list = []

    def begin(self, name: str) -> list:
        rec = [self._next_id, self._stack[-1] if self._stack else -1, name,
               time.perf_counter(), 0.0, None]
        self._next_id += 1
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, summary):
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            rec = [sid, stack[-1] if stack else -1, name, clock(), 0.0, None]
            tracer.spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if summary is not None:
                rec[5] = summary(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if not self._sites:
            self._sites = self._find_sites()
        for owner, key, _, wrapped in self._sites:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def _find_sites(self) -> list:
        """(owner, attribute, original, wrapper) for every reference to a
        target in the loaded dnccap modules."""
        sites = []
        for layer, modname, attribute, summary in TARGETS:
            module = importlib.import_module(modname)
            name = span_name(layer, attribute)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                sites.append((owner, method, original, self._wrap(name, original, summary)))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original, summary)
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "dnccap" or mname.startswith("dnccap.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key, original, wrapped))
        return sites

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict:
    """Per span id: duration minus the durations of its direct children."""
    own = {rec[0]: rec[4] - rec[3] for rec in spans}
    for rec in spans:
        if rec[1] in own:
            own[rec[1]] -= rec[4] - rec[3]
    return own
