"""One operation per Case, and the answer the gate checks.

In-process operations call the program through its module attributes at
call time, so the tracer's wrappers see every call. `run_*` is what the
clock measures; `answer` turns its result into plain data afterwards.
The fresh-process helpers serve the samples of interpreter start-up
and cold CLI calls taken between operations.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import dnccap
import dnccap.chanspec
import dnccap.genpoly
import dnccap.gf_builder
import dnccap.oracle
import dnccap.solver

from . import refs

CLI_TIMEOUT_S = 60.0


def series_dict(series) -> dict:
    basis = series.basis
    return {refs.ekey(wv.as_mapping(basis)): c for wv, c in series.entries}


def solve_auto(spec, gf):
    """The CLI's default route: pole scan for forbidden patterns and for
    denominators without star form, the characteristic root otherwise."""
    solver = dnccap.solver
    if isinstance(spec.constraint, dnccap.ForbiddenPatterns):
        return solver.smallest_positive_pole(gf)
    if solver.characteristic_part(gf.denominator) is None:
        return solver.smallest_positive_pole(gf)
    return solver.capacity_from_characteristic(gf)


def _parse(case):
    return dnccap.chanspec.parse_spec(case.spec)


def run_capacity(case):
    spec = _parse(case)
    return solve_auto(spec, dnccap.gf_builder.build_gf(spec))


def run_density(case):
    return dnccap.solver.check_density(json.loads(case.spec)["weights"])


def run_verify(case):
    """What `dnc capacity --verify` does, term-for-term comparison included."""
    spec = _parse(case)
    gf = dnccap.gf_builder.build_gf(spec)
    report = solve_auto(spec, gf)
    series = dnccap.genpoly.expand_series(gf, case.cutoff)
    enum = dnccap.oracle.enumerate_channel(spec, case.cutoff)
    estimate = dnccap.oracle.estimate_capacity(enum)
    return report, series, enum, estimate, series.entries == enum.series.entries


def run_series(case):
    spec = _parse(case)
    return dnccap.genpoly.expand_series(dnccap.gf_builder.build_gf(spec), case.cutoff)


def run_oracle_series(case):
    return dnccap.oracle.enumerate_by_weight(_parse(case), case.cutoff)


def run_oracle(case):
    enum = dnccap.oracle.enumerate_channel(_parse(case), case.cutoff)
    return enum, dnccap.oracle.estimate_capacity(enum)


RUNNERS = {
    "capacity": run_capacity,
    "density": run_density,
    "verify": run_verify,
    "series": run_series,
    "oracle-series": run_oracle_series,
    "oracle": run_oracle,
}


def _report(report) -> dict:
    return {"capacity": report.capacity_nats, "error_bound": report.error_bound,
            "method": report.method}


def answer(case, result) -> dict:
    op = case.op
    if op == "capacity":
        return _report(result)
    if op == "density":
        return {"flag": result.exponential_flag}
    if op == "verify":
        report, series, enum, estimate, agree = result
        out = _report(report)
        out.update(series=series_dict(series), enumerated=series_dict(enum.series),
                   estimate=estimate.capacity_nats)
        if not agree:
            out["self_reported"] = ["the program's own term-for-term check failed"]
        return out
    if op == "series":
        return {"series": series_dict(result)}
    if op == "oracle-series":
        return {"enumerated": series_dict(result)}
    if op == "oracle":
        enum, estimate = result
        return {"enumerated": series_dict(enum.series), "estimate": estimate.capacity_nats}
    raise ValueError(f"unknown operation {op!r}")


def run_in_process(case):
    """(answer, seconds); an exception is an answer of its own."""
    runner = RUNNERS[case.op]
    start = time.perf_counter()
    try:
        result = runner(case)
    except Exception as exc:  # the gate reports it; the loop keeps going
        return {"error": f"raised {type(exc).__name__}: {exc}"}, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return answer(case, result), elapsed


# --- fresh processes ----------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_process(argv, root: Path, env: dict):
    """(CompletedProcess, seconds) for one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc, time.perf_counter() - start
