"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line; run with `pytest
tests/test_acceptance.py -v -s` to see them as they execute. Tolerances
are pinned in the assertions, not configurable.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from dnccap import (
    GeneralizedPolynomial,
    SpecError,
    WeightBasis,
    WeightVector,
    build_gf,
    check_density,
    enumerate_by_weight,
    enumerate_channel,
    estimate_capacity,
    expand_series,
    parse_spec,
    render_spec,
    smallest_positive_root,
)
from dnccap.cli import _analytic_report
from dnccap.solver import (
    DEFAULT_TOL,
    bracket_denominator_roots,
    capacity_from_characteristic,
    characteristic_part,
    smallest_positive_pole,
)

from corpus import (
    CHANNELS_DIR,
    RANDOM_CODE_CUTOFFS,
    RANDOM_SEEDS,
    SHIPPED_CUTOFFS,
    cli_env,
    load_channel,
    random_code_channel,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _cli_json(name: str) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dnccap", "capacity", str(CHANNELS_DIR / name), "--json"],
        capture_output=True,
        text=True,
        timeout=10,
        env=cli_env(),
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


def corpus_specs():
    specs = {name: load_channel(name) for name in SHIPPED_CUTOFFS}
    cutoffs = dict(SHIPPED_CUTOFFS)
    for seed in RANDOM_SEEDS:
        name = f"random-code-{seed}"
        specs[name] = parse_spec(random_code_channel(seed))
        cutoffs[name] = RANDOM_CODE_CUTOFFS[seed]
    return specs, cutoffs


def test_mixed_weight_channel_reproduction():
    payload, elapsed = _cli_json("ex2.json")
    radius = payload["radius_or_pole"]
    capacity = payload["capacity_nats"]
    ok = (
        abs(radius - 0.72937) <= 1e-5
        and abs(capacity - 0.31558) <= 1e-4
        and elapsed < 1.0
    )
    _report(
        "mixed-weight channel reproduction",
        ok,
        f"R={radius:.6f} (want 0.72937±1e-5), C={capacity:.6f} "
        f"(want 0.31558±1e-4), {elapsed:.2f}s",
    )


def test_triple_run_channel_reproduction():
    payload, elapsed = _cli_json("ex3.json")
    pole = payload["radius_or_pole"]
    capacity = payload["capacity_nats"]

    basis = WeightBasis.from_mapping({"unit": 1.0})

    def poly(*coeff_by_power):
        return GeneralizedPolynomial(
            basis, {WeightVector((p,)): c for p, c in coeff_by_power}
        )

    gf = build_gf(load_channel("ex3.json"))
    correlation = poly((0, 1), (1, 1), (2, 1))
    want_den = poly((3, 1)) + poly((0, 1), (1, -2)) * correlation
    gf_ok = gf.numerator == correlation and gf.denominator == want_den

    ok = (
        abs(pole - 0.54369) <= 1e-5
        and abs(capacity - 0.60938) <= 1e-4
        and gf_ok
        and elapsed < 1.0
    )
    _report(
        "triple-run channel reproduction",
        ok,
        f"P={pole:.6f} (want 0.54369±1e-5), C={capacity:.6f} "
        f"(want 0.60938±1e-4), quotient term-for-term "
        f"{'ok' if gf_ok else 'MISMATCH'}, {elapsed:.2f}s",
    )


def test_run_length_limited_capacities_match_the_literature():
    # RLL(d, k) codes: between two 1s at least d and at most k 0s. Their
    # capacities in bits are tabulated by Immink and by Marcus, Roth and
    # Siegel: 0.6793 for (1, 7) and 0.5174 for (2, 7).
    published = {"rll-1-7.json": 0.6793, "rll-2-7.json": 0.5174}
    details = []
    ok = True
    for name, bits in published.items():
        gf = build_gf(load_channel(name))
        for report in (smallest_positive_pole(gf), capacity_from_characteristic(gf)):
            got = report.capacity_nats / math.log(2.0)
            ok = ok and round(got, 4) == bits
            details.append(f"{name} {report.method} {got:.6f} bits (want {bits})")
    _report("run-length-limited capacities", ok, "; ".join(details))


def test_shannons_telegraph_matches_the_literature():
    # Shannon (1948, section 1): dot 2 units, dash 4, letter space 3, word
    # space 6, and a space is followed by a dot or a dash. He gives 0.539
    # bits per unit. Forbidding two spaces in a row (word patterns over
    # multi-character names) differs only by a trailing space, so it has
    # the same capacity.
    regex_form = load_channel("telegraph.json")
    doc = json.loads((CHANNELS_DIR / "telegraph.json").read_text())
    doc["constraint"] = {
        "type": "forbidden",
        "patterns": ["lspace lspace", "lspace wspace", "wspace lspace", "wspace wspace"],
    }
    forbidden_form = parse_spec(json.dumps(doc))
    assert forbidden_form.constraint.patterns[1] == ("lspace", "wspace")
    regex_gf, forbidden_gf = build_gf(regex_form), build_gf(forbidden_form)
    reports = {
        "auto": _analytic_report(regex_form, regex_gf, None, DEFAULT_TOL),
        "pole": smallest_positive_pole(regex_gf),
    }
    forbidden = _analytic_report(forbidden_form, forbidden_gf, None, DEFAULT_TOL)
    ok = True
    details = []
    for route, report in reports.items():
        bits = report.capacity_nats / math.log(2.0)
        gap = abs(report.capacity_nats - forbidden.capacity_nats)
        ok = ok and round(bits, 3) == 0.539 and gap <= report.error_bound + forbidden.error_bound
        details.append(f"{route} {bits:.6f} bits (want 0.539), forbidden form {gap:.1e} off")
    _report("Shannon's telegraph", ok, "; ".join(details))


def test_enumeration_matches_series_on_corpus():
    specs, cutoffs = corpus_specs()
    start = time.perf_counter()
    checked = 0
    smallest = math.inf
    for name, spec in specs.items():
        cutoff = cutoffs[name]
        expanded = expand_series(build_gf(spec), cutoff)
        enumerated = enumerate_by_weight(spec, cutoff)
        assert expanded.entries == enumerated.entries, name
        total = enumerated.total_count()
        assert total >= 200, f"{name} yields only {total} strings"
        smallest = min(smallest, total)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 10 and elapsed < 30.0
    _report(
        "enumeration matches series expansion",
        ok,
        f"{checked} channels identical, smallest corpus size {int(smallest)} "
        f"strings, {elapsed:.2f}s",
    )


def test_capacity_estimate_converges_from_below():
    spec = load_channel("avoid11.json")
    truth = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    estimates = [
        estimate_capacity(enumerate_channel(spec, cutoff)).capacity_nats
        for cutoff in (15.0, 30.0, 60.0)
    ]
    monotone = estimates[0] <= estimates[1] <= estimates[2]
    below = all(e <= truth + 1e-9 for e in estimates)
    close = truth - estimates[2] <= 0.02
    _report(
        "capacity estimate converges from below",
        monotone and below and close,
        f"estimates {estimates[0]:.6f} <= {estimates[1]:.6f} <= "
        f"{estimates[2]:.6f}, target {truth:.6f}, final gap "
        f"{truth - estimates[2]:.4f} (want <= 0.02)",
    )


def test_characteristic_and_pole_methods_agree():
    specs, _ = corpus_specs()
    worst = 0.0
    compared = 0
    for name, spec in specs.items():
        gf = build_gf(spec)
        if characteristic_part(gf.denominator) is None:
            continue
        by_char = capacity_from_characteristic(gf)
        by_pole = smallest_positive_pole(gf)
        if not math.isfinite(by_char.radius_or_pole):
            continue
        worst = max(worst, abs(by_char.capacity_nats - by_pole.capacity_nats))
        compared += 1
    ok = compared >= 5 and worst <= 1e-8
    _report(
        "characteristic and pole methods agree",
        ok,
        f"{compared} star-form channels, worst disagreement {worst:.2e} "
        f"(want <= 1e-8)",
    )


def test_density_flag_separates_dense_from_sparse():
    doc = json.loads((CHANNELS_DIR / "dense-weights.json").read_text())
    dense = check_density(doc["weights"])

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dnccap",
            "check-density",
            str(CHANNELS_DIR / "dense-weights.json"),
        ],
        capture_output=True,
        text=True,
        timeout=10,
        env=cli_env(),
    )

    sparse_flags = {}
    for name in ("ex2.json", "ex3.json"):
        series = enumerate_by_weight(load_channel(name), 30.0)
        sparse_flags[name] = check_density(series.values(), cutoff=30.0).exponential_flag

    ok = (
        dense.exponential_flag
        and proc.returncode == 4
        and not any(sparse_flags.values())
    )
    _report(
        "density flag separates dense from sparse",
        ok,
        f"dense fixture flag={dense.exponential_flag} (CLI exit "
        f"{proc.returncode}, want 4), sparse flags {sparse_flags}",
    )


def test_positive_real_root_attains_minimal_modulus():
    gf = build_gf(load_channel("ex3.json"))
    pole = smallest_positive_pole(gf).radius_or_pole
    roots = np.roots([-1.0, -1.0, -1.0, 1.0])
    moduli = np.abs(roots)
    closest = roots[int(np.argmin(moduli))]
    all_outside = bool(np.all(moduli >= pole - 1e-9))
    min_is_positive_real = abs(closest.imag) <= 1e-9 and closest.real > 0
    _report(
        "positive real root attains minimal modulus",
        all_outside and min_is_positive_real,
        f"{len(roots)} denominator roots, moduli >= {pole:.6f} - 1e-9: "
        f"{all_outside}, minimal one at {closest:.6f}",
    )


def test_every_solver_return_is_certified():
    specs, _ = corpus_specs()
    enclosures = 0
    for spec in specs.values():
        gf = build_gf(spec)
        den = gf.denominator
        growth = characteristic_part(den)
        if growth is not None and growth:
            d0 = float(den.constant_coefficient)
            result = smallest_positive_root(growth, d0)
            assert result.low <= result.root <= result.high
            assert result.high - result.low <= 1e-12
            assert growth.evaluate(result.low) <= d0 <= growth.evaluate(result.high)
            enclosures += 1
        candidates, _evals = bracket_denominator_roots(gf)
        for cand in candidates:
            assert cand.low <= cand.root <= cand.high
            assert cand.high - cand.low <= 1e-12
            assert den.evaluate(cand.low) * den.evaluate(cand.high) <= 0.0
            enclosures += 1
    _report(
        "every solver return is certified",
        enclosures > 0,
        f"{enclosures} enclosures verified: root inside, width <= 1e-12, "
        f"endpoint values bracket the target",
    )


def test_parser_survives_random_bytes():
    rng = random.Random(20260819)
    trials = 100_000
    accepted = 0
    for _ in range(trials):
        blob = rng.randbytes(rng.randint(0, 64))
        try:
            parse_spec(blob)
            accepted += 1
        except SpecError:
            pass
    _report(
        "parser survives random bytes",
        True,
        f"{trials} inputs, {accepted} parsed, rest rejected with SpecError, "
        f"no crashes",
    )


def test_spec_round_trip_on_corpus():
    specs, _ = corpus_specs()
    for name, spec in specs.items():
        assert parse_spec(render_spec(spec)) == spec, name
    _report(
        "spec round-trip identity on corpus",
        True,
        f"{len(specs)} channels re-parse to equal specs",
    )
