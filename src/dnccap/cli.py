"""Command line interface.

    dnc capacity SPEC [--method M] [--cutoff W] [--verify] [--tol T] [--json]
    dnc coefficients SPEC --cutoff W [--oracle] [--json]
    dnc check-density FILE [--cutoff W] [--margin M] [--json]
    dnc gf SPEC [--json]

Exit codes: 0 success; 1 unreadable or invalid spec; 2 solver failure, an
exceeded work budget, an unsupported channel/method combination, or a
missing or out-of-range option; 3 verification mismatch; 4 density check
flagged exponential weight growth.

Text output rounds to five significant digits; --json emits the full
precision payload with sorted keys, so identical inputs give byte-identical
output, and writes a non-finite number (such as the infinite radius of a
finite language) as null. Warnings (for example, distinct exact weights
merged in a printed row because their numeric values collide) go to stderr.

`check-density` proves a spec's answer from its alphabet: below weight n lie
at most C(floor(n / w) + k, k) distinct weights for k symbols of least weight
w, as a string has at most floor(n / w) symbols and its counts fix its weight.
A weight list is finite, so least-squares fits of its counts can suggest
exponential growth but not prove it; its text and JSON name that heuristic.

The enumeration oracle is imported by the commands that enumerate, when
they do, so an analytic answer never loads it or its automaton.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .chanspec import ChannelSpec, ForbiddenPatterns, load_spec, parse_spec
from .errors import DncError, SpecError
from .genpoly import CoefficientSeries, GeneralizedPolynomial, RationalGF, expand_series
from .gf_builder import build_gf
from .solver import (
    CapacityReport,
    capacity_from_characteristic,
    characteristic_part,
    check_density,
    smallest_positive_pole,
)

TIE_EPSILON = 1e-9


def _fmt(x: float) -> str:
    return f"{x:.5g}"


def _number(allow_zero: bool):
    """argparse type: a finite float, >= 0 or > 0."""
    bound = "nonnegative" if allow_zero else "positive"

    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not math.isfinite(x) or x < 0 or (x == 0 and not allow_zero):
            raise argparse.ArgumentTypeError(
                f"expected a finite {bound} number, got {text!r}"
            )
        return x

    return parse


_nonnegative = _number(allow_zero=True)
_positive = _number(allow_zero=False)


def _analytic_report(
    spec: ChannelSpec, gf: RationalGF, method: str | None, tol: float
) -> CapacityReport:
    """Solve by the named method. Without one: the pole scan for forbidden
    patterns, else the characteristic root in star form, else the pole scan."""
    if method is None:
        star = not isinstance(spec.constraint, ForbiddenPatterns) and (
            characteristic_part(gf.denominator) is not None
        )
        method = "characteristic" if star else "pole"
    if method == "characteristic":
        return capacity_from_characteristic(gf, tol=tol)
    return smallest_positive_pole(gf, tol=tol)


def _series_rows(series: CoefficientSeries) -> tuple[list[dict], int]:
    """Output rows with numerically colliding weights merged; returns the
    rows and the number of merge events."""
    basis = series.basis
    rows: list[dict] = []
    merges = 0
    for value, (wv, count) in zip(series.values(), series.entries):
        term = {"exponents": wv.as_mapping(basis), "count": count}
        if rows and value - rows[-1]["weight"] <= TIE_EPSILON:
            rows[-1]["count"] += count
            rows[-1]["terms"].append(term)
            merges += 1
        else:
            rows.append({"weight": value, "count": count, "terms": [term]})
    return rows, merges


def _poly_terms(p: GeneralizedPolynomial) -> list[dict]:
    return [
        {
            "coefficient": c,
            "exponents": wv.as_mapping(p.basis),
            "weight": wv.value(p.basis),
        }
        for wv, c in p.sorted_terms()
    ]


def _poly_text(p: GeneralizedPolynomial) -> str:
    parts = []
    for wv, c in p.sorted_terms():
        v = wv.value(p.basis)
        if wv.is_zero():
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{mag}y^{v:.10g}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
    return " ".join([head] + parts[1:])


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None, which
    JSON writes as null: JSON has no Infinity or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(payload: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        text = json.dumps(
            _finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False
        )
        sys.stdout.write(text + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _warn(message: str) -> None:
    sys.stderr.write(f"warning: {message}\n")


def cmd_capacity(args) -> int:
    spec = load_spec(args.spec)
    oracle = args.method == "oracle"
    if args.cutoff is None and (oracle or args.verify):
        raise DncError(f"{'--method oracle' if oracle else '--verify'} requires --cutoff")
    if oracle or args.verify:
        from .oracle import enumerate_channel, estimate_capacity
    if oracle:
        enum = enumerate_channel(spec, args.cutoff)
        report = estimate_capacity(enum)
    else:
        gf = build_gf(spec)
        report = _analytic_report(spec, gf, args.method, args.tol)
    payload = {"command": "capacity", **report.to_dict()}
    lines = [
        f"method: {report.method}",
        f"radius or pole: {_fmt(report.radius_or_pole)}",
        f"capacity: {_fmt(report.capacity_nats)} nats per unit weight",
        f"error bound: {_fmt(report.error_bound)}",
        f"iterations: {report.iterations}",
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    code = 0
    if args.verify:
        series = expand_series(build_gf(spec) if oracle else gf, args.cutoff)
        if oracle:
            estimate = report
        else:
            enum = enumerate_channel(spec, args.cutoff)
            estimate = estimate_capacity(enum)
        mismatch = _first_mismatch(series, enum.series)
        slack = report.error_bound if math.isfinite(report.error_bound) else math.inf
        estimate_ok = (
            oracle
            or estimate.capacity_nats <= report.capacity_nats + slack + 1e-9
        )
        verification = {
            "cutoff": float(args.cutoff),
            "coefficients_match": mismatch is None,
            "weight_classes": len(enum.series),
            "strings": enum.series.total_count(),
            "estimate_nats": estimate.capacity_nats,
            "estimate_within_bound": estimate_ok,
        }
        if mismatch is not None:
            verification["first_mismatch"] = mismatch
            code = 3
            lines.append(f"verification: FAILED, {mismatch}")
        elif not estimate_ok:
            code = 3
            lines.append(
                "verification: FAILED, oracle lower bound "
                f"{_fmt(estimate.capacity_nats)} exceeds the computed capacity"
            )
        else:
            lines.append(
                f"verification: oracle agrees at cutoff {_fmt(args.cutoff)} "
                f"({len(enum.series)} weight classes, "
                f"{enum.series.total_count()} strings, "
                f"lower bound {_fmt(estimate.capacity_nats)})"
            )
        payload["verification"] = verification
    _emit(payload, lines, args.json)
    return code


def _first_mismatch(expanded: CoefficientSeries, enumerated: CoefficientSeries):
    """Describe the first disagreement between two exact series, or None."""
    for (wv_a, c_a), (wv_b, c_b) in zip(expanded.entries, enumerated.entries):
        if wv_a != wv_b or c_a != c_b:
            va = wv_a.value(expanded.basis)
            vb = wv_b.value(enumerated.basis)
            return (
                f"series gives {c_a} at weight {va:.10g}, "
                f"enumeration gives {c_b} at weight {vb:.10g}"
            )
    if len(expanded.entries) != len(enumerated.entries):
        a, b = len(expanded.entries), len(enumerated.entries)
        return f"series has {a} weight classes, enumeration has {b}"
    return None


def cmd_coefficients(args) -> int:
    spec = load_spec(args.spec)
    if args.oracle:
        from .oracle import enumerate_by_weight

        series = enumerate_by_weight(spec, args.cutoff)
        source = "oracle"
    else:
        series = expand_series(build_gf(spec), args.cutoff)
        source = "series"
    rows, merges = _series_rows(series)
    if merges:
        for row in rows:
            if len(row["terms"]) > 1:
                _warn(
                    f"{len(row['terms'])} distinct exact weights printed as one "
                    f"row at weight {row['weight']:.12g} (values within {TIE_EPSILON:g})"
                )
    payload = {
        "command": "coefficients",
        "cutoff": float(args.cutoff),
        "source": source,
        "rows": rows,
    }
    lines = [f"{'weight':>14}  {'count':>12}  exponents"]
    for row in rows:
        expo = ", ".join(
            "+".join(f"{k}={v}" for k, v in term["exponents"].items()) or "0"
            for term in row["terms"]
        )
        lines.append(f"{row['weight']:>14.8g}  {row['count']:>12}  {expo}")
    _emit(payload, lines, args.json)
    return 0


def cmd_check_density(args) -> int:
    with open(args.spec, "rb") as fh:
        raw = fh.read()
    weights = _weight_list(raw)
    if weights is None:
        spec = parse_spec(raw)
        k = len(spec.symbols)
        w_min = min(s.weight.value(spec.basis) for s in spec.symbols)
        payload = {
            "command": "check-density",
            "exponential_flag": False,
            "symbols": k,
            "min_weight": w_min,
        }
        lines = [
            f"distinct weights below n: at most C(floor(n / {_fmt(w_min)}) + {k}, {k})",
            "exponential growth: no",
        ]
        _emit(payload, lines, args.json)
        return 0
    report = check_density(weights, cutoff=args.cutoff, margin=args.margin)
    method = "heuristic least-squares fit of a finite weight list"
    payload = {"command": "check-density", "method": method, **report.to_dict()}
    lines = [
        f"method: {method}; it can suggest exponential growth, not prove it",
        f"cutoff: {_fmt(report.cutoff)}",
        f"distinct weights below cutoff: {report.counts_below_n[-1][1]}",
        f"fitted growth exponent: {_fmt(report.fitted_exponent)}",
        f"polynomial fit residual: {_fmt(report.poly_residual)}",
        f"exponential fit residual: {_fmt(report.exp_residual)}",
        f"exponential growth: {'yes' if report.exponential_flag else 'no'}",
    ]
    if report.exponential_flag:
        lines.append(
            "the fit suggests weights too dense for a well defined capacity "
            "(counts below n growing exponentially in n)"
        )
    _emit(payload, lines, args.json)
    return 4 if report.exponential_flag else 0


def _weight_list(raw: bytes) -> list[float] | None:
    """The checked weights of a {"weights": [...]} document; None for a spec."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"density input is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and set(doc) == {"weights"}:
        weights = doc["weights"]
        if not isinstance(weights, list) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
        ):
            raise SpecError("weights: expected an array of numbers")
        values = []
        for i, w in enumerate(weights):
            try:
                x = float(w)
            except OverflowError:
                x = math.inf
            if not (math.isfinite(x) and x >= 0):
                raise SpecError(
                    f"weights[{i}]: expected a finite nonnegative number, got {x!r}"
                )
            values.append(x)
        return values
    return None


def cmd_gf(args) -> int:
    spec = load_spec(args.spec)
    gf = build_gf(spec)
    payload = {
        "command": "gf",
        "numerator": _poly_terms(gf.numerator),
        "denominator": _poly_terms(gf.denominator),
    }
    lines = [
        f"numerator: {_poly_text(gf.numerator)}",
        f"denominator: {_poly_text(gf.denominator)}",
    ]
    _emit(payload, lines, args.json)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnc",
        description="Capacity and exact string counts of weighted constrained channels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cap = sub.add_parser("capacity", help="capacity in nats per unit weight")
    cap.add_argument("spec", help="channel spec file (JSON)")
    cap.add_argument(
        "--method",
        choices=["characteristic", "pole", "oracle"],
        help="characteristic root, pole scan, or enumeration lower bound "
        "(default: picked from the constraint kind)",
    )
    cap.add_argument("--cutoff", type=_nonnegative, help="weight cutoff for enumeration")
    cap.add_argument(
        "--verify",
        action="store_true",
        help="cross-check coefficients and the capacity against enumeration "
        "(requires --cutoff); mismatches exit 3",
    )
    cap.add_argument("--tol", type=_positive, default=1e-12, help="bracket width tolerance")
    cap.add_argument("--json", action="store_true", help="machine readable output")
    cap.set_defaults(func=cmd_capacity)

    coef = sub.add_parser("coefficients", help="exact string counts by weight")
    coef.add_argument("spec", help="channel spec file (JSON)")
    coef.add_argument("--cutoff", type=_nonnegative, required=True, help="weight cutoff")
    coef.add_argument(
        "--oracle",
        action="store_true",
        help="count by enumeration instead of series expansion",
    )
    coef.add_argument("--json", action="store_true", help="machine readable output")
    coef.set_defaults(func=cmd_coefficients)

    dens = sub.add_parser(
        "check-density",
        help="flag weight sets too dense for a well defined capacity",
    )
    dens.add_argument(
        "spec", help="channel spec file, or a JSON document {\"weights\": [...]}"
    )
    dens.add_argument(
        "--cutoff",
        type=_nonnegative,
        help="weight cutoff for a weight list (default: its largest weight); specs ignore it",
    )
    dens.add_argument(
        "--margin",
        type=_nonnegative,
        default=1.0,
        help="for a weight list, flag when the exponential fit residual is below "
        "margin times the polynomial one; specs ignore it",
    )
    dens.add_argument("--json", action="store_true", help="machine readable output")
    dens.set_defaults(func=cmd_check_density)

    gf = sub.add_parser("gf", help="print the closed-form counting quotient")
    gf.add_argument("spec", help="channel spec file (JSON)")
    gf.add_argument("--json", action="store_true", help="machine readable output")
    gf.set_defaults(func=cmd_gf)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: cannot read spec: {exc}\n")
        return 1
    except (DncError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
