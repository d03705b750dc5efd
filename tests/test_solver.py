"""Root finding, pole scanning, and the density diagnostic."""

from __future__ import annotations

import json
import math
import random
import sys
import time
from decimal import Decimal, localcontext

import pytest

from dnccap import (
    EvalOverflowError,
    GeneralizedPolynomial,
    InsufficientDataError,
    RationalGF,
    ResourceLimitError,
    SolverError,
    WeightBasis,
    WeightVector,
    build_gf,
    expand_series,
)
from dnccap import solver
from dnccap.oracle import enumerate_by_weight
from dnccap.solver import (
    MAX_DENSITY_THRESHOLDS,
    bracket_denominator_roots,
    capacity_from_characteristic,
    characteristic_part,
    check_density,
    smallest_positive_pole,
    smallest_positive_root,
)

from corpus import CHANNELS_DIR, load_channel


UNIT = WeightBasis.from_mapping({"unit": 1.0})

# Sibling constants, pinned once: the mixed-exponent radius solves
# y + y**(1+pi) = 1 and the cubic radius solves y + y**2 + y**3 = 1.
MIXED_RADIUS = 0.7293675247571587
CUBIC_RADIUS = 0.5436890126920764
INVERSE_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def unit_poly(*coeff_by_power):
    return GeneralizedPolynomial(
        UNIT, {WeightVector((p,)): c for p, c in coeff_by_power}
    )


def count_passes(monkeypatch, skip=None):
    """The points of every pass over a polynomial's terms from now on:
    evaluate and value_and_slope, except those on `skip`, and the pole
    scan's own pass over its denominator's terms."""
    calls = []
    for owner, name in (
        (GeneralizedPolynomial, "evaluate"),
        (GeneralizedPolynomial, "value_and_slope"),
        (solver._PoleScan, "_bounds"),
    ):
        original = getattr(owner, name)

        def counting(self, y, original=original):
            if self is not skip:
                calls.append(y)
            return original(self, y)

        monkeypatch.setattr(owner, name, counting)
    return calls


def assert_certified(result, p, target):
    assert result.low <= result.root <= result.high
    assert p.evaluate(result.low) <= target
    assert p.evaluate(result.high) >= target


class TestSmallestPositiveRoot:
    def test_linear(self):
        p = unit_poly((1, 2))
        result = smallest_positive_root(p)
        assert abs(result.root - 0.5) <= 1e-12
        assert result.high - result.low <= 1e-12
        assert_certified(result, p, 1.0)

    def test_cubic(self):
        p = unit_poly((1, 1), (2, 1), (3, 1))
        result = smallest_positive_root(p)
        assert abs(result.root - CUBIC_RADIUS) <= 1e-9
        assert_certified(result, p, 1.0)

    def test_mixed_exponents(self):
        basis = WeightBasis.from_mapping({"unit": 1.0, "pi": math.pi})
        one_plus_pi = WeightVector.from_mapping(basis, {"unit": 1, "pi": 1})
        unit = WeightVector.from_mapping(basis, {"unit": 1})
        p = GeneralizedPolynomial(basis, {unit: 1, one_plus_pi: 1})
        result = smallest_positive_root(p)
        assert abs(result.root - MIXED_RADIUS) <= 1e-9
        assert_certified(result, p, 1.0)

    def test_root_above_one_needs_doubling(self):
        p = unit_poly((1, 1))
        result = smallest_positive_root(p, 3.0)
        assert abs(result.root - 3.0) <= 1e-9
        assert_certified(result, p, 3.0)

    def test_exact_target_does_not_close_the_bracket(self):
        # 4y = 3 exactly at the second midpoint, 0.75: a float at the
        # target is not below it, so 0.75 becomes the upper end and the
        # bisection goes on to the tolerance.
        result = smallest_positive_root(unit_poly((1, 4)), 3.0)
        assert result.high == 0.75 > result.low
        assert result.iterations == 40

    def test_negative_coefficient_rejected(self):
        with pytest.raises(SolverError, match="negative"):
            smallest_positive_root(unit_poly((0, 1), (1, -1)))

    def test_value_at_zero_already_at_target(self):
        with pytest.raises(SolverError, match="at or above"):
            smallest_positive_root(unit_poly((0, 1), (1, 1)), 1.0)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(SolverError, match="constant"):
            smallest_positive_root(GeneralizedPolynomial.zero(UNIT))


class TestCharacteristicPart:
    def test_star_form(self):
        den = unit_poly((0, 1), (1, -1), (2, -1))
        assert characteristic_part(den) == unit_poly((1, 1), (2, 1))

    def test_positive_growth_coefficient_blocks(self):
        assert characteristic_part(unit_poly((0, 1), (1, -2), (2, 1), (3, -1))) is None

    def test_constant_denominator_gives_empty_growth(self):
        growth = characteristic_part(unit_poly((0, 1)))
        assert growth is not None
        assert not growth


class TestCapacityFromCharacteristic:
    def test_mixed_weight_channel(self):
        report = capacity_from_characteristic(build_gf(load_channel("ex2.json")))
        assert report.method == "characteristic-root"
        assert abs(report.radius_or_pole - MIXED_RADIUS) <= 1e-9
        assert abs(report.capacity_nats - 0.3155775248272091) <= 1e-9
        assert report.error_bound <= 1e-11

    def test_unary_channel_has_zero_capacity(self):
        report = capacity_from_characteristic(build_gf(load_channel("unary.json")))
        assert abs(report.radius_or_pole - 1.0) <= 1e-9
        assert abs(report.capacity_nats) <= 1e-9

    def test_binary_channel(self):
        report = capacity_from_characteristic(build_gf(load_channel("binary.json")))
        assert abs(report.capacity_nats - math.log(2.0)) <= 1e-9

    def test_fractional_exponent_channel(self):
        report = capacity_from_characteristic(build_gf(load_channel("half-step.json")))
        assert abs(report.radius_or_pole - INVERSE_GOLDEN**2) <= 1e-9

    def test_non_star_denominator_rejected(self):
        with pytest.raises(SolverError, match="star form"):
            capacity_from_characteristic(build_gf(load_channel("avoid101.json")))

    def test_finite_language(self):
        gf = RationalGF(unit_poly((0, 1), (1, 1)), unit_poly((0, 1)))
        report = capacity_from_characteristic(gf)
        assert report.radius_or_pole == math.inf
        assert report.capacity_nats == 0.0
        assert "finitely many" in report.note

    def test_removable_root_rejected(self):
        # num = (1 - y - y**2)(1 + y) vanishes exactly where the
        # characteristic equation is satisfied.
        num = unit_poly((0, 1), (2, -2), (3, -1))
        den = unit_poly((0, 1), (1, -1), (2, -1))
        with pytest.raises(SolverError, match="removable"):
            capacity_from_characteristic(RationalGF(num, den))


class TestSmallestPositivePole:
    def test_cubic_denominator(self):
        report = smallest_positive_pole(build_gf(load_channel("ex3.json")))
        assert report.method == "smallest-pole"
        assert abs(report.radius_or_pole - CUBIC_RADIUS) <= 1e-9
        assert abs(report.capacity_nats - 0.6093778634360062) <= 1e-9

    def test_agrees_with_characteristic_route(self):
        gf = build_gf(load_channel("avoid11.json"))
        by_pole = smallest_positive_pole(gf)
        by_char = capacity_from_characteristic(gf)
        assert abs(by_pole.radius_or_pole - INVERSE_GOLDEN) <= 1e-9
        assert abs(by_pole.capacity_nats - by_char.capacity_nats) <= 1e-8

    def test_non_star_denominator(self):
        report = smallest_positive_pole(build_gf(load_channel("avoid101.json")))
        assert abs(report.radius_or_pole - 0.5698402909980533) <= 1e-9

    def test_exact_grid_hit(self):
        report = smallest_positive_pole(build_gf(load_channel("binary.json")))
        assert report.radius_or_pole == 0.5
        assert report.error_bound == 0.0

    def test_exact_zero_midpoint_closes_the_bracket(self):
        # D = 3 - 4y is exactly 0 at 0.75, the first midpoint of [0.5, 1],
        # which the Newton window holds: the bracket closes there.
        scan = solver._PoleScan(unit_poly((0, 3), (1, -4)), 1e-12)
        ends = (scan._bounds(0.5), scan._bounds(1.0))
        assert scan._bisect(0.5, 1.0, 1.0, -1.0, ends) == solver.RootResult(0.75, 0.75, 0.75, 1)

    def test_no_sign_change_is_an_error(self):
        # den = 2 - y has its only root at 2; a scan of (0, 1] that sees no
        # sign change proves no bound, since an even root would not show.
        gf = RationalGF(unit_poly((0, 2)), unit_poly((0, 2), (1, -1)))
        with pytest.raises(SolverError, match="no sign change.*even multiplicity"):
            smallest_positive_pole(gf)

    def test_double_root_is_not_reported_as_a_bound(self):
        # den = (1 - 3y)**2 touches zero at 1/3, between grid points,
        # without changing sign.
        gf = RationalGF(unit_poly((0, 1)), unit_poly((0, 1), (1, -6), (2, 9)))
        with pytest.raises(SolverError, match="no sign change"):
            smallest_positive_pole(gf)

    def test_only_removable_roots_is_an_error(self):
        # den = 1 - 2y is cancelled by the numerator at its only root.
        gf = RationalGF(unit_poly((0, 1), (1, -2)), unit_poly((0, 1), (1, -2)))
        with pytest.raises(SolverError, match="apart from 1 removable"):
            smallest_positive_pole(gf)

    def test_constant_denominator_is_a_finite_language(self):
        # (1 + y) / 1 counts finitely many strings: capacity 0, the same
        # answer as the characteristic route's.
        gf = RationalGF(unit_poly((0, 1), (1, 1)), unit_poly((0, 1)))
        by_pole = smallest_positive_pole(gf)
        by_char = capacity_from_characteristic(gf)
        assert by_pole.method == "smallest-pole"
        assert by_pole.radius_or_pole == math.inf
        assert by_pole.capacity_nats == 0.0 and by_pole.error_bound == 0.0
        assert by_pole.iterations == 0
        assert by_pole.note == by_char.note
        assert "finitely many strings" in by_pole.note

    def test_removable_root_skipped(self):
        # den = 4 - 13y + 10y**2 vanishes at 0.5 and 0.8; the numerator
        # 1 - 2y cancels the first, so the pole is the second.
        gf = RationalGF(
            unit_poly((0, 1), (1, -2)), unit_poly((0, 4), (1, -13), (2, 10))
        )
        report = smallest_positive_pole(gf)
        assert abs(report.radius_or_pole - 0.8) <= 1e-9
        assert "removable" in report.note


class TestBracketing:
    @pytest.mark.parametrize(
        "name", ["ex3.json", "avoid11.json", "avoid101.json", "binary.json"]
    )
    def test_enclosures_are_certified(self, name):
        gf = build_gf(load_channel(name))
        candidates, evaluations = bracket_denominator_roots(gf)
        assert evaluations > 0
        assert candidates
        den = gf.denominator
        for cand in candidates:
            assert cand.low <= cand.root <= cand.high
            assert cand.high - cand.low <= 1e-12
            assert den.evaluate(cand.low) * den.evaluate(cand.high) <= 0.0

    def test_partial_sums_stagnate_below_radius_and_grow_above(self):
        gf = build_gf(load_channel("avoid11.json"))
        radius = smallest_positive_pole(gf).radius_or_pole
        near = expand_series(gf, 30.0)
        far = expand_series(gf, 60.0)

        inside = 0.95 * radius
        limit = gf.evaluate(inside)
        assert near.evaluate(inside) <= far.evaluate(inside) <= limit + 1e-9
        assert limit - far.evaluate(inside) <= 0.5 * (limit - near.evaluate(inside))

        outside = 1.05 * radius
        assert far.evaluate(outside) >= 2.0 * near.evaluate(outside)

    def test_every_evaluation_goes_through_evaluate(self, monkeypatch):
        # The scan passes over D's terms only: by its own pass, which also
        # gives D's positive part P, its negated negative part N and their
        # slopes, or by D's evaluate and value_and_slope; every pass is
        # counted. The grid runs whose sign the bound proves go
        # unevaluated, and so do the bisection midpoints outside the
        # Newton window: fewer passes than the bracket's 30 bisection
        # steps. The values at y = 0 are known without a pass.
        calls = count_passes(monkeypatch)
        candidates, evaluations = bracket_denominator_roots(
            build_gf(load_channel("ex3.json"))
        )
        assert evaluations == len(calls) < sum(c.iterations for c in candidates) == 30
        assert 0.0 not in calls

    @pytest.mark.parametrize("name", ["ex3.json", "avoid101.json", "binary.json", "unary.json"])
    def test_pole_iterations_are_scan_evaluations(self, monkeypatch, name):
        # Every pass over D's terms up to the first surviving pole, and no
        # more: the numerator's removability check is not counted. A scan
        # that fell back to the full 1001-point grid, or a bisection that
        # evaluated each of its 30 midpoints, would exceed 40.
        gf = build_gf(load_channel(name))
        calls = count_passes(monkeypatch, skip=gf.numerator)
        report = smallest_positive_pole(gf)
        assert report.iterations == len(calls) <= 40

    def test_constant_term_beyond_floats_overflows_as_at_zero(self):
        # The same error evaluate(0.0) raises, before any pass.
        gf = RationalGF(unit_poly((0, 1)), unit_poly((0, 10**400), (1, -1)))
        with pytest.raises(EvalOverflowError) as expected:
            gf.denominator.evaluate(0.0)
        with pytest.raises(EvalOverflowError) as got:
            smallest_positive_pole(gf)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("solve", [capacity_from_characteristic, smallest_positive_pole])
    @pytest.mark.parametrize("w", [0.01, 0.02])
    def test_radius_below_tol_is_resolved(self, solve, w):
        # Two free symbols of weight w: the radius 2**(-1/w), 7.9e-31 or
        # 8.9e-16, lies below the default tol, and the capacity is ln 2 / w.
        basis = WeightBasis.from_mapping({"u": w})
        gf = RationalGF(
            GeneralizedPolynomial.one(basis),
            GeneralizedPolynomial(basis, {WeightVector((0,)): 1, WeightVector((1,)): -2}),
        )
        report = solve(gf)
        assert report.error_bound < 1e-11
        assert abs(report.capacity_nats - math.log(2.0) / w) <= report.error_bound

    @pytest.mark.parametrize("tol", [1e-300, 1e-12, 1e-3, 10.0])
    def test_characteristic_passes(self, monkeypatch, tol):
        # The value at 0, one doubling pass, a few Newton passes and the
        # two window ends, however many bisection steps the tolerance asks
        # for; a tolerance wider than the bracket needs no window at all.
        calls = count_passes(monkeypatch)
        result = smallest_positive_root(unit_poly((1, 1), (2, 1), (3, 1)), 1.0, tol=tol)
        assert result.iterations == {1e-300: 53, 1e-12: 40, 1e-3: 10, 10.0: 0}[tol]
        assert len(calls) <= (2 if tol == 10.0 else 20)


def test_step_beyond_floats_has_not_settled():
    # The first Newton step of E = 2 y**1e-150 is ln 2 * 1e150 in t, whose
    # cube passes the float range: not settled, on either route, and no
    # OverflowError.
    assert solver._settled(math.log(2.0) * 1e150, 0.0, 1e136) is False
    assert solver._settled(1e150, 1e150, 1e-16) is False


def _pow_samples():
    """(y, e) pairs: y in (0, 2], uniform and log-uniform, with e drawn in
    (0, 64] or taken from the quotient of a shipped channel."""
    rng = random.Random(20081)

    def some_y():
        if rng.random() < 0.5:
            return 2.0 - rng.uniform(0.0, 2.0)
        return 2.0 ** rng.uniform(-60.0, 1.0)

    for _ in range(2000):
        yield some_y(), 64.0 - rng.uniform(0.0, 64.0)
    for path in sorted(CHANNELS_DIR.glob("*.json")):
        if path.name == "dense-weights.json":
            continue
        gf = build_gf(load_channel(path.name))
        exponents = {e for part in (gf.numerator, gf.denominator) for e, _ in part.float_terms()}
        for e in sorted(exponents - {0}):
            for _ in range(20):
                yield some_y(), e


def test_pow_is_within_one_ulp():
    # The rounding bound at solver.SKIP_MARGIN, and with it every skipped
    # grid run and every Newton window, assumes the C library's pow is
    # within 1 ulp of the exact power. Results below the normal range are
    # left out, as they are in that bound.
    smallest_normal = Decimal(sys.float_info.min)
    with localcontext() as ctx:
        ctx.prec = 60
        for y, e in _pow_samples():
            got = y**e
            exact = Decimal(y) ** Decimal(e)
            if exact < smallest_normal:
                continue
            error = abs(Decimal(got) - exact) / Decimal(math.ulp(got))
            assert error <= 1, f"{y!r} ** {e!r} = {got!r} is {error:.3g} ulp from {exact}"


class TestCheckDensity:
    def test_evenly_spaced_weights_pass(self):
        report = check_density([0.5 * k for k in range(1, 41)])
        assert not report.exponential_flag
        assert abs(report.fitted_exponent - 1.0) <= 0.2

    def test_exponentially_dense_weights_flagged(self):
        doc = json.loads((CHANNELS_DIR / "dense-weights.json").read_text())
        report = check_density(doc["weights"])
        assert report.exponential_flag
        assert report.exp_residual < report.poly_residual

    def test_zero_margin_never_flags(self):
        doc = json.loads((CHANNELS_DIR / "dense-weights.json").read_text())
        report = check_density(doc["weights"], margin=0.0)
        assert not report.exponential_flag

    def test_too_few_thresholds(self):
        with pytest.raises(InsufficientDataError, match="4"):
            check_density([1.0, 2.0], cutoff=3.0)

    def test_too_few_weights_for_any_cutoff(self):
        # Thresholds past 4 count no new weight, so they are not fitted.
        with pytest.raises(InsufficientDataError, match="larger cutoff adds nothing"):
            check_density([1.0, 2.0, 3.0], cutoff=100.0)

    def test_default_cutoff_is_largest_weight(self):
        report = check_density([float(k) for k in range(1, 11)])
        assert report.cutoff == 10.0
        assert len(report.counts_below_n) == 10
        assert report.counts_below_n[-1] == (10, 9)

    def test_counts_exclude_weights_equal_to_the_threshold(self):
        report = check_density([1.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5], cutoff=5.0)
        assert report.counts_below_n == ((1, 0), (2, 2), (3, 4), (4, 5), (5, 6))

    @pytest.mark.parametrize("cutoff", [20.0, 30.0])
    def test_flat_tail_is_left_out_of_the_fit(self, cutoff):
        # Past the largest weight (13.99) the counts stop growing. The fit
        # ends at threshold 14, the first that counts every weight, so a
        # cutoff far beyond it lists the flat tail but fits what cutoff 14
        # fits.
        weights = json.loads((CHANNELS_DIR / "dense-weights.json").read_text())["weights"]
        report = check_density(weights, cutoff=cutoff)
        assert len(report.counts_below_n) == int(cutoff)
        assert report.counts_below_n[-1] == (int(cutoff), len(weights))
        at_14 = check_density(weights, cutoff=14.0)
        assert (report.fitted_exponent, report.poly_residual, report.exp_residual) == (
            at_14.fitted_exponent,
            at_14.poly_residual,
            at_14.exp_residual,
        )
        assert report.exponential_flag

    @pytest.mark.parametrize(
        "bad",
        [math.inf, -math.inf, math.nan, -3.0, 10**400],
        ids=["inf", "-inf", "nan", "negative", "overflowing-integer"],
    )
    def test_non_finite_or_negative_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            check_density([1.0, 2.0, 3.0, 4.0, 5.0, bad])

    @pytest.mark.parametrize(
        "weights,named",
        [
            ([3.0, -2.0, -1.0, math.inf], "-2.0"),
            ([1.0, math.inf, 2.0], "inf"),
            ([-math.inf, 1.0, math.inf], "-inf"),
        ],
    )
    def test_rejection_names_the_least_bad_weight(self, weights, named):
        # The ends of the sorted weights show that one is bad; the message
        # names the first bad one in sorted order.
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {named}$"):
            check_density(weights)

    def test_zero_weight_allowed(self):
        # A channel's series starts with the empty string at weight 0.
        weights = enumerate_by_weight(load_channel("ex3.json"), 12.0).values()
        assert weights[0] == 0.0
        report = check_density(weights, cutoff=12.0)
        assert report.counts_below_n[0] == (1, 1)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite"):
            check_density([1.0, 2.0, 3.0, 4.0, 5.0], cutoff=cutoff)

    @pytest.mark.parametrize(
        "weights, cutoff",
        [([1.0, 2.0, 3.0, 4.0, 5.0], 1e9), ([1.0, 2.0, 3.0, 4.0, 1e12], None)],
        ids=["cutoff", "largest-weight"],
    )
    def test_threshold_budget_fails_at_once(self, weights, cutoff):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=str(MAX_DENSITY_THRESHOLDS)):
            check_density(weights, cutoff=cutoff)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "source, cutoff", [("dense-weights", None), ("ex3", 12.0)]
    )
    def test_fit_does_not_depend_on_how_sum_adds_floats(self, monkeypatch, source, cutoff):
        # Python 3.12's sum() compensates, and changed the last digits of
        # these residuals; the fit adds in plain left-to-right order, so a
        # correctly rounded sum() in the solver's namespace changes nothing.
        path = CHANNELS_DIR / f"{source}.json"
        if cutoff is None:
            weights = json.loads(path.read_text())["weights"]
        else:
            weights = enumerate_by_weight(load_channel(path.name), cutoff).values()
        plain = check_density(weights, cutoff=cutoff)
        monkeypatch.setattr(solver, "sum", math.fsum, raising=False)
        assert check_density(weights, cutoff=cutoff) == plain

    def test_threshold_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr("dnccap.solver.MAX_DENSITY_THRESHOLDS", 10)
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(check_density(weights, cutoff=10.9).counts_below_n) == 10
        with pytest.raises(ResourceLimitError):
            check_density(weights, cutoff=11.0)


class TestToleranceValidation:
    """Library callers get a ValueError for a tolerance or margin that
    would stop a bisection at once or never flag, not a wrong answer."""

    BAD_TOLERANCES = [math.nan, math.inf, 0.0, -1.0]

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_smallest_positive_root(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            smallest_positive_root(unit_poly((1, 1)), tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bracket_denominator_roots(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            bracket_denominator_roots(build_gf(load_channel("ex3.json")), tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_capacity_from_characteristic(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            capacity_from_characteristic(build_gf(load_channel("ex2.json")), tol=tol)

    def test_finite_language_still_checks_tolerance(self):
        gf = RationalGF(unit_poly((0, 1), (1, 1)), unit_poly((0, 1)))
        with pytest.raises(ValueError, match="tolerance"):
            capacity_from_characteristic(gf, tol=math.nan)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_smallest_positive_pole(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            smallest_positive_pole(build_gf(load_channel("ex3.json")), tol=tol)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0])
    def test_check_density_margin(self, margin):
        with pytest.raises(ValueError, match="margin"):
            check_density([0.5 * k for k in range(1, 41)], margin=margin)
