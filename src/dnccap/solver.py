"""Capacity from the singularities of a counting quotient.

Two analytic routes, both with certified enclosures:

  characteristic-root   when the denominator has star form d0 - E with E
                        having nonnegative coefficients and positive
                        weights, E is strictly increasing on y > 0, so the
                        equation E(y) = d0 has one positive root: the
                        radius of convergence. Bracketed by doubling, then
                        bisection.
  smallest-pole         sign-change scan of the denominator D on a grid over
                        (0, Y_MAX], bisection on each bracket, skipping
                        candidates where the numerator also vanishes
                        (removable singularities). The first surviving root
                        is the smallest positive pole, and the scan stops
                        there. A scan that finds none fails: a root of even
                        multiplicity does not change sign, so no sign change
                        proves no pole. The scan skips runs of grid points
                        whose sign a bound proves: with D = P - N split into
                        its positive and negated negative terms, both
                        nondecreasing on y >= 0, every y in [a, b] has
                        P(a) - N(b) <= D(y) <= P(b) - N(a). Where D is
                        monotone toward zero on [a, b], D(b) = P(b) - N(b)
                        bounds it instead, which also proves a run that
                        ends close to a root.

Both routes end in one bisection, `_bisection`. It keeps the midpoint
sequence, and with it the enclosure and the step count, of a bisection that
evaluates every midpoint, but evaluates only the midpoints whose side is not
yet known. Before the first midpoint, Newton steps locate the root and one
certificate per end, `_clears`, puts a window [a, b] around it: every
midpoint at or below a would evaluate on the low side of the root and every
midpoint at or above b on the high side, so neither is evaluated. On the
characteristic route Newton runs on ln E in t = -ln y, where it is convex
and decreasing, and the ends must clear d0; in a pole bracket it starts
from the secant point, the ends must clear zero, and D must be strictly
monotone on the bracket. A window end that fails its certificate, or a
Newton step beyond the float range, leaves its side to be evaluated. The
certificates rest on the rounding bound documented at SKIP_MARGIN. A
midpoint where D evaluates to exactly zero closes a pole bracket. A report's
`iterations` counts the doublings and bisection steps on the
characteristic route, and on the pole route every pass over D's terms
(the scan's own pass also gives P, N and their slopes), Newton passes
and certificates included, but not the bisection steps the window decided.

A bisection narrows its bracket to a width of `tol`, or to adjacent floats.
Where a capacity bound lets the radius fall below `tol`, both routes solve
the copy with every weight times 2**k, which divides the capacity by 2**k.

Capacity in nats per unit weight is -ln of the located singularity. The
reported error bound is the log-width of the final bracket.

`check_density` is the guard for weight lists so dense that capacity is
not well defined: it compares polynomial against exponential fits of the
count of distinct weights below n. Both fits are ordinary least-squares
lines, computed in closed form from centred sums.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator

from ._record import Record, set_slot as _set
from .errors import (
    EvalOverflowError,
    InsufficientDataError,
    ResourceLimitError,
    SolverError,
)
from .genpoly import GeneralizedPolynomial, RationalGF, WeightBasis, left_sum

DEFAULT_TOL = 1e-12
# The pole scan covers (0, Y_MAX] on a grid of GRID_STEP.
Y_MAX = 1.0
GRID_STEP = 1e-3
# Every certificate below clears its test by margin = SKIP_MARGIN * (n + 4)
# relative to the sizes involved, n the number of terms of the polynomial
# evaluated. This assumes the C library's pow is within 1 ulp. With u =
# 2**-53, each term c * y**e of `evaluate` is then within 4u of exact (pow,
# converting c to float, the product), and summing n terms adds (n - 1)u, so
# evaluating D, P or N at y is off by at most (n + 3)u (P(y) + N(y)), and a
# polynomial of nonnegative terms by (n + 3)u of its value. A slope, of
# `value_and_slope` or of the pole scan's pass, has one product more per
# term: (n + 4)u of the sum of its terms' sizes. Values that underflow into
# subnormals are left out of this account.
#   - The pole scan skips a grid run [a, b] only when its bound clears zero
#     by margin * (P(b) + N(b)). In the lower bound P(a) and N(b) are
#     together off by at most (n + 3)u (P(b) + N(b)), D at a grid point of
#     the run by as much again, and the subtraction and the product round
#     once each: under 2 (n + 4)u (P(b) + N(b)) in all, an eighth of the
#     margin, and likewise for the upper bound. So each skipped grid point
#     would have evaluated to a nonzero float of the run's sign. The same
#     account covers a run on which D is strictly monotone toward zero
#     (`_is_monotone`), skipped when P(b) - N(b) clears zero by the margin
#     with the run's sign: there D(b) bounds D at every point of the run,
#     and P(b) takes the place of P(a), or N(b) that of N(a).
#   - A Newton window end counts where `_clears` finds p there beyond the
#     target by the threshold, away from the root; every point beyond the
#     end then evaluates on that side of the target too. On the
#     characteristic route p = E is increasing, the target d0 and the
#     threshold margin * d0: the evaluations at the end and beyond it are
#     each off by (n + 3)u of their values and the subtraction by u of the
#     difference, far under the margin. In a pole bracket [lo, hi] with D
#     strictly monotone the target is 0 and the threshold margin * (P(hi)
#     + N(hi)); P and N are nondecreasing, so each evaluation is off by at
#     most (n + 3)u (P(hi) + N(hi)).
#   - D is strictly increasing on [lo, hi] when the least slope of P there
#     exceeds the greatest slope of N with the margin on both sides (and
#     decreasing with P and N swapped), each sum of slopes of one sign,
#     read off the passes at lo and hi, off by at most (n + 6)u of itself.
SKIP_MARGIN = 8 * 2.0**-52
# A Newton search for a window that has not settled (`_settled`) after
# NEWTON_STEPS passes places no window.
NEWTON_STEPS = 20
MAX_DOUBLINGS = 200
REMOVABLE_RTOL = 1e-9
# check_density counts the weights below each integer n up to the cutoff.
MAX_DENSITY_THRESHOLDS = 1_000_000


class RootResult(Record):
    """A located root with its certified enclosure [low, high]."""

    __slots__ = ("root", "low", "high", "iterations")
    root: float
    low: float
    high: float
    iterations: int

    @property
    def error_bound(self) -> float:
        return self.high - self.low


class CapacityReport(Record):
    __slots__ = (
        "method", "radius_or_pole", "capacity_nats", "error_bound", "iterations", "note"
    )
    method: str
    radius_or_pole: float
    capacity_nats: float
    error_bound: float
    iterations: int
    note: str | None

    def __init__(
        self,
        method: str,
        radius_or_pole: float,
        capacity_nats: float,
        error_bound: float,
        iterations: int,
        note: str | None = None,
    ) -> None:
        _set(self, "method", method)
        _set(self, "radius_or_pole", radius_or_pole)
        # -log(1.0) is -0.0; adding 0.0 turns it into 0.0 and leaves every
        # other float as it is, so a capacity of 0 never prints as -0.
        _set(self, "capacity_nats", capacity_nats + 0.0)
        _set(self, "error_bound", error_bound)
        _set(self, "iterations", iterations)
        _set(self, "note", note)


class DensityReport(Record):
    __slots__ = (
        "cutoff",
        "counts_below_n",
        "fitted_exponent",
        "exponential_flag",
        "poly_residual",
        "exp_residual",
    )
    cutoff: float
    counts_below_n: tuple[tuple[int, int], ...]
    fitted_exponent: float
    exponential_flag: bool
    poly_residual: float
    exp_residual: float


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def smallest_positive_root(
    p: GeneralizedPolynomial,
    target: float = 1.0,
    *,
    tol: float = DEFAULT_TOL,
) -> RootResult:
    """Unique y > 0 with p(y) = target, for p with nonnegative coefficients.

    p must be strictly increasing where it matters: all coefficients
    nonnegative, at least one term of positive weight, and p(0) < target.
    Doubling from 1 brackets the root, then bisection narrows the bracket
    to high - low <= tol, or to adjacent floats: a root below tol comes
    back as [0, high] with high <= tol. Every doubling and bisection step
    counts as one iteration. The float evaluation of p is below target at
    low (or low is 0) and at or above target at high (or overflows there);
    the exact values may differ by rounding, so the exact root is not
    certified to lie in [low, high]. A bisection step whose midpoint the
    Newton window of `_characteristic_window` already decides is taken
    without evaluating p.
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

    # One call per evaluation; a value that overflows counts as inf. The
    # doubling passes also take the slope, where Newton starts.
    iterations = 0
    lo, hi = 0.0, 1.0
    while True:
        try:
            v, s = p.value_and_slope(hi)
        except EvalOverflowError:
            v = s = math.inf
        if not v < target:
            break
        lo, hi = hi, hi * 2.0
        iterations += 1
        if iterations > MAX_DOUBLINGS:
            raise SolverError(f"no root found below {hi:.3g}")
    a, b = _characteristic_window(p, target, hi, v, s) if hi - lo > tol else (lo, hi)
    # A midpoint is on lo's side where p evaluates below target.
    found = _bisection(lo, hi, tol, a, b, lambda y: _clears(p, y, True, 0.0, target))
    return RootResult(found.root, found.low, found.high, iterations + found.iterations)


def _bisection(lo: float, hi: float, tol: float, a: float, b: float, side) -> RootResult:
    """Halve [lo, hi] to hi - lo <= tol, or to adjacent floats, counting
    each halving. `side(mid)` is True on lo's side, False on hi's, and
    None at an exact zero, which closes the bracket there. It is not
    called for a midpoint at or below a or at or above b, which the
    certified window [a, b] (or (lo, hi) for none) already places."""
    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        iterations += 1
        low = mid <= a or (mid < b and side(mid))
        if low is None:
            lo = hi = mid
            break
        lo, hi = (mid, hi) if low else (lo, mid)
    return RootResult((lo + hi) / 2.0, lo, hi, iterations)


def _settled(step: float, last: float, width: float) -> bool:
    """Has a Newton search come within a quarter of the window's half
    width of the root: this step, or the next one, which quadratic
    convergence puts at about step**3 / last**2, the last step before? A
    step whose cube passes the float range has not."""
    try:
        return abs(step) <= 0.25 * width or abs(step) ** 3 <= 0.25 * width * last * last
    except OverflowError:
        return False


def _clears(
    p: GeneralizedPolynomial, y: float, negative: bool, threshold: float, target: float = 0.0
) -> bool:
    """Does p evaluate at y beyond target by more than the threshold,
    below it when negative and above it otherwise? An overflow does not."""
    try:
        v = p.evaluate(y) - target
    except EvalOverflowError:
        return False
    return (v < -threshold) if negative else (v > threshold)


def _characteristic_window(
    p: GeneralizedPolynomial, target: float, y: float, v: float, s: float
) -> tuple[float, float]:
    """Window ends (a, b) around the root of p(y) = target: every x <= a
    evaluates below target and every x >= b at or above it (see
    SKIP_MARGIN), wherever `_characteristic_ends` put them. A side whose
    certificate fails gets 0 or inf.
    """
    margin = SKIP_MARGIN * (len(p) + 4)
    placed = _characteristic_ends(p, target, y, v, s, margin)
    if placed is None:
        return 0.0, math.inf
    a, b = placed
    threshold = margin * target
    if not _clears(p, a, True, threshold, target):
        a = 0.0
    if not _clears(p, b, False, threshold, target):
        b = math.inf
    return a, b


def _characteristic_ends(
    p: GeneralizedPolynomial, target: float, y: float, v: float, s: float, margin: float
) -> tuple[float, float] | None:
    """Where the window ends go, or None when Newton does not settle.

    Newton starts from y, where p(y) = v >= target and y p'(y) = s. In t =
    -ln y, ln p is a log-sum-exp of affine functions of t, so it is convex
    and decreasing, and the steps approach the root from above. The ends
    sit where the last tangent puts ln p at ln target -+ 2 * margin. A
    step or an end beyond the float range places no window.
    """
    last = 0.0
    try:
        for _ in range(NEWTON_STEPS):
            if not (0.0 < v < math.inf and 0.0 < s < math.inf):
                return None
            # The Newton step in t, t growing as y shrinks.
            step = math.log(v / target) * v / s
            width = 2.0 * margin * v / s
            if _settled(step, last, width):
                return y * math.exp(-step - width), y * math.exp(-step + width)
            last = step
            y *= math.exp(-step)
            v, s = p.value_and_slope(y)
    except (OverflowError, EvalOverflowError):
        return None
    return None


def _capacity_report(
    method: str, found: RootResult, iterations: int, note: str | None = None
) -> CapacityReport:
    """The capacity -ln y of the singularity y located in `found`, with
    the log-width of its enclosure as the error bound (inf from 0)."""
    return CapacityReport(
        method=method,
        radius_or_pole=found.root,
        capacity_nats=-math.log(found.root),
        error_bound=math.log(found.high / found.low) if found.low > 0.0 else math.inf,
        iterations=iterations,
        note=note,
    )


def _finite_language_report(method: str) -> CapacityReport:
    """A constant denominator makes the quotient a polynomial: finitely
    many strings, capacity 0, no singularity to locate."""
    return CapacityReport(
        method=method,
        radius_or_pole=math.inf,
        capacity_nats=0.0,
        error_bound=0.0,
        iterations=0,
        note="denominator has no growth terms; finitely many strings, capacity 0",
    )


def _rescaled(solve, gf: RationalGF, tol: float) -> CapacityReport | None:
    """solve's report on gf from the copy with every atom 2**k times as
    heavy, or None for k = 0. For y <= 1, D(y) >= d0 - S y**w (S the sum of
    |c|, w the least weight, over D's other terms), so the capacity is at
    most ln(S / d0) / w; k > 0, that bound's float exponent, only where it
    lets the radius fall below tol. The copy is solved to tol / 2**k."""
    d0, s, w = 0.0, 0.0, math.inf
    for e, c in gf.denominator.float_terms():
        if e:
            s, w = s + abs(c), e if e < w else w
        else:
            d0 = c
    # With d0 or S beyond the float range, the solve raises as it would.
    log_sd = math.log(s / d0) if d0 < s < math.inf else -math.inf
    k = math.frexp(log_sd / math.frexp(w)[0])[1] - math.frexp(w)[1]  # log_sd / w may overflow
    if k <= 0 or not log_sd > -math.log(tol) * w:
        return None
    top = math.ldexp(1.0, 1023 - k)  # y**(2**1023) is 0 at every float y < 1, as past it
    values = {a.name: math.ldexp(min(a.value, top), k) for a in gf.basis.atoms}
    basis = WeightBasis.from_mapping(values)
    num = GeneralizedPolynomial(basis, gf.numerator.terms())
    den = GeneralizedPolynomial(basis, gf.denominator.terms())
    # tol / 2**k may underflow, and the copy's bracket may close on an exact zero.
    r = solve(RationalGF(num, den), tol=max(math.ldexp(tol, -k), math.ulp(0.0)))
    ulps = 2.0 * math.ulp(r.radius_or_pole) / r.radius_or_pole
    try:
        capacity, bound = math.ldexp(r.capacity_nats, k), math.ldexp(max(r.error_bound, ulps), k)
    except OverflowError:
        raise SolverError(f"capacity {r.capacity_nats!r} * 2**{k} overflows a float") from None
    note = f"every weight times 2**{k} to solve; the radius, exp(-capacity), is 0 past 745 nats"
    note = f"{r.note}; {note}" if r.note else note
    return CapacityReport(r.method, math.exp(-capacity), capacity, bound, r.iterations, note)


def characteristic_part(den: GeneralizedPolynomial) -> GeneralizedPolynomial | None:
    """E with den = d0 - E and E nonnegative, or None if den lacks star form.

    Computed once per polynomial and cached on it: the CLI's route choice
    and capacity_from_characteristic both ask for it.
    """
    try:
        return den._characteristic
    except AttributeError:
        pass
    growth = None
    if all(c < 0 for wv, c in den.terms() if any(wv)):
        # The zero vector alone has the exponent 0. E takes the other
        # terms negated, float exponents and coefficients included.
        terms = [(wv, c, e, f) for (wv, c), (e, f) in zip(den.terms(), den.float_terms()) if e]
        growth = GeneralizedPolynomial._from_terms(den.basis, {wv: -c for wv, c, _, _ in terms})
        growth._float_terms = tuple((e, -f) for _, _, e, f in terms)
    den._characteristic = growth
    return growth


def _d_value(bounds: tuple[float, ...], y: float) -> float:
    """D(y) from the scan's pass at y, raising where `evaluate` would."""
    d = bounds[8]
    if not math.isfinite(d):
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
    return d


def capacity_from_characteristic(
    gf: RationalGF, *, tol: float = DEFAULT_TOL
) -> CapacityReport:
    """Radius of convergence via the characteristic equation E(y) = d0.

    Requires the denominator in star form d0 - E (constant term positive,
    every other coefficient nonpositive); E is then a sum of positive
    multiples of y**w with w > 0, strictly increasing, and the unique
    solution of E(y) = d0 is the radius.
    """
    _check_tol(tol)
    den = gf.denominator
    growth = characteristic_part(den)
    if growth is None:
        raise SolverError(
            "denominator is not in star form (positive constant minus "
            "nonnegative growth terms); use the pole method"
        )
    if not growth:
        return _finite_language_report("characteristic-root")
    if scaled := _rescaled(capacity_from_characteristic, gf, tol):
        return scaled
    result = smallest_positive_root(growth, float(den.constant_coefficient), tol=tol)
    if _is_removable(gf, result.root):
        raise SolverError(
            f"numerator vanishes at the characteristic root y = {result.root:.12g}; "
            "the singularity is removable there, use the pole scan instead"
        )
    return _capacity_report("characteristic-root", result, result.iterations)


def _is_removable(gf: RationalGF, y0: float) -> bool:
    """Does the numerator vanish at y0, relative to its term magnitudes?

    One pass adds each term c * y0**e into the value, as `evaluate` does,
    and its size into the scale; an overflow raises as in `evaluate`.
    """
    total = scale = 0.0
    try:
        for e, c in gf.numerator.float_terms():
            t = c * (y0 ** e)
            total += t
            scale += abs(t)
    except OverflowError as exc:
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y0!r}") from exc
    if not math.isfinite(total):
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y0!r}")
    return abs(total) <= REMOVABLE_RTOL * scale


class _PoleScan:
    """The pole scan of a denominator: iterating yields its roots in (0, Y_MAX].

    Roots come in increasing order, each a certified enclosure: the
    denominator takes opposite signs (or an exact zero) at its endpoints.
    `evaluations` counts the passes over D's terms made so far: `_bounds`,
    and D's own `evaluate` and `value_and_slope`.
    """

    def __init__(self, den: GeneralizedPolynomial, tol: float):
        _check_tol(tol)
        self.den = den
        self.tol = tol
        self.evaluations = 0
        self.margin = SKIP_MARGIN * (len(den) + 4)

    def _bounds(self, y: float) -> tuple[float, ...]:
        """One pass over D's terms at y in [0, 1]: P(y), N(y), y P'(y), y N'(y),
        the parts of y P'(y) and y N'(y) from terms of weight >= 1 and from
        the others, and D(y). P, N and the parts are summed in term order
        as `evaluate` sums D, and each of y P'(y) and y N'(y) is its two
        parts added. A side that overflows reads inf throughout, which
        fails a skip test, not the scan; `_d_value` checks D where the walk
        uses it."""
        self.evaluations += 1
        d = p = n = p_convex = n_convex = p_concave = n_concave = 0.0
        for e, c in self.den.float_terms():
            t = c * y**e
            d += t
            s = e * t
            if c > 0.0:
                p += t
                if e >= 1:
                    p_convex += s
                else:
                    p_concave += s
            else:
                n -= t
                if e >= 1:
                    n_convex -= s
                else:
                    n_concave -= s
        if not p < math.inf:
            p = p_convex = p_concave = math.inf
        if not n < math.inf:
            n = n_convex = n_concave = math.inf
        return (
            p, n, p_convex + p_concave, n_convex + n_concave,
            p_convex, n_convex, p_concave, n_concave, d,
        )

    def __iter__(self) -> Iterator[RootResult]:
        margin = self.margin
        n_grid = int(math.ceil(Y_MAX / GRID_STEP))
        bounds = self._bounds

        # The walk stands at grid index j, at prev_y, the last point whose
        # float sign is known; `here` holds the pass there (`_bounds`).
        # Each attempt tries to skip the next k grid points, k aimed by
        # `_aim` at the last one the bound still covers. Where the bound
        # fails over more than one point, the end value P - N at the
        # attempt's far end b may still clear the margin with the run's
        # sign; with D strictly monotone toward zero on the run, D(b) then
        # bounds D on the whole run, and the run is proved without an
        # evaluation of D (see SKIP_MARGIN). A failed attempt over more
        # than one point that this does not prove becomes the nearest
        # failed end, `fail` (its index, y and bounds): later attempts stop
        # short of it and aim with its values too. An attempt over one
        # point that fails reads D from its pass there, and so does the
        # walk's arrival next to the failed end.
        # No pass at 0: D(0) = P(0) = d0 > 0 (normalized), N(0) = 0, slopes 0.
        try:
            prev_y, prev_v = 0.0, float(self.den.constant_coefficient)
        except OverflowError as exc:
            raise EvalOverflowError("overflow evaluating polynomial at y=0.0") from exc
        here = prev_v, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, prev_v
        j = 0
        fail = None
        while j < n_grid:
            if fail is not None and fail[0] == j + 1:
                _, y, ahead = fail
                fail = None
            else:
                k = self._aim(j, n_grid, prev_y, prev_v, here, fail)
                y = min((j + k) * GRID_STEP, Y_MAX)
                ahead = bounds(y)
                p_y, n_y = ahead[0], ahead[1]
                slack = margin * (p_y + n_y)
                negative = prev_v < 0.0
                if (p_y - here[1] < -slack) if negative else (here[0] - n_y > slack):
                    j += k
                    prev_y, here = y, ahead
                    continue
                if k > 1:
                    if (
                        ((p_y - n_y < -slack) if negative else (p_y - n_y > slack))
                        and prev_y > 0.0
                        and self._is_monotone(prev_y, y, negative, (here, ahead))
                    ):
                        j += k
                        prev_y, here = y, ahead
                    else:
                        fail = (j + k, y, ahead)
                    continue
            j += 1
            v = _d_value(ahead, y)
            if v == 0.0:
                yield RootResult(y, y, y, 0)
                probe = y + 0.5 * GRID_STEP
                # Y_MAX is a whole number of grid steps, so only the last
                # grid point's probe reaches it.
                if probe >= Y_MAX:
                    return
                here, fail = bounds(probe), None
                prev_y, prev_v = probe, _d_value(here, probe)
                continue
            if (v < 0.0) != (prev_v < 0.0):
                yield self._bisect(prev_y, y, prev_v, v, (here, ahead))
                fail = None
            prev_y, prev_v, here = y, v, ahead

    def _aim(self, j, n_grid, prev_y, prev_v, here, fail) -> int:
        """Grid points the next attempt tries to skip, at least 1.

        The bound of a positive run stays above zero while N rises by less
        than the room P - N at the walk's point (of a negative run, while
        P rises by less than N - P). A sum of powers of y with nonnegative
        coefficients has a logarithm convex in ln y, so the rise of the
        closing side is modelled in ln y: by its tangent at the walk's
        point, or with a failed end ahead, by the parabola that also meets
        the closing side's value there. The attempt aims at the last grid
        point before the model uses up the room, and stops short of the
        failed end.
        """
        p, n, dp, dn = here[:4]
        if prev_v < 0.0:
            room, side, slope, closing = n - p, p, dp, 0
        else:
            room, side, slope, closing = p - n, n, dn, 1
        limit = n_grid - j if fail is None else fail[0] - j - 1
        if fail is not None:
            room -= self.margin * (fail[2][0] + fail[2][1])
        if not (room > 0.0 and prev_y > 0.0):
            return 1
        if side == 0.0:
            # Nothing closes the room, unless the closing side underflows.
            return limit
        if not (side > 0.0 and 0.0 <= slope < math.inf):
            return 1
        exponent = slope / side
        need = math.log1p(room / side)
        if fail is None:
            reach = need / exponent if exponent > 0.0 else math.inf
        else:
            span = math.log(fail[1] / prev_y)
            curve = (math.log(fail[2][closing] / side) - exponent * span) / (span * span)
            disc = exponent * exponent + 4.0 * curve * need
            root = math.sqrt(disc) if disc >= 0.0 else 0.0
            reach = 2.0 * need / (exponent + root) if exponent + root > 0.0 else math.inf
        if not reach > 0.0:
            return 1
        k = prev_y * math.exp(min(reach, 700.0)) / GRID_STEP - j
        return max(1, int(k)) if k < limit else max(1, limit)

    def _bisect(self, lo: float, hi: float, flo: float, fhi: float, ends) -> RootResult:
        """Bisect [lo, hi], where D evaluated to flo and fhi of opposite
        signs, down to the tolerance; `ends` holds the bounds at lo and hi.
        Only the midpoints inside the window of `_window` are evaluated."""
        negative = flo < 0.0
        a, b = self._window(lo, hi, negative, fhi, ends) if hi - lo > self.tol else (lo, hi)

        def side(mid: float) -> bool | None:
            self.evaluations += 1
            v = self.den.evaluate(mid)
            return None if v == 0.0 else (v < 0.0) == negative

        return _bisection(lo, hi, self.tol, a, b, side)

    def _window(self, lo: float, hi: float, rising: bool, fhi: float, ends):
        """Window ends (a, b) in [lo, hi]: D evaluates to a nonzero float of
        its sign at lo at every point of (lo, a], and of fhi's sign at every
        point of [b, hi) (see SKIP_MARGIN), wherever `_newton_ends` put
        them. D must be strictly monotone on [lo, hi], rising or falling.
        A side whose certificate fails, or both when lo is 0, gets lo or hi.
        """
        at_lo, at_hi = ends
        bound = at_hi[0] + at_hi[1]
        if not (lo > 0.0 and bound < math.inf and self._is_monotone(lo, hi, rising, ends)):
            return lo, hi
        threshold = self.margin * bound
        placed = self._newton_ends(lo, hi, at_lo[0] - at_lo[1], fhi, threshold)
        if placed is None:
            return lo, hi
        a, b = placed
        # One pass per certificate. The certified side of a has D's sign
        # at lo: negative when rising.
        self.evaluations += (lo < a < hi) + (lo < b < hi)
        if not (lo < a < hi and _clears(self.den, a, rising, threshold)):
            a = lo
        if not (lo < b < hi and _clears(self.den, b, fhi < 0.0, threshold)):
            b = hi
        return a, b

    def _newton_ends(self, lo: float, hi: float, d_lo: float, fhi: float, threshold: float):
        """Where the window ends go, or None when Newton leaves the bracket
        or does not settle. Newton starts from the secant point of d_lo,
        P - N at lo, and D(hi) = fhi, and the ends sit where the last
        tangent puts |D| at twice the threshold."""
        gap = d_lo - fhi
        y = lo + (hi - lo) * (min(max(d_lo / gap, 0.0), 1.0) if gap else 0.5)
        last = 0.0
        for _ in range(NEWTON_STEPS):
            self.evaluations += 1
            try:
                v, s = self.den.value_and_slope(y)
            except EvalOverflowError:
                return None
            if not (s != 0.0 and math.isfinite(s)):
                return None
            step = v * y / s
            width = 2.0 * threshold * y / abs(s)
            if _settled(step, last, width):
                return y - step - width, y - step + width
            last = step
            y -= step
            if not lo < y < hi:
                return None
        return None

    def _is_monotone(self, lo: float, hi: float, rising: bool, ends) -> bool:
        """Is D strictly increasing (rising) or decreasing on [lo, hi]?

        The derivative e c y**(e - 1) of a term is nondecreasing in y when
        e >= 1 and nonincreasing when 0 < e < 1, so over [lo, hi] it is
        least and greatest at the ends. P's slope is therefore at least
        that of its terms with e >= 1 at lo plus that of the others at hi,
        and at most the reverse; likewise for N. D rises when the least
        slope of P clears the greatest of N, and falls when the least slope
        of N clears the greatest of P. The passes at lo and hi in `ends`
        split each side's slope by weight, so no pass is made here.
        """
        at_lo, at_hi = ends
        up, down = (0, 1) if rising else (1, 0)
        least = at_lo[4 + up] / lo + at_hi[6 + up] / hi
        most = at_hi[4 + down] / hi + at_lo[6 + down] / lo
        return least * (1.0 - self.margin) > most * (1.0 + self.margin)


def bracket_denominator_roots(
    gf: RationalGF, *, tol: float = DEFAULT_TOL
) -> tuple[list[RootResult], int]:
    """All denominator roots in (0, Y_MAX] visible at the grid resolution.

    Returns (roots in increasing order, number of passes over D's terms),
    draining the pole scan; a root below tol comes back as [0, hi] with hi
    <= tol. Roots closer together than the grid step may be missed; that is
    the documented resolution limit, and skipping grid runs whose sign is
    proved does not change it.
    """
    scan = _PoleScan(gf.denominator, tol)
    found = list(scan)
    return found, scan.evaluations


def smallest_positive_pole(gf: RationalGF, *, tol: float = DEFAULT_TOL) -> CapacityReport:
    """Capacity from the smallest positive pole of the quotient.

    Scans the denominator for sign changes, refines each by bisection, and
    discards candidates where the numerator vanishes too (removable
    singularities of the quotient). For counting quotients the positive
    real axis carries a singularity of minimal modulus, so the first
    surviving root is the radius of convergence, and the scan stops there.
    It brackets exactly the roots a scan evaluating every grid point would;
    the module docstring says which grid runs and midpoints it skips and
    what `iterations` counts. A constant denominator
    has no pole to scan for: the language is finite and the capacity 0.
    Otherwise raises SolverError when no surviving root is bracketed: a
    root of even multiplicity touches zero without changing sign, so an
    empty scan bounds nothing.
    """
    scan = _PoleScan(gf.denominator, tol)
    if all(wv.is_zero() for wv, _ in gf.denominator.terms()):
        return _finite_language_report("smallest-pole")
    if scaled := _rescaled(smallest_positive_pole, gf, tol):
        return scaled
    skipped = 0
    for cand in scan:
        if _is_removable(gf, cand.root):
            skipped += 1
            continue
        note = None
        if skipped:
            note = f"skipped {skipped} removable denominator root(s) below the pole"
        return _capacity_report("smallest-pole", cand, scan.evaluations, note)
    detail = f" apart from {skipped} removable root(s)" if skipped else ""
    raise SolverError(
        f"no sign change of the denominator in (0, {Y_MAX:g}]{detail}; "
        "a root of even multiplicity would not show, so the pole scan "
        "gives no answer"
    )


def check_density(
    weights,
    *,
    cutoff: float | None = None,
    margin: float = 1.0,
) -> DensityReport:
    """Fit the growth of the count of distinct weights below n.

    counts_below_n[n] is the number of distinct weights w < n for integer
    n up to the cutoff. A least-squares fit of ln count against ln n
    (polynomial growth) is compared with a fit against n (exponential
    growth) over the upper half of the usable range; if the exponential
    model fits better by the margin factor, capacity is not well defined
    for the weight set and the report flags it. The usable range ends at
    the first threshold that counts every weight, floor(max weight) + 1,
    so a cutoff past it lists more thresholds but gives the same verdict.
    """
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin!r}")
    try:
        distinct = sorted(set(map(float, weights)))
    except OverflowError as exc:
        raise ValueError(f"weights must be finite and nonnegative: {exc}") from exc
    # Without NaN, which compares false with everything, the sorted weights
    # are all finite and nonnegative when the ends are. A NaN makes the sum
    # NaN. Otherwise the loop names the first bad weight in sorted order.
    total = sum(distinct)
    if total != total or distinct and not (distinct[0] >= 0 and distinct[-1] < math.inf):
        for w in distinct:
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"weights must be finite and nonnegative, got {w!r}")
    if cutoff is None:
        if not distinct:
            raise InsufficientDataError("no weights to analyze")
        cutoff = distinct[-1]
    cutoff = float(cutoff)
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff!r}")
    top = int(math.floor(cutoff))
    if top > MAX_DENSITY_THRESHOLDS:
        raise ResourceLimitError(
            f"cutoff {cutoff:.6g} needs {top} integer thresholds; "
            f"the limit is {MAX_DENSITY_THRESHOLDS}"
        )
    if top < 1:
        raise InsufficientDataError("cutoff below 1; no integer thresholds to count")
    counts = [(n, bisect_left(distinct, n)) for n in range(1, top + 1)]
    # Past the first threshold that counts every weight the counts are
    # flat, so a cutoff beyond it must not move the fit.
    fit_top = min(top, math.floor(distinct[-1]) + 1) if distinct else top
    usable = [(n, c) for n, c in counts[:fit_top] if c >= 1]
    if len(usable) < 4:
        hint = (
            "raise the cutoff"
            if fit_top == top
            else f"every weight lies below {fit_top}, so a larger cutoff adds nothing"
        )
        raise InsufficientDataError(
            f"only {len(usable)} thresholds have a nonzero weight count; "
            f"need at least 4 for a meaningful fit ({hint})"
        )
    upper = usable[len(usable) // 2 :]
    # Shifting by the first value before averaging centres a flat tail to exact zeros.
    log_c = [math.log(c) for _, c in upper]
    shift = left_sum(y - log_c[0] for y in log_c) / len(log_c)
    cy = [y - log_c[0] - shift for y in log_c]

    def fit(xs: list[float]) -> tuple[float, float]:
        """Least-squares slope of log_c on xs and its residual sum of squares."""
        mean_x = left_sum(xs) / len(xs)
        cx = [x - mean_x for x in xs]
        slope = left_sum(a * b for a, b in zip(cx, cy)) / left_sum(a * a for a in cx)
        return slope, left_sum((b - slope * a) ** 2 for a, b in zip(cx, cy))

    slope_poly, sse_poly = fit([math.log(n) for n, _ in upper])
    _, sse_exp = fit([float(n) for n, _ in upper])
    return DensityReport(
        cutoff=cutoff,
        counts_below_n=tuple(counts),
        fitted_exponent=slope_poly,
        exponential_flag=sse_exp < margin * sse_poly,
        poly_residual=sse_poly,
        exp_residual=sse_exp,
    )
