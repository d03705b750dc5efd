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
                        P(a) - N(b) <= D(y) <= P(b) - N(a).

Capacity in nats per unit weight is -ln of the located singularity. The
reported error bound is the log-width of the final bracket.

`check_density` is the guard for channels whose weights are so dense that
capacity is not well defined: it compares polynomial against exponential
fits of the count of distinct weights below n. Both fits are ordinary
least-squares lines, computed in closed form from centred sums.
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
from .genpoly import GeneralizedPolynomial, RationalGF, WeightVector

DEFAULT_TOL = 1e-12
# The pole scan covers (0, Y_MAX] on a grid of GRID_STEP.
Y_MAX = 1.0
GRID_STEP = 1e-3
# The pole scan skips a grid run [a, b] only when its bound clears zero by
# SKIP_MARGIN * (len(D) + 4) times P(b) + N(b). This assumes the C library's
# pow is within 1 ulp. With u = 2**-53, each term c * y**e of `evaluate` is
# then within 4u of exact (pow, converting c to float, the product), and
# summing n = len(D) terms adds (n - 1)u, so evaluating D, P or N at y is off
# by at most (n + 3)u (P(y) + N(y)). In the lower bound P(a) and N(b) are
# together off by at most (n + 3)u (P(b) + N(b)), D at a grid point of the
# run by as much again, and the subtraction and the product round once
# each: under 2 (n + 4)u (P(b) + N(b)) in all, an eighth of the margin, and
# likewise for the upper bound. So each skipped grid point would have
# evaluated to a nonzero float of the run's sign.
SKIP_MARGIN = 8 * 2.0**-52
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
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        iterations += 1
        try:
            below = at(mid) < target
        except EvalOverflowError:
            below = False
        if below:
            lo = mid
        else:
            hi = mid
    return RootResult((lo + hi) / 2.0, lo, hi, iterations)


def _log_enclosure_width(low: float, high: float) -> float:
    if low <= 0.0:
        return math.inf
    return math.log(high / low)


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


def characteristic_part(den: GeneralizedPolynomial) -> GeneralizedPolynomial | None:
    """E with den = d0 - E and E nonnegative, or None if den lacks star form.

    Computed once per polynomial and cached on it: the CLI's route choice
    and capacity_from_characteristic both ask for it.
    """
    try:
        return den._characteristic
    except AttributeError:
        pass
    terms = {}
    for wv, c in den.terms():
        if not any(wv):
            continue
        if c > 0:
            terms = None
            break
        terms[wv] = -c
    # The terms of den are valid terms, and so are their negations.
    growth = None if terms is None else GeneralizedPolynomial._from_terms(den.basis, terms)
    den._characteristic = growth
    return growth


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
    d0 = den.constant_coefficient
    if not growth:
        return _finite_language_report("characteristic-root")
    result = smallest_positive_root(growth, float(d0), tol=tol)
    if _is_removable(gf, result.root):
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


def _left_sum(terms) -> float:
    """Float sum in plain left-to-right order. Python 3.12's sum() adds
    floats with compensation, which would change reported digits with the
    Python version."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _is_removable(gf: RationalGF, y0: float) -> bool:
    """Does the numerator vanish at y0, relative to its term magnitudes?"""
    num = gf.numerator
    scale = _left_sum(abs(c) * y0 ** e for e, c in num.float_terms())
    return abs(num.evaluate(y0)) <= REMOVABLE_RTOL * scale


class _PoleScan:
    """The pole scan of a denominator: iterating yields its roots in (0, Y_MAX].

    Roots come in increasing order, each a certified enclosure: the
    denominator takes opposite signs (or an exact zero) at its endpoints.
    `evaluations` counts the `evaluate` calls made so far on D, P and N.
    """

    def __init__(self, den: GeneralizedPolynomial, tol: float):
        _check_tol(tol)
        self.den = den
        self.tol = tol
        self.evaluations = 0

    def __iter__(self) -> Iterator[RootResult]:
        den = self.den
        # The terms of D split into valid terms of P and N.
        pos = GeneralizedPolynomial._from_terms(
            den.basis, {wv: c for wv, c in den.terms() if c > 0}
        )
        neg = GeneralizedPolynomial._from_terms(
            den.basis, {wv: -c for wv, c in den.terms() if c < 0}
        )
        margin = SKIP_MARGIN * (len(den) + 4)
        n_grid = int(math.ceil(Y_MAX / GRID_STEP))
        # D, P and N are evaluated through their bound evaluate methods;
        # self.evaluations counts every evaluation.
        d_at, p_at, n_at = den.evaluate, pos.evaluate, neg.evaluate

        def bounds(y: float) -> tuple[float, float]:
            # An overflowing P or N makes the skip test fail, not the scan.
            self.evaluations += 2
            try:
                p_y = p_at(y)
            except EvalOverflowError:
                p_y = math.inf
            try:
                return p_y, n_at(y)
            except EvalOverflowError:
                return p_y, math.inf

        # The walk stands at prev_y, the last point whose float sign is
        # known; p_prev and n_prev are P and N there. It tries to skip the
        # next k grid points, doubling k on success and halving it on
        # failure, and evaluates D at the next grid point once k = 1 fails.
        # Denominator normalization makes the value at 0 positive.
        self.evaluations += 1
        prev_y, prev_v = 0.0, d_at(0.0)
        p_prev, n_prev = bounds(0.0)
        j, k = 0, 1
        while j < n_grid:
            k = min(k, n_grid - j)
            y = min((j + k) * GRID_STEP, Y_MAX)
            p_y, n_y = bounds(y)
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
            self.evaluations += 1
            v = d_at(y)
            if v == 0.0:
                yield RootResult(y, y, y, 0)
                probe = y + 0.5 * GRID_STEP
                # Y_MAX is a whole number of grid steps, so only the last
                # grid point's probe reaches it.
                if probe >= Y_MAX:
                    return
                self.evaluations += 1
                prev_y, prev_v = probe, d_at(probe)
                p_prev, n_prev = bounds(probe)
                continue
            if (v < 0.0) != (prev_v < 0.0):
                yield self._bisect(prev_y, y, prev_v)
            prev_y, prev_v, p_prev, n_prev = y, v, p_y, n_y

    def _bisect(self, lo: float, hi: float, flo: float) -> RootResult:
        at = self.den.evaluate
        iterations = 0
        while hi - lo > self.tol:
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break
            iterations += 1
            self.evaluations += 1
            fmid = at(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return RootResult((lo + hi) / 2.0, lo, hi, iterations)


def bracket_denominator_roots(
    gf: RationalGF, *, tol: float = DEFAULT_TOL
) -> tuple[list[RootResult], int]:
    """All denominator roots in (0, Y_MAX] visible at the grid resolution.

    Returns (roots in increasing order, number of evaluations), draining
    the pole scan. Roots closer together than the grid step may be missed;
    that is the documented resolution limit, and skipping grid runs whose
    sign is proved does not change it.
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
    The grid runs it skips are those whose sign the monotone bound on
    D = P - N proves (see SKIP_MARGIN), so it brackets exactly the roots a
    scan evaluating every grid point would. `iterations` is the number of
    `evaluate` calls the scan made on D, P and N. A constant denominator
    has no pole to scan for: the language is finite and the capacity 0.
    Otherwise raises SolverError when no surviving root is bracketed: a
    root of even multiplicity touches zero without changing sign, so an
    empty scan bounds nothing.
    """
    scan = _PoleScan(gf.denominator, tol)
    if all(wv.is_zero() for wv, _ in gf.denominator.terms()):
        return _finite_language_report("smallest-pole")
    skipped = 0
    for cand in scan:
        if _is_removable(gf, cand.root):
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


def density_thresholds(cutoff: float) -> int:
    """The number of integer thresholds check_density counts up to cutoff.

    Raises ValueError for a non-finite cutoff and ResourceLimitError when
    the count exceeds MAX_DENSITY_THRESHOLDS, so a caller can refuse a
    cutoff before enumerating weights up to it.
    """
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff!r}")
    top = int(math.floor(cutoff))
    if top > MAX_DENSITY_THRESHOLDS:
        raise ResourceLimitError(
            f"cutoff {cutoff:.6g} needs {top} integer thresholds; "
            f"the limit is {MAX_DENSITY_THRESHOLDS}"
        )
    return top


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
        distinct = sorted(set(float(w) for w in weights))
    except OverflowError as exc:
        raise ValueError(f"weights must be finite and nonnegative: {exc}") from exc
    for w in distinct:
        if not (math.isfinite(w) and w >= 0):
            raise ValueError(f"weights must be finite and nonnegative, got {w!r}")
    if cutoff is None:
        if not distinct:
            raise InsufficientDataError("no weights to analyze")
        cutoff = distinct[-1]
    cutoff = float(cutoff)
    top = density_thresholds(cutoff)
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
    shift = _left_sum(y - log_c[0] for y in log_c) / len(log_c)
    cy = [y - log_c[0] - shift for y in log_c]

    def fit(xs: list[float]) -> tuple[float, float]:
        """Least-squares slope of log_c on xs and its residual sum of squares."""
        mean_x = _left_sum(xs) / len(xs)
        cx = [x - mean_x for x in xs]
        slope = _left_sum(a * b for a, b in zip(cx, cy)) / _left_sum(a * a for a in cx)
        return slope, _left_sum((b - slope * a) ** 2 for a, b in zip(cx, cy))

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
