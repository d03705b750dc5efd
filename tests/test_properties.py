"""Randomized invariants: algebra laws, round trips, certified enclosures."""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from dnccap import (
    ChannelSpec,
    Concat,
    DncError,
    Epsilon,
    EvalOverflowError,
    ForbiddenPatterns,
    Free,
    GeneralizedPolynomial,
    RationalGF,
    Regex,
    SpecError,
    Star,
    Symbol,
    SymbolDef,
    Union,
    InsufficientDataError,
    WeightBasis,
    WeightVector,
    build_gf,
    check_density,
    expand_series,
    parse_regex,
    parse_spec,
    render_regex,
    render_spec,
    smallest_positive_root,
)
from dnccap import genpoly
from dnccap.cli import _analytic_report
from dnccap.gf_builder import _minors
from dnccap.solver import DEFAULT_TOL, bracket_denominator_roots

from corpus import (
    load_channel,
    reference_auto_capacity,
    reference_bracket_denominator_roots,
    reference_build_gf,
    reference_check_density,
    reference_evaluate,
    reference_expand_series,
    reference_parse_spec,
    reference_tuple_expand_series,
)


BASIS = WeightBasis.from_mapping({"unit": 1.0, "half": 0.5})


def vectors():
    return st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ).map(WeightVector)


def polynomials(min_coeff=-5, max_coeff=5):
    return st.dictionaries(
        vectors(),
        st.integers(min_value=min_coeff, max_value=max_coeff),
        max_size=5,
    ).map(lambda terms: GeneralizedPolynomial(BASIS, terms))


class TestPolynomialAlgebra:
    @given(polynomials(), polynomials())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polynomials(), polynomials(), polynomials())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polynomials(), polynomials())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(polynomials(), polynomials(), polynomials())
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polynomials(), polynomials())
    def test_subtraction_inverts_addition(self, a, b):
        assert (a + b) - b == a

    @given(
        polynomials(),
        polynomials(),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_evaluation_is_a_homomorphism(self, a, b, y):
        assert math.isclose(
            (a + b).evaluate(y), a.evaluate(y) + b.evaluate(y), abs_tol=1e-9
        )
        assert math.isclose(
            (a * b).evaluate(y),
            a.evaluate(y) * b.evaluate(y),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )


def leibniz_determinant(rows):
    """Sum over all n! permutations, each signed by its inversion count."""
    total = GeneralizedPolynomial.zero(BASIS)
    for perm in itertools.permutations(range(len(rows))):
        term = GeneralizedPolynomial.one(BASIS)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total + term if inversions % 2 == 0 else total - term
    return total


class TestDeterminant:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(polynomials(), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_memoised_laplace_equals_leibniz(self, rows):
        assert _minors(rows, BASIS)(tuple(range(len(rows)))) == leibniz_determinant(rows)


def regex_nodes():
    leaves = st.sampled_from(
        [Epsilon(), Symbol("0"), Symbol("1")]
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda ps: Union(tuple(ps))
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda ps: Concat(tuple(ps))
            ),
            children.map(Star),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def atom_mappings():
    return st.sampled_from(
        [
            {"unit": 1.0},
            {"unit": 1.0, "half": 0.5},
            {"unit": 1.0, "pi": math.pi},
        ]
    )


def constraints():
    patterns = st.lists(
        st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=3).map(tuple),
        min_size=1,
        max_size=2,
    ).map(lambda ps: ForbiddenPatterns(tuple(ps)))
    return st.one_of(
        st.just(Free()),
        patterns,
        regex_nodes().map(Regex),
    )


def channel_specs():
    def build(atoms, constraint):
        basis = WeightBasis.from_mapping(atoms)
        name = next(iter(atoms))
        symbols = tuple(
            SymbolDef(s, WeightVector.from_mapping(basis, {name: 1}))
            for s in ("0", "1")
        )
        return ChannelSpec(basis, symbols, constraint)

    return st.builds(build, atom_mappings(), constraints())


class TestSpecRoundTrip:
    @given(channel_specs())
    def test_render_then_parse_is_identity(self, spec):
        assert parse_spec(render_spec(spec)) == spec

    @given(channel_specs())
    def test_rendering_is_canonical(self, spec):
        once = render_spec(spec)
        assert render_spec(parse_spec(once)) == once


class TestParserRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_parse_spec_never_crashes_on_text(self, text):
        try:
            parse_spec(text)
        except SpecError:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_parse_spec_never_crashes_on_bytes(self, blob):
        try:
            parse_spec(blob)
        except SpecError:
            pass

    @given(st.text(alphabet="01()|*ε ", max_size=40))
    @settings(max_examples=300)
    def test_parse_regex_never_crashes(self, text):
        try:
            parse_regex(text, ("0", "1"))
        except SpecError:
            pass

    @given(st.dictionaries(st.text(max_size=10), st.floats() | st.text(max_size=10), max_size=4))
    def test_parse_spec_never_crashes_on_json_objects(self, doc):
        try:
            parse_spec(json.dumps(doc))
        except SpecError:
            pass


def growth_polynomials():
    positive_vectors = vectors().filter(lambda wv: not wv.is_zero())
    return st.dictionaries(
        positive_vectors,
        st.integers(min_value=1, max_value=5),
        min_size=1,
        max_size=4,
    ).map(lambda terms: GeneralizedPolynomial(BASIS, terms))


class TestRootCertificates:
    @given(growth_polynomials(), st.integers(min_value=1, max_value=4))
    def test_enclosure_brackets_the_target(self, growth, d0):
        result = smallest_positive_root(growth, float(d0))
        assert result.low <= result.root <= result.high
        assert result.high - result.low <= 1e-12
        assert growth.evaluate(result.low) <= d0
        assert growth.evaluate(result.high) >= d0


class TestSeriesMonotonicity:
    @given(
        growth_polynomials(),
        st.floats(min_value=1.0, max_value=6.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_longer_expansion_extends_shorter(self, growth, cutoff):
        # 1 / (1 - E) with E free of constant term always counts
        # something (compositions into weighted parts), so expansion
        # succeeds, counts are nonnegative, and a higher cutoff only
        # appends entries.
        gf = RationalGF(
            GeneralizedPolynomial.one(BASIS),
            GeneralizedPolynomial.one(BASIS) - growth,
        )
        short = expand_series(gf, cutoff)
        long = expand_series(gf, 2.0 * cutoff)
        assert all(c >= 0 for c in long.counts())
        assert long.entries[: len(short.entries)] == short.entries

    @given(
        growth_polynomials(),
        st.floats(min_value=0.05, max_value=0.3),
    )
    @settings(max_examples=50, deadline=None)
    def test_partial_sums_increase_toward_the_quotient(self, growth, y):
        gf = RationalGF(
            GeneralizedPolynomial.one(BASIS),
            GeneralizedPolynomial.one(BASIS) - growth,
        )
        short = expand_series(gf, 4.0)
        long = expand_series(gf, 8.0)
        a, b = short.evaluate(y), long.evaluate(y)
        assert a <= b + 1e-12
        if gf.denominator.evaluate(y) > 0:
            assert b <= gf.evaluate(y) + 1e-9


def light_growth_polynomials():
    # Light positive weights (at most 3) so that cutoffs up to 8 reach
    # many levels; mostly positive coefficients, with -1 mixed in.
    light_vectors = st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ).filter(any).map(WeightVector)
    return st.dictionaries(
        light_vectors,
        st.integers(min_value=-1, max_value=3),
        min_size=1,
        max_size=4,
    ).map(lambda terms: GeneralizedPolynomial(BASIS, terms))


def _outcome(expand, gf, cutoff):
    try:
        return expand(gf, cutoff).entries
    except DncError as exc:
        return type(exc)


class TestSeriesRecurrence:
    @given(
        polynomials(),
        st.integers(min_value=1, max_value=5),
        light_growth_polynomials(),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.integers(min_value=0, max_value=80).map(lambda tenths: tenths / 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_power_reference(self, num, n0, growth, d0, scaled, cutoff):
        # The numerator has mixed signs around a positive constant term.
        # Scaling it and the growth terms by d0 keeps counts integral, so
        # valid series and rejected quotients (negative or non-integral
        # counts) both occur. BASIS ties unit=1 with half=2, so distinct
        # classes share a numeric weight, and half-step cutoffs land on
        # class weights exactly.
        k = d0 if scaled else 1
        gf = RationalGF(
            k * (num + GeneralizedPolynomial.constant(BASIS, n0)),
            GeneralizedPolynomial.constant(BASIS, d0) - k * growth,
        )
        assert _outcome(expand_series, gf, cutoff) == _outcome(
            reference_expand_series, gf, cutoff
        )


# Atom values with ties (1, 0.5 and 1.5 are rationally dependent), an
# irrational, and values small and large enough that one atom's digits
# run long or stay at zero within the cutoff.
PACKED_ATOMS = (1.0, 0.5, math.pi / 4, 1.5, 0.1, 12.0)


@st.composite
def packed_quotients(draw):
    """A quotient over 1-4 atoms: a numerator of mixed signs around a
    positive constant term and growth terms, both scaled by d0 or not, so
    valid series and rejected ones (negative or non-integral counts) both
    occur."""
    k = draw(st.integers(1, 4))
    basis = WeightBasis.from_mapping(
        {f"a{i}": v for i, v in enumerate(draw(st.lists(
            st.sampled_from(PACKED_ATOMS), min_size=k, max_size=k
        )))}
    )
    # Sparse vectors: one or two atoms of multiplicity 1 or 2.
    digits = st.dictionaries(
        st.integers(0, k - 1), st.integers(1, 2), min_size=1, max_size=2
    ).map(lambda d: WeightVector(d.get(i, 0) for i in range(k)))
    num = draw(st.dictionaries(digits, st.integers(-3, 5), max_size=4))
    growth = draw(st.dictionaries(
        digits, st.sampled_from([1, 2, 3, -1]), min_size=1, max_size=4
    ))
    d0 = draw(st.integers(1, 3))
    scale = d0 if draw(st.booleans()) else 1
    num = GeneralizedPolynomial(basis, num) + GeneralizedPolynomial.constant(
        basis, draw(st.integers(1, 4))
    )
    den = GeneralizedPolynomial.constant(basis, d0) - scale * GeneralizedPolynomial(
        basis, growth
    )
    return RationalGF(scale * num, den)


def _packed_outcome(expand, gf, cutoff):
    try:
        series = expand(gf, cutoff)
    except DncError as exc:
        return type(exc), str(exc)
    return series.entries, [(type(v), repr(v)) for v in series.values()]


class TestPackedKeys:
    @given(
        packed_quotients(),
        st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.3, 9.0, 12.0]),
        st.sampled_from([None, 3, 30]),
    )
    @settings(max_examples=300, deadline=None)
    @example(build_gf(load_channel("ex2.json")), 30.0, None)
    @example(build_gf(load_channel("mixed-free.json")), 12.0, 40)
    def test_expansion_equals_the_tuple_keyed_loop(self, gf, cutoff, term_limit):
        # Entries, float bits, and the text of an ExpansionError or of a
        # term-limit error, all as the former loop gives them.
        with pytest.MonkeyPatch.context() as mp:
            if term_limit is not None:
                mp.setattr(genpoly, "TERM_LIMIT", term_limit)
            assert _packed_outcome(expand_series, gf, cutoff) == _packed_outcome(
                reference_tuple_expand_series, gf, cutoff
            )


@st.composite
def points_and_polynomials(draw):
    """y in [0, 2] and a polynomial over a random basis of 1-3 atoms. Atom
    values up to 1000 with multiplicities up to 4 make y**w overflow for
    some y above 1.2, and the zero vector gives a constant term. The point
    is drawn first so that simple polynomials do not pin it to 0."""
    y = draw(st.floats(min_value=0.0, max_value=2.0))
    size = draw(st.integers(min_value=1, max_value=3))
    values = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1000.0),
            min_size=size,
            max_size=size,
        )
    )
    basis = WeightBasis.from_mapping({f"a{i}": v for i, v in enumerate(values)})
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * size).map(WeightVector),
            st.integers(min_value=-9, max_value=9).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    return y, GeneralizedPolynomial(basis, terms)


def _evaluation(evaluate, p, y):
    try:
        return evaluate(p, y)
    except EvalOverflowError:
        return EvalOverflowError


class TestCachedExponents:
    @given(points_and_polynomials())
    @example(
        (
            0.0,
            GeneralizedPolynomial(
                WeightBasis.from_mapping({"unit": 1.0}),
                {WeightVector((0,)): 3, WeightVector((2,)): -1},
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_evaluation_is_bitwise_the_per_term_reference(self, case):
        # Exact equality, not approximate: the cached exponents are the
        # same floats, added in the same order. The first call builds the
        # cache and the second reads it.
        y, p = case
        expected = _evaluation(reference_evaluate, p, y)
        for _ in range(2):
            assert _evaluation(GeneralizedPolynomial.evaluate, p, y) == expected


@st.composite
def lattice_weights(draw):
    """a*alpha + b*beta up to a top weight: counts below n grow like n**2."""
    alpha = draw(st.floats(min_value=0.5, max_value=2.0))
    beta = draw(st.floats(min_value=0.5, max_value=2.0))
    top = draw(st.floats(min_value=4.0, max_value=32.0))
    return sorted(
        a * alpha + b * beta
        for a in range(int(top / alpha) + 1)
        for b in range(int(top / beta) + 1)
        if 0 < a * alpha + b * beta <= top
    )


@st.composite
def dense_weights(draw):
    """About base**n weights spread over [n - 1, n) for n = 1..levels: counts
    below n grow exponentially, as in the benchmark's dense density lists."""
    base = draw(st.floats(min_value=1.2, max_value=1.8))
    levels = draw(st.integers(min_value=4, max_value=12))
    jitter = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    out = []
    for n in range(1, levels + 1):
        m = int(base**n)
        out.extend(n - 1 + (j + jitter) / (m + 1) for j in range(m))
    return [w for w in out if w > 0]


plain_weights = st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=60)


def _density(check, weights, cutoff, margin):
    try:
        return check(weights, cutoff=cutoff, margin=margin)
    except InsufficientDataError:
        return InsufficientDataError


def _close(got: float, expected: float) -> bool:
    return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


class TestDensityFit:
    @given(
        st.one_of(lattice_weights(), dense_weights(), plain_weights),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=45.0)),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_fit_matches_numpy_lstsq(self, weights, cutoff, margin):
        # The closed form and LAPACK round differently, so the fit values
        # agree to a relative 1e-9 rather than bit for bit; the counts are
        # exact either way. A flag decided by a near tie between the two
        # residuals could go either way, so such draws are skipped.
        got = _density(check_density, weights, cutoff, margin)
        expected = _density(reference_check_density, weights, cutoff, margin)
        if expected is InsufficientDataError:
            assert got is InsufficientDataError
            return
        assert got.counts_below_n == expected.counts_below_n
        assert got.cutoff == expected.cutoff
        assert _close(got.fitted_exponent, expected.fitted_exponent)
        assert _close(got.poly_residual, expected.poly_residual)
        assert _close(got.exp_residual, expected.exp_residual)
        assume(
            not math.isclose(
                expected.exp_residual,
                margin * expected.poly_residual,
                rel_tol=1e-9,
                abs_tol=1e-9,
            )
        )
        assert got.exponential_flag == expected.exponential_flag


UNIT = WeightBasis.from_mapping({"unit": 1.0})
_DOUBLE_POLE_FACTOR = GeneralizedPolynomial(
    WeightBasis.from_mapping({"unit": 1.0, "r2": math.sqrt(2.0)}),
    {WeightVector((0, 0)): 1, WeightVector((1, 0)): -1, WeightVector((0, 1)): -1},
)


def _unit_poly(*coeff_by_power):
    return GeneralizedPolynomial(UNIT, {WeightVector((p,)): c for p, c in coeff_by_power})


@st.composite
def denominators(draw):
    """A positive constant term and up to six terms of mixed sign over a
    random basis of 1-3 atoms, sometimes squared to give roots of even
    multiplicity. Atom values 1/2, 1 and 2 put some roots on grid points."""
    size = draw(st.integers(min_value=1, max_value=3))
    values = draw(
        st.lists(
            st.sampled_from([0.5, 1.0, 2.0]) | st.floats(min_value=0.05, max_value=4.0),
            min_size=size,
            max_size=size,
        )
    )
    basis = WeightBasis.from_mapping({f"a{i}": v for i, v in enumerate(values)})
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * size).map(WeightVector),
            st.integers(min_value=-9, max_value=9),
            max_size=6,
        )
    )
    terms[WeightVector((0,) * size)] = draw(st.integers(min_value=1, max_value=9))
    den = GeneralizedPolynomial(basis, terms)
    return den * den if draw(st.booleans()) else den


class TestPoleScan:
    @given(denominators())
    # A root on a grid point, and one at Y_MAX itself.
    @example(_unit_poly((0, 1), (1, -2)))
    @example(_unit_poly((0, 1), (1, -1)))
    # Double roots on a grid point and between grid points.
    @example(_unit_poly((0, 1), (1, -2)) * _unit_poly((0, 1), (1, -2)))
    @example(_unit_poly((0, 1), (1, -3)) * _unit_poly((0, 1), (1, -3)))
    # 1 - 4y + 4y**2 again, its -4y split over two weight vectors of value 1.
    @example(
        GeneralizedPolynomial(
            BASIS,
            {
                WeightVector((0, 0)): 1,
                WeightVector((1, 0)): -2,
                WeightVector((0, 2)): -2,
                WeightVector((2, 0)): 4,
            },
        )
    )
    # A constant denominator.
    @example(_unit_poly((0, 3)))
    # P = 1 + c y + c y**2 overflows near y = 1, where D itself does not.
    @example(_unit_poly((0, 1), (1, 9 * 10**307), (3, -9 * 10**307), (2, 9 * 10**307)))
    # The double-pole probe's denominator, (1 - y - y**sqrt(2))**2.
    @example(_DOUBLE_POLE_FACTOR * _DOUBLE_POLE_FACTOR)
    @settings(max_examples=300, deadline=None)
    def test_drained_scan_equals_full_grid_reference(self, den):
        # Exact equality of every candidate: root, bracket and bisection
        # steps. A skipped grid run must hide no sign change and no zero.
        gf = RationalGF(GeneralizedPolynomial.one(den.basis), den)
        got, _ = bracket_denominator_roots(gf)
        expected, _ = reference_bracket_denominator_roots(gf)
        assert got == expected


# --- the warm capacity path against its former code ------------------------------

SPEC_ATOMS = (
    {"unit": 1.0},
    {"unit": 1.0, "half": 0.5},
    {"unit": 1.0, "pi": math.pi},
    {"u": 0.7, "v": 1.3, "w": 2.9},
)
SPEC_NAMES = (("0", "1", "2", "3"), ("a", "b", "c", "d"), ("go", "stop", "x1", "zz"))
# Values a malformed document puts where a valid one has something else.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=3),
    st.just(10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.just([]),
    st.just({}),
)


def _regex_over(names):
    leaves = st.sampled_from([Epsilon()] + [Symbol(n) for n in names])

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ps: Union(tuple(ps))),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: Concat(tuple(ps))),
            children.map(Star),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def valid_documents(draw):
    """A spec document: free, one or several forbidden patterns, a prefix
    code's star, or a random regex, over 1-4 symbols of random weights."""
    atoms = draw(st.sampled_from(SPEC_ATOMS))
    names = draw(st.sampled_from(SPEC_NAMES))[: draw(st.integers(1, 4))]
    sep = "" if all(len(n) == 1 for n in names) else " "
    weights = st.dictionaries(
        st.sampled_from(list(atoms)), st.integers(1, 3), min_size=1, max_size=len(atoms)
    )
    symbols = [{"name": n, "weight": draw(weights)} for n in names]
    words = st.lists(st.sampled_from(names), min_size=1, max_size=4).map(sep.join)
    kind = draw(st.sampled_from(["free", "pattern", "patterns", "prefix-code", "regex"]))
    event(kind)
    if kind == "free":
        constraint = {"type": "free"}
    elif kind == "pattern":
        constraint = {"type": "forbidden", "patterns": [draw(words)]}
    elif kind == "patterns":
        patterns = draw(st.lists(words, min_size=2, max_size=4))
        constraint = {"type": "forbidden", "patterns": patterns}
    else:
        if kind == "prefix-code":
            # Splitting a word w of a prefix code into w n, n over the
            # alphabet, keeps it a prefix code, whose star is unambiguous.
            code = [(n,) for n in names]
            for _ in range(draw(st.integers(0, 3))):
                w = code.pop(draw(st.integers(0, len(code) - 1)))
                code += [w + (n,) for n in names]
            expr = "(" + "|".join(sep.join(w) for w in code) + ")*"
        else:
            expr = render_regex(draw(_regex_over(names)), single_char_names=not sep)
        constraint = {"type": "regex", "expr": expr, "unambiguous": True}
    return {"atoms": dict(atoms), "symbols": symbols, "constraint": constraint}


@st.composite
def malformed_documents(draw):
    """A valid document with one value replaced, added or removed."""
    doc = draw(valid_documents())
    atom = next(iter(doc["atoms"]))
    entry = doc["symbols"][draw(st.integers(0, len(doc["symbols"]) - 1))]
    constraint = doc["constraint"]
    junk, text = draw(JUNK), draw(st.text(alphabet="01abgostp()|*ε \n", max_size=8))
    change = draw(st.integers(0, 13))
    event(f"change {change}")
    if change == 0:
        doc["atoms"][atom] = junk
    elif change == 1:
        doc["atoms"][text] = 1.0
    elif change == 2:
        doc[draw(st.sampled_from(["atoms", "symbols", "constraint"]))] = junk
    elif change == 3:
        entry["name"] = draw(st.one_of(JUNK, st.just(text)))
    elif change == 4:
        entry["weight"][atom] = junk
    elif change == 5:
        entry["weight"][text] = 1
    elif change == 6:
        entry[text or "extra"] = junk
    elif change == 7:
        del entry[draw(st.sampled_from(["name", "weight"]))]
    elif change == 8:
        doc["symbols"].append(dict(entry))
    elif change == 9:
        entry["weight"] = {atom: 0}
    elif change == 10:
        constraint["type"] = draw(st.sampled_from(["free", "forbidden", "regex", "nope"]))
    elif change == 11:
        constraint["patterns"] = draw(st.lists(st.one_of(JUNK, st.just(text)), max_size=3))
    elif change == 12:
        constraint["expr"] = text
    else:
        constraint[draw(st.sampled_from(["unambiguous", "extra"]))] = junk
    return doc


def _spec_outcome(parse, text):
    try:
        return parse(text)
    except SpecError as exc:
        return f"SpecError: {exc}"


def _quotient(build, spec):
    try:
        return build(spec)
    except DncError as exc:
        return f"{type(exc).__name__}: {exc}"


def _terms(gf):
    """The terms of both parts in order, or the error text."""
    if isinstance(gf, str):
        return gf
    return list(gf.numerator.terms()), list(gf.denominator.terms())


def _capacity_outcome(solve):
    try:
        r = solve()
    except DncError as exc:
        return f"{type(exc).__name__}: {exc}"
    hexed = [float.hex(x) for x in (r.radius_or_pole, r.capacity_nats, r.error_bound)]
    return r.method, *hexed, r.iterations, r.note


class TestWarmCapacityPath:
    @given(
        st.one_of(valid_documents(), malformed_documents()).map(
            lambda doc: json.dumps(doc, ensure_ascii=False)
        )
        | st.text(max_size=40)
    )
    @example('{"atoms": {"u\\n": 1.0}, "symbols": [], "constraint": {}}')
    @example(
        '{"atoms": {"unit": 1.0}, "symbols": [{"name": "0", "weight": {"unit": 1}}], '
        '"constraint": {"type": "forbidden", "patterns": ["0", " "]}}'
    )
    # A denominator without star form, (1 - y)(1 - y**2), goes to the pole scan.
    @example(
        '{"atoms": {"unit": 1.0}, "symbols": [{"name": "0", "weight": {"unit": 1}}, '
        '{"name": "1", "weight": {"unit": 2}}], '
        '"constraint": {"type": "regex", "expr": "0*1*", "unambiguous": true}}'
    )
    @settings(max_examples=400, deadline=None)
    def test_answers_match_the_former_code_bit_for_bit(self, text):
        # Equal specs or the same SpecError text; then the same quotient
        # terms in the same order, or the same error; then the auto
        # route's report with float.hex-identical fields, or the same
        # SolverError text.
        spec = _spec_outcome(parse_spec, text)
        assert spec == _spec_outcome(reference_parse_spec, text)
        if isinstance(spec, str):
            return
        gf, expected = _quotient(build_gf, spec), _quotient(reference_build_gf, spec)
        assert _terms(gf) == _terms(expected)
        if isinstance(gf, str):
            return
        assert _capacity_outcome(lambda: _analytic_report(spec, gf, None, DEFAULT_TOL)) == (
            _capacity_outcome(lambda: reference_auto_capacity(spec, expected))
        )
