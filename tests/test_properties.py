"""Randomized invariants: algebra laws, round trips, certified enclosures."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from dnccap import (
    ChannelSpec,
    CoefficientSeries,
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
    enumerate_by_weight,
    enumerate_channel,
    expand_series,
    load_spec,
    parse_regex,
    parse_spec,
    render_regex,
    render_spec,
    smallest_positive_root,
)
from dnccap import chanspec, genpoly, solver
from dnccap.cli import _analytic_report, main
from dnccap.gf_builder import _minors
from dnccap.solver import (
    DEFAULT_TOL,
    GRID_STEP,
    Y_MAX,
    _PoleScan,
    bracket_denominator_roots,
    characteristic_part,
)

from corpus import (
    CHANNELS_DIR,
    load_channel,
    reference_auto_capacity,
    reference_bisect_bracket,
    reference_bisection_root,
    reference_bracket_denominator_roots,
    reference_build_gf,
    reference_check_density,
    reference_evaluate,
    reference_expand_series,
    reference_is_removable,
    reference_mul,
    reference_parse_regex,
    reference_parse_spec,
    reference_tokenize_pattern,
    reference_tuple_expand_series,
    reference_value_and_slope,
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


@st.composite
def kernel_operands(draw, sizes=st.integers(1, 4)):
    """Two polynomials over one basis of 1-4 atoms. Small exponents and
    coefficients of either sign make terms merge and cancel to zero; q is
    at times p with some terms negated, so that p + q and p - q cancel
    whole terms; either side may be the constant 1."""
    size = draw(sizes)
    basis = WeightBasis.from_mapping({f"a{i}": 1.0 + i / 3 for i in range(size)})
    vector = st.lists(st.integers(0, 2), min_size=size, max_size=size).map(WeightVector)
    terms = st.dictionaries(vector, st.integers(-3, 3), max_size=6)
    one = GeneralizedPolynomial.one(basis)
    p = draw(terms.map(lambda t: GeneralizedPolynomial(basis, t)))
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(p), max_size=len(p)))
        q = GeneralizedPolynomial(
            basis, [(wv, -c if flip else c) for (wv, c), flip in zip(p.terms(), flips)]
        )
    else:
        q = draw(terms.map(lambda t: GeneralizedPolynomial(basis, t)))
    p, q = draw(st.sampled_from([(p, q), (one, q), (p, one), (one, one)]))
    return p, q


def _poly_in_y(coeff_by_power):
    basis = WeightBasis.from_mapping({"a0": 1.0})
    return GeneralizedPolynomial(basis, {WeightVector((e,)): c for e, c in coeff_by_power.items()})


def _former_sum(p, q, sign):
    """The former `p + q` (sign 1) and `p - q` (sign -1): p's terms, then
    q's merged in, in order, the zeros dropped; the checking constructor
    merges the same way."""
    return GeneralizedPolynomial(p.basis, [*p.terms(), *((wv, sign * c) for wv, c in q.terms())])


class TestTermKernel:
    """`term_product` and `term_sum` against the former product and sum,
    term order included, through the operators and on raw term dicts."""

    @given(kernel_operands())
    @example((GeneralizedPolynomial.one(BASIS), GeneralizedPolynomial.one(BASIS)))
    @settings(max_examples=300, deadline=None)
    def test_product_equals_the_former_product(self, operands):
        p, q = operands
        expected = list(reference_mul(p, q).terms())
        assert list((p * q).terms()) == expected
        assert list(genpoly.term_product(p._terms, q._terms).items()) == expected

    @given(kernel_operands())
    @settings(max_examples=300, deadline=None)
    def test_sum_equals_the_former_sum(self, operands):
        p, q = operands
        for sign in (1, -1):
            expected = list(_former_sum(p, q, sign).terms())
            assert list((p + q if sign == 1 else p - q).terms()) == expected
            parts = ((p._terms, 1), (q._terms, sign))
            assert list(genpoly.term_sum(parts).items()) == expected

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.tuples(kernel_operands(st.just(n)), st.sampled_from([1, -1])),
                min_size=1,
                max_size=4,
            )
        )
    )
    # y cancels in the second part and comes back in the third, behind y**2.
    @example(
        [
            ((_poly_in_y({1: 1}), _poly_in_y({0: 1})), 1),
            ((_poly_in_y({1: -1, 2: 1}), _poly_in_y({0: 1})), 1),
            ((_poly_in_y({1: 1}), _poly_in_y({0: 1})), 1),
        ]
    )
    @settings(max_examples=100, deadline=None)
    def test_signed_sum_of_products_keeps_first_places(self, draws):
        # The Laplace expansion's sum: a term that cancels midway and comes
        # back keeps the place it first took, as the former loop left it.
        products = [reference_mul(p, q) for (p, q), _ in draws]
        signs = [sign for _, sign in draws]
        merged: dict = {}
        for product, sign in zip(products, signs):
            for wv, c in product.terms():
                merged[wv] = merged.get(wv, 0) + sign * c
        expected = [(wv, c) for wv, c in merged.items() if c]
        got = genpoly.term_sum((p._terms, sign) for p, sign in zip(products, signs))
        assert list(got.items()) == expected


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
        # _minors expands term dicts, as the cluster quotient builds them.
        det = _minors([[p._terms for p in row] for row in rows])(tuple(range(len(rows))))
        assert GeneralizedPolynomial._from_terms(BASIS, det) == leibniz_determinant(rows)


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


def _parsed(parse, expr, names):
    """The syntax tree, or the SpecError text."""
    try:
        return parse(expr, names)
    except SpecError as exc:
        return str(exc)


NAME_SETS = [("0", "1"), ("a",), ("go", "stop", "x1"), ("ab", "a", "b")]


def _texts_over_names(pieces, separators=("",)):
    """(text, names): a name set, and a text joined from its names and the
    given pieces with one of the separators."""
    return st.sampled_from(NAME_SETS).flatmap(
        lambda names: st.tuples(
            st.builds(
                lambda parts, sep: sep.join(parts),
                st.lists(st.sampled_from(pieces + list(names)), max_size=16),
                st.sampled_from(separators),
            ),
            st.just(names),
        )
    )


def _with_free_frames(frames, parse, expr, names):
    """_parsed with the recursion limit set `frames` above this call's own
    depth, so the outcome does not depend on how deep the test runner
    calls the test."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return _parsed(parse, expr, names)
    finally:
        sys.setrecursionlimit(limit)


class TestOnePassRegexParser:
    @given(_texts_over_names(["(", ")", "|", "*", "ε", " ", "\t", "q", "op", "x"]))
    @example(("(" * 400 + "q", ("0", "1")))
    @settings(max_examples=500)
    def test_same_tree_or_error_as_the_former_parser(self, expr_names):
        # The tree, or the SpecError text with its offset, of the former
        # parser that tokenized the whole expression first: an undeclared
        # symbol anywhere outranks a syntax error.
        expr, names = expr_names
        assert _parsed(parse_regex, expr, names) == _parsed(reference_parse_regex, expr, names)

    @pytest.mark.parametrize("body", ["0", "0*", "(0|1) 1*", "q"])
    def test_400_nested_groups_give_the_former_tree(self, body):
        # A group costs the parser two calls a level, so 400 levels fit in
        # the 1000 frames of Python's default limit. The former parser, at
        # four calls a level, gets the frames it needs: both give one tree,
        # or one undeclared-symbol error.
        expr = "(" * 400 + body + ")" * 400
        names = ("0", "1")
        tree = _with_free_frames(1000, parse_regex, expr, names)
        assert tree == _with_free_frames(2000, reference_parse_regex, expr, names)
        assert isinstance(tree, str) == (body == "q")

    @pytest.mark.parametrize(
        "closing, message",
        [
            ("0", "regex offset 0: expression nests too deeply"),
            ("0" + ")" * 5000, "regex offset 0: expression nests too deeply"),
            ("q", "regex offset 5000: undeclared symbol 'q'"),
        ],
        ids=["unclosed", "closed", "undeclared"],
    )
    def test_nesting_past_the_limit_is_a_spec_error(self, closing, message):
        # 5 000 levels: the RecursionError surfaces as a SpecError, after
        # an undeclared symbol anywhere in the expression.
        with pytest.raises(SpecError) as info:
            parse_regex("(" * 5000 + closing, ("0", "1"))
        assert str(info.value) == message


class TestPatternTokenizer:
    @given(
        _texts_over_names(
            ["(", ")", "|", "*", "ε", " ", "\t", "q", "op"], separators=("", " ", "\t", "  ")
        )
    )
    @example(("", ("0", "1")))
    @example((" \t ", ("go", "stop", "x1")))
    @example(("ab a b", ("ab", "a", "b")))
    @settings(max_examples=500)
    def test_same_tokens_or_error_as_the_former_tokenizer(self, text_names):
        # The names, or the SpecError text with its offset, of the former
        # character loop.
        text, names = text_names

        def outcome(tokenize):
            return _parsed(lambda text, names: tokenize(text, names, "pattern"), text, names)

        assert outcome(chanspec.tokenize_pattern) == outcome(reference_tokenize_pattern)


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


def _left_to_right(mults, values):
    """A weight's float as the package defines it: each product m * v
    added in atom order, one at a time, to a running float; the int 0 for
    the zero vector."""
    total = 0.0
    for m, v in zip(mults, values):
        total += m * v
    return total or 0


@st.composite
def free_channels_on_random_atoms(draw):
    """A free channel document of 1-3 symbols over 1-6 atoms of random
    value, each symbol weighing digits 0-9 of every atom."""
    values = draw(
        st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6)
    )
    digits = st.lists(st.integers(0, 9), min_size=len(values), max_size=len(values))
    weights = draw(st.lists(digits.filter(any), min_size=1, max_size=3))
    names = [f"a{i}" for i in range(len(values))]
    return {
        "atoms": dict(zip(names, values)),
        "symbols": [
            {"name": "xyz"[j], "weight": dict(zip(names, w))} for j, w in enumerate(weights)
        ],
        "constraint": {"type": "free"},
    }


class TestLeftToRightWeights:
    @given(free_channels_on_random_atoms())
    # Atoms where Python 3.12's compensated sum() rounds differently.
    @example({
        "atoms": {
            "u": 1.0, "pi": 3.141592653589793, "r2": 1.4142135623730951,
            "e": 2.718281828459045,
        },
        "symbols": [
            {"name": "a", "weight": {"u": 1, "pi": 1, "r2": 1}},
            {"name": "b", "weight": {"r2": 1, "e": 1}},
            {"name": "c", "weight": {"u": 2, "pi": 1, "e": 1}},
        ],
        "constraint": {"type": "free"},
    })
    @settings(max_examples=150, deadline=None)
    def test_every_float_site_adds_left_to_right(self, doc):
        # Bit for bit, type included: WeightVector.value, the cached
        # exponents, the parser's totals, the floats the series expansion
        # and the enumeration hand to their series, and those the public
        # series constructor computes.
        totals = []

        def recorded(terms):
            totals.append(genpoly.left_sum(terms))
            return totals[-1]

        with mock.patch.object(chanspec, "left_sum", recorded):
            spec = parse_spec(json.dumps(doc))
        basis = spec.basis
        values = basis.values()

        def bits(mults):
            expected = _left_to_right(mults, values)
            return type(expected), expected.hex() if type(expected) is float else expected

        def got(value):
            return type(value), value.hex() if type(value) is float else value

        assert [got(t) for t in totals] == [bits(s.weight) for s in spec.symbols]
        for s in spec.symbols:
            assert got(s.weight.value(basis)) == bits(s.weight)
        gf = build_gf(spec)
        for wv, (e, _) in zip(gf.denominator._terms, gf.denominator.float_terms()):
            assert got(e) == bits(wv)
        cutoff = 5 * min(s.weight.value(basis) for s in spec.symbols)
        for series in (expand_series(gf, cutoff), enumerate_channel(spec, cutoff).series):
            expected = [bits(wv) for wv, _ in series.entries]
            assert [got(v) for v in series.values()] == expected
            rebuilt = CoefficientSeries(basis, series.entries, cutoff)
            assert [got(v) for v in rebuilt.values()] == expected


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


# --- Newton windows against the former bisection loops ---------------------------

TOLERANCES = (1e-300, 1e-12, 1e-3, 10.0)


@st.composite
def growth_targets(draw):
    """A polynomial of 1-20 nonnegative terms over a random basis of 1-3
    atoms and a target d0 of 1-4: every term of positive weight but,
    sometimes, a constant below d0. Small atoms give weights so small that
    the polynomial barely grows over a unit in the last place of y."""
    size = draw(st.integers(min_value=1, max_value=3))
    values = draw(
        st.lists(
            st.sampled_from([0.5, 1.0, 2.0])
            | st.floats(min_value=0.05, max_value=4.0)
            | st.floats(min_value=0.01, max_value=0.1),
            min_size=size,
            max_size=size,
        )
    )
    basis = WeightBasis.from_mapping({f"a{i}": v for i, v in enumerate(values)})
    d0 = draw(st.integers(min_value=1, max_value=4))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=6)] * size)
            .map(WeightVector)
            .filter(lambda wv: not wv.is_zero()),
            st.integers(min_value=1, max_value=9) | st.integers(min_value=1, max_value=10**9),
            min_size=1,
            max_size=20,
        )
    )
    terms[WeightVector((0,) * size)] = draw(st.integers(min_value=0, max_value=d0 - 1))
    return GeneralizedPolynomial(basis, terms), float(d0)


@st.composite
def factored_denominators(draw):
    """A product of 2-4 factors c - d * y**k over one atom: several roots
    in (0, 1) that a wide bracket holds together, and with large c and d
    roots so close or so ill-conditioned that rounding decides the sign of
    D over many units in the last place around them."""
    basis = WeightBasis.from_mapping(
        {"u": draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(min_value=0.3, max_value=3.0))}
    )
    zero = WeightVector((0,))
    den = GeneralizedPolynomial.one(basis)
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        c = draw(st.integers(1, 50) | st.integers(1, 10**4))
        d = draw(st.integers(1, 60) | st.integers(1, 10**4))
        k = draw(st.integers(min_value=1, max_value=3))
        den = den * GeneralizedPolynomial(basis, {zero: c, WeightVector((k,)): -d})
    return den


def placements():
    """Where a test puts a window end: (share, ulps). A share in [0, 1]
    places it that far across the bracket; a share of None places it the
    given number of units in the last place from the root, mostly within
    the few dozen where rounding can decide the sign."""
    near = st.builds(
        lambda k, shift: (None, k << shift),
        st.integers(-64, 64),
        st.sampled_from([0, 0, 0, 0, 6, 12, 24, 40]),
    )
    return near | st.tuples(st.floats(min_value=0.0, max_value=1.0), st.just(0))


def _placed(pick, root, lo, hi):
    share, ulps = pick
    if share is None:
        return root * (1.0 + ulps * 2.0**-52)
    return lo + share * (hi - lo)


def _rough_pow(y, e):
    """y ** e moved to a neighbouring float for two inputs in three, chosen
    by a hash of the inputs: within 1.5 ulp of the exact power, and not
    monotone in y."""
    x = y**e
    turn = hash((y, e)) % 3
    return x if turn == 0 or not x else math.nextafter(x, math.inf if turn == 1 else 0.0)


def _rough_value_and_slope(self, y):
    """`value_and_slope` through `_rough_pow`."""
    total = slope = 0.0
    try:
        for e, c in self.float_terms():
            t = c * _rough_pow(y, e)
            total += t
            slope += e * t
    except OverflowError as exc:
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}") from exc
    if not math.isfinite(total):
        raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
    return total, slope


def _rough_evaluate(self, y):
    return _rough_value_and_slope(self, y)[0]


class _RoughFloat(float):
    """A point whose powers go through `_rough_pow`, so the pole scan's own
    pass over D's terms at it takes every y**e that way."""

    def __pow__(self, e):
        return _rough_pow(float(self), e)


@contextlib.contextmanager
def _rough_passes(rough):
    """With `rough`, every `evaluate` and `value_and_slope` goes through
    `_rough_pow`; yields the point type the scan's own pass should get."""
    with contextlib.ExitStack() as stack:
        if rough:
            for name, method in (
                ("evaluate", _rough_evaluate),
                ("value_and_slope", _rough_value_and_slope),
            ):
                stack.enter_context(mock.patch.object(GeneralizedPolynomial, name, method))
        yield _RoughFloat if rough else float


def _root_outcome(solve):
    """root, low, high as float.hex and the step count, or the error text."""
    try:
        r = solve()
    except DncError as exc:
        return f"{type(exc).__name__}: {exc}"
    return r.root.hex(), r.low.hex(), r.high.hex(), r.iterations


# Factors for one side's coefficients: as drawn, large enough that a sum
# overflows, and beyond floats.
_SCALES = (1, 1, 10**305, 10**307, 10**400)


def _former_side_passes(den, sign, y):
    """What the former scan's separate passes gave for P (sign 1) or N
    (sign -1) at y: the side's value by `value_and_slope`, the slopes of
    its terms of weight >= 1 and of weight in (0, 1), each a polynomial
    of its own, first added and then one by one; inf throughout where the
    side overflows."""
    side = {wv: sign * c for wv, c in den.terms() if sign * c > 0}
    try:
        value, _ = GeneralizedPolynomial(den.basis, side).value_and_slope(y)
    except EvalOverflowError:
        return [math.inf] * 4
    parts = [
        GeneralizedPolynomial(
            den.basis, {wv: c for wv, c in side.items() if keep(wv.value(den.basis))}
        ).value_and_slope(y)[1]
        for keep in (lambda e: e >= 1, lambda e: 0 < e < 1)
    ]
    return [value, parts[0] + parts[1], *parts]


class TestScanPass:
    @given(
        denominators() | factored_denominators(),
        st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, GRID_STEP, 0.5, 1.0]),
        st.sampled_from(_SCALES),
        st.sampled_from(_SCALES),
    )
    # P = 1 + c y + c y**2 overflows near y = 1, where D itself does not.
    @example(_unit_poly((0, 1), (1, 9 * 10**307), (3, -9 * 10**307), (2, 9 * 10**307)), 1.0, 1, 1)
    # A coefficient of N beyond floats; P stays finite.
    @example(_unit_poly((0, 1), (1, -(10**400)), (2, 3)), 0.5, 1, 1)
    # P's sum overflows at 1, its terms do not; N stays finite.
    @example(_unit_poly((0, 10**308), (1, 10**308), (2, -1)), 1.0, 1, 1)
    # Terms of weight 1/2, 1 and 3/2 on both sides.
    @example(
        GeneralizedPolynomial(
            BASIS,
            {
                WeightVector((0, 0)): 1,
                WeightVector((0, 1)): -3,
                WeightVector((1, 0)): 2,
                WeightVector((0, 3)): -1,
                WeightVector((1, 1)): 1,
            },
        ),
        0.7,
        1,
        1,
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_the_former_passes(self, den, y, pos_scale, neg_scale):
        # Bit for bit what the former scan took from separate passes over
        # P, N and the weight classes of each side, a side that overflows
        # reading inf on its own, and D as `evaluate` sums it, raising
        # where the walk uses it with `evaluate`'s error.
        den = GeneralizedPolynomial(
            den.basis, {wv: c * (pos_scale if c > 0 else neg_scale) for wv, c in den.terms()}
        )
        got = _PoleScan(den, DEFAULT_TOL)._bounds(y)
        p, n = _former_side_passes(den, 1, y), _former_side_passes(den, -1, y)
        expected = [entry for pair in zip(p, n) for entry in pair]
        event(f"P overflows: {p[0] == math.inf}, N overflows: {n[0] == math.inf}")
        assert [x.hex() for x in got[:8]] == [x.hex() for x in expected]
        try:
            d = den.evaluate(y)
        except EvalOverflowError as exc:
            with pytest.raises(EvalOverflowError) as raised:
                solver._d_value(got, y)
            assert str(raised.value) == str(exc)
        else:
            assert got[8].hex() == solver._d_value(got, y).hex() == d.hex()


class TestNewtonWindows:
    @given(growth_targets(), st.sampled_from(TOLERANCES))
    # y + y**2 + y**3 = 1, ex3's radius, and E = 2y, whose root 1/2 is the
    # first midpoint.
    @example((_unit_poly((1, 1), (2, 1), (3, 1)), 1.0), 1e-300)
    @example((_unit_poly((1, 2)), 1.0), 1e-300)
    @settings(max_examples=500, deadline=None)
    def test_characteristic_window_matches_bisection(self, growth_target, tol):
        # Root, enclosure and step count float.hex-identical to the former
        # loop, which evaluates every midpoint.
        p, target = growth_target
        assert _root_outcome(lambda: smallest_positive_root(p, target, tol=tol)) == (
            _root_outcome(lambda: reference_bisection_root(p, target, tol=tol))
        )

    @given(denominators() | factored_denominators(), st.sampled_from(TOLERANCES), st.data())
    @example(_unit_poly((0, 1), (1, -1), (2, -1), (3, -1)), 1e-300, None)
    @settings(max_examples=300, deadline=None)
    def test_pole_window_matches_bisection(self, den, tol, data):
        # The drained scan equals the full grid at every tolerance; then
        # each root is bisected again from a random wider bracket, which may
        # hold further roots, against the former loop.
        gf = RationalGF(GeneralizedPolynomial.one(den.basis), den)
        expected, _ = reference_bracket_denominator_roots(gf, tol=tol)
        got, _ = bracket_denominator_roots(gf, tol=tol)
        assert [_root_outcome(lambda: r) for r in got] == [
            _root_outcome(lambda: r) for r in expected
        ]
        scan = _PoleScan(den, tol)
        for cand in expected:
            if data is None:
                lo, hi = 0.5 * cand.low, 0.5 * (cand.high + 1.0)
            else:
                lo = data.draw(st.floats(min_value=0.0, max_value=cand.low))
                hi = data.draw(st.floats(min_value=cand.high, max_value=1.0))
            try:
                flo, fhi = den.evaluate(lo), den.evaluate(hi)
            except EvalOverflowError:
                continue
            if flo == 0.0 or fhi == 0.0 or (flo < 0.0) == (fhi < 0.0):
                continue
            ends = (scan._bounds(lo), scan._bounds(hi))
            assert _root_outcome(lambda: scan._bisect(lo, hi, flo, fhi, ends)) == (
                _root_outcome(lambda: reference_bisect_bracket(den, lo, hi, flo, tol))
            )

    @given(
        growth_targets(),
        st.sampled_from(TOLERANCES),
        placements(),
        placements(),
        st.booleans(),
    )
    # y**0.0732 = 1 at the root 1, where the rough pow steps back and forth
    # across the target; ends put 1 unit above the root.
    @example(
        (
            GeneralizedPolynomial(
                WeightBasis.from_mapping({"a0": 0.03659973472953002, "a1": 2.0}),
                {WeightVector((2, 0)): 1},
            ),
            1.0,
        ),
        1e-300,
        (None, 1),
        (None, 1),
        True,
    )
    # Three terms near y = 0.5: ends put 1 unit below the root.
    @example(
        (
            GeneralizedPolynomial(
                WeightBasis.from_mapping({"a0": 0.5, "a1": 1.977033793270383}),
                {WeightVector((0, 3)): 5, WeightVector((1, 0)): 6, WeightVector((3, 1)): 7},
            ),
            4.0,
        ),
        1e-300,
        (None, -1),
        (None, -1),
        True,
    )
    @settings(max_examples=400, deadline=None)
    def test_characteristic_certificate_wherever_the_ends_go(
        self, growth_target, tol, pa, pb, rough
    ):
        # The certificate alone must keep the former answer: window ends
        # put anywhere, on either side of the root or right at it, are
        # accepted only where every midpoint beyond them would evaluate
        # as the former loop saw it. A correctly rounded pow makes the
        # float value of a nonnegative polynomial nondecreasing, so the
        # rough pow below, off by up to 1.5 ulp and not monotone, is what
        # shows the certificate's margin at work.
        p, target = growth_target
        with _rough_passes(rough):
            expected = _root_outcome(lambda: reference_bisection_root(p, target, tol=tol))
            assume(not isinstance(expected, str))
            root = float.fromhex(expected[0])
            ends = (_placed(pa, root, 0.0, 2.0 * root), _placed(pb, root, 0.0, 2.0 * root))
            with mock.patch.object(solver, "_characteristic_ends", lambda *args: ends):
                got = _root_outcome(lambda: smallest_positive_root(p, target, tol=tol))
        assert got == expected

    @given(
        denominators() | factored_denominators(),
        st.sampled_from(TOLERANCES),
        st.data(),
        st.just(None),
        st.booleans(),
    )
    # Roots 0.3, 0.6 and 0.8: bisecting [0.1, 0.9] meets D < 0 at 0.5 and
    # heads for 0.3, while D > 0 at 0.7, where the example puts the ends.
    @example(
        _unit_poly((0, 3), (1, -10)) * _unit_poly((0, 6), (1, -10)) * _unit_poly((0, 8), (1, -10)),
        1e-300,
        None,
        ((0.1, 0.9), (0.75, 0)),
        False,
    )
    # An ill-conditioned root near 0.63: D's sign there flips with rounding
    # over units in the last place, so both ends put 2 units above the
    # root clear zero on one side, but not by the rounding bound.
    @example(
        GeneralizedPolynomial(
            WeightBasis.from_mapping({"u": 0.5}),
            {
                WeightVector((0,)): 6293100,
                WeightVector((1,)): -17899200,
                WeightVector((3,)): -55169510,
                WeightVector((4,)): 156916320,
                WeightVector((6,)): 134084984,
                WeightVector((7,)): -381372288,
                WeightVector((9,)): -97836728,
                WeightVector((10,)): 278272896,
            },
        ),
        1e-300,
        None,
        (None, (None, 2)),
        False,
    )
    # 3 - 7y**2, whose float value a correctly rounded pow keeps monotone:
    # only the rough pow makes D at an end 1 unit below the root take the
    # sign beyond it, which then clears zero but not the rounding bound.
    @example(_unit_poly((0, 3), (2, -7)), 1e-300, None, (None, (None, -1)), True)
    # Roots 0.840896... and 0.845530...: both ends put 33 * 2**40 units
    # above the first root lie past the second and past the grid bracket
    # [0.840, 0.841], where D has lo's sign again. An end outside the
    # bracket is certified by nothing.
    @example(
        _unit_poly(
            (0, 20700), (2, -8625), (4, -81325), (6, 34125), (8, 78725), (10, -33750), (12, 2250)
        ),
        1e-300,
        None,
        (None, (None, 33 << 40)),
        False,
    )
    @settings(max_examples=400, deadline=None)
    def test_pole_certificates_wherever_the_ends_go(self, den, tol, data, fixed, rough):
        # As above for pole brackets, each root's grid bracket and a wider
        # one that may hold further roots, three placements each: a window
        # end counts only where D is monotone on the bracket and clears
        # the rounding bound. An explicit example fixes the wider bracket
        # and the placement of both ends. With `rough`, D's evaluations and
        # the scan's own pass at the bracket ends, whose slopes show D
        # monotone, all take the rough pow.
        gf = RationalGF(GeneralizedPolynomial.one(den.basis), den)
        with _rough_passes(rough) as point:
            expected, _ = reference_bracket_denominator_roots(gf, tol=tol)
            scan = _PoleScan(den, tol)
            for cand in expected:
                j = math.ceil(cand.high / GRID_STEP)
                brackets = [((j - 1) * GRID_STEP, min(j * GRID_STEP, Y_MAX))]
                if fixed is not None:
                    brackets.append(fixed[0] or brackets[0])
                else:
                    brackets.append(
                        (
                            data.draw(st.floats(min_value=0.0, max_value=cand.low)),
                            data.draw(st.floats(min_value=cand.high, max_value=1.0)),
                        )
                    )
                for lo, hi in brackets:
                    try:
                        flo, fhi = den.evaluate(lo), den.evaluate(hi)
                    except EvalOverflowError:
                        continue
                    if flo == 0.0 or fhi == 0.0 or (flo < 0.0) == (fhi < 0.0):
                        continue
                    ref = reference_bisect_bracket(den, lo, hi, flo, tol)
                    bounds = (scan._bounds(point(lo)), scan._bounds(point(hi)))
                    for _ in range(3):
                        if fixed is not None:
                            picks = (fixed[1], fixed[1])
                        else:
                            picks = (data.draw(placements()), data.draw(placements()))
                        ends = tuple(_placed(pick, ref.root, lo, hi) for pick in picks)
                        with mock.patch.object(_PoleScan, "_newton_ends", lambda *args: ends):
                            got = _root_outcome(lambda: scan._bisect(lo, hi, flo, fhi, bounds))
                        assert got == _root_outcome(lambda: ref)

    @pytest.mark.parametrize("tol", TOLERANCES)
    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in CHANNELS_DIR.glob("*.json") if p.name != "dense-weights.json"),
    )
    def test_shipped_channels(self, name, tol):
        gf = build_gf(load_channel(name))
        growth = characteristic_part(gf.denominator)
        if growth:
            d0 = float(gf.denominator.constant_coefficient)
            assert _root_outcome(lambda: smallest_positive_root(growth, d0, tol=tol)) == (
                _root_outcome(lambda: reference_bisection_root(growth, d0, tol=tol))
            )
        got, _ = bracket_denominator_roots(gf, tol=tol)
        expected, _ = reference_bracket_denominator_roots(gf, tol=tol)
        assert got == expected


class TestRemovability:
    @given(
        denominators().map(lambda num: RationalGF(num, GeneralizedPolynomial.one(num.basis))),
        st.floats(min_value=0.0, max_value=2.0) | st.sampled_from([0.5, 1.0, 1e300]),
    )
    @example(RationalGF(_unit_poly((0, 1), (1, -1)), _unit_poly((0, 1))), 1.0)
    # A coefficient too large for a float.
    @example(RationalGF(_unit_poly((0, 1), (1, -(10**400))), _unit_poly((0, 1))), 0.5)
    @settings(max_examples=300)
    def test_one_pass_verdict_equals_the_former_two(self, gf, y0):
        # The same verdict from the same floats. Where the former check let
        # a bare OverflowError out of its first sum, the one pass raises
        # EvalOverflowError, as `evaluate` does.
        try:
            expected = reference_is_removable(gf, y0)
        except (OverflowError, EvalOverflowError):
            with pytest.raises(EvalOverflowError):
                solver._is_removable(gf, y0)
            return
        assert solver._is_removable(gf, y0) == expected


class TestFloatCoefficients:
    @given(points_and_polynomials(), st.sampled_from([1, 1, 10**305, 10**307, 10**400]))
    # Coefficients beyond floats at y = 0, where their terms are inf * 0.
    @example((0.0, _unit_poly((0, 1), (1, 10**400))), 1)
    @example((0.0, _unit_poly((0, 1), (1, -(10**400)), (2, 10**400))), 1)
    @settings(max_examples=300, deadline=None)
    def test_float_view_is_the_int_coefficient_passes(self, case, scale):
        # Each float coefficient is float(c), or inf of c's sign beyond
        # floats; evaluate, value_and_slope and the removability check
        # give the floats of the passes that multiply the int coefficient,
        # bit for bit, or the same EvalOverflowError text.
        y, p = case
        p = GeneralizedPolynomial(p.basis, {wv: c * scale for wv, c in p.terms()})
        for (_, f), (_, c) in zip(p.float_terms(), p.terms()):
            # From 2**1024 - 2**970 on, an int rounds past the largest float.
            beyond = abs(c) >= 2**1024 - 2**970
            expected = (math.inf if c > 0 else -math.inf) if beyond else float(c)
            assert type(f) is float and f.hex() == expected.hex()
        gf = RationalGF(p, GeneralizedPolynomial.one(p.basis))
        for got, expected in (
            (GeneralizedPolynomial.evaluate, reference_evaluate),
            (GeneralizedPolynomial.value_and_slope, reference_value_and_slope),
            (lambda p, y: solver._is_removable(gf, y), lambda p, y: reference_is_removable(gf, y)),
        ):
            assert _bitwise(got, p, y) == _bitwise(expected, p, y)

    @pytest.mark.parametrize("y", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_beyond_floats_raises_as_before(self, y, sign):
        # The former passes raised converting the int; the float view
        # reads inf and raises the same EvalOverflowError after the sum.
        p = _unit_poly((0, 1), (1, sign * 10**400))
        gf = RationalGF(p, GeneralizedPolynomial.one(UNIT))
        with pytest.raises(EvalOverflowError) as expected:
            reference_evaluate(p, y)
        for call in (p.evaluate, p.value_and_slope, lambda y: solver._is_removable(gf, y)):
            with pytest.raises(EvalOverflowError) as got:
                call(y)
            assert str(got.value) == str(expected.value)


def _bitwise(evaluate, p, y):
    """What evaluate(p, y) gives, floats as float.hex, or the error text. A
    bare OverflowError, which the two-pass removability check lets out of
    its first sum, reads as the error its one pass raised over the ints."""
    try:
        got = evaluate(p, y)
    except EvalOverflowError as exc:
        return str(exc)
    except OverflowError:
        return f"overflow evaluating polynomial at y={y!r}"
    if isinstance(got, bool):
        return got
    return [x.hex() for x in got] if isinstance(got, tuple) else got.hex()


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
    """The report's fields, floats as float.hex, or the error text. The
    pole route's iterations count passes, which the Newton windows and the
    aimed scan cut, so they are left out of the comparison."""
    try:
        r = solve()
    except DncError as exc:
        return f"{type(exc).__name__}: {exc}"
    hexed = [float.hex(x) for x in (r.radius_or_pole, r.capacity_nats, r.error_bound)]
    iterations = None if r.method == "smallest-pole" else r.iterations
    return r.method, *hexed, iterations, r.note


class TestSpecDensityBound:
    @given(valid_documents(), st.floats(min_value=1.0, max_value=6.0))
    @settings(max_examples=100, deadline=None)
    def test_enumerated_weights_stay_under_the_reported_bound(
        self, tmp_path_factory, doc, cutoff
    ):
        # check-density reports k symbols of least weight w for a spec;
        # the exact weight classes below n that the enumeration finds
        # number at most C(floor(n / w) + k, k).
        path = tmp_path_factory.getbasetemp() / "density-spec.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["check-density", str(path), "--json"]) == 0
        report = json.loads(out.getvalue())
        assert report["exponential_flag"] is False
        k, w_min = report["symbols"], report["min_weight"]
        values = enumerate_by_weight(load_spec(path), cutoff).values()
        for n in [*range(1, math.floor(cutoff) + 1), cutoff]:
            below = sum(1 for v in values if v < n)
            assert below <= math.comb(math.floor(n / w_min) + k, k)


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
    # Four overlapping forbidden patterns: a cluster quotient of a 5 x 5
    # determinant whose products merge and cancel terms.
    @example(
        '{"atoms": {"unit": 1.0, "pi": 3.141592653589793}, '
        '"symbols": [{"name": "0", "weight": {"unit": 1}}, {"name": "1", "weight": {"pi": 1}}], '
        '"constraint": {"type": "forbidden", "patterns": ["101", "0110", "1001", "000"]}}'
    )
    # Nested stars and unions, over three symbols of mixed weights.
    @example(
        '{"atoms": {"unit": 1.0, "r2": 1.4142135623730951}, '
        '"symbols": [{"name": "0", "weight": {"unit": 1}}, {"name": "1", "weight": {"r2": 1}}, '
        '{"name": "2", "weight": {"unit": 1, "r2": 1}}], '
        '"constraint": {"type": "regex", "expr": "(0(1|20*)*|2(1|0)*)*1*", "unambiguous": true}}'
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


# --- one atom from 1e-300 to 1e300 ------------------------------------------------


@st.composite
def single_atom_documents(draw):
    """A document of `valid_documents` moved onto one atom of value 1e-300
    to 1e300, each symbol weighing its multiplicities' sum of that atom."""
    doc = draw(valid_documents())
    u = draw(
        st.sampled_from([1e-300, 1e-150, 1e-100, 1e-20, 1e300])
        | st.floats(min_value=-300.0, max_value=300.0).map(lambda k: 10.0**k)
    )
    doc["atoms"] = {"u": u}
    for symbol in doc["symbols"]:
        symbol["weight"] = {"u": sum(symbol["weight"].values())}
    return doc


class TestExtremeAtoms:
    @given(single_atom_documents())
    # Two symbols of weight 1e-150: the first Newton step's cube passes
    # the float range.
    @example({
        "atoms": {"u": 1e-150},
        "symbols": [{"name": n, "weight": {"u": 1}} for n in "01"],
        "constraint": {"type": "free"},
    })
    # One symbol of weight 1e-20: E(1) = 1 = d0 at once, and the window's
    # upper end, e**(2 margin / 1e-20), passes the float range.
    @example({
        "atoms": {"u": 1e-20},
        "symbols": [{"name": "0", "weight": {"u": 1}}],
        "constraint": {"type": "free"},
    })
    @settings(max_examples=200, deadline=None)
    def test_every_route_answers_or_refuses(self, tmp_path_factory, doc):
        # The characteristic route, the pole scan and `dnc capacity` by
        # each analytic method end in a report or a DncError, never in
        # another exception: a Newton step or a window end beyond the
        # float range places no window.
        path = tmp_path_factory.getbasetemp() / "single-atom.json"
        path.write_text(json.dumps(doc, ensure_ascii=False))
        try:
            gf = build_gf(parse_spec(path.read_text()))
        except DncError as exc:
            event(f"build: {type(exc).__name__}")
        else:
            for solve in (solver.capacity_from_characteristic, solver.smallest_positive_pole):
                try:
                    outcome = type(solve(gf)).__name__
                except DncError as exc:
                    outcome = type(exc).__name__
                event(f"{solve.__name__}: {outcome}")
        for extra in ([], ["--method", "characteristic"], ["--method", "pole"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["capacity", str(path), "--json", *extra])
            if code == 0:
                json.loads(stdout.getvalue())
            else:
                assert code in (1, 2) and stderr.getvalue().startswith("error: ")

    @given(single_atom_documents(), st.integers(-2100, 2100))
    # One symbol of weight 1e-300: D = 1 - y**1e-300 evaluates to exactly 0
    # at the first grid point, which the scan reports as a root.
    @example(
        {
            "atoms": {"u": 1e-300},
            "symbols": [{"name": "0", "weight": {"u": 1}}],
            "constraint": {"type": "free"},
        },
        1,
    )
    @settings(max_examples=200, deadline=None)
    def test_capacity_scales_with_the_atom(self, doc, j):
        # Every weight times 2**j divides the capacity by 2**j. With the
        # atom kept a normal float (j clamped to where it is), 2**j
        # C(atom 2**j) and C(atom) agree within the sum of their bounds,
        # scaled alike, on both routes, exactly in rationals. A pole
        # bracket closed where D evaluates to exactly 0 has bound 0
        # however far the true root lies: such an answer is checked
        # against that rule alone.
        u = doc["atoms"]["u"]
        exponent = math.frexp(u)[1]
        j = min(max(j, -1021 - exponent), 1024 - exponent)
        try:
            gfs = [
                build_gf(parse_spec(json.dumps({**doc, "atoms": {"u": atom}})))
                for atom in (u, math.ldexp(u, j))
            ]
        except DncError as exc:
            event(f"build: {type(exc).__name__}")
            return
        for solve in (solver.capacity_from_characteristic, solver.smallest_positive_pole):
            reports = []
            for gf in gfs:
                try:
                    reports.append(solve(gf))
                except DncError as exc:
                    event(f"{solve.__name__}: {type(exc).__name__}")
            if len(reports) < 2:
                continue
            zeros = [r.error_bound == 0.0 and r.radius_or_pole < math.inf for r in reports]
            for zero, report, gf in zip(zeros, reports, gfs):
                if zero:
                    event("a float zero of D")
                    assert gf.denominator.evaluate(report.radius_or_pole) == 0.0
            if any(zeros) or not all(math.isfinite(r.error_bound) for r in reports):
                continue
            at_u, scaled = reports
            scale = Fraction(2) ** j
            gap = abs(Fraction(scaled.capacity_nats) * scale - Fraction(at_u.capacity_nats))
            assert gap <= Fraction(scaled.error_bound) * scale + Fraction(at_u.error_bound)

    @pytest.mark.parametrize("solve", ["capacity_from_characteristic", "smallest_positive_pole"])
    @pytest.mark.parametrize("u", [1e-100, 1e-300, 1e-308])
    @pytest.mark.parametrize("idle", [None, 1e300])
    def test_two_tiny_symbols_answer_ln_2_over_u(self, solve, u, idle):
        # The radius 2**(-1/u) is 0 in floats; the copy with every weight
        # times 2**k is solved instead. Its answer, times 2**k, holds the
        # exact capacity ln(2) / u within a finite bound. An atom that no
        # symbol uses, however large, does not stop the rescale.
        report = getattr(solver, solve)(_two_free_symbols(u, idle))
        assert report.radius_or_pole == 0.0 and "2**" in report.note
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(2).ln() / Decimal(u)
            assert abs(Decimal(report.capacity_nats) - exact) <= Decimal(report.error_bound)

    @pytest.mark.parametrize("method", ["characteristic", "pole"])
    @pytest.mark.parametrize("u", [3.8e-309, 1e-320, 5e-324])
    def test_capacity_past_the_float_range_is_refused(self, tmp_path, method, u):
        # Below about 3.9e-309, ln(2) / u passes the largest float: an
        # error with a message, not a capacity of inf.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "atoms": {"u": u},
            "symbols": [{"name": n, "weight": {"u": 1}} for n in "01"],
            "constraint": {"type": "free"},
        }))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["capacity", str(path), "--json", "--method", method])
        assert (code, stdout.getvalue()) == (2, "")
        assert stderr.getvalue().startswith("error: capacity ")
        assert stderr.getvalue().rstrip().endswith(" overflows a float")


def _two_free_symbols(u, idle=None):
    """The quotient 1 / (1 - 2 y**u) of two free symbols of weight u, over
    a basis with a second atom of value `idle` that no term uses, if given."""
    atoms = {"u": u} if idle is None else {"u": u, "idle": idle}
    basis = WeightBasis.from_mapping(atoms)
    zero, one = (0,) * len(atoms), (1,) + (0,) * (len(atoms) - 1)
    return RationalGF(
        GeneralizedPolynomial.one(basis),
        GeneralizedPolynomial(basis, {WeightVector(zero): 1, WeightVector(one): -2}),
    )
