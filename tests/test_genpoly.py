"""Exact polynomial arithmetic and series extraction."""

from __future__ import annotations

import math
import operator
import pickle
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from dnccap import (
    BasisMismatchError,
    CoefficientSeries,
    EvalOverflowError,
    ExpansionError,
    GeneralizedPolynomial,
    RationalGF,
    ResourceLimitError,
    WeightAtom,
    WeightBasis,
    WeightVector,
    build_gf,
    enumerate_channel,
    expand_series,
)
from dnccap import genpoly, oracle

from corpus import (
    SHIPPED_CUTOFFS,
    ReferenceWeightVector,
    load_channel,
    reference_tuple_expand_series,
)

UNIT = WeightBasis.from_mapping({"unit": 1.0})
MIXED = WeightBasis.from_mapping({"unit": 1.0, "pi": math.pi})
HALVES = WeightBasis.from_mapping({"unit": 1.0, "half": 0.5})


def poly(basis: WeightBasis, terms: dict[tuple, int]) -> GeneralizedPolynomial:
    return GeneralizedPolynomial(basis, {WeightVector(k): v for k, v in terms.items()})


class IntSubclass(int):
    """An int subclass: accepted as a multiplicity, like int itself."""


# Valid, negative, bool, float and int-subclass multiplicities.
MULTIPLICITY = st.one_of(
    st.integers(0, 10**6),
    st.integers(-3, -1),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-2.0, max_value=2.0),
    st.integers(0, 5).map(IntSubclass),
)
ATOM_NAMES = ("unit", "pi", "r2", "half")
ATOM_VALUES = (1.0, math.pi, math.sqrt(2.0), 0.5)


def _build(cls, mults):
    """The vector, or the message that refused it."""
    try:
        return cls(tuple(mults))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _add(a, b):
    try:
        return a + b
    except BasisMismatchError as exc:
        return f"BasisMismatchError: {exc}"


def _outcome(result):
    return result if isinstance(result, str) else "accepted"


class TestWeightVector:
    def test_value_is_dot_product(self):
        assert WeightVector((2, 1)).value(MIXED) == 2.0 + math.pi

    def test_zero_vector_value_is_the_integer_zero(self):
        value = WeightVector((0, 0)).value(MIXED)
        assert value == 0 and type(value) is int

    def test_add_is_componentwise(self):
        assert WeightVector((1, 0)) + WeightVector((0, 2)) == WeightVector((1, 2))

    def test_scaled(self):
        assert WeightVector((1, 2)).scaled(3) == WeightVector((3, 6))

    def test_equal_values_distinct_vectors(self):
        two_halves = WeightVector((0, 2))
        one_unit = WeightVector((1, 0))
        assert two_halves.value(HALVES) == one_unit.value(HALVES) == 1.0
        assert two_halves != one_unit

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(ValueError):
            WeightVector((1, -1))

    def test_rejects_non_integer_multiplicity(self):
        with pytest.raises(ValueError):
            WeightVector((1.5,))

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            WeightVector((1,)).value(MIXED)

    def test_equals_the_plain_tuple(self):
        wv = WeightVector((2, 1))
        assert wv == (2, 1) and hash(wv) == hash((2, 1))
        assert wv.mults is wv
        assert repr(wv) == "WeightVector(mults=(2, 1))"

    @pytest.mark.parametrize(
        "repeat",
        [lambda wv: wv * 2, lambda wv: 2 * wv, lambda wv: wv * wv, lambda wv: wv * True],
        ids=["wv*2", "2*wv", "wv*wv", "wv*True"],
    )
    def test_tuple_repetition_is_refused(self, repeat):
        with pytest.raises(TypeError):
            repeat(WeightVector((1, 2)))

    @pytest.mark.parametrize(
        "concatenate",
        [lambda wv: wv + (3, 4), lambda wv: (3, 4) + wv, lambda wv: wv + 1],
        ids=["wv+tuple", "tuple+wv", "wv+int"],
    )
    def test_only_vectors_add(self, concatenate):
        with pytest.raises(TypeError):
            concatenate(WeightVector((1, 2)))

    def test_in_place_repetition_is_refused(self):
        wv = WeightVector((1, 2))
        with pytest.raises(TypeError):
            wv *= 3
        assert wv == WeightVector((1, 2))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(MULTIPLICITY, max_size=4), st.lists(MULTIPLICITY, max_size=4))
    @example([1, 2], [0, 3])
    @example([IntSubclass(2), 0], [1, IntSubclass(1)])
    @example([True], [1])
    @example([-1, 2.0], [])
    def test_matches_the_former_dataclass(self, a, b):
        new_a, old_a = _build(WeightVector, a), _build(ReferenceWeightVector, a)
        new_b, old_b = _build(WeightVector, b), _build(ReferenceWeightVector, b)
        assert _outcome(new_a) == _outcome(old_a)
        assert _outcome(new_b) == _outcome(old_b)
        if isinstance(new_a, str):
            return
        assert type(new_a) is WeightVector and new_a.mults == old_a.mults
        assert repr(new_a) == repr(old_a).removeprefix("Reference")
        assert new_a.is_zero() == old_a.is_zero()
        basis = WeightBasis.from_mapping(dict(zip(ATOM_NAMES, ATOM_VALUES[: len(a)])))
        new_v, old_v = new_a.value(basis), old_a.value(basis)
        assert (type(new_v), repr(new_v)) == (type(old_v), repr(old_v))
        assert new_a.as_mapping(basis) == old_a.as_mapping(basis)
        loaded = pickle.loads(pickle.dumps(new_a))
        assert type(loaded) is WeightVector and loaded == new_a
        assert hash(loaded) == hash(new_a)
        if isinstance(new_b, str):
            return
        assert (new_a == new_b) == (old_a == old_b)
        if new_a == new_b:
            assert hash(new_a) == hash(new_b)
        new_sum, old_sum = _add(new_a, new_b), _add(old_a, old_b)
        assert _outcome(new_sum) == _outcome(old_sum)
        if not isinstance(new_sum, str):
            assert type(new_sum) is WeightVector and new_sum.mults == old_sum.mults

    def test_atom_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightAtom("bad", 0.0)
        with pytest.raises(ValueError):
            WeightAtom("bad", -1.0)


class TestArithmetic:
    def test_add_merges_equal_vectors(self):
        p = poly(UNIT, {(1,): 2}) + poly(UNIT, {(1,): 3, (0,): 1})
        assert p == poly(UNIT, {(1,): 5, (0,): 1})

    def test_add_does_not_merge_equal_values(self):
        # one unit and two halves have the same numeric weight but stay apart
        p = poly(HALVES, {(1, 0): 1}) + poly(HALVES, {(0, 2): 1})
        assert len(p) == 2

    def test_mul_adds_exponent_vectors(self):
        p = poly(MIXED, {(1, 0): 1}) * poly(MIXED, {(0, 1): 1})
        assert p == poly(MIXED, {(1, 1): 1})

    def test_mul_merges_cross_terms(self):
        # (1 + y)**2 = 1 + 2y + y**2
        p = poly(UNIT, {(0,): 1, (1,): 1})
        assert p * p == poly(UNIT, {(0,): 1, (1,): 2, (2,): 1})

    def test_scalar_multiple(self):
        assert 3 * poly(UNIT, {(1,): 2}) == poly(UNIT, {(1,): 6})

    def test_zero_coefficients_drop(self):
        p = poly(UNIT, {(1,): 2, (0,): 1})
        assert not (p - p)
        assert len(p - p) == 0

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            poly(UNIT, {(1,): 1}) + poly(MIXED, {(1, 0): 1})

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(ValueError):
            GeneralizedPolynomial(UNIT, {WeightVector((1,)): 1.5})

    @pytest.mark.parametrize("one", [
        GeneralizedPolynomial.one(MIXED),
        # An equal basis that is another object.
        GeneralizedPolynomial.one(WeightBasis.from_mapping({"unit": 1.0, "pi": math.pi})),
    ])
    def test_product_by_one_keeps_the_terms_and_their_order(self, one):
        p = poly(MIXED, {(2, 0): 3, (0, 0): -1, (1, 1): 2, (0, 3): -5})
        for product in (p * one, one * p):
            assert list(product.terms()) == list(p.terms())
            assert product.float_terms() == p.float_terms()
        assert list((one * one).terms()) == [(WeightVector((0, 0)), 1)]

    @pytest.mark.parametrize("c", [2, -1])
    def test_other_constants_multiply_every_term(self, c):
        p = poly(UNIT, {(2,): 3, (1,): -1})
        constant = GeneralizedPolynomial.constant(UNIT, c)
        expected = [(WeightVector((2,)), 3 * c), (WeightVector((1,)), -c)]
        assert list((p * constant).terms()) == expected

    def test_one_term_factor_shifts_and_scales_on_each_side(self):
        # term_product's one-term branch, with a factor that is not the
        # constant 1: -3 y^(1 unit + 1 pi) against signed terms, on each
        # side, equal term for term and in order to the nested product.
        single = {WeightVector((1, 1)): -3}
        other = {
            WeightVector((2, 0)): 5,
            WeightVector((0, 0)): -1,
            WeightVector((0, 3)): -7,
            WeightVector((1, 2)): 2,
        }
        for a, b in ((single, other), (other, single)):
            expected = [
                (WeightVector((wa[0] + wb[0], wa[1] + wb[1])), ca * cb)
                for wa, ca in a.items()
                for wb, cb in b.items()
            ]
            assert list(genpoly.term_product(a, b).items()) == expected
            product = GeneralizedPolynomial(MIXED, a) * GeneralizedPolynomial(MIXED, b)
            assert list(product.terms()) == expected

    @pytest.mark.parametrize("other", [
        GeneralizedPolynomial.one(MIXED),
        poly(MIXED, {(1, 0): 1}),
    ])
    def test_products_across_bases_raise(self, other):
        one = GeneralizedPolynomial.one(UNIT)
        with pytest.raises(BasisMismatchError):
            one * other
        with pytest.raises(BasisMismatchError):
            other * one

    def test_any_mapping_or_pair_iterable_builds_the_same_polynomial(self):
        terms = {WeightVector((0,)): 1, WeightVector((2,)): -3}
        expected = GeneralizedPolynomial(UNIT, terms)
        for given in (MappingProxyType(terms), Counter(terms), list(terms.items())):
            assert GeneralizedPolynomial(UNIT, given) == expected


class TestEvaluate:
    def test_zero_to_the_zero_is_one(self):
        assert poly(UNIT, {(0,): 3}).evaluate(0.0) == 3.0

    def test_matches_float_powers(self):
        p = poly(MIXED, {(0, 0): 1, (1, 0): -1, (1, 1): -1})
        y = 0.7
        assert p.evaluate(y) == pytest.approx(1 - y - y ** (1 + math.pi))

    def test_small_residual_at_quoted_root(self):
        p = poly(MIXED, {(0, 0): 1, (1, 0): -1, (1, 1): -1})
        assert abs(p.evaluate(0.72937)) < 1e-4

    def test_rejects_negative_point(self):
        with pytest.raises(ValueError):
            poly(UNIT, {(1,): 1}).evaluate(-0.5)

    def test_overflow_is_reported(self):
        p = poly(UNIT, {(3,): 1})
        with pytest.raises(EvalOverflowError):
            p.evaluate(1e200)

    def test_float_terms_are_cached_in_term_order(self):
        p = poly(MIXED, {(0, 0): 1, (1, 0): -1, (1, 1): -2})
        pairs = p.float_terms()
        assert pairs == tuple((wv.value(MIXED), c) for wv, c in p.terms())
        assert p.float_terms() is pairs
        p.evaluate(0.5)
        assert p.float_terms() is pairs


def brute_force_avoid_11(max_len: int) -> list[int]:
    """Counts by length of binary strings without '11', by direct search."""
    counts = []
    for n in range(max_len + 1):
        total = 0
        for bits in range(2**n):
            s = format(bits, f"0{n}b") if n else ""
            if "11" not in s:
                total += 1
        counts.append(total)
    return counts


class TestExpandSeries:
    def test_geometric(self):
        gf = RationalGF(poly(UNIT, {(0,): 1}), poly(UNIT, {(0,): 1, (1,): -1}))
        series = expand_series(gf, 3.0)
        assert series.counts() == [1, 1, 1, 1]
        assert series.values() == [0.0, 1.0, 2.0, 3.0]

    def test_avoid_11_counts_match_brute_force(self):
        gf = RationalGF(
            poly(UNIT, {(0,): 1, (1,): 1}),
            poly(UNIT, {(0,): 1, (1,): -1, (2,): -1}),
        )
        series = expand_series(gf, 5.0)
        assert series.counts() == [1, 2, 3, 5, 8, 13]
        assert series.counts() == brute_force_avoid_11(5)

    def test_tribonacci(self):
        gf = RationalGF(
            poly(UNIT, {(0,): 1, (1,): 1, (2,): 1}),
            poly(UNIT, {(0,): 1, (1,): -1, (2,): -1, (3,): -1}),
        )
        assert expand_series(gf, 8.0).counts() == [1, 2, 4, 7, 13, 24, 44, 81, 149]

    def test_mixed_weights_exact_entries(self):
        gf = RationalGF(
            poly(MIXED, {(0, 0): 1, (0, 1): 1}),
            poly(MIXED, {(0, 0): 1, (1, 0): -1, (1, 1): -1}),
        )
        series = expand_series(gf, 1 + math.pi)
        assert [(wv.mults, c) for wv, c in series.entries] == [
            ((0, 0), 1),
            ((1, 0), 1),
            ((2, 0), 1),
            ((3, 0), 1),
            ((0, 1), 1),
            ((4, 0), 1),
            ((1, 1), 2),
        ]
        assert series.values()[4] == pytest.approx(math.pi)

    def test_numerically_tied_weights_stay_separate(self):
        gf = RationalGF(
            poly(HALVES, {(0, 0): 1}),
            poly(HALVES, {(0, 0): 1, (1, 0): -1, (0, 1): -1}),
        )
        series = expand_series(gf, 1.0)
        entries = {wv.mults: c for wv, c in series.entries}
        assert entries == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (0, 2): 1}

    def test_denominator_constant_scaling_uses_fractions(self):
        gf = RationalGF(poly(UNIT, {(0,): 2}), poly(UNIT, {(0,): 2, (1,): -2}))
        assert expand_series(gf, 3.0).counts() == [1, 1, 1, 1]

    def test_non_integral_counts_rejected(self):
        gf = RationalGF(poly(UNIT, {(0,): 1}), poly(UNIT, {(0,): 2, (1,): -2}))
        with pytest.raises(ExpansionError, match="non-integral"):
            expand_series(gf, 3.0)

    def test_negative_counts_rejected(self):
        gf = RationalGF(poly(UNIT, {(0,): 1}), poly(UNIT, {(0,): 1, (1,): 1}))
        with pytest.raises(ExpansionError, match="negative"):
            expand_series(gf, 3.0)

    def test_zero_denominator_constant_rejected(self):
        with pytest.raises(ExpansionError):
            RationalGF(poly(UNIT, {(0,): 1}), poly(UNIT, {(1,): 1}))

    def test_negative_denominator_constant_normalizes(self):
        gf = RationalGF(poly(UNIT, {(0,): -1}), poly(UNIT, {(0,): -1, (1,): 1}))
        assert gf.denominator.constant_coefficient == 1
        assert expand_series(gf, 3.0).counts() == [1, 1, 1, 1]

    def test_term_limit(self, monkeypatch):
        monkeypatch.setattr(genpoly, "TERM_LIMIT", 10)
        gf = RationalGF(poly(UNIT, {(0,): 1}), poly(UNIT, {(0,): 1, (1,): -1}))
        with pytest.raises(ResourceLimitError):
            expand_series(gf, 100.0)

    def test_cutoff_validation(self):
        gf = RationalGF(poly(UNIT, {(0,): 1}), poly(UNIT, {(0,): 1, (1,): -1}))
        with pytest.raises(ValueError):
            expand_series(gf, -1.0)
        with pytest.raises(ValueError):
            expand_series(gf, math.inf)

    def test_polynomial_numerator_only(self):
        gf = RationalGF(poly(UNIT, {(0,): 1, (2,): 3}), poly(UNIT, {(0,): 1}))
        series = expand_series(gf, 10.0)
        assert [(wv.mults, c) for wv, c in series.entries] == [((0,), 1), ((2,), 3)]

    def test_cancelled_classes_are_dropped(self):
        # (1 - y) / (1 - y - y^2): the count at weight 1 cancels to zero
        # and is left out, while weight 2 onward follows Fibonacci.
        gf = RationalGF(
            poly(UNIT, {(0,): 1, (1,): -1}),
            poly(UNIT, {(0,): 1, (1,): -1, (2,): -1}),
        )
        series = expand_series(gf, 5.0)
        assert [(wv.mults, c) for wv, c in series.entries] == [
            ((0,), 1), ((2,), 1), ((3,), 1), ((4,), 2), ((5,), 3)
        ]


def _free_gf(values, weights) -> RationalGF:
    """1 / (1 - sum of y**w) over atoms a0, a1, ... of the given values."""
    basis = WeightBasis.from_mapping({f"a{i}": v for i, v in enumerate(values)})
    zero = WeightVector((0,) * len(values))
    den = GeneralizedPolynomial(basis, [(zero, 1)] + [(WeightVector(w), -1) for w in weights])
    return RationalGF(GeneralizedPolynomial.one(basis), den)


def _series_outcome(expand, gf, cutoff):
    """Entries and float bits of the series, or the error's type and text."""
    try:
        series = expand(gf, cutoff)
    except (ExpansionError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return series.entries, _bits(series.values())


# (atom values, symbol weights, cutoff, term limit or None). Atoms at both
# ends of the float range, whose cutoff bound 2 * cutoff / value is
# infinite for 5e-324 at cutoff 1 and for 1e308 at cutoff 1e308; cutoff 0;
# a huge cutoff stopped by the term limit; a step of one 10**300 digit;
# bases of 1, 2 and 4 atoms.
RADIX_CASES = {
    "tiny-atom": ((5e-324,), [(1,), (2,)], 1e-322, None),
    "tiny-atom-inf-bound": ((5e-324,), [(1,), (3,)], 1.0, 200),
    "huge-atom": ((1e308,), [(1,)], 1e308, None),
    "cutoff-0": ((1.0, math.pi), [(1, 0), (0, 1)], 0.0, None),
    "huge-cutoff": ((1.0,), [(1,), (2,)], 1e300, 300),
    "large-digit": ((1.0, 1e-300), [(1, 0), (0, 10**300)], 12.0, None),
    "two-atoms": ((1.0, math.pi), [(1, 0), (0, 1), (1, 1)], 12.0, None),
    "four-atoms": (
        (1.0, 0.5, math.pi, math.sqrt(2.0)),
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 3, 0, 1)],
        7.0,
        None,
    ),
}


class TestPackedKeys:
    @pytest.mark.parametrize("case", sorted(RADIX_CASES))
    def test_radix_extremes_match_the_tuple_keyed_loop(self, monkeypatch, case):
        values, weights, cutoff, limit = RADIX_CASES[case]
        if limit is not None:
            monkeypatch.setattr(genpoly, "TERM_LIMIT", limit)
        gf = _free_gf(values, weights)
        outcome = _series_outcome(expand_series, gf, cutoff)
        assert outcome == _series_outcome(reference_tuple_expand_series, gf, cutoff)
        if limit is not None:
            assert outcome[0] is ResourceLimitError
            return
        entries, _ = outcome
        steps = [w for w in weights if WeightVector(w).value(gf.basis) <= cutoff]
        places = genpoly._places(
            gf.basis.values(), cutoff, [(0,) * len(values)], steps, genpoly.TERM_LIMIT
        )
        assert all(type(p) is int for p in places)
        classes = [wv for wv, _ in entries]
        successors = [tuple(map(sum, zip(wv, step))) for wv in classes for step in steps]
        # Distinct vectors get distinct keys, ordered as the vectors.
        vectors = sorted(set(classes + successors))
        keys = [sum(m * p for m, p in zip(v, places)) for v in vectors]
        assert keys == sorted(set(keys))

    def test_radix_exceeds_twice_the_digit_bounds(self):
        # One atom of value 1, steps of digit 1 and 2, cutoff 10: a queued
        # class carries at most int(2 * 10 / 1) = 20, below the term
        # limit's bound, so the radix is 2 * 20 + 1.
        assert genpoly._places((1.0, 1.0), 10.0, [(0, 0)], [(1, 0), (0, 2)], 10**6) == [41, 1]
        # 5e-324 gives an infinite cutoff bound: the budget bounds the
        # digit, start digit 3 plus 7 steps of digit 2.
        assert genpoly._places((5e-324,), 1.0, [(3,)], [(2,)], 7) == [1]
        assert genpoly._places((5e-324, 1.0), 1.0, [(3, 0)], [(2, 1)], 7) == [5, 1]
        assert genpoly._places((1.0, 5e-324), 1.0, [(0, 3)], [(1, 2)], 7) == [35, 1]


# Every class and successor key within _places' bounds, for a start at
# weight zero: a digit of atom i up to D_i + S_i, where D_i is the budget
# bound budget * S_i cut by the cutoff bound int(2 * cutoff / v_i) when
# that is finite, and S_i the largest step digit. With a zero start both
# modules' places are the same ints.
def _zero_start_places(module, values, cutoff, steps, budget):
    if module is genpoly:
        return genpoly._places(values, cutoff, [(0,) * len(values)], steps, budget)
    return oracle._places(values, cutoff, steps, budget)


def _digit_bounds(values, cutoff, steps, budget):
    bounds = []
    for i, v in enumerate(values):
        step_digit = max(step[i] for step in steps)
        digit = budget * step_digit
        quotient = 2.0 * cutoff / v
        if not math.isinf(quotient):
            digit = min(digit, int(quotient))
        bounds.append(digit + step_digit)
    return bounds


def _digit_float(key, places, values):
    """The hot loops' float of a packed key: its digits, most significant
    first, times their atoms' values, added one by one from 0.0."""
    total = 0.0
    for place, v in zip(places, values):
        digit, key = divmod(key, place)
        total += digit * v
    return total


@st.composite
def decode_cases(draw):
    """(atom values, steps, cutoff, budget): 1-4 atoms of ATOM_VALUES, or a
    RADIX_CASES extreme with its term limit or the default one."""
    if draw(st.booleans()):
        values, steps, cutoff, limit = RADIX_CASES[draw(st.sampled_from(sorted(RADIX_CASES)))]
        return values, steps, cutoff, limit or genpoly.TERM_LIMIT
    n = draw(st.integers(1, 4))
    values = tuple(draw(st.lists(st.sampled_from(ATOM_VALUES), min_size=n, max_size=n)))
    digits = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    steps = draw(st.lists(digits, min_size=1, max_size=3))
    cutoff = draw(st.sampled_from([0.0, 1.0, 6.5, 20.0]))
    return values, steps, cutoff, draw(st.sampled_from([3, genpoly.TERM_LIMIT]))


class TestKeyDecode:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases(), st.sampled_from([genpoly, oracle]), st.data())
    def test_keys_decode_to_their_vectors_and_floats(self, case, module, data):
        values, steps, cutoff, budget = case
        places = _zero_start_places(module, values, cutoff, steps, budget)
        bounds = _digit_bounds(values, cutoff, steps, budget)
        # No digit within its bound reaches its atom's radix.
        radixes = [hi // lo for hi, lo in zip(places, places[1:])]
        assert all(b < r for b, r in zip(bounds[1:], radixes))
        digits = st.tuples(*[st.integers(0, b) for b in bounds])
        vectors = data.draw(st.lists(digits, max_size=8)) + [tuple(bounds)]
        vectors = [WeightVector(v) for v in vectors]
        keys = [sum(map(operator.mul, v, places)) for v in vectors]
        decoded = module._vectors(keys, places)
        assert decoded == vectors
        assert all(type(v) is WeightVector for v in decoded)
        basis = WeightBasis.from_mapping({f"a{i}": v for i, v in enumerate(values)})
        # A successor has positive weight; the zero vector's weight is the int 0.
        nonzero = [(wv, key) for wv, key in zip(vectors, keys) if any(wv)]
        assert _bits([_digit_float(key, places, values) for _, key in nonzero]) == _bits(
            [wv.value(basis) for wv, _ in nonzero]
        )

    def test_empty_basis_decodes_to_the_empty_vector(self):
        # A quotient over no atoms expands to constants at weight zero.
        assert genpoly._vectors([0, 0], []) == [WeightVector(()), WeightVector(())]
        basis = WeightBasis(())
        gf = RationalGF(
            GeneralizedPolynomial.constant(basis, 3), GeneralizedPolynomial.constant(basis, 1)
        )
        assert expand_series(gf, 2.0).entries == ((WeightVector(()), 3),)


class TestCoefficientSeries:
    @pytest.mark.parametrize(
        "entries, values, message",
        [
            (
                ((WeightVector((1,)), 1), (WeightVector((0,)), 1)),
                [1.0, 0],
                "series entries must be strictly increasing by weight",
            ),
            (
                ((WeightVector((1,)), 1), (WeightVector((1,)), 2)),
                [1.0, 1.0],
                "series entries must be strictly increasing by weight",
            ),
            (
                ((WeightVector((0,)), 1), (WeightVector((1,)), -1)),
                [0, 1.0],
                "counts must be nonnegative integers, got -1",
            ),
            (
                ((WeightVector((0,)), True), (WeightVector((1,)), 1)),
                [0, 1.0],
                "counts must be nonnegative integers, got True",
            ),
            (
                ((WeightVector((0,)), 1), (WeightVector((1,)), False)),
                [0, 1.0],
                "counts must be nonnegative integers, got False",
            ),
            (((WeightVector((0,)), 1.0),), [0], "counts must be nonnegative integers, got 1.0"),
            (((WeightVector((0,)), None),), [0], "counts must be nonnegative integers, got None"),
            (((WeightVector((0, 1)), 1),), [0], "weight vector does not match basis size"),
            (
                ((WeightVector((0,)), 1), (WeightVector((1, 0)), 1)),
                [0, 1.0],
                "weight vector does not match basis size",
            ),
            # Each entry's count is checked before its vector and its order.
            (
                ((WeightVector((0,)), -1), (WeightVector((0, 1)), 1)),
                [0, 0],
                "counts must be nonnegative integers, got -1",
            ),
            (
                ((WeightVector((1,)), 1), (WeightVector((0, 1)), 1)),
                [1.0, 0],
                "weight vector does not match basis size",
            ),
        ],
    )
    def test_from_values_refuses_with_the_constructors_message(self, entries, values, message):
        # One table for both constructors: the same check, the same error.
        error = BasisMismatchError if "basis size" in message else ValueError
        with pytest.raises(error) as info:
            CoefficientSeries._from_values(UNIT, list(entries), values, 2.0)
        assert str(info.value) == message
        with pytest.raises(error) as info:
            CoefficientSeries(UNIT, entries, 2.0)
        assert str(info.value) == message

    def test_from_values_takes_int_subclass_counts(self):
        entries = [(WeightVector((0,)), IntSubclass(2)), (WeightVector((1,)), 1)]
        series = CoefficientSeries._from_values(UNIT, entries, [0, 1.0], 2.0)
        assert series == CoefficientSeries(UNIT, entries, 2.0)

    def test_requires_sorted_entries(self):
        with pytest.raises(ValueError):
            CoefficientSeries(
                UNIT,
                ((WeightVector((1,)), 1), (WeightVector((0,)), 1)),
                2.0,
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            CoefficientSeries(UNIT, ((WeightVector((0,)), -1),), 2.0)

    def test_rejects_out_of_order_entries_with_todays_message(self):
        for entries in (
            ((WeightVector((1,)), 1), (WeightVector((0,)), 1)),
            ((WeightVector((1,)), 1), (WeightVector((1,)), 2)),
        ):
            with pytest.raises(
                ValueError, match="^series entries must be strictly increasing by weight$"
            ):
                CoefficientSeries(UNIT, entries, 2.0)

    @pytest.mark.parametrize(
        "entries, values",
        [
            # Equal weights, the vectors decreasing.
            (((WeightVector((1, 0)), 1), (WeightVector((0, 1)), 1)), [1.0, 1.0]),
            # A NaN weight is neither below nor above its neighbour.
            (((WeightVector((0, 0)), 1), (WeightVector((1, 0)), 1)), [0, math.nan]),
            (((WeightVector((1, 0)), 1), (WeightVector((0, 1)), 1)), [math.nan, 1.0]),
        ],
    )
    def test_order_check_refuses_vector_order_ties_and_nan(self, entries, values):
        basis = WeightBasis.from_mapping({"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError) as info:
            CoefficientSeries._from_values(basis, list(entries), values, 2.0)
        assert str(info.value) == "series entries must be strictly increasing by weight"

    @pytest.mark.parametrize("count", [-1, True, False, 1.0, None])
    def test_rejects_bad_counts_with_todays_message(self, count):
        message = f"counts must be nonnegative integers, got {count!r}"
        with pytest.raises(ValueError) as info:
            CoefficientSeries(UNIT, ((WeightVector((0,)), 1), (WeightVector((1,)), count)), 2.0)
        assert str(info.value) == message

    def test_a_bad_count_is_reported_before_a_later_entry_is_weighed(self):
        # An entry's bad count is reported before a later entry's bad vector.
        entries = ((WeightVector((0,)), -1), (WeightVector((0, 1)), 1))
        with pytest.raises(ValueError, match="nonnegative integers"):
            CoefficientSeries(UNIT, entries, 2.0)

    def test_caches_the_floats_it_checked(self):
        series = CoefficientSeries(
            HALVES, [[WeightVector((0, 0)), 1], [WeightVector((0, 1)), 2]], 1.0
        )
        assert series.entries == ((WeightVector((0, 0)), 1), (WeightVector((0, 1)), 2))
        assert _bits(series.values()) == [(int, "0"), (float, "0.5")]
        assert series.pairs() == [(0, 1), (0.5, 2)]

    @pytest.mark.parametrize("name", sorted(SHIPPED_CUTOFFS))
    def test_floats_are_the_weight_values_bit_for_bit(self, name):
        spec = load_channel(name)
        cutoff = SHIPPED_CUTOFFS[name]
        for series in (
            expand_series(build_gf(spec), cutoff),
            enumerate_channel(spec, cutoff).series,
        ):
            expected = [wv.value(spec.basis) for wv, _ in series.entries]
            assert _bits(series.values()) == _bits(expected)
            assert series.values()[0] == 0 and type(series.values()[0]) is int
            assert series.pairs() == [(v, c) for v, (_, c) in zip(expected, series.entries)]
            # The partial sum adds the same terms in the same order.
            total = 0.0
            for v, (_, c) in zip(expected, series.entries):
                total += c * (0.4 ** v)
            assert series.evaluate(0.4) == total
            assert series == CoefficientSeries(spec.basis, series.entries, cutoff)

    def test_partial_sum_evaluation(self):
        series = CoefficientSeries(
            UNIT, ((WeightVector((0,)), 1), (WeightVector((1,)), 2)), 1.0
        )
        assert series.evaluate(0.5) == pytest.approx(1 + 2 * 0.5)
        assert series.total_count() == 3

    def test_partial_sums_of_counts_past_the_float_range(self):
        # ex3 to weight 1300: counts of up to 1144 bits, partial sums of
        # exactly 1 at y = 0 and about (1 + y + y^2) / (1 - y - y^2 - y^3)
        # = 14 at y = 0.5; at y = 1 the sum itself is past the float range.
        series = expand_series(build_gf(load_channel("ex3.json")), 1300.0)
        assert max(series.counts()).bit_length() == 1144
        total = series.evaluate(0.0)
        assert (type(total), total) == (float, 1.0)
        exact = sum(Fraction(c, 2 ** round(v)) for v, c in series.pairs())
        assert series.evaluate(0.5) == pytest.approx(float(exact), rel=1e-12)
        with pytest.raises(EvalOverflowError):
            series.evaluate(1.0)

    def test_huge_counts_and_powers(self):
        series = CoefficientSeries(
            UNIT, ((WeightVector((0,)), 3), (WeightVector((1000,)), 2**1100)), 1000.0
        )
        # 2**1100 * 0.5**1000 = 2**100, plus the 3 at weight 0.
        assert series.evaluate(0.5) == pytest.approx(2.0**100 + 3, rel=1e-12)
        assert series.evaluate(0.0) == 3.0
        # Counts that fit a float keep the term c * y**v; a power past the
        # float range makes the sum infinite.
        small = CoefficientSeries(UNIT, ((WeightVector((2000,)), 1),), 2000.0)
        assert small.evaluate(0.5) == 0.5**2000.0
        with pytest.raises(EvalOverflowError):
            small.evaluate(2.0)


def _bits(values):
    """Each value's type and shortest round-trip repr: equal exactly when
    the floats are equal bit for bit (none here is NaN or -0.0)."""
    return [(type(v), repr(v)) for v in values]
