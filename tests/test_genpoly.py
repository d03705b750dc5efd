"""Exact polynomial arithmetic and series extraction."""

from __future__ import annotations

import math
from collections import Counter
from types import MappingProxyType

import pytest

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
    expand_series,
)
from dnccap import genpoly

UNIT = WeightBasis.from_mapping({"unit": 1.0})
MIXED = WeightBasis.from_mapping({"unit": 1.0, "pi": math.pi})
HALVES = WeightBasis.from_mapping({"unit": 1.0, "half": 0.5})


def poly(basis: WeightBasis, terms: dict[tuple, int]) -> GeneralizedPolynomial:
    return GeneralizedPolynomial(basis, {WeightVector(k): v for k, v in terms.items()})


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


class TestCoefficientSeries:
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

    def test_partial_sum_evaluation(self):
        series = CoefficientSeries(
            UNIT, ((WeightVector((0,)), 1), (WeightVector((1,)), 2)), 1.0
        )
        assert series.evaluate(0.5) == pytest.approx(1 + 2 * 0.5)
        assert series.total_count() == 3
