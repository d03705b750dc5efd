"""Generating-function construction for each constraint family."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from dnccap import (
    GeneralizedPolynomial,
    SpecError,
    UnsupportedChannelError,
    WeightBasis,
    WeightVector,
    build_gf,
    enumerate_by_weight,
    expand_series,
    gf_forbidden_patterns,
    gf_from_regex,
    gf_free_monoid,
    parse_spec,
)

from corpus import load_channel, reference_correlation_quotient


UNIT = WeightBasis.from_mapping({"unit": 1.0})


def unit_poly(*coeff_by_power):
    """Polynomial in y = y_unit from a list of (power, coeff) pairs."""
    terms = {
        WeightVector((power,)): coeff for power, coeff in coeff_by_power
    }
    return GeneralizedPolynomial(UNIT, terms)


class TestPatternAvoidance:
    def test_avoid_111(self):
        gf = build_gf(load_channel("ex3.json"))
        assert gf.numerator == unit_poly((0, 1), (1, 1), (2, 1))
        assert gf.denominator == unit_poly((0, 1), (1, -1), (2, -1), (3, -1))

    def test_quotient_identity_avoid_111(self):
        # y^3 + (1 - 2y) (1 + y + y^2) collapses to 1 - y - y^2 - y^3.
        corr = unit_poly((0, 1), (1, 1), (2, 1))
        lhs = unit_poly((3, 1)) + (unit_poly((0, 1), (1, -2))) * corr
        assert lhs == unit_poly((0, 1), (1, -1), (2, -1), (3, -1))

    def test_avoid_11(self):
        gf = build_gf(load_channel("avoid11.json"))
        assert gf.numerator == unit_poly((0, 1), (1, 1))
        assert gf.denominator == unit_poly((0, 1), (1, -1), (2, -1))

    def test_avoid_101(self):
        gf = build_gf(load_channel("avoid101.json"))
        assert gf.denominator == unit_poly((0, 1), (1, -2), (2, 1), (3, -1))

    def test_scaled_weights_substitute(self):
        # Doubling every symbol weight sends y to y^2 in the quotient.
        spec = parse_spec(
            json.dumps(
                {
                    "atoms": {"unit": 1.0},
                    "symbols": [
                        {"name": "0", "weight": {"unit": 2}},
                        {"name": "1", "weight": {"unit": 2}},
                    ],
                    "constraint": {"type": "forbidden", "patterns": ["11"]},
                }
            )
        )
        gf = build_gf(spec)
        assert gf.numerator == unit_poly((0, 1), (2, 1))
        assert gf.denominator == unit_poly((0, 1), (2, -1), (4, -1))


def forbidden_spec(weights, patterns):
    """Symbols "0", "1", ... with the given {atom: multiplicity} weights."""
    return parse_spec(
        json.dumps(
            {
                "atoms": {"unit": 1.0, "pi": math.pi, "r2": math.sqrt(2.0)},
                "symbols": [
                    {"name": str(i), "weight": w} for i, w in enumerate(weights)
                ],
                "constraint": {"type": "forbidden", "patterns": list(patterns)},
            }
        )
    )


WEIGHTS = st.dictionaries(
    st.sampled_from(["unit", "pi", "r2"]), st.integers(1, 2), min_size=1, max_size=2
)


@st.composite
def forbidden_sets(draw):
    """2-3 symbols weighted by unit, pi and sqrt 2 at multiplicity 1-2, and
    1-4 patterns of length 1-4 over them."""
    weights = draw(st.lists(WEIGHTS, min_size=2, max_size=3))
    pattern = st.text(alphabet="012"[: len(weights)], min_size=1, max_size=4)
    return forbidden_spec(weights, draw(st.lists(pattern, min_size=1, max_size=4)))


class TestClusterQuotient:
    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="01", min_size=1, max_size=16),
        st.sampled_from([{"unit": 1}, {"unit": 2}, {"pi": 1}]),
    )
    def test_one_pattern_equals_correlation_quotient(self, pattern, weight):
        spec = forbidden_spec([weight, weight], [pattern])
        expected = reference_correlation_quotient(spec)
        gf = gf_forbidden_patterns(spec)
        assert gf.numerator == expected.numerator
        assert gf.denominator == expected.denominator

    @settings(max_examples=200, deadline=None)
    @given(forbidden_sets())
    def test_series_equals_enumeration(self, spec):
        cutoff = 9.0
        series = expand_series(gf_forbidden_patterns(spec), cutoff)
        assert series.entries == enumerate_by_weight(spec, cutoff).entries

    def test_repeated_and_containing_patterns_are_dropped(self):
        unit = {"unit": 1}
        reduced = gf_forbidden_patterns(forbidden_spec([unit, unit], ["11"]))
        gf = gf_forbidden_patterns(forbidden_spec([unit, unit], ["110", "11", "011", "11"]))
        assert (gf.numerator, gf.denominator) == (reduced.numerator, reduced.denominator)

    def test_single_symbol_patterns_remove_symbols(self):
        # Forbidding "1" leaves the free monoid over "0" alone.
        gf = gf_forbidden_patterns(forbidden_spec([{"unit": 1}, {"pi": 1}], ["1"]))
        assert expand_series(gf, 6.0).counts() == [1] * 7


class TestFreeMonoid:
    def test_binary_unit_weights(self):
        gf = build_gf(load_channel("binary.json"))
        assert gf.numerator == unit_poly((0, 1))
        assert gf.denominator == unit_poly((0, 1), (1, -2))

    def test_distinct_weights_stay_separate(self):
        gf = build_gf(load_channel("mixed-free.json"))
        assert gf.numerator.constant_coefficient == 1
        assert len(gf.denominator) == 3


class TestRegexRoute:
    def test_mixed_weight_regex(self):
        gf = build_gf(load_channel("ex2.json"))
        basis = gf.numerator.basis
        y = {a.name: i for i, a in enumerate(basis.atoms)}

        def vec(unit, pi):
            mults = [0] * basis.size
            mults[y["unit"]] = unit
            mults[y["pi"]] = pi
            return WeightVector(tuple(mults))

        assert gf.numerator == GeneralizedPolynomial(
            basis, {vec(0, 0): 1, vec(0, 1): 1}
        )
        assert gf.denominator == GeneralizedPolynomial(
            basis, {vec(0, 0): 1, vec(1, 0): -1, vec(1, 1): -1}
        )

    def test_full_binary_star(self):
        spec = parse_spec(
            json.dumps(
                {
                    "atoms": {"unit": 1.0},
                    "symbols": [
                        {"name": "0", "weight": {"unit": 1}},
                        {"name": "1", "weight": {"unit": 1}},
                    ],
                    "constraint": {
                        "type": "regex",
                        "expr": "(0|1)*",
                        "unambiguous": True,
                    },
                }
            )
        )
        gf = gf_from_regex(spec.constraint.expr, spec)
        assert gf.numerator == unit_poly((0, 1))
        assert gf.denominator == unit_poly((0, 1), (1, -2))

    def test_nullable_star_rejected(self):
        spec = parse_spec(
            json.dumps(
                {
                    "atoms": {"unit": 1.0},
                    "symbols": [
                        {"name": "0", "weight": {"unit": 1}},
                        {"name": "1", "weight": {"unit": 1}},
                    ],
                    "constraint": {
                        "type": "regex",
                        "expr": "(ε|0)*",
                        "unambiguous": True,
                    },
                }
            )
        )
        with pytest.raises(UnsupportedChannelError, match="empty string"):
            gf_from_regex(spec.constraint.expr, spec)

    def test_pattern_and_regex_routes_agree(self):
        by_pattern = build_gf(load_channel("avoid11.json"))
        by_regex = build_gf(load_channel("avoid11-regex.json"))
        cutoff = 12.0
        left = expand_series(by_pattern, cutoff)
        right = expand_series(by_regex, cutoff)
        assert left.pairs() == right.pairs()


class TestNormalization:
    @pytest.mark.parametrize(
        "name",
        [
            "ex2.json",
            "ex3.json",
            "unary.json",
            "binary.json",
            "avoid11.json",
            "avoid11-regex.json",
            "avoid101.json",
            "mixed-free.json",
            "half-step.json",
        ],
    )
    def test_value_at_zero_counts_empty_string(self, name):
        gf = build_gf(load_channel(name))
        assert gf.denominator.constant_coefficient > 0
        assert gf.evaluate(0.0) == 1.0


# Every symbol weight is finite, but "ab" weighs 2e308: the regex (ab)*
# puts it in the denominator, forbidding "ab" in the numerator and
# denominator of the cluster quotient.
OVERFLOWING_WORDS = {
    "regex": {"type": "regex", "expr": "(ab)*", "unambiguous": True},
    "forbidden": {"type": "forbidden", "patterns": ["ab"]},
}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING_WORDS))
def test_overflowing_word_weight_is_a_spec_error(kind):
    spec = parse_spec(json.dumps({
        "atoms": {"u": 1e308},
        "symbols": [{"name": n, "weight": {"u": 1}} for n in "ab"],
        "constraint": OVERFLOWING_WORDS[kind],
    }))
    with pytest.raises(SpecError, match="^constraint: a word weight in the quotient's"):
        build_gf(spec)


def test_word_multiplicity_too_large_for_a_float_is_a_spec_error():
    # Each multiplicity becomes a float, 1e308 at an atom of 1e-300, but
    # the word "ab" sums them to 2e308, which does not.
    spec = parse_spec(json.dumps({
        "atoms": {"u": 1e-300},
        "symbols": [{"name": n, "weight": {"u": 10**308}} for n in "ab"],
        "constraint": OVERFLOWING_WORDS["regex"],
    }))
    with pytest.raises(SpecError, match="denominator is too large for a float"):
        build_gf(spec)
