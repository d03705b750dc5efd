"""Exhaustive enumeration and the capacity lower bound built on it."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dnccap import (
    InsufficientDataError,
    ResourceLimitError,
    WeightBasis,
    WeightVector,
    build_gf,
    enumerate_by_weight,
    enumerate_channel,
    estimate_capacity,
    expand_series,
    parse_spec,
)
from dnccap import oracle
from dnccap.genpoly import weight_sort_key

from corpus import (
    NAIVE_CUTOFFS,
    SHIPPED_CUTOFFS,
    load_channel,
    naive_enumerate,
    reference_enumerate_channel,
    reference_estimate_capacity,
    reference_weight_value,
)


LOG_GOLDEN = math.log((1.0 + math.sqrt(5.0)) / 2.0)


class TestEnumeration:
    def test_avoid_111_counts(self):
        series = enumerate_by_weight(load_channel("ex3.json"), 5.0)
        assert series.counts() == [1, 2, 4, 7, 13, 24]
        assert series.values() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_mixed_weight_counts(self):
        series = enumerate_by_weight(load_channel("ex2.json"), 1.0 + math.pi)
        assert [(round(v, 9), c) for v, c in series.pairs()] == [
            (0.0, 1),
            (1.0, 1),
            (2.0, 1),
            (3.0, 1),
            (round(math.pi, 9), 1),
            (4.0, 1),
            (round(1.0 + math.pi, 9), 2),
        ]

    @pytest.mark.parametrize("name", sorted(NAIVE_CUTOFFS))
    def test_matches_naive_enumeration(self, name):
        spec = load_channel(name)
        cutoff = NAIVE_CUTOFFS[name]
        series = enumerate_by_weight(spec, cutoff)
        assert {wv.mults: c for wv, c in series.entries} == naive_enumerate(
            spec, cutoff
        )

    @pytest.mark.parametrize("name", sorted(NAIVE_CUTOFFS))
    def test_matches_series_expansion(self, name):
        spec = load_channel(name)
        cutoff = NAIVE_CUTOFFS[name]
        expanded = expand_series(build_gf(spec), cutoff)
        enumerated = enumerate_by_weight(spec, cutoff)
        assert expanded.pairs() == enumerated.pairs()

    @pytest.mark.parametrize("name", sorted(SHIPPED_CUTOFFS))
    def test_walk_records_weights_in_series_order(self, name):
        # No sort after the walk: the heap pops configurations in the
        # order of weight_sort_key, and the return counts of every state
        # come out strictly increasing in it, with no zero weight and no
        # zero count.
        spec = load_channel(name)
        enum = enumerate_channel(spec, SHIPPED_CUTOFFS[name])
        key = weight_sort_key(spec.basis)
        assert enum.loop_counts
        for pairs in enum.loop_counts.values():
            keys = [key(wv) for wv, _ in pairs]
            assert keys == sorted(set(keys))
            assert all(c >= 1 and not wv.is_zero() for wv, c in pairs)

    def test_budget_exhaustion_keeps_partial_counts(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 5)
        with pytest.raises(ResourceLimitError) as info:
            enumerate_by_weight(load_channel("binary.json"), 20.0)
        assert info.value.partial is not None
        assert len(info.value.partial) >= 1
        assert all(isinstance(wv, WeightVector) for wv in info.value.partial)

    @pytest.mark.parametrize("with_loops", [True, False])
    @pytest.mark.parametrize("budget", [1, 5, 60])
    def test_budget_partial_is_a_prefix_of_the_series(self, monkeypatch, with_loops, budget):
        spec = load_channel("ex3.json")
        full = enumerate_channel(spec, 30.0).series.entries
        monkeypatch.setattr(oracle, "MAX_CONFIGS", budget)
        with pytest.raises(ResourceLimitError) as info:
            enumerate_channel(spec, 30.0, with_loops=with_loops)
        partial = tuple(info.value.partial.items())
        assert partial == full[: len(partial)]

    def test_budget_stopping_a_loop_walk_keeps_series_counts(self, monkeypatch):
        # The series walk alone fits in 120 configurations; the loop walks
        # exhaust the budget, and `partial` still holds series counts.
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 120)
        with pytest.raises(ResourceLimitError) as info:
            enumerate_channel(load_channel("ex3.json"), 30.0)
        assert list(info.value.partial.values()) == [
            1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504
        ]

    def test_cutoff_must_be_finite(self):
        with pytest.raises(ValueError):
            enumerate_channel(load_channel("binary.json"), math.inf)


class TestAmbiguityDetection:
    def test_ambiguous_regex_counts_diverge_from_quotient(self):
        # (0|00)* is declared unambiguous but is not: "0000" parses three
        # ways. Enumeration counts strings once each; the quotient counts
        # parses, so the two series must split.
        spec = parse_spec(
            json.dumps(
                {
                    "atoms": {"unit": 1.0},
                    "symbols": [{"name": "0", "weight": {"unit": 1}}],
                    "constraint": {
                        "type": "regex",
                        "expr": "(0|00)*",
                        "unambiguous": True,
                    },
                }
            )
        )
        enumerated = enumerate_by_weight(spec, 3.0)
        expanded = expand_series(build_gf(spec), 3.0)
        assert enumerated.counts() == [1, 1, 1, 1]
        assert expanded.counts() == [1, 1, 2, 3]


class TestEstimate:
    def test_lower_bound_is_nondecreasing_and_below_truth(self):
        spec = load_channel("avoid11.json")
        frozen = {15.0: 0.459645, 30.0: 0.470428, 60.0: 0.475820}
        previous = 0.0
        for cutoff, expected in sorted(frozen.items()):
            report = estimate_capacity(enumerate_channel(spec, cutoff))
            assert abs(report.capacity_nats - expected) <= 1e-6
            assert report.capacity_nats >= previous
            assert report.capacity_nats <= LOG_GOLDEN + 1e-9
            previous = report.capacity_nats
        assert LOG_GOLDEN - previous <= 0.02

    def test_avoid_111_estimate_brackets(self):
        report = estimate_capacity(enumerate_channel(load_channel("ex3.json"), 30.0))
        assert 0.58 <= report.capacity_nats <= 0.6093778634360062 + 1e-9

    def test_error_bound_covers_truth(self):
        spec = load_channel("ex3.json")
        report = estimate_capacity(enumerate_channel(spec, 30.0))
        truth = 0.6093778634360062
        assert report.capacity_nats <= truth <= report.capacity_nats + report.error_bound

    def test_unary_channel_estimates_zero(self):
        report = estimate_capacity(enumerate_channel(load_channel("unary.json"), 30.0))
        assert report.capacity_nats == 0.0
        assert report.radius_or_pole == 1.0

    def test_report_fields(self):
        report = estimate_capacity(enumerate_channel(load_channel("ex3.json"), 12.0))
        assert report.method == "oracle-estimate"
        assert report.iterations == 13
        assert abs(report.radius_or_pole - math.exp(-report.capacity_nats)) <= 1e-15
        assert "state" in report.note

    def test_tiny_cutoff_rejected(self):
        with pytest.raises(InsufficientDataError, match="cutoff"):
            estimate_capacity(enumerate_channel(load_channel("ex3.json"), 0.5))


# --- the shared walk against the per-start reference walks ----------------------

ATOMS = {"unit": 1.0, "half": 0.5, "pi": math.pi, "r2": math.sqrt(2.0)}


@st.composite
def channels(draw):
    """Two or three symbols weighted over unit, half, pi and sqrt 2 (unit
    and half are rationally dependent), under a forbidden set of 1-4
    patterns of length 2-4, a random regex or no constraint."""
    weight = st.dictionaries(
        st.sampled_from(sorted(ATOMS)), st.integers(1, 2), min_size=1, max_size=2
    )
    weights = draw(st.lists(weight, min_size=2, max_size=3))
    names = "012"[: len(weights)]
    kind = draw(st.sampled_from(["forbidden", "regex", "free"]))
    if kind == "forbidden":
        pattern = st.text(alphabet=names, min_size=2, max_size=4)
        patterns = draw(st.lists(pattern, min_size=1, max_size=4))
        constraint = {"type": "forbidden", "patterns": patterns}
    elif kind == "regex":
        expr = st.recursive(
            st.sampled_from(names),
            lambda inner: st.one_of(
                st.tuples(inner, inner).map(lambda ab: f"{ab[0]}{ab[1]}"),
                st.tuples(inner, inner).map(lambda ab: f"({ab[0]}|{ab[1]})"),
                inner.map(lambda a: f"({a})*"),
            ),
            max_leaves=6,
        )
        constraint = {"type": "regex", "expr": draw(expr), "unambiguous": True}
    else:
        constraint = {"type": "free"}
    doc = {
        "atoms": ATOMS,
        "symbols": [{"name": n, "weight": w} for n, w in zip(names, weights)],
        "constraint": constraint,
    }
    return parse_spec(json.dumps(doc))


def _estimate(enum, estimate=estimate_capacity):
    try:
        return estimate(enum)
    except InsufficientDataError as exc:
        return str(exc)


class TestSharedWalk:
    @settings(max_examples=200, deadline=None)
    @given(channels(), st.sampled_from([0.0, 2.5, 6.0, 9.0]), st.sampled_from([None, 1, 2]))
    @example(load_channel("half-step.json"), 8.0, None)
    @example(load_channel("avoid101.json"), 9.0, 1)  # 3 states, 1 loop walk
    def test_equals_per_start_walks(self, spec, cutoff, state_cap):
        with pytest.MonkeyPatch.context() as mp:
            if state_cap is not None:
                mp.setattr(oracle, "STATE_CAP", state_cap)
            enum = enumerate_channel(spec, cutoff)
            reference = reference_enumerate_channel(spec, cutoff)
        assert enum.series == reference.series
        assert enum.loop_counts == reference.loop_counts
        assert enum.n_states == reference.n_states
        assert enum.states_analyzed == reference.states_analyzed
        assert enum.configurations == reference.configurations
        assert enum.loop_bound == reference.loop_bound
        assert _estimate(enum) == _estimate(reference)
        # Exactly the former formula, which recomputed every weight.
        assert _estimate(enum) == _estimate(enum, reference_estimate_capacity)
        values = enum.series.values()
        expected = [wv.value(spec.basis) for wv, _ in enum.series.entries]
        assert [(type(v), repr(v)) for v in values] == [(type(v), repr(v)) for v in expected]
        alone = enumerate_channel(spec, cutoff, with_loops=False)
        assert alone.series == reference.series
        assert alone.configurations == reference_enumerate_channel(
            spec, cutoff, with_loops=False
        ).configurations

    def test_work_counters(self):
        # ex3 has three states and a class at every integer weight: 31
        # heap pops carry all the configurations the four reference walks
        # pop one at a time.
        spec = load_channel("ex3.json")
        enum = enumerate_channel(spec, 30.0)
        assert enum.classes == 31
        assert enum.configurations == reference_enumerate_channel(spec, 30.0).configurations


ATOM_VALUES = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False)


class TestWeightExpression:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ATOM_VALUES, min_size=1, max_size=16).flatmap(
        lambda values: st.tuples(
            st.just(values),
            st.lists(st.integers(0, 10**6), min_size=len(values), max_size=len(values)),
        )
    ))
    def test_value_is_bitwise_the_filtered_sum(self, case):
        values, mults = case
        basis = WeightBasis.from_mapping({f"a{i}": v for i, v in enumerate(values)})
        wv = WeightVector(tuple(mults))
        new, old = wv.value(basis), reference_weight_value(wv, basis)
        assert (type(new), repr(new)) == (type(old), repr(old))
