"""Exhaustive enumeration and the capacity lower bound built on it."""

from __future__ import annotations

import json
import math

import pytest

from dnccap import (
    InsufficientDataError,
    ResourceLimitError,
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
