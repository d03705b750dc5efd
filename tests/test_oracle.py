"""Exhaustive enumeration and the capacity lower bound built on it."""

from __future__ import annotations

import json
import math
import tracemalloc
from collections import Counter

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
from dnccap import automaton, oracle
from dnccap.genpoly import weight_sort_key

from corpus import (
    NAIVE_CUTOFFS,
    SHIPPED_CUTOFFS,
    load_channel,
    naive_enumerate,
    reference_enumerate_channel,
    reference_estimate_capacity,
    reference_tuple_enumerate_channel,
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
        # ex3 (no "111") has states 0, 1, 2 for 0, 1, 2 trailing 1s. The
        # walk from state 0, which also records the series, reaches 1, 2
        # and 3 states at weights 0, 1 and >= 2; from state 1: 1, 2, 2,
        # then 3; from state 2: 1, 1, 2, then 3. So the classes carry 3,
        # 5, 7, then 9 configurations each, 15 + 9 * (w - 2) up to weight
        # w >= 2: 114 fit in a budget of 120 at weight 13, and weight 14
        # exceeds it. The series walk alone (90 configurations up to 30)
        # would fit, and `partial` holds the series counts of weights 0-13.
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 120)
        with pytest.raises(ResourceLimitError) as info:
            enumerate_channel(load_channel("ex3.json"), 30.0)
        assert "reached weight 14 of cutoff 30" in str(info.value)
        assert list(info.value.partial.values()) == [
            1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136
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

    @pytest.mark.parametrize(
        "constraint",
        [
            {"type": "regex", "expr": "(0|1)(0|1)", "unambiguous": True},
            {"type": "regex", "expr": "0|01|ε", "unambiguous": True},
            {"type": "forbidden", "patterns": ["0", "11"]},
        ],
    )
    @pytest.mark.parametrize("cutoff", [0.0, 1.0, 3.0, 10.0])
    def test_finite_language_estimates_zero_exactly(self, constraint, cutoff):
        doc = {
            "atoms": {"unit": 1.0},
            "symbols": [{"name": n, "weight": {"unit": 1}} for n in "01"],
            "constraint": constraint,
        }
        enum = enumerate_channel(parse_spec(json.dumps(doc)), cutoff)
        assert enum.finite
        report = estimate_capacity(enum)
        assert report.method == "oracle-estimate"
        assert (report.radius_or_pole, report.capacity_nats, report.error_bound) == (
            math.inf,
            0.0,
            0.0,
        )
        assert report.iterations == len(enum.series)
        assert report.note == "automaton has no cycle; finitely many strings, capacity 0"

    @pytest.mark.parametrize("name", sorted(SHIPPED_CUTOFFS))
    def test_shipped_channels_are_infinite(self, name):
        assert not enumerate_channel(load_channel(name), 0.0).finite


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
        # The loop walk of the initial state doubles as the series walk, so
        # the reference's separate series walk is not counted.
        series_walk = reference_enumerate_channel(spec, cutoff, with_loops=False)
        assert enum.configurations == reference.configurations - series_walk.configurations
        assert enum.loop_bound == reference.loop_bound
        assert enum.finite == reference.finite
        assert _estimate(enum) == _estimate(reference)
        if enum.finite:
            assert (_estimate(enum).capacity_nats, _estimate(enum).error_bound) == (0.0, 0.0)
        else:
            # Exactly the former formula, which recomputed every weight.
            assert _estimate(enum) == _estimate(enum, reference_estimate_capacity)
        values = enum.series.values()
        expected = [wv.value(spec.basis) for wv, _ in enum.series.entries]
        assert [(type(v), repr(v)) for v in values] == [(type(v), repr(v)) for v in expected]
        alone = enumerate_channel(spec, cutoff, with_loops=False)
        assert alone.series == reference.series
        assert alone.configurations == series_walk.configurations

    def test_work_counters(self):
        # ex3 has three states and a class at every integer weight: 31
        # heap pops carry the configurations of the three loop walks, the
        # first of which is also the series walk. The reference pops them
        # one at a time, the series walk's 90 (1 + 2 + 3 * 29) included.
        spec = load_channel("ex3.json")
        enum = enumerate_channel(spec, 30.0)
        assert enum.classes == 31
        assert enum.configurations == 3 + 5 + 7 + 9 * 28
        assert enum.configurations == reference_enumerate_channel(spec, 30.0).configurations - 90


class TestPackedKeys:
    @settings(max_examples=200, deadline=None)
    @given(channels(), st.sampled_from([0.0, 2.5, 6.0, 9.0]), st.sampled_from([None, 1, 2]))
    @example(load_channel("ex2.json"), 20.0, None)
    @example(load_channel("mixed-free.json"), 12.0, None)
    @example(load_channel("half-step.json"), 8.0, 1)
    def test_walk_equals_the_tuple_keyed_walk(self, spec, cutoff, state_cap):
        with pytest.MonkeyPatch.context() as mp:
            if state_cap is not None:
                mp.setattr(oracle, "STATE_CAP", state_cap)
            enum = enumerate_channel(spec, cutoff)
            former = reference_tuple_enumerate_channel(spec, cutoff)
        assert enum.series.entries == former.series.entries
        assert _bits(enum.series.values()) == _bits(former.series.values())
        assert enum.loop_counts == former.loop_counts
        assert enum.loop_bound == former.loop_bound
        assert (enum.n_states, enum.states_analyzed, enum.classes, enum.finite) == (
            former.n_states, former.states_analyzed, former.classes, former.finite
        )
        # The former walk ran the series walk beside the initial state's
        # loop walk; without loop walks it runs just that walk.
        series_walk = reference_tuple_enumerate_channel(spec, cutoff, with_loops=False)
        assert enum.configurations == former.configurations - series_walk.configurations

    # (atom values, symbol weights, cutoff, budget or None): atoms at both
    # ends of the float range, whose cutoff bound 2 * cutoff / value is
    # infinite for 5e-324 at cutoff 1 and for 1e308 at cutoff 1e308; cutoff
    # 0; a huge cutoff stopped by the budget; a symbol of one 10**300
    # digit; a symbol past the cutoff, whose digit 20 added to a queued
    # class's 10 would carry in a radix of 21; bases of 1, 2 and 4 atoms.
    RADIX_CASES = {
        "heavy-step": ((0.5, 1.0), [{"a1": 1}, {"a0": 1}, {"a1": 20}], 10.0, None),
        "tiny-atom": ((5e-324,), [{"a0": 1}, {"a0": 2}], 1e-322, None),
        "tiny-atom-inf-bound": ((5e-324,), [{"a0": 1}, {"a0": 3}], 1.0, 300),
        "huge-atom": ((1e308,), [{"a0": 1}], 1e308, None),
        "cutoff-0": ((1.0, math.pi), [{"a0": 1}, {"a1": 1}], 0.0, None),
        "huge-cutoff": ((1.0,), [{"a0": 1}, {"a0": 2}], 1e300, 300),
        "large-digit": ((1.0, 1e-300), [{"a0": 1}, {"a1": 10**300}], 12.0, None),
        "two-atoms": ((1.0, math.pi), [{"a0": 1}, {"a1": 1}, {"a0": 1, "a1": 1}], 12.0, None),
        "four-atoms": (
            (1.0, 0.5, math.pi, math.sqrt(2.0)),
            [{"a0": 1}, {"a1": 1}, {"a2": 1, "a3": 1}, {"a1": 3, "a3": 1}],
            7.0,
            None,
        ),
    }

    @pytest.mark.parametrize("case", sorted(RADIX_CASES))
    @pytest.mark.parametrize(
        "constraint", [{"type": "free"}, {"type": "forbidden", "patterns": ["00"]}]
    )
    def test_radix_extremes_match_the_tuple_keyed_walk(self, monkeypatch, case, constraint):
        values, weights, cutoff, budget = self.RADIX_CASES[case]
        doc = {
            "atoms": {f"a{i}": v for i, v in enumerate(values)},
            "symbols": [{"name": str(i), "weight": w} for i, w in enumerate(weights)],
            "constraint": constraint,
        }
        spec = parse_spec(json.dumps(doc))
        if budget is not None:
            monkeypatch.setattr(oracle, "MAX_CONFIGS", budget)
            with pytest.raises(ResourceLimitError) as info:
                enumerate_channel(spec, cutoff)
            with pytest.raises(ResourceLimitError):
                reference_tuple_enumerate_channel(spec, cutoff)
            assert info.value.partial
            return
        enum = enumerate_channel(spec, cutoff)
        former = reference_tuple_enumerate_channel(spec, cutoff)
        assert enum.series.entries == former.series.entries
        assert _bits(enum.series.values()) == _bits(former.series.values())
        assert enum.loop_counts == former.loop_counts
        steps = [s.weight.mults for s in spec.symbols]
        places = oracle._places(spec.basis.values(), cutoff, steps, oracle.MAX_CONFIGS)
        assert all(type(p) is int for p in places)
        classes = [wv for wv, _ in enum.series.entries]
        classes += [wv for pairs in enum.loop_counts.values() for wv, _ in pairs]
        successors = [tuple(map(sum, zip(wv, step))) for wv in classes for step in steps]
        vectors = sorted(set(classes + successors))
        keys = [sum(m * p for m, p in zip(v, places)) for v in vectors]
        assert keys == sorted(set(keys))

    def test_radix_exceeds_twice_the_digit_bounds(self):
        # Cutoff 10 over a value-1 atom bounds its digit by 20; the budget
        # bounds a 5e-324 atom's digit, 7 steps of digit 2. Each radix is
        # twice the larger of that bound and the step digit, plus one.
        assert oracle._places((1.0, 1.0), 10.0, [(1, 0), (0, 2)], 10**6) == [41, 1]
        assert oracle._places((1.0, 5e-324), 1.0, [(1, 2)], 7) == [29, 1]
        assert oracle._places((1.0, 1.0), 0.0, [(1, 0), (0, 5)], 10**6) == [11, 1]


@st.composite
def pattern_sets(draw):
    """3-6 binary forbidden patterns of length 3-7, each symbol weighted 1
    or pi: automata of mostly 6-20 states, whose loop walks each hold one
    slot of the packed counts."""
    weights = draw(st.lists(st.sampled_from(["unit", "pi"]), min_size=2, max_size=2))
    pattern = st.text(alphabet="01", min_size=3, max_size=7)
    doc = {
        "atoms": {"unit": 1.0, "pi": math.pi},
        "symbols": [{"name": n, "weight": {w: 1}} for n, w in zip("01", weights)],
        "constraint": {
            "type": "forbidden",
            "patterns": draw(st.lists(pattern, min_size=3, max_size=6, unique=True)),
        },
    }
    return parse_spec(json.dumps(doc))


def _assert_walk_matches_reference(spec, cutoff, with_loops=True):
    """Every field of an enumeration against the tuple-keyed reference
    walk, whose budget with loop walks also counts its separate series
    walk."""
    enum = enumerate_channel(spec, cutoff, with_loops=with_loops)
    former = reference_tuple_enumerate_channel(spec, cutoff, with_loops=with_loops)
    series_walk = reference_tuple_enumerate_channel(spec, cutoff, with_loops=False)
    assert enum.series.entries == former.series.entries
    assert _bits(enum.series.values()) == _bits(former.series.values())
    assert enum.loop_counts == former.loop_counts
    assert enum.loop_bound == former.loop_bound
    separate = series_walk.configurations if with_loops else 0
    assert enum.configurations == former.configurations - separate
    assert (enum.n_states, enum.states_analyzed, enum.classes, enum.finite) == (
        former.n_states, former.states_analyzed, former.classes, former.finite
    )
    return enum


def _assert_budget_stop_matches_reference(monkeypatch, spec, cutoff, pick, with_loops=True):
    """Stop both walks at the series class `pick`, whose weight no other
    class shares: a budget one short of the configurations up to it, with
    loop walks the reference's series walk included in its own."""
    entries = enumerate_channel(spec, cutoff).series.entries
    wv, _ = entries[pick % len(entries)]
    upto = wv.value(spec.basis)
    series = reference_tuple_enumerate_channel(spec, upto, with_loops=False).configurations
    budget = reference_budget = series - 1
    if with_loops:
        loops = reference_tuple_enumerate_channel(spec, upto).configurations
        budget, reference_budget = loops - series - 1, loops - 1
    monkeypatch.setattr(oracle, "MAX_CONFIGS", budget)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_channel(spec, cutoff, with_loops=with_loops)
    monkeypatch.setattr(oracle, "MAX_CONFIGS", reference_budget)
    with pytest.raises(ResourceLimitError) as former:
        reference_tuple_enumerate_channel(spec, cutoff, with_loops=with_loops)
    assert str(info.value) == str(former.value).replace(
        f"exceeded {reference_budget} ", f"exceeded {budget} "
    )
    assert f"(reached weight {upto:.6g} of cutoff {cutoff:.6g})" in str(info.value)
    assert info.value.partial == former.value.partial == dict(entries[: pick % len(entries)])


class TestPackedWalks:
    # Slot width 8 doubles from the first counts over a few units, so
    # these runs repack slots many times over.
    @settings(max_examples=60, deadline=None)
    @given(
        pattern_sets(),
        st.sampled_from([0.0, 0.25, 4.0]),
        st.sampled_from([None, 8]),
        st.integers(min_value=0),
    )
    def test_wide_automata_match_the_tuple_keyed_walk(self, spec, extra, slot_bits, pick):
        with pytest.MonkeyPatch.context() as mp:
            if slot_bits is not None:
                mp.setattr(oracle, "SLOT_BITS", slot_bits)
            # The shallowest half-unit cutoff past 8 that walks at least 150
            # configurations, as the benchmark's pattern sets do.
            cutoff = 8.0
            while enumerate_channel(spec, cutoff).configurations < 150 and cutoff < 40.0:
                cutoff += 0.5
            cutoff += extra
            _assert_walk_matches_reference(spec, cutoff)
            _assert_budget_stop_matches_reference(mp, spec, cutoff, pick)

    # Counts of 19 to 177 bits (two-patterns at 90, ex3 at 200), so slots
    # of both widths grow.
    DEEP = {"ex3.json": 200.0, "avoid101.json": 80.0, "two-patterns.json": 90.0}

    @pytest.mark.parametrize("slot_bits", [None, 8])
    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_deep_walks_match_the_tuple_keyed_walk(self, monkeypatch, name, slot_bits):
        if slot_bits is not None:
            monkeypatch.setattr(oracle, "SLOT_BITS", slot_bits)
        spec = load_channel(name)
        enum = _assert_walk_matches_reference(spec, self.DEEP[name])
        assert max(c for _, c in enum.series.entries).bit_length() > oracle.SLOT_BITS
        _assert_budget_stop_matches_reference(monkeypatch, spec, self.DEEP[name], 21)

    # (atom values, symbol weights, cutoff, series class to stop at): free
    # specs over the extreme bases of TestPackedKeys. Atom a1 = 5e-324 has
    # an infinite cutoff bound 2 * 12 / 5e-324, so the budget bounds its
    # digit; its symbol weighs 2.0 as a float, and only the classes of
    # weight 2 to 5 are alone at their float. 1e308 at cutoff 1e308, and
    # a symbol of one 10**300 digit of 1e-300.
    EXTREMES = {
        "tiny-atom-inf-bound": ((1.0, 5e-324), [{"a0": 2, "a1": 1}, {"a0": 3}], 12.0, 3),
        "huge-atom": ((1e308,), [{"a0": 1}, {"a0": 1}], 1e308, 1),
        "large-digit": ((1.0, 1e-300), [{"a0": 1}, {"a1": 10**300}], 12.0, 9),
    }

    @pytest.mark.parametrize("case", sorted(EXTREMES))
    def test_extreme_bases_match_the_tuple_keyed_walk(self, monkeypatch, case):
        values, weights, cutoff, pick = self.EXTREMES[case]
        doc = {
            "atoms": {f"a{i}": v for i, v in enumerate(values)},
            "symbols": [{"name": str(i), "weight": w} for i, w in enumerate(weights)],
            "constraint": {"type": "free"},
        }
        spec = parse_spec(json.dumps(doc))
        enum = _assert_walk_matches_reference(spec, cutoff)
        values = enum.series.values()
        assert values.count(values[pick]) == 1
        _assert_budget_stop_matches_reference(monkeypatch, spec, cutoff, pick)

    def test_huge_cutoff_budget_sizes_slots_from_the_counts(self, monkeypatch):
        # ex3's classes carry 3, 5, 7, then 9 configurations each (see
        # test_budget_stopping_a_loop_walk_keeps_series_counts), so 20 000
        # configurations run out at weight 2223, the counts then about 1950
        # bits wide. The reference walk also counts its series walk, 1, 2,
        # then 3 per class, 12 w - 3 up to weight w >= 2, and its budget
        # 26 661 runs out at the same class. Slots sized from the cutoff
        # 1e9 would hold ints of about 10**9 bits.
        spec = load_channel("ex3.json")

        def stopped(walk, budget):
            monkeypatch.setattr(oracle, "MAX_CONFIGS", budget)
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError) as info:
                    walk(spec, 1e9)
                return info.value, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        error, peak = stopped(enumerate_channel, 20_000)
        former, former_peak = stopped(reference_tuple_enumerate_channel, 26_661)
        assert str(error) == (
            "enumeration exceeded 20000 configurations (reached weight 2223 of cutoff 1e+09)"
        )
        assert str(former) == str(error).replace("20000", "26661")
        assert error.partial == former.partial
        assert len(error.partial) == 2223
        assert peak <= 2 * former_peak


def _single_state_spec(atoms, weights, constraint):
    """Symbols 0, 1, ... weighing `weights` over the named ATOMS."""
    doc = {
        "atoms": {name: ATOMS[name] for name in atoms},
        "symbols": [{"name": str(i), "weight": w} for i, w in enumerate(weights)],
        "constraint": constraint,
    }
    return parse_spec(json.dumps(doc))


# Constraints whose trim automaton has one state, each with the fewest
# symbols that leave one unused: 0* reads only symbol 0 and (0|1)* only 0
# and 1. None is the free channel, which reads every symbol.
SINGLE_STATE_REGEXES = {None: 1, "0*": 2, "(0|1)*": 3}


def _single_state_constraint(expr):
    if expr is None:
        return {"type": "free"}
    return {"type": "regex", "expr": expr, "unambiguous": True}


@st.composite
def single_state_specs(draw):
    """Free channels and one-state regexes over 1-4 of the atoms unit, half,
    pi and sqrt 2, with up to four symbols of one or two atoms each; at
    times symbols 0 and 1 weigh the same, one step of multiplicity 2."""
    atoms = draw(st.lists(st.sampled_from(sorted(ATOMS)), min_size=1, max_size=4, unique=True))
    expr = draw(st.sampled_from(sorted(SINGLE_STATE_REGEXES, key=str)))
    weight = st.dictionaries(st.sampled_from(atoms), st.integers(1, 2), min_size=1, max_size=2)
    weights = draw(st.lists(weight, min_size=SINGLE_STATE_REGEXES[expr], max_size=4))
    if len(weights) > 1 and draw(st.booleans()):
        weights[1] = weights[0]
    return _single_state_spec(atoms, weights, _single_state_constraint(expr))


class TestSingleStateWalk:
    # Every free channel, and every constraint whose trim automaton has one
    # state, walks in the single-state loop.
    @settings(max_examples=100, deadline=None)
    @given(single_state_specs(), st.sampled_from([0.0, 2.5, 6.0, 9.0]), st.integers(min_value=0))
    @example(
        _single_state_spec(["unit", "pi"], [{"unit": 1}, {"unit": 1}, {"pi": 1}], {"type": "free"}),
        9.0,
        17,
    )
    @example(
        _single_state_spec(["unit"], [{"unit": 1}, {"unit": 2}], _single_state_constraint("0*")),
        9.0,
        5,
    )
    @example(
        _single_state_spec(
            ["half", "r2"],
            [{"half": 1}, {"half": 1}, {"r2": 1}],
            _single_state_constraint("(0|1)*"),
        ),
        6.0,
        11,
    )
    def test_matches_the_tuple_keyed_walk(self, spec, cutoff, pick):
        assert automaton.for_spec(spec).n_states == 1
        # A budget stop is checked at a class alone at its weight.
        values = enumerate_channel(spec, cutoff).series.values()
        tally = Counter(values)
        alone = [i for i, v in enumerate(values) if tally[v] == 1]
        for with_loops in (True, False):
            _assert_walk_matches_reference(spec, cutoff, with_loops)
            with pytest.MonkeyPatch.context() as mp:
                _assert_budget_stop_matches_reference(
                    mp, spec, cutoff, alone[pick % len(alone)], with_loops
                )


def _bits(values):
    """Each value's type and shortest round-trip repr."""
    return [(type(v), repr(v)) for v in values]


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
