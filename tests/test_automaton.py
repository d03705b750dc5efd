"""Constraint automata against naive membership."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from dnccap import ResourceLimitError, parse_regex, parse_spec
from dnccap import automaton as am

from corpus import (
    NAIVE_CUTOFFS,
    load_channel,
    naive_accepts,
    reference_pattern_automaton,
)


def spec_with(constraint: dict, names=("0", "1")):
    return parse_spec(
        json.dumps(
            {
                "atoms": {"unit": 1.0},
                "symbols": [{"name": n, "weight": {"unit": 1}} for n in names],
                "constraint": constraint,
            }
        )
    )


def all_strings(names, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(names, repeat=n)


def assert_language_matches(spec, max_len=8):
    machine = am.for_spec(spec)
    for seq in all_strings(spec.symbol_names(), max_len):
        assert machine.accepts(seq) == naive_accepts(spec, seq), seq


class TestFree:
    def test_single_state(self):
        machine = am.for_spec(spec_with({"type": "free"}))
        assert machine.n_states == 1
        assert machine.accepts(("0", "1", "1", "0"))
        assert machine.accepts(())


class TestPatterns:
    def test_avoid_11_has_two_states(self):
        machine = am.for_spec(
            spec_with({"type": "forbidden", "patterns": ["11"]})
        )
        assert machine.n_states == 2
        assert machine.accepts(("0", "1", "0", "1"))
        assert not machine.accepts(("0", "1", "1"))

    @pytest.mark.parametrize(
        "patterns",
        [["11"], ["101"], ["111"], ["11", "000"], ["01", "1"], ["0", "00"]],
    )
    def test_language_matches_naive(self, patterns):
        assert_language_matches(
            spec_with({"type": "forbidden", "patterns": patterns})
        )

    def test_pattern_inside_prefix_of_another(self):
        # "0010" contains "00", so avoiding both equals avoiding "00" alone;
        # the redundant states must be trimmed away, not just unreachable.
        both = am.for_spec(
            spec_with({"type": "forbidden", "patterns": ["00", "0010"]})
        )
        alone = am.for_spec(spec_with({"type": "forbidden", "patterns": ["00"]}))
        assert both.n_states == alone.n_states
        for seq in all_strings(("0", "1"), 8):
            assert both.accepts(seq) == alone.accepts(seq)

    def test_everything_dead_except_safe_prefixes(self):
        machine = am.for_spec(
            spec_with({"type": "forbidden", "patterns": ["01", "1"]})
        )
        assert machine.accepts(("0", "0", "0"))
        assert not machine.accepts(("1",))
        assert not machine.accepts(("0", "1"))


@st.composite
def pattern_sets(draw):
    """1-4 symbol names and 1-5 patterns over them of length 1-6."""
    names = tuple(str(i) for i in range(draw(st.integers(1, 4))))
    pattern = st.lists(st.sampled_from(names), min_size=1, max_size=6).map(tuple)
    return names, tuple(draw(st.lists(pattern, min_size=1, max_size=5)))


def construction(build, names, patterns):
    try:
        machine = build(names, patterns)
    except ValueError as exc:
        return "ValueError", str(exc)
    return machine.transitions, machine.initial, machine.accepting


class TestPrefixConstruction:
    @settings(max_examples=500, deadline=None)
    @given(pattern_sets())
    # "01" is a proper prefix of "011" that ends in the pattern "1": the
    # move from "0" on "1" must be cut although "01" is no pattern.
    @example((("0", "1"), (("1",), ("0", "1", "1"))))
    @example((("0", "1"), (("0", "0"), ("0", "0", "1", "0"))))
    def test_equals_aho_corasick(self, case):
        names, patterns = case
        assert construction(am._pattern_automaton, names, patterns) == construction(
            reference_pattern_automaton, names, patterns
        )


REGEXES = [
    "(ε|1)(0|01)*",
    "(0|01|011)*",
    "(00*1)*",
    "0*1*",
    "(0|1)*",
    "ε",
    "(0|00)*",
    "(01|10)*(ε|11)",
]


class TestRegex:
    @pytest.mark.parametrize("expr", REGEXES)
    def test_language_matches_naive(self, expr):
        assert_language_matches(
            spec_with({"type": "regex", "expr": expr, "unambiguous": True})
        )

    def test_minimization_matches_pattern_route(self):
        regex = am.for_spec(
            spec_with(
                {"type": "regex", "expr": "(ε|1)(0|01)*", "unambiguous": True}
            )
        )
        pattern = am.for_spec(spec_with({"type": "forbidden", "patterns": ["11"]}))
        assert regex.n_states == pattern.n_states == 2
        for seq in all_strings(("0", "1"), 8):
            assert regex.accepts(seq) == pattern.accepts(seq)

    def test_state_limit(self, monkeypatch):
        monkeypatch.setattr(am, "STATE_LIMIT", 2)
        spec = spec_with(
            {"type": "regex", "expr": "(ε|1)(0|01)*", "unambiguous": True}
        )
        with pytest.raises(ResourceLimitError):
            am.for_spec(spec)

    def test_three_symbol_alphabet(self):
        spec = parse_spec(
            json.dumps(
                {
                    "atoms": {"unit": 1.0},
                    "symbols": [
                        {"name": n, "weight": {"unit": 1}} for n in ("a", "b", "c")
                    ],
                    "constraint": {
                        "type": "regex",
                        "expr": "a*b*c*",
                        "unambiguous": True,
                    },
                }
            )
        )
        assert_language_matches(spec, max_len=6)


class TestCorpusChannels:
    @pytest.mark.parametrize("name", sorted(NAIVE_CUTOFFS))
    def test_membership_matches_naive(self, name):
        assert_language_matches(load_channel(name), max_len=7)

    def test_identical_constraints_build_identical_automata(self):
        a = am.for_spec(load_channel("avoid11.json"))
        b = am.for_spec(load_channel("avoid11.json"))
        assert a.transitions == b.transitions
        assert a.accepting == b.accepting
