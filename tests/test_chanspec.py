"""Spec document parsing, regex parsing, and round-trips."""

from __future__ import annotations

import json
import math
import re
import sys

import pytest

from dnccap import SpecError, parse_regex, parse_spec, render_regex, render_spec
from dnccap.chanspec import (
    ChannelSpec,
    Concat,
    Epsilon,
    ForbiddenPatterns,
    Free,
    Regex,
    Star,
    Symbol,
    SymbolDef,
    Union,
    _SYMBOL_FORBIDDEN,
)
from dnccap.genpoly import WeightBasis, WeightVector

from corpus import CHANNELS_DIR, SHIPPED_CUTOFFS, load_channel


def doc(**overrides) -> str:
    base = {
        "atoms": {"unit": 1.0},
        "symbols": [
            {"name": "0", "weight": {"unit": 1}},
            {"name": "1", "weight": {"unit": 1}},
        ],
        "constraint": {"type": "free"},
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseSpec:
    def test_basic_structure(self):
        spec = parse_spec(doc())
        assert spec.symbol_names() == ("0", "1")
        assert spec.basis.names() == ("unit",)
        assert spec.constraint == Free()
        assert spec.value_of("0") == 1.0

    def test_atom_order_is_document_order(self):
        spec = parse_spec(
            doc(atoms={"pi": math.pi, "unit": 1.0},
                symbols=[{"name": "a", "weight": {"unit": 1, "pi": 2}}])
        )
        assert spec.basis.names() == ("pi", "unit")
        assert spec.weight_of("a").mults == (2, 1)

    def test_accepts_bytes(self):
        spec = parse_spec(doc().encode("utf-8"))
        assert spec.symbol_names() == ("0", "1")

    def test_forbidden_patterns_tokenized(self):
        spec = parse_spec(doc(constraint={"type": "forbidden", "patterns": ["101"]}))
        assert spec.constraint == ForbiddenPatterns((("1", "0", "1"),))

    def test_regex_ast(self):
        spec = parse_spec(
            doc(constraint={"type": "regex", "expr": "(ε|1)(0|01)*",
                            "unambiguous": True})
        )
        expected = Concat(
            (
                Union((Epsilon(), Symbol("1"))),
                Star(Union((Symbol("0"), Concat((Symbol("0"), Symbol("1")))))),
            )
        )
        assert spec.constraint == Regex(expected)

    def test_multichar_symbol_names(self):
        spec = parse_spec(
            json.dumps(
                {
                    "atoms": {"unit": 1.0},
                    "symbols": [
                        {"name": "go", "weight": {"unit": 1}},
                        {"name": "stop", "weight": {"unit": 2}},
                    ],
                    "constraint": {
                        "type": "regex",
                        "expr": "(go stop|go)*",
                        "unambiguous": True,
                    },
                }
            )
        )
        inner = Union((Concat((Symbol("go"), Symbol("stop"))), Symbol("go")))
        assert spec.constraint == Regex(Star(inner))


ERROR_CASES = [
    ("not json at all", "line 1"),
    ('{"atoms": {}, "symbols": []}', "missing required key"),
    (doc(extra=1), "unknown key"),
    (doc(atoms={"1bad": 1.0}), "identifiers"),
    # A name matches in full: "$" alone also matches before a final newline.
    (doc(atoms={"u\n": 1.0}), "identifiers"),
    (doc(atoms={"unit": 0.0}), "positive"),
    (doc(atoms={"unit": -2}), "positive"),
    (doc(atoms={"unit": "x"}), "number"),
    (doc(symbols=[]), "nonempty array"),
    (doc(symbols=[{"name": "", "weight": {"unit": 1}}]), "nonempty"),
    (doc(symbols=[{"name": "a b", "weight": {"unit": 1}}]), "whitespace"),
    (doc(symbols=[{"name": "a*", "weight": {"unit": 1}}]), "may not contain"),
    (
        doc(symbols=[{"name": "0", "weight": {"unit": 1}},
                     {"name": "0", "weight": {"unit": 1}}]),
        "duplicate",
    ),
    (doc(symbols=[{"name": "0", "weight": {"unit": 1.5}}]), "integer"),
    (doc(symbols=[{"name": "0", "weight": {"unit": True}}]), "integer"),
    (doc(symbols=[{"name": "0", "weight": {"unit": -1}}]), "nonnegative"),
    (doc(symbols=[{"name": "0", "weight": {"other": 1}}]), "undeclared atom"),
    (doc(symbols=[{"name": "0", "weight": {}}]), "positive total weight"),
    # Numbers too large for a float, or whose weight overflows to inf.
    (doc(atoms={"unit": 10**400}), "atoms.unit: atom value must be positive and finite"),
    (
        doc(symbols=[{"name": "0", "weight": {"unit": 10**400}}]),
        "symbols[0].weight: symbol '0' must have finite total weight",
    ),
    (
        doc(atoms={"unit": 1e308}, symbols=[{"name": "0", "weight": {"unit": 1}},
                                            {"name": "1", "weight": {"unit": 10}}]),
        "symbols[1].weight: symbol '1' must have finite total weight",
    ),
    (doc(constraint={"type": "nope"}), "expected 'free'"),
    (doc(constraint={"type": "forbidden", "patterns": []}), "nonempty"),
    (doc(constraint={"type": "forbidden", "patterns": [""]}), "pattern is empty"),
    (doc(constraint={"type": "forbidden", "patterns": ["12"]}), "undeclared symbol"),
    (doc(constraint={"type": "regex", "expr": "0*"}), "missing required key"),
    (
        doc(constraint={"type": "regex", "expr": "0*", "unambiguous": False}),
        "unambiguous",
    ),
    (doc(constraint={"type": "regex", "expr": 5, "unambiguous": True}), "string"),
]


@pytest.mark.parametrize("text,needle", ERROR_CASES)
def test_parse_errors_are_positioned(text, needle):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "mult,needle", [(0, "positive weight"), (10, "finite weight"), (10**400, "finite weight")]
)
def test_channel_spec_checks_symbol_weights(mult, needle):
    basis = WeightBasis.from_mapping({"unit": 1e308})
    with pytest.raises(ValueError, match=needle):
        ChannelSpec(basis, (SymbolDef("0", WeightVector((mult,))),), Free())


def test_symbol_name_class_rejects_exactly_whitespace_and_regex_characters():
    # One character class stands for `ch.isspace() or ch in "()|*ε"`.
    differ = [
        hex(code)
        for code in range(sys.maxunicode + 1)
        if bool(_SYMBOL_FORBIDDEN.search(chr(code)))
        != (chr(code).isspace() or chr(code) in "()|*ε")
    ]
    assert differ == []


def test_atom_names_are_exactly_the_ascii_identifiers():
    # The parser's `isascii() and isidentifier()` stands for a full match of
    # [A-Za-z_][A-Za-z0-9_]*: every one- and two-character string over
    # ASCII and a few other characters agrees.
    pattern = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    chars = [chr(code) for code in range(128)] + ["é", "ß", "π", "٣", "ε", "\u2028"]
    names = chars + [a + b for a in chars for b in chars]
    differ = [
        name
        for name in names
        if (name.isascii() and name.isidentifier()) != bool(pattern.fullmatch(name))
    ]
    assert differ == []
    for name in ("é", "a٣", "_1"):
        text = doc(atoms={name: 1.0}, symbols=[{"name": "0", "weight": {name: 1}}])
        if pattern.fullmatch(name):
            parse_spec(text)
        else:
            with pytest.raises(SpecError, match="atom names must be identifiers"):
                parse_spec(text)


def test_invalid_utf8_is_a_spec_error():
    with pytest.raises(SpecError, match="UTF-8"):
        parse_spec(b'{"atoms": \xff}')


def test_json_syntax_error_carries_position():
    with pytest.raises(SpecError, match=r"line \d+, column \d+"):
        parse_spec('{"atoms": {,}}')


class TestParseRegex:
    NAMES = ("0", "1")

    def parse(self, expr):
        return parse_regex(expr, self.NAMES)

    def test_epsilon(self):
        assert self.parse("ε") == Epsilon()

    def test_redundant_parens_collapse(self):
        assert self.parse("((0))") == Symbol("0")

    def test_star_binds_tighter_than_concat(self):
        assert self.parse("01*") == Concat((Symbol("0"), Star(Symbol("1"))))

    def test_union_binds_loosest(self):
        assert self.parse("0|10*") == Union(
            (Symbol("0"), Concat((Symbol("1"), Star(Symbol("0")))))
        )

    def test_double_star(self):
        assert self.parse("0**") == Star(Star(Symbol("0")))

    def test_whitespace_ignored(self):
        assert self.parse(" 0 | 1 ") == Union((Symbol("0"), Symbol("1")))

    @pytest.mark.parametrize(
        "expr,needle",
        [
            ("(0", "unbalanced '('"),
            ("0)", "unbalanced ')'"),
            ("|0", "expected a term"),
            ("0|", "expected a term"),
            ("*", "expected a term"),
            ("", "expected a term"),
            ("()", "expected a term"),
            ("2", "undeclared symbol"),
            ("0 2", "undeclared symbol"),
        ],
    )
    def test_errors_carry_offsets(self, expr, needle):
        with pytest.raises(SpecError) as err:
            self.parse(expr)
        message = str(err.value)
        assert needle in message
        assert "offset" in message

    def test_deep_nesting_is_rejected_not_crashing(self):
        expr = "(" * 100_000 + "0" + ")" * 100_000
        with pytest.raises(SpecError):
            self.parse(expr)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SHIPPED_CUTOFFS))
    def test_shipped_channels(self, name):
        spec = load_channel(name)
        assert parse_spec(render_spec(spec)) == spec

    def test_rendered_file_matches_parse(self):
        # rendering is canonical: a re-render of a re-parse is identical text
        spec = load_channel("ex2.json")
        text = render_spec(spec)
        assert render_spec(parse_spec(text)) == text

    def test_regex_render_preserves_structure(self):
        tree = Union(
            (
                Union((Symbol("0"), Symbol("1"))),
                Concat((Symbol("0"), Star(Symbol("1")))),
            )
        )
        rendered = render_regex(tree)
        assert parse_regex(rendered, ("0", "1")) == tree

    def test_multichar_render_uses_spaces(self):
        tree = Concat((Symbol("go"), Symbol("stop")))
        rendered = render_regex(tree, single_char_names=False)
        assert parse_regex(rendered, ("go", "stop")) == tree
