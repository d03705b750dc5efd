"""Channel specifications: a weighted alphabet plus a string constraint.

Document format (JSON, UTF-8):

    {
      "atoms":   {"unit": 1.0, "pi": 3.141592653589793},
      "symbols": [{"name": "0", "weight": {"unit": 1}},
                  {"name": "1", "weight": {"pi": 1}}],
      "constraint": {"type": "free"}
                  | {"type": "forbidden", "patterns": ["11", "101"]}
                  | {"type": "regex", "expr": "(ε|1)(0|01)*", "unambiguous": true}
    }

Atom names are identifiers; atom values are positive finite reals. Symbol
weights are integer multiplicity maps over the atoms and must come out
numerically positive. Regex constraints must declare "unambiguous": true,
the author's claim that the expression denotes each string exactly once;
it is trusted, and only `capacity --verify` checks it by enumeration.

Regex grammar: union over '|', concatenation by juxtaposition (or spaces),
postfix '*', parentheses, and 'ε' for the empty string. When every symbol
name is a single character, symbols concatenate without separators ("01");
otherwise tokens are whitespace-separated exact names.

Parse errors carry a source position: line/column for JSON syntax, a JSON
path for semantic problems, a character offset for regex problems.
"""

from __future__ import annotations

import json
import math
import re

from ._record import Record, set_slot as _set
from .errors import SpecError
from .genpoly import WeightBasis, WeightVector


# --- regex abstract syntax ---------------------------------------------------


class Epsilon(Record):
    __slots__ = ()


class Symbol(Record):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Union(Record):
    __slots__ = ("parts",)
    parts: tuple[RegexNode, ...]

    def __init__(self, parts: tuple[RegexNode, ...]) -> None:
        _set(self, "parts", parts)


class Concat(Record):
    __slots__ = ("parts",)
    parts: tuple[RegexNode, ...]

    def __init__(self, parts: tuple[RegexNode, ...]) -> None:
        _set(self, "parts", parts)


class Star(Record):
    __slots__ = ("child",)
    child: RegexNode

    def __init__(self, child: RegexNode) -> None:
        _set(self, "child", child)


RegexNode = Epsilon | Symbol | Union | Concat | Star


def union_of(parts: list[RegexNode]) -> RegexNode:
    if not parts:
        raise ValueError("union of nothing")
    return parts[0] if len(parts) == 1 else Union(tuple(parts))


def concat_of(parts: list[RegexNode]) -> RegexNode:
    if not parts:
        raise ValueError("concatenation of nothing")
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


# --- constraint kinds and the spec itself ------------------------------------


class Free(Record):
    __slots__ = ()


class ForbiddenPatterns(Record):
    __slots__ = ("patterns",)
    patterns: tuple[tuple[str, ...], ...]

    def __init__(self, patterns: tuple[tuple[str, ...], ...]) -> None:
        _set(self, "patterns", patterns)


class Regex(Record):
    __slots__ = ("expr",)
    expr: RegexNode

    def __init__(self, expr: RegexNode) -> None:
        _set(self, "expr", expr)


ConstraintKind = Free | ForbiddenPatterns | Regex


class SymbolDef(Record):
    __slots__ = ("name", "weight")
    name: str
    weight: WeightVector

    def __init__(self, name: str, weight: WeightVector) -> None:
        _set(self, "name", name)
        _set(self, "weight", weight)


class ChannelSpec(Record):
    __slots__ = ("basis", "symbols", "constraint")
    basis: WeightBasis
    symbols: tuple[SymbolDef, ...]
    constraint: ConstraintKind

    def __init__(
        self, basis: WeightBasis, symbols: tuple[SymbolDef, ...], constraint: ConstraintKind
    ) -> None:
        if not symbols:
            raise ValueError("a channel needs at least one symbol")
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        for s in symbols:
            if not s.name:
                raise ValueError("symbol names must be nonempty")
            if s.weight.value(basis) <= 0.0:
                raise ValueError(f"symbol {s.name!r} must have positive weight")
        _set(self, "basis", basis)
        _set(self, "symbols", symbols)
        _set(self, "constraint", constraint)

    def symbol_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.symbols)

    def weight_of(self, name: str) -> WeightVector:
        for s in self.symbols:
            if s.name == name:
                return s.weight
        raise KeyError(f"no symbol named {name!r}")

    def value_of(self, name: str) -> float:
        return self.weight_of(name).value(self.basis)

    @property
    def single_char_names(self) -> bool:
        return all(len(s.name) == 1 for s in self.symbols)


# --- regex parsing ------------------------------------------------------------

_SPECIALS = "()|*"
_EPSILON = "ε"


def _tokenize_regex(expr: str, names: frozenset[str], single: bool):
    """Yield (kind, text, offset) tokens; kinds are the literal special
    characters, 'eps', 'name', and a final 'end'."""
    tokens = []
    i = 0
    n = len(expr)
    while i < n:
        ch = expr[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SPECIALS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == _EPSILON:
            tokens.append(("eps", ch, i))
            i += 1
            continue
        if single:
            if ch in names:
                tokens.append(("name", ch, i))
                i += 1
                continue
            raise SpecError(f"regex offset {i}: undeclared symbol {ch!r}")
        j = i
        while j < n and not expr[j].isspace() and expr[j] not in _SPECIALS and expr[j] != _EPSILON:
            j += 1
        word = expr[i:j]
        if word not in names:
            raise SpecError(f"regex offset {i}: undeclared symbol {word!r}")
        tokens.append(("name", word, i))
        i = j
    tokens.append(("end", "", n))
    return tokens


class _RegexParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> RegexNode:
        node = self.union()
        kind, text, off = self.tokens[self.pos]
        if kind == ")":
            raise SpecError(f"regex offset {off}: unbalanced ')'")
        if kind != "end":
            raise SpecError(f"regex offset {off}: unexpected {text!r}")
        return node

    def union(self) -> RegexNode:
        parts = [self.concat()]
        while self.peek() == "|":
            self.advance()
            parts.append(self.concat())
        return union_of(parts)

    def concat(self) -> RegexNode:
        parts = []
        while self.peek() in ("(", "eps", "name"):
            parts.append(self.postfix())
        if not parts:
            kind, text, off = self.tokens[self.pos]
            what = repr(text) if text else "end of expression"
            raise SpecError(f"regex offset {off}: expected a term, found {what}")
        return concat_of(parts)

    def postfix(self) -> RegexNode:
        node = self.atom()
        while self.peek() == "*":
            self.advance()
            node = Star(node)
        return node

    def atom(self) -> RegexNode:
        kind, text, off = self.advance()
        if kind == "(":
            node = self.union()
            k2, _, off2 = self.tokens[self.pos]
            if k2 != ")":
                raise SpecError(f"regex offset {off}: unbalanced '('")
            self.advance()
            return node
        if kind == "eps":
            return Epsilon()
        if kind == "name":
            return Symbol(text)
        raise SpecError(f"regex offset {off}: unexpected {text!r}")


def parse_regex(expr: str, symbol_names) -> RegexNode:
    """Parse a regex over the given symbol names into its syntax tree."""
    names = frozenset(symbol_names)
    if not names:
        raise SpecError("regex offset 0: no symbols declared")
    single = all(len(n) == 1 for n in names)
    tokens = _tokenize_regex(expr, names, single)
    try:
        return _RegexParser(tokens).parse()
    except RecursionError:
        raise SpecError("regex offset 0: expression nests too deeply") from None


def _render_regex(node: RegexNode, parent_prec: int, sep: str) -> str:
    # Precedence: union 1, concat 2, star 3, leaves 4. A child at or below
    # its parent's level gets parentheses so parsing recovers this exact tree.
    if isinstance(node, Epsilon):
        return _EPSILON
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Star):
        text, prec = _render_regex(node.child, 3, sep) + "*", 3
    elif isinstance(node, Concat):
        text, prec = sep.join(_render_regex(p, 2, sep) for p in node.parts), 2
    elif isinstance(node, Union):
        text, prec = "|".join(_render_regex(p, 1, sep) for p in node.parts), 1
    else:
        raise TypeError(f"not a regex node: {node!r}")
    return f"({text})" if prec <= parent_prec else text


def render_regex(node: RegexNode, *, single_char_names: bool = True) -> str:
    return _render_regex(node, 0, "" if single_char_names else " ")


# --- pattern tokenization -----------------------------------------------------


def tokenize_pattern(text: str, symbol_names, where: str) -> tuple[str, ...]:
    """Split a pattern string into declared symbol names."""
    names = frozenset(symbol_names)
    single = all(len(n) == 1 for n in names)
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if single:
            if ch not in names:
                raise SpecError(f"{where}: undeclared symbol {ch!r} at offset {i}")
            out.append(ch)
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        word = text[i:j]
        if word not in names:
            raise SpecError(f"{where}: undeclared symbol {word!r} at offset {i}")
        out.append(word)
        i = j
    if not out:
        raise SpecError(f"{where}: pattern is empty")
    return tuple(out)


# --- JSON document parsing ----------------------------------------------------

_ATOM_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SYMBOL_FORBIDDEN = set(_SPECIALS) | {_EPSILON}


def _require_object(value, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(value, dict):
        raise SpecError(f"{where}: expected an object")
    for key in required:
        if key not in value:
            raise SpecError(f"{where}: missing required key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise SpecError(f"{where}: unknown key {key!r}")
    return value


def _parse_atoms(doc, where: str) -> WeightBasis:
    if not isinstance(doc, dict):
        raise SpecError(f"{where}: expected an object of atom values")
    atoms = []
    for name, raw in doc.items():
        if not _ATOM_NAME.match(name):
            raise SpecError(f"{where}.{name}: atom names must be identifiers")
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise SpecError(f"{where}.{name}: atom value must be a number")
        value = float(raw)
        if not value > 0.0 or math.isinf(value):
            raise SpecError(f"{where}.{name}: atom value must be positive and finite")
        atoms.append((name, value))
    try:
        return WeightBasis.from_mapping(dict(atoms))
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_symbols(doc, basis: WeightBasis, where: str) -> tuple[SymbolDef, ...]:
    if not isinstance(doc, list) or not doc:
        raise SpecError(f"{where}: expected a nonempty array of symbols")
    symbols = []
    seen = set()
    for i, entry in enumerate(doc):
        here = f"{where}[{i}]"
        obj = _require_object(entry, here, ("name", "weight"))
        name = obj["name"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"{here}.name: symbol names must be nonempty strings")
        if any(ch.isspace() or ch in _SYMBOL_FORBIDDEN for ch in name):
            raise SpecError(
                f"{here}.name: symbol name {name!r} may not contain whitespace or ()|*{_EPSILON}"
            )
        if name in seen:
            raise SpecError(f"{here}.name: duplicate symbol {name!r}")
        seen.add(name)
        weight_doc = obj["weight"]
        if not isinstance(weight_doc, dict):
            raise SpecError(f"{here}.weight: expected an object of atom multiplicities")
        mapping = {}
        for atom, mult in weight_doc.items():
            if isinstance(mult, bool) or not isinstance(mult, int):
                raise SpecError(f"{here}.weight.{atom}: multiplicity must be an integer")
            if mult < 0:
                raise SpecError(f"{here}.weight.{atom}: multiplicity must be nonnegative")
            try:
                basis.index(atom)
            except KeyError:
                raise SpecError(f"{here}.weight.{atom}: undeclared atom {atom!r}") from None
            mapping[atom] = mult
        wv = WeightVector.from_mapping(basis, mapping)
        if wv.value(basis) <= 0.0:
            raise SpecError(f"{here}.weight: symbol {name!r} must have positive total weight")
        symbols.append(SymbolDef(name, wv))
    return tuple(symbols)


def _parse_constraint(doc, names, where: str) -> ConstraintKind:
    if not isinstance(doc, dict):
        raise SpecError(f"{where}: expected an object")
    kind = doc.get("type")
    if kind == "free":
        _require_object(doc, where, ("type",))
        return Free()
    if kind == "forbidden":
        _require_object(doc, where, ("type", "patterns"))
        raw = doc["patterns"]
        if not isinstance(raw, list) or not raw:
            raise SpecError(f"{where}.patterns: expected a nonempty array of patterns")
        patterns = []
        for i, pat in enumerate(raw):
            here = f"{where}.patterns[{i}]"
            if not isinstance(pat, str):
                raise SpecError(f"{here}: patterns must be strings")
            patterns.append(tokenize_pattern(pat, names, here))
        return ForbiddenPatterns(tuple(patterns))
    if kind == "regex":
        _require_object(doc, where, ("type", "expr", "unambiguous"))
        if doc["unambiguous"] is not True:
            raise SpecError(
                f"{where}.unambiguous: regex constraints must declare "
                '"unambiguous": true; counting is only valid for unambiguous '
                "expressions and the claim is cross-checked empirically"
            )
        expr = doc["expr"]
        if not isinstance(expr, str):
            raise SpecError(f"{where}.expr: expected a string")
        return Regex(parse_regex(expr, names))
    raise SpecError(f"{where}.type: expected 'free', 'forbidden', or 'regex', got {kind!r}")


def parse_spec(text) -> ChannelSpec:
    """Parse a channel spec document from a JSON string or bytes."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecError(f"byte offset {exc.start}: document is not valid UTF-8") from exc
    if not isinstance(text, str):
        raise SpecError("document root: expected a JSON string or bytes")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise SpecError("line 1, column 1: document nests too deeply") from None
    _require_object(doc, "document root", ("atoms", "symbols", "constraint"))
    basis = _parse_atoms(doc["atoms"], "atoms")
    symbols = _parse_symbols(doc["symbols"], basis, "symbols")
    names = tuple(s.name for s in symbols)
    constraint = _parse_constraint(doc["constraint"], names, "constraint")
    try:
        return ChannelSpec(basis, symbols, constraint)
    except ValueError as exc:
        raise SpecError(f"document root: {exc}") from exc


def load_spec(path) -> ChannelSpec:
    """Read and parse a channel spec file."""
    with open(path, "rb") as fh:
        return parse_spec(fh.read())


# --- rendering ----------------------------------------------------------------


def render_pattern(pattern: tuple[str, ...], *, single_char_names: bool = True) -> str:
    return ("" if single_char_names else " ").join(pattern)


def render_spec(spec: ChannelSpec) -> str:
    """Serialize a spec to JSON text; parse_spec(render_spec(s)) == s."""
    single = spec.single_char_names
    if isinstance(spec.constraint, Free):
        constraint = {"type": "free"}
    elif isinstance(spec.constraint, ForbiddenPatterns):
        constraint = {
            "type": "forbidden",
            "patterns": [
                render_pattern(p, single_char_names=single)
                for p in spec.constraint.patterns
            ],
        }
    elif isinstance(spec.constraint, Regex):
        constraint = {
            "type": "regex",
            "expr": render_regex(spec.constraint.expr, single_char_names=single),
            "unambiguous": True,
        }
    else:
        raise TypeError(f"not a constraint: {spec.constraint!r}")
    doc = {
        "atoms": {a.name: a.value for a in spec.basis.atoms},
        "symbols": [
            {"name": s.name, "weight": s.weight.as_mapping(spec.basis)}
            for s in spec.symbols
        ],
        "constraint": constraint,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False)
