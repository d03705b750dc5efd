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
postfix '*', parentheses, and 'ε' for the empty string. Symbol names may not
contain whitespace, '()|*' or 'ε'. How text splits into names:

- When every symbol name is a single character, each character is one name,
  so symbols concatenate without separators ("01"). Whitespace is skipped,
  and in a regex '()|*' and 'ε' are operators.
- Otherwise a name in a regex is a run of characters with no whitespace,
  '()|*' or 'ε' ("(dot|dash)* lspace"), and a name in a pattern is a
  whitespace-separated word ("lspace wspace").

Every name must be declared.

Parse errors carry a source position: line/column for JSON syntax, a JSON
path for semantic problems, a character offset for regex problems.
"""

from __future__ import annotations

import json
import math
import re
from operator import mul

from ._record import Record, set_slot as _set
from .errors import SpecError
from .genpoly import WeightAtom, WeightBasis, WeightVector, left_sum


# --- regex abstract syntax ---------------------------------------------------


class Epsilon(Record):
    __slots__ = ()


class Symbol(Record):
    __slots__ = ("name",)
    name: str


class Union(Record):
    __slots__ = ("parts",)
    parts: tuple[RegexNode, ...]


class Concat(Record):
    __slots__ = ("parts",)
    parts: tuple[RegexNode, ...]


class Star(Record):
    __slots__ = ("child",)
    child: RegexNode


RegexNode = Epsilon | Symbol | Union | Concat | Star


def union_of(parts: list[RegexNode]) -> RegexNode:
    if not parts:
        raise ValueError("union of nothing")
    return parts[0] if len(parts) == 1 else Union._unchecked(tuple(parts))


def concat_of(parts: list[RegexNode]) -> RegexNode:
    if not parts:
        raise ValueError("concatenation of nothing")
    return parts[0] if len(parts) == 1 else Concat._unchecked(tuple(parts))


# The parser builds its nodes past Record.__init__, which checks nothing
# for them. One Epsilon node serves every occurrence.
_symbol, _star = Symbol._unchecked, Star._unchecked
_EPSILON_NODE = Epsilon._unchecked()


# --- constraint kinds and the spec itself ------------------------------------


class Free(Record):
    __slots__ = ()


class ForbiddenPatterns(Record):
    __slots__ = ("patterns",)
    patterns: tuple[tuple[str, ...], ...]


class Regex(Record):
    __slots__ = ("expr",)
    expr: RegexNode


ConstraintKind = Free | ForbiddenPatterns | Regex


class SymbolDef(Record):
    __slots__ = ("name", "weight")
    name: str
    weight: WeightVector


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
            total = s.weight.value(basis)
            if total <= 0.0:
                raise ValueError(f"symbol {s.name!r} must have positive weight")
            if math.isinf(total):
                raise ValueError(f"symbol {s.name!r} must have finite weight")
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

_EPSILON = "ε"

# What a symbol name may not contain: a character for which str.isspace()
# is true (re's \s matches exactly those), a regex special character or
# the empty-string sign. A regex name token is one character outside this
# class when every name is one character, else a run of them.
_NOT_NAME = r"\s()|*" + _EPSILON
_SYMBOL_FORBIDDEN = re.compile(f"[{_NOT_NAME}]")
_REGEX_NAME = {True: re.compile(f"[^{_NOT_NAME}]"), False: re.compile(f"[^{_NOT_NAME}]+")}


def _check_symbols(expr: str, i: int, names: frozenset[str], single: bool) -> None:
    """Raise the first undeclared symbol from offset i on, a token start."""
    for m in _REGEX_NAME[single].finditer(expr, i):
        if m[0] not in names:
            raise SpecError(f"regex offset {m.start()}: undeclared symbol {m[0]!r}")


class _RegexParser:
    """Recursive descent over the expression string, at offset `i`.

    Symbols, ε, parenthesized groups and stars are read in place in
    `concat`, with no token list, and each symbol's node is built once and
    shared (records are immutable). A group costs two calls a level, union
    and concat, so at Python's default recursion limit of 1000 groups nest
    496 deep; past the limit, parse_regex raises a SpecError. An undeclared
    symbol anywhere in the expression takes precedence over a syntax
    error, as it does when the whole expression is checked for symbols
    before it is parsed.
    """

    __slots__ = ("expr", "n", "names", "single", "i", "symbols")

    def __init__(self, expr: str, names: frozenset[str], single: bool):
        self.expr = expr
        self.n = len(expr)
        self.names = names
        self.single = single
        self.i = 0
        self.symbols: dict[str, Symbol] = {}

    def fail(self, offset: int, message: str):
        _check_symbols(self.expr, self.i, self.names, self.single)
        raise SpecError(f"regex offset {offset}: {message}")

    def parse(self) -> RegexNode:
        node = self.union()
        if self.i < self.n:
            # union stops only at the end or at a ')'.
            self.fail(self.i, "unbalanced ')'")
        return node

    def union(self) -> RegexNode:
        parts = [self.concat()]
        # concat leaves i at the end or at a '|' or ')'.
        while self.i < self.n and self.expr[self.i] == "|":
            self.i += 1
            parts.append(self.concat())
        return union_of(parts)

    def concat(self) -> RegexNode:
        expr, n = self.expr, self.n
        parts = []
        i = self.i
        while True:
            while i < n and expr[i].isspace():
                i += 1
            if i == n:
                break
            ch = expr[i]
            if ch == "(":
                self.i = i + 1
                node = self.union()
                if self.i == n:
                    self.fail(i, "unbalanced '('")
                i = self.i + 1
            elif ch in "|)*":
                break
            elif ch == _EPSILON:
                node = _EPSILON_NODE
                i += 1
            else:
                j = i + 1 if self.single else _REGEX_NAME[False].match(expr, i).end()
                name = expr[i:j]
                node = self.symbols.get(name)
                if node is None:
                    if name not in self.names:
                        raise SpecError(f"regex offset {i}: undeclared symbol {name!r}")
                    node = self.symbols[name] = _symbol(name)
                i = j
            while True:
                while i < n and expr[i].isspace():
                    i += 1
                if i == n or expr[i] != "*":
                    break
                node = _star(node)
                i += 1
            parts.append(node)
        self.i = i
        if not parts:
            found = repr(expr[i]) if i < n else "end of expression"
            self.fail(i, f"expected a term, found {found}")
        return concat_of(parts)


def parse_regex(expr: str, symbol_names) -> RegexNode:
    """Parse a regex over the given symbol names into its syntax tree."""
    names = frozenset(symbol_names)
    if not names:
        raise SpecError("regex offset 0: no symbols declared")
    single = all(len(n) == 1 for n in names)
    try:
        return _RegexParser(expr, names, single).parse()
    except RecursionError:
        _check_symbols(expr, 0, names, single)
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


# A pattern name token: one character when every name is one character,
# else a whitespace-separated word.
_PATTERN_NAME = {True: re.compile(r"\S"), False: re.compile(r"\S+")}


def tokenize_pattern(text: str, symbol_names, where: str) -> tuple[str, ...]:
    """Split a pattern string into declared symbol names."""
    names = frozenset(symbol_names)
    single = all(len(n) == 1 for n in names)
    if single and text and names.issuperset(text):
        # Every character is a name, and no name is whitespace.
        return tuple(text)
    out = []
    for m in _PATTERN_NAME[single].finditer(text):
        if m[0] not in names:
            raise SpecError(f"{where}: undeclared symbol {m[0]!r} at offset {m.start()}")
        out.append(m[0])
    if not out:
        raise SpecError(f"{where}: pattern is empty")
    return tuple(out)


# --- JSON document parsing ----------------------------------------------------

_SYMBOL_KEYS = {"name", "weight"}

# json.loads builds exactly dict, list, str, int, float, bool and None, so
# the parser tests a value's type with `type(x) is`; bool is not int there.


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
    if type(doc) is not dict:
        raise SpecError(f"{where}: expected an object of atom values")
    new = object.__new__
    inf = math.inf
    atoms = []
    for name, raw in doc.items():
        # An ASCII Python identifier is exactly [A-Za-z_][A-Za-z0-9_]*.
        if not (name.isascii() and name.isidentifier()):
            raise SpecError(f"{where}.{name}: atom names must be identifiers")
        kind = type(raw)
        if kind is float:
            value = raw
        elif kind is int:
            try:
                value = float(raw)
            except OverflowError:
                value = inf
        else:
            raise SpecError(f"{where}.{name}: atom value must be a number")
        if not value > 0.0 or value == inf:
            raise SpecError(f"{where}.{name}: atom value must be positive and finite")
        # The name and value are checked above: the record is built past
        # its constructor by writing its two slots.
        atom = new(WeightAtom)
        _set(atom, "name", name)
        _set(atom, "value", value)
        atoms.append(atom)
    return WeightBasis(atoms)


def _parse_symbols(doc, basis: WeightBasis, where: str) -> tuple[SymbolDef, ...]:
    if type(doc) is not list or not doc:
        raise SpecError(f"{where}: expected a nonempty array of symbols")
    symbols = []
    seen = set()
    index = basis._index
    values = basis._values
    size = len(values)
    forbidden = _SYMBOL_FORBIDDEN.search
    new = object.__new__
    vector = tuple.__new__
    inf = math.inf
    # An entry's position, f"{where}[{i}]", is spelt out only in an error.
    for i, entry in enumerate(doc):
        if type(entry) is not dict or entry.keys() != _SYMBOL_KEYS:
            _require_object(entry, f"{where}[{i}]", ("name", "weight"))  # raises
        name = entry["name"]
        if type(name) is not str or not name:
            raise SpecError(f"{where}[{i}].name: symbol names must be nonempty strings")
        if forbidden(name):
            raise SpecError(
                f"{where}[{i}].name: symbol name {name!r} may not contain whitespace "
                f"or ()|*{_EPSILON}"
            )
        if name in seen:
            raise SpecError(f"{where}[{i}].name: duplicate symbol {name!r}")
        seen.add(name)
        weight_doc = entry["weight"]
        if type(weight_doc) is not dict:
            raise SpecError(f"{where}[{i}].weight: expected an object of atom multiplicities")
        mults = [0] * size
        for atom, mult in weight_doc.items():
            if type(mult) is not int:
                raise SpecError(f"{where}[{i}].weight.{atom}: multiplicity must be an integer")
            if mult < 0:
                raise SpecError(f"{where}[{i}].weight.{atom}: multiplicity must be nonnegative")
            slot = index.get(atom)
            if slot is None:
                raise SpecError(f"{where}[{i}].weight.{atom}: undeclared atom {atom!r}")
            mults[slot] = mult
        # Each multiplicity was checked above, with its position. The
        # total is WeightVector.value's, inf past the float range.
        wv = vector(WeightVector, mults)
        total = left_sum(map(mul, wv, values))
        if total <= 0.0:
            raise SpecError(
                f"{where}[{i}].weight: symbol {name!r} must have positive total weight"
            )
        if total == inf:
            raise SpecError(f"{where}[{i}].weight: symbol {name!r} must have finite total weight")
        # Built past the constructor, as SymbolDef._unchecked would.
        symbol = new(SymbolDef)
        _set(symbol, "name", name)
        _set(symbol, "weight", wv)
        symbols.append(symbol)
    return tuple(symbols)


def _parse_constraint(doc, names: frozenset[str], where: str) -> ConstraintKind:
    if type(doc) is not dict:
        raise SpecError(f"{where}: expected an object")
    kind = doc.get("type")
    if kind == "free":
        _require_object(doc, where, ("type",))
        return Free._unchecked()
    if kind == "forbidden":
        _require_object(doc, where, ("type", "patterns"))
        raw = doc["patterns"]
        if type(raw) is not list or not raw:
            raise SpecError(f"{where}.patterns: expected a nonempty array of patterns")
        patterns = []
        for i, pat in enumerate(raw):
            here = f"{where}.patterns[{i}]"
            if type(pat) is not str:
                raise SpecError(f"{here}: patterns must be strings")
            patterns.append(tokenize_pattern(pat, names, here))
        return ForbiddenPatterns._unchecked(tuple(patterns))
    if kind == "regex":
        _require_object(doc, where, ("type", "expr", "unambiguous"))
        if doc["unambiguous"] is not True:
            raise SpecError(
                f"{where}.unambiguous: regex constraints must declare "
                '"unambiguous": true; counting is only valid for unambiguous '
                "expressions and the claim is cross-checked empirically"
            )
        expr = doc["expr"]
        if type(expr) is not str:
            raise SpecError(f"{where}.expr: expected a string")
        return Regex._unchecked(parse_regex(expr, names))
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
    # A frozenset, which parse_regex and tokenize_pattern take as it is.
    names = frozenset([s.name for s in symbols])
    constraint = _parse_constraint(doc["constraint"], names, "constraint")
    # _parse_symbols checked what ChannelSpec checks: at least one symbol,
    # distinct nonempty names, each weight positive and finite.
    return ChannelSpec._unchecked(basis, symbols, constraint)


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
