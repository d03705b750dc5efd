"""Closed-form generating functions for channel specs.

Each builder produces a RationalGF whose exact expansion counts the
channel's strings by total weight:

  gf_free_monoid         1 / (1 - f) for an unconstrained alphabet, f the
                         sum of the symbol monomials y**w(s)
  gf_forbidden_patterns  Goulden-Jackson cluster quotient for any forbidden
                         set, alphabet and weights
  gf_from_regex          structural translation of an unambiguous regex:
                         union adds, concatenation multiplies, star of S
                         becomes den(S) / (den(S) - num(S))

`build_gf` dispatches on the constraint kind. The regex route trusts the
declared unambiguity; only `capacity --verify` checks it, by enumeration.

The builders compute on term dicts with genpoly's term kernel, the
arithmetic behind the polynomial operators, so terms and their order are
those of the same construction on polynomials; each numerator and
denominator becomes a GeneralizedPolynomial once, at the end.
"""

from __future__ import annotations

import math

from .chanspec import (
    ChannelSpec,
    Concat,
    Epsilon,
    ForbiddenPatterns,
    Free,
    Regex,
    RegexNode,
    Star,
    Symbol,
    Union,
)
from .errors import ResourceLimitError, SpecError, UnsupportedChannelError
from .genpoly import GeneralizedPolynomial, RationalGF, WeightVector, term_product, term_sum

# Most reduced forbidden patterns the cluster quotient's determinant takes.
MAX_PATTERNS = 8


class _SymbolWeights(dict):
    """Symbol name -> weight vector or monomial; an undeclared name raises
    the KeyError of ChannelSpec.weight_of, which these lookups replace."""

    __slots__ = ()

    def __missing__(self, name: str):
        raise KeyError(f"no symbol named {name!r}")


def _free_terms(spec: ChannelSpec) -> dict[WeightVector, int]:
    """The terms of 1 - f, f the sum of the symbol monomials; equal
    symbol weights merge."""
    den = {WeightVector.zero(spec.basis): 1}
    for s in spec.symbols:
        den[s.weight] = den.get(s.weight, 0) - 1
    return den


def gf_free_monoid(spec: ChannelSpec) -> RationalGF:
    """1 / (1 - sum of symbol monomials): all strings over the alphabet."""
    basis = spec.basis
    den = GeneralizedPolynomial._from_terms(basis, _free_terms(spec))
    return RationalGF(GeneralizedPolynomial.one(basis), den)


def _contains(v: tuple[str, ...], u: tuple[str, ...]) -> bool:
    return any(v[i : i + len(u)] == u for i in range(len(v) - len(u) + 1))


def _minors(rows):
    """Memoised Laplace expansion over rows of term dicts: minor(cols) is
    the det of the last len(cols) rows."""
    memo: dict[tuple[int, ...], dict[WeightVector, int]] = {}

    def minor(cols: tuple[int, ...]) -> dict[WeightVector, int]:
        try:
            return memo[cols]
        except KeyError:
            pass
        row = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        terms = memo[cols] = term_sum(
            (term_product(row[col], minor(cols[:k] + cols[k + 1 :])), -1 if k % 2 else 1)
            for k, col in enumerate(cols)
            if row[col]
        )
        return terms

    return minor


def gf_forbidden_patterns(spec: ChannelSpec) -> RationalGF:
    """det M / det B over the distinct patterns that contain no other.

    M[v][u] is [v == u] plus y**w(v[t:]) for each t where u's last t
    symbols equal v's first t; B is M with a top row (1 - f, 1, ...), f the
    sum of symbol monomials, and a left column -y**w(v). det B = (1 - f) det
    M + 1^T adj(M) y**w = det M (2 - f) - (det M less y**w(v) in each row v).
    """
    basis = spec.basis
    distinct = list(dict.fromkeys(spec.constraint.patterns))
    patterns = [v for v in distinct if not any(u != v and _contains(v, u) for u in distinct)]
    if len(patterns) > MAX_PATTERNS:
        raise ResourceLimitError(
            f"{len(patterns)} forbidden patterns exceed the limit of {MAX_PATTERNS}"
        )
    weights = _SymbolWeights((s.name, s.weight) for s in spec.symbols)
    zero = WeightVector.zero(basis)

    def weight(word) -> WeightVector:
        # A sum of valid vectors is valid.
        return WeightVector._unchecked(map(sum, zip(*map(weights.__getitem__, word))))

    def entry(v, u) -> dict[WeightVector, int]:
        # Distinct suffixes of v weigh distinct nonzero vectors, as every
        # symbol weighs a nonzero one, so no two of these terms merge.
        terms = {weight(v[t:]): 1 for t in range(1, min(len(u), len(v))) if u[-t:] == v[:t]}
        if v == u:
            terms[zero] = 1
        return terms

    one = {zero: 1}
    rows = [[_free_terms(spec)] + [one] * len(patterns)]
    for v in patterns:
        rows.append([{weight(v): -1}] + [entry(v, u) for u in patterns])
    minor = _minors(rows)
    wrap = GeneralizedPolynomial._from_terms
    return RationalGF(
        wrap(basis, minor(tuple(range(1, len(rows))))), wrap(basis, minor(tuple(range(len(rows)))))
    )


def gf_from_regex(expr: RegexNode, spec: ChannelSpec) -> RationalGF:
    """Translate an unambiguous regex structurally into a quotient."""
    basis = spec.basis
    zero = WeightVector.zero(basis)
    one = {zero: 1}
    # One monomial per symbol, shared by its occurrences; the term kernel
    # never changes a dict it is given.
    monomials = _SymbolWeights((s.name, {s.weight: 1}) for s in spec.symbols)

    def walk(node: RegexNode) -> tuple[dict, dict]:
        # A product or sum by the identity `one` is not formed.
        kind = type(node)
        if kind is Symbol:
            return monomials[node.name], one
        if kind is Union or kind is Concat:
            # A symbol part is read in place, without a call.
            parts = node.parts
            part = parts[0]
            num, den = (monomials[part.name], one) if type(part) is Symbol else walk(part)
            for part in parts[1:]:
                n2, d2 = (monomials[part.name], one) if type(part) is Symbol else walk(part)
                if kind is Concat:
                    num = term_product(num, n2)
                else:
                    if d2 is not one:
                        num = term_product(num, d2)
                    if den is not one:
                        n2 = term_product(n2, den)
                    num = term_sum(((num, 1), (n2, 1)))
                if d2 is not one:
                    den = d2 if den is one else term_product(den, d2)
            return num, den
        if kind is Star:
            n2, d2 = walk(node.child)
            if n2.get(zero, 0) != 0:
                raise UnsupportedChannelError(
                    "star of an expression that matches the empty string; "
                    "rewrite the regex so the starred part is not nullable"
                )
            return d2, term_sum(((d2, 1), (n2, -1)))
        if kind is Epsilon:
            return one, one
        raise TypeError(f"not a regex node: {node!r}")

    num, den = walk(expr)
    wrap = GeneralizedPolynomial._from_terms
    return RationalGF(wrap(basis, num), wrap(basis, den))


def build_gf(spec: ChannelSpec) -> RationalGF:
    """Closed-form counting quotient for the spec's constraint kind.

    Every symbol weight is finite, but a term of the quotient sums the
    weights of a word and can overflow a float; that raises SpecError.
    """
    constraint = spec.constraint
    if isinstance(constraint, Free):
        gf = gf_free_monoid(spec)
    elif isinstance(constraint, ForbiddenPatterns):
        gf = gf_forbidden_patterns(spec)
    elif isinstance(constraint, Regex):
        gf = gf_from_regex(constraint.expr, spec)
    else:
        raise TypeError(f"not a constraint: {constraint!r}")
    for part, poly in (("numerator", gf.numerator), ("denominator", gf.denominator)):
        # A weight past the float range is inf.
        if not all(math.isfinite(e) for e, _ in poly.float_terms()):
            raise SpecError(
                f"constraint: a word weight in the quotient's {part} is too large "
                "for a float"
            )
    return gf
