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
"""

from __future__ import annotations

import functools
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
from .genpoly import GeneralizedPolynomial, RationalGF, WeightVector

# Most reduced forbidden patterns the cluster quotient's determinant takes.
MAX_PATTERNS = 8


def gf_free_monoid(spec: ChannelSpec) -> RationalGF:
    """1 / (1 - sum of symbol monomials): all strings over the alphabet."""
    basis = spec.basis
    # Symbol weights are valid vectors of the spec's basis; equal ones merge.
    den = {WeightVector.zero(basis): 1}
    for s in spec.symbols:
        den[s.weight] = den.get(s.weight, 0) - 1
    return RationalGF(
        GeneralizedPolynomial.one(basis), GeneralizedPolynomial._from_terms(basis, den)
    )


def _contains(v: tuple[str, ...], u: tuple[str, ...]) -> bool:
    return any(v[i : i + len(u)] == u for i in range(len(v) - len(u) + 1))


def _minors(rows, basis):
    """Memoised Laplace expansion: minor(cols) is det of the last len(cols) rows."""

    @functools.cache
    def minor(cols: tuple[int, ...]) -> GeneralizedPolynomial:
        row = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        terms: dict = {}
        for k, col in enumerate(cols):
            if row[col]:
                product = row[col] * minor(cols[:k] + cols[k + 1 :])
                sign = -1 if k % 2 else 1
                for wv, c in product.terms():
                    terms[wv] = terms.get(wv, 0) + sign * c
        return GeneralizedPolynomial._from_terms(basis, terms)

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

    def term(word, coefficient: int = 1) -> tuple[WeightVector, int]:
        columns = zip(*(spec.weight_of(name) for name in word))
        # A sum of valid vectors is valid.
        return WeightVector._unchecked(map(sum, columns)), coefficient

    def entry(v, u) -> GeneralizedPolynomial:
        # Distinct suffixes of v weigh distinct nonzero vectors, as every
        # symbol weighs a nonzero one, so no two of these terms merge.
        terms = [term(v[t:]) for t in range(1, min(len(u), len(v))) if u[-t:] == v[:t]]
        terms.append((WeightVector.zero(basis), int(v == u)))
        return GeneralizedPolynomial._from_terms(basis, dict(terms))

    one = GeneralizedPolynomial.one(basis)
    rows = [[gf_free_monoid(spec).denominator] + [one] * len(patterns)]
    for v in patterns:
        first = GeneralizedPolynomial._from_terms(basis, dict([term(v, -1)]))
        rows.append([first] + [entry(v, u) for u in patterns])
    minor = _minors(rows, basis)
    return RationalGF(minor(tuple(range(1, len(rows)))), minor(tuple(range(len(rows)))))


def gf_from_regex(expr: RegexNode, spec: ChannelSpec) -> RationalGF:
    """Translate an unambiguous regex structurally into a quotient."""
    basis = spec.basis
    one = GeneralizedPolynomial.one(basis)
    # One monomial per symbol, shared by its occurrences; polynomials are
    # immutable.
    monomials = {
        s.name: GeneralizedPolynomial._from_terms(basis, {s.weight: 1}) for s in spec.symbols
    }

    def walk(node: RegexNode) -> tuple[GeneralizedPolynomial, GeneralizedPolynomial]:
        if isinstance(node, Epsilon):
            return one, one
        if isinstance(node, Symbol):
            if node.name not in monomials:
                spec.weight_of(node.name)  # raises KeyError, naming the symbol
            return monomials[node.name], one
        if isinstance(node, Union):
            num, den = walk(node.parts[0])
            for part in node.parts[1:]:
                n2, d2 = walk(part)
                num = num * d2 + n2 * den
                den = den * d2
            return num, den
        if isinstance(node, Concat):
            num, den = walk(node.parts[0])
            for part in node.parts[1:]:
                n2, d2 = walk(part)
                num = num * n2
                den = den * d2
            return num, den
        if isinstance(node, Star):
            n2, d2 = walk(node.child)
            if n2.constant_coefficient != 0:
                raise UnsupportedChannelError(
                    "star of an expression that matches the empty string; "
                    "rewrite the regex so the starred part is not nullable"
                )
            return d2, d2 - n2
        raise TypeError(f"not a regex node: {node!r}")

    num, den = walk(expr)
    return RationalGF(num, den)


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
        try:
            finite = all(math.isfinite(e) for e, _ in poly.float_terms())
        except OverflowError:
            # A multiplicity too large to become a float.
            finite = False
        if not finite:
            raise SpecError(
                f"constraint: a word weight in the quotient's {part} is too large "
                "for a float"
            )
    return gf
