"""Exact arithmetic for polynomials with real-valued exponents.

A weight like 1 + 2*pi is never stored as a float. It is the integer vector
(1, 2) over a fixed basis of named positive reals ("atoms", here 1.0 and pi),
so merging terms during arithmetic compares exact integer vectors. The float
value of a weight is computed only for ordering, evaluation, and display.

    WeightAtom             named positive real, e.g. ("pi", 3.14159...)
    WeightBasis            ordered atoms with unique names
    WeightVector           one nonnegative multiplicity per atom
    GeneralizedPolynomial  finite map {WeightVector: int coefficient}
    RationalGF             quotient of two GeneralizedPolynomials
    CoefficientSeries      weight-sorted (WeightVector, count) pairs

A WeightVector is an immutable tuple of its multiplicities (a tuple
subclass, checked once when built), so the dict and heap work of the hot
loops hashes, compares and orders vectors in C, and a vector equals the
plain tuple of its entries. A sum of two valid vectors is valid, so `+`
and the loops below build their sums without checking them again.

Concatenating strings adds their weights, so a product of terms adds weight
vectors component-wise. One kernel, `term_product` and `term_sum`, does
the arithmetic on term dicts {WeightVector: int}; the operators `*`, `+`
and `-` of GeneralizedPolynomial wrap it, and the quotient builders of
gf_builder call it directly, so both share one multiplication.

`expand_series` turns a RationalGF into the exact counting series of the
language it enumerates, up to a weight cutoff, in a single pass in weight
order: with denominator d0 - sum_j e_j * y**u_j, the count at weight w is
(num[w] + sum_j e_j * c[w - u_j]) / d0, so each weight class costs one
heap operation and one product per denominator term.

The pass keys each weight class by one int, its multiplicities packed in
mixed radix with the first atom as the most significant digit, so a
successor's key is `key + step_key` and `pending` hashes ints. Each radix
exceeds twice the largest digit a queued class or a step can carry, a
bound taken from the cutoff and from TERM_LIMIT (see `_places`), so the
addition never carries: distinct vectors get distinct keys, and on a tie
in weight int order is tuple order. The pass builds a class's
WeightVector and float once, when it queues the class.

A weight's float is one left-to-right sum of its products m_i * v_i,
`left_sum`, which gives the same bits on every Python version (the builtin
`sum()` adds floats with compensation since Python 3.12, which would move
the printed digits of a weight of three or more atoms with the version).
`WeightVector.value`, the series constructor, the spec parser and the
density fit call it; the two hot loops spell out its expression inline.
Each weight's float is computed once per stage (the int 0 for the zero
vector):
  - `GeneralizedPolynomial.float_terms()`, the hot loop of the capacity
    solvers, is a tuple of (float exponent, float coefficient) pairs in
    term order, built on first use and cached on the (immutable)
    polynomial. A pole scan of a thousand grid points then computes each
    weight's value once, not once per point, and every caller, the scan's
    own pass included, sees the very same floats. A coefficient past the
    float range reads inf of its sign, so `evaluate` raises
    EvalOverflowError wherever it meets one.
  - `expand_series` and the enumeration walk compute the float of every
    class they queue and hand those floats to the CoefficientSeries they
    build. The series checks its entries with them and caches them for
    `values`, `pairs`, `evaluate` and every later reader. A series built
    through its public constructor computes its floats by `left_sum` and
    runs the same check on them.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Mapping
from functools import reduce
from operator import add, itemgetter, lt, mul

from ._record import Record, set_slot as _set
from .errors import (
    BasisMismatchError,
    EvalOverflowError,
    ExpansionError,
    ResourceLimitError,
)

# expand_series generates at most this many weight classes.
TERM_LIMIT = 1_000_000


def left_sum(terms: Iterable[float]) -> float:
    """The float sum of `terms`, added one by one from the left, starting
    at 0.0; inf when a term overflows, such as a multiplicity too large to
    become a float."""
    try:
        return reduce(add, terms, 0.0)
    except OverflowError:
        return math.inf


class WeightAtom(Record):
    """A named positive real used as a building block for symbol weights."""

    __slots__ = ("name", "value")
    name: str
    value: float

    def __init__(self, name: str, value: float) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("atom name must be a nonempty string")
        v = float(value)
        if not v > 0.0 or math.isinf(v):
            raise ValueError(
                f"atom {name!r} must have a positive finite value, got {value!r}"
            )
        _set(self, "name", name)
        _set(self, "value", v)


class WeightBasis(Record):
    """Ordered tuple of atoms; every WeightVector is indexed against it."""

    __slots__ = ("atoms", "_values", "_index")
    atoms: tuple[WeightAtom, ...]

    def __init__(self, atoms: tuple[WeightAtom, ...]) -> None:
        atoms = tuple(atoms)
        index = {a.name: i for i, a in enumerate(atoms)}
        if len(index) != len(atoms):
            raise ValueError("duplicate atom names in basis")
        self._fill(atoms, index)

    @classmethod
    def _distinct(cls, atoms: tuple[WeightAtom, ...], index: dict[str, int]) -> "WeightBasis":
        """The basis of atoms with distinct names, such as the keys of one
        JSON object, and `index`, each name's position in `atoms`; built
        past the constructor's duplicate-name check."""
        basis = object.__new__(cls)
        basis._fill(atoms, index)
        return basis

    def _fill(self, atoms: tuple[WeightAtom, ...], index: dict[str, int]) -> None:
        _set(self, "atoms", atoms)
        _set(self, "_values", tuple(a.value for a in atoms))
        _set(self, "_index", index)

    @classmethod
    def from_mapping(cls, values: Mapping[str, float]) -> "WeightBasis":
        return cls(tuple(WeightAtom(n, v) for n, v in values.items()))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.atoms)

    def values(self) -> tuple[float, ...]:
        return self._values

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no atom named {name!r} in basis") from None


class WeightVector(tuple):
    """Exact exponent: a nonnegative integer multiplicity per basis atom.

    An immutable tuple of the multiplicities, so hashing, equality and
    ordering run in C and a vector equals the plain tuple of its entries.
    `+` adds two vectors componentwise and refuses anything else, a plain
    tuple included, rather than concatenate; tuple repetition (`wv * k`)
    raises TypeError, and `scaled` multiplies the entries instead.
    """

    __slots__ = ()

    def __new__(cls, mults: Iterable[int]) -> "WeightVector":
        self = tuple.__new__(cls, mults)
        for m in self:
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValueError(f"multiplicities must be integers, got {m!r}")
            if m < 0:
                raise ValueError(f"negative multiplicity {m}")
        return self

    @classmethod
    def _unchecked(cls, mults: Iterable[int]) -> "WeightVector":
        """A vector of multiplicities known to be valid, such as a sum of
        valid vectors, built without the check of __new__."""
        return tuple.__new__(cls, mults)

    @property
    def mults(self) -> "WeightVector":
        return self

    @classmethod
    def zero(cls, basis: WeightBasis) -> "WeightVector":
        return cls._unchecked((0,) * basis.size)

    @classmethod
    def from_mapping(cls, basis: WeightBasis, mapping: Mapping[str, int]) -> "WeightVector":
        mults = [0] * basis.size
        for name, mult in mapping.items():
            mults[basis.index(name)] = mult
        return cls(mults)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if not isinstance(other, WeightVector):
            raise TypeError(f"cannot add {type(other).__name__} to a weight vector")
        if len(self) != len(other):
            raise BasisMismatchError("cannot add weight vectors of different lengths")
        # Sums of nonnegative integers need no second check.
        return tuple.__new__(WeightVector, map(add, self, other))

    def __radd__(self, other: object) -> "WeightVector":
        # Reached for tuple + vector, which would otherwise concatenate.
        raise TypeError(f"cannot add a weight vector to {type(other).__name__}")

    def __mul__(self, other: object) -> "WeightVector":
        raise TypeError("weight vectors do not repeat; use scaled(k) to multiply entries")

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"WeightVector(mults={tuple.__repr__(self)})"

    def scaled(self, k: int) -> "WeightVector":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return WeightVector(k * m for m in self)

    def is_zero(self) -> bool:
        return not any(self)

    def value(self, basis: WeightBasis) -> float:
        """Sum of multiplicity times atom value, by `left_sum`; the int 0
        for the zero vector, inf past the float range.

        Summing every product, zeros included, gives the same float as
        summing only the nonzero ones, because adding 0.0 is exact.
        """
        values = basis.values()
        if len(values) != len(self):
            raise BasisMismatchError("weight vector does not match basis size")
        return left_sum(map(mul, self, values)) or 0

    def as_mapping(self, basis: WeightBasis) -> dict[str, int]:
        return {a.name: m for a, m in zip(basis.atoms, self) if m}


def weight_sort_key(basis: WeightBasis):
    """Sort key ordering vectors by numeric value, exact lexicographic tiebreak."""

    def key(wv: WeightVector) -> tuple[float, tuple[int, ...]]:
        return (wv.value(basis), wv)

    return key


def term_product(a: dict[WeightVector, int], b: dict[WeightVector, int]) -> dict:
    """The terms of a * b, for term dicts over one basis with nonzero
    coefficients: each term of a times each of b, in that nested order,
    merged by exponent in order of first appearance, zeros dropped.

    A factor that is the constant 1 returns the other dict itself, which
    holds the product's terms in their order; no caller changes a dict
    once built. A one-term factor shifts the other's exponents, distinct
    sums that need no merging.
    """
    new = tuple.__new__
    if len(a) == 1:
        ((shift, k),) = a.items()
        if k == 1 and not any(shift):
            return b
        # A sum of two valid vectors of one basis is valid.
        return {new(WeightVector, map(add, shift, wv)): k * c for wv, c in b.items()}
    if len(b) == 1:
        ((shift, k),) = b.items()
        if k == 1 and not any(shift):
            return a
        return {new(WeightVector, map(add, wv, shift)): c * k for wv, c in a.items()}
    out: dict[WeightVector, int] = {}
    get = out.get
    for wv1, c1 in a.items():
        for wv2, c2 in b.items():
            wv = new(WeightVector, map(add, wv1, wv2))
            out[wv] = get(wv, 0) + c1 * c2
    return {wv: c for wv, c in out.items() if c} if 0 in out.values() else out


def term_sum(parts: Iterable[tuple[dict[WeightVector, int], int]]) -> dict:
    """The terms of the sum of sign * terms over the (terms, sign) pairs,
    merged by exponent in order of first appearance. Zeros are dropped at
    the end, so an exponent that cancels and comes back keeps its place."""
    out: dict[WeightVector, int] = {}
    get = out.get
    for terms, sign in parts:
        for wv, c in terms.items():
            out[wv] = get(wv, 0) + sign * c
    return {wv: c for wv, c in out.items() if c} if 0 in out.values() else out


def _float_or_inf(c: int) -> float:
    """float(c), or inf of c's sign beyond the float range."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


class GeneralizedPolynomial:
    """Finite integer-coefficient sum of y**(weight value) terms. Immutable.

    Besides `_float_terms`, a polynomial caches what
    solver.characteristic_part finds for it in `_characteristic`, a slot
    left unset until then.
    """

    __slots__ = ("basis", "_terms", "_float_terms", "_characteristic")

    def __init__(
        self,
        basis: WeightBasis,
        terms: Mapping[WeightVector, int] | Iterable[tuple[WeightVector, int]] = (),
    ):
        if type(terms) is dict or isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        size = basis.size
        clean: dict[WeightVector, int] = {}
        for wv, c in items:
            if len(wv.mults) != size:
                raise BasisMismatchError("term exponent does not match basis size")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
            clean[wv] = clean.get(wv, 0) + c
        self.basis = basis
        self._terms = {wv: c for wv, c in clean.items() if c}
        self._float_terms: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def zero(cls, basis: WeightBasis) -> "GeneralizedPolynomial":
        return cls(basis)

    @classmethod
    def constant(cls, basis: WeightBasis, c: int) -> "GeneralizedPolynomial":
        return cls(basis, {WeightVector.zero(basis): c})

    @classmethod
    def one(cls, basis: WeightBasis) -> "GeneralizedPolynomial":
        return cls._from_terms(basis, {WeightVector.zero(basis): 1})

    @classmethod
    def monomial(
        cls, basis: WeightBasis, wv: WeightVector, coeff: int = 1
    ) -> "GeneralizedPolynomial":
        return cls(basis, {wv: coeff})

    def coefficient(self, wv: WeightVector) -> int:
        return self._terms.get(wv, 0)

    @property
    def constant_coefficient(self) -> int:
        # A vector hashes and compares like the plain tuple of its entries.
        return self._terms.get((0,) * self.basis.size, 0)

    def terms(self) -> Iterator[tuple[WeightVector, int]]:
        return iter(self._terms.items())

    def float_terms(self) -> tuple[tuple[float, float], ...]:
        """(float exponent, float coefficient) per term, in term order;
        cached. `evaluate`, `value_and_slope` and the pole scan's pass all
        read these. A coefficient beyond the float range reads inf of its
        sign, so a pass that meets it sums to inf or nan."""
        if self._float_terms is None:
            # WeightVector.value's expression; every exponent has the
            # basis's length, as the constructor checked.
            values = self.basis.values()
            self._float_terms = tuple(
                (left_sum(map(mul, wv, values)) or 0, _float_or_inf(c))
                for wv, c in self._terms.items()
            )
        return self._float_terms

    def sorted_terms(self) -> list[tuple[WeightVector, int]]:
        key = weight_sort_key(self.basis)
        return sorted(self._terms.items(), key=lambda item: key(item[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        return self.basis == other.basis and self._terms == other._terms

    def _check_same_basis(self, other: "GeneralizedPolynomial") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("operands use different weight bases")

    @classmethod
    def _from_terms(
        cls, basis: WeightBasis, terms: dict[WeightVector, int]
    ) -> "GeneralizedPolynomial":
        """The polynomial of `terms`, exponents over `basis` and nonzero
        integer coefficients already, as the term kernel builds them. The
        polynomial keeps the dict, which no one may change afterwards."""
        poly = object.__new__(cls)
        poly.basis = basis
        poly._terms = terms
        poly._float_terms = None
        return poly

    def __add__(self, other: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        self._check_same_basis(other)
        return self._from_terms(self.basis, term_sum(((self._terms, 1), (other._terms, 1))))

    def __neg__(self) -> "GeneralizedPolynomial":
        return self._from_terms(self.basis, {wv: -c for wv, c in self._terms.items()})

    def __sub__(self, other: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        self._check_same_basis(other)
        return self._from_terms(self.basis, term_sum(((self._terms, 1), (other._terms, -1))))

    def __mul__(self, other: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        self._check_same_basis(other)
        terms = term_product(self._terms, other._terms)
        # A product by the constant 1 is the other factor's own dict;
        # polynomials are immutable, so that factor itself serves.
        if terms is other._terms:
            return other
        if terms is self._terms:
            return self
        return self._from_terms(self.basis, terms)

    def __rmul__(self, scalar: int) -> "GeneralizedPolynomial":
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        if not scalar:
            return self._from_terms(self.basis, {})
        return self._from_terms(self.basis, {wv: scalar * c for wv, c in self._terms.items()})

    def evaluate(self, y: float) -> float:
        """Numeric value at y >= 0, with the 0**0 = 1 convention."""
        if y < 0:
            raise ValueError("evaluation point must be nonnegative")
        terms = self._float_terms
        if terms is None:
            terms = self.float_terms()
        total = 0.0
        try:
            for e, c in terms:
                total += c * (y ** e)
        except OverflowError as exc:
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}") from exc
        if not math.isfinite(total):
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
        return total

    def value_and_slope(self, y: float) -> tuple[float, float]:
        """(p(y), y * p'(y)) at y >= 0, in one pass over the terms.

        The value is the float `evaluate` returns, and the call raises
        EvalOverflowError exactly when `evaluate` would. The slope adds
        e * (c * y**e) in term order; it may be inf or nan where the
        value is finite.
        """
        if y < 0:
            raise ValueError("evaluation point must be nonnegative")
        terms = self._float_terms
        if terms is None:
            terms = self.float_terms()
        total = slope = 0.0
        try:
            for e, c in terms:
                t = c * (y ** e)
                total += t
                slope += e * t
        except OverflowError as exc:
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}") from exc
        if not math.isfinite(total):
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
        return total, slope

    def __repr__(self) -> str:
        parts = [
            f"{c}*y^{wv.value(self.basis):.6g}" for wv, c in self.sorted_terms()
        ]
        return "GeneralizedPolynomial(" + (" + ".join(parts) or "0") + ")"


class RationalGF(Record):
    """Quotient of two generalized polynomials.

    Normalized so the denominator's constant term is positive; a zero
    constant term is rejected because the quotient would not expand into a
    counting series starting at weight 0.
    """

    __slots__ = ("numerator", "denominator")
    numerator: GeneralizedPolynomial
    denominator: GeneralizedPolynomial

    def __init__(
        self, numerator: GeneralizedPolynomial, denominator: GeneralizedPolynomial
    ) -> None:
        if numerator.basis != denominator.basis:
            raise BasisMismatchError("numerator and denominator use different bases")
        d0 = denominator.constant_coefficient
        if d0 == 0:
            raise ExpansionError(
                "not a valid counting quotient: denominator constant term is zero"
            )
        if d0 < 0:
            numerator, denominator = -numerator, -denominator
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)

    @property
    def basis(self) -> WeightBasis:
        return self.numerator.basis

    def evaluate(self, y: float) -> float:
        return self.numerator.evaluate(y) / self.denominator.evaluate(y)


class CoefficientSeries(Record):
    """Exact counts per weight, sorted by (numeric value, exponent vector).

    The float weight of every entry is computed once, by whoever builds
    the series, checked with the entries and cached; `values`, `pairs` and
    `evaluate` read the cache.
    """

    __slots__ = ("basis", "entries", "cutoff", "_values")
    basis: WeightBasis
    entries: tuple[tuple[WeightVector, int], ...]
    cutoff: float

    def __init__(
        self,
        basis: WeightBasis,
        entries: Iterable[tuple[WeightVector, int]],
        cutoff: float,
    ) -> None:
        entries = tuple((wv, c) for wv, c in entries)
        values = basis.values()
        # WeightVector.value's floats; the check refuses a vector of
        # another length, which map() would cut short here.
        weights = [left_sum(map(mul, wv, values)) or 0 for wv, _ in entries]
        self._fill(basis, entries, weights, cutoff)

    @classmethod
    def _from_values(
        cls, basis: WeightBasis, entries: list, values: list, cutoff: float
    ) -> "CoefficientSeries":
        """The series of `entries` whose float weights the caller already
        computed, exactly as WeightVector.value does; the public
        constructor's check runs on these floats."""
        series = object.__new__(cls)
        series._fill(basis, tuple(entries), values, cutoff)
        return series

    def _fill(self, basis: WeightBasis, entries: tuple, values: list, cutoff: float) -> None:
        """Set the fields after checking, in C, that every count is a
        nonnegative int, every vector has the basis's length and the
        (value, vector) keys strictly increase. On failure the per-entry
        loop of `_check_each` runs, for its error message."""
        vectors = list(map(itemgetter(0), entries))
        counts = list(map(itemgetter(1), entries))
        keys = list(zip(values, vectors))
        if not (
            len(values) == len(entries)
            and set(map(type, counts)) <= {int}
            and min(counts, default=0) >= 0
            and set(map(len, vectors)) <= {basis.size}
            and all(map(lt, keys, keys[1:]))
        ):
            self._check_each(basis, entries, values)
        _set(self, "basis", basis)
        _set(self, "entries", entries)
        _set(self, "cutoff", float(cutoff))
        _set(self, "_values", tuple(values))

    @staticmethod
    def _check_each(basis: WeightBasis, entries: tuple, values: list) -> None:
        """The check of `_fill` entry by entry: raise for the first entry
        at fault, checking its count, then its vector's length, then its
        order. Counts of an int subclass fail only the C check, and pass
        here."""
        prev = None
        for (wv, c), value in zip(entries, values, strict=True):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"counts must be nonnegative integers, got {c!r}")
            if len(wv) != basis.size:
                raise BasisMismatchError("weight vector does not match basis size")
            key = (value, wv)
            if prev is not None and not prev < key:
                raise ValueError("series entries must be strictly increasing by weight")
            prev = key

    def __len__(self) -> int:
        return len(self.entries)

    def values(self) -> list[float]:
        return list(self._values)

    def counts(self) -> list[int]:
        return [c for _, c in self.entries]

    def pairs(self) -> list[tuple[float, int]]:
        return [(v, c) for v, (_, c) in zip(self._values, self.entries)]

    def total_count(self) -> int:
        return sum(c for _, c in self.entries)

    def evaluate(self, y: float) -> float:
        """Partial sum of the series at y; monotone in the cutoff for y > 0."""
        total = 0.0
        for v, (_, c) in zip(self._values, self.entries):
            total += c * (y ** v)
        return total


def _places(values, cutoff: float, start, steps, budget: int) -> list[int]:
    """Place values of the packed class keys of `expand_series`.

    A class with multiplicities m is keyed by the int sum_i m_i * place_i,
    a mixed-radix number whose first atom is the most significant digit.
    The radix of atom i exceeds twice the largest digit D_i any queued
    class can carry, and twice every step's digit S_i, so the key of a
    successor, key + step key, has digits D_i + S_i below the radix and
    never carries: distinct vectors get distinct keys, and on vectors of
    such digits int order is tuple order.

    D_i is the smaller of two bounds, both exact ints:
      - cutoff: a class is queued when its computed value is <= cutoff.
        Each product m_j * v_j and the left-to-right sum of these
        nonnegative products lie within a relative (atoms + 2) * 2**-52
        of the exact values, so m_i * v_i <= 2 * cutoff * (1 - 2**-53)
        and m_i <= float(2 * cutoff / v_i). An infinite quotient gives no
        bound and is skipped, never turned into an int.
      - budget: a class is a start term plus the steps of a chain of
        popped classes. A pop passes the budget check only while at most
        `budget` classes were queued, so at most `budget` pops pass it,
        and m_i <= max start digit + budget * S_i.
    """
    places = []
    place = 1
    for i in reversed(range(len(values))):
        step_digit = max((step[i] for step in steps), default=0)
        digit = max((m[i] for m in start), default=0) + budget * step_digit
        quotient = 2.0 * cutoff / values[i]
        if not math.isinf(quotient):
            digit = min(digit, int(quotient))
        places.append(place)
        place *= 2 * max(digit, step_digit) + 1
    places.reverse()
    return places


def expand_series(gf: RationalGF, cutoff: float) -> CoefficientSeries:
    """Exact coefficient extraction from a quotient, up to a weight cutoff.

    Write the denominator as d0 - sum_j e_j * y**u_j, every u_j of strictly
    positive weight. Then the counts obey one recurrence in weight order:

        d0 * c[w] = num[w] + sum_j e_j * c[w - u_j]

    A min-heap pops weight classes in (numeric value, exponent vector)
    order, and `pending` holds the partial sum of each queued class. Every
    contribution to a class comes from a strictly lighter one, so a popped
    class is final: it is divided by d0 and checked there, then passes
    e_j * c[w] on to each w + u_j within the cutoff. The cost is one heap
    push and pop per weight class plus one exact integer product per
    class and denominator term. A count that comes out non-integral or
    negative means the quotient does not enumerate a language (e.g. an
    ambiguous construction) and raises ExpansionError. TERM_LIMIT caps
    the number of weight classes generated.
    """
    cutoff = float(cutoff)
    if not cutoff >= 0 or math.isinf(cutoff):
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff!r}")
    term_limit = TERM_LIMIT
    basis = gf.basis
    values = basis.values()
    d0 = gf.denominator.constant_coefficient
    growth = [
        (wv.mults, -c)
        for wv, c in gf.denominator.terms()
        if not wv.is_zero() and wv.value(basis) <= cutoff
    ]
    start = [
        (value, wv.mults, c)
        for wv, c in gf.numerator.terms()
        if (value := wv.value(basis)) <= cutoff
    ]
    places = _places(
        values, cutoff, [m for _, m, _ in start], [step for step, _ in growth], term_limit
    )
    steps = [(sum(map(mul, step, places)), step, e) for step, e in growth]
    pending: dict[int, int] = {}
    heap: list[tuple[float, int, WeightVector]] = []
    for value, mults, c in start:
        key = sum(map(mul, mults, places))
        pending[key] = c
        heap.append((value, key, mults))
    heapq.heapify(heap)
    generated = len(heap)
    entries: list[tuple[WeightVector, int]] = []
    weights: list[float] = []
    new = tuple.__new__
    while heap:
        if generated > term_limit:
            raise ResourceLimitError(
                f"series expansion exceeded the term limit of {term_limit}"
            )
        value, key, mults = heapq.heappop(heap)
        total = pending.pop(key)
        count, rest = divmod(total, d0)
        if rest:
            # d0 > 0 and does not divide total: the reduced fraction n/d.
            g = math.gcd(total, d0)
            raise ExpansionError(
                f"non-integral count {total // g}/{d0 // g} at weight {value:.6g}: "
                "the quotient does not enumerate a language"
            )
        if count < 0:
            raise ExpansionError(
                f"negative count {count} at weight {value:.6g}: "
                "the quotient does not enumerate a language"
            )
        if not count:
            continue
        entries.append((mults, count))
        weights.append(value)
        for step_key, step, e in steps:
            nkey = key + step_key
            if nkey in pending:
                pending[nkey] += e * count
                continue
            # A sum of valid vectors is valid; its float is left_sum's,
            # spelt out to save the call.
            nmults = new(WeightVector, map(add, mults, step))
            nvalue = reduce(add, map(mul, nmults, values), 0.0)
            if nvalue <= cutoff:
                pending[nkey] = e * count
                heapq.heappush(heap, (nvalue, nkey, nmults))
                generated += 1
    return CoefficientSeries._from_values(basis, entries, weights, cutoff)
