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
vectors component-wise. `expand_series` turns a RationalGF into the exact
counting series of the language it enumerates, up to a weight cutoff, in a
single pass in weight order: with denominator d0 - sum_j e_j * y**u_j, the
count at weight w is (num[w] + sum_j e_j * c[w - u_j]) / d0, so each weight
class costs one heap operation and one product per denominator term. The
pass keys classes by raw multiplicity tuples and builds a WeightVector only
for the entries it returns.

Each weight's float is computed once per stage, by the same expression as
`WeightVector.value` (the int 0 for the zero vector):
  - `GeneralizedPolynomial.float_terms()`, the hot loop of the capacity
    solvers, is a tuple of (float exponent, coefficient) pairs in term
    order, built on first use and cached on the (immutable) polynomial. A
    pole scan of a thousand grid points then computes each weight's value
    once, not once per point, and every caller sees the very same floats.
  - `expand_series` and the enumeration walk compute the float of every
    class they queue and hand those floats to the CoefficientSeries they
    build. The series checks its order on them and caches them for
    `values`, `pairs`, `evaluate` and every later reader. A series built
    through its public constructor computes and caches its floats the same
    way, in the same check.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Mapping
from operator import add, mul

from ._record import Record, set_slot as _set
from .errors import (
    BasisMismatchError,
    EvalOverflowError,
    ExpansionError,
    ResourceLimitError,
)

# expand_series generates at most this many weight classes.
TERM_LIMIT = 1_000_000


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
        names = [a.name for a in atoms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom names in basis")
        _set(self, "atoms", atoms)
        _set(self, "_values", tuple(a.value for a in atoms))
        _set(self, "_index", {a.name: i for i, a in enumerate(atoms)})

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
        return cls((0,) * basis.size)

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
        """Sum of multiplicity times atom value; the int 0 for the zero vector.

        Summing every product, zeros included, gives the same float as
        summing only the nonzero ones, because adding 0.0 is exact.
        """
        values = basis.values()
        if len(values) != len(self):
            raise BasisMismatchError("weight vector does not match basis size")
        return sum(map(mul, self, values)) or 0

    def as_mapping(self, basis: WeightBasis) -> dict[str, int]:
        return {a.name: m for a, m in zip(basis.atoms, self) if m}


def weight_sort_key(basis: WeightBasis):
    """Sort key ordering vectors by numeric value, exact lexicographic tiebreak."""

    def key(wv: WeightVector) -> tuple[float, tuple[int, ...]]:
        return (wv.value(basis), wv)

    return key


class GeneralizedPolynomial:
    """Finite integer-coefficient sum of y**(weight value) terms. Immutable."""

    __slots__ = ("basis", "_terms", "_float_terms")

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
        self._float_terms: tuple[tuple[float, int], ...] | None = None

    @classmethod
    def zero(cls, basis: WeightBasis) -> "GeneralizedPolynomial":
        return cls(basis)

    @classmethod
    def constant(cls, basis: WeightBasis, c: int) -> "GeneralizedPolynomial":
        return cls(basis, {WeightVector.zero(basis): c})

    @classmethod
    def one(cls, basis: WeightBasis) -> "GeneralizedPolynomial":
        return cls.constant(basis, 1)

    @classmethod
    def monomial(
        cls, basis: WeightBasis, wv: WeightVector, coeff: int = 1
    ) -> "GeneralizedPolynomial":
        return cls(basis, {wv: coeff})

    def coefficient(self, wv: WeightVector) -> int:
        return self._terms.get(wv, 0)

    @property
    def constant_coefficient(self) -> int:
        return self._terms.get(WeightVector.zero(self.basis), 0)

    def terms(self) -> Iterator[tuple[WeightVector, int]]:
        return iter(self._terms.items())

    def float_terms(self) -> tuple[tuple[float, int], ...]:
        """(float exponent, coefficient) per term, in term order; cached."""
        if self._float_terms is None:
            self._float_terms = tuple(
                (wv.value(self.basis), c) for wv, c in self._terms.items()
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
        if self.basis != other.basis:
            raise BasisMismatchError("operands use different weight bases")

    def __add__(self, other: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        self._check_same_basis(other)
        merged = dict(self._terms)
        for wv, c in other._terms.items():
            merged[wv] = merged.get(wv, 0) + c
        return GeneralizedPolynomial(self.basis, merged)

    def __neg__(self) -> "GeneralizedPolynomial":
        return GeneralizedPolynomial(self.basis, {wv: -c for wv, c in self._terms.items()})

    def __sub__(self, other: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        return self + (-other)

    def __mul__(self, other: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        self._check_same_basis(other)
        out: dict[WeightVector, int] = {}
        for wv1, c1 in self._terms.items():
            for wv2, c2 in other._terms.items():
                wv = wv1 + wv2
                out[wv] = out.get(wv, 0) + c1 * c2
        return GeneralizedPolynomial(self.basis, out)

    def __rmul__(self, scalar: int) -> "GeneralizedPolynomial":
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        return GeneralizedPolynomial(
            self.basis, {wv: scalar * c for wv, c in self._terms.items()}
        )

    def evaluate(self, y: float) -> float:
        """Numeric value at y >= 0, with the 0**0 = 1 convention."""
        if y < 0:
            raise ValueError("evaluation point must be nonnegative")
        total = 0.0
        for e, c in self.float_terms():
            try:
                total += c * (y ** e)
            except OverflowError as exc:
                raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}") from exc
        if math.isinf(total) or math.isnan(total):
            raise EvalOverflowError(f"overflow evaluating polynomial at y={y!r}")
        return total

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
    the series, checked for order and cached; `values`, `pairs` and
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
        values = self._checked(entries, (wv.value(basis) for wv, _ in entries))
        _set(self, "basis", basis)
        _set(self, "entries", entries)
        _set(self, "cutoff", float(cutoff))
        _set(self, "_values", values)

    @classmethod
    def _from_values(
        cls, basis: WeightBasis, entries: list, values: list, cutoff: float
    ) -> "CoefficientSeries":
        """The series of `entries` whose float weights the caller already
        computed, exactly as WeightVector.value does; the public
        constructor's check runs on these floats."""
        series = object.__new__(cls)
        entries = tuple(entries)
        _set(series, "basis", basis)
        _set(series, "entries", entries)
        _set(series, "cutoff", float(cutoff))
        _set(series, "_values", cls._checked(entries, iter(values)))
        return series

    @staticmethod
    def _checked(entries: tuple, values: Iterator) -> tuple:
        """The entries' float weights, drawn from `values` one per entry,
        after checking each count and the strict (value, vector) order."""
        checked = []
        prev = None
        for wv, c in entries:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"counts must be nonnegative integers, got {c!r}")
            key = (next(values), wv)
            if prev is not None and not prev < key:
                raise ValueError("series entries must be strictly increasing by weight")
            checked.append(key[0])
            prev = key
        return tuple(checked)

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
    pending: dict[tuple[int, ...], int] = {}
    heap: list[tuple[float, tuple[int, ...]]] = []
    for wv, c in gf.numerator.terms():
        value = wv.value(basis)
        if value <= cutoff:
            pending[wv.mults] = c
            heap.append((value, wv.mults))
    heapq.heapify(heap)
    generated = len(heap)
    entries: list[tuple[WeightVector, int]] = []
    weights: list[float] = []
    vector = WeightVector._unchecked
    while heap:
        if generated > term_limit:
            raise ResourceLimitError(
                f"series expansion exceeded the term limit of {term_limit}"
            )
        value, mults = heapq.heappop(heap)
        total = pending.pop(mults)
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
        entries.append((vector(mults), count))
        weights.append(value)
        for step, e in growth:
            nmults = tuple(map(add, mults, step))
            if nmults in pending:
                pending[nmults] += e * count
                continue
            nvalue = sum(map(mul, nmults, values))
            if nvalue <= cutoff:
                pending[nmults] = e * count
                heapq.heappush(heap, (nvalue, nmults))
                generated += 1
    return CoefficientSeries._from_values(basis, entries, weights, cutoff)
