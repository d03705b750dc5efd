"""The value-record contract of the spec and result types.

Every type here was a frozen dataclass; the reprs below are the ones the
dataclasses printed, so the records keep their constructors, equality,
hashing, repr, immutability, pickling and copying.
"""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from dnccap.automaton import ConstraintAutomaton
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
)
from dnccap.genpoly import (
    CoefficientSeries,
    GeneralizedPolynomial,
    RationalGF,
    WeightAtom,
    WeightBasis,
    WeightVector,
)
from dnccap.oracle import EnumerationResult
from dnccap.solver import CapacityReport, DensityReport, RootResult

BASIS = WeightBasis((WeightAtom("unit", 1.0), WeightAtom("pi", math.pi)))
ZERO, ONE, PI = WeightVector((0, 0)), WeightVector((1, 0)), WeightVector((0, 1))
ENTRIES = ((ZERO, 1), (ONE, 1), (PI, 2))
SERIES = CoefficientSeries(BASIS, ENTRIES, 4.0)
BASIS_REPR = (
    "WeightBasis(atoms=(WeightAtom(name='unit', value=1.0), "
    "WeightAtom(name='pi', value=3.141592653589793)))"
)
SERIES_REPR = (
    f"CoefficientSeries(basis={BASIS_REPR}, entries=((WeightVector(mults=(0, 0)), 1), "
    "(WeightVector(mults=(1, 0)), 1), (WeightVector(mults=(0, 1)), 2)), cutoff=4.0)"
)

# type -> (constructor keywords in positional order, repr)
RECORDS = {
    Epsilon: ({}, "Epsilon()"),
    Symbol: ({"name": "0"}, "Symbol(name='0')"),
    Union: (
        {"parts": (Symbol("0"), Epsilon())},
        "Union(parts=(Symbol(name='0'), Epsilon()))",
    ),
    Concat: (
        {"parts": (Symbol("0"), Symbol("1"))},
        "Concat(parts=(Symbol(name='0'), Symbol(name='1')))",
    ),
    Star: ({"child": Symbol("0")}, "Star(child=Symbol(name='0'))"),
    Free: ({}, "Free()"),
    ForbiddenPatterns: (
        {"patterns": (("1", "1"), ("0",))},
        "ForbiddenPatterns(patterns=(('1', '1'), ('0',)))",
    ),
    Regex: (
        {"expr": Star(Union((Symbol("0"), Symbol("1"))))},
        "Regex(expr=Star(child=Union(parts=(Symbol(name='0'), Symbol(name='1')))))",
    ),
    SymbolDef: (
        {"name": "0", "weight": ONE},
        "SymbolDef(name='0', weight=WeightVector(mults=(1, 0)))",
    ),
    ChannelSpec: (
        {
            "basis": BASIS,
            "symbols": (SymbolDef("0", ONE), SymbolDef("1", PI)),
            "constraint": Free(),
        },
        f"ChannelSpec(basis={BASIS_REPR}, symbols=(SymbolDef(name='0', "
        "weight=WeightVector(mults=(1, 0))), SymbolDef(name='1', "
        "weight=WeightVector(mults=(0, 1)))), constraint=Free())",
    ),
    WeightAtom: ({"name": "pi", "value": 3}, "WeightAtom(name='pi', value=3.0)"),
    WeightBasis: (
        {"atoms": (WeightAtom("unit", 1.0),)},
        "WeightBasis(atoms=(WeightAtom(name='unit', value=1.0),))",
    ),
    RationalGF: (
        {
            "numerator": GeneralizedPolynomial.one(BASIS),
            "denominator": GeneralizedPolynomial(BASIS, {ZERO: 1, ONE: -1, PI: -1}),
        },
        "RationalGF(numerator=GeneralizedPolynomial(1*y^0), "
        "denominator=GeneralizedPolynomial(1*y^0 + -1*y^1 + -1*y^3.14159))",
    ),
    CoefficientSeries: ({"basis": BASIS, "entries": ENTRIES, "cutoff": 4}, SERIES_REPR),
    RootResult: (
        {"root": 0.5, "low": 0.25, "high": 0.75, "iterations": 7},
        "RootResult(root=0.5, low=0.25, high=0.75, iterations=7)",
    ),
    CapacityReport: (
        {
            "method": "smallest-pole",
            "radius_or_pole": 0.5,
            "capacity_nats": math.log(2.0),
            "error_bound": 1e-12,
            "iterations": 9,
            "note": "a note",
        },
        "CapacityReport(method='smallest-pole', radius_or_pole=0.5, "
        "capacity_nats=0.6931471805599453, error_bound=1e-12, iterations=9, note='a note')",
    ),
    DensityReport: (
        {
            "cutoff": 3.0,
            "counts_below_n": ((1, 2), (2, 4)),
            "fitted_exponent": 1.5,
            "exponential_flag": False,
            "poly_residual": 0.25,
            "exp_residual": 0.5,
        },
        "DensityReport(cutoff=3.0, counts_below_n=((1, 2), (2, 4)), fitted_exponent=1.5, "
        "exponential_flag=False, poly_residual=0.25, exp_residual=0.5)",
    ),
    # `finite` is the one field added since the dataclass.
    EnumerationResult: (
        {
            "series": SERIES,
            "loop_counts": {0: ((ONE, 2),)},
            "n_states": 1,
            "states_analyzed": 1,
            "configurations": 5,
            "classes": 4,
            "loop_bound": math.log(2.0),
            "finite": False,
        },
        f"EnumerationResult(series={SERIES_REPR}, loop_counts="
        "{0: ((WeightVector(mults=(1, 0)), 2),)}, n_states=1, states_analyzed=1, "
        "configurations=5, classes=4, loop_bound=0.6931471805599453, finite=False)",
    ),
    ConstraintAutomaton: (
        {"transitions": ({"0": 0, "1": 0},), "initial": 0, "accepting": frozenset({0})},
        "ConstraintAutomaton(transitions=({'0': 0, '1': 0},), initial=0, "
        "accepting=frozenset({0}))",
    ),
}

TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def build(cls):
    keywords, _ = RECORDS[cls]
    return cls(*keywords.values())


@TYPES
def test_positional_and_keyword_construction_agree(cls):
    keywords, _ = RECORDS[cls]
    assert build(cls) == cls(**keywords)
    assert not build(cls) != cls(**keywords)


@TYPES
def test_repr_is_the_dataclass_repr(cls):
    assert repr(build(cls)) == RECORDS[cls][1]


@TYPES
def test_hash_agrees_with_eq(cls):
    a, b = build(cls), build(cls)
    assert a is not b and a == b
    try:
        hashed = hash(a)
    except TypeError:
        # A field holds a dict or a polynomial, as it did in the dataclass.
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hashed == hash(b)


@TYPES
def test_fields_are_immutable(cls):
    record = build(cls)
    for name in list(RECORDS[cls][0]) + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == build(cls)


@TYPES
@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_clones_are_equal(cls, clone):
    record = build(cls)
    cloned = clone(record)
    assert type(cloned) is cls
    assert cloned == record
    assert repr(cloned) == repr(record)


def test_records_of_different_types_differ():
    assert Epsilon() == Epsilon()
    assert Epsilon() != Free()
    assert Free() != Epsilon()
    assert Symbol("0") != Star(Symbol("0"))
    assert Symbol("0") != ("0",)
    assert len({Epsilon(), Free(), Epsilon()}) == 2


def test_series_equality_and_repr_ignore_the_cached_floats():
    # Floats in the right order but not the weights' own values.
    other = CoefficientSeries._from_values(BASIS, list(ENTRIES), [0.0, 2.0, 5.0], 4.0)
    assert other.values() != SERIES.values()
    assert other == SERIES
    assert hash(other) == hash(SERIES)
    assert repr(other) == SERIES_REPR
