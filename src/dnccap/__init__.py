"""Capacity and exact string counts of discrete noiseless channels.

A channel is a weighted alphabet plus a constraint on which strings may be
sent. This package computes the channel's counting generating function in
closed form, extracts exact coefficients, locates the dominant singularity
with certified enclosures, and cross-checks everything against brute-force
enumeration. Weights may be arbitrary positive reals; exponents are kept
exact as integer combinations of named weight atoms.

The enumeration oracle and the automaton it walks load on first use: the
names in `__all__` that `oracle` defines, and the submodules `oracle` and
`automaton`, come through the module `__getattr__` (PEP 562).
"""

from .chanspec import (
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
    load_spec,
    parse_regex,
    parse_spec,
    render_regex,
    render_spec,
)
from .errors import (
    BasisMismatchError,
    DncError,
    EvalOverflowError,
    ExpansionError,
    InsufficientDataError,
    ResourceLimitError,
    SolverError,
    SpecError,
    UnsupportedChannelError,
)
from .genpoly import (
    CoefficientSeries,
    GeneralizedPolynomial,
    RationalGF,
    WeightAtom,
    WeightBasis,
    WeightVector,
    expand_series,
)
from .gf_builder import (
    build_gf,
    gf_forbidden_patterns,
    gf_free_monoid,
    gf_from_regex,
)
from .solver import (
    CapacityReport,
    DensityReport,
    RootResult,
    capacity_from_characteristic,
    check_density,
    smallest_positive_pole,
    smallest_positive_root,
)

__version__ = "0.1.0"

__all__ = [
    "BasisMismatchError",
    "CapacityReport",
    "ChannelSpec",
    "CoefficientSeries",
    "Concat",
    "DensityReport",
    "DncError",
    "EnumerationResult",
    "Epsilon",
    "EvalOverflowError",
    "ExpansionError",
    "ForbiddenPatterns",
    "Free",
    "GeneralizedPolynomial",
    "InsufficientDataError",
    "RationalGF",
    "Regex",
    "ResourceLimitError",
    "RootResult",
    "SolverError",
    "SpecError",
    "Star",
    "Symbol",
    "SymbolDef",
    "Union",
    "UnsupportedChannelError",
    "WeightAtom",
    "WeightBasis",
    "WeightVector",
    "build_gf",
    "capacity_from_characteristic",
    "check_density",
    "enumerate_by_weight",
    "enumerate_channel",
    "estimate_capacity",
    "expand_series",
    "gf_forbidden_patterns",
    "gf_free_monoid",
    "gf_from_regex",
    "load_spec",
    "parse_regex",
    "parse_spec",
    "render_regex",
    "render_spec",
    "smallest_positive_pole",
    "smallest_positive_root",
]

# Name served by __getattr__ -> the submodule that defines it.
_LAZY = {
    "EnumerationResult": "oracle",
    "automaton": "automaton",
    "enumerate_by_weight": "oracle",
    "enumerate_channel": "oracle",
    "estimate_capacity": "oracle",
    "oracle": "oracle",
}


def __getattr__(name: str):
    # Reached only for names not bound here. A served name is looked up on
    # each access, not copied here, so it always is the submodule's own.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    # The names an eager import of every submodule would bind here.
    return sorted((set(globals()) - {"_LAZY", "__dir__", "__getattr__"}) | set(_LAZY))
