"""Renyi divergences, Renyi mutual informations of bipartite quantum states,
and direct error exponents of correlation detection."""

import importlib.util
import sys


def _lazy(name: str):
    """Register the submodule `name` in sys.modules, to load at its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# classical, exponents, hypotest and oracle load on first use, so that `compute`
# and `sweep` never compile or run them. They are bound as package attributes
# before prmi imports: its `from . import oracle` then binds that object, where
# an import would load it. No solver route calls classical, the tests' simplex
# search; it is registered all the same, as perfbench/tracer.py reads it from
# sys.modules.
classical, exponents, hypotest, oracle = map(_lazy, ("classical", "exponents", "hypotest",
                                                     "oracle"))

from .divergences import (
    DivergenceValue,
    petz_divergence,
    relative_entropy,
    relative_entropy_variance,
    renyi_entropy,
    sandwiched_divergence,
)
from .errors import (
    DomainError,
    InvalidInputError,
    NumericalDegradationError,
    PetzmiError,
    ResourceLimitError,
    UnsupportedRegimeError,
)
from .prmi import (
    PrmiSolution,
    fixed_point_map,
    prmi,
    prmi_closed_form,
    prmi_down_down,
    prmi_up_down,
    prmi_up_up,
)
from .states import (
    BipartiteState,
    DensityOperator,
    Pmf,
    cc_state,
    copy_cc_state,
    pure_bipartite,
    random_bipartite,
    random_density,
)

__all__ = [
    "BipartiteState",
    "DensityOperator",
    "DivergenceValue",
    "DomainError",
    "ExponentReport",
    "InvalidInputError",
    "NumericalDegradationError",
    "PetzmiError",
    "Pmf",
    "PrmiSolution",
    "ResourceLimitError",
    "UnsupportedRegimeError",
    "alpha_derivative",
    "cc_state",
    "copy_cc_state",
    "direct_exponent",
    "fixed_point_map",
    "petz_divergence",
    "prmi",
    "prmi_closed_form",
    "prmi_down_down",
    "prmi_up_down",
    "prmi_up_up",
    "pure_bipartite",
    "random_bipartite",
    "random_density",
    "rate_curve",
    "relative_entropy",
    "relative_entropy_variance",
    "renyi_entropy",
    "sandwiched_divergence",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The names of `exponents`, read from it when asked for (PEP 562)."""
    if name in ("ExponentReport", "alpha_derivative", "direct_exponent", "rate_curve"):
        return getattr(exponents, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
