"""Renyi divergences, Renyi mutual informations of bipartite quantum states,
and direct error exponents of correlation detection."""

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
from .exponents import ExponentReport, alpha_derivative, direct_exponent, rate_curve
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
