"""Petz Renyi mutual informations of bipartite states.

Three variants are computed, distinguished by which marginals of the product
reference state are optimized:

  up_up    : both arguments fixed to the true marginals,
             I = D_alpha(rho_AB || rho_A x rho_B);
  up_down  : the B argument minimized, closed form through a Schatten
             quasi-norm of a partial trace;
  down_down: both arguments minimized. For alpha in (1/2, 2] this is solved by
             alternating minimization, each half-step being the exact one-sided
             minimizer; the iteration is a fixed-point scheme whose fixed points
             coincide with the global minimizers in that range.

One array routine, `_half_step`, is the exact one-sided minimization for
`gen_prmi_down` and both directions of the loop (B -> A through the transposed
tensor of rho^alpha). Inputs are validated at the public functions; inside the
loop the iterates are plain eigenvalue/eigenvector arrays.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .classical import rmi_down_down as classical_rmi_down_down
from .divergences import (
    ALPHA_ONE_WINDOW,
    DivergenceValue,
    dominated,
    min_entropy,
    petz_divergence,
    relative_entropy,
    renyi_entropy,
)
from .errors import (
    DomainError,
    InvalidInputError,
    NumericalDegradationError,
    UnsupportedRegimeError,
)
from .linalg import power_on_support, spectral_power, tensor_product
from .states import BipartiteState, DensityOperator, random_density

MONOTONICITY_SLACK = 1e-11
RESTART_AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class FixedPointConfig:
    """Controls for the alternating-minimization solver."""

    tol: float = 1e-12
    max_iter: int = 10000
    restarts: int | None = None  # None: 1 for alpha <= 1, else 8
    seed: int = 0


@dataclass(frozen=True)
class PrmiSolution:
    """Result of a doubly minimized Renyi mutual information computation.

    residual is the trace distance between sigma_a and its image under one full
    round of the fixed-point map; certified means the value is guaranteed to be
    the global minimum (fixed points are global minimizers for alpha in
    (1/2, 2], and restarts agreed where uniqueness is not known).
    """

    value: float
    alpha: float
    sigma_a: DensityOperator | None
    tau_b: DensityOperator | None
    residual: float
    iterations: int
    objective_trace: tuple[float, ...]
    certified: bool
    is_infinite: bool = False

    def as_float(self) -> float:
        return math.inf if self.is_infinite else self.value


def prmi_up_up(alpha: float, rho: BipartiteState) -> DivergenceValue:
    """D_alpha of the state against the product of its own marginals."""
    return petz_divergence(
        alpha, rho, tensor_product(rho.marginal_a, rho.marginal_b).matrix
    )


def gen_prmi_down(alpha: float, rho: BipartiteState, sigma_a) -> tuple[float, DensityOperator]:
    """min over tau_B of D_alpha(rho_AB || sigma_A x tau_B), with its minimizer.

    Valid for every alpha in (0, 1) and (1, inf): writing
    M = tr_A[rho^alpha (sigma_A^(1-alpha) x 1)], the value is
    (alpha/(alpha-1)) log tr[M^(1/alpha)] and the minimizer is
    tau = M^(1/alpha) / tr[M^(1/alpha)]. At alpha = 0 it is the limit
    -log lambda_max(M), attained on the top eigenvector of M.
    """
    if alpha < 0:
        raise DomainError(f"Renyi order must be nonnegative, got {alpha!r}")
    sigma_a = sigma_a if isinstance(sigma_a, DensityOperator) else DensityOperator(sigma_a)
    if alpha > 1 and not dominated(rho.marginal_a, sigma_a):
        return math.inf, None
    r = power_on_support(rho, alpha).matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    value, t_vals, t_vecs = _half_step(alpha, r, sigma_a.spectrum, sigma_a.eigenvectors)
    if t_vals is None:
        return math.inf, None
    return value, DensityOperator(_compose(t_vals, t_vecs))


def _half_step(alpha: float, r: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The exact one-sided minimization, on arrays.

    r is rho^alpha as a (d, d', d, d') tensor and (vals, vecs) the eigensystem
    of sigma on the first factor. Returns the value of `gen_prmi_down` and the
    eigensystem of its minimizer on the second factor, or (inf, None, None)
    when M vanishes.
    """
    m = np.einsum("ibjd,ji->bd", r, _compose(spectral_power(vals, 1.0 - alpha), vecs))
    m_vals, m_vecs = np.linalg.eigh((m + m.conj().T) / 2)
    if alpha == 0:
        top = float(m_vals[-1])
        if top <= 0:
            return math.inf, None, None
        return -math.log(top), np.eye(m_vals.size)[-1], m_vecs
    powered = spectral_power(m_vals, 1.0 / alpha)
    norm = float(np.sum(powered))
    if norm <= 0:
        return math.inf, None, None
    return (alpha / (alpha - 1.0)) * math.log(norm), powered / norm, m_vecs


def _compose(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return (vecs * vals) @ vecs.conj().T


def prmi_up_down(alpha: float, rho: BipartiteState) -> DivergenceValue:
    """min over tau_B with sigma_A fixed to the true marginal rho_A."""
    if not np.isfinite(alpha) or alpha < 0:
        raise DomainError(f"Renyi order must be a finite nonnegative real, got {alpha!r}")
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return prmi_up_up(1.0, rho)
    value, _ = gen_prmi_down(alpha, rho, rho.marginal_a)
    if value == math.inf:
        return DivergenceValue.infinite()
    return DivergenceValue(value=value)


def fixed_point_map(alpha: float, rho: BipartiteState, sigma_a: DensityOperator) -> DensityOperator:
    """One full round A -> B -> A of the alternating-minimization update."""
    sigma_a = sigma_a if isinstance(sigma_a, DensityOperator) else DensityOperator(sigma_a)
    return _run_fixed_point(alpha, rho, sigma_a, FixedPointConfig(max_iter=1)).sigma_a


def prmi_closed_form(alpha: float, rho: BipartiteState, which: str) -> float | None:
    """Known closed forms: pure states and perfectly correlated cc states.

    Returns None when no closed form applies. Used for cross-checks and for the
    alpha <= 1/2 regime where the alternating scheme is not guaranteed global.
    """
    if rho.is_pure():
        rho_a = rho.marginal_a
        if which == "uu":
            return 2.0 * renyi_entropy(3.0 - 2.0 * alpha, rho_a)
        if which == "ud":
            if alpha == 0:
                return 2.0 * renyi_entropy(math.inf, rho_a)
            return 2.0 * renyi_entropy((2.0 - alpha) / alpha, rho_a)
        if which == "dd":
            if alpha <= 0.5:
                return (1.0 / (1.0 - alpha)) * min_entropy(rho_a)
            return 2.0 * renyi_entropy(1.0 / (2.0 * alpha - 1.0), rho_a)
    p = _copy_cc_pmf_or_none(rho)
    if p is not None:
        rho_a = rho.marginal_a
        if which == "uu":
            return renyi_entropy(2.0 - alpha, rho_a)
        if which == "ud":
            if alpha == 0:
                return renyi_entropy(math.inf, rho_a)
            return renyi_entropy(1.0 / alpha, rho_a)
        if which == "dd":
            if alpha <= 0.5:
                return (alpha / (1.0 - alpha)) * min_entropy(rho_a)
            return renyi_entropy(alpha / (2.0 * alpha - 1.0), rho_a)
    return None


def _copy_cc_pmf_or_none(rho: BipartiteState):
    if rho.d_a != rho.d_b:
        return None
    pmf = rho.diagonal_pmf_or_none()
    if pmf is None:
        return None
    table = pmf.table
    p = np.diag(table)
    if np.max(np.abs(table - np.diag(p))) > 1e-12:
        return None
    return p


def _dd_closed_form_solution(alpha: float, rho: BipartiteState) -> PrmiSolution | None:
    """Pure / copy-cc answers for alpha <= 1/2, with the known minimizers."""
    value = prmi_closed_form(alpha, rho, "dd")
    if value is None:
        return None
    sigma_a = tau_b = None
    if alpha > 0.5:
        # exponent of the optimizing marginal power differs between the cases
        if rho.is_pure():
            expo = 1.0 / (2.0 * alpha - 1.0)
        else:
            expo = alpha / (2.0 * alpha - 1.0)
        s = power_on_support(rho.marginal_a, expo)
        sigma_a = DensityOperator(s.matrix / s.trace())
        t = power_on_support(rho.marginal_b, expo)
        tau_b = DensityOperator(t.matrix / t.trace())
    return PrmiSolution(
        value=value,
        alpha=alpha,
        sigma_a=sigma_a,
        tau_b=tau_b,
        residual=0.0,
        iterations=0,
        objective_trace=(value,),
        certified=True,
    )


def _run_fixed_point(
    alpha: float,
    rho: BipartiteState,
    sigma0: DensityOperator,
    config: FixedPointConfig,
) -> PrmiSolution:
    # Checked once: if supp(rho_A) <= supp(sigma), tr_A[rho^alpha (sigma^(1-alpha) x 1)]
    # has support exactly supp(rho_B), so every tau covers rho_B, every later
    # sigma covers rho_A, and no iterate can leak.
    if alpha > 1 and not dominated(rho.marginal_a, sigma0):
        raise InvalidInputError("the start point must cover supp(rho_A) for alpha > 1")
    r_ab = power_on_support(rho, alpha).matrix.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    r_ba = r_ab.transpose(1, 0, 3, 2)
    # (alpha/(alpha-1)) log tr M^(1/alpha) scales the rounding of the log by
    # alpha/|alpha-1|, which outgrows the fixed slack near alpha = 1
    slack = MONOTONICITY_SLACK + 64 * np.finfo(float).eps * alpha / abs(alpha - 1.0)
    s_vals, s_vecs, sigma = sigma0.spectrum, sigma0.eigenvectors, sigma0.matrix
    trace = []
    residual = math.inf
    iterations = config.max_iter
    for it in range(1, config.max_iter + 1):
        value, t_vals, t_vecs = _half_step(alpha, r_ab, s_vals, s_vecs)
        if t_vals is None:
            return PrmiSolution(
                value=math.nan, alpha=alpha, sigma_a=DensityOperator(sigma), tau_b=None,
                residual=math.inf, iterations=it, objective_trace=tuple(trace),
                certified=False, is_infinite=True,
            )
        if trace and value > trace[-1] + slack:
            raise NumericalDegradationError(
                f"objective increased by {value - trace[-1]:.3e} at iteration {it}"
            )
        trace.append(value)
        _, s_vals, s_vecs = _half_step(alpha, r_ba, t_vals, t_vecs)
        sigma_new = _compose(s_vals, s_vecs)
        residual = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(sigma_new - sigma))))
        sigma = sigma_new
        if residual <= config.tol:
            iterations = it
            break
    value, t_vals, t_vecs = _half_step(alpha, r_ab, s_vals, s_vecs)
    return PrmiSolution(
        value=max(value, 0.0),  # a divergence of states; rounding can dip below 0
        alpha=alpha,
        sigma_a=DensityOperator(sigma),
        tau_b=DensityOperator(_compose(t_vals, t_vecs)),
        residual=residual,
        iterations=iterations,
        objective_trace=tuple(trace),
        certified=False,  # filled in by the caller
    )


def _initial_points(rho: BipartiteState, restarts: int, seed: int):
    yield rho.marginal_a
    yield DensityOperator(np.eye(rho.d_a) / rho.d_a)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts - 2)):
        yield random_density(rho.d_a, rng)


def prmi_down_down(
    alpha: float,
    rho: BipartiteState,
    config: FixedPointConfig | None = None,
) -> PrmiSolution:
    """min over sigma_A, tau_B of D_alpha(rho_AB || sigma_A x tau_B).

    Regimes:
      alpha = 1          : the mutual information, minimizers the true marginals.
      1/2 < alpha <= 2   : alternating minimization; every fixed point is a
                           global minimizer, so a converged run is certified.
                           For alpha in (1/2, 1] the minimizer is unique and a
                           single start suffices; for alpha in (1, 2] multiple
                           starts are run and must agree.
      0 <= alpha <= 1/2  : closed forms (pure / perfectly correlated states),
                           the classical reduction for diagonal states, or an
                           exhaustive product-state search for small dimensions.
      alpha > 2          : closed forms only (fixed points need not be
                           minimizers); generic states are rejected.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise DomainError(f"Renyi order must be a finite nonnegative real, got {alpha!r}")
    config = config or FixedPointConfig()

    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        d = relative_entropy(
            rho, tensor_product(rho.marginal_a, rho.marginal_b).matrix
        )
        return PrmiSolution(
            value=d.value, alpha=alpha, sigma_a=rho.marginal_a, tau_b=rho.marginal_b,
            residual=0.0, iterations=0, objective_trace=(d.value,), certified=True,
        )

    if alpha > 2.0:
        # fixed points are not known to be minimizers here; only the closed
        # forms (pure / perfectly correlated states) remain available
        closed = _dd_closed_form_solution(alpha, rho)
        if closed is not None:
            return closed
        raise UnsupportedRegimeError(
            f"doubly minimized Renyi mutual information of a generic state is "
            f"not supported for alpha = {alpha} > 2"
        )

    if alpha > 0.5:
        restarts = config.restarts
        if restarts is None:
            restarts = 1 if alpha <= 1.0 else 8
        starts = islice(_initial_points(rho, max(restarts, 1), config.seed), max(restarts, 1))
        runs = [_run_fixed_point(alpha, rho, sigma0, config) for sigma0 in starts]
        finite = [r for r in runs if not r.is_infinite]
        if not finite:
            return runs[0]
        best = min(finite, key=lambda r: r.value)
        converged = best.residual <= 10 * config.tol
        agree = all(
            r.is_infinite or abs(r.value - best.value) <= RESTART_AGREEMENT_TOL
            for r in runs
        )
        certified = converged and (alpha <= 1.0 or agree)
        return replace(best, certified=certified)

    # alpha in [0, 1/2]
    closed = _dd_closed_form_solution(alpha, rho)
    if closed is not None:
        return closed
    pmf = rho.diagonal_pmf_or_none()
    if pmf is not None:
        value, r_opt, q_opt = classical_rmi_down_down(alpha, pmf)
        return PrmiSolution(
            value=value, alpha=alpha,
            sigma_a=DensityOperator(np.diag(r_opt)),
            tau_b=DensityOperator(np.diag(q_opt)),
            residual=0.0, iterations=0, objective_trace=(value,), certified=True,
        )
    if rho.d_a <= 3 and rho.d_b <= 3:
        from .oracle import brute_force_dd

        value, sigma_a, tau_b = brute_force_dd(alpha, rho)
        return PrmiSolution(
            value=value, alpha=alpha, sigma_a=sigma_a, tau_b=tau_b,
            residual=0.0, iterations=0, objective_trace=(value,), certified=False,
        )
    raise UnsupportedRegimeError(
        "alpha <= 1/2 is only supported for pure, classical, or low-dimensional states"
    )


def prmi(alpha: float, rho: BipartiteState, which: str, config: FixedPointConfig | None = None):
    """Dispatch on the variant name: 'uu', 'ud', or 'dd'."""
    if which == "uu":
        return prmi_up_up(alpha, rho)
    if which == "ud":
        return prmi_up_down(alpha, rho)
    if which == "dd":
        return prmi_down_down(alpha, rho, config)
    raise InvalidInputError(f"unknown variant {which!r}; expected 'uu', 'ud', or 'dd'")
