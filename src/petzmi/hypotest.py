"""Finite-blocklength hypothesis tests against all iid product states.

The alternative hypothesis (some product state, n copies) is covered by a single
universal permutation-invariant state omega: the normalized partial trace of the
projector onto the symmetric subspace of (H x H')^n satisfies
sigma^(x n) <= g_n * omega for every state sigma on H, where g_n is the number
of symmetric types. A Neyman-Pearson-style threshold test against
omega_A x omega_B then bounds the type-II error uniformly over products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divergences import petz_divergence
from .errors import DomainError, ResourceLimitError
from .exponents import direct_exponent
from .linalg import (
    HermitianOperator,
    partial_trace_factors,
    permute_factors,
    power_on_support,
    support_projector,
    tensor_product,
)
from .states import BipartiteState, DensityOperator

MAX_TOTAL_DIM = 6561  # (d^2)^n guard for the symmetric projector construction

_LOG_THRESHOLD_GUARD = 700.0  # beyond this, e^(+-thr) over/underflows float64


def symmetric_type_count(n: int, d: int) -> int:
    """Dimension of the symmetric subspace of (C^d)^(x n)."""
    return math.comb(n + d - 1, n)


def _permutation_matrix_indices(n: int, d: int, perm: tuple[int, ...]) -> np.ndarray:
    """Column index hit by each row of the operator permuting n d-dimensional
    factors: basis index i maps through digit permutation."""
    idx = np.arange(d**n)
    digits = np.empty((n, d**n), dtype=np.int64)
    rem = idx
    for k in range(n - 1, -1, -1):
        digits[k] = rem % d
        rem = rem // d
    out = np.zeros(d**n, dtype=np.int64)
    for k in range(n):
        out = out * d + digits[perm[k]]
    return out


def universal_state(n: int, d: int) -> DensityOperator:
    """The universal permutation-invariant state on (C^d)^(x n).

    Built literally: project onto the symmetric subspace of (C^d x C^d)^(x n),
    trace out the primed copies, normalize. Guarded against exponential blowup.
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be positive")
    total = (d * d) ** n
    if total > MAX_TOTAL_DIM:
        raise ResourceLimitError(
            f"symmetric projector dimension (d^2)^n = {total} exceeds {MAX_TOTAL_DIM}"
        )
    dd = d * d
    proj = np.zeros((total, total))
    rows = np.arange(total)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        cols = _permutation_matrix_indices(n, dd, perm)
        proj[rows, cols] += 1.0
    proj /= len(perms)
    # each factor C^(d^2) is system x primed-copy; keep the system halves
    dims = []
    for _ in range(n):
        dims.extend([d, d])
    keep = [2 * k for k in range(n)]
    reduced = partial_trace_factors(proj, dims, keep)
    g = symmetric_type_count(n, dd)
    return DensityOperator(reduced / g)


def iid_block(rho: BipartiteState, n: int) -> BipartiteState:
    """rho^(x n) reordered from (A1 B1 ... An Bn) to (A1 ... An):(B1 ... Bn)."""
    d_a, d_b = rho.d_a, rho.d_b
    m = rho.matrix
    for _ in range(n - 1):
        m = np.kron(m, rho.matrix)
    dims = []
    for _ in range(n):
        dims.extend([d_a, d_b])
    order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    m = permute_factors(m, dims, order)
    return BipartiteState(m, d_a**n, d_b**n)


def np_test(rho_n, alt, log_threshold: float) -> HermitianOperator:
    """The projector {rho_n >= e^(log_threshold) * alt}.

    Extreme thresholds are handled without forming e^(threshold): for very large
    thresholds the test accepts only on supp(rho_n) intersected with ker(alt),
    for very negative ones it accepts everywhere.
    """
    rho_n = rho_n if isinstance(rho_n, HermitianOperator) else HermitianOperator(rho_n)
    alt = alt if isinstance(alt, HermitianOperator) else HermitianOperator(alt)
    if log_threshold > _LOG_THRESHOLD_GUARD:
        kernel = HermitianOperator(np.eye(alt.dim) - support_projector(alt).matrix)
        pinched = HermitianOperator(kernel.matrix @ rho_n.matrix @ kernel.matrix)
        return support_projector(pinched)
    if log_threshold < -_LOG_THRESHOLD_GUARD:
        return HermitianOperator(np.eye(rho_n.dim))
    from .linalg import nonnegative_part_projector

    scaled = HermitianOperator(math.exp(log_threshold) * alt.matrix)
    return nonnegative_part_projector(rho_n, scaled)


@dataclass(frozen=True)
class TestErrors:
    """Errors of the universal threshold test at blocklength n."""

    n: int
    s: float
    rate: float
    log_threshold: float
    type_one: float
    type_two_bound: float
    type_one_bound: float


def _universal_setup(rho: BipartiteState, n: int, alpha: float):
    """rho^(x n), the universal product state omega_A x omega_B, the type
    counts g_A and g_B, and D_alpha(rho^(x n) || omega_A x omega_B)."""
    rho_n = iid_block(rho, n)
    alt = tensor_product(universal_state(n, rho.d_a), universal_state(n, rho.d_b))
    g_a = symmetric_type_count(n, rho.d_a**2)
    g_b = symmetric_type_count(n, rho.d_b**2)
    d = petz_divergence(alpha, rho_n, DensityOperator(alt.matrix))
    if d.is_infinite:
        raise DomainError("divergence to the universal product state is infinite")
    return rho_n, alt, g_a, g_b, d.value


def universal_divergence_rate(rho: BipartiteState, alpha: float, n: int) -> float:
    """The finite-n lower bound on the doubly minimized Renyi mutual
    information obtained from the universal product state:
    (1/n) (D_alpha(rho^(x n) || omega_A x omega_B) - log g_A - log g_B)."""
    _, _, g_a, g_b, d = _universal_setup(rho, n, alpha)
    return (d - math.log(g_a) - math.log(g_b)) / n


def test_errors(rho: BipartiteState, n: int, rate: float, s: float) -> TestErrors:
    """Run the universal threshold test on rho^(x n) at type-II rate e^(-n*rate).

    The threshold is chosen so that the data-processing bound on the type-II
    error against every product alternative equals e^(-n*rate) exactly:
      lambda_n = (1/s)(log g_A + log g_B + n*rate - (1-s) D_s(rho^(x n) || omega_A x omega_B)).
    The reported type-I bound is the analytic one,
      exp(((1-s)/s)(log g_A + log g_B - (D_s - n*rate))).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie strictly between 0 and 1, got {s}")
    if n < 1:
        raise DomainError("n must be positive")
    if not rate >= 0:  # also rejects nan
        raise DomainError(f"rate must be nonnegative, got {rate!r}")
    rho_n, alt, g_a, g_b, d_s = _universal_setup(rho, n, s)
    log_g = math.log(g_a) + math.log(g_b)
    lam = (log_g + n * rate - (1.0 - s) * d_s) / s
    test = np_test(rho_n, alt, lam)
    type_one = 1.0 - float(np.real(np.trace(rho_n.matrix @ test.matrix)))
    type_two_bound = g_a * g_b * math.exp(-s * lam) * math.exp(-(1.0 - s) * d_s)
    type_one_bound = math.exp(((1.0 - s) / s) * (log_g - (d_s - n * rate)))
    return TestErrors(
        n=n, s=s, rate=rate, log_threshold=lam,
        type_one=max(type_one, 0.0),
        type_two_bound=type_two_bound,
        type_one_bound=type_one_bound,
    )


def type_two_against(rho: BipartiteState, n: int, rate: float, s: float,
                     sigma_a: DensityOperator, tau_b: DensityOperator) -> float:
    """Actual type-II error of the universal test against a specific iid product
    alternative sigma_A^(x n) x tau_B^(x n)."""
    rho_n, alt, g_a, g_b, d_s = _universal_setup(rho, n, s)
    lam = (math.log(g_a) + math.log(g_b) + n * rate - (1.0 - s) * d_s) / s
    test = np_test(rho_n, alt, lam)
    sig_n = power_on_support(sigma_a, 1.0).matrix
    tau_n = power_on_support(tau_b, 1.0).matrix
    block_a = sig_n
    block_b = tau_n
    for _ in range(n - 1):
        block_a = np.kron(block_a, sig_n)
        block_b = np.kron(block_b, tau_n)
    product = np.kron(block_a, block_b)
    return float(np.real(np.trace(product @ test.matrix)))


def achievability_sweep(rho: BipartiteState, rate: float, n_max: int,
                        s_grid_size: int = 20) -> dict:
    """Best finite-n type-I exponents of the universal test, next to the
    asymptotic direct exponent at the same rate.

    For each n up to n_max the test is run over a grid of s in (0, 1) and the
    largest -(1/n) log(type-I bound) is kept.
    """
    report = direct_exponent(rho, rate)
    s_values = np.linspace(0.05, 0.95, s_grid_size)
    rows = []
    for n in range(1, n_max + 1):
        best = None
        for s in s_values:
            errs = test_errors(rho, n, rate, float(s))
            expo = -math.log(max(errs.type_one_bound, 1e-300)) / n
            if best is None or expo > best["exponent"]:
                best = {
                    "n": n, "s": float(s), "exponent": expo,
                    "type_one": errs.type_one,
                    "type_one_bound": errs.type_one_bound,
                    "type_two_bound": errs.type_two_bound,
                }
        rows.append(best)
    return {"rate": rate, "asymptotic_exponent": report.exponent, "per_n": rows}
