"""Finite-blocklength hypothesis tests against all iid product states.

The alternative hypothesis (some product state, n copies) is covered by a single
universal permutation-invariant state omega_n on H^(x n), the cycle sum of
`universal_state`: sigma^(x n) <= g_n * omega_n for every state sigma on H,
where g_n is the number of symmetric types of H x H'. A Neyman-Pearson-style
threshold test against omega_A x omega_B, which carries the Kronecker product
of the factors' eigensystems, then bounds the type-II error uniformly over
products. rho^(x n) likewise carries the permuted Kronecker power of rho's
eigensystem, and omega_n is built once per (n, d), so each test decomposes
only the threshold difference rho^(x n) - e^(lambda) omega_A x omega_B.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divergences import petz_divergence
from .errors import DomainError, ResourceLimitError
from .exponents import direct_exponent
from .linalg import (
    HermitianOperator,
    nonnegative_part_projector,
    permute_factors,
    support_projector,
)
from .states import BipartiteState, DensityOperator, product_state

# (d^2)^n guard; it bounds the (d_A d_B)^n block rho^(x n) that the caller
# builds next to omega_A x omega_B
MAX_TOTAL_DIM = 6561
S_GRID_SIZE = 20  # the s grid of achievability_sweep

_LOG_THRESHOLD_GUARD = 700.0  # beyond this, e^(+-thr) over/underflows float64


def symmetric_type_count(n: int, d: int) -> int:
    """Dimension of the symmetric subspace of (C^d)^(x n)."""
    return math.comb(n + d - 1, n)


@functools.lru_cache(maxsize=None)
def universal_state(n: int, d: int) -> DensityOperator:
    """The universal permutation-invariant state on (C^d)^(x n).

    It is the normalized partial trace, over the primed copies, of the
    projector onto the symmetric subspace of (C^d x C^d')^(x n),
    (1/n!) sum_pi V_pi x V'_pi, with V_pi the operator that permutes the n
    factors. Tracing out V'_pi leaves tr V'_pi = d^c(pi), where c(pi) is the
    number of cycles of pi, and the normalization is g = C(n + d^2 - 1, n), so

        omega_n = (1/(g n!)) sum_pi d^c(pi) V_pi

    on (C^d)^(x n) alone. Guarded against exponential blowup. Cached per
    (n, d): the operator is immutable, and the guard keeps each entry at most
    81 x 81.
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be positive")
    total = (d * d) ** n
    if total > MAX_TOTAL_DIM:
        raise ResourceLimitError(
            f"(d^2)^n = {total} exceeds {MAX_TOTAL_DIM}: the block rho^(x n) "
            f"of the universal test would be too large"
        )
    dim = d**n
    eye = np.eye(dim).reshape([d] * (2 * n))
    omega = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        v_pi = eye.transpose(list(perm) + list(range(n, 2 * n))).reshape(dim, dim)
        omega += np.trace(v_pi) * v_pi  # tr V_pi = d^c(pi)
    return DensityOperator(omega / (symmetric_type_count(n, d * d) * math.factorial(n)))


def iid_block(rho: BipartiteState, n: int) -> BipartiteState:
    """rho^(x n) reordered from (A1 B1 ... An Bn) to (A1 ... An):(B1 ... Bn).

    The block carries its eigensystem: the n-fold Kronecker power of rho's
    eigenvalues, and of rho's eigenvectors with their rows reordered like the
    matrix. It is never decomposed, so `test_errors` decomposes only the
    threshold difference, and its small eigenvalues keep rho's relative
    accuracy.
    """
    d_a, d_b = rho.d_a, rho.d_b
    dims = [d_a, d_b] * n
    order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    m = permute_factors(functools.reduce(np.kron, [rho.matrix] * n), dims, order)
    vals = functools.reduce(np.kron, [rho.spectrum] * n)
    vecs = functools.reduce(np.kron, [rho.eigenvectors] * n)
    vecs = vecs.reshape(dims + [-1]).transpose(order + [2 * n]).reshape(m.shape)
    return BipartiteState(m, d_a**n, d_b**n, eigensystem=(vals, vecs))


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
    """rho^(x n), the universal product state omega_A x omega_B, log g_A + log g_B
    for the type counts g, and D_alpha(rho^(x n) || omega_A x omega_B)."""
    rho_n = iid_block(rho, n)
    alt = product_state(universal_state(n, rho.d_a), universal_state(n, rho.d_b))
    log_g = (math.log(symmetric_type_count(n, rho.d_a**2))
             + math.log(symmetric_type_count(n, rho.d_b**2)))
    d = petz_divergence(alpha, rho_n, alt)
    if d.is_infinite:
        raise DomainError("divergence to the universal product state is infinite")
    return rho_n, alt, log_g, d.value


def universal_divergence_rate(rho: BipartiteState, alpha: float, n: int) -> float:
    """The finite-n lower bound on the doubly minimized Renyi mutual
    information obtained from the universal product state:
    (1/n) (D_alpha(rho^(x n) || omega_A x omega_B) - log g_A - log g_B)."""
    _, _, log_g, d = _universal_setup(rho, n, alpha)
    return (d - log_g) / n


def _universal_test(rho: BipartiteState, n: int, rate: float, s: float):
    """rho^(x n), log g_A + log g_B, D_s(rho^(x n) || omega_A x omega_B), the
    threshold lambda_n of `test_errors`, and the test at that threshold."""
    rho_n, alt, log_g, d_s = _universal_setup(rho, n, s)
    lam = (log_g + n * rate - (1.0 - s) * d_s) / s
    return rho_n, log_g, d_s, lam, np_test(rho_n, alt, lam)


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
    rho_n, log_g, d_s, lam, test = _universal_test(rho, n, rate, s)
    # tr(rho_n Pi) as sum_ij conj(Pi_ij) rho_ij, Pi being Hermitian
    type_one = 1.0 - float(np.real(np.vdot(test.matrix, rho_n.matrix)))
    return TestErrors(
        n=n, s=s, rate=rate, log_threshold=lam,
        type_one=max(type_one, 0.0),
        type_two_bound=math.exp(log_g - s * lam - (1.0 - s) * d_s),
        type_one_bound=math.exp(((1.0 - s) / s) * (log_g - (d_s - n * rate))),
    )


def type_two_against(rho: BipartiteState, n: int, rate: float, s: float,
                     sigma_a: DensityOperator, tau_b: DensityOperator) -> float:
    """Actual type-II error of the universal test against a specific iid product
    alternative sigma_A^(x n) x tau_B^(x n)."""
    test = _universal_test(rho, n, rate, s)[-1]
    product = functools.reduce(np.kron, [sigma_a.matrix] * n + [tau_b.matrix] * n)
    return float(np.real(np.trace(product @ test.matrix)))


def achievability_sweep(rho: BipartiteState, rate: float, n_max: int) -> dict:
    """Best finite-n type-I exponents of the universal test, next to the
    asymptotic direct exponent at the same rate.

    For each n up to n_max the test is run over a grid of S_GRID_SIZE values
    of s in (0, 1) and the largest -(1/n) log(type-I bound) is kept.
    n_max must be at least 1.
    """
    if not n_max >= 1:
        raise DomainError(f"n_max must be at least 1, got {n_max!r}")
    report = direct_exponent(rho, rate)
    s_values = np.linspace(0.05, 0.95, S_GRID_SIZE)
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
