"""Renyi divergences of density-operator pairs and Renyi entropies.

Both the standard (Petz) and the minimal (sandwiched) quantum Renyi divergence
are implemented, together with the relative entropy, the relative-entropy
variance, and the Renyi entropy for all real orders including the limits.

Every Petz quantity is one Nussbaum-Szkola sum over the eigensystems
rho = sum_i lambda_i |u_i><u_i| and sigma = sum_j mu_j |v_j><v_j|:

    tr[f(rho) g(sigma)] = sum_ij f(lambda_i) W_ij g(mu_j),  W_ij = |<u_i|v_j>|^2,

with powers and logarithms taken on the support by `linalg.spectral_power`.
`_petz_terms` forms (lambda, mu, W) once; Q_alpha, the relative entropy, its
variance, and both support tests (domination, orthogonality) are sums over it.

Infinite values are represented explicitly by DivergenceValue.is_infinite; no
float('inf') ever enters an arithmetic expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .linalg import HermitianOperator, power_on_support, spectral_log, spectral_power
from .states import DensityOperator

ALPHA_ONE_WINDOW = 1e-6
SUPPORT_OVERLAP_TOL = 1e-10


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence value that may be +infinity.

    `q_value` carries the underlying trace functional Q when finite and
    meaningful (None otherwise).
    """

    value: float
    is_infinite: bool = False
    q_value: float | None = None

    def as_float(self) -> float:
        return math.inf if self.is_infinite else self.value

    @staticmethod
    def infinite() -> "DivergenceValue":
        return DivergenceValue(value=math.nan, is_infinite=True)


def _check_order(alpha: float) -> None:
    if not np.isfinite(alpha) or alpha < 0:
        raise DomainError(f"Renyi order must be a finite nonnegative real, got {alpha!r}")


def _one_sided_min(alpha, m_vals: np.ndarray):
    """min over tau of D_alpha(rho || sigma x tau) = (alpha/(alpha-1)) log tr[M^(1/alpha)],
    attained at tau = M^(1/alpha) / tr[M^(1/alpha)], for each row of a (k, d)
    stack of the eigenvalues of M = tr_A[rho^alpha (sigma^(1-alpha) x 1)];
    alpha is one order or one per row. At alpha = 0, and wherever 1/alpha
    overflows, it is -log lambda_max(M) / (1 - alpha), attained on the top
    eigenvector (the last one of a tie). Returns the k values, inf where M
    vanishes, and the eigenvalues of the k minimizers."""
    alpha = np.broadcast_to(alpha, m_vals.shape[:1])
    zero = alpha < 1.0 / np.finfo(float).max
    # at alpha <= 1/2, M / lambda_max(M) keeps M^(1/alpha) from under- or overflowing
    m_max = np.max(m_vals, axis=1)
    scale = np.where((alpha <= 0.5) & (m_max > 0), m_max, 1.0)
    m_vals = m_vals / scale[:, None]
    powered = spectral_power(m_vals, 1.0 / np.where(zero, 1.0, alpha)[:, None])
    if zero.any():  # all weight on lambda_max(M), at the last index of a tie
        top = m_vals.shape[1] - 1 - np.argmax(m_vals[:, ::-1], axis=1)
        powered[zero] = np.where(np.arange(m_vals.shape[1]) == top[:, None], m_vals, 0.0)[zero]
    norm = powered.sum(axis=1)
    vanish = norm <= 0
    norm[vanish] = 1.0
    value = alpha / (alpha - 1.0) * np.log(norm) + np.log(scale) / (alpha - 1.0)
    value[vanish] = math.inf
    return value, powered / norm[:, None]


def _as_density(op) -> DensityOperator:
    return op if isinstance(op, DensityOperator) else DensityOperator(op)


def _petz_terms(rho: HermitianOperator, sigma: HermitianOperator):
    """(lambda, mu, W): the spectra of rho and sigma and W_ij = |<u_i|v_j>|^2
    between their eigenvectors, from the cached eigensystems."""
    if rho.dim != sigma.dim:
        raise InvalidInputError("states must have equal dimension")
    w = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    return rho.spectrum, sigma.spectrum, w


def _log_ratio(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """log lambda_i - log mu_j, each logarithm taken on its support."""
    return spectral_log(lam)[:, None] - spectral_log(mu)[None, :]


def _finite(alpha: float, lam: np.ndarray, mu: np.ndarray, w: np.ndarray) -> bool:
    """Whether D_alpha is finite: for alpha < 1 the supports are not orthogonal,
    tr[P_rho P_sigma] > tol; otherwise supp(rho) <= supp(sigma), that is, the
    weight tr[rho (1 - P_sigma)] of rho off supp(sigma) is at most tol."""
    support = spectral_power(mu, 0.0)
    if alpha < 1:
        return float(spectral_power(lam, 0.0) @ w @ support) > SUPPORT_OVERLAP_TOL
    return float(lam @ w @ (1.0 - support)) <= SUPPORT_OVERLAP_TOL


def dominated(rho: DensityOperator, sigma: DensityOperator) -> bool:
    """Whether supp(rho) is contained in supp(sigma), numerically."""
    return _finite(1.0, *_petz_terms(rho, sigma))


def _relative_entropy(lam: np.ndarray, mu: np.ndarray, w: np.ndarray) -> DivergenceValue:
    if not _finite(1.0, lam, mu, w):
        return DivergenceValue.infinite()
    return DivergenceValue(value=float(np.sum(lam[:, None] * w * _log_ratio(lam, mu))))


def relative_entropy(rho, sigma) -> DivergenceValue:
    """Umegaki relative entropy tr[rho (log rho - log sigma)], natural log:
    sum_ij lambda_i W_ij (log lambda_i - log mu_j)."""
    return _relative_entropy(*_petz_terms(_as_density(rho), _as_density(sigma)))


def relative_entropy_variance(rho, sigma) -> float:
    """V(rho || sigma) = tr[rho (log rho - log sigma - D)^2]
    = sum_ij lambda_i W_ij (log lambda_i - log mu_j)^2 - D^2.

    Requires supp(rho) <= supp(sigma).
    """
    lam, mu, w = _petz_terms(_as_density(rho), _as_density(sigma))
    if not _finite(1.0, lam, mu, w):
        raise DomainError("variance undefined: supp(rho) not contained in supp(sigma)")
    weights = lam[:, None] * w
    diff = _log_ratio(lam, mu)
    d = float(np.sum(weights * diff))
    return float(np.sum(weights * diff**2)) - d**2


def _petz_q(alpha: float, lam: np.ndarray, mu: np.ndarray, w: np.ndarray) -> float:
    return float(spectral_power(lam, alpha) @ w @ spectral_power(mu, 1.0 - alpha))


def petz_q(alpha: float, rho, sigma) -> float:
    """The trace functional Q_alpha = tr[rho^alpha sigma^(1-alpha)]."""
    return _petz_q(alpha, *_petz_terms(_as_density(rho), _as_density(sigma)))


def petz_divergence(alpha: float, rho, sigma) -> DivergenceValue:
    """Petz Renyi divergence D_alpha(rho || sigma), natural log.

    Finite iff (alpha < 1 and the states are not orthogonal) or
    supp(rho) <= supp(sigma); alpha = 1 is the relative entropy, alpha = 0 is
    -log tr[rho^0 sigma].
    """
    _check_order(alpha)
    return _petz_value(alpha, *_petz_terms(_as_density(rho), _as_density(sigma)))


def _petz_value(alpha: float, lam: np.ndarray, mu: np.ndarray, w: np.ndarray) -> DivergenceValue:
    """D_alpha from Nussbaum-Szkola terms (lambda, mu, W), in any eigenvalue order."""
    if not _finite(alpha, lam, mu, w):
        return DivergenceValue.infinite()
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return _relative_entropy(lam, mu, w)
    q = _petz_q(alpha, lam, mu, w)
    return DivergenceValue(value=math.log(q) / (alpha - 1.0), q_value=q)


def sandwiched_q(alpha: float, rho, sigma) -> float:
    """Q~_alpha = tr[(sigma^((1-alpha)/2alpha) rho sigma^((1-alpha)/2alpha))^alpha]."""
    rho = _as_density(rho)
    sigma = _as_density(sigma)
    exponent = (1.0 - alpha) / (2.0 * alpha)
    s_pow = power_on_support(sigma, exponent).matrix
    inner = HermitianOperator(s_pow @ rho.matrix @ s_pow)
    return float(np.real(np.trace(power_on_support(inner, alpha).matrix)))


def sandwiched_divergence(alpha: float, rho, sigma) -> DivergenceValue:
    """Sandwiched Renyi divergence, natural log. Same finiteness rule as the
    Petz divergence; alpha = 1 is the relative entropy."""
    _check_order(alpha)
    if alpha == 0:
        raise DomainError("sandwiched divergence requires alpha > 0")
    rho = _as_density(rho)
    sigma = _as_density(sigma)
    terms = _petz_terms(rho, sigma)
    if not _finite(alpha, *terms):
        return DivergenceValue.infinite()
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return _relative_entropy(*terms)
    q = sandwiched_q(alpha, rho, sigma)
    return DivergenceValue(value=math.log(q) / (alpha - 1.0), q_value=q)


def renyi_entropy(alpha: float, rho) -> float:
    """Renyi entropy H_alpha(rho) = (1/(1-alpha)) log tr[rho^alpha], natural log.

    Accepts any real alpha as well as +-inf:
      alpha = 1 is the von Neumann entropy,
      alpha = +inf is -log lambda_max,
      alpha = -inf is -log lambda_min (over the support),
      negative alpha uses powers taken on the support.
    """
    rho = _as_density(rho)
    probs = rho.spectrum[spectral_power(rho.spectrum, 0.0) > 0]
    if alpha == math.inf:
        return -math.log(float(probs.max()))
    if alpha == -math.inf:
        return -math.log(float(probs.min()))
    if not np.isfinite(alpha):
        raise DomainError(f"invalid Renyi entropy order {alpha!r}")
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return float(-np.sum(probs * np.log(probs)))
    # max-shifted evaluation: direct probs**alpha under/overflows for large |alpha|
    ref = probs.max() if alpha > 0 else probs.min()
    log_sum = alpha * math.log(ref) + math.log(float(np.sum((probs / ref) ** alpha)))
    return log_sum / (1.0 - alpha)


def min_entropy(rho) -> float:
    return renyi_entropy(math.inf, rho)
