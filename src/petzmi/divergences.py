"""Renyi divergences of density-operator pairs and Renyi entropies.

Both the standard (Petz) and the minimal (sandwiched) quantum Renyi divergence
are implemented, together with the relative entropy, the relative-entropy
variance, and the Renyi entropy for all real orders including the limits.

Every Petz quantity is one Nussbaum-Szkola sum over the eigensystems
rho = sum_i lambda_i |u_i><u_i| and sigma = sum_j mu_j |v_j><v_j|:

    tr[f(rho) g(sigma)] = sum_ij f(lambda_i) W_ij g(mu_j),  W_ij = |<u_i|v_j>|^2,

with powers and logarithms taken on the support by `linalg.spectral_power`.
`_petz_terms` forms (lambda, mu, W) once; both support tests are sums over it,
and D_alpha and its alpha-derivative (V/2 at alpha = 1) at every order are
`_centered`, the centered cumulant generating function of p_ij ~ lambda_i W_ij
(Nussbaum & Szkola, Ann. Stat. 37, 1040 (2009)), exact through alpha = 1.

Infinite values are represented explicitly by DivergenceValue.is_infinite; no
float('inf') ever enters an arithmetic expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .linalg import EPS, HermitianOperator, power_on_support, spectral_power
from .states import DensityOperator

ALPHA_ONE_WINDOW = 1e-6
SUPPORT_OVERLAP_TOL = 1e-10
_LOG_MAX = math.log(np.finfo(float).max)  # the largest x with a finite e^x


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


def _orders(alpha: np.ndarray) -> tuple:
    """The per-row constants of a stack of k orders, formed once per stack:
    alpha, the (k, 1) columns 1 - alpha and 1/alpha, and alpha/(alpha - 1).
    1/alpha is None when a row is at most 1/2, where `_one_sided_min` rescales M."""
    inv = None if np.any(alpha <= 0.5) else (1.0 / alpha)[:, None]
    return alpha, (1.0 - alpha)[:, None], inv, alpha / (alpha - 1.0)


def _one_sided_min(orders: tuple, m_vals: np.ndarray):
    """min over tau of D_alpha(rho || sigma x tau) = (alpha/(alpha-1)) log tr[M^(1/alpha)],
    attained at tau = M^(1/alpha) / tr[M^(1/alpha)], for each row of a (k, d)
    stack of the eigenvalues of M = tr_A[rho^alpha (sigma^(1-alpha) x 1)], given
    the `_orders` constants of k orders or of one. At alpha = 0, and wherever
    1/alpha overflows, it is -log lambda_max(M) / (1 - alpha), attained on the
    top eigenvector (the last one of a tie). Returns the k values, inf where M
    vanishes, and the eigenvalues of the k minimizers."""
    alpha, _, inv, ratio = orders
    if inv is not None:  # every row above 1/2: the power of M itself
        powered = spectral_power(m_vals, inv)
        norm = powered.sum(axis=1)
        vanish = norm <= 0
        norm[vanish] = 1.0
        return np.where(vanish, math.inf, ratio * np.log(norm)), powered / norm[:, None]
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
    """(lambda, mu, W): the spectra of rho and sigma on their supports (0 under
    the cut of `linalg.spectral_power`) and W_ij = |<u_i|v_j>|^2 between their
    eigenvectors, from the cached eigensystems."""
    if rho.dim != sigma.dim:
        raise InvalidInputError("states must have equal dimension")
    w = np.abs(rho.eigenvectors.conj().T @ sigma.eigenvectors) ** 2
    return spectral_power(rho.spectrum, 1.0), spectral_power(sigma.spectrum, 1.0), w


def _product_terms(rho: HermitianOperator, a: tuple, b: tuple):
    """`_petz_terms(rho, a x b)` from the factors' eigensystems a = (vals, vecs)
    and b, each of one operator or of a stack of k, (k, d) and (k, d, d):
    mu = a_x b_y on v_x x w_y, (D,) or (k, D), x-major, on the products of the
    factors' supports, and W, (d, D) or (k, d, D), with lambda shared. No product
    matrix is formed or decomposed, and mu keeps the factors' relative accuracy."""
    (a_vals, a_vecs), (b_vals, b_vecs) = a, b
    mu = spectral_power(a_vals, 1.0)[..., :, None] * spectral_power(b_vals, 1.0)[..., None, :]
    u = rho.eigenvectors.conj().reshape(a_vals.shape[-1], b_vals.shape[-1], rho.dim)
    w = np.einsum("xyi,...xa,...yb->...iab", u, a_vecs, b_vecs).reshape(*mu.shape[:-2], rho.dim, -1)
    return spectral_power(rho.spectrum, 1.0), mu.reshape(*mu.shape[:-2], -1), w.real**2 + w.imag**2


def _finite(alpha: float, lam: np.ndarray, mu: np.ndarray, w: np.ndarray) -> bool:
    """Whether D_alpha is finite, from terms whose spectra are 0 off their
    supports: for alpha < 1 the supports are not orthogonal, tr[P_rho P_sigma]
    > tol; otherwise supp(rho) <= supp(sigma), that is, the weight
    tr[rho (1 - P_sigma)] of rho off supp(sigma) is at most tol."""
    support = (mu > 0).astype(float)
    if alpha < 1:
        return float((lam > 0) @ w @ support) > SUPPORT_OVERLAP_TOL
    return float(lam @ w @ (1.0 - support)) <= SUPPORT_OVERLAP_TOL


def dominated(rho: DensityOperator, sigma: DensityOperator) -> bool:
    """Whether supp(rho) is contained in supp(sigma), numerically."""
    return _finite(1.0, *_petz_terms(rho, sigma))


def relative_entropy(rho, sigma) -> DivergenceValue:
    """Umegaki relative entropy tr[rho (log rho - log sigma)], natural log:
    sum_ij lambda_i W_ij (log lambda_i - log mu_j), the alpha = 1 case of
    `petz_divergence`."""
    return petz_divergence(1.0, rho, sigma)


def relative_entropy_variance(rho, sigma) -> float:
    """V(rho || sigma) = tr[rho (log rho - log sigma - D)^2], twice the
    alpha-derivative of D_alpha at alpha = 1. Requires supp(rho) <= supp(sigma).
    """
    terms = _petz_terms(_as_density(rho), _as_density(sigma))
    if not _finite(1.0, *terms):
        raise DomainError("variance undefined: supp(rho) not contained in supp(sigma)")
    return 2.0 * float(_centered(np.zeros(1), *terms, derivative=True)[1][0])


# psi(u) / u^2 = sum_n (n + 1) u^n / (n + 2)!, psi(u) = (u - 1) e^u + 1, highest
# power first: n <= 18 reaches float precision on |u| <= 1
_PSI_SERIES = [(n + 1) / math.factorial(n + 2) for n in range(18, -1, -1)]


def _centered(t: np.ndarray, lam: np.ndarray, mu: np.ndarray, w: np.ndarray,
              derivative: bool = False):
    """D_alpha at the k orders alpha = 1 + t of a stack, and dD/dalpha if asked
    (else 0), of a pair finite there, from terms (lam (d,), mu (k, D), W
    (k, d, D); or mu (D,), W (d, D) shared by the orders), spectra 0 off the supports.

    p_ij = lambda_i W_ij / Z on the supports, X_ij = log lambda_i - log mu_j,
    Y = X - E_p X. Z is rho's weight on supp(sigma) over all of it: 1 where the
    rest is W's rounding (<= EPS), else kept, as the dense trace keeps it. Where
    |tY| <= 1 (by the ranges of the logs), D = E_p X + (log Z + L) / t with L =
    log E_p[e^(tY)] = log1p(E[U] + E[V] + E[UV]), U_i = expm1(t (log lambda_i -
    E log lambda)), V_j likewise: nothing cancels; dD/dt = E_p[psi(tY)] / (t^2
    (1 + S)) + (S / (1 + S) - L - log Z) / t^2, psi(u) = (u - 1) e^u + 1 by
    series, S = e^L - 1. Beyond, D = (log Z + log Q) / t, Q = E_p[lambda^t mu^-t]
    by powers (over extreme eigenvalues where a term could leave float range),
    and dD/dt = (E_q[tX] - log Q - log Z) / t^2, q ~ p lambda^t mu^-t. At t = 0:
    E_p X and E_p[Y^2] / 2 = V/2, over all of rho's weight, log mu 0 off supp(sigma).
    """
    d, size = w.shape[-2:]
    mu, w = mu.reshape(-1, size), w.reshape(-1, d, size)  # one row shared by the orders
    on_l, on_m = lam > 0, mu > 0
    log_l = np.log(lam, out=np.zeros(d), where=on_l)
    log_m = np.log(mu, out=np.zeros(mu.shape), where=on_m)
    # the ranges of log lambda and log mu with 0, which bound |Y| and |X|
    l_lo, l_hi, m_lo, m_hi = log_l.min(), log_l.max(), log_m.min(1), log_m.max(1)
    small = np.abs(t) * (l_hi - l_lo + m_hi - m_lo) <= 1.0
    p, log_z = np.multiply(lam[:, None], w, out=np.empty(w.shape)), 0.0  # C order: rows sum alike
    if not on_m.all():  # rho's weight off supp(sigma) leaves p but at t = 0
        kept = (on_m | (t == 0)[:, None])[:, None, :]
        off, p = (p * ~kept).sum((1, 2)), p * kept
        log_z = -np.log1p(off / p.sum((1, 2))) * (off > EPS)
    row = p.sum(2)
    z, safe, value = row.sum(1), t + (t == 0), np.zeros_like(t)
    p, row, slope = p / z[:, None, None], row / z[:, None], value
    if small.any():  # every row, those beyond at t = 0
        ts, col = (t * small)[:, None], p.sum(1)
        a, b = (row * log_l).sum(1), (col * log_m).sum(1)
        y_l, y_m = log_l - a[:, None], log_m - b[:, None]
        e_u, e_v = np.expm1(ts * y_l), np.expm1(-ts * y_m)
        s = ((e_u[:, None, :] @ p)[:, 0] * (1.0 + e_v) + col * e_v).sum(1)  # E[U + V + UV]
        cgf = np.log1p(s)
        value = a - b + (log_z + cgf) / safe
        if derivative:
            y = y_l[:, :, None] - y_m[:, None, :]
            e_psi = (p * y * y * np.polyval(_PSI_SERIES, ts[:, :, None] * y)).sum((1, 2))
            slope = e_psi / (1.0 + s) + (s / (1.0 + s) - cgf - log_z) / safe**2
    if not small.all():  # every row, the small ones at t = 0
        tb, l_ref, m_ref = (t * ~small)[:, None], 1.0, 1.0
        # lambda^t, mu^-t over the extreme eigenvalues that keep them <= 1, on the
        # rows where a term could leave half the float range
        keep = np.abs(tb) * (max(-l_lo, l_hi) + np.maximum(-m_lo, m_hi)[:, None]) < _LOG_MAX / 2
        if not keep.all():
            l_ref = np.where(keep, 1.0, np.exp(np.where(tb > 0, l_hi, l_lo)))
            m_ref = np.where(keep, 1.0, np.exp(np.where(tb > 0, m_lo[:, None], m_hi[:, None])))
        # np.float_power, as in `linalg.spectral_power`: a row's powers do not depend on its stack
        g = np.float_power(lam / l_ref, tb, out=np.zeros((t.size, d)), where=on_l)
        h = np.float_power(mu / m_ref, -tb, out=np.zeros((t.size, size)), where=on_m)
        gp = (g[:, None, :] @ p)[:, 0]
        q = (gp * h).sum(1)
        log_q = (tb * np.log(l_ref / m_ref)).reshape(-1) + np.log(q)
        value = np.where(small, value, (log_z + log_q) / safe)
        if derivative:
            mean_l = (g * (p @ h[:, :, None])[:, :, 0] * log_l).sum(1)
            tilt = t * (mean_l - (h * gp * log_m).sum(1)) / q - log_q
            slope = np.where(small, slope, (tilt - log_z) / safe**2)
    return value, slope


def petz_divergence(alpha: float, rho, sigma) -> DivergenceValue:
    """Petz Renyi divergence D_alpha(rho || sigma), natural log.

    Finite iff (alpha < 1 and the states are not orthogonal) or
    supp(rho) <= supp(sigma); alpha = 1 is the relative entropy, alpha = 0 is
    -log tr[rho^0 sigma].
    """
    _check_order(alpha)
    terms = _petz_terms(_as_density(rho), _as_density(sigma))
    if not _finite(alpha, *terms):
        return DivergenceValue.infinite()
    return _divergence_value(alpha, float(_centered(np.array([alpha - 1.0]), *terms)[0][0]))


def _divergence_value(alpha: float, d: float) -> DivergenceValue:
    """A finite D_alpha, with q_value Q = e^((alpha-1) D) where it is a float."""
    t = alpha - 1.0
    return DivergenceValue(value=d, q_value=math.exp(t * d) if t and t * d < _LOG_MAX else None)


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
    Petz divergence; alpha = 1 is the relative entropy, and so, as it has no
    Nussbaum-Szkola form, is every order within ALPHA_ONE_WINDOW of 1."""
    _check_order(alpha)
    if alpha == 0:
        raise DomainError("sandwiched divergence requires alpha > 0")
    rho = _as_density(rho)
    sigma = _as_density(sigma)
    terms = _petz_terms(rho, sigma)
    if not _finite(alpha, *terms):
        return DivergenceValue.infinite()
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return relative_entropy(rho, sigma)
    q = sandwiched_q(alpha, rho, sigma)
    return DivergenceValue(value=math.log(q) / (alpha - 1.0), q_value=q)


def renyi_entropy(alpha: float, rho) -> float:
    """Renyi entropy H_alpha(rho) = (1/(1-alpha)) log tr[rho^alpha], natural log:
    -D_alpha(rho || 1): the one-order case of `_renyi_entropies`.

    Accepts any real alpha as well as +-inf:
      alpha = 1 is the von Neumann entropy,
      alpha = +inf is -log lambda_max,
      alpha = -inf is -log lambda_min (over the support),
      negative alpha uses powers taken on the support.
    """
    rho = _as_density(rho)
    if alpha in (math.inf, -math.inf):
        probs = rho.spectrum[spectral_power(rho.spectrum, 0.0) > 0]
        return -math.log(float(probs.max() if alpha > 0 else probs.min()))
    if not np.isfinite(alpha):
        raise DomainError(f"invalid Renyi entropy order {alpha!r}")
    return float(_renyi_entropies(np.array([alpha], dtype=float), rho)[0])


def _renyi_entropies(alphas: np.ndarray, rho: DensityOperator) -> np.ndarray:
    """H_alpha(rho) at a stack of finite orders, from one `_centered` call on
    rho's spectrum on its support."""
    probs = rho.spectrum[spectral_power(rho.spectrum, 0.0) > 0]
    return -_centered(alphas - 1.0, probs, np.ones(1), np.ones((probs.size, 1)))[0]


def min_entropy(rho) -> float:
    return renyi_entropy(math.inf, rho)
