"""Reference implementations that the tests compare the library against, and
helpers that several test modules share. No library code calls them; the test
modules import this one as `reference`, `tests/` being on their import path."""

import functools
import math

import mpmath
import numpy as np

from petzmi import classical
from petzmi.divergences import (ALPHA_ONE_WINDOW, DivergenceValue, _as_density, _check_order,
                                _one_sided_min, _orders, _petz_terms, dominated)
from petzmi.errors import DomainError, InvalidInputError, NumericalDegradationError
from petzmi.hypotest import universal_state
from petzmi.linalg import (EPS, HermitianOperator, _as_operator, _check_psd,
                           power_on_support, spectral_log, spectral_power)
from petzmi.oracle import _PAULI_X, _PAULI_Y, _PAULI_Z
from petzmi.divergences import _centered
from petzmi.errors import UnsupportedRegimeError
from petzmi.prmi import (CONVERGING, GAP_TOL, MAX_ITER, MONOTONICITY_SLACK, SECANT_RATIO,
                         PrmiSolution, _compose, _dagger, _dd_closed_form, _fw_gap, _is_copy_cc,
                         _is_product, _low_starts, _up_up, _without_loop, prmi_down_down)
from petzmi.states import BipartiteState, DensityOperator, Pmf


def log_on_support(op) -> HermitianOperator:
    """Natural logarithm on the support; kernel eigenvalues map to 0."""
    op = _as_operator(op)
    vecs = op.eigenvectors
    return HermitianOperator((vecs * spectral_log(op.spectrum)) @ vecs.conj().T)


def tensor_product(a, b) -> HermitianOperator:
    """Kronecker product under the A-major index convention."""
    a = _as_operator(a)
    b = _as_operator(b)
    return HermitianOperator(np.kron(a.matrix, b.matrix))


def partial_trace_factors(matrix: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace over a multi-factor system, keeping the listed factor indices.

    The kept factors retain their original relative order.
    """
    n = len(dims)
    m = np.asarray(matrix).reshape(dims + dims)
    traced = sorted(set(range(n)) - set(keep))
    for count, idx in enumerate(traced):
        ax = idx - count  # axes shift left after each trace
        m = np.trace(m, axis1=ax, axis2=ax + (n - count))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return m.reshape(d_keep, d_keep)


def permute_factors(matrix: np.ndarray, dims: list[int], order: list[int]) -> np.ndarray:
    """Reorder the tensor factors of an operator: factor i of the output is
    factor order[i] of the input."""
    n = len(dims)
    m = np.asarray(matrix).reshape(dims + dims)
    perm = list(order) + [n + i for i in order]
    m = np.transpose(m, perm)
    d = int(np.prod(dims))
    return m.reshape(d, d)


def nonnegative_part_projector(x, y) -> HermitianOperator:
    """The spectral projector {X >= Y} onto the nonnegative eigenspace of X - Y."""
    x = _as_operator(x)
    y = _as_operator(y)
    if x.dim != y.dim:
        raise InvalidInputError("operators must have the same dimension")
    diff = HermitianOperator(x.matrix - y.matrix)
    vals = diff.spectrum
    # tiny eigenvalues of either sign count as zero, hence nonnegative:
    # dim * max|eigenvalue| * eps, the cut of `spectral_power`
    tol = diff.dim * float(np.max(np.abs(vals), initial=0.0)) * EPS
    keep = vals >= -tol
    v = diff.eigenvectors[:, keep]
    return HermitianOperator(v @ v.conj().T)


def _geometric_mean_regular(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xs = HermitianOperator(x)
    x_half = power_on_support(xs, 0.5).matrix
    x_neg_half = power_on_support(xs, -0.5).matrix
    pivot = x_neg_half @ y @ x_neg_half
    # symmetrize: ill-conditioned x leaves rounding asymmetry here
    inner = power_on_support(HermitianOperator((pivot + pivot.conj().T) / 2), 0.5).matrix
    out = x_half @ inner @ x_half
    return (out + out.conj().T) / 2


def geometric_mean(x, y) -> HermitianOperator:
    """Geometric operator mean X # Y.

    For singular inputs this evaluates the defining epsilon-regularized limit at
    eps in {1e-6, 1e-8, 1e-10} and extrapolates to eps -> 0 with a quadratic fit
    in sqrt(eps).
    """
    x = _as_operator(x)
    y = _as_operator(y)
    if x.dim != y.dim:
        raise InvalidInputError("operators must have the same dimension")
    _check_psd(x.spectrum)
    _check_psd(y.spectrum)
    # dim * max|eigenvalue| * eps, the cut of `spectral_power`, of either input
    cutoff = max(*(op.dim * float(np.max(np.abs(op.spectrum), initial=0.0)) * EPS
                   for op in (x, y)), 1e-13)
    if x.spectrum[-1] > cutoff and y.spectrum[-1] > cutoff:
        return HermitianOperator(_geometric_mean_regular(x.matrix, y.matrix))
    eye = np.eye(x.dim)
    eps_values = (1e-6, 1e-8, 1e-10)
    samples = [
        _geometric_mean_regular(x.matrix + e * eye, y.matrix + e * eye) for e in eps_values
    ]
    # fit G(eps) = G0 + a*sqrt(eps) + b*eps entrywise and keep G0
    roots = np.sqrt(eps_values)
    vander = np.stack([np.ones(3), roots, roots**2], axis=1)
    coeffs = np.linalg.solve(vander, np.stack([s.reshape(-1) for s in samples]))
    g0 = coeffs[0].reshape(x.dim, x.dim)
    return HermitianOperator((g0 + g0.conj().T) / 2)


def trace_distance(a, b) -> float:
    """(1/2) * trace norm of the difference."""
    diff = _as_operator(a).matrix - _as_operator(b).matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tensor_states(rho: BipartiteState, sigma: BipartiteState) -> BipartiteState:
    """Tensor product of bipartite states, regrouped so that the A systems come
    first: (A1 B1) x (A2 B2) -> (A1 A2):(B1 B2)."""
    m = tensor_product(rho, sigma).matrix
    dims = [rho.d_a, rho.d_b, sigma.d_a, sigma.d_b]
    regrouped = permute_factors(m, dims, [0, 2, 1, 3])
    return BipartiteState(regrouped, rho.d_a * sigma.d_a, rho.d_b * sigma.d_b)


def purify(rho: DensityOperator) -> tuple[np.ndarray, int]:
    """An eigenbasis purification of rho on H x H_C with d_C = rank(rho).

    Returns (amplitude vector on dim*d_c entries, d_c). The global phase is fixed
    so the first nonzero component is real and positive.
    """
    keep = spectral_power(rho.spectrum, 0.0) > 0
    vals = rho.spectrum[keep]
    vecs = rho.eigenvectors[:, keep]
    d_c = vals.size
    # |psi> = sum_k sqrt(lambda_k) |v_k>|k>, system-major indexing
    psi = (vecs * np.sqrt(vals)).reshape(-1)
    for x in psi:
        if abs(x) > 1e-12:
            psi = psi * (x.conjugate() / abs(x))
            break
    return psi, d_c


def bloch_density(r: float, theta: float, phi: float) -> np.ndarray:
    n = r * np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])
    return (np.eye(2) + n[0] * _PAULI_X + n[1] * _PAULI_Y + n[2] * _PAULI_Z) / 2


def real_ginibre(d_a: int, d_b: int, seed, rank: int | None = None) -> BipartiteState:
    """G G^T / tr(G G^T) for a real Gaussian G with `rank` columns: a real,
    non-diagonal state, whose eigenbasis is real but not the standard one."""
    g = np.random.default_rng(seed).standard_normal((d_a * d_b, rank or d_a * d_b))
    return BipartiteState(g @ g.T / np.trace(g @ g.T), d_a, d_b)


def dense_power(x, n, d_a, d_b):
    """x^(x n) as one dense matrix, rows in (A1 ... An)(B1 ... Bn) order."""
    m = functools.reduce(np.kron, [x] * n)
    order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return permute_factors(m, [d_a, d_b] * n, order)


@functools.cache
def dense_alternative(n, d_a, d_b):
    """omega_A x omega_B as one dense operator, decomposed once per (n, d_A, d_B)."""
    return DensityOperator(np.kron(universal_state(n, d_a).matrix, universal_state(n, d_b).matrix))


def log_ratio(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """log lambda_i - log mu_j, each logarithm taken on its support."""
    return spectral_log(lam)[:, None] - spectral_log(mu)[None, :]


def petz_q(alpha: float, rho, sigma) -> float:
    """The trace functional Q_alpha = tr[rho^alpha sigma^(1-alpha)], as the
    Nussbaum-Szkola sum sum_ij lambda_i^alpha W_ij mu_j^(1-alpha)."""
    lam, mu, w = _petz_terms(_as_density(rho), _as_density(sigma))
    return float(spectral_power(lam, alpha) @ w @ spectral_power(mu, 1.0 - alpha))


def entropy(p, alpha):
    """Renyi entropy of a probability vector, natural log, as a scalar formula."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    if alpha == 1.0:
        return float(-np.sum(p * np.log(p)))
    if alpha == math.inf:
        return -math.log(p.max())
    return float(np.log(np.sum(p**alpha)) / (1 - alpha))



def eager_density(vals: np.ndarray, vecs: np.ndarray) -> DensityOperator:
    """The density operator of a held eigensystem as the solver built it before
    the matrix was composed on first read: the matrix composed, validated and
    symmetrized at once."""
    return _with_matrix(DensityOperator.from_eigensystem(vals, vecs), _compose(vals, vecs))


def product_state(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """a x b, carrying the Kronecker product of the factors' eigensystems: the
    product is never decomposed, and its eigenvalues keep the factors'
    relative accuracy."""
    op = DensityOperator.from_eigensystem(np.kron(a.spectrum, b.spectrum),
                                          np.kron(a.eigenvectors, b.eigenvectors))
    return _with_matrix(op, np.kron(a.matrix, b.matrix))


def _with_matrix(op: DensityOperator, matrix: np.ndarray) -> DensityOperator:
    """op, built `from_eigensystem`, with matrix in place of the one it would
    compose: validated and symmetrized by `HermitianOperator.__init__` now."""
    op._matrix = HermitianOperator(matrix).matrix
    return op


# The alpha-derivative formed row by row, with np.kron, before a stack of orders
# was summed at once: `test_fixed_point_gap` compares `rate_curve` against it.


def _kron_terms(rho: HermitianOperator, a: HermitianOperator, b: HermitianOperator):
    """`_petz_terms(rho, a x b)` from the factors' eigensystems, mu = a_x b_y in
    descending order on v_x x w_y, both spectra on their supports, mu on the
    products of the factors' supports: no product matrix is formed or
    decomposed, and mu keeps the factors' relative accuracy."""
    order = np.argsort(np.kron(a.spectrum, b.spectrum))[::-1]
    mu = np.kron(spectral_power(a.spectrum, 1.0), spectral_power(b.spectrum, 1.0))
    u = rho.eigenvectors.conj().reshape(a.dim, b.dim, rho.dim)
    overlap = np.einsum("xyi,xa,yb->iab", u, a.eigenvectors, b.eigenvectors)
    return (spectral_power(rho.spectrum, 1.0), mu[order],
            np.abs(overlap.reshape(rho.dim, -1)[:, order]) ** 2)


def alpha_derivative(alpha: float, rho: BipartiteState,
                     solution: PrmiSolution | None = None) -> float:
    """d/d alpha of the doubly minimized Renyi mutual information.

    By the envelope theorem the minimizers may be held fixed, so this is the
    alpha-derivative of D_alpha(rho || sigma* x tau*), evaluated analytically:
    with Q = tr[rho^alpha omega^(1-alpha)],
      dD/dalpha = -log Q / (alpha-1)^2 + Q' / (Q (alpha-1)),
      Q' = tr[rho^alpha log(rho) omega^(1-alpha)] - tr[rho^alpha omega^(1-alpha) log(omega)],
    both as Nussbaum-Szkola sums over the eigensystems of rho and omega:
    Q = sum_ij lambda_i^alpha W_ij mu_j^(1-alpha), and Q' weights the same terms
    by log lambda_i - log mu_j. The eigensystem of omega = sigma* x tau* is
    formed from the factors' with np.kron; omega itself is never built. Q is
    divided by rho's total weight sum_ij lambda_i W_ij, as
    `divergences._centered` divides it, and the sums run in mpmath at 50
    digits: in floats the two terms cancel next to 1, and a term of a tiny mu_j
    loses digits of Q' (7e-12 of the derivative on a pure state at 0.52).
    """
    if solution is None:
        solution = prmi_down_down(alpha, rho)
    lam, mu, w = _kron_terms(rho, solution.sigma_a, solution.tau_b)
    with mpmath.workdps(50):
        on = [(i, j) for i in range(lam.size) for j in range(mu.size) if lam[i] > 0 and mu[j] > 0]
        weights = [mpmath.mpf(lam[i]) * mpmath.mpf(w[i, j]) for i, j in on]
        x = [mpmath.log(mpmath.mpf(lam[i])) - mpmath.log(mpmath.mpf(mu[j])) for i, j in on]
        t = mpmath.mpf(alpha) - 1
        total = mpmath.fsum(mpmath.mpf(x) * mpmath.mpf(y) for x, row in zip(lam, w) for y in row)
        q = mpmath.fsum(p * mpmath.exp(t * xi) for p, xi in zip(weights, x)) / total
        q_prime = mpmath.fsum(p * xi * mpmath.exp(t * xi) for p, xi in zip(weights, x)) / total
        return float(-mpmath.log(q) / t**2 + q_prime / (q * t))


# The solver's half-step and Frank-Wolfe gap as they were before the order
# constants were hoisted out of the loop and the gap read sigma's powered
# spectrum from the half-step; `test_fixed_point_gap` compares the two.


def _unhoisted_half_step(alpha: np.ndarray, r: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The exact one-sided minimization, on a stack of k rows.

    alpha holds the k orders, r the k tensors rho^alpha of shape
    (k, d, d', d, d'), and (vals, vecs) the eigensystems of sigma on the first
    factor, (k, d) and (k, d, d). Returns the k values of
    `gen_prmi_down`, the eigensystems of the minimizers on the second factor,
    and the k matrices M = tr_1[rho^alpha (sigma^(1-alpha) x 1)] that were
    decomposed (`_unhoisted_step`). A row whose M vanishes has value inf.
    """
    s_pow = _compose(spectral_power(vals, 1.0 - alpha[:, None]), vecs)
    m = np.einsum("kibjd,kji->kbd", r, s_pow)
    m = (m + _dagger(m)) / 2
    return (*_unhoisted_step(alpha, m), m)


def _unhoisted_step(alpha: np.ndarray, m: np.ndarray):
    """The half-step's minimization on the k matrices M: the values and the
    minimizers' eigensystems. The orders are passed with a mask of the rows at
    most 1/2, even one that holds none, so `_one_sided_min` takes its rescaled
    form at every order, which the solver takes only where some order is at
    most 1/2."""
    m_vals, m_vecs = np.linalg.eigh(m)
    orders = _orders(alpha)
    return (*_one_sided_min((*orders[:4], alpha <= 0.5, orders[5]), m_vals), m_vecs)


def _fw_gradient(alpha: np.ndarray, value: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                 k: np.ndarray) -> np.ndarray:
    """Gradient of f(sigma) = min_tau D_alpha(rho || sigma x tau) in the
    eigenbasis U of sigma, per row.

    sigma = U diag(s) U^dag is given by (vals, vecs), value is f(sigma) and
    k = tr_B[rho^alpha (1 x tau^(1-alpha))] at the minimizing tau. With
    N = tr[M^(1/alpha)], the gradient is
        grad f = U (Gamma o U^dag K U) U^dag N^(-alpha) / (alpha - 1),
    Gamma the divided differences of s^(1-alpha); this returns U^dag grad f U,
    on supp(sigma) (zero off it). Gamma_ij = s_j^(-alpha) phi(log s_i - log s_j)
    with phi(l) = expm1((1-alpha) l) / expm1(l) (phi(0) = 1 - alpha) has no
    cancellation between close eigenvalues.
    """
    p = (1.0 - alpha)[:, None, None]
    support = spectral_power(vals, 0.0)
    logs = np.log(np.where(support > 0, vals, 1.0))
    lr = logs[:, :, None] - logs[:, None, :]
    same = lr == 0
    phi = np.where(same, p, np.expm1(p * lr) / np.where(same, 1.0, np.expm1(lr)))
    # s_j^(-alpha) on the support; N^(-alpha) = exp((1 - alpha) f), as
    # f = (alpha/(alpha-1)) log N
    col = support * np.exp(-alpha[:, None] * logs)
    scale = np.exp((1.0 - alpha) * value) / (alpha - 1.0)
    gamma = phi * (support * scale[:, None])[:, :, None] * col[:, None, :]
    h = gamma * (_dagger(vecs) @ k @ vecs)
    return (h + _dagger(h)) / 2


def _unhoisted_fw_gap(alpha: np.ndarray, value: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                      k: np.ndarray) -> np.ndarray:
    """Frank-Wolfe gap G = tr[grad f sigma] - lambda_min(grad f) of f at sigma,
    per row, on supp(sigma), which the iterates share with rho_A. One
    d_A x d_A eigvalsh per row; see `_fw_gradient` for the arguments.

    On [1/2, 1), dd >= f(sigma) - G(sigma) for f differentiable at sigma and
    supp sigma = supp rho_A. By Ando's tensor form of Lieb concavity (Linear
    Algebra Appl. 26, 203 (1979)), (A, B) -> A^p x B^q is jointly concave for
    p, q >= 0 with p + q <= 1; with p = q = 1 - alpha, which needs alpha >= 1/2,
    Q(sigma, tau) = tr[rho^alpha (sigma^(1-alpha) x tau^(1-alpha))] is jointly
    concave, so g = max_tau Q is concave and f = -log g / (1 - alpha) is convex:
    it lies above its tangent at sigma. On (1, 2] the bound is tested, not proven.
    """
    h = _fw_gradient(alpha, value, vals, vecs, k)
    along = np.real(np.einsum("kii,ki->k", h, vals))
    return along - np.linalg.eigvalsh(h)[:, 0]

_TOL = 1e-12  # stop of the alternating minimization, on value and on r
_MAX_ITER = 10000


def _as_pmf_vector(p) -> np.ndarray:
    v = np.asarray(p, dtype=float).reshape(-1)
    if np.min(v) < -1e-12:
        raise InvalidInputError("probability vector has negative entries")
    return np.clip(v, 0.0, None)


def classical_divergence(alpha: float, p, q) -> DivergenceValue:
    """Classical Renyi divergence D_alpha(p || q), natural log."""
    _check_order(alpha)
    p = _as_pmf_vector(p)
    q = _as_pmf_vector(q)
    if p.size != q.size:
        raise InvalidInputError("pmf supports must have equal size")
    sp = p > 0
    sq = q > 0
    if alpha < 1:
        if not np.any(sp & sq):
            return DivergenceValue.infinite()
    elif np.any(sp & ~sq):
        return DivergenceValue.infinite()
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        mask = sp
        return DivergenceValue(value=float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))
    mask = sp & sq
    if alpha == 0:
        return DivergenceValue(value=-math.log(float(np.sum(q[sp]))))
    s = float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))
    return DivergenceValue(value=math.log(s) / (alpha - 1.0), q_value=s)


def mutual_information(pmf: Pmf) -> float:
    table = pmf.table
    prod = np.outer(pmf.marginal_x, pmf.marginal_y)
    mask = table > 0
    return float(np.sum(table[mask] * np.log(table[mask] / prod[mask])))


def rmi_up_up(alpha: float, pmf: Pmf) -> DivergenceValue:
    """I_alpha^(up,up): divergence to the product of the true marginals."""
    return classical_divergence(alpha, pmf.table.reshape(-1), np.outer(pmf.marginal_x, pmf.marginal_y).reshape(-1))


def _down_value_and_optimal_q(alpha: float, table: np.ndarray, r: np.ndarray):
    """min_q D_alpha(P || r x q) and its minimizer for one pmf r and alpha > 0:
    with m_y = sum_x P(x,y)^alpha r(x)^(1-alpha), the value is
    (alpha/(alpha-1)) log sum_y m_y^(1/alpha) at q ~ m^(1/alpha). The loop
    for alpha > 1/2 runs on it, and so does the per-point simplex search that
    the tests hold against `classical.rmi_down_down`."""
    with np.errstate(divide="ignore"):
        ra = np.where(r > 0, r ** (1.0 - alpha), 0.0)
    m = (table**alpha * ra[:, None]).sum(axis=0)
    s = float(np.sum(m ** (1.0 / alpha)))
    q = m ** (1.0 / alpha) / s
    value = (alpha / (alpha - 1.0)) * math.log(s)
    return value, q


def rmi_down_down(alpha: float, pmf: Pmf):
    """Doubly minimized classical Renyi mutual information
    min_{r, q} D_alpha(P || r x q).

    For alpha > 1/2 this alternates the two closed-form one-sided minimizations,
    which monotonically decreases the objective. For alpha <= 1/2 it is the
    simplex search of `classical.rmi_down_down`.

    Returns (value, r, q).
    """
    _check_order(alpha)
    table = pmf.table
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return mutual_information(pmf), pmf.marginal_x.copy(), pmf.marginal_y.copy()
    if alpha > 0.5:
        r = pmf.marginal_x.copy()
        prev = math.inf
        for _ in range(_MAX_ITER):
            val, q = _down_value_and_optimal_q(alpha, table, r)
            _, r_new = _down_value_and_optimal_q(alpha, table.T, q)
            if abs(val - prev) <= _TOL and np.max(np.abs(r_new - r)) <= _TOL:
                r = r_new
                break
            prev = val
            r = r_new
        val, q = _down_value_and_optimal_q(alpha, table, r)
        return val, r, q
    return classical.rmi_down_down(alpha, pmf)


def rmi_up_down(alpha: float, pmf: Pmf) -> float:
    """I_alpha^(up,down): first marginal fixed to the true one, second minimized."""
    if abs(alpha - 1.0) <= ALPHA_ONE_WINDOW:
        return mutual_information(pmf)
    if alpha <= 0:
        raise DomainError("closed form requires alpha > 0")
    val, _ = _down_value_and_optimal_q(alpha, pmf.table, pmf.marginal_x)
    return val


# The dd solver as it was while M came from an einsum over rho^alpha as a
# (k, d_A, d_B, d_A, d_B) tensor, its B -> A half-step through the transposed
# tensor, and the loop re-formed `_orders` as rows stopped: `_product_terms`
# (a three-operand einsum), `_one_sided`, `_stacked` (which sorted each
# operator's eigensystem), `_rho_power`, `_half_step`, `_traced`,
# `_run_fixed_point` and `_solve_dd` verbatim, their names prefixed `einsum`.
# They share the package's `_orders`, `_one_sided_min`, `_fw_gap` and
# `_centered` with the solver. `test_solver_differential` compares the solver
# against them row by row.


def einsum_product_terms(rho: HermitianOperator, a: tuple, b: tuple):
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


def einsum_one_sided(alphas: np.ndarray, rho: BipartiteState, r: np.ndarray, sigma: tuple):
    """min over tau of D_alpha(rho || sigma x tau) on a stack of k orders but 1,
    r = `einsum_rho_power` and sigma's eigensystems ((k, d_A), (k, d_A, d_A)): D_alpha at
    `einsum_half_step`'s minimizer tau (`_centered`), floored at +0 (rounding can dip below 0, and
    + 0.0 turns -0.0 into 0.0), inf where M vanishes, and tau's eigensystems."""
    value, t_vals, t_vecs, _ = einsum_half_step(_orders(alphas), r, *sigma)
    finite = value < math.inf
    if finite.any():
        on = slice(None) if finite.all() else finite
        value[on] = _centered(alphas[on] - 1.0, *einsum_product_terms(
            rho, (sigma[0][on], sigma[1][on]), (t_vals[on], t_vecs[on])))[0]
    return np.maximum(value, 0.0) + 0.0, t_vals, t_vecs


def einsum_stacked(ops) -> tuple:
    """The eigensystems of operators of one dimension, as a stack; the eigenvectors
    complex, as the loop writes its iterates' complex eigenvectors into the stack."""
    vecs = np.array([op.eigenvectors for op in ops], dtype=complex)
    return np.array([op.spectrum for op in ops]), vecs


def einsum_rho_power(rho: BipartiteState, alphas: np.ndarray) -> np.ndarray:
    """rho^alpha for each order of a stack, as a (k, d_A, d_B, d_A, d_B) tensor."""
    m = _compose(spectral_power(rho.spectrum, alphas[:, None]), rho.eigenvectors)
    return ((m + _dagger(m)) / 2).reshape(alphas.size, rho.d_a, rho.d_b, rho.d_a, rho.d_b)


def einsum_half_step(orders: tuple, r: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The exact one-sided minimization, on a stack of k rows.

    orders holds the `_orders` constants, r the k tensors rho^alpha of shape
    (k, d, d', d, d'), and (vals, vecs) the eigensystems of sigma on the first
    factor, (k, d) and (k, d, d). Returns the k values of the one-sided
    minimum, the eigensystems of the minimizers on the second factor, and
    sigma's powered spectrum s^(1-alpha). A row whose M vanishes has value inf.
    """
    m, s_pow = einsum_traced(orders, r, vals, vecs)
    m_vals, m_vecs = np.linalg.eigh(m)
    return (*_one_sided_min(orders, m_vals), m_vecs, s_pow)


def einsum_traced(orders: tuple, r: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The half-step's M = tr_1[r (sigma^(1-alpha) x 1)] and s^(1-alpha), per row: the
    one place that forms M, also for the gap and the grid of `oracle._batched_values`."""
    s_pow = spectral_power(vals, orders[1])
    m = np.einsum("kibjd,kji->kbd", r, _compose(s_pow, vecs))
    return (m + _dagger(m)) / 2, s_pow


def einsum_run_fixed_point(alpha, rho: BipartiteState, sigma0, max_iter: int = MAX_ITER):
    """Alternating minimization from sigma0, on a stack of orders.

    alpha is one order or a stack of k; sigma0 is one start for every row or a
    list of k, one per row. The gap is formed for the rows whose value fell by
    at most CONVERGING in the round. A row stops once that gap is at most
    GAP_TOL and, at alpha >= 1/2, its plain step moved sigma by at most
    10 GAP_TOL, and, at alpha <= 1/2, where an eigenvalue lost under the support
    cut zeroes the gap, its value fell by at most GAP_TOL in the round; or
    after max_iter rounds. A row at alpha >= 1/2 that does not stop decomposes
    the secant (Anderson-1) step of the trace-1 M_A = tr_B[rho^alpha (1 x
    tau^(1-alpha))] from its last two rounds in place of M_A, while sigma and
    the sigma of the step keep lambda_min/lambda_max > SECANT_RATIO; a round
    whose value rises by more than the slack after such a step is redone from
    the plain iterate. So a stopping row ends on the plain step. Returns a
    PrmiSolution (certified as it says) for one order and a list of k for a
    stack. A start that does not cover supp(rho_A) in a row above 1, or one
    orthogonal to it, where M vanishes, raises InvalidInputError; no later M does,
    as a plain step keeps sigma on supp M_A <= supp(rho_A), M_A nonzero, and a
    secant M is used only when it is positive definite.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    k = alphas.size
    starts = sigma0 if isinstance(sigma0, list) else [sigma0] * k
    # Checked once per row above 1: if supp(rho_A) <= supp(sigma), tr_A[rho^alpha
    # (sigma^(1-alpha) x 1)] has support exactly supp(rho_B), so every tau covers
    # rho_B, every later sigma covers rho_A, and no iterate can leak.
    if not all(dominated(rho.marginal_a, s) for x, s in zip(alphas, starts) if x > 1):
        raise InvalidInputError("the start point must cover supp(rho_A) for alpha > 1")
    s_vals, s_vecs = einsum_stacked(starts)
    r_ab = einsum_rho_power(rho, alphas)
    # (alpha/(alpha-1)) log tr M^(1/alpha) scales the rounding of the log by
    # alpha/|alpha-1|, which outgrows the fixed slack near alpha = 1
    slack = MONOTONICITY_SLACK + 64 * np.finfo(float).eps * alphas / np.abs(alphas - 1.0)
    # per row: the last iterate, the gap, the residual, the rounds run
    last = [s_vals.copy(), s_vecs.copy()]
    gap, residual = np.full(k, math.inf), np.full(k, math.inf)
    rounds = np.full(k, max_iter)
    history = []  # (rows, values) of every round
    rows = np.arange(k)  # the rows still running, indexes into the stack
    # the secant state per row: the last round's trace-1 M_A, its residual
    # against the M decomposed the round before, the M decomposed last, the
    # first round with two residuals at hand, and whether the last step extrapolated
    m_a = np.zeros((k, rho.d_a, rho.d_a), dtype=complex)
    res, used = m_a.copy(), m_a.copy()
    since = np.full(k, 3)
    ext = np.zeros(k, dtype=bool)
    a, o, r, sl, prev = alphas, _orders(alphas), r_ab, slack, np.full(k, math.inf)
    for it in range(1, max_iter + 1):
        value, t_vals, t_vecs, s_pow = einsum_half_step(o, r, s_vals, s_vecs)
        if it == 1 and np.any(value == math.inf):
            raise InvalidInputError("the start point must not be orthogonal to supp(rho_A)")
        redo = ext & (value - prev > sl)
        if redo.any():  # a rise after a secant step: the plain iterate, and no secant history
            o_r = _orders(a[redo])
            e_vals, p_vecs = np.linalg.eigh(m_a[redo])
            p_vals = _one_sided_min(o_r, e_vals)[1]
            s_vals[redo], s_vecs[redo], used[redo], since[redo] = p_vals, p_vecs, m_a[redo], it + 1
            value[redo], t_vals[redo], t_vecs[redo], s_pow[redo] = einsum_half_step(
                o_r, r[redo], p_vals, p_vecs)
        rise = value - prev
        if np.any(rise > sl):
            j = int(np.argmax(rise - sl))
            raise NumericalDegradationError(
                f"objective increased by {rise[j]:.3e} at iteration {it} (alpha = {a[j]})"
            )
        history.append((rows, value))
        # B -> A through the transposed tensor
        kmat, _ = einsum_traced(o, r.transpose(0, 2, 1, 4, 3), t_vals, t_vecs)
        g = np.full(rows.size, math.inf)
        form = (rise >= -CONVERGING) | (it == max_iter)
        if form.any():
            g[form] = _fw_gap(o, value, s_vals, s_vecs, s_pow, kmat)[0][form]
        done = (g <= GAP_TOL) & ((a > 0.5) | (rise >= -GAP_TOL))
        if it == max_iter:
            done[:] = True
        # the secant step M_A - gamma dM_A of trace-1 M_A, gamma = <dR, R> / |dR|^2
        tr = np.einsum("kii->k", kmat).real
        m_new = kmat / tr[:, None, None]
        res_new, m = m_new - used, kmat
        ext = (a >= 0.5) & (it >= since) & ~done
        if ext.any():
            ext &= s_vals.min(axis=1) > SECANT_RATIO * s_vals.max(axis=1)
            d_res = res_new - res
            norm = np.einsum("kij,kij->k", d_res.conj(), d_res).real
            gamma = np.einsum("kij,kij->k", d_res.conj(), res_new).real
            gamma /= np.where(norm > 0, norm, 1.0)
            m = np.where(ext[:, None, None], m_new - gamma[:, None, None] * (m_new - m_a), kmat)
        m_vals, m_vecs = np.linalg.eigh(m)
        bad = ext & (m_vals[:, 0] <= SECANT_RATIO ** a * m_vals[:, -1])
        if bad.any():  # a step whose sigma falls under SECANT_RATIO: the plain M
            m_vals[bad], m_vecs[bad] = np.linalg.eigh(kmat[bad])
            ext &= ~bad
        n_vals, n_vecs = _one_sided_min(o, m_vals)[1], m_vecs
        m_a, res, used = m_new, res_new, np.where(ext[:, None, None], m, m_new)
        if done.any():
            diff = _compose(n_vals[done], n_vecs[done]) - _compose(s_vals[done], s_vecs[done])
            moved = np.zeros(rows.size)
            moved[done] = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)
            # from 1/2 on a row also needs its plain step to move sigma by at most
            # 10 GAP_TOL: after secant steps the gap can read small while it does not
            done &= ~((a >= 0.5) & (moved > 10 * GAP_TOL)) | (it == max_iter)
        if not done.any():
            s_vals, s_vecs, prev = n_vals, n_vecs, value
            continue
        fin = rows[done]
        gap[fin], residual[fin] = g[done], moved[done]
        rounds[fin] = it
        last[0][fin], last[1][fin] = n_vals[done], n_vecs[done]
        keep = ~done
        rows, a, o, r, sl = rows[keep], a[keep], _orders(a[keep]), r[keep], sl[keep]
        s_vals, s_vecs, prev = n_vals[keep], n_vecs[keep], value[keep]
        m_a, res, used, since, ext = m_a[keep], res[keep], used[keep], since[keep], ext[keep]
        if rows.size == 0:
            break
    # each row's values in round order: row j runs rounds 1 to rounds[j], so sort stably by row
    order = np.argsort(np.concatenate([rw for rw, _ in history]), kind="stable")
    traces = np.split(np.concatenate([v for _, v in history])[order], np.cumsum(rounds)[:-1])
    # tau of every row, as one more stacked step, and the value at sigma x tau
    value, t_vals, t_vecs = einsum_one_sided(alphas, rho, r_ab, tuple(last))
    # the gap certifies only on supp(sigma) = supp(rho_A): below 1 a start that
    # misses part of supp(rho_A) keeps that face, where the gap reads 0
    full = np.count_nonzero(spectral_power(last[0], 0.0), axis=1) == np.count_nonzero(
        spectral_power(rho.marginal_a.spectrum, 0.0))
    solutions = [PrmiSolution(
        value=float(value[j]),
        alpha=float(alphas[j]),
        sigma_a=DensityOperator.from_eigensystem(last[0][j], last[1][j]),
        tau_b=DensityOperator.from_eigensystem(t_vals[j], t_vecs[j]),
        residual=float(residual[j]),
        iterations=int(rounds[j]),
        objective_trace=tuple(traces[j].tolist()),
        certified=bool(alphas[j] > 0.5 and gap[j] <= GAP_TOL and residual[j] <= 10 * GAP_TOL
                       and full[j]),
        gap=float(gap[j]),
    ) for j in range(k)]
    return solutions if np.ndim(alpha) else solutions[0]


def einsum_solve_dd(alphas, rho: BipartiteState) -> list:
    """dd at each of a stack of checked orders by the routes of `prmi_down_down`,
    the one place that picks them and every loop row's start, from the state
    alone, in one pass: pure and copy-cc states, recognized once per call, by one
    `_dd_closed_form` stack; every loop row by one `einsum_run_fixed_point` stack, an
    order in (1/2, 2] from rho_A, one at or below 1/2 from its starts. An order
    with no route holds its UnsupportedRegimeError."""
    alphas = np.array(alphas, dtype=float)
    pure, pmf = rho.is_pure(), rho.diagonal_pmf_or_none()
    closed = pure or _is_copy_cc(pmf)
    a, b = rho.marginal_a, rho.marginal_b
    solutions, one = {}, (alphas == 1.0) | _is_product(rho)
    if one.any():
        d = float(_up_up(np.ones(1), rho)[0])
        solutions.update((j, _without_loop(d, alphas[j], a, b)) for j in np.flatnonzero(one))
    if closed and (stack := np.flatnonzero(~one)).size:
        solutions.update(zip(stack, _dd_closed_form(alphas[stack], rho, pure)))
    loop = {}  # the starts of each loop order
    for j in [] if closed else np.flatnonzero(~one):
        alpha = float(alphas[j])
        if alpha > 2.0:
            solutions[j] = UnsupportedRegimeError(f"doubly minimized Renyi mutual information of "
                                                  f"a generic state is not supported for "
                                                  f"alpha = {alpha} > 2")
        elif starts := ([a] if alpha > 0.5 else _low_starts(rho, pmf)):
            loop[j] = starts
        else:
            solutions[j] = UnsupportedRegimeError(
                "alpha <= 1/2 is only supported for pure, classical, or low-dimensional states")
    if loop:
        runs = einsum_run_fixed_point(
            np.repeat(alphas[list(loop)], [len(s) for s in loop.values()]), rho,
            sum(loop.values(), []))
        for j, s in loop.items():  # each order's best run, the first of a tie
            solutions[j], runs = min(runs[:len(s)], key=PrmiSolution.as_float), runs[len(s):]
    return [solutions[j] for j in range(alphas.size)]


# The alternating minimization as it was before its rounds extrapolated M_A and
# formed the gap only for converging rows, less its infinite-row branch, which
# no start that passes the solver's checks reaches; `test_fixed_point_gap`
# compares the solver against it row by row.


def _run_fixed_point(alpha, rho: BipartiteState, sigma0, max_iter: int = MAX_ITER):
    """Alternating minimization from sigma0, on a stack of orders.

    alpha is one order or a stack of k; sigma0 is one start for every row or a
    list of k, one per row. A row stops once the Frank-Wolfe gap of its iterate
    is at most GAP_TOL and, at alpha <= 1/2, where an eigenvalue lost under the
    support cut zeroes the gap, its value fell by at most GAP_TOL in the round;
    or after max_iter rounds. A finite row at alpha > 1/2 is certified when its
    gap is at most GAP_TOL and its residual at most 10 GAP_TOL. Returns a
    PrmiSolution for one order and a list of k for a stack.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    k = alphas.size
    starts = sigma0 if isinstance(sigma0, list) else [sigma0] * k
    # Checked once: if supp(rho_A) <= supp(sigma), tr_A[rho^alpha (sigma^(1-alpha) x 1)]
    # has support exactly supp(rho_B), so every tau covers rho_B, every later
    # sigma covers rho_A, and no iterate can leak.
    if np.any(alphas > 1) and not all(dominated(rho.marginal_a, s) for s in starts):
        raise InvalidInputError("the start point must cover supp(rho_A) for alpha > 1")
    s_vals = np.array([s.spectrum for s in starts])
    s_vecs = np.array([s.eigenvectors for s in starts])
    r_ab = einsum_rho_power(rho, alphas)
    # (alpha/(alpha-1)) log tr M^(1/alpha) scales the rounding of the log by
    # alpha/|alpha-1|, which outgrows the fixed slack near alpha = 1
    slack = MONOTONICITY_SLACK + 64 * np.finfo(float).eps * alphas / np.abs(alphas - 1.0)
    # per row: the last iterate, the one before it, the gap, the rounds run
    last = [s_vals.copy(), s_vecs.copy()]
    before = [s_vals.copy(), s_vecs.copy()]
    gap = np.full(k, math.inf)
    rounds = np.full(k, max_iter)
    history = []  # (rows, values) of every round
    rows = np.arange(k)  # the rows still running, indexes into the stack
    a, o, r, sl, prev = alphas, _orders(alphas), r_ab, slack, np.full(k, math.inf)
    for it in range(1, max_iter + 1):
        value, t_vals, t_vecs, s_pow = einsum_half_step(o, r, s_vals, s_vecs)
        rise = value - prev
        if np.any(rise > sl):
            j = int(np.argmax(rise - sl))
            raise NumericalDegradationError(
                f"objective increased by {rise[j]:.3e} at iteration {it} (alpha = {a[j]})"
            )
        history.append((rows, value))
        # B -> A through the transposed tensor
        kmat, _ = einsum_traced(o, r.transpose(0, 2, 1, 4, 3), t_vals, t_vecs)
        m_vals, n_vecs = np.linalg.eigh(kmat)
        n_vals = _one_sided_min(o, m_vals)[1]
        g = _fw_gap(o, value, s_vals, s_vecs, s_pow, kmat)[0]
        done = (g <= GAP_TOL) & ((a > 0.5) | (prev - value <= GAP_TOL))
        if it == max_iter:
            done[:] = True
        if not done.any():
            s_vals, s_vecs, prev = n_vals, n_vecs, value
            continue
        fin = rows[done]
        gap[fin] = g[done]
        rounds[fin] = it
        before[0][fin], before[1][fin] = s_vals[done], s_vecs[done]
        last[0][fin], last[1][fin] = n_vals[done], n_vecs[done]
        keep = ~done
        rows, a, o, r, sl = rows[keep], a[keep], _orders(a[keep]), r[keep], sl[keep]
        s_vals, s_vecs, prev = n_vals[keep], n_vecs[keep], value[keep]
        if rows.size == 0:
            break
    trace = np.full((len(history), k), math.nan)
    for t, (r, v) in enumerate(history):
        trace[t, r] = v
    # the value, tau and residual of every row, as one more stacked step
    value, t_vals, t_vecs, _ = einsum_half_step(_orders(alphas), r_ab, *last)
    diff = _compose(*last) - _compose(*before)
    residual = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)
    solutions = []
    for j in range(k):
        solutions.append(PrmiSolution(
            # a divergence of states: rounding can dip below 0, and + 0.0 turns -0.0 into 0.0
            value=max(float(value[j]), 0.0) + 0.0,
            alpha=float(alphas[j]),
            sigma_a=eager_density(last[0][j], last[1][j]),
            tau_b=eager_density(t_vals[j], t_vecs[j]),
            residual=float(residual[j]),
            iterations=int(rounds[j]),
            objective_trace=tuple(trace[: rounds[j], j].tolist()),
            certified=bool(alphas[j] > 0.5 and gap[j] <= GAP_TOL and residual[j] <= 10 * GAP_TOL),
            gap=float(gap[j]),
        ))
    return solutions if np.ndim(alpha) else solutions[0]


# direct_exponent's root search before the stacked search: one order per step
def _illinois_root(g, a: float, b: float, g_a: float, g_b: float) -> float:
    """Root of an increasing g with g(a) < 0 < g(b), to a bracket width of 1e-9.

    Returns the evaluated point with the smallest |g|.
    """
    best = min((a, g_a), (b, g_b), key=lambda p: abs(p[1]))
    side = 0
    while b - a > 1e-9:
        c = b - g_b * (b - a) / (g_b - g_a)
        if not a < c < b:
            c = 0.5 * (a + b)
        g_c = g(c)
        best = min(best, (c, g_c), key=lambda p: abs(p[1]))
        if g_c == 0:
            break
        # Illinois: when the same end moves twice, halve the stale end's value
        if g_c < 0:
            a, g_a = c, g_c
            if side < 0:
                g_b *= 0.5
            side = -1
        else:
            b, g_b = c, g_c
            if side > 0:
                g_a *= 0.5
            side = 1
    return best[0]
