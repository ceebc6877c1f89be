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
from petzmi.prmi import (GAP_TOL, MAX_ITER, MONOTONICITY_SLACK, PrmiSolution, _compose, _dagger,
                         _fw_gap, _half_step, _rho_power, _traced, prmi_down_down)
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
    if x.min_eigenvalue() > cutoff and y.min_eigenvalue() > cutoff:
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


def _product_terms(rho: HermitianOperator, a: HermitianOperator, b: HermitianOperator):
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
    lam, mu, w = _product_terms(rho, solution.sigma_a, solution.tau_b)
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
    decomposed. A row whose M vanishes has value inf. The orders are passed
    with 1/alpha = None, so `_one_sided_min` takes its rescaled form at every
    order, which the solver takes only at orders up to 1/2.
    """
    s_pow = _compose(spectral_power(vals, 1.0 - alpha[:, None]), vecs)
    m = np.einsum("kibjd,kji->kbd", r, s_pow)
    m = (m + _dagger(m)) / 2
    m_vals, m_vecs = np.linalg.eigh(m)
    return (*_one_sided_min((alpha, None, None, None), m_vals), m_vecs, m)


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
    r_ab = _rho_power(rho, alphas)
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
        value, t_vals, t_vecs, s_pow = _half_step(o, r, s_vals, s_vecs)
        rise = value - prev
        if np.any(rise > sl):
            j = int(np.argmax(rise - sl))
            raise NumericalDegradationError(
                f"objective increased by {rise[j]:.3e} at iteration {it} (alpha = {a[j]})"
            )
        history.append((rows, value))
        # B -> A through the transposed tensor
        kmat, _ = _traced(o, r.transpose(0, 2, 1, 4, 3), t_vals, t_vecs)
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
    value, t_vals, t_vecs, _ = _half_step(_orders(alphas), r_ab, *last)
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
