"""Petz Renyi mutual informations of bipartite states.

Three variants, by which marginals of the product reference state are optimized:

  up_up    : both fixed to the true marginals, I = D_alpha(rho_AB || rho_A x rho_B);
  up_down  : the B argument minimized, in closed form through a Schatten
             quasi-norm of a partial trace;
  down_down: both minimized: in closed form on pure and copy-cc states, else by
             alternating minimization, each half-step the exact one-sided
             minimizer. On (1/2, 2] its fixed points are the global minimizers;
             below 1/2 the best run of several starts is returned, uncertified.

Each variant is solved on a stack of orders, one row each: `_up_up`, `_up_down`
and `_solve_dd`, the one place that picks an order's route and starts. The public
functions are their one-order cases, and no row depends on its stack. A
half-step is M from `_traced`, then `divergences._one_sided_min` on M's
eigenvalues (`_half_step`); the loop runs its B -> A half-step itself, as from
1/2 on it decomposes a secant (Anderson-1) extrapolation of M_A in place of M_A.
A run stops once the Frank-Wolfe gap of its iterate is at most GAP_TOL (from
1/2 on, and its last plain step at most 10 GAP_TOL); the gap is formed only in
rounds where some row's value fell by at most CONVERGING. ud, `gen_prmi_down`
and the loop's rows report D_alpha(rho || sigma x tau) at the minimizer tau
(`_one_sided`: `divergences._centered` on `divergences._product_terms`, exact
through alpha = 1), so the loop runs at every order of (1/2, 2] but 1.

All logarithms are natural.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .divergences import (
    DivergenceValue,
    _centered,
    _check_order,
    _divergence_value,
    _one_sided_min,
    _orders,
    _product_terms,
    _renyi_entropies,
    dominated,
    min_entropy,
    renyi_entropy,
)
from .errors import (
    DomainError,
    InvalidInputError,
    NumericalDegradationError,
    UnsupportedRegimeError,
)
from .linalg import _compose, _dagger, spectral_power
from .states import BipartiteState, DensityOperator

MONOTONICITY_SLACK = 1e-11
GAP_TOL = 1e-12  # a run stops once the Frank-Wolfe gap of its iterate is at most this
MAX_ITER = 10000  # or after this many rounds
CONVERGING = 1e-9  # the gap is formed for rows whose value fell by at most this
SECANT_RATIO = 1e-8  # extrapolate only while sigma keeps lambda_min/lambda_max above this
_GINIBRE_SEED = 7  # of the Ginibre states of `_ginibre_grid`


@dataclass(frozen=True)
class PrmiSolution:
    """Result of a doubly minimized Renyi mutual information computation.

    value is finite. gap is the Frank-Wolfe gap G(sigma) = tr[grad f sigma] -
    lambda_min(grad f) of f(sigma) = min_tau D_alpha(rho || sigma x tau) at the
    last iterate whose gradient was formed; value is no larger than f there.
    residual is the trace distance between sigma_a and the iterate one full
    round of the fixed-point map earlier; both are 0 on the routes with no loop.
    certified means the value is the global minimum: for alpha in (1/2, 2]
    every fixed point is a global minimizer, so a run is certified when
    gap <= GAP_TOL, residual <= 10 GAP_TOL and sigma_a has the rank of rho_A,
    the support on which the gap certifies. Below 1/2 f is not convex: there
    the gap is a stationarity figure, not a certificate, and nothing is certified.
    A loop row's sigma_a and tau_b are built from the eigensystems the loop
    holds (`HermitianOperator.from_eigensystem`): their matrix is composed
    only when read. The closed forms below 1/2 carry no minimizers (None).
    objective_trace holds a loop's one-sided values (alpha/(alpha-1)) log tr
    M^(1/alpha), one a round, rounded to some eps alpha/|alpha-1|: its last
    entry is not value, D_alpha at the minimizers. Other routes hold (value,).
    """

    value: float
    alpha: float
    sigma_a: DensityOperator | None
    tau_b: DensityOperator | None
    residual: float
    iterations: int
    objective_trace: tuple[float, ...]
    certified: bool
    gap: float

    def as_float(self) -> float:
        return self.value


def prmi_up_up(alpha: float, rho: BipartiteState) -> DivergenceValue:
    """D_alpha(rho || rho_A x rho_B): the one-order case of `_up_up`."""
    _check_order(alpha)
    return _divergence_value(alpha, float(_up_up(np.array([alpha], dtype=float), rho)[0]))


def _up_up(alphas: np.ndarray, rho: BipartiteState) -> np.ndarray:
    """uu at a stack of checked orders: one `_centered` call over `_marginal_terms`,
    and 0 on a product state (`_is_product`)."""
    if _is_product(rho):
        return np.zeros(alphas.size)
    # supp(rho) lies in supp(rho_A x rho_B): the values are finite
    value = _centered(alphas - 1.0, *_marginal_terms(rho))[0]
    return np.maximum(value, 0.0) + 0.0  # as in _run_fixed_point


def _is_product(rho: BipartiteState) -> bool:
    """Whether rho = rho_A x rho_B to rounding: each entry of the difference
    within 1e-14 in any basis, and within 1e-14 sqrt(m_i m_k) in the product's
    eigenbasis (eigenvalues m, 0 off the supports) where m_i m_k > 0; as supp(rho)
    lies in supp(rho_A) x supp(rho_B), the entries off it are rounding. Every
    variant is 0 there (dd to second order), and `_up_up`, `_up_down` and
    `_solve_dd` answer 0 at every order."""
    a, b = rho.marginal_a, rho.marginal_b
    diff = rho.matrix - np.multiply.outer(a.matrix, b.matrix).swapaxes(1, 2).reshape(rho.dim, -1)
    if np.abs(diff).max() > 1e-14:
        return False
    u = np.kron(a.eigenvectors, b.eigenvectors)
    m = np.kron(spectral_power(a.spectrum, 1.0), spectral_power(b.spectrum, 1.0))
    mm = np.outer(m, m)
    return bool(np.all((np.abs(u.conj().T @ diff @ u) <= 1e-14 * np.sqrt(mm)) | (mm == 0)))


def _marginal_terms(rho: BipartiteState):
    """`divergences._product_terms` against rho_A x rho_B."""
    a, b = rho.marginal_a, rho.marginal_b
    return _product_terms(rho, (a.spectrum, a.eigenvectors), (b.spectrum, b.eigenvectors))


def gen_prmi_down(alpha: float, rho: BipartiteState, sigma_a) -> tuple[float, DensityOperator]:
    """min over tau_B of D_alpha(rho_AB || sigma_A x tau_B), with its minimizer:
    the one-row case of `_one_sided`, at every order but alpha = 1, where
    alpha/(alpha-1) is undefined: DomainError."""
    _check_order(alpha)
    if alpha == 1.0:
        raise DomainError("gen_prmi_down needs alpha != 1")
    sigma_a = sigma_a if isinstance(sigma_a, DensityOperator) else DensityOperator(sigma_a)
    if alpha > 1 and not dominated(rho.marginal_a, sigma_a):
        return math.inf, None
    alphas = np.array([alpha], dtype=float)
    value, t_vals, t_vecs = _one_sided(alphas, rho, _rho_power(rho, alphas),
                                       (sigma_a.spectrum[None], sigma_a.eigenvectors[None]))
    if value[0] == math.inf:
        return math.inf, None
    return float(value[0]), DensityOperator.from_eigensystem(t_vals[0], t_vecs[0])


def _one_sided(alphas: np.ndarray, rho: BipartiteState, r: np.ndarray, sigma: tuple):
    """min over tau of D_alpha(rho || sigma x tau) on a stack of k orders but 1,
    r = `_rho_power` and sigma's eigensystems ((k, d_A), (k, d_A, d_A)): D_alpha at
    `_half_step`'s minimizer tau (`_centered`), inf where M vanishes, and tau's eigensystems."""
    value, t_vals, t_vecs, _, _ = _half_step(_orders(alphas), r, *sigma)
    finite = value < math.inf
    if finite.any():
        on = slice(None) if finite.all() else finite
        value[on] = _centered(alphas[on] - 1.0, *_product_terms(
            rho, (sigma[0][on], sigma[1][on]), (t_vals[on], t_vecs[on])))[0]
    return value, t_vals, t_vecs


def _stacked(ops) -> tuple:
    """The eigensystems of operators of one dimension, as a stack; the eigenvectors
    complex, as the loop writes its iterates' complex eigenvectors into the stack."""
    vecs = np.array([op.eigenvectors for op in ops], dtype=complex)
    return np.array([op.spectrum for op in ops]), vecs


def _rho_power(rho: BipartiteState, alphas: np.ndarray) -> np.ndarray:
    """rho^alpha for each order of a stack, as a (k, d_A, d_B, d_A, d_B) tensor."""
    m = _compose(spectral_power(rho.spectrum, alphas[:, None]), rho.eigenvectors)
    return ((m + _dagger(m)) / 2).reshape(alphas.size, rho.d_a, rho.d_b, rho.d_a, rho.d_b)


def _half_step(orders: tuple, r: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The exact one-sided minimization, on a stack of k rows.

    orders holds the `_orders` constants, r the k tensors rho^alpha of shape
    (k, d, d', d, d'), and (vals, vecs) the eigensystems of sigma on the first
    factor, (k, d) and (k, d, d). Returns the k values of `gen_prmi_down`, the
    eigensystems of the minimizers on the second factor, the k matrices
    M = tr_1[rho^alpha (sigma^(1-alpha) x 1)] that were decomposed, and
    sigma's powered spectrum s^(1-alpha). A row whose M vanishes has value inf.
    """
    m, s_pow = _traced(orders, r, vals, vecs)
    m_vals, m_vecs = np.linalg.eigh(m)
    return (*_one_sided_min(orders, m_vals), m_vecs, m, s_pow)


def _traced(orders: tuple, r: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The half-step's M = tr_1[r (sigma^(1-alpha) x 1)] and s^(1-alpha), per row."""
    s_pow = spectral_power(vals, orders[1])
    m = np.einsum("kibjd,kji->kbd", r, _compose(s_pow, vecs))
    return (m + _dagger(m)) / 2, s_pow


def _fw_gap(orders: tuple, value: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
            s_pow: np.ndarray, k: np.ndarray):
    """Frank-Wolfe gap G = tr[grad f sigma] - lambda_min(grad f) of
    f(sigma) = min_tau D_alpha(rho || sigma x tau) at sigma, per row, on
    supp(sigma), which the iterates share with rho_A, and the gradient it is
    formed from. One d_A x d_A eigvalsh per row.

    sigma = U diag(s) U^dag is given by (vals, vecs) and s^(1-alpha) by s_pow
    (as `_half_step` returns it), which is nonzero on the support; value is
    f(sigma) and k = tr_B[rho^alpha (1 x tau^(1-alpha))] at the minimizing tau.
    With N = tr[M^(1/alpha)], the gradient is
        grad f = U (Gamma o U^dag K U) U^dag N^(-alpha) / (alpha - 1),
    Gamma the divided differences of s^(1-alpha); the second result is
    U^dag grad f U, on supp(sigma) (zero off it). Gamma_ij =
    s_j^(-alpha) phi(log s_i - log s_j) with phi(l) = expm1((1-alpha) l) / expm1(l)
    (phi(0) = 1 - alpha) has no cancellation between close eigenvalues.

    On [1/2, 1), dd >= f(sigma) - G(sigma) for f differentiable at sigma and
    supp sigma = supp rho_A. By Ando's tensor form of Lieb concavity (Linear
    Algebra Appl. 26, 203 (1979)), (A, B) -> A^p x B^q is jointly concave for
    p, q >= 0 with p + q <= 1; with p = q = 1 - alpha, which needs alpha >= 1/2,
    Q(sigma, tau) = tr[rho^alpha (sigma^(1-alpha) x tau^(1-alpha))] is jointly
    concave, so g = max_tau Q is concave and f = -log g / (1 - alpha) is convex:
    it lies above its tangent at sigma. On (1, 2] the bound is tested, not proven.
    """
    alpha, p = orders[0], orders[1][:, :, None]
    support = s_pow > 0
    safe = np.where(support, vals, 1.0)
    logs = np.log(safe)
    lr = logs[:, :, None] - logs[:, None, :]
    same = lr == 0
    phi = np.where(same, p, np.expm1(p * lr) / np.where(same, 1.0, np.expm1(lr)))
    # s_j^(-alpha) = s_j^(1-alpha) / s_j on the support; N^(-alpha) =
    # exp((1 - alpha) f), as f = (alpha/(alpha-1)) log N
    scale = np.exp((1.0 - alpha) * value) / (alpha - 1.0)
    gamma = phi * (support * scale[:, None])[:, :, None] * (s_pow / safe)[:, None, :]
    h = gamma * (_dagger(vecs) @ k @ vecs)
    h = (h + _dagger(h)) / 2
    return np.real(np.einsum("kii,ki->k", h, vals)) - np.linalg.eigvalsh(h)[:, 0], h


def prmi_up_down(alpha: float, rho: BipartiteState) -> DivergenceValue:
    """min over tau_B of D_alpha(rho || rho_A x tau_B): the one-order case of `_up_down`."""
    _check_order(alpha)
    return DivergenceValue(value=float(_up_down(np.array([alpha], dtype=float), rho)[0]))


def _up_down(alphas: np.ndarray, rho: BipartiteState) -> np.ndarray:
    """ud at a stack of checked orders: `_one_sided` from sigma = rho_A, uu
    (`_up_up`) at alpha = 1, and 0 on a product state (`_is_product`)."""
    if _is_product(rho):
        return np.zeros(alphas.size)
    value, one = np.empty(alphas.size), alphas == 1.0
    if one.any():
        value[one] = _up_up(alphas[one], rho)
    if (a := alphas[~one]).size:
        sigma = _stacked([rho.marginal_a] * a.size)  # covers supp(rho_A): the values are finite
        value[~one] = np.maximum(_one_sided(a, rho, _rho_power(rho, a), sigma)[0], 0.0) + 0.0
    return value


def fixed_point_map(alpha: float, rho: BipartiteState, sigma_a: DensityOperator) -> DensityOperator:
    """One full round A -> B -> A of the alternating-minimization update.
    alpha = 1 raises DomainError; a sigma_a orthogonal to supp(rho_A), or at
    alpha > 1 one that does not cover it, raises InvalidInputError."""
    _check_order(alpha)
    if alpha == 1.0:
        raise DomainError("fixed_point_map needs alpha != 1")
    sigma_a = sigma_a if isinstance(sigma_a, DensityOperator) else DensityOperator(sigma_a)
    return _run_fixed_point(alpha, rho, sigma_a, max_iter=1).sigma_a


def prmi_closed_form(alpha: float, rho: BipartiteState, which: str) -> float | None:
    """Known closed forms: pure states and perfectly correlated cc states.

    Returns None when no closed form applies. dd on these states is answered
    from it at every order but alpha = 1 (`_solve_dd`); it is also the I_0
    floor of R_(1/2).
    """
    pure = rho.is_pure()
    if which not in ("uu", "ud", "dd") or not (pure or _is_copy_cc(rho.diagonal_pmf_or_none())):
        return None
    if which == "dd":
        return _dd_closed_form(np.array([alpha], dtype=float), rho, pure)[0].value
    if which == "uu":
        order = 3.0 - 2.0 * alpha if pure else 2.0 - alpha
    else:
        order = math.inf if alpha == 0 else (2.0 - alpha) / alpha if pure else 1.0 / alpha
    return (2.0 if pure else 1.0) * renyi_entropy(order, rho.marginal_a)


def _is_copy_cc(pmf) -> bool:
    """Whether a state of pmf `diagonal_pmf_or_none()` is copy-cc, sum_x p_x |xx><xx|."""
    t = None if pmf is None else pmf.table
    return t is not None and len(t) == len(t.T) and np.abs(t - np.diag(np.diag(t))).max() <= 1e-12


def _dd_closed_form(alphas: np.ndarray, rho: BipartiteState, pure: bool) -> list[PrmiSolution]:
    """dd on a pure (pure=True) or copy-cc state at a stack of orders, none 1,
    certified: ((1 or alpha)/(1 - alpha)) H_inf(rho_A) at alpha <= 1/2, with
    no minimizers, and above (2 or 1) H_e(rho_A), e = (1 or alpha)/(2 alpha - 1),
    from one `_renyi_entropies` call, with the minimizers sigma ~ rho_A^e,
    tau ~ rho_B^e."""
    ab, high = (rho.marginal_a, rho.marginal_b), alphas > 0.5
    coef = np.ones(alphas.size) if pure else alphas
    value, expo = np.empty(alphas.size), coef[high] / (2.0 * alphas[high] - 1.0)
    value[~high] = coef[~high] / (1.0 - alphas[~high]) * min_entropy(ab[0])
    value[high] = (2.0 if pure else 1.0) * _renyi_entropies(expo, ab[0])
    # m^e / tr m^e from the held eigensystem of m, its spectrum scaled to a top
    # eigenvalue of 1 first, so that no power underflows to a zero trace
    powers = [spectral_power(m.spectrum / m.spectrum[0], expo[:, None]) for m in ab]
    pairs = [(None, None)] * alphas.size
    for j, *row in zip(np.flatnonzero(high), *powers):
        pairs[j] = [DensityOperator.from_eigensystem(p / p.sum(), m.eigenvectors)
                    for p, m in zip(row, ab)]
    return [_without_loop(v, a, *pair) for v, a, pair in zip(value, alphas, pairs)]


def _without_loop(value, alpha, sigma_a, tau_b) -> PrmiSolution:
    """An exact route with no rounds: certified, gap and residual 0."""
    return PrmiSolution(value=float(value), alpha=float(alpha), sigma_a=sigma_a, tau_b=tau_b,
                        residual=0.0, iterations=0, objective_trace=(float(value),),
                        certified=True, gap=0.0)


def _run_fixed_point(alpha, rho: BipartiteState, sigma0, max_iter: int = MAX_ITER):
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
    s_vals, s_vecs = _stacked(starts)
    r_ab = _rho_power(rho, alphas)
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
        value, t_vals, t_vecs, _, s_pow = _half_step(o, r, s_vals, s_vecs)
        if it == 1 and np.any(value == math.inf):
            raise InvalidInputError("the start point must not be orthogonal to supp(rho_A)")
        redo = ext & (value - prev > sl)
        if redo.any():  # a rise after a secant step: the plain iterate, and no secant history
            o_r = _orders(a[redo])
            e_vals, p_vecs = np.linalg.eigh(m_a[redo])
            p_vals = _one_sided_min(o_r, e_vals)[1]
            s_vals[redo], s_vecs[redo], used[redo], since[redo] = p_vals, p_vecs, m_a[redo], it + 1
            value[redo], t_vals[redo], t_vecs[redo], _, s_pow[redo] = _half_step(
                o_r, r[redo], p_vals, p_vecs)
        rise = value - prev
        if np.any(rise > sl):
            j = int(np.argmax(rise - sl))
            raise NumericalDegradationError(
                f"objective increased by {rise[j]:.3e} at iteration {it} (alpha = {a[j]})"
            )
        history.append((rows, value))
        # B -> A through the transposed tensor
        kmat, _ = _traced(o, r.transpose(0, 2, 1, 4, 3), t_vals, t_vecs)
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
    trace = np.full((len(history), k), math.nan)
    for t, (r, v) in enumerate(history):
        trace[t, r] = v
    # tau of every row, as one more stacked step, and the value at sigma x tau
    value, t_vals, t_vecs = _one_sided(alphas, rho, r_ab, tuple(last))
    # the gap certifies only on supp(sigma) = supp(rho_A): below 1 a start that
    # misses part of supp(rho_A) keeps that face, where the gap reads 0
    full = np.count_nonzero(spectral_power(last[0], 0.0), axis=1) == np.count_nonzero(
        spectral_power(rho.marginal_a.spectrum, 0.0))
    solutions = [PrmiSolution(
        # a divergence of states: rounding can dip below 0, and + 0.0 turns -0.0 into 0.0
        value=max(float(value[j]), 0.0) + 0.0,
        alpha=float(alphas[j]),
        sigma_a=DensityOperator.from_eigensystem(last[0][j], last[1][j]),
        tau_b=DensityOperator.from_eigensystem(t_vals[j], t_vecs[j]),
        residual=float(residual[j]),
        iterations=int(rounds[j]),
        objective_trace=tuple(trace[: rounds[j], j].tolist()),
        certified=bool(alphas[j] > 0.5 and gap[j] <= GAP_TOL and residual[j] <= 10 * GAP_TOL
                       and full[j]),
        gap=float(gap[j]),
    ) for j in range(k)]
    return solutions if np.ndim(alpha) else solutions[0]


def prmi_down_down(alpha: float, rho: BipartiteState) -> PrmiSolution:
    """min over sigma_A, tau_B of D_alpha(rho_AB || sigma_A x tau_B): the stack
    of one order of `_solve_dd`, from sigma = rho_A, its loop rows in one stack.

    Regimes:
      alpha = 1          : the mutual information, minimizers the true marginals.
      product states     : 0 at every order, minimizers the true marginals.
      pure / copy-cc     : the closed forms at every other order, certified,
                           with minimizers above 1/2.
      1/2 < alpha <= 2   : alternating minimization from sigma = rho_A, one
                           start, as every fixed point of the map is a global
                           minimizer on this range; certified by its gap.
      0 <= alpha <= 1/2  : uncertified: the best of several loop rows (the first
                           of a tie), from rho_A and the faces of the simplex over
                           supp(rho_A) for a diagonal state with d_A <= 3, else for
                           d_A, d_B <= 3 from rho_A, I/d_A and 8 Ginibre states.
      alpha > 2          : generic states are rejected (fixed points need not
                           be minimizers): UnsupportedRegimeError, as at every
                           order with no route.
    """
    _check_order(alpha)
    solution = _solve_dd([alpha], rho)[0]
    if isinstance(solution, UnsupportedRegimeError):
        raise solution
    return solution


def _solve_dd(alphas, rho: BipartiteState) -> list:
    """dd at each of a stack of checked orders by the routes of `prmi_down_down`,
    the one place that picks them and every loop row's start, from the state
    alone, in one pass: pure and copy-cc states, recognized once per call, by one
    `_dd_closed_form` stack; every loop row by one `_run_fixed_point` stack, an
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
        elif alpha > 0.5:
            loop[j] = [a]
        elif pmf is not None and rho.d_a <= 3:
            loop[j] = [a, *_face_starts(pmf.marginal_x)]
        elif rho.d_a <= 3 and rho.d_b <= 3:
            loop[j] = [a, *_small_alpha_starts(rho.d_a)]
        else:
            solutions[j] = UnsupportedRegimeError(
                "alpha <= 1/2 is only supported for pure, classical, or low-dimensional states")
    if loop:
        runs = _run_fixed_point(np.repeat(alphas[list(loop)], [len(s) for s in loop.values()]),
                                rho, sum(loop.values(), []))
        for j, s in loop.items():  # each order's best run, the first of a tie
            solutions[j], runs = min(runs[:len(s)], key=PrmiSolution.as_float), runs[len(s):]
    return [solutions[j] for j in range(alphas.size)]


def _face_starts(p: np.ndarray) -> list[DensityOperator]:
    """The uniform states on the nonempty faces of the simplex over supp(p), p the diagonal
    of a diagonal rho_A: its starts below 1/2, where optima can lie on those faces."""
    faces = (np.arange(1, 2**p.size)[:, None] >> np.arange(p.size)) & 1  # every nonempty subset
    faces = faces[~np.any(faces > spectral_power(p, 0.0), axis=1)]  # within supp(p)
    return [DensityOperator.from_eigensystem(f / f.sum(), np.eye(p.size)) for f in faces]


@functools.lru_cache(maxsize=None)
def _small_alpha_starts(d_a: int) -> tuple[DensityOperator, ...]:
    """The fixed starts I/d_A and 8 Ginibre states of the loop below 1/2, built
    and decomposed once per d_A (at most 3)."""
    return tuple(map(DensityOperator, _ginibre_grid(d_a, 8)))


def _ginibre_grid(dim: int, count: int) -> np.ndarray:
    """I/dim and `count` seeded Ginibre-induced density matrices G G^dag / tr,
    also the qutrit grid of `oracle.brute_force_dd`."""
    rng = np.random.default_rng(_GINIBRE_SEED)
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    mats = g @ np.conj(np.swapaxes(g, 1, 2))
    mats /= np.real(np.einsum("kii->k", mats))[:, None, None]
    return np.concatenate([(np.eye(dim) / dim)[None], mats])


def prmi(alpha: float, rho: BipartiteState, which: str):
    """Dispatch on the variant name: 'uu', 'ud', or 'dd'."""
    if which == "uu":
        return prmi_up_up(alpha, rho)
    if which == "ud":
        return prmi_up_down(alpha, rho)
    if which == "dd":
        return prmi_down_down(alpha, rho)
    raise InvalidInputError(f"unknown variant {which!r}; expected 'uu', 'ud', or 'dd'")
