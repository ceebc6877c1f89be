"""The Nussbaum-Szkola form of the Petz divergence, D_alpha = Xbar + (log Z +
L(t)) / t with t = alpha - 1 (`divergences._centered`), against mpmath at 60
digits on the same float terms, its alpha-derivative against `mpmath.diff`,
and the solver next to alpha = 1, where the loop now runs at every order but 1.
"""

import mpmath
import numpy as np
import pytest

import reference
from petzmi.divergences import (SUPPORT_OVERLAP_TOL, _centered, _finite, _petz_terms,
                                _product_terms, petz_divergence)
from petzmi.exponents import _PrmiCache, _derivatives, _stacked
from petzmi.linalg import EPS
from petzmi.prmi import _solve_dd, prmi_down_down, prmi_up_up
from petzmi.states import DensityOperator, random_bipartite, random_density

NEAR_ONE = [1.0 + side * 10.0**-k for k in range(2, 13) for side in (1, -1)]
FAR = [0.0, 0.01, 0.5, 2.0, 2.5, 10.0, 40.0]


def _pairs():
    """Four 4-dimensional pairs of each kind: full rank, rank-deficient rho,
    and a rank-2 sigma whose support overlaps rank-2 rho's only in part."""
    rng = np.random.default_rng(2009)
    pairs = []
    for _ in range(4):
        pairs.append((random_density(4, rng), random_density(4, rng)))
        pairs.append((random_density(4, rng, rank=2), random_density(4, rng)))
        pairs.append((random_density(4, rng, rank=2), random_density(4, rng, rank=2)))
    return pairs


PAIRS = _pairs()


def mp_terms(lam, mu, w):
    """The float terms at mpmath precision: (p_ij, X_ij) on the supports, p
    normalized to 1, and log Z, Z the weight of rho on supp(sigma) against all
    of it, 1 where the weight off it is at most eps (W's rounding)."""
    on = [(i, j) for i in range(lam.size) for j in range(mu.size) if lam[i] > 0 and mu[j] > 0]
    lost = sum((mpmath.mpf(lam[i]) * mpmath.mpf(w[i, j]) for i in range(lam.size)
                for j in range(mu.size) if lam[i] > 0 and mu[j] <= 0), mpmath.mpf(0))
    weights = [mpmath.mpf(lam[i]) * mpmath.mpf(w[i, j]) for i, j in on]
    z = sum(weights)
    log_z = -mpmath.log1p(lost / z) if lost > EPS else mpmath.mpf(0)
    logs = [mpmath.log(mpmath.mpf(lam[i])) - mpmath.log(mpmath.mpf(mu[j])) for i, j in on]
    return [x / z for x in weights], logs, log_z


def mp_divergence(alpha, terms):
    p, x, log_z = terms
    t = mpmath.mpf(alpha) - 1
    return (log_z + mpmath.log(mpmath.fsum(pi * mpmath.exp(t * xi) for pi, xi in zip(p, x)))) / t


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_petz_divergence_matches_mpmath(index):
    """rel 1e-14 at every order, and 2 eps absolute: D_0 of a full-rank rho is
    0, and near alpha = 0 log Q ~ 0 keeps its own rounding of eps."""
    rho, sigma = PAIRS[index]
    lam, mu, w = _petz_terms(rho, sigma)
    checked = 0
    with mpmath.workdps(60):
        terms = mp_terms(lam, mu, w)
        for alpha in NEAR_ONE + FAR:
            if not _finite(alpha, lam, mu, w):
                continue
            want = float(mp_divergence(alpha, terms))
            got = petz_divergence(alpha, rho, sigma).value
            assert abs(got - want) <= 1e-14 * abs(want) + 2 * EPS, (alpha, got, want)
            checked += 1
    assert checked >= len(NEAR_ONE) // 2 + 3  # the partial overlaps: the orders below 1


def _leaking_pair(theta):
    """Rank-2 rho and rank-3 sigma whose support holds rho's but for a turn by
    theta towards rho's kernel: rho's weight off supp(sigma) is 0.7 sin^2 theta."""
    u = np.linalg.qr(np.random.default_rng(40).normal(size=(4, 4)))[0]
    turn = np.eye(4)
    turn[[0, 3], [0, 3]] = np.cos(theta)
    turn[3, 0], turn[0, 3] = np.sin(theta), -np.sin(theta)
    v = u @ turn
    rho = DensityOperator(u @ np.diag([0.7, 0.3, 0.0, 0.0]) @ u.T)
    return rho, DensityOperator(v @ np.diag([0.5, 0.3, 0.2, 0.0]) @ v.T)


def test_a_leak_below_the_support_tolerance_is_kept_exactly():
    """rho's weight off supp(sigma) is 7e-13, between eps and
    SUPPORT_OVERLAP_TOL: the pair is dominated, but the leak is part of it, not
    rounding, so D keeps its log Z / (alpha - 1) on both sides of 1, as the
    dense trace does (about 0.7 at 1 +- 1e-12), and matches mpmath there. At
    alpha = 1, D is tr[rho (log rho - log sigma)] over all of rho's weight."""
    rho, sigma = _leaking_pair(1e-6)
    lam, mu, w = _petz_terms(rho, sigma)
    leak = float(lam @ w @ (mu <= 0))
    assert 1e-3 * SUPPORT_OVERLAP_TOL < leak < SUPPORT_OVERLAP_TOL
    with mpmath.workdps(60):
        terms = mp_terms(lam, mu, w)
        assert terms[2] < 0
        for alpha in NEAR_ONE + [1.0 + 1e-15, 1.0 - 1e-15]:
            got = petz_divergence(alpha, rho, sigma).value
            want = float(mp_divergence(alpha, terms))
            assert abs(got - want) <= 1e-14 * abs(want), (alpha, got, want)
        on = [(i, j) for i in range(lam.size) for j in range(mu.size) if lam[i] > 0]
        at_one = mpmath.fsum(mpmath.mpf(lam[i]) * mpmath.mpf(w[i, j]) * (mpmath.log(lam[i])
                             - (mpmath.log(mu[j]) if mu[j] > 0 else 0)) for i, j in on)
    assert abs(petz_divergence(1.0, rho, sigma).value - float(at_one)) <= 1e-14 * abs(float(at_one))


DERIVATIVE_STATES = [random_bipartite(2, 2, 42), random_bipartite(2, 3, 7),
                     random_bipartite(2, 3, 19, rank=2)]


@pytest.mark.parametrize("index", range(len(DERIVATIVE_STATES)))
def test_derivatives_match_mpmath_at_fixed_minimizers(index):
    """dD/dalpha at the s = 0.8 minimizers, held fixed, one stack through
    alpha = 1 +- 10^-k, k = 1 ... 15, against mpmath.diff at rel 1e-13, and
    against V/2 of the same terms at alpha = 1."""
    rho = DERIVATIVE_STATES[index]
    sol = prmi_down_down(0.8, rho)
    alphas = [1.0 + side * 10.0**-k for k in range(1, 16) for side in (1, -1)] + [1.0]
    got = _derivatives(rho, np.array(alphas), [sol] * len(alphas))
    lam, mu, w = _product_terms(rho, _stacked([sol.sigma_a]), _stacked([sol.tau_b]))
    with mpmath.workdps(60):
        terms = mp_terms(lam, mu[0], w[0])
        for alpha, slope in zip(alphas[:-1], got[:-1]):
            want = float(mpmath.diff(lambda a: mp_divergence(a, terms), mpmath.mpf(alpha)))
            assert abs(slope - want) <= 1e-13 * abs(want), (alpha, slope, want)
        p, x, _ = terms
        mean = mpmath.fsum(pi * xi for pi, xi in zip(p, x))
        half_variance = mpmath.fsum(pi * (xi - mean) ** 2 for pi, xi in zip(p, x)) / 2
        assert abs(got[-1] - float(half_variance)) <= 1e-13 * float(half_variance)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_dd_next_to_one_runs_the_loop_and_meets_uu(dims):
    """At 1 +- 10^-k, k = 7 ... 15, the loop runs and certifies dd, and uu - dd,
    about c (alpha - 1)^2 in exact arithmetic, reads within [-1e-14, 1e-13].
    At 1 +- 1e-3 and 1 +- 1e-4, dd is D_alpha at its minimizers to 1e-15
    (mpmath) and agrees with the loop before the secant step
    (`reference._run_fixed_point`) to that loop's rounding, 64 eps
    alpha/|alpha - 1|, which reaches 1.4e-10 at 1e-4."""
    for seed in range(3):
        rho = random_bipartite(*dims, seed)
        for alpha in [1.0 + side * 10.0**-k for k in range(7, 16) for side in (1, -1)]:
            sol = prmi_down_down(alpha, rho)
            assert sol.certified and sol.iterations > 0, alpha
            assert -1e-14 <= prmi_up_up(alpha, rho).value - sol.value <= 1e-13, alpha
        alphas = np.array([1 - 1e-3, 1 - 1e-4, 1 + 1e-4, 1 + 1e-3])
        old = reference._run_fixed_point(alphas, rho, rho.marginal_a)
        for alpha, before in zip(alphas, old):
            sol = prmi_down_down(alpha, rho)
            lam, mu, w = _product_terms(rho, _stacked([sol.sigma_a]), _stacked([sol.tau_b]))
            with mpmath.workdps(60):
                want = float(mp_divergence(alpha, mp_terms(lam, mu[0], w[0])))
            assert abs(sol.value - want) <= 1e-15, alpha
            assert abs(sol.value - before.value) <= 64 * EPS * alpha / abs(alpha - 1), alpha


@pytest.mark.parametrize("rho", [random_bipartite(2, 3, 8104), random_bipartite(3, 3, 4, rank=3)])
def test_rows_do_not_depend_on_their_stack(rho):
    """D_alpha and its derivative at a row's minimizers are bit for bit the same
    alone and in a stack: every sum of `_centered` runs over one row's C-ordered
    terms."""
    alphas = np.array([0.55, 0.8, 1.0 - 1e-9, 1.0, 1.0 + 1e-12, 1.5, 2.0])
    rows = _solve_dd(list(alphas), rho)
    sigma, tau = _stacked([r.sigma_a for r in rows]), _stacked([r.tau_b for r in rows])
    values = _centered(alphas - 1.0, *_product_terms(rho, sigma, tau))[0]
    slopes = _derivatives(rho, alphas, rows)
    for j, row in enumerate(rows):
        one = slice(j, j + 1)
        row_terms = _product_terms(rho, tuple(x[one] for x in sigma), tuple(x[one] for x in tau))
        assert values[j] == _centered(alphas[one] - 1.0, *row_terms)[0][0]
        assert slopes[j] == _derivatives(rho, alphas[one], [row])[0]
    cache = _PrmiCache(rho)
    cache.solve(alphas)
    assert cache.derivatives(alphas[:3]) == slopes[:3].tolist()
