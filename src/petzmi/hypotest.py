"""Finite-blocklength hypothesis tests against all iid product states.

The alternative hypothesis (some product state, n copies) is covered by a single
universal permutation-invariant state omega_n on H^(x n), the cycle sum of
`universal_state`: sigma^(x n) <= g_n * omega_n for every state sigma on H,
where g_n is the number of symmetric types of H x H'. A Neyman-Pearson-style
threshold test against omega_A x omega_B then bounds the type-II error
uniformly over products.

Every operator the test reads (rho^(x n), (rho^alpha)^(x n), omega_A x omega_B
and (sigma x tau)^(x n)) commutes with every permutation of the n copies of
AB, so by Schur-Weyl duality it acts on the component of a Young shape lambda
as I_(f^lambda) x X_lambda, f^lambda the number of standard tableaux of that
shape: one block X_lambda per shape carries it. `symmetry_basis` caches the
Gelfand-Tsetlin columns Q_lambda of one tableau per shape with the blocks
Omega_lambda of omega_A x omega_B; `iid_block` gives the blocks
Q_lambda^T x^(x n) Q_lambda of a tensor power by n mode products. rho^(x n)
is read from one such pass over rho's eigenvectors on its support, in their
field: `_universal_setup` forms T = (U^dagger)^(x n) Q once, rank(rho)^n rows,
and takes from it the blocks R_lambda of rho^(x n) and D_s(rho^(x n) ||
omega_A x omega_B) at every order s it is asked for (`divergences._centered`,
exact through s = 1), from which `_universal_test` runs. A test at log
threshold t decomposes only R_lambda - e^t Omega_lambda (at n = 4 on a qubit
pair, five blocks of sizes 1 to 45, not one 256 x 256 matrix), each counted
f^lambda times.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import _centered, _check_order
from .errors import DomainError, NumericalDegradationError, ResourceLimitError
from .exponents import direct_exponent
from .linalg import EPS, spectral_power
from .states import BipartiteState, DensityOperator

# (d^2)^n guard; it bounds N = (d_A d_B)^n, the number of rows of Q
MAX_TOTAL_DIM = 6561
S_GRID_SIZE = 20  # the s grid of achievability_sweep

_LOG_THRESHOLD_GUARD = 700.0  # beyond this, e^(+-thr) over/underflows float64
_CONTENT_TOL = 1e-8  # Jucys-Murphy eigenvalues are integers up to this
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)  # the largest x with a finite e^x


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
            f"(d^2)^n = {total} exceeds {MAX_TOTAL_DIM}: the universal test would be too large"
        )
    dim = d**n
    eye = np.eye(dim).reshape([d] * (2 * n))
    omega = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        v_pi = eye.transpose(list(perm) + list(range(n, 2 * n))).reshape(dim, dim)
        omega += np.trace(v_pi) * v_pi  # tr V_pi = d^c(pi)
    return DensityOperator(omega / (symmetric_type_count(n, d * d) * math.factorial(n)))


def _orbit_basis(counts: tuple[int, ...]):
    """Joint eigenvectors of the Jucys-Murphy elements J_k = sum_(i<k) W_(ik),
    k = 2 ... n, on the orbit of the sorted word with these letter counts.

    Returns the orbit's words, sorted, and a list of (content vector, real
    orthonormal columns over those words): the joint eigenspace on which J_k
    is the content of box k of one standard tableau. The eigenspaces are
    refined by J_2, then J_3, and so on; each eigenvalue must round to an
    integer. Words with the same counts give the same columns, whatever the
    letters, once their words are sorted alike.
    """
    word = tuple(letter for letter, count in enumerate(counts) for _ in range(count))
    words = sorted(set(itertools.permutations(word)))
    index = {w: i for i, w in enumerate(words)}
    spaces = [((), np.eye(len(words)))]
    for k in range(1, len(word)):
        jucys_murphy = np.zeros((len(words), len(words)))
        for w, col in index.items():
            for i in range(k):
                swapped = list(w)
                swapped[i], swapped[k] = w[k], w[i]
                jucys_murphy[index[tuple(swapped)], col] += 1.0
        refined = []
        for content, vecs in spaces:
            vals, rot = np.linalg.eigh(vecs.T @ jucys_murphy @ vecs)
            ints = np.rint(vals)
            if np.max(np.abs(vals - ints)) > _CONTENT_TOL:
                raise NumericalDegradationError(
                    f"Jucys-Murphy eigenvalues {vals} are not integers")
            for c in np.unique(ints):
                refined.append((content + (int(c),), vecs @ rot[:, ints == c]))
        spaces = refined
    return words, spaces


class SymmetryBasis(NamedTuple):
    """Real orthonormal Gelfand-Tsetlin columns Q of (C^(d_A d_B))^(x n), rows in
    (A1 ... An)(B1 ... Bn) order, one block of columns per Young shape lambda
    (one standard tableau of it); f^lambda; the blocks Omega_lambda of
    omega_A x omega_B with their eigensystems (mu, U); and (d_A, d_B)."""

    q: np.ndarray
    blocks: tuple[slice, ...]
    mult: tuple[int, ...]
    omega_blocks: tuple[np.ndarray, ...]
    omega_eigh: tuple[tuple[np.ndarray, np.ndarray], ...]
    d_a: int
    d_b: int


@functools.lru_cache(maxsize=4)
def symmetry_basis(n: int, d_a: int, d_b: int) -> SymmetryBasis:
    """The Gelfand-Tsetlin columns and the blocks of omega_A x omega_B for
    blocklength n, cached per (n, d_A, d_B); `universal_state`'s guard runs first.

    An entry holds Q, a real N x K array, N = (d_A d_B)^n and K the sum of the
    irrep dimensions dim_lambda(d_A d_B) (0.15 GB at the guard's largest
    N = 6561, K = 2781), and smaller blocks. The last four entries are kept,
    enough for a sweep over one n at a time or over n = 1 ... 4 in turn.

    The S_n orbit of each computational basis word spans an invariant subspace
    of at most n! vectors, which `_orbit_basis` splits into content vectors:
    standard tableaux, of one shape when their sorted contents agree. A block
    gathers, over all orbits, the columns of the first tableau of its shape,
    and `mult` counts the tableaux. n = 1 is one identity block.
    """
    omega_a, omega_b = (universal_state(n, side).matrix.real for side in (d_a, d_b))
    d = d_a * d_b
    place_a, place_b = (side ** np.arange(n - 1, -1, -1) for side in (d_a, d_b))
    orbits = {}
    columns = {}  # content vector -> [(rows of the orbit's words, columns)]
    for word in itertools.combinations_with_replacement(range(d), n):
        letters = sorted(set(word))
        counts = tuple(word.count(x) for x in letters)
        if counts not in orbits:
            orbits[counts] = _orbit_basis(counts)
        words, spaces = orbits[counts]
        # the letter a * d_B + b of copy k is digit k of the A and of the B index
        digits_a, digits_b = np.divmod(np.asarray(letters)[np.asarray(words)], d_b)
        rows = (digits_a @ place_a) * d_b**n + digits_b @ place_b
        for content, vecs in spaces:
            columns.setdefault(content, []).append((rows, vecs))
    shapes = {}  # sorted contents, which fix the shape -> its content vectors
    for content in sorted(columns):
        shapes.setdefault(tuple(sorted(content)), []).append(content)
    kept = [columns[tableaux[0]] for tableaux in shapes.values()]
    edges = np.cumsum([0] + [sum(vecs.shape[1] for _, vecs in parts) for parts in kept])
    q = np.zeros((d**n, edges[-1]))
    for start, parts in zip(edges, kept):
        for rows, vecs in parts:
            q[rows, start:start + vecs.shape[1]] = vecs
            start += vecs.shape[1]
    blocks = tuple(slice(int(a), int(b)) for a, b in zip(edges, edges[1:]))
    # (omega_A x omega_B) Q: omega_A on the A index of each row, omega_B on the B index
    alt_q = (omega_a @ q.reshape(d_a**n, -1)).reshape(d_a**n, d_b**n, -1)
    alt_q = (omega_b @ alt_q).reshape(q.shape)
    omega_blocks = [(x + x.T) / 2 for x in (q[:, b].T @ alt_q[:, b] for b in blocks)]
    omega_eigh = tuple(np.linalg.eigh(block) for block in omega_blocks)
    for array in [q, *omega_blocks, *itertools.chain(*omega_eigh)]:
        array.setflags(write=False)
    return SymmetryBasis(q, blocks, tuple(len(t) for t in shapes.values()),
                         tuple(omega_blocks), omega_eigh, d_a, d_b)


def _power_columns(x: np.ndarray, n: int, basis: SymmetryBasis):
    """Q and x^(x n) Q, rows in the copy order (A1 B1) ... (An Bn), for a
    one-copy map x, an r x (d_A d_B) matrix with columns in (A B) order (square
    for an operator): x^(x n) Q has r^n rows. x^(x n) is never formed: x is
    applied to the axis of copy k, k = 1 ... n, by n mode products on the K
    columns, in x's field."""
    r, d = x.shape
    copies = [axis for k in range(n) for axis in (k, n + k)] + [2 * n]
    q = basis.q.reshape([basis.d_a] * n + [basis.d_b] * n + [-1]).transpose(copies)
    y = q = q.reshape(basis.q.shape)
    for k in range(n):
        y = np.matmul(x, y.reshape(r**k, d, -1))
    return q, y.reshape(r**n, -1)


def iid_block(x: np.ndarray, n: int, basis: SymmetryBasis) -> list[np.ndarray]:
    """The blocks Q_lambda^T x^(x n) Q_lambda of the n-fold tensor power of a
    one-copy operator x (see `_power_columns`). A real x gives real blocks."""
    q, y = _power_columns(x, n, basis)
    return [q[:, b].T @ y[:, b] for b in basis.blocks]


def np_test(rho_blocks, alt_blocks, log_threshold: float, mult) -> list[np.ndarray]:
    """The projector {rho_n >= e^(log_threshold) * alt}, block by block, for
    two operators given as the diagonal blocks they share, block b repeated
    mult[b] times (one block of multiplicity 1 is the operator itself). The
    alternative has full rank, as omega_A x omega_B does.

    An eigenvalue of the difference counts as nonnegative down to
    -N * max|eigenvalue| * eps over all blocks, N the size of the whole
    operator (the cut of `linalg.spectral_power`): an eigenvalue that small
    counts as zero, whatever its sign, and the test accepts on it. Extreme
    thresholds are handled without forming e^(threshold): for very large
    ones the test accepts on ker(alt) = {0}, for very negative ones everywhere.
    """
    if log_threshold > _LOG_THRESHOLD_GUARD:
        return [np.zeros_like(r) for r in rho_blocks]
    if log_threshold < -_LOG_THRESHOLD_GUARD:
        return [np.eye(len(r)) for r in rho_blocks]
    scale = math.exp(log_threshold)
    spectra = [np.linalg.eigh(r - scale * a) for r, a in zip(rho_blocks, alt_blocks, strict=True)]
    dim = sum(f * len(r) for f, r in zip(mult, rho_blocks, strict=True))
    cut = dim * max(np.max(np.abs(vals), initial=0.0) for vals, _ in spectra) * EPS
    kept = [vecs[:, vals >= -cut] for vals, vecs in spectra]
    return [v @ v.conj().T for v in kept]


@dataclass(frozen=True)
class TestErrors:
    """Errors of the universal threshold test at blocklength n. A type-I bound
    beyond float range, as at large rates, reads inf (null in `simulate --json`)."""

    n: int
    s: float
    rate: float
    log_threshold: float
    type_one: float
    type_two_bound: float
    type_one_bound: float


def _positive_int(value, name: str) -> int:
    """value as an int (numpy integers too), if it is one and at least 1."""
    try:
        number = operator.index(value)
    except TypeError:  # floats, even integral ones
        number = 0
    if number < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return number


def _kron_power(v: np.ndarray, n: int) -> np.ndarray:
    """functools.reduce(np.kron, [v] * n) of a vector, by outer products."""
    return functools.reduce(lambda out, _: np.multiply.outer(out, v).ravel(), range(n - 1), v)


def _universal_setup(rho: BipartiteState, n: int, orders):
    """The blocklength n as an int, the symmetry basis, log g_A + log g_B for the
    type counts g, the blocks R_lambda of rho^(x n), and D_alpha(rho^(x n) ||
    omega_A x omega_B) at each alpha of orders. Checks n and every order for
    every public function.

    With rho = U diag(l) U^dagger, all come from one `_power_columns` pass,
    T = (U^dagger)^(x n) Q: R_lambda = T_lambda^dagger diag(l^(x n)) T_lambda,
    and with W = f^lambda |T_lambda U_lambda|^2, (mu, U_lambda) the
    eigensystems of the Omega_lambda, D_alpha is the Nussbaum-Szkola sum over
    the terms (l^(x n), mu, W), `divergences._centered` at all the orders at
    once, exact through alpha = 1. D is finite: omega_A x omega_B has full rank.

    Every read of T is weighted by l^(x n) or (l^alpha)^(x n), so U and l are
    kept on the support under `spectral_power`'s cut: T has rank(rho)^n rows.
    When those eigenvectors are real, so are T, W, R_lambda and the test.
    """
    n = _positive_int(n, "n")
    for alpha in orders:
        _check_order(alpha)
    basis = symmetry_basis(n, rho.d_a, rho.d_b)
    log_g = sum(math.log(symmetric_type_count(n, side**2)) for side in (rho.d_a, rho.d_b))
    support = spectral_power(rho.spectrum, 0.0) > 0
    l, u = rho.spectrum[support], rho.eigenvectors[:, support]
    _, t = _power_columns((u if u.imag.any() else u.real).conj().T, n, basis)
    l_n = _kron_power(l, n)
    w = np.empty(t.shape)
    for f, b, (_, u_b) in zip(basis.mult, basis.blocks, basis.omega_eigh, strict=True):
        w[:, b] = f * np.abs(t[:, b] @ u_b) ** 2
    mu = np.concatenate([vals for vals, _ in basis.omega_eigh])

    r_blocks = [t[:, b].conj().T @ (l_n[:, None] * t[:, b]) for b in basis.blocks]
    return n, basis, log_g, r_blocks, _centered(np.array(orders) - 1.0, l_n, mu, w)[0].tolist()


def universal_divergence_rate(rho: BipartiteState, alpha: float, n: int) -> float:
    """The finite-n lower bound on the doubly minimized Renyi mutual
    information obtained from the universal product state:
    (1/n) (D_alpha(rho^(x n) || omega_A x omega_B) - log g_A - log g_B)."""
    n, _, log_g, _, [d] = _universal_setup(rho, n, [alpha])
    return (d - log_g) / n


def _log_type_one_bound(n: int, rate: float, s: float, log_g: float, d_s: float) -> float:
    """The logarithm of the analytic type-I bound of the test at s,
    ((1-s)/s)(log g_A + log g_B - (D_s - n*rate)): it reads D_s, not the test."""
    return ((1.0 - s) / s) * (log_g - (d_s - n * rate))


def _universal_test(n: int, rate: float, s: float, log_g: float, d_s: float, basis, r_blocks):
    """The blocks Pi_lambda of the universal threshold test on rho^(x n) at
    type-II rate e^(-n*rate), and its errors, from one `_universal_setup` pass:
    log g_A + log g_B, D_s(rho^(x n) || omega_A x omega_B), the basis and R_lambda.

    The threshold is chosen so that the data-processing bound on the type-II
    error against every product alternative equals e^(-n*rate) exactly:
      lambda_n = (1/s)(log g_A + log g_B + n*rate - (1-s) D_s).
    The reported type-I bound is the analytic one, e^(`_log_type_one_bound`),
    inf beyond float range.
    """
    lam = (log_g + n * rate - (1.0 - s) * d_s) / s
    log_bound = _log_type_one_bound(n, rate, s, log_g, d_s)
    bound = math.exp(log_bound) if log_bound <= _LOG_MAX_FLOAT else math.inf
    test = np_test(r_blocks, basis.omega_blocks, lam, basis.mult)
    # sum_lambda f^lambda tr(R Pi) as sum_ij conj(Pi_ij) R_ij, Pi being Hermitian
    accepted = sum(f * np.vdot(pi, r).real for f, pi, r in zip(basis.mult, test, r_blocks))
    return test, TestErrors(n=n, s=s, rate=rate, log_threshold=lam,
                            type_one=max(1.0 - float(accepted), 0.0),
                            type_two_bound=math.exp(log_g - s * lam - (1.0 - s) * d_s),
                            type_one_bound=bound)


def _check_test(rate: float, s: float) -> None:
    """The test's own domain, checked before the `_universal_setup` pass."""
    if not (0.0 < s < 1.0 and rate >= 0):  # also rejects nan
        raise DomainError(f"a test needs 0 < s < 1 and rate >= 0, got s={s!r}, rate={rate!r}")


def test_errors(rho: BipartiteState, n: int, rate: float, s: float) -> TestErrors:
    """The universal threshold test on rho^(x n) at order s, type-II rate e^(-n*rate)."""
    _check_test(rate, s)
    n, basis, log_g, r_blocks, [d_s] = _universal_setup(rho, n, [s])
    return _universal_test(n, rate, s, log_g, d_s, basis, r_blocks)[1]


def type_two_against(rho: BipartiteState, n: int, rate: float, s: float,
                     sigma_a: DensityOperator, tau_b: DensityOperator) -> float:
    """Actual type-II error of the universal test against a specific iid product
    alternative sigma_A^(x n) x tau_B^(x n): the blocks of (sigma x tau)^(x n)."""
    _check_test(rate, s)
    n, basis, log_g, r_blocks, [d_s] = _universal_setup(rho, n, [s])
    test, _ = _universal_test(n, rate, s, log_g, d_s, basis, r_blocks)
    product = iid_block(np.kron(sigma_a.matrix, tau_b.matrix), n, basis)
    return float(sum(f * np.vdot(pi, x).real for f, pi, x in zip(basis.mult, test, product)))


def achievability_sweep(rho: BipartiteState, rate: float, n_max: int) -> dict:
    """Best finite-n type-I exponents of the universal test, next to the
    asymptotic direct exponent at the same rate.

    For each n up to n_max, s is the value of a grid of S_GRID_SIZE values in
    (0, 1) with the largest exponent -(1/n) log(type-I bound), the first of a
    tie, from the bound's logarithm: finite where the bound reads inf or 0. One
    `_universal_setup` pass per n gives D_s, all the bound reads, on the whole
    grid, and the test at s runs from its R_lambda and D_s. A row is `vacuous`
    when that best exponent is <= 0: no s gives a type-I bound below 1. On such
    a row, D_s growing with s, `s` is the right end of the grid and `exponent`
    is the bound's value there. n_max must be a positive integer. r_half and
    guaranteed_exact are those of the direct exponent (`ExponentReport`).
    """
    n_max = _positive_int(n_max, "n_max")
    report = direct_exponent(rho, rate)
    s_values = [float(s) for s in np.linspace(0.05, 0.95, S_GRID_SIZE)]
    rows = []
    for n in range(1, n_max + 1):
        _, basis, log_g, r_blocks, d_values = _universal_setup(rho, n, s_values)
        exponents = {s: -_log_type_one_bound(n, rate, s, log_g, d_s) / n
                     for s, d_s in zip(s_values, d_values)}
        s = max(exponents, key=exponents.get)
        _, errs = _universal_test(n, rate, s, log_g, d_values[s_values.index(s)], basis, r_blocks)
        rows.append({"n": n, "s": s, "exponent": exponents[s], "type_one": errs.type_one,
                     "type_one_bound": errs.type_one_bound,
                     "type_two_bound": errs.type_two_bound, "vacuous": exponents[s] <= 0})
    return {"rate": rate, "asymptotic_exponent": report.exponent, "r_half": report.r_half,
            "guaranteed_exact": report.guaranteed_exact, "per_n": rows}
