"""Finite-blocklength hypothesis tests against all iid product states.

The alternative hypothesis (some product state, n copies) is covered by a single
universal permutation-invariant state omega_n on H^(x n), the cycle sum of
`universal_state`: sigma^(x n) <= g_n * omega_n for every state sigma on H,
where g_n is the number of symmetric types of H x H'. A Neyman-Pearson-style
threshold test against omega_A x omega_B then bounds the type-II error
uniformly over products.

rho^(x n) and omega_A x omega_B both commute with every simultaneous
permutation of the n copies of AB, so by Schur-Weyl duality both are block
diagonal in a Gelfand-Tsetlin basis of (C^(d_A d_B))^(x n): one block per
standard Young tableau with n boxes, of the size of the matching irrep of
U(d_A d_B), and both are held only as these blocks. `symmetry_basis` builds
the real orthonormal basis Q once per (n, d_A, d_B), with the blocks Omega_b
of omega_A x omega_B and their eigensystems (mu_b, U_b). From rho's
eigensystem (`iid_block`: Lambda, V) P = Q^T V gives the blocks
R_b = P_b Lambda P_b^dag, so a test decomposes only R_b - e^(lambda) Omega_b
(at n = 4 on a qubit pair, ten blocks of sizes 1 to 45 in place of one
256 x 256 matrix), and D_alpha(rho^(x n) || omega_A x omega_B) is the
Nussbaum-Szkola sum over Lambda and mu_b with overlaps |U_b^T P_b|^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import _check_order, _petz_value
from .errors import DomainError, NumericalDegradationError, ResourceLimitError
from .exponents import direct_exponent
from .linalg import EPS, spectral_power
from .states import BipartiteState, DensityOperator

# (d^2)^n guard; it bounds N = (d_A d_B)^n, the size of rho^(x n)'s eigenvectors and Q
MAX_TOTAL_DIM = 6561
S_GRID_SIZE = 20  # the s grid of achievability_sweep

_LOG_THRESHOLD_GUARD = 700.0  # beyond this, e^(+-thr) over/underflows float64
_CONTENT_TOL = 1e-8  # Jucys-Murphy eigenvalues are integers up to this


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


def _a_then_b(n: int) -> list[int]:
    """The factor order (A1 ... An)(B1 ... Bn) of n copies (A_k B_k)."""
    return [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]


def iid_block(rho: BipartiteState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem (vals, vecs) of rho^(x n), rows reordered from
    (A1 B1 ... An Bn) to (A1 ... An)(B1 ... Bn): the n-fold Kronecker powers of
    rho's eigenvalues and eigenvectors. The matrix is never formed, and the
    small eigenvalues keep rho's relative accuracy."""
    vals = functools.reduce(np.kron, [rho.spectrum] * n)
    vecs = functools.reduce(np.kron, [rho.eigenvectors] * n)
    vecs = vecs.reshape([rho.d_a, rho.d_b] * n + [-1]).transpose(_a_then_b(n) + [2 * n])
    return vals, vecs.reshape(len(vals), -1)


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
    """A real orthonormal Gelfand-Tsetlin basis of (C^(d_A d_B))^(x n), rows
    in the (A1 ... An)(B1 ... Bn) order of `iid_block`, with its columns
    grouped in blocks, one per standard tableau; the blocks
    Omega_b = Q_b^T (omega_A x omega_B) Q_b, and their eigensystems (mu_b, U_b)."""

    q: np.ndarray
    blocks: tuple[slice, ...]
    omega_blocks: tuple[np.ndarray, ...]
    omega_eigh: tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=4)
def symmetry_basis(n: int, d_a: int, d_b: int) -> SymmetryBasis:
    """The Gelfand-Tsetlin basis and the blocks of omega_A x omega_B for
    blocklength n, cached per (n, d_A, d_B); `universal_state`'s guard runs first.

    An entry holds Q, one real N x N array, N = (d_A d_B)^n (0.34 GB at the
    guard's largest N = 6561), and the blocks with their eigenvectors, smaller
    than Q. The cache keeps the four entries used last, enough for a sweep that
    asks for one n at a time or for n = 1 ... 4 in turn.

    The basis is built orbit by orbit: the S_n orbit of a computational basis
    word spans an invariant subspace of at most n! vectors, on which
    `_orbit_basis` splits the joint eigenspaces of the Jucys-Murphy elements.
    A block gathers, over all orbits, the columns of one content vector, that
    is of one standard tableau. n = 1 is one identity block.
    """
    omega_a, omega_b = (universal_state(n, side).matrix.real for side in (d_a, d_b))
    d = d_a * d_b
    place = d ** np.arange(n - 1, -1, -1)
    orbits = {}
    columns = {}  # content vector -> [(rows of the orbit's words, columns)]
    for word in itertools.combinations_with_replacement(range(d), n):
        letters = sorted(set(word))
        counts = tuple(word.count(x) for x in letters)
        if counts not in orbits:
            orbits[counts] = _orbit_basis(counts)
        words, spaces = orbits[counts]
        rows = np.asarray(letters)[np.asarray(words)] @ place
        for content, vecs in spaces:
            columns.setdefault(content, []).append((rows, vecs))
    q = np.zeros((d**n, d**n))
    blocks, start = [], 0
    for content in sorted(columns):
        stop = start
        for rows, vecs in columns[content]:
            q[rows, stop:stop + vecs.shape[1]] = vecs
            stop += vecs.shape[1]
        blocks.append(slice(start, stop))
        start = stop
    # rows from (A1 B1 ... An Bn) to (A1 ... An)(B1 ... Bn)
    q = q[np.arange(d**n).reshape([d_a, d_b] * n).transpose(_a_then_b(n)).reshape(-1)]
    alt = np.kron(omega_a, omega_b)
    omega_blocks = [(x + x.T) / 2 for x in (q[:, b].T @ alt @ q[:, b] for b in blocks)]
    omega_eigh = tuple(np.linalg.eigh(block) for block in omega_blocks)
    for array in [q, *omega_blocks, *itertools.chain(*omega_eigh)]:
        array.setflags(write=False)
    return SymmetryBasis(q, tuple(blocks), tuple(omega_blocks), omega_eigh)


def _real_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for real m, as one real product on the (re, im) pairs of x."""
    x = np.ascontiguousarray(x, dtype=complex)
    return (m @ x.view(np.float64)).view(np.complex128)


def symmetric_blocks(rho_n, basis: SymmetryBasis) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lambda over the support of a permutation-invariant rho_n given as its
    eigensystem (Lambda, V), such as `iid_block`'s, and the blocks P_b = Q_b^T V
    there, so that R_b = Q_b^T rho_n Q_b = P_b Lambda P_b^dag."""
    vals, vecs = rho_n
    support = spectral_power(vals, 0.0) > 0
    projected = _real_product(basis.q.T, vecs if support.all() else vecs[:, support])
    return vals[support], [projected[b] for b in basis.blocks]


def block_matrices(vals: np.ndarray, p_blocks) -> list[np.ndarray]:
    """The blocks R_b = P_b Lambda P_b^dag from `symmetric_blocks`' (Lambda, [P_b])."""
    return [(p_b * vals) @ p_b.conj().T for p_b in p_blocks]


def _block_projectors(blocks, keep) -> list[np.ndarray]:
    """Spectral projectors of Hermitian blocks onto their eigenvalues v with
    keep(v, cut), where cut = N * max|v| * eps, N the total size of the blocks
    and the maximum over all of them: the cut of `linalg.spectral_power`."""
    spectra = [np.linalg.eigh(b) for b in blocks]
    dim = sum(len(b) for b in blocks)
    cut = dim * max(np.max(np.abs(vals), initial=0.0) for vals, _ in spectra) * EPS
    projectors = []
    for vals, vecs in spectra:
        kept = vecs[:, keep(vals, cut)]
        projectors.append(kept @ kept.conj().T)
    return projectors


def np_test(rho_blocks, alt_blocks, log_threshold: float) -> list[np.ndarray]:
    """The projector {rho_n >= e^(log_threshold) * alt}, block by block, for
    two operators given as the diagonal blocks they share (one block is the
    operator itself).

    An eigenvalue of the difference counts as nonnegative down to
    -N * max|eigenvalue| * eps, over all blocks, the sign rule of
    `linalg.nonnegative_part_projector` on the whole operator. Extreme
    thresholds are handled without forming e^(threshold): for very large
    thresholds the test accepts only on supp(rho_n) intersected with ker(alt),
    for very negative ones it accepts everywhere.
    """
    if log_threshold > _LOG_THRESHOLD_GUARD:
        kernels = _block_projectors(alt_blocks, lambda vals, cut: vals <= cut)
        pinched = [k @ r @ k for k, r in zip(kernels, rho_blocks, strict=True)]
        return _block_projectors(pinched, lambda vals, cut: vals > cut)
    if log_threshold < -_LOG_THRESHOLD_GUARD:
        return [np.eye(len(r)) for r in rho_blocks]
    scale = math.exp(log_threshold)
    diff = [r - scale * a for r, a in zip(rho_blocks, alt_blocks, strict=True)]
    return _block_projectors(diff, lambda vals, cut: vals >= -cut)


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
    """`symmetric_blocks` of rho^(x n), the symmetry basis, log g_A + log g_B
    for the type counts g, and D_alpha(rho^(x n) || omega_A x omega_B).
    Checks n >= 1 and the order alpha for every public function."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n!r}")
    _check_order(alpha)
    basis = symmetry_basis(n, rho.d_a, rho.d_b)
    lam, p_blocks = symmetric_blocks(iid_block(rho, n), basis)
    mu = np.concatenate([mu_b for mu_b, _ in basis.omega_eigh])
    w = np.vstack([np.abs(_real_product(u_b.T, p_b)) ** 2
                   for (_, u_b), p_b in zip(basis.omega_eigh, p_blocks, strict=True)])
    d = _petz_value(alpha, lam, mu, w.T)
    if d.is_infinite:
        raise DomainError("divergence to the universal product state is infinite")
    log_g = (math.log(symmetric_type_count(n, rho.d_a**2))
             + math.log(symmetric_type_count(n, rho.d_b**2)))
    return lam, p_blocks, basis, log_g, d.value


def universal_divergence_rate(rho: BipartiteState, alpha: float, n: int) -> float:
    """The finite-n lower bound on the doubly minimized Renyi mutual
    information obtained from the universal product state:
    (1/n) (D_alpha(rho^(x n) || omega_A x omega_B) - log g_A - log g_B)."""
    *_, log_g, d = _universal_setup(rho, n, alpha)
    return (d - log_g) / n


def _universal_test(rho: BipartiteState, n: int, rate: float, s: float):
    """log g_A + log g_B, D_s(rho^(x n) || omega_A x omega_B), the threshold
    lambda_n of `test_errors`, the symmetry basis, and the blocks R_b of
    rho^(x n) and Pi_b of the test at that threshold."""
    if not (0.0 < s < 1.0 and rate >= 0):  # also rejects nan
        raise DomainError(f"a test needs 0 < s < 1 and rate >= 0, got s={s!r}, rate={rate!r}")
    vals, p_blocks, basis, log_g, d_s = _universal_setup(rho, n, s)
    lam = (log_g + n * rate - (1.0 - s) * d_s) / s
    r_blocks = block_matrices(vals, p_blocks)
    return log_g, d_s, lam, basis, r_blocks, np_test(r_blocks, basis.omega_blocks, lam)


def test_errors(rho: BipartiteState, n: int, rate: float, s: float) -> TestErrors:
    """Run the universal threshold test on rho^(x n) at type-II rate e^(-n*rate).

    The threshold is chosen so that the data-processing bound on the type-II
    error against every product alternative equals e^(-n*rate) exactly:
      lambda_n = (1/s)(log g_A + log g_B + n*rate - (1-s) D_s(rho^(x n) || omega_A x omega_B)).
    The reported type-I bound is the analytic one,
      exp(((1-s)/s)(log g_A + log g_B - (D_s - n*rate))).
    """
    log_g, d_s, lam, _, r_blocks, test = _universal_test(rho, n, rate, s)
    # tr(R_b Pi_b) as sum_ij conj(Pi_ij) R_ij, Pi_b being Hermitian
    accepted = sum(np.vdot(pi, r).real for pi, r in zip(test, r_blocks, strict=True))
    return TestErrors(n=n, s=s, rate=rate, log_threshold=lam,
                      type_one=max(1.0 - float(accepted), 0.0),
                      type_two_bound=math.exp(log_g - s * lam - (1.0 - s) * d_s),
                      type_one_bound=math.exp(((1.0 - s) / s) * (log_g - (d_s - n * rate))))


def type_two_against(rho: BipartiteState, n: int, rate: float, s: float,
                     sigma_a: DensityOperator, tau_b: DensityOperator) -> float:
    """Actual type-II error of the universal test against a specific iid product
    alternative sigma_A^(x n) x tau_B^(x n)."""
    *_, basis, _, test = _universal_test(rho, n, rate, s)
    # Pi = sum_b Q_b Pi_b Q_b^T
    test = sum(basis.q[:, b] @ pi @ basis.q[:, b].T
               for b, pi in zip(basis.blocks, test, strict=True))
    product = functools.reduce(np.kron, [sigma_a.matrix] * n + [tau_b.matrix] * n)
    return float(np.real(np.vdot(test, product)))


def achievability_sweep(rho: BipartiteState, rate: float, n_max: int) -> dict:
    """Best finite-n type-I exponents of the universal test, next to the
    asymptotic direct exponent at the same rate.

    For each n up to n_max the test is run over a grid of S_GRID_SIZE values
    of s in (0, 1) and the largest -(1/n) log(type-I bound) is kept. A row is
    `vacuous` when that best exponent is <= 0: no s gives a type-I bound
    below 1. n_max must be at least 1.
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
                best = {"n": n, "s": float(s), "exponent": expo, "type_one": errs.type_one,
                        "type_one_bound": errs.type_one_bound,
                        "type_two_bound": errs.type_two_bound}
        best["vacuous"] = best["exponent"] <= 0
        rows.append(best)
    return {"rate": rate, "asymptotic_exponent": report.exponent, "per_n": rows}
