"""Hermitian/PSD matrix calculus: spectral decompositions, powers and logarithms
on the support, tensor products, partial traces, spectral projectors, the
geometric operator mean, and Schatten (quasi-)norms.

`spectral_power` is the one place that decides where the support of a PSD
operator ends: an eigenvalue counts as zero when it is at most
dim * max|eigenvalue| * machine epsilon. Every power, logarithm, rank and
support projector of the package takes its support from it.

All operations are pure functions on immutable values. The index convention for
composite systems is A-major throughout: the basis vector with composite index
i_A * d_B + i_B corresponds to |i_A, i_B>.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

HERMITICITY_TOL = 1e-10
PSD_CLAMP_TOL = 1e-10
EPS = np.finfo(float).eps


class HermitianOperator:
    """A d x d complex Hermitian matrix with a lazily cached spectral decomposition.

    The cached eigenvalues are sorted in descending order. A caller that holds
    the eigensystem (vals, vecs) of `matrix` may pass it, and no decomposition
    is taken. The matrix is symmetrized at construction; entrywise deviations
    from hermiticity beyond HERMITICITY_TOL * max(1, max|m_ij|) are rejected,
    relative to large entries such as those of negative powers of near-singular
    states.
    """

    __slots__ = ("matrix", "_spectrum", "_eigenvectors")

    def __init__(self, matrix, eigensystem=None) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
        tol = HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m), initial=0.0)))
        if m.size and np.max(np.abs(m - m.conj().T)) > tol:
            raise InvalidInputError(
                f"matrix is not Hermitian within tolerance {tol:g} "
                f"(max deviation {np.max(np.abs(m - m.conj().T)):.3e})"
            )
        self.matrix = (m + m.conj().T) / 2
        self.matrix.setflags(write=False)
        self._spectrum = None
        self._eigenvectors = None
        if eigensystem is not None:
            # an eigensystem the caller already holds, taken instead of eigh
            vals, vecs = eigensystem
            order = np.argsort(vals)[::-1]
            self._spectrum = vals[order]
            self._eigenvectors = vecs[:, order]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _ensure_eig(self) -> None:
        if self._spectrum is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            order = np.argsort(vals)[::-1]
            self._spectrum = vals[order]
            self._eigenvectors = vecs[:, order]

    @property
    def spectrum(self) -> np.ndarray:
        """Real eigenvalues in descending order."""
        self._ensure_eig()
        return self._spectrum

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary whose columns match `spectrum`."""
        self._ensure_eig()
        return self._eigenvectors

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(self.spectrum[-1])

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianOperator(dim={self.dim})"


def _as_operator(op) -> HermitianOperator:
    if isinstance(op, HermitianOperator):
        return op
    return HermitianOperator(op)


def default_cutoff(op: HermitianOperator) -> float:
    """Sign tolerance of `nonnegative_part_projector` and `geometric_mean`:
    dim * max|eigenvalue| * machine epsilon, the cut of `spectral_power`."""
    lam_max = float(np.max(np.abs(op.spectrum))) if op.dim else 0.0
    return op.dim * lam_max * np.finfo(float).eps


def _psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues of a PSD operator, clamping rounding noise in [-PSD_CLAMP_TOL, 0)."""
    if vals.size and vals.min() < -PSD_CLAMP_TOL:
        raise InvalidInputError(
            f"operator is not positive semidefinite (min eigenvalue {vals.min():.3e})"
        )
    return np.maximum(vals, 0.0)


def spectral_power(vals: np.ndarray, p) -> np.ndarray:
    """Eigenvalues of op**p from those of a PSD op, or of a stack of them
    (shape (..., d)), with the power taken on the support: per row, eigenvalues
    <= d * max|eigenvalue| * eps map to 0, and negative ones in
    [-PSD_CLAMP_TOL, 0) are clamped; anything below is an error.
    p = 0 gives the support indicator. p may be an array that broadcasts
    against vals, such as one power per row of a stack.
    """
    cut = vals.shape[-1] * np.abs(vals).max(axis=-1, keepdims=True, initial=0.0)
    vals = _psd_eigenvalues(vals)
    keep = vals > cut * EPS
    return np.power(vals, p, out=np.zeros(np.broadcast(vals, p).shape), where=keep)


def spectral_log(vals: np.ndarray) -> np.ndarray:
    """Natural logarithm of the eigenvalues of a PSD op on its support; kernel
    eigenvalues map to 0."""
    return np.log(np.where(spectral_power(vals, 0.0) > 0, vals, 1.0))


def power_on_support(op, p: float) -> HermitianOperator:
    """op**p with the power taken on the support; kernel eigenvalues map to 0.

    p = 0 returns the support projector; see `spectral_power`.
    """
    op = _as_operator(op)
    vecs = op.eigenvectors
    return HermitianOperator((vecs * spectral_power(op.spectrum, p)) @ vecs.conj().T)


def support_projector(op) -> HermitianOperator:
    return power_on_support(op, 0.0)


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


def partial_trace(op, dims: tuple[int, int], keep: str) -> HermitianOperator:
    """Trace out one tensor factor of a bipartite operator.

    dims = (d_A, d_B); keep is "A" or "B".
    """
    op = _as_operator(op)
    d_a, d_b = dims
    if op.dim != d_a * d_b:
        raise InvalidInputError(
            f"operator dimension {op.dim} does not match d_A*d_B = {d_a * d_b}"
        )
    m = op.matrix.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return HermitianOperator(np.einsum("ibjb->ij", m))
    if keep == "B":
        return HermitianOperator(np.einsum("aiaj->ij", m))
    raise InvalidInputError(f"keep must be 'A' or 'B', got {keep!r}")


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
    # tiny eigenvalues of either sign count as zero, hence nonnegative
    tol = default_cutoff(diff)
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
    _psd_eigenvalues(x.spectrum)
    _psd_eigenvalues(y.spectrum)
    cutoff = max(default_cutoff(x), default_cutoff(y), 1e-13)
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


def schatten_norm(x, p: float) -> float:
    """Schatten p-(quasi-)norm; p = math.inf returns the largest singular value."""
    x = _as_operator(x)
    if p != math.inf and p <= 0:
        raise InvalidInputError("Schatten norm requires p > 0")
    sing = np.abs(x.spectrum)
    if p == math.inf:
        return float(np.max(sing)) if sing.size else 0.0
    return float(np.sum(sing**p) ** (1.0 / p))


def trace_distance(a, b) -> float:
    """(1/2) * trace norm of the difference."""
    a = _as_operator(a)
    b = _as_operator(b)
    return 0.5 * schatten_norm(HermitianOperator(a.matrix - b.matrix), 1.0)
