"""Hermitian/PSD matrix calculus: validated Hermitian operators with a cached
spectral decomposition, and powers and logarithms of spectra on the support.

`spectral_power` is the one place that decides where the support of a PSD
operator ends: an eigenvalue counts as zero when it is at most
dim * max|eigenvalue| * machine epsilon. Every power, logarithm, rank and
support projector of the package takes its support from it; a support
projector is `power_on_support(op, 0.0)`.

All operations are pure functions on immutable values. The index convention for
composite systems is A-major throughout: the basis vector with composite index
i_A * d_B + i_B corresponds to |i_A, i_B>.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10  # an eigenvalue or pmf entry below -PSD_TOL is rejected
EPS = np.finfo(float).eps


class HermitianOperator:
    """A d x d complex Hermitian matrix with a lazily cached spectral decomposition.

    The cached eigenvalues are sorted in descending order. The matrix is
    symmetrized at construction; entrywise deviations from hermiticity beyond
    HERMITICITY_TOL * max(1, max|m_ij|) are rejected, relative to large entries
    such as those of negative powers of near-singular states, as are an empty
    matrix and a non-finite entry. A caller that holds an eigensystem builds
    the operator from it with `from_eigensystem`.
    """

    __slots__ = ("_matrix", "_eigensystem", "_spectrum", "_eigenvectors")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise InvalidInputError(f"expected a nonempty square matrix, got shape {m.shape}")
        top = float(np.max(np.abs(m)))  # nan or inf if any entry is
        if not np.isfinite(top):
            raise InvalidInputError("matrix entries must be finite")
        tol = HERMITICITY_TOL * max(1.0, top)
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise InvalidInputError(
                f"matrix is not Hermitian within tolerance {tol:g} "
                f"(max deviation {np.max(np.abs(m - m.conj().T)):.3e})"
            )
        self._matrix, self._eigensystem = _symmetrized(m), None
        self._spectrum = self._eigenvectors = None

    @classmethod
    def from_eigensystem(cls, vals: np.ndarray, vecs: np.ndarray):
        """The operator vecs diag(vals) vecs^dag of an eigensystem the caller
        holds, such as the solver's iterates. Nothing is validated or decomposed:
        `dim`, `spectrum` and `eigenvectors` read the eigensystem, and `matrix`
        is composed, then symmetrized as `__init__` does, on first read.
        A subclass runs its checks on the eigenvalues."""
        op = cls.__new__(cls)
        op._matrix, op._eigensystem = None, (vals, vecs)
        op._spectrum = op._eigenvectors = None
        op._check()
        return op

    def _check(self) -> None:
        """Checks of a subclass on the spectrum; a Hermitian operator has none."""

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _symmetrized(np.asarray(_compose(*self._eigensystem), dtype=complex))
        return self._matrix

    @property
    def dim(self) -> int:
        return (self._eigensystem[0] if self._matrix is None else self._matrix).shape[0]

    def _ensure_eig(self) -> None:
        if self._spectrum is None:
            vals, vecs = self._eigensystem or np.linalg.eigh(self._matrix)
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
        """tr of the matrix; the sum of the eigenvalues while it is not composed."""
        if self._matrix is None:
            return float(np.sum(self.spectrum))
        return float(np.real(np.trace(self._matrix)))

    def min_eigenvalue(self) -> float:
        return float(self.spectrum[-1])

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianOperator(dim={self.dim})"


def _symmetrized(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2
    m.setflags(write=False)
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _compose(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """vecs diag(vals) vecs^dag, also on stacks."""
    return (vecs * vals[..., None, :]) @ _dagger(vecs)


def _as_operator(op) -> HermitianOperator:
    if isinstance(op, HermitianOperator):
        return op
    return HermitianOperator(op)


def _check_psd(vals: np.ndarray) -> None:
    """Reject the eigenvalues of an operator that is not PSD: rounding noise
    in [-PSD_TOL, 0) passes, anything below is an error."""
    if vals.size and vals.min() < -PSD_TOL:
        raise InvalidInputError(
            f"operator is not positive semidefinite (min eigenvalue {vals.min():.3e})"
        )


def spectral_power(vals: np.ndarray, p) -> np.ndarray:
    """Eigenvalues of op**p from those of a PSD op, or of a stack of them
    (shape (..., d)), with the power taken on the support: per row, eigenvalues
    <= d * max|eigenvalue| * eps map to 0, among them the negative ones in
    [-PSD_TOL, 0); anything below is an error.
    p = 0 gives the support indicator. p may be an array that broadcasts
    against vals, such as one power per row of a stack.
    """
    cut = vals.shape[-1] * np.abs(vals).max(axis=-1, keepdims=True, initial=0.0)
    _check_psd(vals)
    keep = vals > cut * EPS
    # not np.power: it takes other paths for the exponents -1, 1/2 and 2 when one
    # exponent serves a whole array, so a row would differ alone and in a stack
    return np.float_power(vals, p, out=np.zeros(np.broadcast(vals, p).shape), where=keep)


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

