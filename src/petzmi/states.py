"""Density operators, bipartite states, classical pmfs, and state constructors."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .linalg import PSD_TOL, HermitianOperator, spectral_power

TRACE_TOL = 1e-8


class DensityOperator(HermitianOperator):
    """A Hermitian, positive semidefinite, unit-trace operator. One built
    `from_eigensystem` is checked on its eigenvalues, with the same tolerances."""

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        self._check()

    def _check(self) -> None:
        min_eig = float(np.minimum.reduce(self.eigensystem[0]))
        if min_eig < -PSD_TOL:
            raise InvalidInputError(
                f"density operator has a negative eigenvalue ({min_eig:.3e})"
            )
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidInputError(f"density operator has trace {tr!r}, expected 1")

    def rank(self) -> int:
        return int(np.sum(spectral_power(self.spectrum, 0.0)))

    def is_pure(self) -> bool:
        return self.rank() == 1


def held(term):
    """term(rho) of a `BipartiteState`, the same at every order: formed on first
    call and held in the state's one `_held` slot for as long as it lives."""
    @functools.wraps(term)
    def read(rho):
        if term not in rho._held:
            rho._held[term] = term(rho)
        return rho._held[term]
    return read


class BipartiteState(DensityOperator):
    """A density operator on A x B (A-major indexing) that holds its marginals
    and the order-free terms of its solves (`held`)."""

    __slots__ = ("d_a", "d_b", "_held")

    def __init__(self, matrix, d_a: int, d_b: int) -> None:
        super().__init__(matrix)
        if d_a < 1 or d_b < 1:
            raise InvalidInputError("local dimensions must be positive")
        if self.dim != d_a * d_b:
            raise InvalidInputError(
                f"matrix dimension {self.dim} does not match d_A*d_B = {d_a * d_b}"
            )
        self.d_a, self.d_b, self._held = d_a, d_b, {}

    rank = held(DensityOperator.rank)
    marginal_a = property(held(lambda rho: DensityOperator(np.einsum("ibjb->ij", rho._tensor()))))
    marginal_b = property(held(lambda rho: DensityOperator(np.einsum("aiaj->ij", rho._tensor()))))

    def _tensor(self) -> np.ndarray:
        return self.matrix.reshape(self.d_a, self.d_b, self.d_a, self.d_b)

    def __reduce__(self):  # a copy forms its held terms again, on first use
        return type(self), (self.matrix, self.d_a, self.d_b)

    @held
    def diagonal_pmf_or_none(self):
        """The joint pmf if the state is diagonal in the product basis, else None."""
        off = self.matrix - np.diag(np.diag(self.matrix))
        if np.max(np.abs(off)) > 1e-12:
            return None
        probs = np.real(np.diag(self.matrix)).reshape(self.d_a, self.d_b)
        return Pmf(probs)


@dataclass(frozen=True)
class Pmf:
    """A joint probability mass function on a finite product alphabet."""

    table: np.ndarray = field()

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise InvalidInputError("pmf table must be two-dimensional")
        if not np.isfinite(t).all():  # nan passes the min and sum checks below
            raise InvalidInputError("pmf entries must be finite")
        if np.min(t) < -PSD_TOL:
            raise InvalidInputError("pmf entries must be nonnegative")
        t = np.clip(t, 0.0, None)
        if abs(t.sum() - 1.0) > TRACE_TOL:
            raise InvalidInputError(f"pmf sums to {t.sum()!r}, expected 1")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def marginal_x(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def marginal_y(self) -> np.ndarray:
        return self.table.sum(axis=0)


def pure_bipartite(amplitudes, d_a: int, d_b: int) -> BipartiteState:
    """Rank-one bipartite state |psi><psi| from a (normalized) amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size != d_a * d_b:
        raise InvalidInputError(
            f"amplitude vector has length {v.size}, expected d_A*d_B = {d_a * d_b}"
        )
    top = np.abs(v).max()
    if 2.0 <= top < np.inf:  # divided by a power of 2 at or below max|v|: exact, and no overflow
        v = v / np.ldexp(1.0, np.frexp(top)[1] - 1)
    norm = np.linalg.norm(v)
    if not 1e-12 <= norm < np.inf:  # a nan or inf entry makes the norm nan or inf
        raise InvalidInputError("amplitude vector is (numerically) zero or not finite")
    v = v / norm
    return BipartiteState(np.outer(v, v.conj()), d_a, d_b)


def cc_state(pmf: Pmf | np.ndarray) -> BipartiteState:
    """The classical-classical state diag(P(x, y)) in the product basis."""
    if not isinstance(pmf, Pmf):
        pmf = Pmf(np.asarray(pmf, dtype=float))
    d_a, d_b = pmf.table.shape
    return BipartiteState(np.diag(pmf.table.reshape(-1)), d_a, d_b)


def copy_cc_state(p: np.ndarray) -> BipartiteState:
    """The perfectly correlated state sum_x p(x) |xx><xx|."""
    p = np.asarray(p, dtype=float).reshape(-1)
    table = np.diag(p)
    return cc_state(Pmf(table))


def random_density(dim: int, rng_or_seed=None, rank: int | None = None) -> DensityOperator:
    """Ginibre-induced random density matrix: G G^dag / tr(G G^dag)."""
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    k = dim if rank is None else rank
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ g.conj().T
    return DensityOperator(m / np.real(np.trace(m)))


def random_bipartite(d_a: int, d_b: int, rng_or_seed=None, rank: int | None = None) -> BipartiteState:
    rho = random_density(d_a * d_b, rng_or_seed, rank=rank)
    return BipartiteState(rho.matrix, d_a, d_b)

