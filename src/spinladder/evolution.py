"""Spectral decomposition and exact unitary time evolution.

The Hamiltonian is diagonalized once; evolution at any time is then a phase
rotation in the eigenbasis, exact to machine precision. Dimensions stay at
or below 4^5 = 1024, so the one-time O(dim^3) cost is negligible compared
with the thousands of grid points it serves.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidArgumentError, NumericFailureError


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-factorization H = V diag(w) V^dagger with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [t_start, t_end] with n_points points."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.t_start < 0:
            raise InvalidArgumentError(f"t_start must be >= 0, got {self.t_start}")
        if not self.t_end > self.t_start:
            raise InvalidArgumentError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if self.n_points < 2:
            raise InvalidArgumentError(f"n_points must be >= 2, got {self.n_points}")

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @property
    def dt(self):
        return (self.t_end - self.t_start) / (self.n_points - 1)


def _check_hermitian(matrix):
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {matrix.shape}")
    scale = np.abs(matrix).max()
    dev = np.abs(matrix - matrix.conj().T).max()
    if dev > 1e-12 * max(scale, 1.0):
        raise InvalidArgumentError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return matrix


def diagonalize(ham):
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    ham = _check_hermitian(ham)
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(ham)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on dim<=1024 converges
        raise NumericFailureError(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def evolve_state(decomp, psi0, t):
    """psi(t) = V exp(-i w t) V^dagger psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (decomp.dim,):
        raise InvalidArgumentError(f"state dim {psi0.shape} does not match operator dim {decomp.dim}")
    coeffs = decomp.eigenvectors.conj().T @ psi0
    return decomp.eigenvectors @ (np.exp(-1j * decomp.eigenvalues * t) * coeffs)


def iter_evolved(decomp, psi0, times, chunk=2048):
    """Yield (time_block, state_block) pairs, states as columns.

    This is the streaming workhorse behind experiments.evolve_and_measure;
    long sweeps never materialize the full state history.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (decomp.dim,):
        raise InvalidArgumentError(f"state dim {psi0.shape} does not match operator dim {decomp.dim}")
    times = np.asarray(times, dtype=float)
    coeffs = decomp.eigenvectors.conj().T @ psi0
    for start in range(0, len(times), chunk):
        block = times[start:start + chunk]
        phases = np.exp(-1j * np.outer(decomp.eigenvalues, block))
        yield block, decomp.eigenvectors @ (coeffs[:, None] * phases)
