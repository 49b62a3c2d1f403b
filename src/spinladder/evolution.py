"""Real parity-sector spectral decomposition and exact unitary time evolution.

The Hamiltonian is diagonalized once; evolution at any time is then a phase
rotation in the eigenbasis, exact to machine precision. The ladder
Hamiltonian is real and conserves spin-flip parity, so the drivers
diagonalize only the real block on the initial state's parity sector (512
of the 4^5 = 1024 states at five rungs) with NumPy's real-symmetric
eigensolver (LAPACK syevd).
The decomposition records that sector's basis. Evolution takes a full-space
initial state; the streamed states stay in the sector's coordinates, which
metrics._reduced_many reads directly. Only evolve_state scatters a state
back into the full space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


#: Largest norm of a state's part outside a decomposition's basis that
#: evolution treats as round-off; a larger one is refused, never dropped.
SECTOR_LEAK_TOL = 1e-12

#: Time points per state block of iter_evolved, which bounds the memory held.
CHUNK = 2048


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-factorization H = V diag(w) V^dagger with w ascending.

    basis lists the full-space basis states that H's rows and columns stand
    for, ascending.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: np.ndarray

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


def diagonalize(ham, basis=None):
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    A real matrix takes the real-symmetric solver and yields real
    eigenvectors. basis lists the full-space basis states that ham's rows
    stand for (see lattice.parity_sector; None: all of them) and is recorded
    in the result.
    """
    ham = _check_hermitian(ham)
    basis = np.asarray(np.arange(len(ham)) if basis is None else basis, dtype=np.int64)
    if basis.shape != (ham.shape[0],):
        raise InvalidArgumentError(f"basis of {basis.shape} states for a matrix of dim {ham.shape[0]}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(ham)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on dim<=1024 converges
        raise NumericFailureError(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors, basis=basis)


def _sector_amplitudes(decomp, psi0):
    """psi0's amplitudes on decomp's basis; weight outside it is refused."""
    if psi0.ndim != 1 or len(psi0) <= decomp.basis[-1]:
        raise InvalidArgumentError(f"state of shape {psi0.shape} does not hold the basis up to {decomp.basis[-1]}")
    leak = np.linalg.norm(np.delete(psi0, decomp.basis))
    if leak > SECTOR_LEAK_TOL:
        raise InvalidArgumentError(f"state has weight {leak:.3e} outside the decomposition's basis")
    return psi0[decomp.basis]


def evolve_state(decomp, psi0, t):
    """psi(t) = V exp(-i w t) V^dagger psi0, as a full-space state."""
    [(_, states)] = iter_evolved(decomp, psi0, [t])
    psi = np.zeros(len(psi0), dtype=complex)
    psi[decomp.basis] = states[:, 0]
    return psi


def iter_evolved(decomp, psi0, times):
    """Yield (time_block, state_block) pairs, states as columns in decomp's basis.

    This is the streaming workhorse behind experiments.evolve_and_measure;
    long sweeps never materialize the full state history. psi0 is a
    full-space state. The rotation runs in decomp's basis, with a real matrix
    product when V is real, and each state block has shape (decomp.dim,
    len(time_block)): row r is the amplitude of basis state decomp.basis[r].
    """
    psi0 = np.asarray(psi0, dtype=complex)
    sector = _sector_amplitudes(decomp, psi0)
    vectors = decomp.eigenvectors
    times = np.asarray(times, dtype=float)
    coeffs = vectors.conj().T @ sector
    for start in range(0, len(times), CHUNK):
        block = times[start:start + CHUNK]
        rotated = coeffs[:, None] * np.exp(-1j * np.outer(decomp.eigenvalues, block))
        if np.isrealobj(vectors):
            yield block, (vectors @ rotated.view(float)).view(complex)
        else:
            yield block, vectors @ rotated
