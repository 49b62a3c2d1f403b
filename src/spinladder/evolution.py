"""Real parity-sector spectral decomposition and exact unitary time evolution.

The Hamiltonian is diagonalized once; evolution at any time is then a phase
rotation in the eigenbasis, exact to machine precision. The ladder
Hamiltonian is real and conserves spin-flip parity, so the drivers
build it only on the initial state's parity sector (512 of the 4^5 = 1024
states at five rungs). On a clean ladder it also commutes with the leg swap
and the rung mirror; diagonalize then solves, with NumPy's real-symmetric
eigensolver (LAPACK syevd), only the symmetry blocks the initial state
occupies (lattice.symmetry_blocks: 152 + 120 of the 512 phi_plus sector
states at five rungs). Each block is an orthonormal matrix U; diagonalize
solves U^T H U and maps its eigenvectors v back into the sector as U v.
Without a held symmetry, as under disorder, the sector H is solved whole.
The decomposition records that sector's basis. Evolution takes a full-space
initial state; the streamed states stay in the sector's coordinates, which
metrics._reduced_many reads directly. A caller that needs only linear
images M psi(t) of the states, such as the phi_plus amplitudes behind the
terminal fidelity, passes iter_evolved the readout M V and gets those rows
without the states.

iter_evolved streams a uniform TimeGrid. Its phases exp(-i w t) come from
two small tables instead of one complex exp per eigenvalue and time: an
anchor phase at every STRIDE-th grid time times one of STRIDE offset
phases exp(-i w b dt). The anchors are the grid's own times, so every
STRIDE-th phase is exactly the direct one.

Ladders that differ only in their couplings, such as a heatmap's cells or
a disorder ensemble's realizations, share the basis and psi0, and are
solved and evolved as one stack: a leading axis of K ladders on H, on the
decomposition and on the streamed rows. NumPy's stacked eigh and matmul
call LAPACK and BLAS once per matrix, so each ladder of a stack gets the
same bits as alone in a chunk of the same length. CHUNK_BYTES bounds the
whole stack. A chunk holds as many points as fill it with every ladder's
states and phases, a multiple of STRIDE so that chunks start on anchors,
and at most CHUNK: one ladder at N = 3 takes CHUNK points, at N = 4 1280
and at N = 5 320, a stack of 40 at N = 3 64. _stacks splits a study into
stacks that fit it with their H and V at the shortest chunk. The length
does not depend on the readouts, which the caller chooses;
experiments.evolve_and_measure reads only the distinct rows of V.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


#: Largest norm of a state's part outside a decomposition's basis, or outside
#: the span of its eigenvectors, that evolution treats as round-off; a larger
#: one is refused, never dropped.
SECTOR_LEAK_TOL = 1e-12

#: Largest element of H - H^dagger, relative to H's largest element (at
#: least 1), for which diagonalize takes H as Hermitian.
MATRIX_TOL = 1e-12

#: Most time points per state block of iter_evolved.
CHUNK = 2048

#: Bytes of the complex state and phase blocks that sets the points per chunk
#: of iter_evolved on large bases (_chunk_points); 4 MiB was the fastest of
#: 0.5-8 MiB for N = 4 and 5 on a 2 MiB-L2 Xeon core.
CHUNK_BYTES = 4 << 20

#: Grid points per anchor phase in iter_evolved; the points between two
#: anchors take their phases from one table of STRIDE offset phases.
STRIDE = 64

#: Largest round-off eps * max|w| * t_end of the phases w t that iter_evolved accepts.
PHASE_ROUNDOFF_TOL = 1e-6


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs H V = V diag(w) of H on a basis, w ascending; or of a stack of K such H.

    basis lists the full-space basis states that H's rows and columns stand
    for, ascending. eigenvectors has one orthonormal column per eigenvalue
    and one row per basis state, shape (len(basis), dim). dim, the number of
    eigenpairs kept, is len(basis) for a complete decomposition and smaller
    when only the symmetry blocks an initial state occupies were solved; V,
    the maps U v of each block's eigenvectors, then spans an invariant
    subspace of H, and states outside it cannot be evolved. A stack of K
    ladders on one basis puts K in front: eigenvalues (K, dim) and
    eigenvectors (K, len(basis), dim).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.eigenvalues)[:-1] + (len(self.basis), self.dim)
        if np.shape(self.eigenvectors) != shape:
            raise InvalidArgumentError(f"eigenvectors of shape {np.shape(self.eigenvectors)} for "
                                       f"{self.dim} eigenvalues on a basis of {shape[-2]} states")

    @property
    def dim(self):
        """The number of eigenpairs kept per ladder, at most len(basis)."""
        return np.shape(self.eigenvalues)[-1]


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
        if not self.dt > 0:
            raise InvalidArgumentError(f"the step of [{self.t_start}, {self.t_end}] over {self.n_points} points "
                                       f"underflows to 0; raise t_end or lower n_points")

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @property
    def dt(self):
        return (self.t_end - self.t_start) / (self.n_points - 1)


def _check_hermitian(matrix):
    """matrix, a square matrix or a stack of them, each checked finite and Hermitian on its own scale."""
    matrix = np.asarray(matrix)
    if matrix.ndim not in (2, 3) or matrix.shape[-2] != matrix.shape[-1]:
        raise InvalidArgumentError(f"expected a square matrix or a stack of them, got shape {matrix.shape}")
    scale = np.abs(matrix).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise NumericFailureError("matrix has non-finite elements: a term of H overflows")
    dev = np.abs(matrix - matrix.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    if (dev > MATRIX_TOL * np.maximum(scale, 1.0)).any():
        raise InvalidArgumentError(f"matrix is not Hermitian (max deviation {dev.max():.3e})")
    return matrix


def diagonalize(ham, basis=None, blocks=None):
    """Eigenpairs of a Hermitian matrix on the given blocks, eigenvalues ascending.

    blocks is None, which solves ham itself, or a list of orthonormal maps
    U, each a (len(ham), k) matrix whose columns span an invariant subspace
    of ham, as lattice.symmetry_blocks returns them. Every block is solved
    alone, on U^T ham U, and its eigenvectors v are mapped back as U v, so
    the result's eigenvectors are (len(basis), sum of k) in ham's
    coordinates. A real matrix takes the real-symmetric solver and yields
    real eigenvectors. basis lists the full-space basis states that ham's
    rows stand for (see lattice.parity_sector; None: all of them) and is
    recorded in the result. A stack of K matrices, shape (K, n, n), is
    solved matrix by matrix in the same stacked calls, each bitwise as
    alone, and gives a stacked decomposition.
    """
    ham = _check_hermitian(ham)
    dim = ham.shape[-1]
    basis = np.asarray(np.arange(dim) if basis is None else basis, dtype=np.int64)
    if basis.shape != (dim,):
        raise InvalidArgumentError(f"basis of {basis.shape} states for a matrix of dim {dim}")
    values, vectors = [], []
    for u in [None] if blocks is None else blocks:
        try:
            w, v = np.linalg.eigh(ham if u is None else u.T @ ham @ u)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on a block of <= 1024 states converges
            raise NumericFailureError(f"eigensolver failed: {exc}") from exc
        values.append(w)
        vectors.append(v if u is None else u @ v)
    eigenvalues = np.concatenate(values, axis=-1)
    order = np.argsort(eigenvalues, axis=-1, kind="stable")
    index = (np.arange(len(order))[:, None], order) if order.ndim > 1 else order
    columns = np.concatenate(vectors, axis=-1).swapaxes(-2, -1)[index]  # one C-ordered row per eigenvector
    return SpectralDecomposition(eigenvalues=eigenvalues[index], eigenvectors=columns.swapaxes(-2, -1), basis=basis)


def _sector_amplitudes(decomp, psi0):
    """psi0's amplitudes on decomp's basis; weight outside it is refused.

    Every basis the package builds is closed under the flip of the rung-1
    pair, the two most significant bits, so its largest index has the bit
    length of the site count and fixes the full-space length psi0 must have.
    """
    full_dim = 1 << int(decomp.basis[-1]).bit_length()
    if psi0.shape != (full_dim,):
        raise InvalidArgumentError(f"state of shape {psi0.shape} is not a state of the {full_dim}-dim space "
                                   f"that the basis indexes")
    leak = np.linalg.norm(np.delete(psi0, decomp.basis))
    if leak > SECTOR_LEAK_TOL:
        raise InvalidArgumentError(f"state has weight {leak:.3e} outside the decomposition's basis")
    return psi0[decomp.basis]


def _coefficients(decomp, psi0):
    """psi0's coordinates in decomp's eigenbasis, V^dagger psi0; weight outside V's span, in any ladder, is refused."""
    amplitudes = _sector_amplitudes(decomp, np.asarray(psi0, dtype=complex))
    vectors = decomp.eigenvectors
    coeffs = vectors.conj().swapaxes(-2, -1) @ amplitudes
    leak = np.linalg.norm(amplitudes - (vectors @ coeffs[..., None])[..., 0], axis=-1).max()
    if leak > SECTOR_LEAK_TOL:
        raise InvalidArgumentError(f"state has weight {leak:.3e} outside the span of the "
                                   f"decomposition's eigenvectors")
    return coeffs


def _chunk_points(n_states, n_pairs, n_ladders=1):
    """Time points per chunk for n_ladders ladders on a basis of n_states states with n_pairs eigenpairs kept.

    As many as fill CHUNK_BYTES with one complex block of the states and
    one of the phases per ladder, rounded down to a multiple of STRIDE so
    every chunk starts on an anchor, at least STRIDE and at most CHUNK. The
    length follows the decomposition, not the readouts, so every readout of
    one decomposition is formed in the same products whatever else is read.
    """
    fit = CHUNK_BYTES // (16 * n_ladders * (n_states + n_pairs)) // STRIDE * STRIDE
    return min(CHUNK, max(STRIDE, fit))


def _stacks(n_ladders, n_states):
    """Slices of range(n_ladders) in stacks of near-equal size, each within CHUNK_BYTES.

    A ladder on a basis of n_states states takes at most 16 n_states
    (n_states + 2 STRIDE) bytes of a stack: its real H and V (at most
    n_states eigenpairs) and its complex state and phase blocks over a
    chunk of STRIDE points, the shortest. A stack holds as many ladders as
    fit CHUNK_BYTES so, at least one: 51 at N = 3, 8 at N = 4 and 1 at N = 5.
    """
    most = max(1, CHUNK_BYTES // (16 * n_states * (n_states + 2 * STRIDE)))
    count = -(-n_ladders // most)
    return [slice(n_ladders * k // count, n_ladders * (k + 1) // count) for k in range(count)]


def iter_evolved(decomp, psi0, grid, readouts=None):
    """Yield (time_block, row_block) pairs over a TimeGrid, one column per time.

    This is the streaming workhorse behind experiments.evolve_and_measure;
    long sweeps never materialize the full state history. psi0 is a
    full-space state. Each chunk's eigenbasis block c exp(-i w t) is
    multiplied by every matrix in readouts, each in its own product (a real
    one when the matrices are real), and their rows are stacked in order.
    readouts defaults to (V,): the row block is then the states in decomp's
    basis, shape (len(decomp.basis), len(time_block)), with row r the amplitude of
    basis state decomp.basis[r]. A readout R = M V yields M psi(t) without
    forming the states. A stacked decomp takes readouts with the same
    leading axis of K ladders and yields (K, rows, len(time_block)) blocks.
    A grid whose phases w t pass PHASE_ROUNDOFF_TOL / eps in any ladder is
    refused with NumericFailureError before any state is formed.

    The grid is uniform, so each time is an anchor (every STRIDE-th grid
    time from a chunk's start, taken from grid.times) plus an offset
    b * grid.dt with b < STRIDE, and exp(-i w t) is an anchor phase times an
    offset phase. The offset phases are one table per call; the anchor
    phases are computed per chunk, and their products with the offsets fill
    one phase buffer per call, which the readouts read in place. The row
    blocks are allocated per chunk, so a caller may keep every one.
    """
    w = decomp.eigenvalues
    stack = w.shape[:-1]
    phase = float(np.abs(w).max()) * grid.t_end
    if not np.finfo(float).eps * phase <= PHASE_ROUNDOFF_TOL:
        raise NumericFailureError(f"phases E t reach {phase:.3g}, so their round-off exceeds {PHASE_ROUNDOFF_TOL:g}")
    readouts = (decomp.eigenvectors,) if readouts is None else tuple(readouts)
    bounds = np.cumsum([0] + [readout.shape[-2] for readout in readouts])
    real = not any(np.iscomplexobj(readout) for readout in readouts)
    coeffs = _coefficients(decomp, psi0)
    times = grid.times
    offsets = np.exp(-1j * w[..., None] * (np.arange(min(STRIDE, grid.n_points)) * grid.dt))
    chunk = _chunk_points(len(decomp.basis), decomp.dim, math.prod(stack))
    phases = np.empty(w.shape + (len(times[:chunk:STRIDE]), offsets.shape[-1]), dtype=complex)
    for start in range(0, len(times), chunk):
        block = times[start:start + chunk]
        anchors = coeffs[..., None] * np.exp(-1j * w[..., None] * block[::STRIDE])
        np.multiply(anchors[..., None], offsets[..., None, :], out=phases[..., :anchors.shape[-1], :])
        rotated = phases.reshape(w.shape + (-1,))[..., :len(block)]
        rows = np.empty(stack + (bounds[-1], len(block)), dtype=complex)
        target, operand = (rows.view(float), rotated.view(float)) if real else (rows, rotated)
        for readout, lo, hi in zip(readouts, bounds, bounds[1:]):
            np.matmul(readout, operand, out=target[..., lo:hi, :])
        yield block, rows
