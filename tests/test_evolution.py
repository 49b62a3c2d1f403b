"""Spectral propagation checks against closed-form evolution and an independent propagator.

Where evolution itself is checked, the reference is conftest's
_oracle_states, a dense eigh of the test's own H that shares no code with
the package; elsewhere a state is read from iter_evolved at the time asked
for (_state_at).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinladder.errors import InvalidArgumentError, NumericFailureError
from spinladder.evolution import (
    CHUNK,
    CHUNK_BYTES,
    STRIDE,
    SpectralDecomposition,
    TimeGrid,
    diagonalize,
    _chunk_points,
    iter_evolved,
)
from spinladder.experiments import _envelope_grid, _sector_spectrum, _slow_window
from spinladder.lattice import LadderParams, build_hamiltonian, build_initial_state, parity_sector, symmetry_blocks
from spinladder.metrics import _layout, _reduced_many

from conftest import _oracle_states, haar_state, pauli_hamiltonian


def _state_at(decomp, psi0, t):
    """psi(t) in decomp's basis, the first column of iter_evolved on a grid that starts at t."""
    [(_, block)] = iter_evolved(decomp, psi0, TimeGrid(t, t + 1.0, 2))
    return block[:, 0]


def test_time_grid_basics():
    grid = TimeGrid(0.0, 10.0, 5)
    assert np.allclose(grid.times, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert grid.dt == pytest.approx(2.5)


@pytest.mark.parametrize("args", [
    (-1.0, 10.0, 5),   # negative start
    (5.0, 5.0, 5),     # empty span
    (5.0, 2.0, 5),     # reversed span
    (0.0, 10.0, 1),    # too few points
    (0.0, 5e-324, 8001),  # step underflows to 0
])
def test_time_grid_validation(args):
    with pytest.raises(InvalidArgumentError):
        TimeGrid(*args)


@pytest.mark.parametrize("element", [np.inf, np.nan])
def test_diagonalize_refuses_a_non_finite_matrix(element):
    """An overflowed term of H never reaches the eigensolver."""
    ham = np.eye(3)
    ham[1, 1] = element
    with pytest.raises(NumericFailureError, match="non-finite"):
        diagonalize(ham)


def test_diagonalize_sorted_permutation():
    ham = np.diag([3.0, 1.0, 2.0]).astype(complex)
    decomp = diagonalize(ham)
    assert np.allclose(decomp.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors of a diagonal matrix are basis vectors, permuted to match
    assert np.allclose(np.abs(decomp.eigenvectors), np.eye(3)[:, [1, 2, 0]])
    assert decomp.dim == 3


def test_diagonalize_rejects_nonhermitian():
    ham = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidArgumentError):
        diagonalize(ham)


def test_diagonalize_solves_a_stack_matrix_by_matrix():
    """Three stacked N = 4 sector Hamiltonians on phi_plus's blocks give each one's eigenpairs bitwise, in its layout.

    Every matrix of the stack is checked on its own: one non-finite or
    non-Hermitian matrix refuses the stack.
    """
    params = [LadderParams(n_rungs=4, g=g, d=d) for g, d in ((1.0, 0.5), (0.6, 0.2), (0.3, 0.9))]
    psi0 = build_initial_state("phi_plus", params[0])
    basis = parity_sector(psi0)
    blocks = symmetry_blocks(params[0], basis, psi0[basis])
    hams = np.stack([build_hamiltonian(p, basis=basis) for p in params])
    stacked = diagonalize(hams, basis, blocks)
    assert stacked.eigenvalues.shape == (3, 72) and stacked.dim == 72
    for ham, values, vectors in zip(hams, stacked.eigenvalues, stacked.eigenvectors):
        alone = diagonalize(ham, basis, blocks)
        assert np.array_equal(values, alone.eigenvalues) and np.array_equal(vectors, alone.eigenvectors)
        assert vectors.strides == alone.eigenvectors.strides
    with pytest.raises(InvalidArgumentError, match="eigenvectors of shape"):
        SpectralDecomposition(stacked.eigenvalues, stacked.eigenvectors[:2], basis)
    broken = hams.copy()
    broken[2, 0, 0] = np.inf
    with pytest.raises(NumericFailureError, match="non-finite"):
        diagonalize(broken, basis)
    broken[2, 0, 0], broken[1, 0, 1] = 0.0, 1.0
    with pytest.raises(InvalidArgumentError, match="not Hermitian"):
        diagonalize(broken, basis)


def test_one_ladder_of_a_stack_refuses_the_stack_before_any_state():
    """Phases past the round-off bound, or weight outside V's span, in the second ladder alone refuse the whole stack."""
    params = [LadderParams(), LadderParams(j_parallel=1e300)]
    psi0 = build_initial_state("phi_plus", params[0])
    huge = _sector_spectrum(params, psi0)
    with pytest.raises(NumericFailureError, match="round-off"):
        next(iter_evolved(huge, psi0, TimeGrid(0.0, 1.0, 2)))
    clean = _sector_spectrum([params[0]] * 2, psi0)
    vectors = clean.eigenvectors.copy()
    vectors[1, :, np.abs(vectors[1].T @ psi0[clean.basis]).argmax()] = 0.0
    with pytest.raises(InvalidArgumentError, match="outside the span"):
        next(iter_evolved(SpectralDecomposition(clean.eigenvalues, vectors, clean.basis), psi0, TimeGrid(0.0, 1.0, 2)))


def test_single_rung_energies():
    p = LadderParams(n_rungs=1, d=0.5, h=0.0, field_mask=frozenset())
    decomp = diagonalize(build_hamiltonian(p))
    assert np.allclose(decomp.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)


def test_spectral_reconstruction():
    ham = build_hamiltonian(LadderParams(n_rungs=2))
    decomp = diagonalize(ham)
    rebuilt = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.conj().T
    assert np.abs(rebuilt - ham).max() < 1e-9


def test_evolution_at_zero_is_identity(rng):
    ham = build_hamiltonian(LadderParams(n_rungs=2))
    decomp = diagonalize(ham)
    psi = haar_state(rng, 16)
    assert np.abs(_state_at(decomp, psi, 0.0) - psi).max() < 1e-13


def test_eigenstate_picks_up_phase_only():
    p = LadderParams(n_rungs=1, d=0.5, h=0.0, field_mask=frozenset())
    decomp = diagonalize(build_hamiltonian(p))
    vec = decomp.eigenvectors[:, 0]
    t = 0.37
    expected = np.exp(-1j * decomp.eigenvalues[0] * t) * vec
    assert np.abs(_state_at(decomp, vec, t) - expected).max() < 1e-12


def test_rabi_oracle_single_rung():
    """At g=1, d=0 the rung bond is a pure flip-flop between |00> and |11>.

    H = sx sx in that subspace, so |<11|psi(t)>|^2 = sin^2(t).
    """
    p = LadderParams(n_rungs=1, g=1.0, d=0.0, h=0.0, field_mask=frozenset())
    decomp = diagonalize(build_hamiltonian(p))
    psi0 = build_initial_state("separable_zero_zero", p)
    for t in (0.0, np.pi / 4.0, np.pi / 2.0, 1.234):
        psi = _state_at(decomp, psi0, t)
        assert abs(psi[3]) ** 2 == pytest.approx(np.sin(t) ** 2, abs=1e-12)
    half = _state_at(decomp, psi0, np.pi / 4.0)
    assert abs(half[3]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_composition_property(rng):
    ham = build_hamiltonian(LadderParams(n_rungs=2))
    decomp = diagonalize(ham)
    psi = haar_state(rng, 16)
    ab = _state_at(decomp, _state_at(decomp, psi, 0.7), 1.9)
    direct = _state_at(decomp, psi, 2.6)
    assert np.abs(ab - direct).max() < 1e-10


def test_series_matches_pointwise(rng):
    ham = build_hamiltonian(LadderParams(n_rungs=2))
    decomp = diagonalize(ham)
    psi = haar_state(rng, 16)
    grid = TimeGrid(0.0, 5.0, 23)
    [(_, block)] = iter_evolved(decomp, psi, grid)
    states = block.T
    assert states.shape == (23, 16)
    expected = _oracle_states(ham, psi, grid.times).T
    for k in range(grid.n_points):
        assert np.abs(states[k] - expected[k]).max() < 1e-12
    norms = np.linalg.norm(states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_iter_evolved_chunking_invariance(rng, monkeypatch):
    decomp = diagonalize(build_hamiltonian(LadderParams(n_rungs=2)))
    psi = haar_state(rng, 16)
    grid = TimeGrid(0.0, 5.0, 23)
    [(_, whole)] = iter_evolved(decomp, psi, grid)
    monkeypatch.setattr("spinladder.evolution.CHUNK", 7)
    blocks = list(iter_evolved(decomp, psi, grid))
    assert [states.shape[1] for _, states in blocks] == [7, 7, 7, 2]
    assert np.concatenate([t for t, _ in blocks]).shape == (23,)
    stitched = np.concatenate([states for _, states in blocks], axis=1)
    assert np.abs(stitched - whole).max() < 1e-13


def _direct_states(decomp, psi0, times):
    """V (c exp(-i w t)) with one complex exp per eigenvalue and time: the phases' oracle."""
    w, vectors = decomp.eigenvalues, decomp.eigenvectors
    coeffs = vectors.conj().T @ psi0[decomp.basis]
    return vectors @ (coeffs[:, None] * np.exp(-1j * np.outer(w, times)))


def _worst_against_direct(decomp, psi0, grid):
    """Largest amplitude error of iter_evolved against _direct_states, block by block."""
    return max(np.abs(states - _direct_states(decomp, psi0, block)).max()
               for block, states in iter_evolved(decomp, psi0, grid))


def test_phase_tables_match_direct_exp_on_long_high_field_grid():
    """The h = 400 sweep row's grid: 102,421 points out to t = 1137.6 at N = 3.

    Anchor times a table offset is the direct phase up to round-off in the
    arguments w t, which grows as |w| t: the states stay within 4 eps
    max|w| t_end (8.1e-10 here) of the one-exp-per-point evolution.
    """
    params = LadderParams(h=400.0)
    psi0 = build_initial_state("phi_plus", params)
    decomp = _sector_decomp(params, psi0)
    grid = _envelope_grid(params, _slow_window(params))
    assert grid.n_points == 102421
    bound = 4.0 * np.abs(decomp.eigenvalues).max() * grid.t_end * 2.0 ** -52
    assert _worst_against_direct(decomp, psi0, grid) <= bound


def test_phase_tables_with_chunk_and_grid_off_the_stride(monkeypatch):
    """Neither CHUNK nor n_points is a multiple of STRIDE: anchors restart in every chunk."""
    p = LadderParams()
    psi0 = build_initial_state("phi_plus", p)
    decomp = _sector_decomp(p, psi0)
    grid = TimeGrid(0.0, 10.0, 1000)
    monkeypatch.setattr("spinladder.evolution.CHUNK", 150)
    assert 150 % STRIDE and grid.n_points % STRIDE
    blocks = list(iter_evolved(decomp, psi0, grid))
    assert [states.shape[1] for _, states in blocks] == [150] * 6 + [100]
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), grid.times)
    bound = 4.0 * np.abs(decomp.eigenvalues).max() * grid.t_end * 2.0 ** -52
    assert _worst_against_direct(decomp, psi0, grid) <= bound


@pytest.mark.parametrize("n_pairs", [1, 20, 272, 1056])
@pytest.mark.parametrize("n_states", [1, 32, 128, 512, 2048, 10 ** 6])
def test_chunk_points_fill_the_byte_budget_from_anchor_to_anchor(n_states, n_pairs):
    """At most CHUNK points; where the budget decides, a multiple of STRIDE whose state and phase blocks fit CHUNK_BYTES.

    A stack of ladders shares the budget: its chunk is that of one ladder
    with as many states and eigenpairs as the whole stack.
    """
    points = _chunk_points(n_states, n_pairs)
    assert STRIDE <= points <= CHUNK
    if points < CHUNK:
        assert points % STRIDE == 0
        assert points == STRIDE or 16 * points * (n_states + n_pairs) <= CHUNK_BYTES < 16 * (points + STRIDE) * (
            n_states + n_pairs)
    assert _chunk_points(n_states, n_pairs, 40) == _chunk_points(40 * n_states, 40 * n_pairs)


def test_large_basis_streams_budget_sized_chunks_of_the_same_states(monkeypatch):
    """N = 5: 512 state rows over 272 eigenpairs take chunks of a multiple of STRIDE points within CHUNK_BYTES.

    The time blocks tile the grid exactly, and the states match a run in
    CHUNK-point blocks to round-off: the anchors are the same grid times.
    """
    params = LadderParams(n_rungs=5)
    psi0 = build_initial_state("phi_plus", params)
    decomp = _sector_decomp(params, psi0)
    grid = TimeGrid(0.0, 10.0, 4001)
    points = _chunk_points(len(decomp.basis), decomp.dim)
    assert points < CHUNK and points % STRIDE == 0
    blocks = list(iter_evolved(decomp, psi0, grid))
    assert [len(t) for t, _ in blocks] == [points] * (grid.n_points // points) + [grid.n_points % points]
    assert blocks[0][1].nbytes + 16 * decomp.dim * points <= CHUNK_BYTES
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), grid.times)
    monkeypatch.setattr("spinladder.evolution.CHUNK_BYTES", 1 << 40)
    whole = list(iter_evolved(decomp, psi0, grid))
    assert [len(t) for t, _ in whole] == [CHUNK, grid.n_points - CHUNK]
    stitched = np.concatenate([states for _, states in blocks], axis=1)
    assert np.abs(stitched - np.concatenate([states for _, states in whole], axis=1)).max() < 1e-13


def test_energy_conserved_on_reference_run():
    p = LadderParams()
    ham = build_hamiltonian(p)
    decomp = diagonalize(ham)
    psi0 = build_initial_state("phi_plus", p)
    e0 = np.real(psi0.conj() @ ham @ psi0)
    [(_, block)] = iter_evolved(decomp, psi0, TimeGrid(0.0, 10.0, 101))
    states = block.T
    energies = np.real(np.einsum("ki,ij,kj->k", states.conj(), ham, states))
    assert np.abs(energies - e0).max() < 1e-9 * max(abs(e0), 1.0)


@given(t=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_norm_preserved_for_any_time(t):
    p = LadderParams(n_rungs=2)
    decomp = diagonalize(build_hamiltonian(p))
    psi0 = build_initial_state("phi_plus", p)
    psi = _state_at(decomp, psi0, t)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-11


# ------------------------------------------------------------ parity sectors

def _sector_decomp(params, psi0):
    basis = parity_sector(psi0)
    return diagonalize(build_hamiltonian(params, basis=basis), basis)


def test_sector_evolution_matches_full_space_oracle():
    """phi_plus evolved in its 32-state sector equals the 64-state complex evolution.

    Both routes carry a phase error that grows as eps |H| t with |H| ~ 200:
    at t = 10 each is ~1.7e-12 off a 40-digit evolution, so state amplitudes
    are compared to 1e-12 up to t = 5. The rung-pair states that every
    measure reads are insensitive to the common part of that phase and are
    compared to 1e-12 over the whole reference window.
    """
    p = LadderParams()
    psi0 = build_initial_state("phi_plus", p)
    decomp = _sector_decomp(p, psi0)
    assert decomp.dim == 32 and np.isrealobj(decomp.eigenvectors)
    oracle = diagonalize(pauli_hamiltonian(p))
    assert np.array_equal(oracle.basis, np.arange(64)) and not np.isrealobj(oracle.eigenvectors)
    grid = TimeGrid(0.0, 10.0, 401)
    [(_, sector_states)] = iter_evolved(decomp, psi0, grid)
    [(_, expected)] = iter_evolved(oracle, psi0, grid)
    assert sector_states.shape == (32, 401)
    states = np.zeros((64, 401), dtype=complex)
    states[decomp.basis] = sector_states
    assert states.shape == (64, 401)
    early = grid.times <= 5.0
    assert np.abs(states[:, early] - expected[:, early]).max() <= 1e-12
    for keep in ([1, 2], [3, 4], [5, 6], [1, 2, 5, 6]):
        rho = _reduced_many(sector_states, _layout(decomp.basis, keep, 6))
        assert np.abs(rho - _reduced_many(expected, _layout(np.arange(64), keep, 6))).max() <= 1e-12
    at = np.zeros(64, dtype=complex)
    at[decomp.basis] = _state_at(decomp, psi0, 3.7)
    assert np.abs(at - _oracle_states(pauli_hamiltonian(p), psi0, [3.7])[:, 0]).max() <= 1e-12


def test_sector_states_stream_in_sector_coordinates(monkeypatch):
    """iter_evolved yields (len(basis), nt) blocks, row r the amplitude of basis state basis[r].

    The full-space evolution of the dense H keeps the state in the sector:
    its weight outside is round-off.
    """
    p = LadderParams(n_rungs=2)
    psi0 = build_initial_state("phi_plus", p)
    decomp = _sector_decomp(p, psi0)
    grid = TimeGrid(0.0, 5.0, 23)
    monkeypatch.setattr("spinladder.evolution.CHUNK", 7)
    blocks = list(iter_evolved(decomp, psi0, grid))
    assert [states.shape for _, states in blocks] == [(8, 7), (8, 7), (8, 7), (8, 2)]
    stitched = np.concatenate([states for _, states in blocks], axis=1)
    expected = _oracle_states(build_hamiltonian(p), psi0, grid.times)
    assert expected.shape == (16, 23)
    assert np.abs(expected[decomp.basis] - stitched).max() < 1e-13
    assert np.abs(np.delete(expected, decomp.basis, axis=0)).max() < 1e-13


@pytest.mark.parametrize("space", ["parity sector", "full space"])
def test_readouts_stack_their_own_products(space, monkeypatch):
    """Each readout R = M V yields M psi(t), bit for bit the same alone or behind others.

    The parity sector has real V and takes the real product, the complex
    pauli_string Hamiltonian the complex one.
    """
    p = LadderParams()
    psi0 = build_initial_state("phi_plus", p)
    decomp = _sector_decomp(p, psi0) if space == "parity sector" else diagonalize(pauli_hamiltonian(p))
    assert np.isrealobj(decomp.eigenvectors) == (space == "parity sector")
    mixer = np.random.default_rng(5).normal(size=(decomp.dim // 4, decomp.dim))
    readout = mixer @ decomp.eigenvectors
    grid = TimeGrid(0.0, 5.0, 23)
    monkeypatch.setattr("spinladder.evolution.CHUNK", 7)
    states = list(iter_evolved(decomp, psi0, grid))
    alone = list(iter_evolved(decomp, psi0, grid, [readout]))
    both = list(iter_evolved(decomp, psi0, grid, [decomp.eigenvectors, readout]))
    assert [rows.shape for _, rows in alone] == [(decomp.dim // 4, 7)] * 3 + [(decomp.dim // 4, 2)]
    for (_, full), (_, part), (_, stacked) in zip(states, alone, both):
        assert stacked.shape == (decomp.dim + decomp.dim // 4, full.shape[1])
        assert np.array_equal(stacked[:decomp.dim], full)
        assert np.array_equal(stacked[decomp.dim:], part)
        assert np.abs(part - mixer @ full).max() <= 1e-12


def test_sector_evolution_refuses_weight_outside_basis():
    p = LadderParams(n_rungs=2)
    phi = build_initial_state("phi_plus", p)
    decomp = _sector_decomp(p, phi)
    odd = build_initial_state("psi_plus", p)
    for leak in (1e-6, 1.0):
        psi = (phi + leak * odd) / np.linalg.norm(phi + leak * odd)
        with pytest.raises(InvalidArgumentError, match="outside"):
            next(iter_evolved(decomp, psi, TimeGrid(0.0, 1.0, 2)))
    # round-off outside the sector is not a reason to refuse
    psi = phi + 1e-14 * odd
    assert np.abs(_state_at(decomp, psi, 0.0) - phi[decomp.basis]).max() < 1e-13
    with pytest.raises(InvalidArgumentError):
        next(iter_evolved(decomp, phi[:8], TimeGrid(0.0, 1.0, 2)))


@pytest.mark.parametrize("space", ["parity sector", "full space"])
def test_evolution_refuses_zero_padded_state(space):
    """N = 2 phi_plus padded with zeros to 32 entries is not an N = 2 state."""
    p = LadderParams(n_rungs=2)
    phi = build_initial_state("phi_plus", p)
    decomp = _sector_decomp(p, phi) if space == "parity sector" else diagonalize(build_hamiltonian(p))
    assert len(decomp.basis) == (8 if space == "parity sector" else 16)
    padded = np.concatenate([phi, np.zeros(16)])
    with pytest.raises(InvalidArgumentError, match="shape"):
        next(iter_evolved(decomp, padded, TimeGrid(0.0, 1.0, 2)))
    assert _state_at(decomp, phi, 0.0).shape == (len(decomp.basis),)


def test_diagonalize_checks_basis_length():
    with pytest.raises(InvalidArgumentError):
        diagonalize(np.eye(3), basis=[0, 3])
    assert np.array_equal(diagonalize(np.eye(2), basis=[0, 3]).basis, [0, 3])


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (4, 2, 1), (4,)])
def test_decomposition_refuses_eigenvectors_of_the_wrong_shape(shape):
    """eigenvectors must be (len(basis), len(eigenvalues)): 4 basis states, 3 eigenvalues here."""
    with pytest.raises(InvalidArgumentError, match="eigenvectors of shape"):
        SpectralDecomposition(np.zeros(2 if shape == (4, 3) else 3), np.zeros(shape), np.arange(4))
    assert SpectralDecomposition(np.zeros(3), np.zeros((4, 3)), np.arange(4)).dim == 3


def test_blocked_spectrum_is_a_subset_of_the_sector_spectrum():
    """The leg-even blocks of phi_plus at N = 4 give 72 of the 128 sector eigenpairs, ascending."""
    p = LadderParams(n_rungs=4)
    psi0 = build_initial_state("phi_plus", p)
    blocked, sector = _sector_spectrum(p, psi0), _sector_decomp(p, psi0)
    assert blocked.eigenvectors.shape == (128, 72) and blocked.dim == 72
    assert np.all(np.diff(blocked.eigenvalues) >= 0)
    nearest = np.abs(blocked.eigenvalues[:, None] - sector.eigenvalues[None]).min(axis=1)
    assert nearest.max() <= 1e-12 * np.abs(sector.eigenvalues).max()
    ham = build_hamiltonian(p, basis=blocked.basis)
    v = blocked.eigenvectors
    assert np.abs(v.T @ v - np.eye(72)).max() <= 1e-13
    assert np.abs(ham @ v - v * blocked.eigenvalues).max() <= 1e-12 * np.abs(ham).max()


def test_blocked_spectrum_refuses_weight_outside_its_blocks():
    """|01 10 00> is half leg-odd, so the leg-even blocks of phi_plus cannot evolve it."""
    p = LadderParams()
    phi = build_initial_state("phi_plus", p)
    decomp = _sector_spectrum(p, phi)
    assert decomp.dim == 20
    odd = np.zeros(64, dtype=complex)
    odd[0b011000] = 1.0
    with pytest.raises(InvalidArgumentError, match="outside the span"):
        next(iter_evolved(decomp, odd, TimeGrid(0.0, 1.0, 2)))
    even = odd.copy()
    even[0b100100] = 1.0  # its leg-swap image: the leg-even combination evolves
    even /= np.linalg.norm(even)
    assert np.abs(_state_at(decomp, even, 0.0) - even[decomp.basis]).max() < 1e-14
