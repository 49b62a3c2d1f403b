"""Spectral propagation checks against closed-form evolution."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinladder.errors import InvalidArgumentError
from spinladder.evolution import (
    TimeGrid,
    diagonalize,
    evolve_state,
    iter_evolved,
)
from spinladder.lattice import LadderParams, build_hamiltonian, build_initial_state

from conftest import haar_state


def test_time_grid_basics():
    grid = TimeGrid(0.0, 10.0, 5)
    assert np.allclose(grid.times, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert grid.dt == pytest.approx(2.5)


@pytest.mark.parametrize("args", [
    (-1.0, 10.0, 5),   # negative start
    (5.0, 5.0, 5),     # empty span
    (5.0, 2.0, 5),     # reversed span
    (0.0, 10.0, 1),    # too few points
])
def test_time_grid_validation(args):
    with pytest.raises(InvalidArgumentError):
        TimeGrid(*args)


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
    assert np.abs(evolve_state(decomp, psi, 0.0) - psi).max() < 1e-13


def test_eigenstate_picks_up_phase_only():
    p = LadderParams(n_rungs=1, d=0.5, h=0.0, field_mask=frozenset())
    decomp = diagonalize(build_hamiltonian(p))
    vec = decomp.eigenvectors[:, 0]
    t = 0.37
    expected = np.exp(-1j * decomp.eigenvalues[0] * t) * vec
    assert np.abs(evolve_state(decomp, vec, t) - expected).max() < 1e-12


def test_rabi_oracle_single_rung():
    """At g=1, d=0 the rung bond is a pure flip-flop between |00> and |11>.

    H = sx sx in that subspace, so |<11|psi(t)>|^2 = sin^2(t).
    """
    p = LadderParams(n_rungs=1, g=1.0, d=0.0, h=0.0, field_mask=frozenset())
    decomp = diagonalize(build_hamiltonian(p))
    psi0 = build_initial_state("separable_zero_zero", p)
    for t in (0.0, np.pi / 4.0, np.pi / 2.0, 1.234):
        psi = evolve_state(decomp, psi0, t)
        assert abs(psi[3]) ** 2 == pytest.approx(np.sin(t) ** 2, abs=1e-12)
    half = evolve_state(decomp, psi0, np.pi / 4.0)
    assert abs(half[3]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_composition_property(rng):
    ham = build_hamiltonian(LadderParams(n_rungs=2))
    decomp = diagonalize(ham)
    psi = haar_state(rng, 16)
    ab = evolve_state(decomp, evolve_state(decomp, psi, 0.7), 1.9)
    direct = evolve_state(decomp, psi, 2.6)
    assert np.abs(ab - direct).max() < 1e-10


def test_series_matches_pointwise(rng):
    decomp = diagonalize(build_hamiltonian(LadderParams(n_rungs=2)))
    psi = haar_state(rng, 16)
    grid = TimeGrid(0.0, 5.0, 23)
    [(_, block)] = iter_evolved(decomp, psi, grid.times)
    states = block.T
    assert states.shape == (23, 16)
    for k, t in enumerate(grid.times):
        assert np.abs(states[k] - evolve_state(decomp, psi, t)).max() < 1e-12
    norms = np.linalg.norm(states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_iter_evolved_chunking_invariance(rng):
    decomp = diagonalize(build_hamiltonian(LadderParams(n_rungs=2)))
    psi = haar_state(rng, 16)
    grid = TimeGrid(0.0, 5.0, 23)
    [(_, whole)] = iter_evolved(decomp, psi, grid.times)
    blocks = list(iter_evolved(decomp, psi, grid.times, chunk=7))
    assert [states.shape[1] for _, states in blocks] == [7, 7, 7, 2]
    assert np.concatenate([t for t, _ in blocks]).shape == (23,)
    stitched = np.concatenate([states for _, states in blocks], axis=1)
    assert np.abs(stitched - whole).max() < 1e-13


def test_energy_conserved_on_reference_run():
    p = LadderParams()
    ham = build_hamiltonian(p)
    decomp = diagonalize(ham)
    psi0 = build_initial_state("phi_plus", p)
    e0 = np.real(psi0.conj() @ ham @ psi0)
    [(_, block)] = iter_evolved(decomp, psi0, TimeGrid(0.0, 10.0, 101).times)
    states = block.T
    energies = np.real(np.einsum("ki,ij,kj->k", states.conj(), ham, states))
    assert np.abs(energies - e0).max() < 1e-9 * max(abs(e0), 1.0)


@given(t=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_norm_preserved_for_any_time(t):
    p = LadderParams(n_rungs=2)
    decomp = diagonalize(build_hamiltonian(p))
    psi0 = build_initial_state("phi_plus", p)
    psi = evolve_state(decomp, psi0, t)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-11
