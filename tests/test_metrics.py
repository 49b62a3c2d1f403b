"""The drivers' entanglement kernels against textbook states and independent oracles.

Every test calls the kernels that experiments.evolve_and_measure runs (the
layouts, _gram, _reduced_many, the phi_plus map, _concurrence_many,
_entropy_many, the folded Schmidt blocks) and checks them against closed
forms (Werner and pure-state concurrence, the Bell-state fidelities, the
entropy values) or against conftest's reshape partial trace, eigvalsh
entropy and a plain einsum Gram, never against another route through the
same kernels. Local-unitary invariance is a property check on random
two-qubit states, which exercises the general (non-X) concurrence route.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinladder.errors import InvalidArgumentError
from spinladder.lattice import LadderParams, build_initial_state, parity_sector
from spinladder.metrics import (
    _concurrence_many,
    _entropy_many,
    _folded_layout,
    _gram,
    _is_x,
    _layout,
    _marginals,
    _phi_plus_map,
    _reduced_many,
    _schmidt_many,
    _site_code,
)

from conftest import (BELL_STATES, _oracle_concurrence, _oracle_entropy, _oracle_rho, haar_state, random_density,
                      random_unitary)

PHI_PLUS = BELL_STATES["phi_plus"]


def kron(*ops):
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def _reduce(psi, keep, n_sites):
    """The drivers' partial trace of one full-space state: _reduced_many through the full space's layout."""
    psi = np.asarray(psi, dtype=complex)
    return _reduced_many(psi[:, None], _layout(np.arange(len(psi)), keep, n_sites))[0]


def _concurrence(rho):
    return _concurrence_many(np.asarray(rho, dtype=complex)[None])[0]


def _entropy(rho):
    return _entropy_many(np.asarray(rho, dtype=complex)[None])[0]


def _mutual_information(psi, part_a, part_b, n_sites):
    """I(A:B) = S(A) + S(B) - S(AB) in bits from _reduced_many and _entropy_many, the drivers' kernels."""
    return sum(_entropy(_reduce(psi, part, n_sites)) for part in (part_a, part_b)) \
        - _entropy(_reduce(psi, part_a + part_b, n_sites))


def _phi_plus_fidelity(psi, pair, n_sites):
    """The terminal-fidelity kernel on one full-space state: sum_m |(P psi)_m|^2, P from _phi_plus_map."""
    proj = _phi_plus_map(_layout(np.arange(len(psi)), pair, n_sites), len(psi))
    return (np.abs(proj @ psi) ** 2).sum()


# ---------------------------------------------------------------- partial_trace

def test_partial_trace_product_state():
    a = np.array([1.0, 0.0])
    b = np.array([0.6, 0.8])
    psi = np.kron(a, b)
    rho_b = _reduce(psi, [2], 2)
    assert np.allclose(rho_b, np.outer(b, b))


def test_partial_trace_bell_is_maximally_mixed():
    rho = _reduce(PHI_PLUS, [1], 2)
    assert np.allclose(rho, np.eye(2) / 2.0)


def test_partial_trace_keep_order_swaps():
    a = np.array([1.0, 0.0])
    b = np.array([0.6, 0.8])
    psi = np.kron(a, b)
    fwd = _reduce(psi, [1, 2], 2)
    rev = _reduce(psi, [2, 1], 2)
    assert np.allclose(fwd, np.outer(psi, psi))
    swapped = np.kron(np.outer(b, b), np.outer(a, a))
    assert np.allclose(rev, swapped)


def test_partial_trace_random_pure_marginals_agree(rng):
    psi = haar_state(rng, 16)
    rho_a = _reduce(psi, [1, 2], 4)
    rho_b = _reduce(psi, [3, 4], 4)
    # traces are one and both marginals share a spectrum on a pure state
    assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-10)
    ev_a = np.sort(np.linalg.eigvalsh(rho_a))
    ev_b = np.sort(np.linalg.eigvalsh(rho_b))
    assert np.allclose(ev_a, ev_b, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(n_rungs=st.integers(min_value=1, max_value=5), order=st.permutations(range(1, 11)),
       size=st.integers(min_value=1, max_value=4), sector=st.sampled_from([0, 1, None]),
       seed=st.integers(min_value=0, max_value=2 ** 31))
@example(n_rungs=5, order=[9, 10, 1, 2, 3, 4, 5, 6, 7, 8], size=4, sector=0, seed=0)
@example(n_rungs=5, order=[9, 10, 1, 2, 3, 4, 5, 6, 7, 8], size=4, sector=1, seed=0)
@example(n_rungs=5, order=[9, 10, 1, 2, 3, 4, 5, 6, 7, 8], size=4, sector=None, seed=0)
def test_sector_reduction_matches_full_space(n_rungs, order, size, sector, seed):
    """Reducing states in a parity sector's coordinates equals reducing them scattered.

    sector 0 is the even parity sector, 1 the odd one, None the full space.
    """
    n_sites = 2 * n_rungs
    keep = [site for site in order if site <= n_sites][:size]
    marker = np.zeros(2 ** n_sites)
    marker[sector or 0] = 1.0
    basis = np.arange(2 ** n_sites) if sector is None else parity_sector(marker)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(len(basis), 3)) + 1j * rng.normal(size=(len(basis), 3))
    states /= np.linalg.norm(states, axis=0)
    full = np.zeros((2 ** n_sites, 3), dtype=complex)
    full[basis] = states
    rho = _reduced_many(states, _layout(basis, keep, n_sites))
    assert rho.shape == (3, 2 ** len(keep), 2 ** len(keep))
    assert np.abs(rho - _reduced_many(full, _layout(np.arange(2 ** n_sites), keep, n_sites))).max() <= 1e-13
    assert np.abs(rho - _oracle_rho(full, keep, n_sites)).max() <= 1e-13
    if len(keep) % 2 == 0:  # a pair's two sites, or a joint rho's two pairs
        half = len(keep) // 2
        for part, marginal in zip((keep[:half], keep[half:]), _marginals(rho)):
            assert np.abs(marginal - _oracle_rho(full, part, n_sites)).max() <= 1e-13


def test_reduction_refuses_basis_mixing_blocks():
    # rows |00>, |01>, |10>: site 1 in |0> sees site 2 in {0, 1}, site 1 in |1> only 0,
    # so the supports of the two configurations of site 1 overlap without being equal
    with pytest.raises(InvalidArgumentError, match="overlapping supports"):
        _layout(np.array([0, 1, 2]), [1], 2)


@settings(max_examples=60, deadline=None)
@given(n_rungs=st.integers(min_value=1, max_value=5), order=st.permutations(range(1, 11)),
       sector=st.sampled_from([0, 1, None]), seed=st.integers(min_value=0, max_value=2 ** 31))
@example(n_rungs=1, order=[2, 1, 3, 4, 5, 6, 7, 8, 9, 10], sector=0, seed=0)
@example(n_rungs=5, order=[9, 10, 1, 2, 3, 4, 5, 6, 7, 8], sector=1, seed=0)
@example(n_rungs=5, order=[10, 3, 1, 2, 4, 5, 6, 7, 8, 9], sector=None, seed=0)
def test_phi_plus_amplitudes_match_reduced_fidelity(n_rungs, order, sector, seed):
    """sum_m |(P psi)_m|^2 is the pair's <phi_plus|rho|phi_plus>, and unpaired 00/11 rows are refused.

    sector 0 is the even parity sector, 1 the odd one, None the full space.
    P pairs rows by their rest configuration, not by position, so it is
    built on a shuffled copy of the basis.
    """
    n_sites = 2 * n_rungs
    pair = [site for site in order if site <= n_sites][:2]
    marker = np.zeros(2 ** n_sites)
    marker[sector or 0] = 1.0
    basis = np.arange(2 ** n_sites) if sector is None else parity_sector(marker)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(len(basis), 3)) + 1j * rng.normal(size=(len(basis), 3))
    states /= np.linalg.norm(states, axis=0)
    codes = _site_code(basis, pair, n_sites)
    zeros, ones = np.flatnonzero(codes == 0), np.flatnonzero(codes == 3)
    shuffled = rng.permutation(len(basis))
    proj = _phi_plus_map(_layout(basis[shuffled], pair, n_sites), len(basis))
    assert proj.shape == (len(zeros), len(basis))
    fidelity = (np.abs(proj @ states[shuffled]) ** 2).sum(axis=0)
    full = np.zeros((2 ** n_sites, 3), dtype=complex)
    full[basis] = states
    expected = np.einsum("i,tij,j->t", PHI_PLUS.conj(), _oracle_rho(full, pair, n_sites), PHI_PLUS).real
    assert np.abs(fidelity - expected).max() <= 1e-13
    refused = []
    if len(zeros):  # one 00 or 11 row left without its partner
        refused.append(np.delete(basis, rng.choice(np.r_[zeros, ones])))
    if len(zeros) > 1:  # as many 00 as 11 rows, on different rest configurations
        refused.append(np.delete(basis, [zeros[0], ones[-1]]))
    for bad in refused:  # the layout refuses supports that overlap, the map 00 and 11 in different blocks
        with pytest.raises(InvalidArgumentError, match="overlapping supports|different supports"):
            _phi_plus_map(_layout(bad, pair, n_sites), len(bad))


@pytest.mark.parametrize("n_rungs", [1, 2, 3])
def test_layout_splits_a_pair_by_its_rest_supports(n_rungs):
    """A parity sector gives a pair two X blocks; the full space and the mixed-parity sector one non-X block.

    The mixed-parity input evolves in the full space. A single rung's even
    sector has no 01 or 10 row: one {00, 11} block, which is X. Within a
    block every configuration's rows run in increasing rest configuration,
    the same one row by row, and a shuffled basis gives the same rows.
    """
    params = LadderParams(n_rungs=n_rungs)
    n_sites = params.n_sites
    sector = parity_sector(build_initial_state("phi_plus", params))
    mixed = parity_sector(build_initial_state("psi_minus_plus_phi_plus", params))
    shuffled = np.random.default_rng(n_rungs).permutation(len(sector))
    for pair in [(1, 2), (n_sites - 1, n_sites), (1, n_sites)]:
        for basis in (np.arange(2 ** n_sites), mixed):
            layout = _layout(basis, pair, n_sites)
            assert layout[0] == 4 and [configs for configs, _ in layout[1]] == [[0, 1, 2, 3]]
            assert not _is_x(layout)
        layout = _layout(sector, pair, n_sites)
        assert _is_x(layout)
        assert [configs for configs, _ in layout[1]] == ([[0, 3]] if n_rungs == 1 else [[0, 3], [1, 2]])
        assert np.array_equal(np.sort(np.concatenate([rows.ravel() for _, rows in layout[1]])),
                              np.arange(len(sector)))
        rest = [k for k in range(1, n_sites + 1) if k not in pair]
        for configs, rows in layout[1]:
            assert (_site_code(sector[rows.ravel()], pair, n_sites).reshape(rows.shape)
                    == np.array(configs)[:, None]).all()
            m = _site_code(sector[rows.ravel()], rest, n_sites).reshape(rows.shape)
            assert (np.diff(m, axis=1) > 0).all() and (m == m[0]).all()
        for (configs, rows), (moved_configs, moved) in zip(layout[1], _layout(sector[shuffled], pair, n_sites)[1]):
            assert moved_configs == configs and np.array_equal(sector[shuffled][moved], sector[rows])


# ----------------------------------------------------------------- concurrence

def test_concurrence_bell_and_product():
    assert _concurrence(np.outer(PHI_PLUS, PHI_PLUS)) == pytest.approx(1.0, abs=1e-10)
    psi = np.kron([1.0, 0.0], [0.6, 0.8])
    assert _concurrence(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.25, 1.0 / 3.0, 0.5, 1.0])
def test_concurrence_werner(p):
    rho = p * np.outer(PHI_PLUS, PHI_PLUS) + (1.0 - p) * np.eye(4) / 4.0
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert _concurrence(rho) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("phi", [0.0, 0.7, 2.5])
@pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-3, 0.1, np.pi / 8, np.pi / 4,
                                   1.2, np.pi / 2 - 1e-4, 2.0])
def test_concurrence_pure_x_state(theta, phi):
    # cos(theta)|00> + e^{i phi} sin(theta)|11> has C = |sin 2 theta| exactly;
    # the eigenvalue route loses ~1e-8 near C = 0 on these states
    psi = np.array([np.cos(theta), 0.0, 0.0, np.exp(1j * phi) * np.sin(theta)])
    rho = np.outer(psi, psi.conj())
    assert _concurrence(rho) == pytest.approx(abs(np.sin(2.0 * theta)), abs=1e-14)


def test_concurrence_general_pure_states():
    # a|00> + b|01> + c|10> + d|11> has C = 2|ad - bc|; Haar-random states are
    # not X states, so this pins the Wootters route
    rng = np.random.default_rng(2245)
    psis = np.stack([haar_state(rng, 4) for _ in range(2000)])
    rhos = np.einsum("ti,tj->tij", psis, psis.conj())
    expected = 2.0 * np.abs(psis[:, 0] * psis[:, 3] - psis[:, 1] * psis[:, 2])
    assert np.abs(_concurrence_many(rhos) - expected).max() <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2 ** 31))
def test_concurrence_local_unitary_invariant(seed):
    # the singular-value route deviates by at most 6.3e-14 over 40 000 seeds;
    # the bound leaves a 16x margin
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4, rank=2)
    u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = u @ rho @ u.conj().T
    assert _concurrence(rotated) == pytest.approx(_concurrence(rho), abs=1e-12)


def test_concurrence_batch_matches_scalar(rng):
    # a stack gives each rho the value it has alone, in a stack of one, and
    # both agree with the eigenvalue oracle within its ~3e-8 round-off
    rhos = np.stack([random_density(rng, 4, rank=2) for _ in range(7)])
    batched = _concurrence_many(rhos)
    assert batched.shape == (7,)
    for k in range(7):
        assert batched[k] == pytest.approx(_concurrence(rhos[k]), abs=1e-10)
    assert np.abs(batched - _oracle_concurrence(rhos)).max() <= 1e-7


# ---------------------------------------------------------- phi_plus fidelity

def test_bell_fidelity_reference_values():
    """The phi_plus map's fidelity of phi_plus, phi_minus, |00> and a maximally mixed pair.

    <phi_minus|phi_plus> = 0 both ways round. The mixed pair is sites 1, 2
    of the purification (|0000> + |0101> + |1010> + |1111>) / 2, with
    rho_12 = 1/4.
    """
    assert _phi_plus_fidelity(PHI_PLUS, [1, 2], 2) == pytest.approx(1.0, abs=1e-12)
    assert _phi_plus_fidelity(BELL_STATES["phi_minus"], [1, 2], 2) == pytest.approx(0.0, abs=1e-12)
    assert _phi_plus_fidelity(np.eye(4)[0], [1, 2], 2) == pytest.approx(0.5, abs=1e-12)
    purified = np.zeros(16)
    purified[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.5
    assert np.allclose(_oracle_rho(purified, [1, 2], 4), np.eye(4) / 4.0)
    assert _phi_plus_fidelity(purified, [1, 2], 4) == pytest.approx(0.25, abs=1e-12)


def test_bell_states_table():
    assert set(BELL_STATES) == {"phi_plus", "phi_minus", "psi_plus", "psi_minus"}
    for name, vec in BELL_STATES.items():
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    gram = np.array([[abs(np.vdot(a, b)) for b in BELL_STATES.values()]
                     for a in BELL_STATES.values()])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


# ------------------------------------------------------------------- entropies

def test_entropy_reference_values():
    pure = np.outer(PHI_PLUS, PHI_PLUS)
    assert _entropy(pure) == pytest.approx(0.0, abs=1e-10)
    assert _entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert _entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_rungs=st.integers(min_value=1, max_value=5), order=st.permutations(range(1, 11)),
       size=st.integers(min_value=1, max_value=4), sector=st.sampled_from([0, 1, None]),
       seed=st.integers(min_value=0, max_value=2 ** 31))
@example(n_rungs=5, order=[1, 2, 9, 10, 3, 4, 5, 6, 7, 8], size=4, sector=0, seed=0)
@example(n_rungs=5, order=[9, 10, 1, 2, 3, 4, 5, 6, 7, 8], size=2, sector=1, seed=0)
@example(n_rungs=3, order=[5, 1, 2, 3, 4, 6, 7, 8, 9, 10], size=1, sector=0, seed=0)
@example(n_rungs=3, order=[1, 2, 5, 6, 3, 4, 7, 8, 9, 10], size=4, sector=None, seed=0)
def test_block_entropy_matches_full_spectrum(n_rungs, order, size, sector, seed):
    """Entropies of reduced states equal those of the whole matrix's eigenvalues.

    sector 0 is the even parity sector, 1 the odd one, None the full space.
    A sector's rhos take the per-parity-block route, the full space's the
    whole-matrix one; both must agree with the plain eigenvalue entropy.
    """
    n_sites = 2 * n_rungs
    keep = [site for site in order if site <= n_sites][:size]
    marker = np.zeros(2 ** n_sites)
    marker[sector or 0] = 1.0
    basis = np.arange(2 ** n_sites) if sector is None else parity_sector(marker)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(len(basis), 5)) + 1j * rng.normal(size=(len(basis), 5))
    states /= np.linalg.norm(states, axis=0)
    rhos = _reduced_many(states, _layout(basis, keep, n_sites))
    assert np.abs(_entropy_many(rhos) - _oracle_entropy(rhos)).max() <= 1e-12
    if len(keep) == 2:
        for marginal in _marginals(rhos):
            assert np.abs(_entropy_many(marginal) - _oracle_entropy(marginal)).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_entropy_cross_parity_element_takes_full_spectrum(dim):
    # (|i> + |j>)/sqrt(2) with i, j of different parity is pure, so S = 0, but its
    # only coherence lies between the parity blocks; the blocks alone would give 1 bit.
    # Its stack partner, the maximally mixed state, has no such element.
    parity = [bin(k).count("1") % 2 for k in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if parity[i] != parity[j]:
                psi = np.zeros(dim)
                psi[[i, j]] = 1.0 / np.sqrt(2.0)
                stack = np.array([np.outer(psi, psi), np.eye(dim) / dim], dtype=complex)
                assert np.abs(_entropy_many(stack) - [0.0, np.log2(dim)]).max() <= 1e-12, (i, j)
                assert _entropy(stack[0]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_general_and_odd_sized_density_matrices(rng):
    for dim in (3, 4):
        rho = random_density(rng, dim)
        assert _entropy(rho) == pytest.approx(_oracle_entropy(rho), abs=1e-12)


def test_entropy_symmetry_on_pure_bipartition(rng):
    psi = haar_state(rng, 64)
    s_a = _entropy(_reduce(psi, [1, 2], 6))
    s_b = _entropy(_reduce(psi, [3, 4, 5, 6], 6))
    assert s_a == pytest.approx(s_b, abs=1e-9)


@pytest.mark.parametrize("n_rungs", [2, 3, 4, 5])
@pytest.mark.parametrize("sector", [0, 1])
def test_folded_blocks_of_leg_symmetric_states_match_the_whole_rho(n_rungs, sector):
    """On states that keep the leg swap, read one row per {r, P r} orbit, the joint folds and still gives the 16-dim rho.

    The joint first-terminal entropy from the blocks' smaller sides and both
    end pairs' rhos match a reshape partial trace of the full-space states
    and eigvalsh on the whole 16x16 rho. Read through every sector row, the
    same states give the unfolded blocks, with the same values. At five
    rungs the even sector's two 8x32 blocks fold into 6x20, 2x12, 4x16 and
    4x16.
    """
    n_sites = 2 * n_rungs
    keep = [1, 2, n_sites - 1, n_sites]
    marker = np.zeros(2 ** n_sites)
    marker[sector] = 1.0
    basis = parity_sector(marker)
    low = int("01" * n_rungs, 2)
    swapped = ((basis >> 1) & low) | ((basis & low) << 1)
    _, orbit = np.unique(np.minimum(basis, swapped), return_inverse=True)
    rng = np.random.default_rng(n_rungs + 10 * sector)
    amplitudes = rng.normal(size=(orbit.max() + 1, 6)) + 1j * rng.normal(size=(orbit.max() + 1, 6))
    amplitudes /= np.linalg.norm(amplitudes[orbit], axis=0)
    full = np.zeros((2 ** n_sites, 6), dtype=complex)
    full[basis] = amplitudes[orbit]
    whole = _oracle_rho(full, keep, n_sites)
    halves = _oracle_rho(full, keep[:2], n_sites), _oracle_rho(full, keep[2:], n_sites)
    folded = _folded_layout(basis, keep, n_sites, orbit)
    unfolded = _folded_layout(basis, keep, n_sites, np.arange(len(basis)))
    assert any(subtract for _, subtract, _, _ in folded[1]) == (n_rungs > 2)  # two rungs leave no other site
    assert not any(subtract for _, subtract, _, _ in unfolded[1])
    assert all(np.array_equal(*terms) for terms, _, _, _ in unfolded[1])
    for states, layout in ((amplitudes, folded), (full[basis], unfolded)):
        sides, got = _schmidt_many(states, layout)
        assert np.abs(_entropy_many(sides) - _oracle_entropy(whole)).max() <= 1e-12
        for rho, want in zip(got, halves):
            assert np.abs(rho - want).max() <= 1e-12
    if n_rungs == 5 and sector == 0:
        assert [terms.shape[1:] for terms, _, _, _ in folded[1]] == [(6, 20), (2, 12), (4, 16), (4, 16)]


# ------------------------------------------------------------------ Gram kernel

@pytest.mark.parametrize("shape", [(1, 8), (2, 8), (6, 20), (20, 6)])
@pytest.mark.parametrize("swapped", [False, True])
def test_gram_is_g_g_dagger_per_state_column(shape, swapped):
    """_gram(G) is einsum's G G^H per state column, to 1e-13 relative, with an exactly real diagonal and Hermitian bits.

    swapped passes G as the swapaxes view of a (columns, rows, states)
    array, as _schmidt_many does for a block's other side.
    """
    rng = np.random.default_rng(sum(shape) + 100 * swapped)
    size = shape[::-1] + (37,) if swapped else shape + (37,)
    g = rng.normal(size=size) + 1j * rng.normal(size=size)
    g = g.swapaxes(0, 1) if swapped else g
    gram = _gram(g)
    want = np.einsum("imt,jmt->tij", g, g.conj())
    assert gram.shape == want.shape == (37, shape[0], shape[0])
    assert np.abs(gram - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.diagonal(gram, axis1=1, axis2=2).imag.any()
    assert np.array_equal(gram, gram.conj().swapaxes(-1, -2))


# ---------------------------------------------------------- mutual information

def test_mutual_information_product_is_zero(rng):
    psi = np.kron(haar_state(rng, 4), haar_state(rng, 4))
    mi = _mutual_information(psi, [1, 2], [3, 4], 4)
    assert mi == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_bell_pair_is_two_bits():
    mi = _mutual_information(PHI_PLUS, [1], [2], 2)
    assert mi == pytest.approx(2.0, abs=1e-10)


def test_mutual_information_complement_rule(rng):
    # I(A:B) = 2 S(A) when B is the full complement of A on a pure state
    psi = haar_state(rng, 16)
    s_a = _entropy(_reduce(psi, [1, 3], 4))
    mi = _mutual_information(psi, [1, 3], [2, 4], 4)
    assert mi == pytest.approx(2.0 * s_a, abs=1e-9)
