"""Geometry, operator construction, and Hamiltonian oracles.

The numeric oracles here (single-rung spectrum, all-down energy) are
computed independently inside the tests, not read back from the module
under test.
"""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinladder.errors import InvalidArgumentError
from spinladder.lattice import (
    INITIAL_STATE_KINDS,
    LadderParams,
    bond_hamiltonian,
    build_hamiltonian,
    build_initial_state,
    dressed_gap,
    ladder_terms,
    leg_bonds,
    mediating_mask,
    parity_sector,
    symmetry_blocks,
    uniform_mask,
    _character_blocks,
    _held_site_maps,
)
from spinladder.experiments import disorder_realization

from conftest import pauli_hamiltonian, pauli_string


# ------------------------------------------- pauli_string (the tests' oracle)

def test_single_z_site1():
    # |0> is spin-down with sigma_z eigenvalue -1 and site 1 is the most
    # significant factor, so basis states |00>, |01> pick up -1.
    op = pauli_string("z", [1], 2)
    assert np.array_equal(op, np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex))


def test_single_z_site2():
    op = pauli_string("z", [2], 2)
    assert np.array_equal(op, np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex))


def test_xx_is_antidiagonal_ones():
    op = pauli_string("xx", [1, 2], 2)
    assert np.array_equal(op, np.fliplr(np.eye(4)).astype(complex))


def test_pauli_string_squares_to_identity(rng):
    n = 3
    op = pauli_string("xzy", [2, 1, 3], n)
    assert np.allclose(op @ op, np.eye(2 ** n))
    assert np.allclose(op, op.conj().T)
    assert abs(np.trace(op)) < 1e-12


def test_pauli_string_site_order_irrelevant():
    a = pauli_string("xy", [1, 2], 2)
    b = pauli_string("yx", [2, 1], 2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("axes,sites", [
    ("xx", [1, 1]),       # duplicate site
    ("x", [0]),           # out of range
    ("x", [3]),           # out of range
    ("xy", [1]),          # length mismatch
    ("q", [1]),           # unknown axis
])
def test_pauli_string_rejects(axes, sites):
    with pytest.raises(InvalidArgumentError):
        pauli_string(axes, sites, 2)


# ---------------------------------------------------------------- LadderParams

def test_default_params():
    p = LadderParams()
    assert (p.n_rungs, p.j_perp, p.j_parallel, p.g, p.d, p.h) == (3, 1.0, 1.0, 1.0, 0.5, 100.0)
    assert p.field_mask == frozenset({2})
    assert p.n_sites == 6
    assert p.dim == 64


def test_mask_defaults_scale_with_size():
    assert LadderParams(n_rungs=2).field_mask == frozenset()
    assert LadderParams(n_rungs=5).field_mask == frozenset({2, 3, 4})
    assert LadderParams(n_rungs=1).field_mask == frozenset()


def test_masks():
    assert mediating_mask(3) == frozenset({2})
    assert mediating_mask(2) == frozenset()
    assert uniform_mask(2) == frozenset({1, 2})


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        LadderParams(n_rungs=0)
    with pytest.raises(InvalidArgumentError):
        LadderParams(n_rungs=2.5)
    with pytest.raises(InvalidArgumentError):
        LadderParams(h=float("nan"))
    with pytest.raises(InvalidArgumentError):
        LadderParams(g=float("inf"))
    with pytest.raises(InvalidArgumentError):
        LadderParams(n_rungs=3, field_mask={4})


def test_replacing_a_field_keeps_the_mask():
    assert replace(LadderParams(), h=17.0).field_mask == frozenset({2})


def test_leg_bonds_order():
    # top leg first, then bottom: this ordering is the disorder contract
    assert leg_bonds(3) == [(1, 3), (3, 5), (2, 4), (4, 6)]
    assert leg_bonds(1) == []


# ------------------------------------------------------------ build_hamiltonian

def test_hamiltonian_is_hermitian():
    ham = build_hamiltonian(LadderParams())
    assert ham.shape == (64, 64)
    assert np.abs(ham - ham.conj().T).max() < 1e-14


def test_all_down_energy_reference():
    """Diagonal oracle: only zz bonds and the field touch the all-down state.

    Independent scalar: each bond gives +d*J (both spins down), the field
    gives -2h per masked rung. For the reference set that is
    3*0.5 + 4*0.5 - 2*100 = -196.5.
    """
    p = LadderParams()
    psi = build_initial_state("separable_zero_zero", p)
    energy = np.real(psi.conj() @ build_hamiltonian(p) @ psi)
    n_bonds_rung = p.n_rungs
    n_bonds_leg = 2 * (p.n_rungs - 1)
    expected = (n_bonds_rung * p.d * p.j_perp
                + n_bonds_leg * p.d * p.j_parallel
                - 2.0 * p.h * len(p.field_mask))
    assert expected == -196.5
    assert abs(energy - expected) < 1e-10


def test_all_down_energy_uniform_mask():
    p = LadderParams(field_mask=uniform_mask(3))
    psi = build_initial_state("separable_zero_zero", p)
    energy = np.real(psi.conj() @ build_hamiltonian(p) @ psi)
    assert abs(energy - (1.5 + 2.0 - 600.0)) < 1e-10


def test_single_rung_spectrum():
    # One rung at g=1: {|00>,|11>} block has energies d +- 1, the
    # {|01>,|10>} block -d +- 1 (in units of j_perp).
    p = LadderParams(n_rungs=1, d=0.5, h=0.0, field_mask=frozenset())
    w = np.linalg.eigvalsh(build_hamiltonian(p))
    assert np.allclose(np.sort(w), [-1.5, -0.5, 0.5, 1.5], atol=1e-12)


def test_bond_factors_scale_single_bonds():
    p = LadderParams(h=0.0, field_mask=frozenset())
    base = build_hamiltonian(p)
    scaled = build_hamiltonian(p, rung_factors=[2.0, 1.0, 1.0])
    diff = scaled - base
    # the difference must be exactly one extra copy of the rung-1 bond
    expected = (0.5 * (1 + p.g) * pauli_string("xx", [1, 2], 6)
                + 0.5 * (1 - p.g) * pauli_string("yy", [1, 2], 6)
                + p.d * pauli_string("zz", [1, 2], 6)) * p.j_perp
    assert np.allclose(diff, expected, atol=1e-12)


def test_leg_factor_order_matches_leg_bonds():
    p = LadderParams(h=0.0, field_mask=frozenset())
    base = build_hamiltonian(p)
    factors = np.ones(4)
    factors[2] = 3.0  # third leg bond is (2, 4), the first bottom bond
    scaled = build_hamiltonian(p, leg_factors=factors)
    expected = 2.0 * p.j_parallel * (
        0.5 * (1 + p.g) * pauli_string("xx", [2, 4], 6)
        + 0.5 * (1 - p.g) * pauli_string("yy", [2, 4], 6)
        + p.d * pauli_string("zz", [2, 4], 6))
    assert np.allclose(scaled - base, expected, atol=1e-12)


def test_field_never_scaled():
    p = LadderParams()
    a = build_hamiltonian(p)
    b = build_hamiltonian(p, rung_factors=[0.0, 0.0, 0.0],
                          leg_factors=np.zeros(4))
    field_only = p.h * (pauli_string("z", [3], 6) + pauli_string("z", [4], 6))
    assert np.allclose(b, field_only, atol=1e-12)
    assert not np.allclose(a, b)


def test_factor_shape_validation():
    p = LadderParams()
    with pytest.raises(InvalidArgumentError):
        build_hamiltonian(p, rung_factors=[1.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        build_hamiltonian(p, leg_factors=[1.0] * 3)


def test_drop_odd_leg():
    p = LadderParams(h=0.0, field_mask=frozenset())
    partial = build_hamiltonian(p, leg_factors=[0.0 if i % 2 else 1.0 for i, _ in leg_bonds(3)])
    expected = build_hamiltonian(LadderParams(n_rungs=3, h=0.0, field_mask=frozenset()))
    for (i, j) in [(1, 3), (3, 5)]:
        expected = expected - p.j_parallel * (
            0.5 * (1 + p.g) * pauli_string("xx", [i, j], 6)
            + 0.5 * (1 - p.g) * pauli_string("yy", [i, j], 6)
            + p.d * pauli_string("zz", [i, j], 6))
    assert np.allclose(partial, expected, atol=1e-12)


_coupling = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def ladders(draw):
    """A ladder with N = 1..4, any anisotropy, field, mask and bond factors."""
    n_rungs = draw(st.integers(min_value=1, max_value=4))
    params = LadderParams(
        n_rungs=n_rungs, j_perp=draw(_coupling), j_parallel=draw(_coupling),
        g=draw(_coupling), d=draw(_coupling),
        h=draw(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)),
        field_mask=draw(st.frozensets(st.integers(min_value=1, max_value=n_rungs))))
    factors = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
    rung_factors = draw(st.lists(factors, min_size=n_rungs, max_size=n_rungs))
    leg_factors = draw(st.lists(factors, min_size=2 * n_rungs - 2, max_size=2 * n_rungs - 2))
    if draw(st.booleans()):  # drop the top leg, whose bonds lead leg_bonds()
        leg_factors[:n_rungs - 1] = [0.0] * (n_rungs - 1)
    return params, rung_factors, leg_factors


def _parity(index):
    return bin(index).count("1") % 2


@given(ladders())
def test_builder_matches_pauli_oracle(ladder):
    """The bit-operation builder is the pauli_string sum: real, symmetric, parity-blocked."""
    params, rung_factors, leg_factors = ladder
    ham = build_hamiltonian(params, rung_factors, leg_factors)
    oracle = pauli_hamiltonian(params, rung_factors, leg_factors)
    assert ham.dtype == np.float64
    assert np.abs(ham - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())
    assert np.array_equal(ham, ham.T)
    parity = np.array([_parity(k) for k in range(params.dim)])
    assert not ham[np.ix_(parity == 0, parity == 1)].any()
    for sector in (0, 1):
        basis = np.flatnonzero(parity == sector)
        block = build_hamiltonian(params, rung_factors, leg_factors, basis=basis)
        assert np.array_equal(block, ham[np.ix_(basis, basis)])


@pytest.mark.parametrize("kind,parity", [("phi_plus", 0), ("psi_plus", 1),
                                         ("separable_zero_zero", 0)])
def test_parity_sector_of_definite_inputs(kind, parity):
    params = LadderParams()
    basis = parity_sector(build_initial_state(kind, params))
    assert len(basis) == params.dim // 2
    assert np.all(np.diff(basis) > 0)
    assert {_parity(int(k)) for k in basis} == {parity}


def test_parity_sector_of_mixed_input_is_full_space():
    assert np.array_equal(parity_sector(build_initial_state("psi_minus_plus_phi_plus", LadderParams())),
                          np.arange(64))
    with pytest.raises(InvalidArgumentError):
        parity_sector(np.zeros(16))


def test_builder_rejects_basis_not_closed_under_flips():
    with pytest.raises(InvalidArgumentError):
        bond_hamiltonian(2, [([(1, 2, 1.0, 1.0, 0.5)], {})], basis=[0, 1])


_MASKS = {"mediating": mediating_mask, "uniform": uniform_mask, "{2}": lambda n: frozenset({2})}


def _loop_builder(n_sites, bonds, site_fields, basis):
    """One term set's H with scalar coefficients, a term at a time: the reference the stacked builder must match bitwise."""
    states = np.arange(2 ** n_sites) if basis is None else np.asarray(basis, dtype=np.int64)
    columns = np.arange(len(states))
    lookup = np.full(2 ** n_sites, -1)
    lookup[states] = columns
    spins = 2 * ((states[:, None] >> (n_sites - 1 - np.arange(n_sites))) & 1) - 1
    diagonal = np.zeros(len(states))
    for site, coefficient in site_fields.items():
        diagonal += coefficient * spins[:, site - 1]
    ham = np.zeros((len(states), len(states)))
    for i, j, coupling, g, d in bonds:
        aligned = spins[:, i - 1] * spins[:, j - 1]
        diagonal += coupling * d * aligned
        ham[lookup[states ^ ((1 << (n_sites - i)) | (1 << (n_sites - j)))], columns] += \
            coupling * np.where(aligned > 0, g, 1.0)
    ham[columns, columns] += diagonal
    return ham


@pytest.mark.parametrize("space", ["full space", "parity sector"])
@pytest.mark.parametrize("mask", list(_MASKS))
@pytest.mark.parametrize("n_rungs", [2, 3, 4, 5])
def test_stacked_builds_are_bitwise_the_per_ladder_builds(n_rungs, mask, space):
    """A list of ladders gives the stack of their one-ladder builds, bit for bit, and both are the loop reference's.

    Heatmap cells vary g and d, disorder realizations the bond factors; a
    field of 0.1 makes the order of the diagonal sums show in the last bit.
    """
    base = LadderParams(n_rungs=n_rungs, h=0.1, field_mask=_MASKS[mask](n_rungs))
    basis = parity_sector(build_initial_state("phi_plus", base)) if space == "parity sector" else None
    side = 2 if n_rungs == 5 else 3
    cells = [replace(base, g=float(g), d=float(d))
             for g in np.linspace(-0.3, 1.0, side) for d in np.linspace(0.0, 0.9, side)]
    reals = [disorder_realization(0.2, 3, k, n_rungs) for k in range(side)]
    rung_factors, leg_factors = [1.0 + r.rung_deltas for r in reals], [1.0 + r.leg_deltas for r in reals]
    stacks = {
        "cells": (build_hamiltonian(cells, basis=basis),
                  [build_hamiltonian(cell, basis=basis) for cell in cells]),
        "disorder": (build_hamiltonian([base] * len(reals), rung_factors, leg_factors, basis=basis),
                     [build_hamiltonian(base, r, l, basis=basis) for r, l in zip(rung_factors, leg_factors)]),
        "one": (build_hamiltonian([cells[-1]], basis=basis), [build_hamiltonian(cells[-1], basis=basis)]),
    }
    loop = {"cells": [_loop_builder(base.n_sites, *ladder_terms(cell), basis) for cell in cells],
            "disorder": [_loop_builder(base.n_sites, *ladder_terms(base, r, l), basis)
                         for r, l in zip(rung_factors, leg_factors)],
            "one": [_loop_builder(base.n_sites, *ladder_terms(cells[-1]), basis)]}
    for name, (stack, alone) in stacks.items():
        assert stack.shape == (len(alone),) + alone[0].shape, name
        assert stack.tobytes() == np.stack(alone).tobytes() == np.stack(loop[name]).tobytes(), name


@pytest.mark.parametrize("ladders", [
    [LadderParams(n_rungs=3), LadderParams(n_rungs=4)],
    [LadderParams(), LadderParams(field_mask=uniform_mask(3))],
], ids=["n_rungs", "field mask"])
def test_a_stack_of_unlike_ladders_is_refused_before_any_build(monkeypatch, ladders):
    def refuse(*args, **kwargs):
        raise AssertionError("a stack of unlike ladders reached the builder")
    monkeypatch.setattr("spinladder.lattice.bond_hamiltonian", refuse)
    with pytest.raises(InvalidArgumentError, match="must share n_rungs and field mask"):
        build_hamiltonian(ladders)
    psi = build_initial_state("phi_plus", ladders[0])
    basis = parity_sector(psi)
    with pytest.raises(InvalidArgumentError, match="must share n_rungs and field mask"):
        symmetry_blocks(ladders, basis, psi[basis])


def test_a_stack_of_term_sets_must_share_its_sites():
    bond = (1, 2, 1.0, 1.0, 0.5)
    for terms in ([([bond], {}), ([bond], {1: 1.0})], [([bond], {}), ([(2, 1) + bond[2:]], {})], []):
        with pytest.raises(InvalidArgumentError, match="must share its bond and field sites"):
            bond_hamiltonian(2, terms)


# ----------------------------------------------------------- symmetry blocks

def _sector_blocks(params, kind, rung_factors=None, leg_factors=None):
    psi = build_initial_state(kind, params)
    basis = parity_sector(psi)
    ham = build_hamiltonian(params, rung_factors, leg_factors, basis=basis)
    return ham, basis, psi[basis], symmetry_blocks(params, basis, psi[basis], rung_factors, leg_factors)


def _site_images(basis, n_rungs):
    """Row images of the leg swap and the mirror on a basis, found by bit loops."""
    position = {int(state): row for row, state in enumerate(basis)}
    n_sites = 2 * n_rungs
    leg_swap = {site: site + 1 if site % 2 else site - 1 for site in range(1, n_sites + 1)}
    # site 2n-1 (top leg) or 2n (bottom leg) of rung n goes to the same leg of rung N+1-n
    mirror = {site: 2 * (n_rungs + 1 - (site + 1) // 2) - site % 2 for site in range(1, n_sites + 1)}
    images = []
    for site_map in (leg_swap, mirror):
        image = []
        for state in basis:
            bits = {site: (int(state) >> (n_sites - site)) & 1 for site in range(1, n_sites + 1)}
            image.append(position[sum(bit << (n_sites - site_map[site]) for site, bit in bits.items())])
        images.append(np.array(image))
    return images


def _held_maps(ham, images):
    """Which of the leg swap (0) and the mirror (1) permute H onto itself."""
    return tuple(k for k, image in enumerate(images)
                 if np.abs(ham[np.ix_(image, image)] - ham).max() <= 1e-12 * max(1.0, np.abs(ham).max()))


def _character(u, images):
    """The signs s with u[image] == s u exactly, one per image; each must be +1 or -1, not both."""
    signs = [[s for s in (1.0, -1.0) if np.array_equal(u[image], s * u)] for image in images]
    assert u.size and all(len(fits) == 1 for fits in signs)
    return tuple(fits[0] for fits in signs)


@given(ladders(), st.sampled_from(INITIAL_STATE_KINDS), st.booleans())
def test_symmetry_blocks_are_orthonormal_invariant_and_hold_the_state(ladder, kind, clean):
    """Every character's U is orthonormal and spans an invariant subspace of H; the kept ones hold psi.

    The blocks of all characters of the held maps' group are orthogonal to
    each other and complete, and each one's character is read off how the
    held maps permute its rows. symmetry_blocks keeps exactly those with
    nonzero weight of the state, so the ones it drops carry none; with no
    map held it returns None, one block of every state. The maps are held
    by the exact test on the ladder's terms, and each of them also permutes
    H onto itself within round-off (the oracle _held_maps). The converse
    does not hold: with j_parallel = 1.65e-288 on one bottom-leg bond and
    no other term, H is symmetric within 1e-12 under both maps, but the
    terms are not. A clean ladder (no bond factors) keeps the leg swap, and the
    mirror exactly when its mask is mirror-symmetric or its field is 0. A
    stack of the ladder and its clean copy uses only the maps both hold.
    """
    params, rung_factors, leg_factors = ladder
    if clean:
        rung_factors = leg_factors = None
    ham, basis, amplitudes, blocks = _sector_blocks(params, kind, rung_factors, leg_factors)
    images = _site_images(basis, params.n_rungs)
    held = _held_site_maps(*ladder_terms(params, rung_factors, leg_factors), params.n_rungs)
    assert set(held) <= set(_held_maps(ham, images))
    assert (blocks is None) == (held == ())
    if clean:
        mirrored = {params.n_rungs + 1 - rung for rung in params.field_mask}
        assert held == ((0, 1) if mirrored == params.field_mask or params.h == 0 else (0,))
    every = _character_blocks(params.n_rungs, basis.tobytes(), held)
    assert [_character(u, [images[k] for k in held]) for u in every if u.size] == \
        [chi for chi, u in zip(product((1.0, -1.0), repeat=len(held)), every) if u.size]
    whole = np.hstack(every)
    assert whole.shape == (len(basis), len(basis))
    assert np.abs(whole.T @ whole - np.eye(len(basis))).max() <= 1e-14
    scale = max(1.0, np.abs(ham).max())
    kept = [np.eye(len(basis))] if blocks is None else blocks
    weights = [np.linalg.norm(u.T @ amplitudes) for u in every]
    weighted = [u for u, weight in zip(every, weights) if weight > 1e-15]
    assert all(weight > 1e-3 for weight in weights if weight > 1e-15)  # the inputs are few exact amplitudes
    assert len(kept) == len(weighted) and all(np.array_equal(u, k) for u, k in zip(weighted, kept))
    for u in every:
        if u.size:
            assert np.abs(ham @ u - u @ (u.T @ ham @ u)).max() <= 1e-12 * scale
    inside = sum(u @ (u.T @ amplitudes) for u in kept)
    assert np.abs(inside - amplitudes).max() <= 1e-15
    both = tuple(k for k in held if k in _held_site_maps(*ladder_terms(params), params.n_rungs))
    stacked = symmetry_blocks([params] * 2, basis, amplitudes, [rung_factors, None], [leg_factors, None])
    assert (stacked is None) == (both == ())
    if both:
        want = [u for u in _character_blocks(params.n_rungs, basis.tobytes(), both)
                if np.linalg.norm(u.T @ amplitudes) > 1e-15]
        assert len(stacked) == len(want) and all(np.array_equal(u, w) for u, w in zip(stacked, want))


def _disordered(delta, n_rungs):
    real = disorder_realization(delta, 42, 0, n_rungs)
    return LadderParams(n_rungs=n_rungs), 1.0 + real.rung_deltas, 1.0 + real.leg_deltas


@pytest.mark.parametrize("ladder, expected", [
    *[((LadderParams(n_rungs=n), None, None), (0, 1)) for n in (2, 3, 4, 5)],
    ((LadderParams(g=0.0, d=0.0), None, None), (0, 1)),
    ((LadderParams(n_rungs=4, field_mask=frozenset({2})), None, None), (0,)),
    ((LadderParams(field_mask=uniform_mask(3)), None, None), (0, 1)),
    ((LadderParams(n_rungs=4, h=0.0, field_mask=frozenset({2})), None, None), (0, 1)),
    (_disordered(0.0, 3), (0, 1)),
    (_disordered(0.1, 3), ()),
    (_disordered(0.1, 4), ()),
    ((LadderParams(), None, [0.0 if i % 2 else 1.0 for i, _ in leg_bonds(3)]), (1,)),
], ids=["clean N=2", "clean N=3", "clean N=4", "clean N=5", "g=d=0", "mask {2} at N=4", "uniform mask",
        "h=0 with mask {2}", "disorder delta=0", "disorder delta=0.1", "disorder delta=0.1 at N=4", "one leg"])
def test_term_test_holds_the_maps_that_permute_h(ladder, expected):
    """On every ladder the CLI, the goldens and the benchmark reach, the terms hold the same maps as H does."""
    params, rung_factors, leg_factors = ladder
    basis = parity_sector(build_initial_state("phi_plus", params))
    ham = build_hamiltonian(params, rung_factors, leg_factors, basis=basis)
    held = _held_site_maps(*ladder_terms(params, rung_factors, leg_factors), params.n_rungs)
    assert held == _held_maps(ham, _site_images(basis, params.n_rungs)) == expected


def test_basis_a_held_map_leads_out_of_is_refused():
    """On one rung the leg swap is held and sends |01> to |10>, which a basis of |01> alone lacks."""
    with pytest.raises(InvalidArgumentError, match="held site maps"):
        symmetry_blocks(LadderParams(n_rungs=1), np.array([0b01]), np.array([1.0]))


def test_clean_phi_plus_blocks_are_the_two_leg_even_ones():
    """phi_plus at N = 5 fills the leg-even blocks, 152 mirror-even and 120 mirror-odd states."""
    _, basis, _, blocks = _sector_blocks(LadderParams(n_rungs=5), "phi_plus")
    assert len(basis) == 512
    assert [u.shape[1] for u in blocks] == [152, 120]
    # characters (chi(leg swap), chi(mirror))
    images = _site_images(basis, 5)
    assert [_character(u, images) for u in blocks] == [(1, 1), (1, -1)]


def test_field_mask_off_mirror_breaks_the_mirror_only():
    """A field on rung 2 alone at N = 4 keeps the leg swap; phi_plus stays in one 72-state leg-even block."""
    params = LadderParams(n_rungs=4, field_mask=frozenset({2}))
    _, basis, _, blocks = _sector_blocks(params, "phi_plus")
    leg_swap, mirror = _site_images(basis, 4)
    [u] = blocks
    assert u.shape[1] == 72 and _character(u, [leg_swap]) == (1,)
    assert not any(np.array_equal(u[mirror], s * u) for s in (1.0, -1.0))
    _, _, _, clean = _sector_blocks(LadderParams(n_rungs=4), "phi_plus")
    assert [_character(u, [leg_swap, mirror])[0] for u in clean] == [1, 1]
    assert sum(u.shape[1] for u in clean) == 72


def test_mixed_parity_input_keeps_both_leg_irreps():
    """(phi_plus + psi_minus)/sqrt(2): phi_plus is leg-even, psi_minus leg-odd; nothing is dropped."""
    _, basis, _, blocks = _sector_blocks(LadderParams(), "psi_minus_plus_phi_plus")
    assert len(basis) == 64
    characters = [_character(u, _site_images(basis, 3)) for u in blocks]
    assert {leg for leg, _ in characters} == {1.0, -1.0}
    assert sum(u.shape[1] for u in blocks) == 64


# ------------------------------------------------------------ initial states

def test_initial_state_kinds_complete():
    assert set(INITIAL_STATE_KINDS) == {
        "phi_plus", "psi_plus", "psi_minus_plus_phi_plus", "separable_zero_zero"}


def test_phi_plus_components():
    p = LadderParams()
    psi = build_initial_state("phi_plus", p)
    s2 = 1.0 / math.sqrt(2.0)
    assert psi[0] == s2
    assert psi[0b11 << 4] == s2
    assert np.count_nonzero(psi) == 2


def test_psi_plus_two_rungs():
    psi = build_initial_state("psi_plus", LadderParams(n_rungs=2))
    s2 = 1.0 / math.sqrt(2.0)
    assert psi[4] == s2 and psi[8] == s2
    assert np.count_nonzero(psi) == 2


def test_superposition_state():
    psi = build_initial_state("psi_minus_plus_phi_plus", LadderParams())
    nonzero = np.flatnonzero(psi)
    assert list(nonzero) == [0, 0b01 << 4, 0b10 << 4, 0b11 << 4]
    assert psi[0b10 << 4] == -0.5


def test_separable_state():
    psi = build_initial_state("separable_zero_zero", LadderParams())
    assert psi[0] == 1.0 and np.count_nonzero(psi) == 1


@pytest.mark.parametrize("kind", INITIAL_STATE_KINDS)
def test_initial_states_normalized(kind):
    psi = build_initial_state(kind, LadderParams(n_rungs=4))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_unknown_state_kind():
    with pytest.raises(InvalidArgumentError):
        build_initial_state("bell", LadderParams())


# ---------------------------------------------------------------- dressed gap

@pytest.mark.parametrize("d,expected", [
    (0.0, 2.0),
    (0.1, 2.0 * math.sqrt(1.0 + 0.04)),
    (0.5, 2.0 * math.sqrt(2.0)),
    (1.0, 2.0 * math.sqrt(5.0)),
])
def test_dressed_gap_values(d, expected):
    assert dressed_gap(LadderParams(d=d)) == pytest.approx(expected, rel=1e-12)


def test_dressed_gap_uses_both_couplings():
    # bare splitting from the rung bond, sz dressing from the leg bond
    p = LadderParams(j_perp=2.0, j_parallel=3.0, g=1.0, d=0.5)
    assert dressed_gap(p) == pytest.approx(2.0 * math.sqrt(4.0 + 9.0), rel=1e-12)
