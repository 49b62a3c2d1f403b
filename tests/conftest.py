"""Shared fixtures, random-state helpers and dense operator oracles for the test suite."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import settings

from spinladder.errors import InvalidArgumentError
from spinladder.lattice import SY, leg_bonds

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def haar_state(rng, dim):
    """Uniformly random pure state of the given dimension."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, dim):
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, dim, rank=None):
    """Random mixed state as a uniform mixture of Haar pure states."""
    rank = dim if rank is None else rank
    rho = np.zeros((dim, dim), dtype=complex)
    for _ in range(rank):
        psi = haar_state(rng, dim)
        rho += np.outer(psi, psi.conj())
    return rho / rank


# Pauli matrices in the package's spin-down-first basis (see spinladder.lattice).
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
_PAULI = {"x": SX, "y": SY, "z": SZ}


def pauli_string(axes, sites, n_sites):
    """Operator acting with the given Paulis on the given sites, identity elsewhere.

    Site 1 is the most significant tensor factor: pauli_string(["z"], [1], 2)
    returns diag(-1, -1, +1, +1) because |0> carries sigma_z eigenvalue -1.
    """
    if len(axes) != len(sites):
        raise InvalidArgumentError(f"{len(axes)} axes for {len(sites)} sites")
    if len(set(sites)) != len(sites):
        raise InvalidArgumentError(f"duplicate sites in {sites}")
    factors = [ID2] * n_sites
    for axis, site in zip(axes, sites):
        if axis not in _PAULI:
            raise InvalidArgumentError(f"unknown Pauli axis {axis!r}")
        if not 1 <= site <= n_sites:
            raise InvalidArgumentError(f"site {site} outside 1..{n_sites}")
        factors[site - 1] = _PAULI[axis]
    return reduce(np.kron, factors)


def pauli_hamiltonian(params, rung_factors=None, leg_factors=None):
    """Full-space ladder Hamiltonian summed from dense pauli_string products.

    The oracle for lattice.build_hamiltonian, which works from bit operations
    instead: every bond is J [(1+g)/2 xx + (1-g)/2 yy + d zz], every masked
    rung adds h z on both of its sites.
    """
    n = params.n_sites
    rung_factors = np.ones(params.n_rungs) if rung_factors is None else rung_factors
    leg_factors = np.ones(2 * (params.n_rungs - 1)) if leg_factors is None else leg_factors
    bonds = [(2 * r - 1, 2 * r, params.j_perp * rung_factors[r - 1])
             for r in range(1, params.n_rungs + 1)]
    bonds += [(i, j, params.j_parallel * leg_factors[k])
              for k, (i, j) in enumerate(leg_bonds(params.n_rungs))]
    ham = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i, j, coupling in bonds:
        ham += coupling * (0.5 * (1 + params.g) * pauli_string("xx", [i, j], n)
                           + 0.5 * (1 - params.g) * pauli_string("yy", [i, j], n)
                           + params.d * pauli_string("zz", [i, j], n))
    for rung in params.field_mask:
        ham += params.h * (pauli_string("z", [2 * rung - 1], n) + pauli_string("z", [2 * rung], n))
    return ham
