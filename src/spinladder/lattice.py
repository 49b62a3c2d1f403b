"""Two-leg spin-1/2 ladder: geometry, Hamiltonian assembly, initial states.

Conventions, fixed once and used everywhere:

* Rung n occupies sites (2n-1, 2n), 1-based. Odd sites form the top leg,
  even sites the bottom leg.
* Site 1 is the most significant tensor factor, so the computational basis
  index of |b1 b2 ... bn> is the integer with bit b1 in front.
* |0> is spin-down with sigma_z |0> = -|0>. A positive field h therefore
  makes the all-down configuration the field ground state on the masked
  rungs, which is what "freezing" the mediating rungs relies on.

Each ladder bond (i, j) carries

    J * [ (1+g)/2 sx_i sx_j + (1-g)/2 sy_i sy_j + d sz_i sz_j ]

with J = j_perp on rungs and J = j_parallel on both legs. The selective
field adds h * sz on every site of every rung in the field mask.

That Hamiltonian is real, and it conserves the parity of the number of up
spins: the sx sx and sy sy terms flip spins in pairs and the rest is
diagonal. build_hamiltonian therefore assembles a real matrix directly from
bit operations on basis indices, and usually only on the parity sector of
the initial state (parity_sector).

Two site permutations can be symmetries too: the leg swap (2n-1 <-> 2n on
every rung) and the mirror (rung n <-> rung N+1-n). A clean ladder with a
mirror-symmetric field mask commutes with both; disorder breaks both, and
the one-leg variant breaks the leg swap. symmetry_blocks tests each on the
built matrix and splits the state space into the blocks of the group the
held ones generate, each a dense orthonormal matrix U whose columns are
symmetrized basis states, and keeps only the blocks the initial state
occupies: phi_plus is leg-even and fills the two leg-even blocks, 152 + 120
of its 512 sector states at five rungs. With neither map held there are no
blocks to split, and the sector is solved whole.

_site_code is the one decoder of that site-to-bit layout: the partial
trace (metrics) and the site-map images here both read sites through it.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
import math

import numpy as np

from .errors import InvalidArgumentError
from .evolution import MATRIX_TOL, SECTOR_LEAK_TOL

# Pauli y in the spin-down-first basis, where sigma_z is diag(-1, +1) so that
# |0> (down) has eigenvalue -1; its sign keeps sx @ sy = i sz. Only sy (x) sy
# products enter the Hamiltonian and the concurrence, which are insensitive
# to the sign of SY.
SY = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)

INITIAL_STATE_KINDS = (
    "phi_plus",
    "psi_plus",
    "psi_minus_plus_phi_plus",
    "separable_zero_zero",
)

#: Largest ladder the dense builder and eigensolver take (2^10 = 1024 states;
#: the builder keeps one parity sector, 512, and on a clean ladder the
#: eigensolver sees only the symmetry blocks the input occupies, at most 152).
MAX_DENSE_RUNGS = 5


def mediating_mask(n_rungs):
    """Rungs 2 .. N-1, the default recipients of the selective field."""
    return frozenset(range(2, n_rungs))


def uniform_mask(n_rungs):
    """All rungs; used for the uniform-field variant."""
    return frozenset(range(1, n_rungs + 1))


@dataclass(frozen=True)
class LadderParams:
    """Full physical specification of one simulation instance.

    field_mask defaults to the mediating rungs {2, ..., N-1} (empty for
    N <= 2). n_rungs >= 1 is accepted so that single-rung spectra can be
    inspected with the same machinery, although a ladder proper needs
    n_rungs >= 2.
    """

    n_rungs: int = 3
    j_perp: float = 1.0
    j_parallel: float = 1.0
    g: float = 1.0
    d: float = 0.5
    h: float = 100.0
    field_mask: frozenset = field(default=None)

    def __post_init__(self):
        if not isinstance(self.n_rungs, (int, np.integer)) or self.n_rungs < 1:
            raise InvalidArgumentError(f"n_rungs must be an integer >= 1, got {self.n_rungs!r}")
        for name in ("j_perp", "j_parallel", "g", "d", "h"):
            value = getattr(self, name)
            if not math.isfinite(float(value)):
                raise InvalidArgumentError(f"{name} must be a finite real, got {value!r}")
        mask = self.field_mask
        if mask is None:
            mask = mediating_mask(self.n_rungs)
        mask = frozenset(int(r) for r in mask)
        if not all(1 <= r <= self.n_rungs for r in mask):
            raise InvalidArgumentError(f"field_mask {sorted(mask)} outside rungs 1..{self.n_rungs}")
        object.__setattr__(self, "field_mask", mask)

    @property
    def n_sites(self):
        return 2 * self.n_rungs

    @property
    def dim(self):
        return 4 ** self.n_rungs

    def replace(self, **changes):
        """Return a copy with the given fields replaced.

        Unlike dataclasses.replace, resets field_mask to the mediating
        default when n_rungs changes and no new mask is given, so that
        resizing a reference parameter set stays consistent.
        """
        if "n_rungs" in changes and "field_mask" not in changes:
            changes["field_mask"] = None
        return replace(self, **changes)


def leg_bonds(n_rungs):
    """Leg bond list, top bonds first: (1,3), (3,5), ... then (2,4), (4,6), ...

    The ordering is part of the disorder contract: leg delta k applies to
    the k-th bond of this list.
    """
    top = [(2 * n - 1, 2 * n + 1) for n in range(1, n_rungs)]
    bottom = [(2 * n, 2 * n + 2) for n in range(1, n_rungs)]
    return top + bottom


def parity_sector(psi):
    """Basis indices of the spin-flip parity sector that holds psi, ascending.

    Every ladder bond flips spins in pairs and the field is diagonal, so the
    parity of the number of up spins is conserved. A psi with support in
    both parities gets all 2^n states.
    """
    psi = np.asarray(psi)
    parity = np.zeros(1, dtype=np.int64)
    while len(parity) < len(psi):  # k + 2^m has the opposite parity of k < 2^m
        parity = np.concatenate([parity, 1 - parity])
    parity = parity[:len(psi)]
    held = np.bincount(parity[psi != 0], minlength=2) > 0
    if not held.any():
        raise InvalidArgumentError("state has no support")
    return np.flatnonzero(held[parity])


def symmetry_blocks(ham, basis, amplitudes, n_rungs):
    """The symmetry blocks of ham that the amplitudes occupy, as orthonormal maps for evolution.diagonalize.

    ham is a ladder Hamiltonian on basis (ascending full-space states) and
    amplitudes a state in the same coordinates. Of the two site maps, the
    leg swap and the mirror, each one whose permutation of the basis maps
    ham onto itself (within evolution.MATRIX_TOL) is held; one that does
    not, or that leads out of the basis, is not. With no map held the
    result is None: ham is one block. Otherwise each character of the group
    the held maps generate gives a block, a read-only orthonormal real
    matrix U of shape (len(basis), k) whose columns span an invariant
    subspace of ham (_character_blocks). A block is kept only when
    |U^T amplitudes| is above round-off, so that the blocks dropped leak
    less than evolution.SECTOR_LEAK_TOL of the state together, the weight
    evolution refuses to lose. Everything but the test of ham and the
    weights depends only on (n_rungs, basis) and is cached.
    """
    key = np.asarray(basis, dtype=np.int64).tobytes()
    scale = MATRIX_TOL * max(np.abs(ham).max(), 1.0)
    held = []
    for k, image in enumerate(_site_map_images(n_rungs, key)):
        if image is not None:
            permuted = ham[image[:, None], image]
            permuted -= ham
            if np.abs(permuted, out=permuted).max() <= scale:
                held.append(k)
    if not held:
        return None
    blocks = _character_blocks(n_rungs, key, tuple(held))
    floor = SECTOR_LEAK_TOL / len(blocks)  # the blocks dropped leak less than SECTOR_LEAK_TOL together
    return [u for u in blocks if np.linalg.norm(u.T @ amplitudes) > floor]


@lru_cache(maxsize=16)
def _site_map_images(n_rungs, basis_key):
    """Row images of the leg swap and the mirror on a basis, given as its int64 bytes.

    A site map sends site k to map[k - 1]: the leg swap 2n-1 <-> 2n, the
    mirror rung n to rung N+1-n on the same leg. Both are involutions, so
    reading the bits of sites map[0], map[1], ... as a basis index gives the
    image of each state. A map that leads out of the basis has the image
    None.
    """
    basis, n_sites = np.frombuffer(basis_key, dtype=np.int64), 2 * n_rungs
    sites = np.arange(1, n_sites + 1)
    rung_shift = 2 * (n_rungs + 1 - 2 * ((sites + 1) // 2))
    lookup = np.full(2 ** n_sites, -1)
    lookup[basis] = np.arange(len(basis))
    images = [lookup[_site_code(basis, site_map, n_sites)]
              for site_map in (sites + np.where(sites % 2, 1, -1), sites + rung_shift)]
    return tuple(image if (image >= 0).all() else None for image in images)


@lru_cache(maxsize=16)
def _character_blocks(n_rungs, basis_key, held):
    """Orthonormal maps U of every character of the group the held site maps generate, read-only.

    The held maps are commuting involutions P_i, so prod_i (1 + chi_i P_i)
    applied to the unit column of an orbit's representative (its smallest
    row) gives sum_g chi(g) e_{g r}. That column is 0, and dropped, when chi
    is not 1 on the orbit's stabilizer; the others are normalized. One
    block per sign choice chi, in the order of itertools.product.
    """
    images = [_site_map_images(n_rungs, basis_key)[k] for k in held]
    smallest = np.arange(len(basis_key) // 8)
    for image in images:
        smallest = np.minimum(smallest, smallest[image])  # the smallest row of each orbit
    reps = np.flatnonzero(smallest == np.arange(len(smallest)))
    blocks = []
    for signs in product((1.0, -1.0), repeat=len(held)):
        u = np.zeros((len(smallest), len(reps)))
        u[reps, np.arange(len(reps))] = 1.0
        for sign, image in zip(signs, images):
            u += sign * u[image]
        norms = np.linalg.norm(u, axis=0)
        u = u[:, norms > 0] / norms[norms > 0]
        u.flags.writeable = False
        blocks.append(u)
    return tuple(blocks)


def _site_code(rows, sites, n_sites):
    """The bits of the given sites in each basis index, as an integer with the first site in front."""
    bits = (rows[:, None] >> (n_sites - np.asarray(sites, dtype=np.int64))) & 1
    return bits @ (1 << np.arange(len(sites), dtype=np.int64)[::-1])


def bond_hamiltonian(n_sites, bonds, site_fields, basis=None):
    """Real Hamiltonian of XYZ bonds plus sz fields, restricted to a basis.

    bonds holds (i, j, coupling, g, d) tuples, each adding
    coupling * [(1+g)/2 sx_i sx_j + (1-g)/2 sy_i sy_j + d sz_i sz_j];
    site_fields maps a site to the coefficient of its sz. Built with bit
    operations on the basis indices: a bond adds coupling * d * s_i * s_j on
    the diagonal and, after flipping both bits, coupling * g where the two
    bits were equal and coupling where they differed. basis lists the
    computational basis states kept, ascending (None: all 2^n_sites); it must
    be closed under pair flips, as a parity sector is.
    """
    states = np.arange(2 ** n_sites) if basis is None else np.asarray(basis, dtype=np.int64)
    dim = len(states)
    columns = np.arange(dim)
    lookup = np.full(2 ** n_sites, -1)
    lookup[states] = columns
    # spins[:, k - 1] is the sz eigenvalue of site k: -1 for |0>, +1 for |1>.
    spins = 2 * ((states[:, None] >> (n_sites - 1 - np.arange(n_sites))) & 1) - 1
    diagonal = np.zeros(dim)
    for site, coefficient in site_fields.items():
        diagonal += coefficient * spins[:, site - 1]
    ham = np.zeros((dim, dim))
    for i, j, coupling, g, d in bonds:
        aligned = spins[:, i - 1] * spins[:, j - 1]
        diagonal += coupling * d * aligned
        rows = lookup[states ^ ((1 << (n_sites - i)) | (1 << (n_sites - j)))]
        if (rows < 0).any():
            raise InvalidArgumentError(f"basis is not closed under the pair flip of bond ({i}, {j})")
        ham[rows, columns] += coupling * np.where(aligned > 0, g, 1.0)
    ham[columns, columns] += diagonal
    return ham


def build_hamiltonian(params, rung_factors=None, leg_factors=None, basis=None):
    """Real Hamiltonian for the ladder described by params, on basis (None: all states).

    Both legs carry the same coupling j_parallel. rung_factors / leg_factors
    optionally scale each bond coupling, in the order of rungs 1..N and of
    leg_bonds(N); the disorder ensemble passes (1 + delta_k) here, and a
    factor of 0 drops a bond. The field term is never scaled. basis is
    usually parity_sector(psi0), the only block psi0 ever reaches.
    """
    rung_factors = np.ones(params.n_rungs) if rung_factors is None else np.asarray(rung_factors, dtype=float)
    n_leg = 2 * (params.n_rungs - 1)
    leg_factors = np.ones(n_leg) if leg_factors is None else np.asarray(leg_factors, dtype=float)
    if rung_factors.shape != (params.n_rungs,):
        raise InvalidArgumentError(f"need {params.n_rungs} rung factors, got {rung_factors.shape}")
    if leg_factors.shape != (n_leg,):
        raise InvalidArgumentError(f"need {n_leg} leg factors, got {leg_factors.shape}")

    g, d = params.g, params.d
    bonds = [(2 * rung - 1, 2 * rung, params.j_perp * rung_factors[rung - 1], g, d)
             for rung in range(1, params.n_rungs + 1)]
    bonds += [(i, j, params.j_parallel * leg_factors[k], g, d)
              for k, (i, j) in enumerate(leg_bonds(params.n_rungs))]
    fields = {site: params.h for rung in params.field_mask for site in (2 * rung - 1, 2 * rung)}
    return bond_hamiltonian(params.n_sites, bonds, fields, basis)


def build_initial_state(kind, params):
    """State vector with the requested two-qubit state on rung 1, all other sites |0>.

    Kinds: "phi_plus", "psi_plus", "psi_minus_plus_phi_plus" (the normalized
    sum of those two Bell states), "separable_zero_zero".
    """
    if kind not in INITIAL_STATE_KINDS:
        raise InvalidArgumentError(f"unknown initial state kind {kind!r}; expected one of {INITIAL_STATE_KINDS}")
    shift = 2 * params.n_rungs - 2
    psi = np.zeros(params.dim, dtype=complex)
    s2 = 1.0 / np.sqrt(2.0)
    if kind == "phi_plus":
        psi[0b00 << shift] = s2
        psi[0b11 << shift] = s2
    elif kind == "psi_plus":
        psi[0b01 << shift] = s2
        psi[0b10 << shift] = s2
    elif kind == "psi_minus_plus_phi_plus":
        psi[0b00 << shift] = 0.5
        psi[0b11 << shift] = 0.5
        psi[0b01 << shift] = 0.5
        psi[0b10 << shift] = -0.5
    else:
        psi[0] = 1.0
    return psi


def dressed_gap(params):
    """Carrier angular frequency of a field-dressed rung.

    A terminal rung adjacent to a frozen mediating rung sees, besides its own
    rung bond, a static sz field -d*j_parallel per site from the Ising part
    of the leg bonds (the mediator sits in |00> with sz eigenvalue -1 per
    site). In the {|00>, |11>} block this turns the bare splitting
    2*g*j_perp into

        omega = 2 * sqrt(g^2 j_perp^2 + 4 d^2 j_parallel^2)

    which reduces to 2*sqrt(g^2 + 4 d^2)*J for equal couplings and is the
    fast carrier seen in the terminal concurrence.
    """
    return 2.0 * math.sqrt(
        (params.g * params.j_perp) ** 2 + 4.0 * (params.d * params.j_parallel) ** 2
    )
