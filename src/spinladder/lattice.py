"""Two-leg spin-1/2 ladder: geometry, Hamiltonian assembly, initial states.

Conventions, fixed once and used everywhere:

* Rung n occupies sites (2n-1, 2n), 1-based (rung_pairs). Odd sites form
  the top leg, even sites the bottom leg (leg_bonds).
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
diagonal (_parity, which parity_sector and the entropies of metrics read).
build_hamiltonian therefore assembles a real matrix directly from bit
operations on basis indices, and usually only on the parity sector of the
initial state (parity_sector). It builds a list of ladders that share
n_rungs and field mask, such as heatmap cells or disorder realizations, as
one (K, dim, dim) stack in a single bond_hamiltonian pass, each H bitwise
the one its ladder gets alone. build_hamiltonian and symmetry_blocks take
one ladder or such a list the same way (_ladder_stack).

Two site permutations can be symmetries too: the leg swap (2n-1 <-> 2n on
every rung) and the mirror (rung n <-> rung N+1-n). A clean ladder with a
mirror-symmetric field mask commutes with both; disorder breaks both, and
the one-leg variant breaks the leg swap. _site_maps holds both maps, and
the leg-swap folding of metrics reads its leg swap. symmetry_blocks holds a
map when it sends every ladder's terms (ladder_terms) onto themselves, with
no H and no tolerance, and splits the state space into the blocks of the
group the held maps generate, each a dense orthonormal matrix U whose
columns are symmetrized basis states, and keeps only the blocks the initial
state occupies: phi_plus is leg-even and fills the two leg-even blocks, 152
+ 120 of its 512 sector states at five rungs. With neither map held there
are no blocks to split, and the sector is solved whole.

_site_code is the one decoder of that site-to-bit layout: the partial
trace (metrics) and the site-map images here both read sites through it.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
import math

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError
from .evolution import SECTOR_LEAK_TOL

_S2 = 1.0 / np.sqrt(2.0)

#: Rung-1 amplitudes of each initial state kind over the pair configurations
#: 00, 01, 10, 11; every other site is |0>. psi_minus_plus_phi_plus is the
#: normalized sum of those two Bell states.
_RUNG1_AMPLITUDES = {
    "phi_plus": (_S2, 0.0, 0.0, _S2),
    "psi_plus": (0.0, _S2, _S2, 0.0),
    "psi_minus_plus_phi_plus": (0.5, 0.5, -0.5, 0.5),
    "separable_zero_zero": (1.0, 0.0, 0.0, 0.0),
}
INITIAL_STATE_KINDS = tuple(_RUNG1_AMPLITUDES)

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


def rung_pairs(n_rungs):
    """Rung sites (2n-1, 2n) for n = 1..N, in rung order."""
    return [(2 * n - 1, 2 * n) for n in range(1, n_rungs + 1)]


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
    parity = _parity(len(psi))
    held = np.bincount(parity[psi != 0], minlength=2) > 0
    if not held.any():
        raise InvalidArgumentError("state has no support")
    return np.flatnonzero(held[parity])


@lru_cache(maxsize=16)
def _parity(dim):
    """The parity of the number of up spins (1 bits) of basis states 0..dim-1, as 0 or 1, read-only."""
    parity = np.zeros(1, dtype=np.int64)
    while len(parity) < dim:  # k + 2^m has the opposite parity of k < 2^m
        parity = np.concatenate([parity, 1 - parity])
    parity = parity[:dim]
    parity.flags.writeable = False
    return parity


def symmetry_blocks(params, basis, amplitudes, rung_factors=None, leg_factors=None):
    """The symmetry blocks of a ladder's H that the amplitudes occupy, as orthonormal maps for evolution.diagonalize.

    The ladder, or a list of ladders, is given as build_hamiltonian takes
    it; basis lists H's ascending full-space states, and amplitudes is a
    state on it. A map is used only when every ladder holds it
    (_held_site_maps), so every block is invariant under each ladder's H.
    With neither the leg swap nor the mirror held the result is None: H is
    one block. Otherwise each character of the held maps' group gives a
    read-only orthonormal real matrix U of shape (len(basis), k) spanning an
    invariant subspace of H (_character_blocks, cached), kept only when
    |U^T amplitudes| is above round-off: the blocks dropped leak less than
    evolution.SECTOR_LEAK_TOL of the state together, the weight evolution
    refuses to lose.
    """
    _, ladder, terms = _ladder_stack(params, rung_factors, leg_factors)
    held = set.intersection(*(set(_held_site_maps(*term, ladder.n_rungs)) for term in terms))
    if not held:
        return None
    blocks = _character_blocks(ladder.n_rungs, np.asarray(basis, dtype=np.int64).tobytes(), tuple(sorted(held)))
    floor = SECTOR_LEAK_TOL / len(blocks)  # the blocks dropped leak less than SECTOR_LEAK_TOL together
    return [u for u in blocks if np.linalg.norm(u.T @ amplitudes) > floor]


def _site_maps(n_rungs):
    """The leg swap (2n-1 <-> 2n) and the mirror (rung n <-> rung N+1-n, same leg), as the images of sites 1..2N."""
    sites = range(1, 2 * n_rungs + 1)
    return ([site + 1 if site % 2 else site - 1 for site in sites],
            [2 * (n_rungs + 1 - (site + 1) // 2) - site % 2 for site in sites])


def _held_site_maps(bonds, site_fields, n_rungs):
    """The site maps (0: leg swap, 1: mirror) that send the nonzero bonds and fields onto themselves.

    A map renames site k to map[k - 1]. The test is exact and O(bonds): a
    held map permutes H onto itself up to the order bond_hamiltonian sums in.
    """
    def terms(to):
        return (sorted((to[i - 1], to[j - 1], c, g, d) if to[i - 1] < to[j - 1] else (to[j - 1], to[i - 1], c, g, d)
                       for i, j, c, g, d in bonds if c),
                sorted((to[site - 1], value) for site, value in site_fields.items() if value))
    own = terms(range(1, 2 * n_rungs + 1))
    return tuple(k for k, site_map in enumerate(_site_maps(n_rungs)) if terms(site_map) == own)


@lru_cache(maxsize=16)
def _character_blocks(n_rungs, basis_key, held):
    """Orthonormal maps U of every character of the group the held site maps generate, read-only.

    basis_key is the basis as its int64 bytes; a basis that a held map
    leads out of is refused. The held maps are commuting involutions P_i, so
    prod_i (1 + chi_i P_i) applied to the unit column of an orbit's
    representative (its smallest row) gives sum_g chi(g) e_{g r}. That
    column is 0, and dropped, when chi is not 1 on the orbit's stabilizer;
    the others are normalized. One block per sign choice chi, in the order
    of itertools.product.
    """
    basis, n_sites = np.frombuffer(basis_key, dtype=np.int64), 2 * n_rungs
    lookup = np.full(2 ** n_sites, -1)
    lookup[basis] = np.arange(len(basis))
    images = [lookup[_site_code(basis, _site_maps(n_rungs)[k], n_sites)] for k in held]  # involutions: P = P^-1
    if any((image < 0).any() for image in images):
        raise InvalidArgumentError("basis is not closed under the held site maps")
    smallest = np.arange(len(basis))
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


def bond_hamiltonian(n_sites, terms, basis=None):
    """Real Hamiltonians of XYZ bonds plus sz fields on a basis, one per term set, as a (K, dim, dim) stack.

    terms lists K (bonds, site_fields) term sets. bonds holds (i, j,
    coupling, g, d) tuples, each adding
    coupling * [(1+g)/2 sx_i sx_j + (1-g)/2 sy_i sy_j + d sz_i sz_j];
    site_fields maps a site to the coefficient of its sz. The K sets must
    share their bond sites (i, j) and their field sites, in order: any other
    stack is refused before any H is built. The basis lookup, the spins and
    each bond's flipped rows are formed once for the stack, and every
    coefficient enters as a length-K array. A bond adds coupling * d * s_i * s_j
    on the diagonal and, after flipping both bits, coupling * g where the two
    bits were equal and coupling where they differed. Each H sums its terms
    in the order of its set, fields on the diagonal first, so it is bitwise
    the H of its set built alone, as a stack of one. basis lists the
    computational basis states kept, ascending (None: all 2^n_sites); it must
    be closed under pair flips, as a parity sector is.
    """
    layouts = {(tuple([bond[:2] for bond in bonds]), tuple(site_fields)) for bonds, site_fields in terms}
    if len(layouts) != 1:
        raise InvalidArgumentError(f"a stack of term sets must share its bond and field sites; "
                                   f"got {len(layouts)} layouts")
    (bond_sites, field_sites), = layouts
    k = len(terms)
    # Each bond's coupling, g and d and each field, as K x 1 columns that broadcast over the states.
    couplings, gs, ds = np.array([[bond[2:] for bond in bonds] for bonds, _ in terms],
                                 dtype=float).reshape(k, -1, 3).T[..., None]
    fields = np.array([list(site_fields.values()) for _, site_fields in terms], dtype=float).reshape(k, -1).T[..., None]
    states = np.arange(2 ** n_sites) if basis is None else np.asarray(basis, dtype=np.int64)
    dim = len(states)
    columns = np.arange(dim)
    lookup = np.full(2 ** n_sites, -1)
    lookup[states] = columns
    # spins[:, k - 1] is the sz eigenvalue of site k: -1 for |0>, +1 for |1>.
    spins = 2 * ((states[:, None] >> (n_sites - 1 - np.arange(n_sites))) & 1) - 1
    diagonal = np.zeros((k, dim))
    for site, coefficient in zip(field_sites, fields):
        diagonal += coefficient * spins[:, site - 1]
    ham = np.zeros((k, dim, dim))
    for (i, j), coupling, g, d in zip(bond_sites, couplings, gs, ds):
        aligned = spins[:, i - 1] * spins[:, j - 1]
        diagonal += coupling * d * aligned
        rows = lookup[states ^ ((1 << (n_sites - i)) | (1 << (n_sites - j)))]
        if (rows < 0).any():
            raise InvalidArgumentError(f"basis is not closed under the pair flip of bond ({i}, {j})")
        ham[:, rows, columns] += coupling * np.where(aligned > 0, g, 1.0)
    ham[:, columns, columns] += diagonal
    return ham


def ladder_terms(params, rung_factors=None, leg_factors=None):
    """The ladder's bonds, as bond_hamiltonian takes them, and its site fields.

    Both legs carry the same coupling j_parallel. rung_factors / leg_factors
    optionally scale each bond coupling, in the order of rungs 1..N and of
    leg_bonds(N); the disorder ensemble passes (1 + delta_k) here, and a
    factor of 0 drops a bond. The field term is never scaled. The fields
    come in ascending site order, so ladders with one mask share their
    field sites in the order a stack needs.
    """
    rung_factors = np.ones(params.n_rungs) if rung_factors is None else np.asarray(rung_factors, dtype=float)
    n_leg = 2 * (params.n_rungs - 1)
    leg_factors = np.ones(n_leg) if leg_factors is None else np.asarray(leg_factors, dtype=float)
    if rung_factors.shape != (params.n_rungs,):
        raise InvalidArgumentError(f"need {params.n_rungs} rung factors, got {rung_factors.shape}")
    if leg_factors.shape != (n_leg,):
        raise InvalidArgumentError(f"need {n_leg} leg factors, got {leg_factors.shape}")

    g, d, rungs = params.g, params.d, rung_pairs(params.n_rungs)
    bonds = [(i, j, params.j_perp * factor, g, d) for (i, j), factor in zip(rungs, rung_factors.tolist())]
    bonds += [(i, j, params.j_parallel * factor, g, d)
              for (i, j), factor in zip(leg_bonds(params.n_rungs), leg_factors.tolist())]
    fields = {site: params.h for rung in sorted(params.field_mask) for site in rungs[rung - 1]}
    # Python floats overflow to inf without a warning. The bound caps every
    # element of H and every partial sum that bond_hamiltonian forms.
    bound = sum(abs(coupling) for _, _, coupling, _, _ in bonds) * (1.0 + abs(g) + abs(d))
    if not bound + sum(map(abs, fields.values())) < math.inf:
        factor = float(max(np.abs(rung_factors).max(initial=1.0), np.abs(leg_factors).max(initial=1.0)))
        scaled = f" with bond factors 1 + delta up to {factor!r}" if factor != 1.0 else ""
        raise NumericFailureError(f"j_perp = {params.j_perp!r}, j_parallel = {params.j_parallel!r}, g = {g!r}, "
                                  f"d = {d!r} and h = {params.h!r}{scaled} give bond and field terms that overflow")
    return bonds, fields


def _ladder_stack(params, rung_factors, leg_factors):
    """(stacked, first ladder, every ladder's ladder_terms) for one ladder, or for a list as build_hamiltonian takes it.

    A list of K ladders takes rung_factors and leg_factors as lists of K
    factor arrays (None: unscaled). The ladders must share n_rungs and
    field mask, and every ladder's terms, with their overflow refusal, are
    formed before any caller builds from them.
    """
    stacked = not isinstance(params, LadderParams)
    if not stacked:
        params, rung_factors, leg_factors = [params], [rung_factors], [leg_factors]
    ladders = list(params)
    shapes = {(ladder.n_rungs, ladder.field_mask) for ladder in ladders}
    if len(shapes) != 1:
        raise InvalidArgumentError(f"a stack of ladders must share n_rungs and field mask; got {len(shapes)} pairs")
    unscaled = [None] * len(ladders)
    terms = [ladder_terms(*args) for args in zip(ladders, unscaled if rung_factors is None else rung_factors,
                                                  unscaled if leg_factors is None else leg_factors, strict=True)]
    return stacked, ladders[0], terms


def build_hamiltonian(params, rung_factors=None, leg_factors=None, basis=None):
    """Real Hamiltonian of ladder_terms(...) on basis (None: all states), usually parity_sector(psi0); a stack for a list.

    A list of K ladders sharing n_rungs and field mask, with rung_factors
    and leg_factors as lists of K factor arrays, gives the (K, dim, dim)
    stack of their Hamiltonians (_ladder_stack), built in one
    bond_hamiltonian pass after every ladder's terms are formed.
    """
    stacked, ladder, terms = _ladder_stack(params, rung_factors, leg_factors)
    ham = bond_hamiltonian(ladder.n_sites, terms, basis)
    return ham if stacked else ham[0]


def build_initial_state(kind, params):
    """State vector with the two-qubit state of kind (one of INITIAL_STATE_KINDS) on rung 1, all other sites |0>."""
    if kind not in INITIAL_STATE_KINDS:
        raise InvalidArgumentError(f"unknown initial state kind {kind!r}; expected one of {INITIAL_STATE_KINDS}")
    psi = np.zeros(params.dim, dtype=complex)
    psi[np.arange(4) << (2 * params.n_rungs - 2)] = _RUNG1_AMPLITUDES[kind]  # rung 1 holds the two leading bits
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
    fast carrier seen in the terminal concurrence. A hypot squares nothing,
    so finite couplings give a finite gap.
    """
    return 2.0 * math.hypot(params.g * params.j_perp, 2.0 * params.d * params.j_parallel)
