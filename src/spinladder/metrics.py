"""Partial trace and scalar entanglement measures.

Entropies and mutual information are in bits.

channel_reader routes each channel of one evolution to its kernel, as set
out below, once per run. Pairs and mutual information read each bitwise-
distinct row of V evolved once (_distinct_rows: rows r and P r are equal
where psi0 keeps the leg swap P), their layouts indexed into those rows.
Fidelity reads A = P V, P from _phi_plus_map, so F comes from the same
arithmetic whatever other channels a run asks for.

The partial trace reads states in the coordinates they were evolved in, a
parity sector's basis or the full space, with nothing scattered back into
the full space first. _layout splits a basis into the blocks of a site
set's rho once per run (two in a parity sector, one in the full space),
_block_sums is the one kernel that reads the states through them, and
_reduced_many scatters its sums into rho. A pair's phi_plus fidelity needs
no rho at all: _phi_plus_map gives the linear map whose images' squared
norm it is.

Entropies follow the same blocks. When every element between the even and
odd kept configurations is exactly 0 across a stack of rhos, as it is for
every rho reduced from a parity sector, the eigenvalues are taken per
block: a 1x1 block (a single site) is its diagonal, a 2x2 block (half of a
pair's X state) has the closed form (a+b)/2 +- hypot((a-b)/2, |c|), and
larger blocks go to eigvalsh. Any other matrix, such as a full-space run's
rho or a non-power-of-two one, takes eigvalsh whole.

The joint rho of two whole rungs is never formed. Its block of a layout is
G G^H, G the (kept x other sites' configurations) slice of the state, and
its nonzero eigenvalues are those of G^H G (the Schmidt decomposition,
Nielsen & Chuang, Thm 2.7). _folded_layout splits each block further where
the states keep the leg swap P bitwise, which after the distinct-row remap
shows as equal row indices of (P a, P m) and (a, m): P commutes with the
block's rho, so the kept side splits into its P-even vectors e_a (a = P a)
and (e_a + e_Pa)/sqrt(2) and its P-odd ones (e_a - e_Pa)/sqrt(2), and the
other side into one column per {m, P m} orbit, the P-odd vectors having no
column where m = P m. A block that fails the test is the same code with
every orbit of size one. _schmidt_many forms each folded G from the state
rows, its Gram G G^H and, where G has fewer columns than rows, G^H G, so
_entropy_many takes the joint entropy from the smaller side of each block;
the two halves' rhos are fixed linear images of the G G^H. At five rungs,
phi_plus gives 6x20, 2x12, 4x16 and 4x16 blocks in place of two 8x32, at
three rungs no block larger than 2x2 on its smaller side.

Concurrence has two routes. Every definite-parity run yields X states: the
only nonzero elements of a pair's rho are the diagonal and the antidiagonal.
For those the Yu-Eberly closed form is exact,

    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))

(Quantum Inf. Comput. 7, 459, 2007). Where a pair's layout is X (_is_x:
every parity sector), every off-X element is exactly 0, and
_x_concurrence_many reads the populations, rho14 and rho23 from the block
sums with no rho, bitwise the rho route's values. Any other stack of rhos
goes through _concurrence_many, which chooses per rho: the closed form
when every off-X element has magnitude at most X_STATE_TOL (a full-space
evolution leaves a ~1e-13 round-off leak there, far below the threshold),
otherwise, as for the pair states of the mixed-parity superposition input,
the Wootters spin-flip construction C = max(0, l1 - l2 - l3 - l4) (PRL 80,
2245, 1998), with l_i the descending singular values of
sqrt(rho) (sy x sy) sqrt(rho)*: the square roots of the eigenvalues of
R = rho (sy x sy) rho* (sy x sy). sqrt(rho) comes from eigh, with negative
round-off eigenvalues clamped to 0. Taking square roots of R's eigenvalues
instead turns their round-off near 0 into errors up to ~3e-8 in C; this
route stays within ~3e-15 of 2|ad - bc| on random pure states. It
amplifies round-off in rho itself, though: on the mixed-parity input at
N = 3 over the reference grid, where 3999 to 4001 of the 4001 points of
each rung pair take this route, a Hermitian perturbation of rho with every
element of magnitude 2.2e-16 (random phases, 16 draws per point) moves C
by up to 5.2e-14, 9.6e-14 and 3.3e-15 on rungs 1, 2 and 3: ~240x, ~430x
and ~15x. The Werner, pure-state and local-unitary oracles in the test
suite pin both routes.
"""

from itertools import combinations

import numpy as np

from .errors import InvalidArgumentError
from .lattice import _parity, _site_code, _site_maps

# Pauli y in the spin-down-first basis, where sigma_z is diag(-1, +1) so that
# |0> (down) has eigenvalue -1; its sign keeps sx @ sy = i sz. The Wootters
# spin flip takes only sy (x) sy, which is insensitive to the sign of SY.
SY = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
_SYSY = np.kron(SY, SY).real  # antidiagonal (-1, 1, 1, -1); real in any sy sign convention

#: Largest off-X element magnitude that the closed-form concurrence treats
#: as round-off; a rho with a larger one takes the Wootters route.
X_STATE_TOL = 1e-10

# Elements outside the diagonal and the antidiagonal of a two-qubit rho.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

_S2 = 1.0 / np.sqrt(2.0)


def channel_reader(decomp, n_sites, n_points, pairs=(), terminal=None, ends=()):
    """(readouts, measure, conc, fid, mi): one evolution's channels over decomp, routed as the module says.

    conc holds each of pairs' concurrence, fid terminal's phi_plus fidelity
    (None without terminal) and mi the "first", "terminal" and "joint" mutual
    informations of ends = (first, terminal). measure(slice, rows) fills a
    slice of them from the rows of the evolved readouts.
    """
    keeps = [pair for pair in pairs if pair not in ends] + [terminal] * bool(terminal)
    layouts = {keep: _layout(decomp.basis, keep, n_sites) for keep in dict.fromkeys(keeps)}
    reduced = [pair for pair in dict.fromkeys(pairs) if pair not in ends and not _is_x(layouts[pair])]
    readouts = [_phi_plus_map(layouts[terminal], len(decomp.basis)) @ decomp.eigenvectors] if terminal else []
    split = 0
    if ends or pairs:
        distinct, inverse = _distinct_rows(decomp.eigenvectors)
        readouts.insert(0, decomp.eigenvectors[distinct])
        split = len(distinct)
        layouts = {keep: (dim, [(configs, inverse[rows]) for configs, rows in blocks])
                   for keep, (dim, blocks) in layouts.items()}
        joint = _folded_layout(decomp.basis, ends[0] + ends[1], n_sites, inverse) if ends else None
    conc = {pair: np.empty(n_points) for pair in pairs}
    fid = np.empty(decomp.eigenvalues.shape[:-1] + (n_points,)) if terminal else None
    mi = {name: np.empty(n_points) for name in ("first", "terminal", "joint") if ends}

    def measure(sl, rows):
        states, amplitudes = rows[..., :split, :], rows[..., split:, :]
        rhos = {pair: _reduced_many(states, layouts[pair]) for pair in reduced}
        if ends:
            sides, halves = _schmidt_many(states, joint)
            rhos.update(zip(ends, halves))
        for pair in pairs:
            conc[pair][sl] = (_concurrence_many(rhos[pair]) if pair in rhos
                              else _x_concurrence_many(states, layouts[pair]))
        if fid is not None:
            parts = amplitudes.view(float)  # real and imaginary parts alternate along a row
            squares = np.einsum("...mt,...mt->...t", parts, parts)
            fid[..., sl] = squares[..., ::2] + squares[..., 1::2]
        if ends:
            entropies = [_entropy_many(rhos[end]) for end in ends]
            for name, end, entropy in zip(("first", "terminal"), ends, entropies):
                mi[name][sl] = sum(map(_entropy_many, _marginals(rhos[end]))) - entropy
            mi["joint"][sl] = entropies[0] + entropies[1] - _entropy_many(sides)

    return readouts, measure, conc, fid, mi


def _distinct_rows(matrix):
    """(distinct, inverse): the first row of each bitwise-distinct row value, in order, and every row's index among them.

    matrix[distinct][inverse] == matrix exactly; a matrix without repeated
    rows gives distinct = arange(len(matrix)).
    """
    matrix = np.ascontiguousarray(matrix)
    keys = matrix.view(np.dtype((np.void, matrix.dtype.itemsize * matrix.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique's sorted keys, by first occurrence
    return first[order], np.argsort(order)[inverse]


def _layout(basis, keep, n_sites):
    """(2^len(keep), blocks): the blocks of the kept sites' rho in the rows of basis, in any order.

    A row splits into the kept sites' configuration a, in keep order, and
    the other sites' configuration m. The a with one support in m form a
    block (configs, rows), rows[i] holding the rows of configs[i] in
    increasing m; rho is exactly 0 between blocks, and supports that overlap
    unequally are refused. A parity sector gives two blocks, the full space one.
    """
    rest = [k for k in range(1, n_sites + 1) if k not in keep]
    a, m = _site_code(basis, keep, n_sites), _site_code(basis, rest, n_sites)
    order = np.argsort(m, kind="stable")
    blocks = {}  # support in m -> (configurations a, their rows in m order)
    for config in range(2 ** len(keep)):
        members = order[a[order] == config]
        if members.size:
            configs, rows = blocks.setdefault(m[members].tobytes(), ([], []))
            configs.append(config)
            rows.append(members)
    if sum(len(rows[0]) for _, rows in blocks.values()) != np.count_nonzero(np.bincount(m)):
        raise InvalidArgumentError(f"basis gives the configurations of sites {list(keep)} overlapping supports")
    return 2 ** len(keep), [(configs, np.array(rows)) for configs, rows in blocks.values()]


def _block_sums(states, layout):
    """Yield (configs, populations, uppers) per block of layout over the state columns, no validation.

    A block's rows are gathered once into a (|block|, |m|, nt) array G. The
    populations are one einsum of squares over G's float view, and uppers
    maps each i < j to the element above the diagonal, sum_m G_i conj(G_j).
    """
    for configs, rows in layout[1]:
        block = states[rows]
        parts = block.view(float)  # real and imaginary parts alternate along a row
        squares = np.einsum("imt,imt->it", parts, parts)
        uppers = {(i, j): (block[i] * block[j].conj()).sum(axis=0)
                  for i, j in combinations(range(len(configs)), 2)}
        yield configs, squares[:, ::2] + squares[:, 1::2], uppers


def _reduced_many(states, layout):
    """Reduced density matrices of a layout's sites, one per complex128 state column, no validation."""
    rho = np.zeros((states.shape[1], layout[0], layout[0]), dtype=complex)
    for configs, pop, uppers in _block_sums(states, layout):
        rho[:, configs, configs] = pop.T
        for (i, j), upper in uppers.items():
            rho[:, configs[i], configs[j]] = upper
            rho[:, configs[j], configs[i]] = upper.conj()
    return rho


def _is_x(layout):
    """Whether a pair's layout gives X states: every block within {00, 11} or within {01, 10}."""
    return all(set(configs) <= {0, 3} or set(configs) <= {1, 2} for configs, _ in layout[1])


def _x_concurrence_many(states, layout):
    """Concurrence of a pair per state column from an X layout's block sums: _concurrence_many's, bitwise."""
    pop, coherence = dict.fromkeys(range(4), 0.0), {0: 0.0, 1: 0.0}
    for configs, squares, uppers in _block_sums(states, layout):
        pop.update(zip(configs, squares))
        coherence[configs[0]] = uppers.get((0, 1), 0.0)  # rho14 with 00 and 11, rho23 with 01 and 10
    return _x_state_concurrence(pop, coherence[0], coherence[1])


def _phi_plus_map(layout, n_rows):
    """Real map P from n_rows basis rows onto <phi_plus|_pair (x) 1, one row per rest configuration.

    The pair's phi_plus fidelity is linear in the state: with a_m =
    (psi_{00,m} + psi_{11,m}) / sqrt(2) over the configurations m of the
    other sites, F = sum_m |a_m|^2, and a = P psi. Row k pairs the k-th rows
    of 00 and 11 in the pair's layout, which must hold them in one block.
    """
    ends = [(configs, rows) for configs, rows in layout[1] if {0, 3} & set(configs)]
    if not ends:
        return np.zeros((0, n_rows))
    configs, rows = ends[0]
    if len(ends) > 1 or not {0, 3} <= set(configs):
        raise InvalidArgumentError("basis gives the pair's 00 and 11 configurations different supports")
    proj, k = np.zeros((rows.shape[1], n_rows)), np.arange(rows.shape[1])
    proj[k, rows[configs.index(0)]] = proj[k, rows[configs.index(3)]] = _S2
    return proj


def _leg_swap(sites, n_sites):
    """The 1-based position in sites of each site's rung partner, or None where sites are not whole rungs."""
    swap = _site_maps(n_sites // 2)[0]
    partners = [swap[site - 1] for site in sites]
    return [sites.index(partner) + 1 for partner in partners] if set(partners) == set(sites) else None


def _folded_layout(basis, keep, n_sites, index):
    """(2^len(keep), blocks): keep's rho as Schmidt blocks folded by the leg swap P, state row index[r] for basis row r.

    A block of _layout(basis, keep, n_sites) folds where keep and the other
    sites are whole rungs, P maps its configurations a and the other sites'
    m onto themselves, and index gives (P a, P m) the row of (a, m)
    throughout; otherwise it stays whole, every orbit of size one. It yields
    its P-even part and any P-odd part as (terms, subtract, (n_rows,
    n_columns), halves). terms (2, k, c) holds the state rows of a and of
    P a at one m per {m, P m} orbit, orbits of size one first on each side;
    G = terms[0] +- terms[1] with those first n_rows rows and n_columns
    columns scaled by 1/sqrt(2) is the state in the block's kept vectors q,
    each column weighted by sqrt(|orbit|). halves maps G G^H, flattened, onto
    the rhos of keep's two equal halves, side by side.
    """
    keep = list(keep)
    rest = [site for site in range(1, n_sites + 1) if site not in keep]
    rest_code = _site_code(basis, rest, n_sites)
    swaps = _leg_swap(keep, n_sites), _leg_swap(rest, n_sites)
    dim, folded = 2 ** len(keep), []
    for configs, rows in _layout(basis, keep, n_sites)[1]:
        codes, rows = (np.array(configs), rest_code[rows[0]]), index[rows]  # both ascending
        swap = tuple(map(np.arange, rows.shape))
        if None not in swaps:
            images = [_site_code(code, positions, len(positions)) for code, positions in zip(codes, swaps)]
            image = [np.searchsorted(code, mapped) for code, mapped in zip(codes, images)]
            if all(np.isin(mapped, code).all() for code, mapped in zip(codes, images)) \
                    and np.array_equal(rows[image[0]][:, image[1]], rows):
                swap = image
        (fixed, paired), (fixed_columns, paired_columns) = [
            (np.flatnonzero(mapped == ids), np.flatnonzero(ids < mapped))
            for mapped, ids in zip(swap, map(np.arange, rows.shape))]
        for subtract, vectors, columns, n_fixed in (
                (False, np.concatenate([fixed, paired]), np.concatenate([fixed_columns, paired_columns]),
                 (len(fixed), len(fixed_columns))),
                (True, paired, paired_columns, (0, 0))):
            if len(vectors) and len(columns):
                images, u = swap[0][vectors], np.arange(len(vectors))
                weight = np.where(images == vectors, 0.5, _S2)  # a fixed vector's two terms are one config
                q = np.zeros((len(vectors), dim))
                np.add.at(q, (u, codes[0][vectors]), weight)
                np.add.at(q, (u, codes[0][images]), -weight if subtract else weight)
                terms = np.stack([rows[vectors][:, columns], rows[images][:, columns]])
                # keep's rho is the sum of rho_uv q_u q_v^T over the blocks.
                outer = np.einsum("ua,vb->uvab", q, q).reshape(-1, dim, dim)
                halves = np.concatenate([half.reshape(len(outer), -1) for half in _marginals(outer)], axis=1)
                folded.append((terms, subtract, n_fixed, halves))
    return dim, folded


def _schmidt_many(states, layout):
    """(sides, halves) of a _folded_layout per state column, no validation.

    sides lists each block's smaller Gram, G G^H or G^H G, as a stack: the
    diagonal blocks of a matrix with the nonzero eigenvalues of keep's rho,
    for _entropy_many. halves holds the rhos of keep's two halves, each
    block's G G^H through its halves map.
    """
    dim, blocks = layout
    half = int(round(np.sqrt(dim)))
    sides, halves = [], np.zeros((states.shape[1], 2 * dim), dtype=complex)
    for terms, subtract, (n_rows, n_columns), to_halves in blocks:
        g = states[terms[0]]
        (np.subtract if subtract else np.add)(g, states[terms[1]], out=g)
        g[:n_rows, :n_columns] *= 0.5
        g[:n_rows, n_columns:] *= _S2
        g[n_rows:, :n_columns] *= _S2
        rho = _gram(g)
        halves += rho.reshape(len(rho), -1) @ to_halves
        sides.append(rho if len(g) <= g.shape[1] else _gram(g.swapaxes(0, 1)))
    halves = halves.reshape(-1, 2, half, half)
    return sides, (halves[:, 0], halves[:, 1])


def _gram(g):
    """G G^H per state column of a (rows, columns, columns of states) stack, as a (states, rows, rows) stack."""
    gram = np.empty((g.shape[2], len(g), len(g)), dtype=complex)
    for i in range(len(g)):
        column = (g[i].conj() * g[i:]).sum(axis=1)  # elements (j, i) for j >= i
        gram[:, i:, i] = column.T
        gram[:, i, i:] = column.T.conj()
    return gram


def _marginals(rhos):
    """Both halves' rhos of a stack of rhos on two equal parts, by partial traces.

    A pair's rho gives its two single sites, the joint rho of two pairs the
    two pairs, each half in the order of the whole's kept sites.
    """
    half = int(round(np.sqrt(rhos.shape[-1])))
    rhos = rhos.reshape(-1, half, half, half, half)
    return np.einsum("tijkj->tik", rhos), np.einsum("tijil->tjl", rhos)


def _concurrence_many(rhos):
    """Concurrence for a stack of two-qubit density matrices, no validation.

    Used by the experiment drivers, which call this on every grid point.
    X states take the exact closed form, all others the Wootters route.
    """
    out = _x_state_concurrence(np.diagonal(rhos, axis1=1, axis2=2).real.T, rhos[:, 0, 3], rhos[:, 1, 2])
    general = np.abs(rhos[:, _OFF_X]).max(axis=-1) > X_STATE_TOL
    if general.any():
        out[general] = _wootters_concurrence(rhos[general])
    return out


def _x_state_concurrence(pop, rho14, rho23):
    """Yu-Eberly closed-form concurrence from an X state's populations pop[0..3], rho14 and rho23."""
    outer = np.abs(rho14) - np.sqrt(np.clip(pop[1] * pop[2], 0.0, None))
    inner = np.abs(rho23) - np.sqrt(np.clip(pop[0] * pop[3], 0.0, None))
    return 2.0 * np.maximum(0.0, np.maximum(outer, inner))


def _wootters_concurrence(rhos):
    ev, vecs = np.linalg.eigh(rhos)
    root = (vecs * np.sqrt(np.clip(ev, 0.0, None))[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


# <vec| rho |vec> per rho of a stack: no driver reads it, bench/tracer.py times it as metrics.fidelity_s.
def _fidelity_many(rhos, vec):
    return np.real(np.einsum("i,tij,j->t", vec.conj(), rhos, vec))


def _entropy_many(rhos):
    """Entropies in bits of a stack of density matrices, no validation.

    rhos is a (states, d, d) stack, or a list of stacks that are the
    diagonal blocks of one (the sides of _schmidt_many). Eigenvalues come
    per block where the stack allows it (see _eigenvalues_many); negative
    round-off eigenvalues are clamped to 0.
    """
    ev = np.clip(_eigenvalues_many(rhos), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ev > 0.0, ev * np.log2(np.where(ev > 0.0, ev, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _eigenvalues_many(rhos):
    """Eigenvalues of a stack of Hermitian matrices, or of a list of block stacks, per block, unsorted.

    Row k of a 2^n-dim matrix is a configuration of n sites, of parity
    popcount(k) mod 2. If every element between the two parities is exactly
    0 in every matrix of the stack, the stack is split into its two parity
    blocks; otherwise, or for other dimensions, the whole matrix goes to
    eigvalsh. A list is taken as its blocks. A 1x1 block is its diagonal, a
    2x2 block takes the closed form, a larger one eigvalsh.
    """
    if isinstance(rhos, np.ndarray):
        dim = rhos.shape[-1]
        parity = _parity(dim)
        if dim < 2 or dim & (dim - 1) or rhos[:, parity[:, None] != parity].any():
            return np.linalg.eigvalsh(rhos)
        rhos = [rhos[:, rows[:, None], rows] for rows in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))]
    values = []
    for block in rhos:
        if block.shape[-1] == 1:
            values.append(block[:, 0].real)
        elif block.shape[-1] == 2:
            a, b, c = block[:, 0, 0].real, block[:, 1, 1].real, np.abs(block[:, 0, 1])
            mean, spread = (a + b) / 2.0, np.hypot((a - b) / 2.0, c)
            values += [mean - spread, mean + spread]
        else:
            values.append(np.linalg.eigvalsh(block))
    return np.column_stack(values)
