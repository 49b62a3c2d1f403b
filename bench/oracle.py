"""Independent reference values for the benchmark's output checks.

Shares no code with spinladder. The Hamiltonian is summed term by term from
explicit np.kron products and states are propagated with scipy.linalg.expm.
Only the package's documented conventions are reused: site 1 is the most
significant tensor factor, sigma_z = diag(-1, +1) so |0> is spin down,
rung n holds sites (2n-1, 2n), leg bonds are listed top leg first, and the
field acts on the mediating rungs 2 .. N-1.
"""

import math
from functools import reduce

import numpy as np
import scipy.linalg

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_SYSY = np.kron(_SY, _SY)

#: Steps per propagated block; expm(-i H B dt) advances a whole block at once.
_BLOCK = 64


def _embed(ops, n_sites):
    """kron product with ops[site] on the given 1-based sites, identity elsewhere."""
    return reduce(np.kron, [ops.get(site, _I2) for site in range(1, n_sites + 1)])


def rung_bonds(n_rungs):
    return [(2 * n - 1, 2 * n) for n in range(1, n_rungs + 1)]


def leg_bonds(n_rungs):
    return ([(2 * n - 1, 2 * n + 1) for n in range(1, n_rungs)]
            + [(2 * n, 2 * n + 2) for n in range(1, n_rungs)])


def hamiltonian(n_rungs, g, d, h, rung_factors=None, leg_factors=None):
    """XXZ ladder with unit couplings scaled per bond, field h on the mediating rungs."""
    n = 2 * n_rungs
    bonds = rung_bonds(n_rungs) + leg_bonds(n_rungs)
    factors = list(np.ones(n_rungs) if rung_factors is None else rung_factors)
    factors += list(np.ones(2 * (n_rungs - 1)) if leg_factors is None else leg_factors)
    ham = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for (i, j), factor in zip(bonds, factors):
        ham += factor * (0.5 * (1.0 + g) * _embed({i: _SX, j: _SX}, n)
                         + 0.5 * (1.0 - g) * _embed({i: _SY, j: _SY}, n)
                         + d * _embed({i: _SZ, j: _SZ}, n))
    for rung in range(2, n_rungs):
        for site in (2 * rung - 1, 2 * rung):
            ham += h * _embed({site: _SZ}, n)
    return ham


def phi_plus_state(n_rungs):
    """(|00> + |11>)/sqrt(2) on rung 1, every other site down."""
    psi = np.zeros(4 ** n_rungs, dtype=complex)
    psi[0] = psi[3 << (2 * n_rungs - 2)] = 1.0 / math.sqrt(2.0)
    return psi


def states_at_multiples(ham, psi0, tau, count):
    """States at tau, 2 tau, ..., count * tau as columns."""
    step = scipy.linalg.expm(-1j * ham * tau)
    states = [step @ psi0]
    for _ in range(count - 1):
        states.append(step @ states[-1])
    return np.stack(states, axis=1)


def terminal_fidelity_on_grid(ham, psi0, dt, n_points):
    """<phi+| rho_terminal |phi+> at t = k dt for k = 0 .. n_points - 1."""
    step = scipy.linalg.expm(-1j * ham * dt)
    first = [psi0]
    for _ in range(_BLOCK - 1):
        first.append(step @ first[-1])
    block = np.stack(first, axis=1)
    advance = scipy.linalg.expm(-1j * ham * (dt * _BLOCK))
    out = np.empty(-(-n_points // _BLOCK) * _BLOCK)
    for start in range(0, len(out), _BLOCK):
        out[start:start + _BLOCK] = terminal_fidelity(block)
        block = advance @ block
    return out[:n_points]


def terminal_fidelity(states):
    """Fidelity of the last rung (the two least significant sites) with phi+."""
    amp = states.reshape(-1, 4, states.shape[-1])
    return 0.5 * (np.abs(amp[:, 0] + amp[:, 3]) ** 2).sum(axis=0)


def reduced(psi, keep, n_sites):
    """Reduced density matrix of the 1-based sites in keep."""
    tensor = np.moveaxis(psi.reshape([2] * n_sites), [k - 1 for k in keep],
                         list(range(len(keep))))
    mat = tensor.reshape(2 ** len(keep), -1)
    return mat @ mat.conj().T


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix."""
    spun = _SYSY @ rho.conj() @ _SYSY
    lam = np.sqrt(np.sort(np.abs(np.linalg.eigvals(rho @ spun).real))[::-1])
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def entropy(rho):
    """von Neumann entropy in bits."""
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def trajectory_row(psi, n_rungs):
    """Every column of a reference trajectory row except t: C per rung, F, mutual information."""
    n = 2 * n_rungs
    first, last = (1, 2), (n - 1, n)
    row = {}
    for i, j in rung_bonds(n_rungs):
        row["C" + _pair_label(i, j)] = concurrence(reduced(psi, [i, j], n))
    rho_last = reduced(psi, list(last), n)
    row["F"] = float(np.real(np.array([1, 0, 0, 1]) @ rho_last @ np.array([1, 0, 0, 1])) / 2.0)
    s = {site: entropy(reduced(psi, [site], n)) for site in (*first, *last)}
    s_first, s_last = entropy(reduced(psi, list(first), n)), entropy(rho_last)
    lf, ll = _pair_label(*first), _pair_label(*last)
    row["I" + lf] = s[first[0]] + s[first[1]] - s_first
    row["I" + ll] = s[last[0]] + s[last[1]] - s_last
    row[f"I{lf}_{ll}"] = s_first + s_last - entropy(reduced(psi, [*first, *last], n))
    return row


def _pair_label(i, j):
    return f"{i}{j}" if j < 10 else f"{i}_{j}"


def disorder_factors(delta, base_seed, k, n_rungs):
    """(rung, leg) bond factors 1 + delta_k of ensemble member k.

    Reproduces the documented draw contract: a generator seeded with
    SeedSequence((base_seed, k)) draws uniform [-delta, delta] deltas for
    rungs 1..N first, then for the leg bonds in leg_bonds() order.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(base_seed), int(k))))
    draws = 1.0 + rng.uniform(-delta, delta, size=n_rungs + 2 * (n_rungs - 1))
    return draws[:n_rungs], draws[n_rungs:]


def dressed_gap(g, d):
    return 2.0 * math.sqrt(g * g + 4.0 * d * d)


def envelope_grid(h, g, d, window_factor=1.2, nominal_prefactor=2.37, points_per_carrier=200):
    """(t_end, n_points) of the field sweep's carrier-resolving grid at unit couplings."""
    t_end = window_factor * nominal_prefactor * h
    dt = 2.0 * math.pi / dressed_gap(g, d) / points_per_carrier
    return t_end, int(round(t_end / dt)) + 1


def slow_period_estimate(h, g, d):
    """Strong-field slow envelope period pi h sqrt(g^2 + 4 d^2) / (2 sqrt(2) d) at unit couplings."""
    return math.pi * h * math.sqrt(g * g + 4.0 * d * d) / (2.0 * math.sqrt(2.0) * d)
