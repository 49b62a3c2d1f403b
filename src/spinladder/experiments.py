"""Named, seeded, reproducible experiment drivers.

Every study is a plain function from parameters to tabular results:
reference trajectory (the CLI's size scaling runs it at each length), field
sweep, anisotropy heatmap, disorder ensemble, effective-model comparison, and
the carrier-frequency table.
All of them run through evolve_and_measure, which measures each chunk of
grid times that evolution.evolve hands it, on any of evolve's worker
threads, into its own slice of the outputs, so long windows at large field
never hold the full state history in memory, and which computes only the
channels its caller asks for: a fidelity-only run (the heatmap, the
disorder ensemble) streams the terminal pair's phi_plus amplitudes instead
of states, for a whole stack of ladders that differ only in their
couplings at once, and gets one F array back.

The ladder's layout and symmetries are lattice's to decide: its rung sites
(rung_pairs), the parity sector, the site maps a ladder or a stack holds
and their blocks. _sector_spectrum chains parity_sector, symmetry_blocks,
build_hamiltonian and diagonalize, the path the lattice tests check.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import SeedSequence, default_rng  # loaded here: np.random would load it mid-run

from .errors import InsufficientDataError, InvalidArgumentError, NumericFailureError
from .evolution import TimeGrid, diagonalize, evolve, stacks
from .lattice import (
    LadderParams,
    bond_hamiltonian,
    build_hamiltonian,
    build_initial_state,
    dressed_gap,
    parity_sector,
    rung_pairs,
    symmetry_blocks,
)
from .metrics import _reduced_many, channel_reader  # bench/tracer.py times _reduced_many by this name (ROADMAP item 16)
from .signals import FitResult, TimeSeries, envelope_period, dominant_frequency, \
    extract_alpha, effective_coupling_from_period, loglog_fit, _alpha_refusal

#: Reference sampling of t in [0, 10].
DEFAULT_GRID = TimeGrid(0.0, 10.0, 4001)

#: Sampling of t in [0, 40], long enough for the carrier-frequency table's FFT.
FREQ_GRID = TimeGrid(0.0, 40.0, 8001)

#: A-priori prefactor and fixed safety factor, used only to size simulation
#: windows for slow-envelope studies (window = WINDOW_FACTOR *
#: NOMINAL_SLOW_PREFACTOR * h / J^2). The measured prefactor at the reference
#: anisotropies comes out larger (close to pi), and the first envelope maximum
#: sits near pi*h/2, so the fixed WINDOW_FACTOR still covers it comfortably.
NOMINAL_SLOW_PREFACTOR = 2.37
WINDOW_FACTOR = 1.2

#: Carrier sampling density for envelope studies, grid steps per fast period, and
#: the most points an envelope grid may hold (h = 400 at j_parallel = 0.1 needs 7.3e6).
POINTS_PER_CARRIER = 200
MAX_ENVELOPE_POINTS = 2 ** 23


def pair_label(i, j):
    """CSV-safe rung-pair label: '56' for sites (5, 6), '9_10' for (9, 10)."""
    return f"{i}{j}" if j < 10 else f"{i}_{j}"


@dataclass(frozen=True)
class Trajectory:
    """Per-pair concurrence, terminal fidelity, optional mutual information.

    A run that did not ask for fidelity carries None in its place.
    """

    grid: TimeGrid
    pair_concurrence: dict
    fidelity_terminal: TimeSeries = None
    mutual_info: dict = None

    def __post_init__(self):
        for label, series in self.pair_concurrence.items():
            _check_unit_interval(series.values, f"concurrence series {label}")
        if self.fidelity_terminal is not None:
            _check_unit_interval(self.fidelity_terminal.values, "fidelity series")

    @property
    def terminal_label(self):
        return list(self.pair_concurrence)[-1]


def _check_unit_interval(values, name):
    # NaN fails every comparison, so finiteness is checked on its own.
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"{name} has non-finite values")
    if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
        raise InvalidArgumentError(f"{name} leaves [0, 1]")


@dataclass(frozen=True)
class DisorderRealization:
    """Per-bond coupling deltas for one ensemble member."""

    rung_deltas: np.ndarray
    leg_deltas: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    delta: float
    n_samples: int
    mean_fidelity: TimeSeries
    std_fidelity: TimeSeries
    peak_fidelities: np.ndarray
    mean_peak_fidelity: float
    std_peak_fidelity: float


@dataclass(frozen=True)
class HeatmapGrid:
    g_values: np.ndarray
    d_values: np.ndarray
    f_max: np.ndarray  # shape (len(g_values), len(d_values))


@dataclass(frozen=True)
class SweepRow:
    h: float
    t_slow: float
    f_max: float
    flag: str = None


@dataclass(frozen=True)
class SweepResult:
    rows: list
    fit: FitResult = None


@dataclass(frozen=True)
class EffectiveCheckRow:
    h: float
    t_slow_full: float
    j_eff: float
    alpha: float
    t_slow_effective: float
    relative_error: float


@dataclass(frozen=True)
class FrequencyRow:
    d: float
    predicted: float
    measured: float
    ratio: float


def evolve_and_measure(params, grid, pairs=(), fidelity=False, mutual_info=False,
                       decomp=None, psi0=None):
    """Evolve one ladder, or a stack of ladders, over the grid once and compute only the requested channels.

    pairs lists the rung pairs whose concurrence is recorded; fidelity adds
    the terminal pair's phi_plus fidelity; mutual_info adds I(first),
    I(terminal) and the joint first-terminal channel, and is refused below
    two rungs, where the first rung is the terminal one. metrics.channel_reader
    routes each channel to its kernel. psi0 defaults to the phi_plus input
    and decomp to the spectrum of params' Hamiltonian on the symmetry blocks
    psi0 occupies. C and F are clipped into [0, 1]; mutual information is
    not. Channels not asked for come back empty (concurrence) or None. The
    outputs have the same bits whatever the number of evolution.evolve's
    threads.

    decomp may also be a stack, _sector_spectrum of a list of K ladders
    with params' n_rungs and field mask: the stack is evolved at once and
    measures fidelity alone, returned as the clipped (K, n_points) array of
    F, each row formed as a single ladder's would be. Pairs and mutual
    information read one ladder's states, and a stack asking for them is
    refused.
    """
    if mutual_info and params.n_rungs < 2:
        raise InvalidArgumentError(f"mutual information needs distinct first and terminal rungs, "
                                   f"got n_rungs={params.n_rungs}")
    psi0 = build_initial_state("phi_plus", params) if psi0 is None else psi0
    decomp = _sector_spectrum(params, psi0) if decomp is None else decomp
    stack = decomp.eigenvalues.shape[:-1]
    if stack and (pairs or mutual_info or not fidelity):
        raise InvalidArgumentError(f"a stack of {stack[0]} ladders measures fidelity alone; pair and mutual-"
                                   f"information channels read one ladder's states")
    ladder = rung_pairs(params.n_rungs)
    first, terminal = ladder[0], ladder[-1]
    readouts, measure, conc, fid, mi = channel_reader(decomp, params.n_sites, grid.n_points, pairs,
                                                      terminal if fidelity else None, (first, terminal) * mutual_info)
    evolve(decomp, psi0, grid, readouts, measure)

    if fidelity:
        np.clip(fid, 0.0, 1.0, out=fid)  # once for the whole stack
    if stack:
        _check_unit_interval(fid, "stacked fidelity")
        return fid
    lf, lt = pair_label(*first), pair_label(*terminal)
    labels = {"first": f"I{lf}", "terminal": f"I{lt}", "joint": f"I{lf}_{lt}"}
    return Trajectory(
        grid=grid,
        pair_concurrence={pair_label(*pair): TimeSeries(grid, np.clip(values, 0.0, 1.0))
                          for pair, values in conc.items()},
        fidelity_terminal=None if fid is None else TimeSeries(grid, fid),
        mutual_info={labels[name]: TimeSeries(grid, values) for name, values in mi.items()} or None,
    )


def _sector_spectrum(params, psi0, **build):
    """Spectrum of params' Hamiltonian on the symmetry blocks psi0 occupies; of a stack of ladders for a list.

    H is built on psi0's parity sector (the full space for a psi0 that mixes
    parities) and solved only on the leg-swap x mirror blocks that hold
    psi0's weight (lattice.symmetry_blocks, which reads the held maps from
    the ladders' terms, not from H); a ladder that breaks both maps is one
    block, the whole sector. build passes bond factors on to both. A list
    of ladders, with build's values lists of factor arrays, gives a stacked
    decomposition on the blocks of the maps every ladder holds, its
    Hamiltonians from one build_hamiltonian call.
    """
    basis = parity_sector(psi0)
    blocks = symmetry_blocks(params, basis, psi0[basis], **build)
    return diagonalize(build_hamiltonian(params, basis=basis, **build), basis, blocks)


def run_reference(params=LadderParams(), state_kind="phi_plus", grid=DEFAULT_GRID,
                  include_mutual_info=True):
    """Evolve one ladder and record every rung pair's concurrence plus terminal fidelity.

    Mutual-information channels (first rung, terminal rung, and the joint
    first-terminal correlation) are included by default.
    """
    psi0 = build_initial_state(state_kind, params)
    return evolve_and_measure(params, grid, rung_pairs(params.n_rungs), fidelity=True,
                              mutual_info=include_mutual_info, psi0=psi0)


def _carrier(params):
    """dressed_gap(params); a gap of 0 or one that overflows sets no carrier period and is refused."""
    gap = dressed_gap(params)
    if not 0 < gap < math.inf:
        raise InvalidArgumentError(f"g = {params.g!r}, j_perp = {params.j_perp!r}, d = {params.d!r}, "
                                   f"j_parallel = {params.j_parallel!r} give the dressed gap {gap!r}, "
                                   f"which sets no carrier period")
    return gap


def _envelope_grid(params, t_end):
    """Carrier-resolving grid over [0, t_end]; more than MAX_ENVELOPE_POINTS, or an infinite window, is refused."""
    dt = 2.0 * math.pi / _carrier(params) / POINTS_PER_CARRIER
    if not t_end / dt + 1 <= MAX_ENVELOPE_POINTS:
        raise NumericFailureError(f"the slow-envelope grid at j_parallel = {params.j_parallel!r}, h = {params.h!r} "
                                  f"needs {t_end / dt + 1:,.0f} time points, more than {MAX_ENVELOPE_POINTS:,}")
    return TimeGrid(0.0, t_end, int(round(t_end / dt)) + 1)


def _slow_window(params):
    j = abs(params.j_parallel)
    if params.h > 0 and j > 0:
        try:
            return WINDOW_FACTOR * NOMINAL_SLOW_PREFACTOR * params.h / j ** 2
        except OverflowError:
            raise NumericFailureError(f"j_parallel = {params.j_parallel!r} overflows j_parallel^2 in the "
                                      f"slow-envelope window h / j_parallel^2") from None
        except ZeroDivisionError:  # j_parallel^2 underflows to 0: a window _envelope_grid refuses
            return math.inf
    return 10.0


def _distinct(values, name):
    """values as floats; a repeated value, which would run the same study twice, is refused."""
    values = [float(v) for v in values]
    if len(set(values)) < len(values):
        raise InvalidArgumentError(f"{name} must not repeat a value, got {values}")
    return values


def _field_studies(h_values, base):
    """One (params, grid) pair per field for the slow-envelope drivers, a repeated field refused first.

    Every carrier-resolving grid spans WINDOW_FACTOR nominal slow periods and
    is made, or refused over MAX_ENVELOPE_POINTS, before any evolution.
    """
    studies = [replace(base, h=h) for h in _distinct(h_values, "h_values")]
    return [(params, _envelope_grid(params, _slow_window(params))) for params in studies]


def sweep_field(h_values, base=LadderParams()):
    """Slow period and peak fidelity per field value, plus the log-log fit.

    Each field value gets its own carrier-resolving grid from _field_studies,
    all made before the first evolution. Rows whose envelope extraction
    fails are kept and flagged rather than dropped. The fit runs over the
    unflagged rows with h > 0 when at least three remain; its alpha
    field carries the prefactor extracted from the largest such field, where
    the strong-field expansion is cleanest.
    """
    rows = []
    for params, grid in _field_studies(h_values, base):
        traj = evolve_and_measure(params, grid, rung_pairs(params.n_rungs)[-1:], fidelity=True)
        c_term = traj.pair_concurrence[traj.terminal_label]
        f_max = float(traj.fidelity_terminal.values.max())
        try:
            t_slow = envelope_period(c_term)
            rows.append(SweepRow(h=params.h, t_slow=t_slow, f_max=f_max))
        except InsufficientDataError as exc:
            rows.append(SweepRow(h=params.h, t_slow=None, f_max=f_max, flag=str(exc)))
    fit = None
    good = [r for r in rows if r.flag is None and r.h > 0]
    if len(good) >= 3:
        fit = loglog_fit([r.h for r in good], [r.t_slow for r in good])
        top = max(good, key=lambda r: r.h)
        params = replace(base, h=top.h)
        fit = replace(fit, alpha=None if _alpha_refusal(params) else extract_alpha(top.t_slow, params))
    return SweepResult(rows=rows, fit=fit)


def anisotropy_heatmap(g_values, d_values, base=LadderParams(), grid=DEFAULT_GRID):
    """Peak terminal fidelity over a (g, d) grid.

    The cells share psi0, n_rungs and field mask, so they are solved and
    evolved as stacks of ladders (evolution.stacks) in row-major order, up
    to 51 cells a stack at N = 3; each cell's F is that of a run of the cell
    alone to round-off.
    """
    g_values = np.asarray(g_values, dtype=float)
    d_values = np.asarray(d_values, dtype=float)
    cells = [replace(base, g=float(g), d=float(d)) for g in g_values for d in d_values]
    psi0 = build_initial_state("phi_plus", base)
    f_max = np.empty(len(cells))
    for stack in stacks(len(cells), len(parity_sector(psi0))):
        decomp = _sector_spectrum(cells[stack], psi0)
        f_max[stack] = evolve_and_measure(base, grid, fidelity=True, decomp=decomp, psi0=psi0).max(axis=-1)
    return HeatmapGrid(g_values=g_values, d_values=d_values, f_max=f_max.reshape(len(g_values), len(d_values)))


def disorder_realization(delta, base_seed, k, n_rungs):
    """Bond deltas for ensemble member k, drawn from a per-member child stream.

    The child generator is seeded with SeedSequence((base_seed, k)), so any
    member can be regenerated independently of execution order. Draw order:
    rung bonds 1..N first, then leg bonds in leg_bonds() order (top leg,
    then bottom), one uniform draw from [-delta, +delta] each.
    """
    rng = default_rng(SeedSequence((int(base_seed), int(k))))
    deltas = rng.uniform(-delta, delta, size=n_rungs + 2 * (n_rungs - 1))
    return DisorderRealization(rung_deltas=deltas[:n_rungs], leg_deltas=deltas[n_rungs:])


def disorder_ensemble(delta, n_samples, base_seed, base=LadderParams(), grid=DEFAULT_GRID):
    """Terminal-fidelity statistics over independent coupling-disorder realizations.

    Every rung and leg bond is scaled by (1 + delta_k) independently; the
    field h is left clean. The realizations are solved and evolved as
    stacks of ladders (evolution.stacks), in index order. Aggregation is by
    realization index, so results are bitwise reproducible for a fixed base
    seed.
    """
    if math.copysign(1.0, delta) < 0:  # -0.0 too: uniform(-delta, delta) needs low <= high
        raise InvalidArgumentError(f"delta must be >= 0, got {delta}")
    if n_samples < 1:
        raise InvalidArgumentError(f"n_samples must be >= 1, got {n_samples}")
    if base_seed < 0:
        raise InvalidArgumentError(f"base_seed must be >= 0, got {base_seed}")

    # Welford accumulation, for the curves and the peaks alike: the naive
    # sum-of-squares variance loses ~8 digits near F = 1, and a plain mean of
    # equal samples can differ from them in the last bit, so either would
    # report nonzero spread for a delta = 0 ensemble.
    def welford(mean, m2, sample, k):
        shift = sample - mean
        mean = mean + shift / (k + 1)
        return mean, m2 + shift * (sample - mean)

    mean, m2 = np.zeros(grid.n_points), np.zeros(grid.n_points)
    peak_mean, peak_m2 = 0.0, 0.0
    peaks = np.empty(n_samples)
    psi0 = build_initial_state("phi_plus", base)
    for stack in stacks(n_samples, len(parity_sector(psi0))):
        members = range(n_samples)[stack]
        reals = [disorder_realization(delta, base_seed, k, base.n_rungs) for k in members]
        decomp = _sector_spectrum([base] * len(reals), psi0, rung_factors=[1.0 + r.rung_deltas for r in reals],
                                  leg_factors=[1.0 + r.leg_deltas for r in reals])
        fids = evolve_and_measure(base, grid, fidelity=True, decomp=decomp, psi0=psi0)
        for k, fid in zip(members, fids):
            peaks[k] = fid.max()
            mean, m2 = welford(mean, m2, fid, k)
            peak_mean, peak_m2 = welford(peak_mean, peak_m2, peaks[k], k)

    return EnsembleStats(
        delta=float(delta),
        n_samples=int(n_samples),
        mean_fidelity=TimeSeries(grid, mean),
        std_fidelity=TimeSeries(grid, np.sqrt(m2 / n_samples)),
        peak_fidelities=peaks,
        mean_peak_fidelity=float(peak_mean),
        std_peak_fidelity=float(np.sqrt(peak_m2 / n_samples)),
    )


def build_effective_hamiltonian(j_eff, params, basis=None):
    """Four-spin terminal-pair model: two dressed rungs joined by a weak rail exchange.

    Sites (1, 2) are the first rung and (3, 4) the terminal rung. Each keeps
    its full rung bond; the mediating rungs are reduced to their two static
    imprints on the terminal physics: the Ising part of the leg bonds acts
    as a field -d*j_parallel*sz per terminal site (each terminal site has
    one frozen mediating neighbour with <sz> = -1), and the second-order
    virtual exchange becomes the rail coupling -j_eff (sx1 sx3 + sx2 sx4).
    Without the sz dressing the model misses the carrier gap and detunes
    the transfer entirely, so it is not optional. basis restricts it like
    build_hamiltonian's (None: all 16 states).
    """
    rungs = [(i, j, params.j_perp, params.g, params.d) for i, j in ((1, 2), (3, 4))]
    rails = [(i, j, -j_eff, 1.0, 0.0) for i, j in ((1, 3), (2, 4))]
    fields = dict.fromkeys(range(1, 5), -params.d * params.j_parallel)
    return bond_hamiltonian(4, [(rungs + rails, fields)], basis)[0]


def effective_model_check(base=LadderParams(), h_values=(100.0, 200.0, 400.0)):
    """Envelope period of the full ladder vs the four-spin effective model.

    The full ladder's period is the envelope period of its terminal
    concurrence, on the grid and through the extraction field-sweep's rows
    use (a field without one raises InsufficientDataError); the coupling
    mapped from it drives the effective model over the same window, and the
    two extracted periods are compared. Because the coupling is taken from
    the full run, the residual error reflects how consistently the envelope
    extractor reads both signals, not a physics gap between the models.
    Every row's alpha needs extract_alpha's precondition (j_perp ==
    j_parallel among others), so a field value that fails it is refused,
    like a repeated field or an unusable grid, before the first evolution.
    """
    studies = _field_studies(h_values, base)
    for params, _ in studies:
        problem = _alpha_refusal(params)
        if problem is not None:
            raise InvalidArgumentError(problem)
    rows = []
    eff_proto = LadderParams(n_rungs=2, j_perp=base.j_perp, j_parallel=base.j_parallel,
                             g=base.g, d=base.d, h=0.0, field_mask=frozenset())
    eff_basis = parity_sector(build_initial_state("phi_plus", eff_proto))
    for params, grid in studies:
        full = evolve_and_measure(params, grid, rung_pairs(params.n_rungs)[-1:])
        t_full = envelope_period(full.pair_concurrence[full.terminal_label])
        j_eff = effective_coupling_from_period(t_full, params)
        alpha = extract_alpha(t_full, params)

        eff_ham = build_effective_hamiltonian(j_eff, params, eff_basis)
        eff = evolve_and_measure(eff_proto, grid, [(3, 4)], decomp=diagonalize(eff_ham, eff_basis))
        t_eff = envelope_period(eff.pair_concurrence["34"])
        rows.append(EffectiveCheckRow(
            h=params.h, t_slow_full=t_full, j_eff=j_eff, alpha=alpha,
            t_slow_effective=t_eff,
            relative_error=abs(t_eff - t_full) / t_full,
        ))
    return rows


def frequency_table(d_values, base=LadderParams(), grid=FREQ_GRID):
    """Measured carrier frequency of the terminal concurrence vs the dressed-gap prediction.

    Every d's gap is checked before the first evolution; a zero gap, or a
    repeated d, is refused.
    """
    studies = [replace(base, d=d) for d in _distinct(d_values, "d_values")]
    gaps = [_carrier(params) for params in studies]
    rows = []
    for params, predicted in zip(studies, gaps):
        traj = evolve_and_measure(params, grid, rung_pairs(params.n_rungs)[-1:])
        measured = dominant_frequency(traj.pair_concurrence[traj.terminal_label])
        rows.append(FrequencyRow(d=params.d, predicted=predicted, measured=measured,
                                 ratio=measured / predicted))
    return rows
