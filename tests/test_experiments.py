"""Experiment drivers: reference dynamics, sweeps, disorder, and the effective model.

The reference trajectory is computed once per module and shared; the
qualitative physics checks here (antiphase transfer, dark mediator,
zero-field mirror symmetry) all run against it or against cheap variants.
"""

import math
import os
import pathlib
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from spinladder import metrics
from spinladder.errors import (
    InvalidArgumentError,
    NumericFailureError,
)
from spinladder.evolution import (CHUNK_BYTES, STRIDE, SpectralDecomposition, TimeGrid, _chunk_points,
                                  _evolve_chunk, _usable_cpus, diagonalize, iter_evolved, stacks)
from spinladder.experiments import (
    DEFAULT_GRID,
    EnsembleStats,
    Trajectory,
    anisotropy_heatmap,
    build_effective_hamiltonian,
    disorder_ensemble,
    disorder_realization,
    effective_model_check,
    frequency_table,
    pair_label,
    run_reference,
    rung_pairs,
    sweep_field,
    _envelope_grid,
    _sector_spectrum,
    _slow_window,
    evolve_and_measure,
)
from spinladder.lattice import (INITIAL_STATE_KINDS, LadderParams, build_hamiltonian, build_initial_state,
                                leg_bonds, parity_sector, symmetry_blocks, uniform_mask)
from spinladder.metrics import (_concurrence_many, _distinct_rows, _is_x, _layout, _reduced_many, _schmidt_many,
                                _x_concurrence_many)
from spinladder.signals import TimeSeries, envelope_period, find_peaks

from conftest import BELL_STATES, _oracle_entropy, _oracle_rho, _oracle_states, pauli_hamiltonian, read_csv

EFFECTIVE_CHECK_GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
                          / "goldens" / "effective-check" / "effective_check.csv")


@pytest.fixture(scope="module")
def ref():
    """Reference ladder over [0, 10] with mutual-information channels."""
    return run_reference()


# ------------------------------------------------------------------- labelling

def test_pair_label():
    assert pair_label(5, 6) == "56"
    assert pair_label(9, 10) == "9_10"


def test_rung_pairs():
    assert rung_pairs(3) == [(1, 2), (3, 4), (5, 6)]
    assert rung_pairs(5)[-1] == (9, 10)


# ------------------------------------------------------------------ Trajectory

def test_trajectory_validates_ranges():
    grid = TimeGrid(0.0, 1.0, 3)
    good = TimeSeries(grid, [0.0, 0.5, 1.0])
    bad = TimeSeries(grid, [0.0, 1.5, 0.2])
    with pytest.raises(InvalidArgumentError):
        Trajectory(grid=grid, pair_concurrence={"12": bad}, fidelity_terminal=good)
    with pytest.raises(InvalidArgumentError):
        Trajectory(grid=grid, pair_concurrence={"12": good}, fidelity_terminal=bad)


def test_trajectory_rejects_nan():
    grid = TimeGrid(0.0, 1.0, 3)
    good = TimeSeries(grid, [0.0, 0.5, 1.0])
    nan = TimeSeries(grid, np.full(3, np.nan))
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        Trajectory(grid=grid, pair_concurrence={"12": nan}, fidelity_terminal=good)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        Trajectory(grid=grid, pair_concurrence={"12": good}, fidelity_terminal=nan)


def test_reference_channels(ref):
    assert list(ref.pair_concurrence) == ["12", "34", "56"]
    assert ref.terminal_label == "56"
    assert set(ref.mutual_info) == {"I12", "I56", "I12_56"}
    for series in ref.pair_concurrence.values():
        assert len(series.times) == 4001


def test_reference_initial_point(ref):
    # Bell pair on the first rung, everything else in the field ground state
    assert ref.pair_concurrence["12"].values[0] == pytest.approx(1.0, abs=1e-9)
    assert ref.pair_concurrence["56"].values[0] == pytest.approx(0.0, abs=1e-9)
    assert ref.fidelity_terminal.values[0] == pytest.approx(0.5, abs=1e-9)


def test_reference_mediator_stays_dark(ref):
    assert ref.pair_concurrence["34"].values.max() <= 0.1


def test_reference_antiphase(ref):
    # carrier peaks only: the field phase rides on top of every broad
    # concurrence hump as a sub-prominence micro-oscillation
    c12 = ref.pair_concurrence["12"]
    c56 = ref.pair_concurrence["56"]
    t0, dt = ref.grid.times[0], ref.grid.dt
    checked = 0
    for high, other in ((c56, c12), (c12, c56)):
        for t_peak, v_peak in find_peaks(high, 0.05):
            if v_peak > 0.9:
                k = int(round((t_peak - t0) / dt))
                assert other.values[k] <= 0.1
                checked += 1
    assert checked > 0


def test_reference_mutual_info_tracks_concurrence_at_peak(ref):
    c56 = ref.pair_concurrence["56"].values
    i56 = ref.mutual_info["I56"].values
    k = int(np.argmax(c56))
    assert i56[k] / (2.0 * c56[k]) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("kind", ["psi_plus", "psi_minus_plus_phi_plus"])
def test_other_bell_inputs_keep_mediator_dark(kind):
    traj = run_reference(state_kind=kind, include_mutual_info=False)
    assert traj.pair_concurrence["34"].values.max() <= 0.1


def test_mixed_parity_run_matches_full_space_oracle():
    """The mixed-parity input runs in the full space and matches the pauli_string evolution.

    The reference states come from conftest's dense propagator and its
    reshape partial trace. The pair states are not X states, so concurrence
    takes the Wootters route. The two evolutions differ by round-off growing
    as eps*|H|*t, which reaches C at 1.2e-12 and F at 3.1e-13; the C bound
    leaves an 80x margin.
    """
    params = LadderParams()
    kind = "psi_minus_plus_phi_plus"
    psi0 = build_initial_state(kind, params)
    assert np.array_equal(parity_sector(psi0), np.arange(64))
    grid = TimeGrid(0.0, 10.0, 401)
    traj = run_reference(params, state_kind=kind, grid=grid, include_mutual_info=False)
    states = _oracle_states(pauli_hamiltonian(params), psi0, grid.times)
    for pair in rung_pairs(3):
        rho = _oracle_rho(states, list(pair), 6)
        expected = np.clip(_concurrence_many(rho), 0.0, 1.0)
        assert np.abs(traj.pair_concurrence[pair_label(*pair)].values - expected).max() <= 1e-10
    phi = BELL_STATES["phi_plus"]
    fid = np.clip(np.einsum("i,tij,j->t", phi.conj(), rho, phi).real, 0.0, 1.0)
    assert np.abs(traj.fidelity_terminal.values - fid).max() <= 1e-12


def test_zero_field_mirror_symmetry():
    # all-down input and h = 0 restore the rung-reversal symmetry exactly
    params = LadderParams(h=0.0)
    traj = run_reference(params, state_kind="separable_zero_zero",
                         include_mutual_info=False)
    diff = np.abs(traj.pair_concurrence["12"].values
                  - traj.pair_concurrence["56"].values).max()
    assert diff <= 1e-6


def test_uniform_field_suppresses_transfer():
    params = LadderParams(field_mask=uniform_mask(3))
    traj = run_reference(params, include_mutual_info=False)
    assert traj.pair_concurrence["56"].values.max() <= 0.85


# ----------------------------------------------------------------- scaling

def test_scaling_four_rungs_channels():
    traj = run_reference(LadderParams(n_rungs=4), grid=TimeGrid(0.0, 10.0, 801), include_mutual_info=False)
    assert list(traj.pair_concurrence) == ["12", "34", "56", "78"]
    assert traj.terminal_label == "78"
    assert traj.mutual_info is None
    # both mediating pairs stay dark
    assert traj.pair_concurrence["34"].values.max() <= 0.1
    assert traj.pair_concurrence["56"].values.max() <= 0.1


# ----------------------------------------------------------------- sweep_field

def test_sweep_weak_field_rows_are_flagged():
    result = sweep_field([0.0, 10.0])
    by_h = {row.h: row for row in result.rows}
    assert set(by_h) == {0.0, 10.0}
    for row in by_h.values():
        assert row.flag is not None
        assert row.t_slow is None
        assert 0.0 <= row.f_max <= 1.0
    # fewer than three clean rows: no fit is attempted
    assert result.fit is None


# ---------------------------------------------------------- anisotropy_heatmap

def test_heatmap_shape_and_range():
    grid = TimeGrid(0.0, 5.0, 251)
    hm = anisotropy_heatmap([0.0, 1.0], [0.0, 0.5], grid=grid)
    assert hm.f_max.shape == (2, 2)
    assert (hm.f_max >= 0.0).all() and (hm.f_max <= 1.0).all()
    # the g = 0 row freezes the transfer near F = 1/2
    assert hm.f_max[0].max() <= 0.55


# ----------------------------------------------------------- disorder ensemble

def test_disorder_realization_contract():
    real = disorder_realization(0.2, 42, 7, 3)
    assert real.rung_deltas.shape == (3,)
    assert real.leg_deltas.shape == (4,)
    assert np.abs(real.rung_deltas).max() <= 0.2
    assert np.abs(real.leg_deltas).max() <= 0.2
    # reconstruct the child stream independently: rung draws first, then legs
    rng = np.random.default_rng(np.random.SeedSequence((42, 7)))
    draws = rng.uniform(-0.2, 0.2, size=7)
    assert np.array_equal(real.rung_deltas, draws[:3])
    assert np.array_equal(real.leg_deltas, draws[3:])


def test_disorder_realizations_differ_by_index():
    a = disorder_realization(0.1, 42, 0, 3)
    b = disorder_realization(0.1, 42, 1, 3)
    assert not np.array_equal(a.rung_deltas, b.rung_deltas)


def test_disorder_zero_delta_is_clean():
    grid = TimeGrid(0.0, 5.0, 201)
    stats = disorder_ensemble(0.0, 3, base_seed=42, grid=grid)
    clean = run_reference(include_mutual_info=False, grid=grid)
    assert stats.std_peak_fidelity == 0.0
    assert stats.std_fidelity.values.max() == 0.0
    assert stats.mean_peak_fidelity == clean.fidelity_terminal.values.max()
    assert np.array_equal(stats.mean_fidelity.values, clean.fidelity_terminal.values)
    assert np.array_equal(stats.peak_fidelities, np.full(3, stats.mean_peak_fidelity))


def test_disorder_bitwise_determinism():
    grid = TimeGrid(0.0, 5.0, 201)
    a = disorder_ensemble(0.1, 2, base_seed=7, grid=grid)
    b = disorder_ensemble(0.1, 2, base_seed=7, grid=grid)
    assert np.array_equal(a.mean_fidelity.values, b.mean_fidelity.values)
    assert np.array_equal(a.std_fidelity.values, b.std_fidelity.values)
    assert np.array_equal(a.peak_fidelities, b.peak_fidelities)
    c = disorder_ensemble(0.1, 2, base_seed=8, grid=grid)
    assert not np.array_equal(a.peak_fidelities, c.peak_fidelities)


def test_disorder_validation():
    with pytest.raises(InvalidArgumentError):
        disorder_ensemble(-0.1, 2, base_seed=1)
    with pytest.raises(InvalidArgumentError, match="delta must be >= 0, got -0.0"):
        disorder_ensemble(-0.0, 2, base_seed=1)
    with pytest.raises(InvalidArgumentError):
        disorder_ensemble(0.1, 0, base_seed=1)
    with pytest.raises(InvalidArgumentError, match="base_seed"):
        disorder_ensemble(0.1, 2, base_seed=-1)


def test_ensemble_stats_fields():
    grid = TimeGrid(0.0, 2.0, 81)
    stats = disorder_ensemble(0.05, 2, base_seed=3, grid=grid)
    assert isinstance(stats, EnsembleStats)
    assert stats.delta == 0.05
    assert stats.n_samples == 2
    assert stats.peak_fidelities.shape == (2,)
    assert (stats.std_fidelity.values >= 0.0).all()


def test_fidelity_only_drivers_skip_concurrence(monkeypatch):
    """The heatmap and the disorder ensemble read fidelity alone: no concurrence, no rho, no states.

    Their evolution yields only the len(basis)/4 phi_plus amplitudes of the
    terminal pair, never the state block. The clean heatmap cell evolves
    the 20 eigenvectors of phi_plus's two leg-even blocks, each disordered
    ladder all 32 of its sector. Both drivers evolve stacks of ladders, so
    the shapes are recorded per ladder of a stack.
    """
    def refuse(*args):
        raise AssertionError("a fidelity-only driver evaluated concurrence or reduced a rho")
    monkeypatch.setattr("spinladder.metrics._concurrence_many", refuse)
    monkeypatch.setattr("spinladder.metrics._reduced_many", refuse)
    shapes, stacks = [], []

    def recording(evolution, start, phases):
        block, rows = _evolve_chunk(evolution, start, phases)
        stacks.append(len(rows))
        shapes.extend((evolution.decomp.dim, ladder_rows.shape) for ladder_rows in rows)
        return block, rows
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", recording)
    grid = TimeGrid(0.0, 2.0, 81)
    hm = anisotropy_heatmap([1.0], [0.5], grid=grid)
    assert 0.0 <= hm.f_max[0, 0] <= 1.0
    stats = disorder_ensemble(0.05, 2, base_seed=3, grid=grid)
    assert stats.peak_fidelities.shape == (2,)
    assert shapes == [(20, (8, 81))] + [(32, (8, 81))] * 2
    assert stacks == [1, 2]


@pytest.mark.parametrize("kernel, state, mutual_info", [
    ("_reduced_many", "psi_minus_plus_phi_plus", False),
    ("_concurrence_many", "psi_minus_plus_phi_plus", False),
    ("_schmidt_many", "phi_plus", True),
])
def test_a_run_reading_the_channel_reaches_the_kernel_the_patches_replace(monkeypatch, kernel, state, mutual_info):
    """A run that reads a channel reaches the metrics kernel that the refusals and recorders here patch.

    A patch on a name no run calls would pass without testing anything. The
    mixed-parity input reduces every pair's rho and takes its concurrence
    from it; mutual information reads the joint's folded Schmidt blocks.
    """
    calls, original = [], getattr(metrics, kernel)
    monkeypatch.setattr(metrics, kernel, lambda *args: calls.append(kernel) or original(*args))
    run_reference(LadderParams(), state_kind=state, grid=TimeGrid(0.0, 2.0, 81), include_mutual_info=mutual_info)
    assert calls


#: Largest |F(stack) - F(alone)| accepted where a stack's chunks are shorter than a single ladder's. The
#: single-ladder path itself moves by up to 1.3e-15 between 128- and 1024-point chunks at N = 4 with two
#: OpenBLAS threads (by 5.6e-16 with one), as BLAS blocks the two products differently.
CHUNKED_F_TOL = 2e-15


def _stacked_and_alone(params, grid, decomp, singles, psi0, monkeypatch):
    """Largest |F(stacked) - F(alone)| over the ladders of a stacked decomposition, against single-ladder ones.

    The stack's F is one (K, n_points) array. Run alone in chunks of the
    stack's length (CHUNK lowered to it), each ladder's F is bitwise its row.
    """
    stacked = evolve_and_measure(params, grid, fidelity=True, decomp=decomp, psi0=psi0)
    assert stacked.shape == (len(singles), grid.n_points)
    alone = [evolve_and_measure(params, grid, fidelity=True, decomp=single, psi0=psi0) for single in singles]
    with monkeypatch.context() as patch:
        patch.setattr("spinladder.evolution.CHUNK", _chunk_points(len(decomp.basis), decomp.dim, len(singles)))
        for fid, single in zip(stacked, singles):
            same_chunks = evolve_and_measure(params, grid, fidelity=True, decomp=single, psi0=psi0)
            assert np.array_equal(fid, same_chunks.fidelity_terminal.values)
    return max(np.abs(fid - one.fidelity_terminal.values).max() for fid, one in zip(stacked, alone))


@pytest.mark.parametrize("n_rungs", [3, 4, 5])
@pytest.mark.parametrize("n_points", [61, 801], ids=["one chunk", "chunks"])
def test_heatmap_stacks_give_every_cell_its_own_fidelity(n_rungs, n_points, monkeypatch):
    """Each cell of a heatmap's stacks has its own run's F, bitwise where the grid is one chunk or the chunks match.

    The stacks are the ones anisotropy_heatmap forms: N = 3 puts all nine
    cells in one stack, N = 4 two, N = 5 one cell per stack. Where the
    stack's chunks are shorter than a single ladder's, F moves by round-off
    only, within CHUNKED_F_TOL.
    """
    base, grid = LadderParams(n_rungs=n_rungs), TimeGrid(0.0, 10.0, n_points)
    psi0 = build_initial_state("phi_plus", base)
    cells = [replace(base, g=g, d=d) for g in (0.4, 0.7, 1.0) for d in (0.2, 0.5, 0.8)]
    split = stacks(len(cells), len(parity_sector(psi0)))
    assert [s.stop - s.start for s in split] == {3: [9], 4: [4, 5], 5: [1] * 9}[n_rungs]
    for stack in split:
        gap = _stacked_and_alone(base, grid, _sector_spectrum(cells[stack], psi0),
                                 [_sector_spectrum(cell, psi0) for cell in cells[stack]], psi0, monkeypatch)
        assert gap <= (0.0 if n_points <= STRIDE else CHUNKED_F_TOL)


@pytest.mark.parametrize("n_rungs", [3, 4])
@pytest.mark.parametrize("n_points", [61, 801], ids=["one chunk", "chunks"])
def test_disorder_stacks_give_every_realization_its_own_fidelity(n_rungs, n_points, monkeypatch):
    """Each realization of a disorder stack has the F of its own run, as each heatmap cell has."""
    base, grid = LadderParams(n_rungs=n_rungs), TimeGrid(0.0, 10.0, n_points)
    psi0 = build_initial_state("phi_plus", base)
    reals = [disorder_realization(0.1, 42, k, n_rungs) for k in range(6)]
    factors = [dict(rung_factors=1.0 + real.rung_deltas, leg_factors=1.0 + real.leg_deltas) for real in reals]
    decomp = _sector_spectrum([base] * 6, psi0, rung_factors=[f["rung_factors"] for f in factors],
                              leg_factors=[f["leg_factors"] for f in factors])
    assert decomp.eigenvalues.shape == (6, len(decomp.basis))
    singles = [_sector_spectrum(base, psi0, **f) for f in factors]
    gap = _stacked_and_alone(base, grid, decomp, singles, psi0, monkeypatch)
    assert gap <= (0.0 if n_points <= STRIDE else CHUNKED_F_TOL)


@pytest.mark.parametrize("n_rungs", [3, 4])
def test_a_stack_mixing_clean_and_disordered_ladders_is_solved_on_the_whole_sector(n_rungs, monkeypatch):
    """A clean ladder holds both site maps, a disordered one neither, so their stack uses none.

    The clean ladder is then solved on its whole parity sector: its F is
    that of its own whole-sector run (bitwise in chunks of the stack's
    length) and that of its own blocked run to the 1e-12 of
    test_blocked_evolution_matches_the_parity_sector.
    """
    base, grid = LadderParams(n_rungs=n_rungs), TimeGrid(0.0, 10.0, 801)
    psi0 = build_initial_state("phi_plus", base)
    real = disorder_realization(0.1, 42, 0, n_rungs)
    rungs, legs = [np.ones(n_rungs), 1.0 + real.rung_deltas], [np.ones(2 * n_rungs - 2), 1.0 + real.leg_deltas]
    decomp = _sector_spectrum([base] * 2, psi0, rung_factors=rungs, leg_factors=legs)
    basis = parity_sector(psi0)
    assert symmetry_blocks([base] * 2, basis, psi0[basis], rungs, legs) is None
    assert decomp.dim == len(basis)
    whole = diagonalize(build_hamiltonian(base, basis=basis), basis)
    disordered = _sector_spectrum(base, psi0, rung_factors=rungs[1], leg_factors=legs[1])
    assert _stacked_and_alone(base, grid, decomp, [whole, disordered], psi0, monkeypatch) <= CHUNKED_F_TOL
    clean = evolve_and_measure(base, grid, fidelity=True, decomp=decomp, psi0=psi0)[0]
    blocked = evolve_and_measure(base, grid, fidelity=True, psi0=psi0).fidelity_terminal.values
    assert np.abs(clean - blocked).max() <= 1e-12


@pytest.mark.parametrize("stack", ["clean", "disordered", "clean and disordered"])
def test_sector_spectrum_is_the_public_path(stack):
    """_sector_spectrum gives bitwise the eigenpairs of diagonalize(build_hamiltonian(...), basis, symmetry_blocks(...)).

    A clean stack of heatmap cells holds both site maps, a disordered stack
    neither, and a stack mixing a clean and a disordered ladder holds
    neither either: its symmetry_blocks is None.
    """
    base = LadderParams()
    psi0 = build_initial_state("phi_plus", base)
    basis = parity_sector(psi0)
    reals = [disorder_realization(0.1, 42, k, 3) for k in range(3)]
    rungs, legs = [1.0 + real.rung_deltas for real in reals], [1.0 + real.leg_deltas for real in reals]
    ladders, build = {
        "clean": ([replace(base, g=g, d=d) for g, d in ((1.0, 0.5), (0.6, 0.2), (0.3, 0.9))], {}),
        "disordered": ([base] * 3, dict(rung_factors=rungs, leg_factors=legs)),
        "clean and disordered": ([base] * 2, dict(rung_factors=[None, rungs[0]], leg_factors=[None, legs[0]])),
    }[stack]
    blocks = symmetry_blocks(ladders, basis, psi0[basis], **build)
    assert (blocks is None) == (stack != "clean")
    want = diagonalize(build_hamiltonian(ladders, basis=basis, **build), basis, blocks)
    got = _sector_spectrum(ladders, psi0, **build)
    assert got.eigenvalues.shape[0] == len(ladders)
    for name in ("eigenvalues", "eigenvectors", "basis"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_a_stack_returns_its_fidelity_array():
    """A stack's F is one clipped (K, n_points) array, each row bitwise a single run of its ladder in one chunk."""
    cells = [LadderParams(g=g, d=d) for g, d in ((1.0, 0.5), (0.6, 0.2), (0.3, 0.9))]
    psi0 = build_initial_state("phi_plus", cells[0])
    grid = TimeGrid(0.0, 10.0, STRIDE - 3)
    fid = evolve_and_measure(cells[0], grid, fidelity=True, decomp=_sector_spectrum(cells, psi0), psi0=psi0)
    assert isinstance(fid, np.ndarray) and fid.shape == (3, grid.n_points)
    assert fid.min() >= 0.0 and fid.max() <= 1.0
    for row, cell in zip(fid, cells):
        assert np.array_equal(row, evolve_and_measure(cell, grid, fidelity=True, psi0=psi0).fidelity_terminal.values)


def test_a_nan_in_a_stacked_fidelity_is_refused(monkeypatch):
    """A non-finite F in one ladder of a stack refuses the whole stack's array."""
    def poisoned(evolution, start, phases):
        block, rows = _evolve_chunk(evolution, start, phases)
        rows[1, 0, 0] = np.nan
        return block, rows
    cells = [LadderParams(g=g) for g in (0.5, 1.0)]
    psi0 = build_initial_state("phi_plus", cells[0])
    decomp, grid = _sector_spectrum(cells, psi0), TimeGrid(0.0, 1.0, 11)
    assert evolve_and_measure(cells[0], grid, fidelity=True, decomp=decomp, psi0=psi0).shape == (2, 11)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", poisoned)
    with pytest.raises(InvalidArgumentError, match="stacked fidelity has non-finite values"):
        evolve_and_measure(cells[0], grid, fidelity=True, decomp=decomp, psi0=psi0)


def test_a_stack_measures_fidelity_alone():
    """Pairs and mutual information read one ladder's states, so a stack asking for them is refused."""
    cells = [LadderParams(g=g) for g in (0.5, 1.0)]
    decomp = _sector_spectrum(cells, build_initial_state("phi_plus", cells[0]))
    grid = TimeGrid(0.0, 1.0, 11)
    for channels in (dict(pairs=rung_pairs(3)[-1:], fidelity=True), dict(mutual_info=True, fidelity=True), {}):
        with pytest.raises(InvalidArgumentError, match="a stack of 2 ladders measures fidelity alone"):
            evolve_and_measure(cells[0], grid, decomp=decomp, **channels)


def test_n5_heatmap_is_split_into_stacks_within_chunk_bytes(monkeypatch):
    """Every stack's H, V and shortest chunk fit CHUNK_BYTES, so a 2 x 2 heatmap at N = 5 is four stacks of one.

    At N = 3 the same budget puts all 36 cells of a 6 x 6 heatmap in one stack.
    """
    sizes = []

    def recording(evolution, start, phases):
        if start == 0:  # once per evolution
            sizes.append((len(evolution.decomp.eigenvalues), len(evolution.decomp.basis)))
        return _evolve_chunk(evolution, start, phases)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", recording)
    grid = TimeGrid(0.0, 1.0, 201)
    anisotropy_heatmap([0.5, 1.0], [0.3, 0.6], LadderParams(n_rungs=5), grid=grid)
    assert sizes == [(1, 512)] * 4
    assert 16 * 512 * (512 + 2 * STRIDE) > CHUNK_BYTES
    sizes.clear()
    anisotropy_heatmap(np.linspace(0.5, 1.0, 6), np.linspace(0.2, 0.8, 6), grid=grid)
    assert sizes == [(36, 32)]
    assert 36 * 16 * 32 * (32 + 2 * STRIDE) <= CHUNK_BYTES


def test_a_stack_is_built_in_one_call(monkeypatch):
    """_sector_spectrum builds all of a stack's Hamiltonians in one build_hamiltonian call.

    A 6 x 6 heatmap at N = 3 is one stack of 36 cells, and a 40-sample
    disorder ensemble one stack of 40 realizations: one call each.
    """
    calls = []

    def recording(params, *args, **kwargs):
        calls.append(len(params) if isinstance(params, list) else "one ladder")
        return build_hamiltonian(params, *args, **kwargs)
    monkeypatch.setattr("spinladder.experiments.build_hamiltonian", recording)
    grid = TimeGrid(0.0, 1.0, 201)
    anisotropy_heatmap(np.linspace(0.5, 1.0, 6), np.linspace(0.2, 0.8, 6), grid=grid)
    assert calls == [36]
    calls.clear()
    disorder_ensemble(0.1, 40, 0, grid=grid)
    assert calls == [40]


@pytest.mark.parametrize("n_rungs, kind", [(3, "phi_plus"), (3, "psi_minus_plus_phi_plus"), (1, "phi_plus")],
                         ids=["parity sector", "full space", "single rung"])
def test_fidelity_is_bitwise_the_same_with_every_channel(n_rungs, kind):
    """F comes from the same amplitude product whether or not states and rhos are also computed.

    The single rung's pair is the whole system, so no other site is left
    over; it has no distinct terminal rung, so mutual information is asked
    for only on a ladder. The grid spans two evolution chunks.
    """
    params = LadderParams(n_rungs=n_rungs)
    psi0 = build_initial_state(kind, params)
    assert len(parity_sector(psi0)) == (4 ** n_rungs if kind == "psi_minus_plus_phi_plus" else 4 ** n_rungs // 2)
    grid = TimeGrid(0.0, 10.0, 2501)
    alone = evolve_and_measure(params, grid, fidelity=True, psi0=psi0)
    every = evolve_and_measure(params, grid, rung_pairs(n_rungs), fidelity=True, mutual_info=n_rungs > 1,
                               psi0=psi0)
    assert alone.pair_concurrence == {} and alone.mutual_info is None
    assert list(every.pair_concurrence) == [pair_label(*pair) for pair in rung_pairs(n_rungs)]
    assert np.array_equal(alone.fidelity_terminal.values, every.fidelity_terminal.values)


def test_distinct_rows_are_evolved_once_and_read_as_every_row(monkeypatch):
    """On a clean N = 4 ladder the 128 sector rows of V hold 72 distinct ones; reading them gives every channel.

    Rows r and P r of V are bitwise equal under the leg swap P that phi_plus
    keeps. The run evolves the distinct rows only and matches a readout of
    all rows to round-off, for every pair, F and the mutual informations.
    """
    params, grid = LadderParams(n_rungs=4), TimeGrid(0.0, 10.0, 801)
    psi0 = build_initial_state("phi_plus", params)
    decomp = _sector_spectrum(params, psi0)
    distinct, inverse = _distinct_rows(decomp.eigenvectors)
    assert len(decomp.basis) == 128 and len(distinct) == 72
    assert np.array_equal(distinct, np.sort(distinct)) and np.array_equal(inverse[distinct], np.arange(72))
    assert np.array_equal(decomp.eigenvectors[distinct][inverse], decomp.eigenvectors)
    rows = []

    def recording(evolution, start, phases):
        if start == 0:  # once per evolution
            rows.append([len(readout) for readout in evolution.readouts])
        return _evolve_chunk(evolution, start, phases)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", recording)
    channels = dict(pairs=rung_pairs(4), fidelity=True, mutual_info=True, decomp=decomp, psi0=psi0)
    once = evolve_and_measure(params, grid, **channels)
    monkeypatch.setattr("spinladder.metrics._distinct_rows", lambda matrix: (np.arange(len(matrix)),) * 2)
    every = evolve_and_measure(params, grid, **channels)
    assert [readout_rows[0] for readout_rows in rows] == [72, 128]
    for series in ("pair_concurrence", "mutual_info"):
        for label, values in getattr(every, series).items():
            assert np.abs(getattr(once, series)[label].values - values.values).max() <= 1e-13, label
    assert np.abs(once.fidelity_terminal.values - every.fidelity_terminal.values).max() <= 1e-13


@pytest.mark.parametrize("n_rungs", [3, 4])
def test_disordered_ladder_has_no_rows_to_merge(n_rungs):
    """Disorder breaks the leg swap, so every sector row of V is its own and the readout is V itself."""
    base = LadderParams(n_rungs=n_rungs)
    real = disorder_realization(0.1, 42, 0, n_rungs)
    psi0 = build_initial_state("phi_plus", base)
    decomp = _sector_spectrum(base, psi0, rung_factors=1.0 + real.rung_deltas, leg_factors=1.0 + real.leg_deltas)
    distinct, inverse = _distinct_rows(decomp.eigenvectors)
    assert np.array_equal(distinct, np.arange(len(decomp.basis)))
    assert np.array_equal(inverse, np.arange(len(decomp.basis)))


def test_fidelity_chunks_follow_the_spectrum_not_the_channels(monkeypatch):
    """N = 5 streams budget-sized chunks, of one length for a fidelity-only run and one with every channel.

    The phi_plus amplitudes are then formed in the same products, so F is
    bitwise the same; 2501 points end in a short last chunk. The chunks of
    one run may be measured in any order, so they are recorded with their
    start and compared sorted.
    """
    lengths = []

    def recording(evolution, start, phases):
        block, rows = _evolve_chunk(evolution, start, phases)
        lengths.append((start, len(block)))
        return block, rows
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", recording)
    params, grid = LadderParams(n_rungs=5), TimeGrid(0.0, 10.0, 2501)
    decomp = _sector_spectrum(params, build_initial_state("phi_plus", params))
    alone = evolve_and_measure(params, grid, fidelity=True, decomp=decomp)
    every = evolve_and_measure(params, grid, rung_pairs(5), fidelity=True, mutual_info=True, decomp=decomp)
    half = len(lengths) // 2
    assert sorted(lengths[:half]) == sorted(lengths[half:]) and max(length for _, length in lengths) < 2048
    assert np.array_equal(alone.fidelity_terminal.values, every.fidelity_terminal.values)


def test_mutual_info_needs_two_rungs():
    """A single rung is both the first and the terminal pair, so it has no joint first-terminal channel."""
    grid = TimeGrid(0.0, 1.0, 11)
    with pytest.raises(InvalidArgumentError, match="n_rungs=1"):
        evolve_and_measure(LadderParams(n_rungs=1), grid, rung_pairs(1), mutual_info=True)
    assert set(evolve_and_measure(LadderParams(n_rungs=2), grid, mutual_info=True).mutual_info) == \
        {"I12", "I34", "I12_34"}


# ----------------------------------------------------------- symmetry blocks

@given(n_rungs=st.integers(min_value=3, max_value=5), kind=st.sampled_from(INITIAL_STATE_KINDS),
       g=st.floats(min_value=-1.0, max_value=1.0), d=st.floats(min_value=0.0, max_value=1.0),
       h=st.floats(min_value=0.0, max_value=100.0), t_end=st.floats(min_value=0.1, max_value=2.0))
def test_blocked_evolution_matches_the_parity_sector(n_rungs, kind, g, d, h, t_end):
    """The symmetry blocks psi0 occupies evolve it as the whole parity sector does.

    Every rung pair's rho and the joint first-terminal rho agree within
    1e-12, and so does the terminal fidelity of evolve_and_measure, which
    splits the states from the amplitudes at len(basis) rows. Both routes
    carry a phase error of eps |H| t, so t stays at most 2.
    """
    params = LadderParams(n_rungs=n_rungs, g=g, d=d, h=h)
    psi0 = build_initial_state(kind, params)
    basis = parity_sector(psi0)
    sector = diagonalize(build_hamiltonian(params, basis=basis), basis)
    blocked = _sector_spectrum(params, psi0)
    assert blocked.dim <= sector.dim == len(blocked.basis)
    grid = TimeGrid(0.0, t_end, 5)
    [(_, expected)], [(_, states)] = (iter_evolved(decomp, psi0, grid) for decomp in (sector, blocked))
    pairs = rung_pairs(n_rungs)
    for keep in [list(pair) for pair in pairs] + [[*pairs[0], *pairs[-1]]]:
        layout = _layout(basis, keep, params.n_sites)
        assert np.abs(_reduced_many(states, layout) - _reduced_many(expected, layout)).max() <= 1e-12
    want, got = (evolve_and_measure(params, grid, pairs, fidelity=True, decomp=decomp, psi0=psi0)
                 for decomp in (sector, blocked))
    assert np.abs(got.fidelity_terminal.values - want.fidelity_terminal.values).max() <= 1e-12


@pytest.mark.parametrize("bonds, n_rungs", [("disorder", 3), ("one leg", 3), ("disorder", 5)],
                         ids=["disorder", "one leg", "disorder at five rungs"])
def test_leg_asymmetric_ladder_drops_no_block(bonds, n_rungs):
    """A Hamiltonian without the leg swap keeps every state of the sector.

    A disorder realization breaks the mirror too, so symmetry_blocks
    returns None and the spectrum is bit for bit the plain sector eigh. The
    one-leg control of A1 keeps the mirror, and phi_plus fills both mirror
    blocks.
    """
    params = LadderParams(n_rungs=n_rungs)
    psi0 = build_initial_state("phi_plus", params)
    if bonds == "disorder":
        real = disorder_realization(0.1, 7, 0, params.n_rungs)
        build = {"rung_factors": 1.0 + real.rung_deltas, "leg_factors": 1.0 + real.leg_deltas}
    else:
        build = {"leg_factors": [0.0 if i % 2 else 1.0 for i, _ in leg_bonds(params.n_rungs)]}
    decomp = _sector_spectrum(params, psi0, **build)
    assert decomp.eigenvectors.shape == (len(decomp.basis), len(decomp.basis)) == (4 ** n_rungs // 2,) * 2
    ham = build_hamiltonian(params, basis=decomp.basis, **build)
    sector = diagonalize(ham, decomp.basis)
    if bonds == "disorder":
        assert symmetry_blocks(params, decomp.basis, psi0[decomp.basis], **build) is None
        assert np.array_equal(decomp.eigenvalues, sector.eigenvalues)
        assert np.array_equal(decomp.eigenvectors, sector.eigenvectors)
    else:
        assert np.abs(decomp.eigenvalues - sector.eigenvalues).max() <= 1e-14 * np.abs(sector.eigenvalues).max()


def test_mutual_info_traces_the_end_pairs_from_the_joint_rho(monkeypatch):
    """With mutual information on, the first and terminal pairs come from the joint's folded Schmidt blocks.

    No rho is reduced from the states: the joint is read once per chunk
    through _schmidt_many, and the middle pair reads its concurrence through
    its X layout. The states are the distinct rows of V evolved, and the
    joint's blocks read exactly the sector layout's rows mapped through the
    inverse index, each block only those of its own sector block. The end
    pairs' concurrence matches a run that reduces them directly, and the
    three mutual informations match conftest's reshape partial trace and
    eigvalsh entropies of iter_evolved's states, scattered into the full
    space.
    """
    layouts, n_states = [], []

    def recording(states, layout):
        layouts.append(layout)
        n_states.append(len(states))
        return _schmidt_many(states, layout)

    def refuse(*args):
        raise AssertionError("a rho was reduced from the states")
    monkeypatch.setattr("spinladder.metrics._schmidt_many", recording)
    monkeypatch.setattr("spinladder.metrics._reduced_many", refuse)
    params, grid = LadderParams(), TimeGrid(0.0, 10.0, 401)
    traced = run_reference(params, grid=grid)
    monkeypatch.undo()
    psi0 = build_initial_state("phi_plus", params)
    decomp = _sector_spectrum(params, psi0)
    distinct, inverse = _distinct_rows(decomp.eigenvectors)
    [(dim, blocks)] = layouts
    assert n_states == [len(distinct)]
    joint = _layout(decomp.basis, (1, 2, 5, 6), params.n_sites)
    assert dim == joint[0]
    assert [terms.shape[1:] for terms, _, _, _ in blocks] == [(6, 2), (4, 1), (4, 1)]
    read = [set(terms.ravel()) for terms, _, _, _ in blocks]
    sector = [set(inverse[rows].ravel()) for _, rows in joint[1]]
    assert set().union(*read) == set().union(*sector)
    assert all(any(rows <= block for block in sector) for rows in read)
    direct = run_reference(params, grid=grid, include_mutual_info=False)
    for label, series in direct.pair_concurrence.items():
        assert np.abs(traced.pair_concurrence[label].values - series.values).max() <= 1e-14
    states = _full_states(decomp, psi0, grid)
    for k in (0, 57, 400):
        for label, (a, b) in {"I12": ([1], [2]), "I56": ([5], [6]), "I12_56": ([1, 2], [5, 6])}.items():
            want = sum(_oracle_entropy(_oracle_rho(states[:, k], part, 6)) for part in (a, b)) \
                - _oracle_entropy(_oracle_rho(states[:, k], a + b, 6))
            assert traced.mutual_info[label].values[k] == pytest.approx(want, abs=1e-10)


def _full_states(decomp, psi0, grid):
    """iter_evolved's states over grid scattered into the full space, one column per time."""
    states = np.zeros((len(psi0), grid.n_points), dtype=complex)
    states[decomp.basis] = np.concatenate([rows for _, rows in iter_evolved(decomp, psi0, grid)], axis=1)
    return states


def _rung_one_state(params, amplitudes):
    """Full-space state with the given (00, 01, 10, 11) amplitudes on rung 1 and |0> elsewhere."""
    psi = np.zeros(params.dim, dtype=complex)
    psi[np.arange(4) << (2 * params.n_rungs - 2)] = amplitudes
    return psi


_ORACLE_CASES = [(n, kind, None) for n in (2, 3, 4, 5)
                 for kind in ("phi_plus", "psi_plus", "psi_minus", "psi_minus_plus_phi_plus")]
_ORACLE_CASES += [(4, "phi_plus", "field on rung 2"), (3, "phi_plus", "disorder"), (4, "phi_plus", "disorder")]


@pytest.mark.parametrize("n_rungs, kind, variant", _ORACLE_CASES)
def test_joint_mutual_info_and_end_pairs_match_the_whole_rho_oracle(monkeypatch, n_rungs, kind, variant):
    """The joint first-terminal MI and both end pairs' rhos agree with a reshape partial trace and eigvalsh on 16x16.

    The oracle reduces iter_evolved's states, scattered into the full space,
    without the package's layouts. Inputs that keep the leg swap bitwise (phi_plus, psi_plus, a
    field on rung 2 alone) fold; psi_minus, which the swap negates, the
    mixed-parity input and disordered ladders stay whole.
    """
    params = LadderParams(n_rungs=n_rungs, field_mask=frozenset({2}) if variant == "field on rung 2" else None)
    psi0 = (_rung_one_state(params, BELL_STATES["psi_minus"]) if kind == "psi_minus"
            else build_initial_state(kind, params))
    build = {}
    if variant == "disorder":
        real = disorder_realization(0.1, 11, 0, n_rungs)
        build = {"rung_factors": 1.0 + real.rung_deltas, "leg_factors": 1.0 + real.leg_deltas}
    decomp = _sector_spectrum(params, psi0, **build)
    calls = []

    def recording(states, layout):
        calls.append((layout, _schmidt_many(states, layout)))
        return calls[-1][1]
    monkeypatch.setattr("spinladder.metrics._schmidt_many", recording)
    grid = TimeGrid(0.0, 2.0, 9)
    traj = evolve_and_measure(params, grid, rung_pairs(n_rungs), mutual_info=True, decomp=decomp, psi0=psi0)
    [((_, blocks), (_, halves))] = calls
    folds = kind in ("phi_plus", "psi_plus") and variant != "disorder"
    assert any(n_fixed < len(terms[0]) for terms, _, (n_fixed, _), _ in blocks) == folds
    first, terminal = rung_pairs(n_rungs)[0], rung_pairs(n_rungs)[-1]
    label = f"I{pair_label(*first)}_{pair_label(*terminal)}"
    states = _full_states(decomp, psi0, grid)
    for k, t in enumerate(grid.times):
        psi = states[:, k]
        rho_first, rho_terminal = (_oracle_rho(psi, list(pair), params.n_sites) for pair in (first, terminal))
        joint = _oracle_rho(psi, [*first, *terminal], params.n_sites)
        want = _oracle_entropy(rho_first) + _oracle_entropy(rho_terminal) - _oracle_entropy(joint)
        assert abs(traj.mutual_info[label].values[k] - want) <= 1e-12, t
        assert np.abs(halves[0][k] - rho_first).max() <= 1e-12, t
        assert np.abs(halves[1][k] - rho_terminal).max() <= 1e-12, t


@pytest.mark.parametrize("n_rungs, variant, sizes", [(5, None, {4, 6}), (3, None, set()), (4, "disorder", {8})],
                         ids=["leg-even five rungs", "three rungs", "disordered four rungs"])
def test_joint_entropy_solves_only_the_smaller_folded_sides(monkeypatch, n_rungs, variant, sizes):
    """The joint entropy takes eigvalsh on the smaller side of each folded block, and closed forms below 3x3.

    phi_plus at five rungs solves 6x6 and 4x4 blocks, at three rungs
    nothing (6x2, 4x1 and 4x1 blocks: 2x2 and 1x1 sides). A disordered
    ladder does not fold, and its two 8x8 blocks at four rungs go to
    eigvalsh whole. The pair and site entropies of a parity sector take
    closed forms throughout.
    """
    params = LadderParams(n_rungs=n_rungs)
    psi0 = build_initial_state("phi_plus", params)
    build = {}
    if variant == "disorder":
        real = disorder_realization(0.1, 5, 0, n_rungs)
        build = {"rung_factors": 1.0 + real.rung_deltas, "leg_factors": 1.0 + real.leg_deltas}
    decomp = _sector_spectrum(params, psi0, **build)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrices):
        solved.append(matrices.shape[-1])
        return eigvalsh(matrices)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    evolve_and_measure(params, TimeGrid(0.0, 10.0, 401), rung_pairs(n_rungs), fidelity=True, mutual_info=True,
                       decomp=decomp, psi0=psi0)
    assert set(solved) == sizes


@pytest.mark.parametrize("n_rungs", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["phi_plus", "psi_plus"])
def test_x_layout_concurrence_is_the_reduced_rho_route(n_rungs, kind):
    """Read through its X layout, a pair's concurrence on evolved sector states is bitwise the rho route's.

    Every rung pair and, on a ladder, the leg pair (1, 3), chunk by chunk.
    A single rung's even sector has one {00, 11} block and takes the X
    route too. Both routes read the same block sums (metrics._block_sums).
    """
    params = LadderParams(n_rungs=n_rungs)
    psi0 = build_initial_state(kind, params)
    decomp = _sector_spectrum(params, psi0)
    pairs = rung_pairs(n_rungs) + [(1, 3)] * (n_rungs > 1)
    layouts = {pair: _layout(decomp.basis, pair, params.n_sites) for pair in pairs}
    assert all(map(_is_x, layouts.values()))
    grid = DEFAULT_GRID if n_rungs == 3 and kind == "phi_plus" else TimeGrid(0.0, 10.0, 401)
    peak = 0.0
    for _, states in iter_evolved(decomp, psi0, grid):
        for pair, layout in layouts.items():
            via_rho = _concurrence_many(_reduced_many(states, layout))
            assert np.array_equal(_x_concurrence_many(states, layout), via_rho)
            peak = max(peak, via_rho.max())
    assert peak > 0.9


# ------------------------------------------------------------- effective model

def test_effective_hamiltonian_is_hermitian():
    ham = build_effective_hamiltonian(0.02, LadderParams())
    assert ham.shape == (16, 16)
    assert np.abs(ham - ham.conj().T).max() == 0.0


def test_effective_model_bright_gap_matches_planted_coupling():
    """Spectral oracle for the four-spin model, independent of envelope extraction.

    With a planted rail coupling the initial state projects onto a dark
    state at the bare energy plus two bright satellites split by exactly
    2 J_eff; the beat between them is the slow transfer.
    """
    j_eff = 0.02
    params = LadderParams()
    decomp = diagonalize(build_effective_hamiltonian(j_eff, params))
    proto = LadderParams(n_rungs=2, h=0.0, field_mask=frozenset())
    psi0 = build_initial_state("phi_plus", proto)
    weights = np.abs(decomp.eigenvectors.conj().T @ psi0) ** 2
    bright = [(e, w) for e, w in zip(decomp.eigenvalues, weights)
              if 0.9 < e < 1.1 and w > 1e-6]
    assert len(bright) == 3
    energies = sorted(e for e, _ in bright)
    assert energies[1] == pytest.approx(1.0, abs=1e-9)
    assert bright[1][1] == pytest.approx(0.25, abs=1e-6)
    assert energies[2] - energies[0] == pytest.approx(2.0 * j_eff, rel=0.01)


@pytest.mark.xfail(
    strict=True,
    reason="envelope extraction on the effective model reads the planted period "
           "10.7% short (140.23 vs 157.08 at J_eff = 0.02): the first-hump "
           "parabolic refinement lands inside the flat top of the sin^2 envelope",
)
def test_effective_model_signal_round_trip():
    j_eff = 0.02
    params = LadderParams()
    decomp = diagonalize(build_effective_hamiltonian(j_eff, params))
    proto = LadderParams(n_rungs=2, h=0.0, field_mask=frozenset())
    psi0 = build_initial_state("phi_plus", proto)
    t_plant = math.pi / j_eff
    grid = _envelope_grid(params, 1.2 * t_plant)
    traj = evolve_and_measure(proto, grid, [(3, 4)], decomp=decomp, psi0=psi0)
    t_meas = envelope_period(traj.pair_concurrence["34"])
    assert t_meas == pytest.approx(t_plant, rel=0.01)


def test_effective_model_period_agrees_across_eigensolvers():
    """The effective-check golden's period does not hang on the LAPACK path.

    Five eigensolver paths, SciPy's evr, ev and evx drivers, a Hessenberg
    reduction (dgehrd) whose tridiagonal is solved by stemr, and last the
    one diagonalize takes (NumPy's real-symmetric syevd), give eigenvectors
    that differ only by round-off, and no two of them bitwise; evx is asked
    for the eigenvalues in a window that holds them all, which takes its
    bisection and inverse-iteration route (over the whole range it runs
    ev's QR iteration and gives ev's bits); SciPy's evd driver is not among
    them, as it runs the same syevd as NumPy and gives the same bits;
    at the golden's coupling on its h = 100 grid, the extracted period must
    agree between them to the goldens' rtol, as it must across BLAS builds.
    """
    params = LadderParams()
    _, golden = read_csv(str(EFFECTIVE_CHECK_GOLDEN))
    assert golden["h"] == [100.0]
    [j_eff] = golden["J_eff"]
    ham = build_effective_hamiltonian(j_eff, params)
    assert not ham.imag.any()
    grid = _envelope_grid(params, _slow_window(params))
    proto = LadderParams(n_rungs=2, h=0.0, field_mask=frozenset())
    psi0 = build_initial_state("phi_plus", proto)
    spectra = [scipy.linalg.eigh(ham, driver=driver) for driver in ("evr", "ev")]
    bound = 2.0 * np.abs(ham).sum(axis=1).max()  # past every eigenvalue (Gershgorin)
    spectra.append(scipy.linalg.eigh(ham, driver="evx", subset_by_value=(-bound, bound)))
    tridiagonal, q = scipy.linalg.hessenberg(ham.real, calc_q=True)
    eigenvalues, v = scipy.linalg.eigh_tridiagonal(np.diag(tridiagonal), np.diag(tridiagonal, -1),
                                                   lapack_driver="stemr")
    spectra.append((eigenvalues, q @ v))
    spectra.append(np.linalg.eigh(ham.real))
    for k in range(len(spectra)):
        for other in spectra[k + 1:]:
            assert not np.array_equal(spectra[k][1], other[1])
    periods = []
    for eigenvalues, eigenvectors in spectra:
        decomp = SpectralDecomposition(eigenvalues, eigenvectors, np.arange(16))
        traj = evolve_and_measure(proto, grid, [(3, 4)], decomp=decomp, psi0=psi0)
        periods.append(envelope_period(traj.pair_concurrence["34"]))
    assert np.allclose(periods, periods[0], rtol=1e-9, atol=0.0), periods


def test_effective_check_full_period_is_the_sweep_period():
    """effective-check reads the full ladder's slow period from sweep_field, bit for bit."""
    [sweep_row] = sweep_field([100.0]).rows
    [check_row] = effective_model_check(h_values=[100.0])
    assert check_row.h == sweep_row.h
    assert check_row.t_slow_full == sweep_row.t_slow


# -------------------------------------------------------------- frequency table

def test_frequency_table_reference_row():
    rows = frequency_table([0.5])
    assert len(rows) == 1
    row = rows[0]
    assert row.d == 0.5
    assert row.predicted == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert abs(row.ratio - 1.0) <= 0.005
    assert row.measured == pytest.approx(row.predicted * row.ratio, rel=1e-12)


# ------------------------------------------------------------ parallel chunks

#: Each driver at a size whose evolution spans several chunks: a short last chunk at N = 3 (5000 points in
#: chunks of 2048), N = 5 with mutual information (801 points in chunks of 320), the mixed-parity input in
#: the full space, a stack of 40 disordered ladders (401 points in chunks of 64) and a 3 x 3 heatmap stack.
_PARALLEL_RUNS = {
    "short last chunk": lambda: run_reference(grid=TimeGrid(0.0, 10.0, 5000)),
    "N = 5 with mutual information": lambda: run_reference(LadderParams(n_rungs=5), grid=TimeGrid(0.0, 10.0, 801)),
    "mixed parity": lambda: run_reference(state_kind="psi_minus_plus_phi_plus", grid=TimeGrid(0.0, 10.0, 5000)),
    "40-ladder stack": lambda: disorder_ensemble(0.1, 40, 0, grid=TimeGrid(0.0, 10.0, 401)),
    "heatmap stack": lambda: anisotropy_heatmap([0.5, 1.0, 1.5], [0.2, 0.5, 0.8], grid=TimeGrid(0.0, 10.0, 401)),
    "field sweep": lambda: sweep_field([50.0]),
    "scaling": lambda: run_reference(LadderParams(n_rungs=4), grid=TimeGrid(0.0, 10.0, 3000),
                                     include_mutual_info=False),
    "frequency table": lambda: frequency_table([0.5]),
    "effective check": lambda: effective_model_check(h_values=[100.0]),
}


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr("spinladder.evolution._usable_cpus", lambda: workers)


@pytest.mark.parametrize("run", list(_PARALLEL_RUNS.values()), ids=list(_PARALLEL_RUNS))
def test_every_worker_count_gives_the_same_bits(monkeypatch, run):
    """Each driver's whole result, pickled, is byte for byte the same on 1, 2 and 3 workers."""
    results = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        results.append(pickle.dumps(run()))
    assert results[1] == results[0] and results[2] == results[0]


def _meeting_kernel(monkeypatch, workers, record):
    """Put in place of _evolve_chunk a kernel whose first `workers` chunks wait for each other at a barrier.

    They pass it only with every worker in flight at once, so each worker
    runs one of them. record() is called on each chunk's own thread, first.
    """
    barrier = threading.Barrier(workers, timeout=30)

    def meeting(evolution, start, phases):
        record()
        if start < workers * evolution.chunk:
            barrier.wait()
        return _evolve_chunk(evolution, start, phases)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", meeting)


def test_workers_run_chunks_at_once_each_on_its_own_thread(monkeypatch):
    """Three workers take three chunks at the same time, on three threads, the caller one of them."""
    _force_workers(monkeypatch, 3)
    threads = []
    _meeting_kernel(monkeypatch, 3, lambda: threads.append(threading.get_ident()))
    traj = run_reference(grid=TimeGrid(0.0, 10.0, 5 * 2048))
    assert len(traj.fidelity_terminal.values) == 5 * 2048
    assert len(threads) == 5 and len(set(threads)) == 3 and threading.get_ident() in threads


def test_chunks_are_taken_once_each_under_a_short_switch_interval(monkeypatch):
    """Eight workers on any number of cores, switching threads every microsecond, evolve each chunk once.

    A 40-ladder stack over 2001 points is 32 chunks of 64; every run's F is
    bitwise the one-worker run's.
    """
    def run():
        return pickle.dumps(disorder_ensemble(0.1, 40, 0, grid=TimeGrid(0.0, 10.0, 2001)))
    _force_workers(monkeypatch, 1)
    expected = run()
    _force_workers(monkeypatch, 8)
    starts = []

    def recording(evolution, start, phases):
        starts.append(start)
        return _evolve_chunk(evolution, start, phases)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            starts.clear()
            assert run() == expected
            assert sorted(starts) == list(range(0, 2001, 64))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers, n_points", [(1, 5000), (4, 2048)], ids=["one worker", "one chunk"])
def test_one_worker_runs_every_chunk_in_the_caller(monkeypatch, workers, n_points):
    """One usable CPU, or a grid of one chunk, starts no thread: every chunk runs on the calling thread."""
    _force_workers(monkeypatch, workers)
    threads = []

    def recording(evolution, start, phases):
        threads.append(threading.get_ident())
        return _evolve_chunk(evolution, start, phases)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", recording)
    monkeypatch.setattr("spinladder.evolution.threading.Thread", None)
    run_reference(grid=TimeGrid(0.0, 10.0, n_points))
    assert threads == [threading.get_ident()] * math.ceil(n_points / 2048)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_chunk_raises_its_own_exception_and_leaves_no_thread(monkeypatch, workers):
    """The exception one chunk raises, the same object, comes out of evolve_and_measure once every helper has ended."""
    _force_workers(monkeypatch, workers)
    failure = NumericFailureError("chunk 2 failed")

    def failing(evolution, start, phases):
        if start == 2 * evolution.chunk:
            raise failure
        return _evolve_chunk(evolution, start, phases)
    monkeypatch.setattr("spinladder.evolution._evolve_chunk", failing)
    before = set(threading.enumerate())
    with pytest.raises(NumericFailureError) as raised:
        run_reference(grid=TimeGrid(0.0, 10.0, 5 * 2048))
    assert raised.value is failure
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_callers_error_state_holds_in_every_chunk(monkeypatch, workers):
    """NumPy's error state is context-local; a caller's np.errstate is in force in every chunk, on every worker."""
    _force_workers(monkeypatch, workers)
    states = []
    _meeting_kernel(monkeypatch, workers, lambda: states.append((threading.get_ident(), np.geterr())))
    with np.errstate(all="raise"):
        run_reference(grid=TimeGrid(0.0, 10.0, 5 * 2048))
    assert len({thread for thread, _ in states}) == workers
    assert [state for _, state in states] == [dict(divide="raise", over="raise", under="raise", invalid="raise")] * 5


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    """The affinity mask counts where the platform has one; else every CPU, and 1 where even that is unknown."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert _usable_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1
