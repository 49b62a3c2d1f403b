"""Acceptance suite: one test per criterion, at the stated tolerance.

Every test prints its measured numbers (run with -rA or -s to see them).
Criteria the simulation genuinely does not meet are marked xfail(strict)
with the measured value in the reason; they are real disagreements between
the claimed and computed behavior, kept red on purpose. A strict xfail
starting to pass is itself a signal worth investigating.

Shared fixtures hold the expensive runs; the whole module takes about two
minutes on a laptop-class machine.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinladder.evolution import TimeGrid, diagonalize, iter_evolved
from spinladder.experiments import (
    anisotropy_heatmap,
    disorder_ensemble,
    effective_model_check,
    evolve_and_measure,
    frequency_table,
    run_reference,
    sweep_field,
    _envelope_grid,
    _sector_spectrum,
    _slow_window,
)
from spinladder.lattice import LadderParams, build_hamiltonian, build_initial_state, leg_bonds
from spinladder.metrics import _concurrence_many, _entropy_many, _layout, _reduced_many
from spinladder.signals import dominant_frequency, find_peaks

from conftest import haar_state, random_density, random_unitary

BASE = LadderParams()


# ------------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def freq_rows():
    return frequency_table([0.0, 0.1, 0.5, 1.0])


@pytest.fixture(scope="module")
def ref_long():
    """Reference run over 1.2 nominal slow periods (t up to 284.4)."""
    grid = _envelope_grid(BASE, _slow_window(BASE))
    return run_reference(BASE, grid=grid, include_mutual_info=False)


@pytest.fixture(scope="module")
def sweep():
    return sweep_field([50.0, 100.0, 200.0, 400.0])


@pytest.fixture(scope="module")
def heatmap():
    # CI-sized grid; the d step of 0.1 keeps the reference cell on-grid
    return anisotropy_heatmap(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 0.9, 10))


@pytest.fixture(scope="module")
def disorder():
    return {delta: disorder_ensemble(delta, 200, base_seed=42)
            for delta in (0.05, 0.10, 0.20)}


@pytest.fixture(scope="module")
def scaling():
    return {n: run_reference(LadderParams(n_rungs=n), include_mutual_info=False) for n in (3, 4, 5)}


@pytest.fixture(scope="module")
def ref_mi():
    return run_reference()


@pytest.fixture(scope="module")
def eff_rows():
    return effective_model_check()


def first_peak_time(traj):
    terminal = traj.pair_concurrence[traj.terminal_label]
    return find_peaks(terminal, 0.05)[0][0]


# -------------------------------------------------- A1: carrier frequency table

@pytest.mark.xfail(
    strict=True,
    reason="measured/predicted ratio at d=0 is 2.0002, not within [0.99, 1.02]: "
           "with no Ising dressing the rectified concurrence carries only the "
           "doubled frequency, so the raw spectral peak sits at 2*omega",
)
def test_a1_frequency_ratio_d0(freq_rows):
    row = freq_rows[0]
    print(f"A1 d=0: predicted {row.predicted:.6f} measured {row.measured:.6f} ratio {row.ratio:.6f}")
    assert 0.99 <= row.ratio <= 1.02


@pytest.mark.xfail(
    strict=True,
    reason="measured/predicted ratio at d=0.1 is 2.0010, not within [0.995, 1.005]: "
           "the doubled rectification peak still dominates the weakly dressed carrier",
)
def test_a1_frequency_ratio_d01(freq_rows):
    row = freq_rows[1]
    print(f"A1 d=0.1: ratio {row.ratio:.6f}")
    assert 0.995 <= row.ratio <= 1.005


def test_a1_frequency_ratio_d05(freq_rows):
    row = freq_rows[2]
    print(f"A1 d=0.5: predicted {row.predicted:.6f} measured {row.measured:.6f} ratio {row.ratio:.7f}")
    assert row.predicted == pytest.approx(2.8284, abs=5e-5)
    assert 0.995 <= row.ratio <= 1.005


def test_a1_frequency_ratio_d10(freq_rows):
    row = freq_rows[3]
    print(f"A1 d=1.0: predicted {row.predicted:.6f} measured {row.measured:.6f} ratio {row.ratio:.7f}")
    assert row.predicted == pytest.approx(4.4721, abs=5e-5)
    assert 0.995 <= row.ratio <= 1.005


def test_a1_even_legs_only_control(freq_rows):
    """Dropping the top-leg bonds must break the Table-I agreement.

    This is the control for the both-legs Hamiltonian reading: the measured
    carrier frequency of the single-leg variant misses the dressed-gap
    prediction by over 20%.
    """
    even_legs = [0.0 if i % 2 else 1.0 for i, _ in leg_bonds(BASE.n_rungs)]
    decomp = _sector_spectrum(BASE, build_initial_state("phi_plus", BASE), leg_factors=even_legs)
    traj = evolve_and_measure(BASE, TimeGrid(0.0, 40.0, 8001), [(5, 6)], decomp=decomp)
    measured = dominant_frequency(traj.pair_concurrence["56"])
    ratio = measured / freq_rows[2].predicted
    print(f"A1 control (even legs only): ratio {ratio:.4f}")
    assert not 0.995 <= ratio <= 1.005
    assert abs(ratio - 1.0) > 0.2


# ------------------------------------------------------- A2: reference fidelity

def test_a2_reference_fidelity(ref_long):
    fid = ref_long.fidelity_terminal
    k = int(np.argmax(fid.values))
    f_max, t_star = fid.values[k], fid.times[k]
    c34_max = ref_long.pair_concurrence["34"].values.max()
    # the argmax is reported against both claimed peak times without
    # asserting either; they disagree with each other by a factor of 100
    print(f"A2: F_max {f_max:.6f} at t = {t_star:.3f} "
          f"(claims: 1.11 and 118.5); min F {fid.values.min():.6f}; "
          f"max C34 {c34_max:.6f}")
    assert f_max >= 0.999
    assert fid.values.min() >= 0.49
    assert c34_max <= 0.1


# ----------------------------------------------------- A3: slow-period scaling

def test_a3_sweep_rows_clean(sweep):
    assert [row.h for row in sweep.rows] == [50.0, 100.0, 200.0, 400.0]
    for row in sweep.rows:
        assert row.flag is None, f"h={row.h} flagged: {row.flag}"
    periods = {row.h: row.t_slow for row in sweep.rows}
    print("A3 periods:", {h: round(t, 4) for h, t in periods.items()})


def test_a3_loglog_slope(sweep):
    print(f"A3: slope {sweep.fit.slope:.4f} r^2 {sweep.fit.r_squared:.5f}")
    assert 0.95 <= sweep.fit.slope <= 1.25
    assert sweep.fit.r_squared >= 0.999


@pytest.mark.xfail(
    strict=True,
    reason="prefactor T_slow*J^2/h at h=400 measures 3.095, outside 2.37+-15% "
           "([2.01, 2.73]); the measured envelope period tracks pi*h, not 2.37*h",
)
def test_a3_prefactor_h400(sweep):
    row = sweep.rows[-1]
    prefactor = row.t_slow / row.h
    print(f"A3: prefactor at h=400 is {prefactor:.4f}")
    assert abs(prefactor - 2.37) <= 0.15 * 2.37


@pytest.mark.xfail(
    strict=True,
    reason="T_slow at h=100 measures 327.2, outside 237+-15%: same pi-vs-2.37 "
           "prefactor disagreement as the h=400 row",
)
def test_a3_slow_period_magnitude(sweep):
    t100 = sweep.rows[1].t_slow
    print(f"A3: T_slow(100) = {t100:.4f}")
    assert abs(t100 - 237.0) <= 0.15 * 237.0


def test_a3_period_doubles_with_field(sweep):
    t100 = sweep.rows[1].t_slow
    t200 = sweep.rows[2].t_slow
    print(f"A3: T(200)/T(100) = {t200 / t100:.4f}")
    assert t200 / t100 == pytest.approx(2.0, rel=0.10)


@pytest.mark.xfail(
    strict=True,
    reason="the coupling prefactor alpha extracted from the h=400 period is "
           "1.0152, outside 1.32+-20%; consistent with the closed-form mapping "
           "J_eff = pi/T_slow where alpha -> 1",
)
def test_a3_alpha_prefactor(sweep):
    print(f"A3: alpha = {sweep.fit.alpha:.4f}")
    assert abs(sweep.fit.alpha - 1.32) <= 0.2 * 1.32


def test_a3_weak_field_fidelity(sweep):
    weak = sweep_field([10.0])
    f_weak = weak.rows[0].f_max
    f_ref = sweep.rows[1].f_max
    print(f"A3: F_max(h=10) {f_weak:.5f} < F_max(h=100) {f_ref:.5f}; "
          f"flag: {weak.rows[0].flag!r}")
    assert f_weak < f_ref
    # the weak-field envelope never completes inside the window: flagged row
    assert weak.rows[0].flag is not None


# --------------------------------------------------- A4: anisotropy structure

def test_a4_reference_cell(heatmap):
    value = heatmap.f_max[9, 5]
    assert heatmap.g_values[9] == 1.0 and heatmap.d_values[5] == pytest.approx(0.5)
    print(f"A4: F_max(g=1, d=0.5) = {value:.6f}")
    assert value >= 0.999


def test_a4_g_zero_row_frozen(heatmap):
    worst = heatmap.f_max[0].max()
    print(f"A4: max F over g=0 row = {worst:.6f}")
    assert worst <= 0.55


def test_a4_d_zero_column_degraded(heatmap):
    worst = heatmap.f_max[:, 0].max()
    print(f"A4: max F over d=0 column = {worst:.6f}")
    assert worst < 0.99


@pytest.fixture(scope="module")
def frozen_runs():
    return {
        0.5: run_reference(replace(BASE, g=0.0), include_mutual_info=False),
        0.0: run_reference(replace(BASE, g=0.0, d=0.0), include_mutual_info=False),
    }


@pytest.mark.xfail(
    strict=True,
    reason="C12 at g=0 is constant only to 2.7e-3 (d=0.5) and 2.5e-4 (d=0), "
           "not 1e-6: the Ising leg coupling weakly entangles the frozen rung "
           "with its neighbours even though no excitation moves",
)
def test_a4_frozen_dynamics_strict(frozen_runs):
    dev = {d: np.abs(run.pair_concurrence["12"].values - 1.0).max()
           for d, run in frozen_runs.items()}
    print(f"A4: max |C12 - 1| at g=0: d=0.5 -> {dev[0.5]:.3e}, d=0 -> {dev[0.0]:.3e}")
    assert dev[0.5] <= 1e-6
    assert dev[0.0] <= 1e-6


def test_a4_frozen_dynamics_flatness(frozen_runs):
    # the loose version that does hold: both g=0 runs keep C12 pinned at
    # unity to 1e-2 and are indistinguishable from each other at that level
    c_05 = frozen_runs[0.5].pair_concurrence["12"].values
    c_00 = frozen_runs[0.0].pair_concurrence["12"].values
    print(f"A4: flatness d=0.5 {np.abs(c_05 - 1).max():.2e}, "
          f"d=0 {np.abs(c_00 - 1).max():.2e}, "
          f"pointwise gap {np.abs(c_05 - c_00).max():.2e}")
    assert np.abs(c_05 - 1.0).max() <= 1e-2
    assert np.abs(c_00 - 1.0).max() <= 1e-2
    assert np.abs(c_05 - c_00).max() <= 1e-2


# ---------------------------------------------------- A5: disorder robustness

def test_a5_disorder_bands(disorder):
    bands = {0.05: 0.998, 0.10: 0.995, 0.20: 0.985}
    for delta, floor in bands.items():
        stats = disorder[delta]
        print(f"A5: delta={delta} <F_max> = {stats.mean_peak_fidelity:.5f} "
              f"+- {stats.std_peak_fidelity:.5f}")
        assert stats.n_samples == 200
        assert stats.mean_peak_fidelity >= floor
    assert disorder[0.20].mean_fidelity.values.min() >= 0.49


def test_a5_determinism_bitwise(disorder):
    again = disorder_ensemble(0.05, 200, base_seed=42)
    assert again.mean_peak_fidelity == disorder[0.05].mean_peak_fidelity
    assert np.array_equal(again.peak_fidelities, disorder[0.05].peak_fidelities)
    assert np.array_equal(again.mean_fidelity.values,
                          disorder[0.05].mean_fidelity.values)


# --------------------------------------------------------- A6: scaling study

def test_a6_mediating_pairs_dark(scaling):
    for n in (4, 5):
        traj = scaling[n]
        mediators = list(traj.pair_concurrence)[1:-1]
        worst = {m: traj.pair_concurrence[m].values.max() for m in mediators}
        print(f"A6: N={n} mediator maxima {{{', '.join(f'{k}: {v:.4f}' for k, v in worst.items())}}}")
        assert all(v <= 0.1 for v in worst.values())


@pytest.mark.xfail(
    strict=True,
    reason="terminal first-peak times measure 1.0773 (N=3), 1.0798 (N=4), "
           "1.0794 (N=5): the N=4 -> 5 step decreases, so the claimed strict "
           "increase with N does not hold at these sizes",
)
def test_a6_first_peak_time_increases(scaling):
    times = [first_peak_time(scaling[n]) for n in (3, 4, 5)]
    print(f"A6: first peak times {[round(t, 4) for t in times]}")
    assert times[0] < times[1] < times[2]


@pytest.mark.xfail(
    strict=True,
    reason="terminal peak concurrences measure 0.999624 (N=3), 0.999887 (N=4), "
           "0.999866 (N=5): rising from N=3 to N=4, then falling; non-monotonic, "
           "not non-increasing, over [0, 10]",
)
def test_a6_peak_concurrence_non_increasing(scaling):
    peaks = [scaling[n].pair_concurrence[scaling[n].terminal_label].values.max()
             for n in (3, 4, 5)]
    print(f"A6: terminal peaks {[round(p, 6) for p in peaks]}")
    assert peaks[0] >= peaks[1] >= peaks[2]


# ------------------------------------- A7: mutual-information consistency

@pytest.mark.xfail(
    strict=True,
    reason="max |I/2 - C| along the reference run measures 0.1509 for pair "
           "(1,2) and 0.1508 for (5,6), far above 0.02: I/2 = C holds only "
           "near concurrence extrema, not pointwise through the swap",
)
def test_a7_mutual_info_tracks_pointwise(ref_mi):
    dev12 = np.abs(ref_mi.mutual_info["I12"].values / 2.0
                   - ref_mi.pair_concurrence["12"].values).max()
    dev56 = np.abs(ref_mi.mutual_info["I56"].values / 2.0
                   - ref_mi.pair_concurrence["56"].values).max()
    print(f"A7: max |I/2 - C| = {dev12:.4f} (12), {dev56:.4f} (56)")
    assert dev12 <= 0.02
    assert dev56 <= 0.02


def test_a7_joint_mutual_info_small(ref_mi):
    worst = ref_mi.mutual_info["I12_56"].values.max()
    print(f"A7: max I(12:56) = {worst:.5f} bits")
    assert worst <= 0.1


# ------------------------------------------------------- A8: metric oracles
#
# On the kernels the drivers run: _concurrence_many, and _entropy_many of
# _reduced_many's rhos.

def test_a8_werner_concurrence():
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    for p in (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0):
        rho = p * np.outer(phi, phi) + (1.0 - p) * np.eye(4) / 4.0
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert _concurrence_many(rho[None].astype(complex))[0] == pytest.approx(expected, abs=1e-9)


def test_a8_local_unitary_invariance_1000():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        c_rotated, c_rho = _concurrence_many(np.stack([rotated, rho]))
        worst = max(worst, abs(c_rotated - c_rho))
    print(f"A8: worst LU deviation over 1000 full-rank cases = {worst:.3e}")
    assert worst <= 1e-9


def test_a8_marginal_entropies_match():
    rng = np.random.default_rng(11)
    states = np.column_stack([haar_state(rng, 64) for _ in range(300)])
    s_a, s_b = (_entropy_many(_reduced_many(states, _layout(np.arange(64), keep, 6)))
                for keep in ([1, 2], [3, 4, 5, 6]))
    worst = np.abs(s_a - s_b).max()
    print(f"A8: worst |S_A - S_B| over 300 pure states = {worst:.3e}")
    assert worst <= 1e-9


def test_a8_unitarity_and_energy_conservation():
    ham = build_hamiltonian(BASE)
    decomp = diagonalize(ham)
    psi0 = build_initial_state("phi_plus", BASE)
    [(_, block)] = iter_evolved(decomp, psi0, TimeGrid(0.0, 10.0, 101))
    states = block.T
    norms = np.linalg.norm(states, axis=1)
    e0 = float(np.real(psi0.conj() @ ham @ psi0))
    energies = np.real(np.einsum("ki,ij,kj->k", states.conj(), ham, states))
    print(f"A8: max |norm - 1| {np.abs(norms - 1).max():.2e}, "
          f"max energy drift {np.abs(energies - e0).max():.2e} (E0 = {e0})")
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert np.abs(energies - e0).max() <= 1e-9 * abs(e0)


# --------------------------------------- A9: effective-model consistency

def test_a9_agreement_at_h400(eff_rows):
    errors = {row.h: row.relative_error for row in eff_rows}
    print("A9: relative errors", {h: f"{e:.4%}" for h, e in errors.items()})
    assert errors[400.0] <= 0.10


@pytest.mark.xfail(
    strict=True,
    reason="relative errors measure 0.72% (h=100), 1.47% (h=200), 3.68% "
           "(h=400): increasing, not decreasing. The coupling is mapped from "
           "the measured full-ladder period, so the residual is envelope-"
           "extractor bias on an ever-shallower envelope, which grows with h",
)
def test_a9_error_decreases_with_field(eff_rows):
    errors = [row.relative_error for row in eff_rows]
    print(f"A9: errors across h = 100, 200, 400: "
          f"{', '.join(f'{e:.4%}' for e in errors)}")
    assert errors[0] > errors[1] > errors[2]
