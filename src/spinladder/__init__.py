"""Entanglement transfer on a two-leg spin-1/2 XXZ ladder.

Simulates a Bell pair injected on the first rung and carried to the last
rung by leg couplings, with a strong transverse-axis field on the rungs in
between freezing the mediators. Real parity-sector exact diagonalization:
the real Hamiltonian is built only on the initial state's spin-flip parity
sector and diagonalized only on the leg-swap x mirror blocks of it that the
state occupies, so the sizes the CLI runs (up to five rungs) are desk-scale.
"""

__version__ = "0.1.0"

import os as _os

# One BLAS thread, set before NumPy is first imported, when BLAS reads it:
# evolution.evolve already runs a run's chunks on every usable core, so BLAS
# threads only contend with its workers, and OpenBLAS rounds a product
# differently at each thread count, so outputs would follow the CPU count.
# setdefault leaves a value the user set in force, with that count's bytes.
# VECLIB_MAXIMUM_THREADS is Accelerate's, which NumPy's macOS wheels use. A
# process that imported NumPy before spinladder keeps the pool it started.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_variable, "1")

from .errors import (ConfigurationError, InsufficientDataError,
                     InvalidArgumentError, NumericFailureError, OutputError)
from .lattice import (INITIAL_STATE_KINDS, LadderParams, bond_hamiltonian,
                      build_hamiltonian, build_initial_state, dressed_gap,
                      ladder_terms, leg_bonds, mediating_mask, parity_sector,
                      symmetry_blocks, uniform_mask)
from .evolution import SpectralDecomposition, TimeGrid, diagonalize, evolve, iter_evolved
from .signals import (FitResult, TimeSeries, dominant_frequency,
                      effective_coupling_from_period, envelope_period,
                      extract_alpha, find_peaks, loglog_fit)
from .experiments import (DisorderRealization, EnsembleStats, HeatmapGrid,
                          SweepResult, SweepRow, Trajectory,
                          anisotropy_heatmap, build_effective_hamiltonian,
                          disorder_ensemble, disorder_realization,
                          effective_model_check, evolve_and_measure, frequency_table,
                          run_reference, sweep_field)

__all__ = [name for name in dir() if not name.startswith("_")]
