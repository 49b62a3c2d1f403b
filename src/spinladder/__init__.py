"""Entanglement transfer on a two-leg spin-1/2 XXZ ladder.

Simulates a Bell pair injected on the first rung and carried to the last
rung by leg couplings, with a strong transverse-axis field on the rungs in
between freezing the mediators. Real parity-sector exact diagonalization:
the real Hamiltonian is built only on the initial state's spin-flip parity
sector and diagonalized only on the leg-swap x mirror blocks of it that the
state occupies, so system sizes are desk-scale (up to five rungs).
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, InsufficientDataError,
                     InvalidArgumentError, NumericFailureError, OutputError,
                     UnsupportedSizeError)
from .lattice import (INITIAL_STATE_KINDS, LadderParams, bond_hamiltonian,
                      build_hamiltonian, build_initial_state, dressed_gap,
                      ladder_terms, leg_bonds, mediating_mask, parity_sector,
                      symmetry_blocks, uniform_mask)
from .evolution import (SpectralDecomposition, TimeGrid, diagonalize,
                        evolve_state, iter_evolved)
from .metrics import (bell_fidelity, concurrence, mutual_information,
                      partial_trace, von_neumann_entropy)
from .signals import (FitResult, TimeSeries, dominant_frequency,
                      effective_coupling_from_period, envelope_period,
                      extract_alpha, find_peaks, loglog_fit)
from .experiments import (DisorderRealization, EnsembleStats, HeatmapGrid,
                          SweepResult, SweepRow, Trajectory,
                          anisotropy_heatmap, build_effective_hamiltonian,
                          disorder_ensemble, disorder_realization,
                          effective_model_check, evolve_and_measure, frequency_table,
                          run_reference, scaling_run, sweep_field)

__all__ = [name for name in dir() if not name.startswith("_")]
