"""Command-line front end.

Usage: spinladder <experiment> [--config FILE] [--key value ...] --out DIR

One parser: the experiment is a positional choice, and every config key is
a flag declared once, given before or after it; flags override the config
file. Each run writes CSV results plus a JSON sidecar into the output
directory.

Exit codes: 0 success, 2 bad configuration or arguments, 3 numeric failure
during diagonalization or analysis, 4 output could not be written.

Allocator policy: on Linux, main first asks glibc malloc to serve blocks of
up to 32 MiB from its heap and not to trim freed heap memory during the run
(mallopt M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 1 GiB). Every
evolution chunk allocates and frees arrays of 0.25-17 MB; with glibc's
defaults the freed top of the heap goes back to the kernel, and the next
chunk page-faults the same memory in again, which is the largest cost of a
short run such as a 40-sample disorder ensemble. Keeping the memory for
reuse costs little peak RSS, because each chunk frees what the next one
allocates. The mmap threshold is set first and the trim threshold only if
glibc accepted it: setting either turns off glibc's dynamic adjustment, and
a trim threshold alone would freeze the mmap threshold at 128 KiB. On other
platforms, or a libc without mallopt, the allocator is left as it is.
Importing this module changes nothing; library callers keep the default
allocator.
"""

import argparse
import ctypes
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .errors import ConfigurationError, InsufficientDataError, InvalidArgumentError, NumericFailureError
from .experiments import FREQ_GRID
from .lattice import dressed_gap
from . import experiments, io, signals


# Experiments whose measurement needs more than the reference window get
# their own grid defaults; an explicit t_end or n_points still wins.
_COMMAND_DEFAULTS = {"freq-table": {"t_end": FREQ_GRID.t_end, "n_points": FREQ_GRID.n_points}}

#: Keys that some experiments do not read, with those experiments and why. Such an experiment
#: refuses any value of the key other than the default, before any output is written.
_UNREAD = {
    "state": (("field-sweep", "heatmap", "disorder", "freq-table", "effective-check"), "evolves phi_plus only"),
    "t_end": (("field-sweep", "effective-check"), "sizes its own carrier-resolving grids"),
    "n_points": (("field-sweep", "effective-check"), "sizes its own carrier-resolving grids"),
}

#: glibc mallopt parameters and the values main gives them (see the module docstring).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's own ceiling for its dynamic threshold on 64-bit
_TRIM_THRESHOLD_BYTES = 1 << 30   # no trimming during a run


def _retain_freed_heap():
    """Keep freed heap memory in the process for reuse, on glibc only."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spinladder",
        description="Entanglement transfer experiments on a two-leg XXZ ladder.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("experiment", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    parser.add_argument("--out", metavar="DIR", required=True, help="output directory")
    for field in fields(io.ExperimentConfig):
        flag = "--" + field.name.replace("_", "-")
        names = [flag] if flag == "--" + field.name else [flag, "--" + field.name]
        parser.add_argument(*names, dest=field.name, metavar="V")
    return parser


def _resolve_config(args, command):
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8-sig") as handle:  # a leading byte-order mark is dropped
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {args.config}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {args.config} is not UTF-8 text (byte {exc.start})") from None
        file_values = io.parse_config_text(text)
    flags = {field.name: getattr(args, field.name) for field in fields(io.ExperimentConfig)}
    flag_values = io.convert_overrides({name: value for name, value in flags.items() if value is not None})
    config = io.build_config(_COMMAND_DEFAULTS.get(command, {}), file_values, flag_values)
    default = io.ExperimentConfig()
    for key, (commands, reason) in _UNREAD.items():
        if command in commands and getattr(config, key) != getattr(default, key):
            raise ConfigurationError(f"{command} {reason}, got {getattr(config, key)}", key=key)
    return config


def cmd_reference(args, config):
    params = io.config_params(config)
    traj = experiments.run_reference(params, state_kind=config.state,
                                     grid=io.config_grid(config))
    analysis = {"omega_fast": dressed_gap(params)}
    terminal = traj.pair_concurrence[traj.terminal_label]
    try:
        analysis["t_slow"] = signals.envelope_period(terminal)
    except InsufficientDataError:
        pass  # window too short for the slow envelope, leave it out
    io.write_trajectory(traj, args.out, config, analysis)
    return 0


def cmd_field_sweep(args, config):
    params = io.config_params(config)
    result = experiments.sweep_field(io.config_floats(config, "h_values"), params)
    io.write_sweep(result, args.out, config)
    return 0


def cmd_heatmap(args, config):
    params = io.config_params(config)
    g_values = np.linspace(config.g_min, config.g_max, config.n_g)
    d_values = np.linspace(config.d_min, config.d_max, config.n_d)
    heatmap = experiments.anisotropy_heatmap(g_values, d_values, params,
                                             grid=io.config_grid(config))
    io.write_heatmap(heatmap, args.out, config)
    return 0


def cmd_disorder(args, config):
    params = io.config_params(config)
    grid = io.config_grid(config)
    ensembles = [experiments.disorder_ensemble(delta, config.n_samples, config.seed, params, grid=grid)
                 for delta in io.config_floats(config, "deltas")]  # all run before any file is written
    for stats in ensembles:
        io.write_ensemble(stats, args.out, config)
    return 0


def cmd_scaling(args, config):
    grid = io.config_grid(config)
    # Every size's ladder is built, its field_mask resolved for that size and
    # checked, before the first run.
    ladders = [io.config_params(replace(config, n_rungs=int(n))) for n in io.config_floats(config, "n_values")]
    runs = {}
    for params in ladders:
        traj = experiments.run_reference(params, config.state, grid, include_mutual_info=False)
        terminal = traj.pair_concurrence[traj.terminal_label]
        try:
            peaks = signals.find_peaks(terminal, signals.ENVELOPE_PROMINENCE)
        except InsufficientDataError:
            peaks = []  # a grid too short for peaks has none; the entry has no first peak
        runs[params.n_rungs] = (traj, peaks[0] if peaks else None)
    io.write_scaling(runs, args.out, config)
    return 0


def cmd_freq_table(args, config):
    params = io.config_params(config)
    rows = experiments.frequency_table(io.config_floats(config, "d_values"), params,
                                       grid=io.config_grid(config))
    io.write_rows(rows, args.out, config)
    return 0


def cmd_effective_check(args, config):
    params = io.config_params(config)
    rows = experiments.effective_model_check(params, io.config_floats(config, "eff_h_values"))
    io.write_rows(rows, args.out, config)
    return 0


_COMMANDS = {
    "reference": cmd_reference,
    "field-sweep": cmd_field_sweep,
    "heatmap": cmd_heatmap,
    "disorder": cmd_disorder,
    "scaling": cmd_scaling,
    "freq-table": cmd_freq_table,
    "effective-check": cmd_effective_check,
}


def main(argv=None):
    _retain_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _resolve_config(args, args.experiment)
        return _COMMANDS[args.experiment](args, config)
    except (ConfigurationError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, InsufficientDataError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
