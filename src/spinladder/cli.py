"""Command-line front end.

Usage: spinladder <experiment> [--config FILE] [--key value ...] --out DIR

One subcommand per experiment. Every config key is also a flag; flags
override the config file. Each run writes CSV results plus a JSON sidecar
into the output directory.

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
import os
import sys
from dataclasses import asdict, astuple, fields, replace

import numpy as np

from . import __version__
from .errors import (ConfigurationError, InsufficientDataError,
                     InvalidArgumentError, NumericFailureError, OutputError)
from .experiments import FREQ_GRID
from .lattice import dressed_gap
from . import experiments, io, signals


# Subcommands whose measurement needs more than the reference window get
# their own grid defaults; an explicit t_end or n_points still wins.
_COMMAND_DEFAULTS = {"freq-table": {"t_end": FREQ_GRID.t_end, "n_points": FREQ_GRID.n_points}}

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
    # Every subcommand takes the same flags: build them once, share them as a parent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key = value config file")
    common.add_argument("--out", metavar="DIR", required=True, help="output directory")
    for field in fields(io.ExperimentConfig):
        flag = "--" + field.name.replace("_", "-")
        names = [flag] if flag == "--" + field.name else [flag, "--" + field.name]
        common.add_argument(*names, dest="cfg_" + field.name, metavar="V", default=None)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=f"run the {name} experiment")
    return parser


def _resolve_config(args, command):
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {args.config}: {exc.strerror}")
        file_values = io.parse_config_text(text)
    flag_values = {name: value for name, value in vars(args).items()
                   if name.startswith("cfg_") and value is not None}
    flag_values = io.convert_overrides(
        {name[len("cfg_"):]: value for name, value in flag_values.items()})
    return io.build_config(_COMMAND_DEFAULTS.get(command, {}), file_values, flag_values)


def _common_extras(config):
    return {
        "config": io.config_echo(config),
        "seed": config.seed,
        "version": __version__,
    }


def _out(args, name):
    return os.path.join(args.out, name)


def _write_rows(args, config, name, rows, header):
    """name.csv with one line per row dataclass, and name.json echoing the rows."""
    io.write_table([astuple(r) for r in rows], _out(args, f"{name}.csv"), header)
    extras = _common_extras(config)
    extras["rows"] = [asdict(r) for r in rows]
    io.write_sidecar(_out(args, f"{name}.json"), extras)


def cmd_reference(args, config):
    params = io.config_params(config)
    traj = experiments.run_reference(params, state_kind=config.state,
                                     grid=io.config_grid(config))
    extras = _common_extras(config)
    extras["omega_fast"] = dressed_gap(params)
    terminal = traj.pair_concurrence[traj.terminal_label]
    try:
        extras["t_slow"] = signals.envelope_period(terminal)
    except InsufficientDataError:
        pass  # window too short for the slow envelope, leave it out
    io.write_trajectory(traj, _out(args, "trajectory.csv"),
                        _out(args, "trajectory.json"), extras)
    return 0


def cmd_field_sweep(args, config):
    params = io.config_params(config)
    result = experiments.sweep_field(io.config_floats(config, "h_values"), params)
    io.write_sweep(result, _out(args, "sweep.csv"), _out(args, "sweep.json"),
                   _common_extras(config))
    return 0


def cmd_heatmap(args, config):
    params = io.config_params(config)
    g_values = np.linspace(config.g_min, config.g_max, config.n_g)
    d_values = np.linspace(config.d_min, config.d_max, config.n_d)
    heatmap = experiments.anisotropy_heatmap(g_values, d_values, params,
                                             grid=io.config_grid(config))
    io.write_heatmap(heatmap, _out(args, "heatmap.csv"), _out(args, "heatmap.json"),
                     _common_extras(config))
    return 0


def cmd_disorder(args, config):
    params = io.config_params(config)
    grid = io.config_grid(config)
    tags = {}  # file tag -> delta: deltas equal to 6 significant digits would write the same files
    for delta in io.config_floats(config, "deltas"):
        tag = f"delta{delta:g}"
        if tag in tags:
            raise ConfigurationError(f"deltas {tags[tag]!r} and {delta!r} share the file tag {tag}", key="deltas")
        tags[tag] = delta
    for tag, delta in tags.items():
        stats = experiments.disorder_ensemble(delta, config.n_samples, config.seed,
                                              params, grid=grid)
        io.write_ensemble(stats, _out(args, f"disorder_{tag}_curves.csv"),
                          _out(args, f"disorder_{tag}_peaks.csv"),
                          _out(args, f"disorder_{tag}.json"),
                          _common_extras(config))
    return 0


def cmd_scaling(args, config):
    grid = io.config_grid(config)
    summary = _common_extras(config)
    summary["runs"] = []
    # Every size's ladder is built, its field_mask resolved for that size and
    # checked, before the first run.
    ladders = [io.config_params(replace(config, n_rungs=int(n))) for n in io.config_floats(config, "n_values")]
    for params in ladders:
        n = params.n_rungs
        traj = experiments.scaling_run(n, params, grid=grid, state_kind=config.state,
                                       field_mask=params.field_mask)
        io.write_trajectory(traj, _out(args, f"scaling_n{n}.csv"))
        terminal = traj.pair_concurrence[traj.terminal_label]
        peaks = signals.find_peaks(terminal, signals.ENVELOPE_PROMINENCE)
        entry = dict(io.trajectory_summary(traj))
        entry["n_rungs"] = n
        if peaks:
            entry["first_peak_time"], entry["first_peak_value"] = peaks[0]
        summary["runs"].append(entry)
    io.write_sidecar(_out(args, "scaling.json"), summary)
    return 0


def cmd_freq_table(args, config):
    params = io.config_params(config)
    rows = experiments.frequency_table(io.config_floats(config, "d_values"), params,
                                       grid=io.config_grid(config))
    _write_rows(args, config, "freq_table", rows, ["d", "predicted", "measured", "ratio"])
    return 0


def cmd_effective_check(args, config):
    params = io.config_params(config)
    rows = experiments.effective_model_check(params, io.config_floats(config, "eff_h_values"))
    _write_rows(args, config, "effective_check", rows,
                ["h", "T_slow_full", "J_eff", "alpha", "T_slow_effective", "rel_error"])
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
    except (OutputError, OSError) as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
