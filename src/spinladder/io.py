"""Config parsing and on-disk result formats.

Configs are flat `key = value` lines with `#` comments; command-line flags
override file values. Results are CSV tables plus a JSON sidecar carrying
the full resolved config, so every output can be re-run bitwise from its
own sidecar. Floats are serialized with repr, which round-trips exactly.
"""

import json
import math
import os
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import ConfigurationError, OutputError
from .lattice import INITIAL_STATE_KINDS, LadderParams, mediating_mask, uniform_mask
from .evolution import TimeGrid
from .experiments import DEFAULT_GRID

_REFERENCE = LadderParams()


@dataclass
class ExperimentConfig:
    """All knobs for one experiment invocation, after defaulting.

    Defaults are the reference set: the ladder of LadderParams() (N = 3,
    J_perp = J_parallel = 1, g = 1, d = 0.5, h = 100, field on the mediating
    rungs), the Bell pair on rung 1, the time grid of
    experiments.DEFAULT_GRID (t in [0, 10] with 4001 points), seed 42.
    """

    n_rungs: int = _REFERENCE.n_rungs
    j_perp: float = _REFERENCE.j_perp
    j_parallel: float = _REFERENCE.j_parallel
    g: float = _REFERENCE.g
    d: float = _REFERENCE.d
    h: float = _REFERENCE.h
    field_mask: str = "mediating"
    state: str = "phi_plus"
    t_end: float = DEFAULT_GRID.t_end
    n_points: int = DEFAULT_GRID.n_points
    seed: int = 42
    # field-sweep / effective-check
    h_values: str = "50,100,200,400"
    eff_h_values: str = "100,200,400"
    # heatmap
    g_min: float = 0.0
    g_max: float = 1.0
    n_g: int = 10
    d_min: float = 0.0
    d_max: float = 0.9
    n_d: int = 10
    # disorder
    deltas: str = "0.05,0.1,0.2"
    n_samples: int = 200
    # scaling
    n_values: str = "4,5"
    # freq-table
    d_values: str = "0,0.1,0.5,1.0"


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}

#: Keys holding comma-separated lists, with the type of their entries. They
#: stay strings in the config, so the sidecar echo keeps the text as given.
_LIST_KEYS = {"h_values": float, "eff_h_values": float, "deltas": float, "d_values": float,
              "n_values": int}


def _split(text, kind):
    return [kind(tok) for tok in text.split(",") if tok.strip()]


def _convert(key, raw, line=None):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        value = kind(raw) if kind in (int, float) else raw
        entries = _split(raw, _LIST_KEYS[key]) if key in _LIST_KEYS else [value]
    except ValueError:
        what = f"comma-separated {_LIST_KEYS[key].__name__} values" if key in _LIST_KEYS else kind
        raise ConfigurationError(f"cannot parse {raw!r} as {what}", key=key, line=line) from None
    problem = _refusal(key, value, entries)
    if problem is not None:
        raise ConfigurationError(problem, key=key, line=line)
    return value


#: The largest ladder a config may ask for. A check on the config, not a limit of the library,
#: whose builder and eigensolver take larger ladders.
MAX_DENSE_RUNGS = 5

#: The least and the greatest value of a key, or of every entry of a list key.
_LEAST = {"n_rungs": 2, "n_points": 2, "n_g": 1, "n_d": 1, "n_samples": 1, "n_values": 3, "deltas": 0.0, "seed": 0}
_MOST = {"n_rungs": MAX_DENSE_RUNGS, "n_values": MAX_DENSE_RUNGS}


def _refusal(key, value, entries):
    """Why a value (a list key's entries, or the value alone) is refused whatever the other keys hold, or None."""
    if not entries:
        return f"{key} must list at least one value"
    if float in (_FIELD_TYPES[key], _LIST_KEYS.get(key)) and not all(map(math.isfinite, entries)):
        return f"{key} must be finite, got {value}"
    if key in _LIST_KEYS and len(set(entries)) < len(entries):
        return f"{key} must not repeat a value, got {value}"
    if key == "t_end" and value <= 0:
        return "t_end must be positive"
    if key in _LEAST and (min(entries) < _LEAST[key] or any(math.copysign(1, entry) < 0 for entry in entries)):
        return f"{key} must be >= {_LEAST[key]}, got {value}"
    if key in _MOST and max(entries) > _MOST[key]:
        return f"{key} must be <= {_MOST[key]}, got {value}"
    if key == "state" and value not in INITIAL_STATE_KINDS:
        return f"state must be one of {INITIAL_STATE_KINDS}"
    if key == "field_mask" and value not in ("mediating", "uniform"):
        try:
            rungs = _split(value, int)
        except ValueError:
            return "field_mask must be 'mediating', 'uniform', or comma-separated rung indices"
        if not rungs:
            return "field_mask must list at least one rung"
    return None


def parse_config_text(text):
    """Raw `key = value` lines to a typed dict; errors carry the line number."""
    values = {}
    # Only "\n" ends a line: str.splitlines would also break on form feeds,
    # vertical tabs, U+2028 and the like, and so misnumber the lines after them.
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"expected 'key = value', got {raw_line.strip()!r}", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigurationError("unknown config key", key=key, line=lineno)
        values[key] = _convert(key, raw, line=lineno)
    return values


def convert_overrides(overrides):
    values = {}
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigurationError("unknown config key", key=key)
        values[key] = _convert(key, str(raw))
    return values


def build_config(*value_dicts):
    """Merge value dicts left to right (later wins) into a config.

    Whether an explicit field_mask fits a ladder size is LadderParams' check (config_params).
    """
    values = {}
    for d in value_dicts:
        values.update(d)
    return ExperimentConfig(**values)


def config_params(config):
    """LadderParams described by a config."""
    if config.field_mask == "mediating":
        mask = mediating_mask(config.n_rungs)
    elif config.field_mask == "uniform":
        mask = uniform_mask(config.n_rungs)
    else:
        mask = frozenset(_split(config.field_mask, int))
    return LadderParams(n_rungs=config.n_rungs, j_perp=config.j_perp,
                        j_parallel=config.j_parallel, g=config.g, d=config.d,
                        h=config.h, field_mask=mask)


def config_grid(config):
    return TimeGrid(0.0, config.t_end, config.n_points)


def config_floats(config, key):
    return _split(getattr(config, key), float)


def config_echo(config):
    return {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def _write_text(path, text):
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(f"could not write {exc.strerror or exc}", path=path) from exc


def write_sidecar(path, summary):
    """JSON summary next to a CSV; floats keep full precision through repr.

    np.float64 is a float subclass and is written as one; other NumPy
    scalars and arrays are written through tolist().
    """
    _write_text(path, json.dumps(summary, indent=2, default=lambda obj: obj.tolist()) + "\n")


def trajectory_summary(traj):
    """Scalar digest of a trajectory: F_max and its time if F was measured, per-pair max concurrence."""
    summary = {}
    fid = traj.fidelity_terminal
    if fid is not None:
        k = int(np.argmax(fid.values))
        summary.update(f_max=float(fid.values[k]), f_argmax_time=float(traj.grid.times[k]))
    summary["max_concurrence"] = {label: float(s.values.max())
                                  for label, s in traj.pair_concurrence.items()}
    return summary


def write_trajectory(traj, csv_path, sidecar_path=None, extras=None):
    """CSV with one row per grid point, plus an optional JSON summary sidecar.

    Header: t, one concurrence column per rung pair, F if fidelity was
    measured, then any mutual-information channels.
    """
    labels = list(traj.pair_concurrence)
    header = ["t"] + [f"C{label}" for label in labels]
    columns = [traj.grid.times] + [traj.pair_concurrence[label].values for label in labels]
    if traj.fidelity_terminal is not None:
        header.append("F")
        columns.append(traj.fidelity_terminal.values)
    if traj.mutual_info:
        header += list(traj.mutual_info)
        columns += [series.values for series in traj.mutual_info.values()]
    _write_columns(columns, csv_path, header)
    if sidecar_path is not None:
        summary = dict(extras or {})
        summary.update(trajectory_summary(traj))
        write_sidecar(sidecar_path, summary)


def write_table(rows, csv_path, header):
    """CSV writer: the header line, then one line per row of values."""
    _write_columns(list(zip(*rows)), csv_path, header)


def _write_columns(columns, csv_path, header):
    """CSV writer over columns of equal length: the header line, then one line per row."""
    cells = [_column_cells(column) for column in columns]
    _write_text(csv_path, "\n".join([",".join(header)] + [",".join(row) for row in zip(*cells)]) + "\n")


def _column_cells(column):
    """One column's CSV cells, each as _fmt writes it.

    A column of numbers is converted to floats once, through tolist(); only
    a column holding None or str cells goes through _fmt cell by cell.
    """
    if not isinstance(column, np.ndarray) and any(v is None or isinstance(v, str) for v in column):
        return [_fmt(v) for v in column]
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def write_sweep(result, csv_path, sidecar_path, extras):
    write_table([astuple(r) for r in result.rows], csv_path, ["h", "T_slow", "F_max", "flag"])
    summary = dict(extras)
    if result.fit is not None:
        summary["fit"] = {
            "slope": result.fit.slope,
            "intercept": result.fit.intercept,
            "r_squared": result.fit.r_squared,
            "alpha": result.fit.alpha,
        }
    summary["rows"] = [
        {**asdict(r), "prefactor": None if r.t_slow is None or r.h <= 0 else r.t_slow / r.h}
        for r in result.rows
    ]
    write_sidecar(sidecar_path, summary)


def write_heatmap(heatmap, csv_path, sidecar_path, extras):
    """Matrix CSV: first row lists d values, first column lists g values."""
    write_table([(g, *row) for g, row in zip(heatmap.g_values, heatmap.f_max)], csv_path,
                ["g\\d"] + [_fmt(d) for d in heatmap.d_values])
    best = np.unravel_index(int(np.argmax(heatmap.f_max)), heatmap.f_max.shape)
    summary = dict(extras)
    summary.update({
        "f_max_overall": float(heatmap.f_max.max()),
        "f_max_cell": {"g": float(heatmap.g_values[best[0]]),
                       "d": float(heatmap.d_values[best[1]])},
        "f_min_overall": float(heatmap.f_max.min()),
    })
    write_sidecar(sidecar_path, summary)


def write_ensemble(stats, curves_csv_path, peaks_csv_path, sidecar_path, extras):
    """Mean/std fidelity curves and per-realization peak fidelities."""
    curves = [stats.mean_fidelity.times, stats.mean_fidelity.values, stats.std_fidelity.values]
    _write_columns(curves, curves_csv_path, ["t", "mean_F", "std_F"])
    peaks = [(k, v) for k, v in enumerate(stats.peak_fidelities)]
    write_table(peaks, peaks_csv_path, ["realization", "F_max"])
    summary = dict(extras)
    summary.update({
        "delta": stats.delta,
        "n_samples": stats.n_samples,
        "mean_peak_fidelity": stats.mean_peak_fidelity,
        "std_peak_fidelity": stats.std_peak_fidelity,
    })
    write_sidecar(sidecar_path, summary)

