"""Config parsing, CSV/sidecar round trips, and the files each command's writer names."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from spinladder import __version__
from spinladder.errors import ConfigurationError, OutputError
from spinladder.evolution import TimeGrid
from spinladder.experiments import (EffectiveCheckRow, EnsembleStats, FrequencyRow, HeatmapGrid, SweepResult,
                                   SweepRow, Trajectory, evolve_and_measure, rung_pairs)
from spinladder.io import (
    ExperimentConfig,
    build_config,
    config_echo,
    config_floats,
    config_grid,
    config_params,
    parse_config_text,
    write_ensemble,
    write_heatmap,
    write_rows,
    write_scaling,
    write_sidecar,
    write_sweep,
    write_table,
    write_trajectory,
)
from spinladder.lattice import LadderParams
from spinladder.signals import FitResult, TimeSeries

from conftest import parse_config, read_csv, read_sidecar


# -------------------------------------------------------------- config parsing

def test_defaults():
    config = parse_config()
    assert config == ExperimentConfig()
    assert config.n_rungs == 3
    assert config.h == 100.0
    assert config.seed == 42
    assert config.n_points == 4001


def test_parse_values_comments_and_blanks():
    text = """
# reference run, weak field
h = 10          # overrides the default
n_points = 801

state = separable_zero_zero
"""
    config = parse_config(text)
    assert config.h == 10.0
    assert config.n_points == 801
    assert config.state == "separable_zero_zero"
    assert config.g == 1.0  # untouched default


def test_unknown_key_reports_key_and_line():
    text = "h = 10\n\nfoo = 1\n"
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert err.value.key == "foo"
    assert err.value.line == 3
    assert "foo" in str(err.value)
    assert "line 3" in str(err.value)


def test_bad_value_type_reports_key():
    with pytest.raises(ConfigurationError) as err:
        parse_config("n_points = many\n")
    assert err.value.key == "n_points"


def test_malformed_line_reports_line():
    with pytest.raises(ConfigurationError) as err:
        parse_config("h = 10\njust words\n")
    assert err.value.line == 2


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_number_the_lines(separator):
    """A character that str.splitlines breaks on, but that is no newline, stays inside its line.

    The one-line file h = 50<sep>n_points = 1 is refused at line 1, as a
    value of h that does not parse; a CRLF file keeps its line numbers.
    """
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(f"h = 50{separator}n_points = 1")
    assert (err.value.key, err.value.line) == ("h", 1)
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(f"h = 50\r\n# n_points{separator}\r\nn_points = 1\r\n")
    assert (err.value.key, err.value.line) == ("n_points", 3)
    assert parse_config_text("h = 50\r\nn_points = 11\r\n") == {"h": 50.0, "n_points": 11}


def test_out_of_range_rungs_names_key():
    with pytest.raises(ConfigurationError) as err:
        parse_config("n_rungs = 7\n")
    assert err.value.key == "n_rungs"
    with pytest.raises(ConfigurationError):
        parse_config("n_rungs = 1\n")


def test_deltas_sharing_a_file_tag_are_refused_at_parse_time():
    """0.1 and 0.1000001 would both write disorder_delta0.1*: refused with the line, before any command runs."""
    with pytest.raises(ConfigurationError) as err:
        parse_config("n_samples = 2\ndeltas = 0.1, 0.1000001\n")
    assert (err.value.key, err.value.line) == ("deltas", 2)
    assert "deltas 0.1 and 0.1000001 share the file tag delta0.1" in str(err.value)
    assert config_floats(parse_config("deltas = 0.1, 0.100001\n"), "deltas") == [0.1, 0.100001]


def test_overrides_win_over_file():
    config = parse_config("h = 10\nt_end = 20\n", overrides={"h": "25"})
    assert config.h == 25.0
    assert config.t_end == 20.0


def test_unknown_override_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config(overrides={"bogus": "1"})
    assert err.value.key == "bogus"


def test_build_config_merge_order():
    config = build_config({"t_end": 40.0}, {"t_end": 10.0, "h": 50.0})
    assert config.t_end == 10.0
    assert config.h == 50.0


# The file line each input's error names. Only the check that needs two keys
# (field_mask rungs against n_rungs) names none.
_ERROR_LINES = {
    "field_mask = abc\n": 1,
    "n_values = 4,6\n": 1,
    "n_points = 1\n": 1,
    "t_end = 0\n": 1,
    "n_g = 0\n": 1,
    "n_samples = 0\n": 1,
    "state = bell\n": 1,
    "h = 10\nfield_mask = abc\n": 2,
    "h = 10\nn_points = 1\n": 2,
    "h_values = 50,xyz\n": 1,
    "n_values = a\n": 1,
    "h = 10\nh_values = 50,xyz\n": 2,
    "h = 10\neff_h_values = 100;200\n": 2,
    "h = 10\n\ndeltas = 0.1 0.2\n": 3,
    "h = 10\nd_values = 0,x\n": 2,
    "h = 10\nn_values = 4.5\n": 2,
    "h = 10\nn_points = many\n": 2,
    "h_values =\n": 1,
    "h = 10\neff_h_values = ,\n": 2,
    "deltas = \n": 1,
    "h = 10\n\nd_values = , ,\n": 3,
    "n_values =\n": 1,
}


@pytest.mark.parametrize("text,key", [
    ("field_mask = abc\n", "field_mask"),
    ("h_values = 50,xyz\n", "h_values"),
    ("n_values = 4,6\n", "n_values"),
    ("n_values = a\n", "n_values"),
    ("n_points = 1\n", "n_points"),
    ("t_end = 0\n", "t_end"),
    ("n_g = 0\n", "n_g"),
    ("n_samples = 0\n", "n_samples"),
    ("state = bell\n", "state"),
    ("h = 10\nh_values = 50,xyz\n", "h_values"),
    ("h = 10\neff_h_values = 100;200\n", "eff_h_values"),
    ("h = 10\n\ndeltas = 0.1 0.2\n", "deltas"),
    ("h = 10\nd_values = 0,x\n", "d_values"),
    ("h = 10\nn_values = 4.5\n", "n_values"),
    ("h = 10\nn_points = many\n", "n_points"),
    ("h = 10\nfield_mask = abc\n", "field_mask"),
    ("h = 10\nn_points = 1\n", "n_points"),
    ("h_values =\n", "h_values"),
    ("h = 10\neff_h_values = ,\n", "eff_h_values"),
    ("deltas = \n", "deltas"),
    ("h = 10\n\nd_values = , ,\n", "d_values"),
    ("n_values =\n", "n_values"),
])
def test_validation_names_offending_key(text, key):
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    assert err.value.key == key
    assert err.value.line == _ERROR_LINES.get(text)


def test_flag_errors_name_no_line():
    for overrides in ({"n_points": "1"}, {"field_mask": "abc"}, {"n_points": "many"}):
        with pytest.raises(ConfigurationError) as err:
            parse_config(overrides=overrides)
        assert err.value.key == next(iter(overrides))
        assert err.value.line is None


def test_config_params_reference():
    assert config_params(parse_config()) == LadderParams()


def test_config_params_mask_forms():
    assert config_params(parse_config("field_mask = uniform\n")).field_mask == frozenset({1, 2, 3})
    assert config_params(parse_config("field_mask = 1,3\n")).field_mask == frozenset({1, 3})
    assert config_params(parse_config("n_rungs = 4\n")).field_mask == frozenset({2, 3})


def test_config_grid_and_floats():
    config = parse_config("t_end = 5\nn_points = 11\nh_values = 50, 100\n")
    assert config_grid(config) == TimeGrid(0.0, 5.0, 11)
    assert config_floats(config, "h_values") == [50.0, 100.0]
    assert config_floats(config, "deltas") == [0.05, 0.1, 0.2]


def test_config_echo_covers_every_field():
    echo = config_echo(parse_config("h = 7\n"))
    assert echo["h"] == 7.0
    assert set(echo) == {f for f in ExperimentConfig.__dataclass_fields__}


# --------------------------------------------------------------- trajectory csv

def tiny_trajectory():
    grid = TimeGrid(0.0, 1.0, 2)
    c12 = TimeSeries(grid, [1.0, 0.4561128734])
    c56 = TimeSeries(grid, [0.0, 0.1 / 3.0])
    fid = TimeSeries(grid, [0.5, 0.987654321001])
    return Trajectory(grid=grid, pair_concurrence={"12": c12, "56": c56},
                      fidelity_terminal=fid)


def test_trajectory_round_trip(tmp_path):
    traj = tiny_trajectory()
    csv_path = tmp_path / "trajectory.csv"
    side_path = tmp_path / "trajectory.json"
    write_trajectory(traj, str(tmp_path), ExperimentConfig(), {"omega_fast": 2.5})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv", "trajectory.json"]

    text = csv_path.read_text().splitlines()
    assert len(text) == 3  # header + one row per grid point
    assert text[0] == "t,C12,C56,F"

    header, columns = read_csv(str(csv_path))
    assert header == ["t", "C12", "C56", "F"]
    # repr-based float serialization round-trips bitwise
    assert columns["C12"] == [1.0, 0.4561128734]
    assert columns["C56"] == [0.0, 0.1 / 3.0]
    assert columns["F"] == [0.5, 0.987654321001]

    side = read_sidecar(str(side_path))
    # the provenance block, the analysis, then the summary, in that order
    assert list(side) == ["config", "seed", "version", "omega_fast", "f_max", "f_argmax_time", "max_concurrence"]
    assert side["seed"] == 42
    assert side["version"] == __version__
    assert side["omega_fast"] == 2.5
    assert side["f_max"] == 0.987654321001
    assert side["f_argmax_time"] == 1.0
    assert side["max_concurrence"] == {"12": 1.0, "56": 0.1 / 3.0}


def test_trajectory_csv_includes_mutual_info(tmp_path):
    traj = tiny_trajectory()
    mi = {"I12": traj.pair_concurrence["12"], "I12_56": traj.pair_concurrence["56"]}
    traj = Trajectory(grid=traj.grid, pair_concurrence=traj.pair_concurrence,
                      fidelity_terminal=traj.fidelity_terminal, mutual_info=mi)
    write_trajectory(traj, str(tmp_path), name="t")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no config, no sidecar
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == "t,C12,C56,F,I12,I12_56"


def test_trajectory_without_fidelity_round_trip(tmp_path):
    """A run that did not ask for F writes no F column and no F summary keys."""
    grid = TimeGrid(0, 1, 11)
    traj = evolve_and_measure(LadderParams(), grid, rung_pairs(3))
    assert traj.fidelity_terminal is None
    csv_path = tmp_path / "trajectory.csv"
    side_path = tmp_path / "trajectory.json"
    config = ExperimentConfig()
    write_trajectory(traj, str(tmp_path), config)

    header, columns = read_csv(str(csv_path))
    assert header == ["t", "C12", "C34", "C56"]
    assert columns["t"] == grid.times.tolist()
    for label, series in traj.pair_concurrence.items():
        assert columns[f"C{label}"] == series.values.tolist()

    side = read_sidecar(str(side_path))
    assert side == {"config": config_echo(config), "seed": 42, "version": __version__,
                    "max_concurrence": {label: float(series.values.max())
                                                    for label, series in traj.pair_concurrence.items()}}


# ------------------------------------------------------------------- sidecars

def test_sidecar_cleans_numpy_types(tmp_path):
    path = tmp_path / "s.json"
    write_sidecar(str(path), {
        "a": np.float64(0.1), "b": np.int64(3),
        "c": np.array([1.5, 2.5]), "d": {"nested": np.float64(1.0) / 3.0},
        "e": None,
    })
    loaded = read_sidecar(str(path))
    assert loaded == {"a": 0.1, "b": 3, "c": [1.5, 2.5], "d": {"nested": 1.0 / 3.0}, "e": None}
    # plain json, no numpy leakage
    assert json.loads(path.read_text()) == loaded


# ------------------------------------------------------------------- sweep csv

def test_sweep_round_trip_with_flagged_row(tmp_path):
    rows = [
        SweepRow(h=100.0, t_slow=327.2128, f_max=0.9998),
        SweepRow(h=10.0, t_slow=None, f_max=0.982, flag="only 4 carrier peaks; envelope is undefined"),
    ]
    fit = FitResult(slope=0.97, intercept=1.2, r_squared=0.999, alpha=1.02)
    result = SweepResult(rows=rows, fit=fit)
    csv_path = tmp_path / "sweep.csv"
    side_path = tmp_path / "sweep.json"
    write_sweep(result, str(tmp_path), ExperimentConfig())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.json"]

    header, columns = read_csv(str(csv_path))
    assert header == ["h", "T_slow", "F_max", "flag"]
    assert columns["h"] == [100.0, 10.0]
    assert columns["T_slow"] == [327.2128, None]  # empty cell reads back as None
    assert columns["flag"][0] is None
    assert "carrier peaks" in columns["flag"][1]

    side = read_sidecar(str(side_path))
    assert list(side) == ["config", "seed", "version", "fit", "rows"]
    assert side["fit"]["slope"] == 0.97
    assert side["fit"]["alpha"] == 1.02
    assert side["rows"][0]["prefactor"] == 327.2128 / 100.0
    assert side["rows"][1]["prefactor"] is None
    assert side["rows"][1]["flag"].startswith("only 4")


# ----------------------------------------------------------------- heatmap csv

def test_heatmap_single_cell(tmp_path):
    hm = HeatmapGrid(g_values=np.array([0.7]), d_values=np.array([0.2]),
                     f_max=np.array([[0.934]]))
    csv_path = tmp_path / "heatmap.csv"
    side_path = tmp_path / "heatmap.json"
    write_heatmap(hm, str(tmp_path), ExperimentConfig())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["heatmap.csv", "heatmap.json"]

    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "g\\d,0.2"
    assert lines[1] == "0.7,0.934"

    side = read_sidecar(str(side_path))
    assert list(side) == ["config", "seed", "version", "f_max_overall", "f_max_cell", "f_min_overall"]
    assert side["f_max_overall"] == 0.934
    assert side["f_min_overall"] == 0.934
    assert side["f_max_cell"] == {"g": 0.7, "d": 0.2}


# ---------------------------------------------------------------- ensemble csv

def test_ensemble_outputs(tmp_path):
    grid = TimeGrid(0.0, 1.0, 3)
    stats = EnsembleStats(
        delta=0.0, n_samples=2,
        mean_fidelity=TimeSeries(grid, [0.5, 0.7, 0.9]),
        std_fidelity=TimeSeries(grid, [0.0, 0.0, 0.0]),
        peak_fidelities=np.array([0.9, 0.9]),
        mean_peak_fidelity=0.9, std_peak_fidelity=0.0,
    )
    curves = tmp_path / "disorder_delta0_curves.csv"
    peaks = tmp_path / "disorder_delta0_peaks.csv"
    side = tmp_path / "disorder_delta0.json"
    write_ensemble(stats, str(tmp_path), ExperimentConfig())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in (curves, peaks, side))

    header, columns = read_csv(str(curves))
    assert header == ["t", "mean_F", "std_F"]
    assert columns["std_F"] == [0.0, 0.0, 0.0]

    header, columns = read_csv(str(peaks))
    assert header == ["realization", "F_max"]
    assert columns["F_max"] == [0.9, 0.9]

    loaded = read_sidecar(str(side))
    assert list(loaded) == ["config", "seed", "version", "delta", "n_samples", "mean_peak_fidelity",
                            "std_peak_fidelity"]
    assert loaded["delta"] == 0.0
    assert loaded["n_samples"] == 2
    assert loaded["std_peak_fidelity"] == 0.0


@pytest.mark.parametrize("row, name, header", [
    (FrequencyRow(d=0.5, predicted=2.0, measured=2.5, ratio=1.25), "freq_table", "d,predicted,measured,ratio"),
    (EffectiveCheckRow(h=100.0, t_slow_full=3.0, j_eff=0.5, alpha=2.0, t_slow_effective=3.5, relative_error=0.5),
     "effective_check", "h,T_slow_full,J_eff,alpha,T_slow_effective,rel_error"),
], ids=["freq-table", "effective-check"])
def test_rows_are_named_by_their_type(tmp_path, row, name, header):
    """write_rows picks the file name and CSV header from the row type; the sidecar echoes the rows."""
    write_rows([row], str(tmp_path), ExperimentConfig())
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.csv", f"{name}.json"]
    assert (tmp_path / f"{name}.csv").read_text().splitlines()[0] == header
    side = read_sidecar(str(tmp_path / f"{name}.json"))
    assert list(side) == ["config", "seed", "version", "rows"]
    assert side["rows"] == [asdict(row)]


def test_scaling_writes_one_csv_per_size_and_one_summary(tmp_path):
    """Each size's CSV is write_trajectory's; its scaling.json entry has a first peak only where one was found."""
    traj = tiny_trajectory()
    config = ExperimentConfig()
    write_scaling({4: (traj, (0.5, 0.75)), 5: (traj, None)}, str(tmp_path), config)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scaling.json", "scaling_n4.csv", "scaling_n5.csv"]
    write_trajectory(traj, str(tmp_path), name="expected")
    for n in (4, 5):
        assert (tmp_path / f"scaling_n{n}.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    side = read_sidecar(str(tmp_path / "scaling.json"))
    assert side == {"config": config_echo(config), "seed": 42, "version": __version__, "runs": [
        {"f_max": 0.987654321001, "f_argmax_time": 1.0, "max_concurrence": {"12": 1.0, "56": 0.1 / 3.0},
         "n_rungs": 4, "first_peak_time": 0.5, "first_peak_value": 0.75},
        {"f_max": 0.987654321001, "f_argmax_time": 1.0, "max_concurrence": {"12": 1.0, "56": 0.1 / 3.0},
         "n_rungs": 5},
    ]}
    assert list(side["runs"][0]) == ["f_max", "f_argmax_time", "max_concurrence", "n_rungs", "first_peak_time",
                                     "first_peak_value"]


def test_write_table_generic(tmp_path):
    path = tmp_path / "table.csv"
    write_table([(0.5, 2.8284271247461903), (1.0, 4.47213595499958)],
                str(path), ["d", "omega"])
    header, columns = read_csv(str(path))
    assert columns["omega"] == [2.8284271247461903, 4.47213595499958]
    # a number of any type is written as repr(float(v)); None as an empty cell, text as given
    write_table([(0, np.float64(-0.0), None, "x"), (np.int64(3), 1e-300, 2.5, "")], str(path),
                ["k", "v", "w", "flag"])
    assert path.read_text() == "k,v,w,flag\n0.0,-0.0,,x\n3.0,1e-300,2.5,\n"


# --------------------------------------------------------------------- errors

def test_write_failure_carries_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    target = blocker / "sub" / "trajectory.csv"
    with pytest.raises(OutputError) as err:
        write_trajectory(tiny_trajectory(), str(blocker / "sub"))
    assert err.value.path == str(target)


def test_sidecar_write_failure(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x\n")
    with pytest.raises(OutputError):
        write_sidecar(str(blocker / "s.json"), {"a": 1})
