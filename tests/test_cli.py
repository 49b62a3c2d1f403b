"""End-to-end CLI behavior: exit codes, output files, and golden comparisons.

Goldens are regenerated through the real CLI into a temp directory and
compared numerically (rtol 1e-9) rather than byte-for-byte, so a different
BLAS build cannot break them; bitwise determinism of a single installation
is asserted separately by the repeated-run test.
"""

import argparse
import ctypes
import importlib
import inspect
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinladder
from spinladder import __version__, cli, evolution, experiments, io
from spinladder.cli import _build_parser, _resolve_config, main
from spinladder.errors import NumericFailureError
from spinladder.io import config_floats, config_grid

from conftest import parse_config, read_csv, read_sidecar

GOLDEN_ROOT = pathlib.Path(__file__).resolve().parent.parent / "goldens"

#: The per-chunk kernel of every evolution. The probes below that refuse an input before evolving patch it,
#: and test_valid_input_reaches_the_kernel_the_refusal_probes_patch checks that their commands reach it.
EVOLVE_CHUNK = "spinladder.evolution._evolve_chunk"

#: Exact invocations behind the committed goldens (see goldens/README.md).
GOLDEN_RUNS = {
    "reference": ["reference", "--n-points", "401"],
    "field-sweep": ["field-sweep", "--h-values", "50"],
    "heatmap": ["heatmap", "--n-g", "3", "--n-d", "3", "--n-points", "401"],
    "disorder": ["disorder", "--deltas", "0.1", "--n-samples", "5", "--n-points", "401"],
    "scaling": ["scaling", "--n-values", "4", "--n-points", "401"],
    "freq-table": ["freq-table"],
    "effective-check": ["effective-check", "--eff-h-values", "100"],
}


# ------------------------------------------------------------------ exit codes

def test_no_arguments_is_usage_error():
    assert main([]) == 2


def test_unknown_experiment_is_usage_error(tmp_path):
    assert main(["bogus", "--out", str(tmp_path)]) == 2


def test_version_flag():
    assert main(["--version"]) == 0


def test_experiment_is_a_positional_choice_of_the_seven_in_order():
    parser = _build_parser()
    assert not any(isinstance(action, argparse._SubParsersAction) for action in parser._actions)
    (experiment,) = parser._get_positional_actions()
    assert experiment.dest == "experiment"
    assert list(experiment.choices) == ["reference", "field-sweep", "heatmap", "disorder",
                                        "scaling", "freq-table", "effective-check"]


def test_flags_before_the_experiment_resolve_the_same_config(tmp_path):
    out = str(tmp_path / "out")
    first = _build_parser().parse_args(["--n-points", "11", "reference", "--out", out])
    after = _build_parser().parse_args(["reference", "--n-points", "11", "--out", out])
    assert vars(first) == vars(after)
    assert _resolve_config(first, first.experiment) == _resolve_config(after, after.experiment)
    assert _resolve_config(first, first.experiment).n_points == 11


def _checkout_env():
    """Environment for a child interpreter that imports the package this suite imports."""
    package_root = str(pathlib.Path(spinladder.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_entry_point():
    # runs from a checkout: the package this suite imports, not an installed script
    proc = subprocess.run([sys.executable, "-m", "spinladder", "--version"],
                          capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"spinladder {__version__}"


def test_runs_need_neither_scipy_nor_numpy_ma(tmp_path):
    # NumPy is the only runtime dependency, and numpy.ma is a lazily imported
    # part of it that costs start-up time; the field sweep reaches the peak finder
    script = f"""
import sys
sys.modules["scipy"] = None  # every SciPy import now raises ImportError
from spinladder.cli import main
codes = [main(["reference", "--n-rungs", "2", "--out", {str(tmp_path / "reference")!r}]),
         main(["field-sweep", "--h-values", "50", "--out", {str(tmp_path / "sweep")!r}])]
print(codes, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == __version__
    module_name, _, attr = project["scripts"]["spinladder"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("foo = 1\n")
    code = main(["reference", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "foo" in err
    assert "line 1" in err


def test_invalid_flag_value_exits_2(tmp_path):
    assert main(["reference", "--out", str(tmp_path), "--n-rungs", "7"]) == 2


@pytest.mark.parametrize("command,flag", [("field-sweep", "--h-values"), ("effective-check", "--eff-h-values"),
                                          ("disorder", "--deltas"), ("freq-table", "--d-values"),
                                          ("scaling", "--n-values")])
def test_empty_list_value_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), flag, ""]) == 2
    assert "at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value,key", [
    ("reference", "--t-end", "inf", "t_end"),
    ("disorder", "--seed", "-1", "seed"),
    ("disorder", "--deltas", "nan", "deltas"),
    ("disorder", "--deltas", "inf", "deltas"),
    ("reference", "--field-mask", ",", "field_mask"),
    ("reference", "--field-mask", "2,9", "field_mask"),
    ("scaling", "--n-values", "4,2", "n_values"),
    ("disorder", "--deltas", "0.1,-0.1", "deltas"),
    ("disorder", "--deltas", "-0.0", "deltas"),
    ("freq-table", "--t-end", "5e-324", "t_end"),
])
def test_out_of_range_value_exits_2_before_writing(tmp_path, capsys, command, flag, value, key):
    """A non-finite float, a list entry out of range or a step that underflows is refused before any file is written.

    -0.0 compares equal to 0 but carries a negative sign, which uniform(-delta, delta) refuses.
    """
    out = tmp_path / "out"
    assert main([command, "--out", str(out), flag, value]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_envelope_window_and_prominence_are_not_settings(tmp_path, capsys):
    """The slow-envelope window factor and carrier prominence are fixed: no flag, no config key."""
    out = tmp_path / "out"
    assert main(["field-sweep", "--out", str(out), "--prominence", "0.05"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window_factor = 1.2\n")
    assert main(["field-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key (key: window_factor)" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,code", [
    (["reference", "--j-parallel", "1e300", "--n-points", "11"], 3),
    (["reference", "--j-perp", "1e200", "--n-points", "11"], 3),
    (["reference", "--g", "1e300", "--n-points", "11"], 3),
    (["field-sweep", "--j-parallel", "1e300"], 3),
    (["effective-check", "--j-parallel", "1e300"], 3),
], ids=["reference-j-parallel", "reference-j-perp", "reference-g", "field-sweep-j-parallel",
        "effective-check-j-parallel"])
def test_huge_finite_coupling_exits_without_traceback(tmp_path, capsys, argv, code):
    """The dressed gap is a hypot, and phases past round-off or an overflowing slow window are numeric failures."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["reference", "--g", "1e300", "--j-parallel", "1e300"], "j_parallel = 1e+300, g = 1e+300"),
    (["reference", "--d", "1e300", "--j-parallel", "1e300"], "j_parallel = 1e+300, g = 1.0, d = 1e+300"),
    (["disorder", "--deltas", "1e300", "--j-parallel", "1e300", "--n-samples", "1"], "bond factors 1 + delta"),
], ids=["g", "d", "disorder"])
def test_overflowing_bond_terms_are_refused_without_a_warning(tmp_path, capsys, monkeypatch, argv, named):
    """A coupling product past the float range exits 3 naming the keys, before any H is built, and warns nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("an overflowing Hamiltonian was built")
    monkeypatch.setattr("spinladder.lattice.bond_hamiltonian", refuse)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--n-points", "11", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert named in err and "give bond and field terms that overflow" in err
    assert "Traceback" not in err and not out.exists()


def test_round_off_phases_are_refused_before_writing(tmp_path, capsys):
    """Phases E t near 4e301 carry no digit of the evolution, so the run exits 3 and writes nothing."""
    out = tmp_path / "out"
    assert main(["reference", "--j-parallel", "1e300", "--n-points", "11", "--out", str(out)]) == 3
    assert "round-off" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["field-sweep", "effective-check"])
@pytest.mark.parametrize("j_parallel, count", [("1e-200", "inf"), ("0.01", "181,063,717")],
                         ids=["underflowing", "weak"])
def test_unbounded_envelope_grid_is_refused_before_evolving(tmp_path, capsys, monkeypatch, command,
                                                            j_parallel, count):
    """A window h / j_parallel^2 past MAX_ENVELOPE_POINTS exits 3 naming j_parallel, h and the count.

    j_parallel = 1e-200 squares to 0, an infinite window; 0.01 at h = 100
    asks for 181,063,717 points. Nothing is evolved and no output is made.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("an envelope study evolved before its grids were checked")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    out = tmp_path / "out"
    assert main([command, "--j-parallel", j_parallel, "--h-values", "100", "--eff-h-values", "100",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"j_parallel = {float(j_parallel)!r}, h = 100.0 needs {count} time points" in err
    assert "Traceback" not in err and not out.exists()


def test_a_stack_with_one_overflowing_ladder_is_refused_before_evolving(tmp_path, capsys, monkeypatch):
    """The 2 x 2 heatmap is one stack; its g = 0 cells are finite, its g = 1e300 ones overflow at j_perp = 1e300.

    The stack is refused before any of its ladders is evolved: exit 3, the
    keys named, no output.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("a stack was evolved before every ladder in it was checked")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    out = tmp_path / "out"
    assert main(["heatmap", "--j-perp", "1e300", "--g-min", "0", "--g-max", "1e300", "--n-g", "2", "--n-d", "2",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "j_perp = 1e+300, j_parallel = 1.0, g = 1e+300, d = 0.0 and h = 100.0 give bond and field terms" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["field-sweep", "effective-check"])
def test_overflowing_slow_window_names_the_coupling(tmp_path, capsys, command):
    """The exit-3 message says which key overflowed in which step, and no output is made."""
    assert main([command, "--j-parallel", "1e300", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "j_parallel = 1e+300" in err and "slow-envelope window" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["field-sweep", "--d", "0"], ["effective-check", "--d", "0"], ["freq-table"]],
                         ids=["field-sweep", "effective-check", "freq-table"])
def test_zero_dressed_gap_is_refused_before_evolving(tmp_path, capsys, monkeypatch, argv):
    """At g = d = 0 (freq-table's default d values start at 0) no carrier sets a grid or a ratio: exit 2, keys named.

    Nothing is evolved and no output is made.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("a gapless ladder was evolved")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    out = tmp_path / "out"
    assert main(argv + ["--g", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "g = 0.0, j_perp = 1.0, d = 0.0, j_parallel = 1.0 give the dressed gap 0.0" in err
    assert "Traceback" not in err and not out.exists()


def test_field_sweep_with_unequal_couplings_writes_a_fit_without_alpha(tmp_path):
    """alpha needs j_perp == j_parallel; at j_perp = 1.001 the rows and the fit are written with a null alpha."""
    out = tmp_path / "out"
    assert main(["field-sweep", "--j-perp", "1.001", "--h-values", "100,200,400", "--out", str(out)]) == 0
    side = read_sidecar(str(out / "sweep.json"))
    assert [row["flag"] for row in side["rows"]] == [None] * 3
    assert side["fit"]["alpha"] is None and side["fit"]["slope"] > 0


def test_effective_check_with_unequal_couplings_is_refused_before_evolving(tmp_path, capsys, monkeypatch):
    """Every effective-check row has an alpha, which needs j_perp == j_parallel: exit 2 naming both, nothing evolved."""
    def refuse(*args, **kwargs):
        raise AssertionError("an effective check evolved before its alpha precondition was checked")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    out = tmp_path / "out"
    assert main(["effective-check", "--j-perp", "1.001", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "alpha extraction assumes j_perp == j_parallel, got j_perp = 1.001 and j_parallel = 1.0" in err
    assert "Traceback" not in err and not out.exists()


class _Evolved(Exception):
    """Raised in place of the first evolution, so a run stops once its inputs are accepted."""


#: Every float config key, list keys included, and the extremes drawn for them.
_FLOAT_KEYS = sorted(key for key, kind in io._FIELD_TYPES.items() if float in (kind, io._LIST_KEYS.get(key)))
_EXTREMES = ["0", "-0.0", "-1", "5e-324", "1e-300", "1e300", "-1e300"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command=st.sampled_from(list(cli._COMMANDS)),
       values=st.dictionaries(st.sampled_from(_FLOAT_KEYS), st.sampled_from(_EXTREMES), min_size=1, max_size=3))
def test_extreme_float_keys_exit_without_traceback(command, values):
    """One to three float keys at extremes: a run is refused (exit 2 or 3) or reaches its first evolution.

    The evolution is replaced by a sentinel, so every accepted input stops
    there; neither a refused nor a stopped run may leave an output directory.
    """
    assert len(_FLOAT_KEYS) == 14
    with tempfile.TemporaryDirectory() as tmp, mock.patch(EVOLVE_CHUNK, side_effect=_Evolved):
        out = os.path.join(tmp, "out")
        try:
            code = main([command, "--out", out] + [f"--{key}={value}" for key, value in values.items()])
        except _Evolved:
            code = None
        assert code in (None, 0, 2, 3), (command, values)
        assert code == 0 or not os.path.exists(out), (command, values)


def test_missing_config_file_exits_2(tmp_path):
    code = main(["reference", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("content", [np.random.default_rng(7).bytes(200), b"h = 50\n\xff"],
                         ids=["random bytes", "one bad byte"])
def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys, content):
    """A config file that does not decode is refused, naming the file, before --out is made."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_bytes(content)
    assert main(["reference", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config file {cfg} is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_runs(tmp_path):
    """A UTF-8 byte-order mark, as some editors write one, is not part of the first key."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_bytes(b"\xef\xbb\xbfh = 50")
    assert main(["reference", "--config", str(cfg), "--n-points", "11", "--out", str(out)]) == 0
    assert read_sidecar(str(out / "trajectory.json"))["config"]["h"] == 50.0


@pytest.mark.parametrize("command", ["field-sweep", "heatmap", "disorder", "freq-table", "effective-check"])
def test_state_is_refused_where_only_phi_plus_evolves(tmp_path, capsys, monkeypatch, command):
    """Five commands evolve phi_plus alone: another state, by flag or file, exits 2 naming state, before --out."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command evolved a state it ignores")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    out, cfg = tmp_path / "out", tmp_path / "run.cfg"
    assert main([command, "--state", "psi_plus", "--out", str(out)]) == 2
    assert f"{command} evolves phi_plus only, got psi_plus (key: state)" in capsys.readouterr().err
    cfg.write_text("state = separable_zero_zero\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "(key: state)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("t_end", "1"), ("n_points", "11")])
@pytest.mark.parametrize("command", ["field-sweep", "effective-check"])
def test_grid_is_refused_where_the_experiment_sizes_its_own(tmp_path, capsys, monkeypatch, command, key, value):
    """The two envelope studies size their own grids: t_end or n_points, by flag or file, exits 2 naming it, before --out."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command evolved on a grid it ignores")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    out, cfg = tmp_path / "out", tmp_path / "run.cfg"
    assert main([command, "--" + key.replace("_", "-"), value, "--out", str(out)]) == 2
    assert f"{command} sizes its own carrier-resolving grids, got " in capsys.readouterr().err
    cfg.write_text(f"{key} = {value}\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


#: The commands of the five refused-before-evolving probes above, each with the refused value made valid.
_VALID_PROBE_RUNS = {
    "envelope grid, field-sweep": ["field-sweep", "--j-parallel", "1", "--h-values", "100"],
    "envelope grid, effective-check": ["effective-check", "--j-parallel", "1", "--eff-h-values", "100"],
    "overflowing stack": ["heatmap", "--j-perp", "1", "--g-min", "0", "--g-max", "1", "--n-g", "2", "--n-d", "2"],
    "dressed gap, field-sweep": ["field-sweep", "--g", "1", "--d", "0", "--h-values", "100"],
    "dressed gap, effective-check": ["effective-check", "--g", "1", "--eff-h-values", "100"],
    "dressed gap, freq-table": ["freq-table", "--g", "1"],
    "unequal couplings": ["effective-check", "--j-perp", "1", "--eff-h-values", "100"],
    **{f"state, {command}": [command, "--state", "phi_plus"]
       for command in ("field-sweep", "heatmap", "disorder", "freq-table", "effective-check")},
}


@pytest.mark.parametrize("argv", list(_VALID_PROBE_RUNS.values()), ids=list(_VALID_PROBE_RUNS))
def test_valid_input_reaches_the_kernel_the_refusal_probes_patch(tmp_path, monkeypatch, argv):
    """Each probe's command, with valid input, reaches the EVOLVE_CHUNK its refusal patches.

    A probe whose patch no evolution reaches would pass without testing
    anything; here the same patch must be reached, and stops the run.
    """
    kernel = mock.Mock(side_effect=_Evolved)
    monkeypatch.setattr(EVOLVE_CHUNK, kernel)
    with pytest.raises(_Evolved):
        main(argv + ["--out", str(tmp_path / "out")])
    assert kernel.call_count >= 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_chunk_failing_on_any_worker_exits_3_without_output(tmp_path, capsys, monkeypatch, workers):
    """A numeric failure in the second of three chunks, on one to three workers, exits 3 and writes no --out."""
    def failing(evolution, start, phases):
        if start == evolution.chunk:
            raise NumericFailureError("the second chunk failed")
        return evolve_chunk(evolution, start, phases)
    evolve_chunk = evolution._evolve_chunk
    monkeypatch.setattr(EVOLVE_CHUNK, failing)
    monkeypatch.setattr(evolution, "_usable_cpus", lambda: workers)
    out = tmp_path / "out"
    assert main(["reference", "--n-points", "5000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: the second chunk failed" in err and "Traceback" not in err
    assert not out.exists()


def test_short_window_frequency_exits_3(tmp_path, capsys):
    # 10 time units hold under ten periods of the d=0 carrier
    code = main(["freq-table", "--out", str(tmp_path), "--t-end", "10",
                 "--d-values", "0"])
    assert code == 3
    assert "period" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    code = main(["reference", "--out", str(blocker / "out"), "--n-points", "2"])
    assert code == 4


# ------------------------------------------------------------------- reference

def test_reference_run(tmp_path):
    out = tmp_path / "out"
    assert main(["reference", "--out", str(out), "--n-points", "401"]) == 0

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 402
    assert lines[0] == "t,C12,C34,C56,F,I12,I56,I12_56"

    side = read_sidecar(str(out / "trajectory.json"))
    assert side["config"]["n_points"] == 401
    assert side["config"]["h"] == 100.0
    assert side["seed"] == 42
    assert side["version"] == __version__
    assert side["omega_fast"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    # ten time units cannot hold the slow envelope, so no period is claimed
    assert "t_slow" not in side
    assert side["f_max"] > 0.99
    assert side["max_concurrence"]["34"] <= 0.1


def test_two_point_trajectory_is_three_lines(tmp_path):
    out = tmp_path / "out"
    assert main(["reference", "--out", str(out), "--n-points", "2"]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 3


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 50\nn_points = 201\n")
    out = tmp_path / "out"
    assert main(["reference", "--config", str(cfg), "--out", str(out),
                 "--h", "25"]) == 0
    side = read_sidecar(str(out / "trajectory.json"))
    assert side["config"]["h"] == 25.0      # flag beats file
    assert side["config"]["n_points"] == 201  # file beats default


def test_underscore_flag_spelling(tmp_path):
    out = tmp_path / "out"
    assert main(["reference", "--out", str(out), "--n_points", "101"]) == 0
    assert read_sidecar(str(out / "trajectory.json"))["config"]["n_points"] == 101


def test_repeated_runs_are_bitwise_identical(tmp_path):
    args = ["reference", "--n-points", "401"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "trajectory.json").read_bytes() == (out_b / "trajectory.json").read_bytes()


#: The BLAS thread-count variables the package sets to 1 when they are unset.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs CPU affinity and at least two usable CPUs")
def test_one_cpu_and_every_cpu_write_the_same_bytes_without_blas_settings(tmp_path):
    """With no BLAS thread variable set, a run pinned to one CPU writes the bytes of a run on every usable CPU.

    OpenBLAS sizes its pool from the CPUs a process may use, and rounds the
    N = 5 evolution's products differently at each thread count, so this
    holds only because the package pins BLAS to one thread before NumPy is
    imported. The children run the package this suite imports.
    """
    env = {name: value for name, value in _checkout_env().items() if name not in BLAS_THREAD_VARIABLES}
    cpu = min(os.sched_getaffinity(0))
    written = []
    for name, preexec in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("unpinned", None)):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "spinladder", "reference", "--n-rungs", "5", "--out", str(out)],
                              capture_output=True, text=True, env=env, preexec_fn=preexec)
        assert proc.returncode == 0, proc.stderr
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert list(written[0]) == ["trajectory.csv", "trajectory.json"]
    assert written[0] == written[1]


# ------------------------------------------------------------ other experiments

def test_field_sweep_flagged_row(tmp_path):
    out = tmp_path / "out"
    assert main(["field-sweep", "--out", str(out), "--h-values", "10"]) == 0
    header, columns = read_csv(str(out / "sweep.csv"))
    assert columns["h"] == [10.0]
    assert columns["T_slow"] == [None]
    assert isinstance(columns["flag"][0], str)
    side = read_sidecar(str(out / "sweep.json"))
    assert "fit" not in side
    assert side["rows"][0]["flag"] is not None


def test_heatmap_single_cell(tmp_path):
    out = tmp_path / "out"
    assert main(["heatmap", "--out", str(out), "--n-g", "1", "--n-d", "1",
                 "--t-end", "5", "--n-points", "101"]) == 0
    lines = (out / "heatmap.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("g\\d,")


def test_disorder_zero_delta_sidecar(tmp_path):
    out = tmp_path / "out"
    assert main(["disorder", "--out", str(out), "--deltas", "0",
                 "--n-samples", "2", "--t-end", "5", "--n-points", "101"]) == 0
    side = read_sidecar(str(out / "disorder_delta0.json"))
    assert side["std_peak_fidelity"] == 0.0
    assert side["n_samples"] == 2
    assert (out / "disorder_delta0_curves.csv").exists()
    assert (out / "disorder_delta0_peaks.csv").exists()


def test_scaling_run_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["scaling", "--out", str(out), "--n-values", "3",
                 "--n-points", "201"]) == 0
    header, _ = read_csv(str(out / "scaling_n3.csv"))
    assert header == ["t", "C12", "C34", "C56", "F"]
    side = read_sidecar(str(out / "scaling.json"))
    run = side["runs"][0]
    assert run["n_rungs"] == 3
    assert "first_peak_time" in run and "first_peak_value" in run
    assert run["f_max"] <= 1.0


def test_scaling_on_a_grid_too_short_for_peaks_writes_every_file(tmp_path):
    """Two points hold no peak: the run exits 0 with its CSV and a sidecar whose entry has no first peak."""
    out = tmp_path / "out"
    assert main(["scaling", "--n-values", "3", "--n-points", "2", "--out", str(out)]) == 0
    _, columns = read_csv(str(out / "scaling_n3.csv"))
    assert columns["t"] == [0.0, 10.0]
    [run] = read_sidecar(str(out / "scaling.json"))["runs"]
    assert run["n_rungs"] == 3 and "first_peak_time" not in run and "first_peak_value" not in run


def test_disorder_deltas_sharing_a_file_tag_are_refused(tmp_path, capsys, monkeypatch):
    """0.1 and 0.1000001 both name their files delta0.1: exit 2 naming deltas and both values.

    No ensemble is run and no output is made.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("an ensemble ran before the deltas' file tags were checked")
    monkeypatch.setattr("spinladder.experiments.disorder_ensemble", refuse)
    out = tmp_path / "out"
    assert main(["disorder", "--deltas", "0.1,0.1000001", "--n-samples", "2", "--n-points", "51",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "deltas 0.1 and 0.1000001 share the file tag delta0.1 (key: deltas)" in err
    assert "Traceback" not in err and not out.exists()


_REPEATED_LISTS = {"n_values": ("scaling", "4,4"), "h_values": ("field-sweep", "100,100,100"),
                   "eff_h_values": ("effective-check", "100,100"), "d_values": ("freq-table", "0.5,0.1,0.5")}


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", list(_REPEATED_LISTS))
def test_a_list_key_repeating_a_value_is_refused(tmp_path, capsys, monkeypatch, key, source):
    """A list that repeats an entry, by flag or file, exits 2 naming the key, before any evolution or --out.

    Run, it would do the same work twice: scaling would write scaling_n4.csv
    twice and two equal runs into scaling.json, field-sweep would fit a line
    through three equal fields.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("a command evolved a list with a repeated entry")
    monkeypatch.setattr(EVOLVE_CHUNK, refuse)
    command, value = _REPEATED_LISTS[key]
    out, cfg = tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    given = ["--" + key.replace("_", "-"), value] if source == "flag" else ["--config", str(cfg)]
    assert main([command, *given, "--out", str(out)]) == 2
    assert f"{key} must not repeat a value, got {value} (key: {key})" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_disorder_deltas_are_refused(tmp_path, capsys, monkeypatch):
    """--deltas 0.1,0.1 exits 2 naming deltas, with no ensemble run and no output."""
    def refuse(*args, **kwargs):
        raise AssertionError("an ensemble ran for a repeated delta")
    monkeypatch.setattr("spinladder.experiments.disorder_ensemble", refuse)
    out = tmp_path / "out"
    assert main(["disorder", "--deltas", "0.1,0.1", "--n-samples", "2", "--n-points", "51", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(key: deltas)" in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flags, state, masks", [
    (["--field-mask", "2"], "phi_plus", {3: {2}, 4: {2}}),
    (["--field-mask", "uniform"], "phi_plus", {3: {1, 2, 3}, 4: {1, 2, 3, 4}}),
    (["--state", "psi_plus"], "psi_plus", {3: {2}, 4: {2, 3}}),
    (["--field-mask", "4"], "phi_plus", {4: {4}, 5: {4}}),
], ids=["rung list", "uniform", "state", "rung past n_rungs"])
def test_scaling_runs_the_field_mask_and_state_at_every_size(tmp_path, flags, state, masks):
    """Each size's CSV is that of a reference run of the state with the mask resolved for that size.

    mediating and uniform are resolved per size; a rung list is used as given,
    checked against the sizes run, not against n_rungs (3 here), which
    scaling does not run.
    """
    out = tmp_path / "out"
    assert main(["scaling", "--n-values", ",".join(map(str, masks)), "--n-points", "201", "--out", str(out),
                 *flags]) == 0
    grid = spinladder.TimeGrid(0.0, 10.0, 201)
    for n, mask in masks.items():
        traj = experiments.run_reference(spinladder.LadderParams(n_rungs=n, field_mask=frozenset(mask)),
                                         state_kind=state, grid=grid, include_mutual_info=False)
        io.write_trajectory(traj, str(tmp_path), name=f"expected_n{n}")
        assert (out / f"scaling_n{n}.csv").read_bytes() == (tmp_path / f"expected_n{n}.csv").read_bytes()


def test_scaling_refuses_a_rung_list_that_misses_a_size(tmp_path, capsys, monkeypatch):
    """Rung 5 fits five rungs but not four: exit 2 naming field_mask, before the first run and without output."""
    def refuse(*args, **kwargs):
        raise AssertionError("a scaling size ran before every size's field mask was checked")
    monkeypatch.setattr("spinladder.experiments.run_reference", refuse)
    out = tmp_path / "out"
    assert main(["scaling", "--n-rungs", "5", "--field-mask", "5", "--n-values", "5,4", "--n-points", "201",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field_mask [5] outside rungs 1..4" in err
    assert "Traceback" not in err and not out.exists()


def test_freq_table_window_default(tmp_path):
    out = tmp_path / "out"
    assert main(["freq-table", "--out", str(out), "--d-values", "0.5"]) == 0
    side = read_sidecar(str(out / "freq_table.json"))
    # the command widens the default window so ten carrier periods fit
    assert side["config"]["t_end"] == 40.0
    assert side["config"]["n_points"] == 8001
    row = side["rows"][0]
    assert abs(row["ratio"] - 1.0) <= 0.005


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def test_driver_defaults_match_resolved_config():
    """A driver called without a keyword runs the setting the CLI resolves by default."""
    config = parse_config()
    assert list(_default(experiments.effective_model_check, "h_values")) == \
        config_floats(config, "eff_h_values")
    assert config_grid(config) == experiments.DEFAULT_GRID
    for driver in (experiments.run_reference, experiments.anisotropy_heatmap, experiments.disorder_ensemble):
        assert _default(driver, "grid") == experiments.DEFAULT_GRID
    args = _build_parser().parse_args(["freq-table", "--out", "unused"])
    assert config_grid(_resolve_config(args, "freq-table")) == \
        _default(experiments.frequency_table, "grid")


# ------------------------------------------------------------------- allocator

def _fake_libc(monkeypatch, platform, results=None):
    """Put a libc whose mallopt returns results in turn (None: no mallopt) in place of ctypes.CDLL.

    Returns the list of (name, args) calls the fake saw: the CDLL opens and
    the mallopt calls.
    """
    calls = []
    libc = type("FakeLibc", (), {})()
    if results is not None:
        answers = iter(results)

        def mallopt(param, value):
            calls.append(("mallopt", (param, value)))
            return next(answers)
        libc.mallopt = mallopt

    def cdll(name):
        calls.append(("CDLL", (name,)))
        return libc

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(sys, "platform", platform)
    return calls, libc


def test_retain_freed_heap_without_mallopt_calls_nothing(monkeypatch):
    calls, _ = _fake_libc(monkeypatch, "linux")
    cli._retain_freed_heap()
    assert calls == [("CDLL", (None,))]


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_retain_freed_heap_is_linux_only(monkeypatch, platform):
    calls, _ = _fake_libc(monkeypatch, platform, results=[1, 1])
    cli._retain_freed_heap()
    assert calls == []


def test_refused_mmap_threshold_sets_no_trim_threshold(monkeypatch):
    calls, _ = _fake_libc(monkeypatch, "linux", results=[0])
    cli._retain_freed_heap()
    assert calls == [("CDLL", (None,)), ("mallopt", (-3, 32 * 2**20))]


def test_retain_freed_heap_sets_both_thresholds_in_order(monkeypatch):
    calls, libc = _fake_libc(monkeypatch, "linux", results=[1, 1])
    cli._retain_freed_heap()
    assert calls == [("CDLL", (None,)), ("mallopt", (-3, 32 * 2**20)), ("mallopt", (-1, 2**30))]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert libc.mallopt.restype is ctypes.c_int


def test_main_configures_the_allocator_before_parsing(monkeypatch):
    order = []
    monkeypatch.setattr(cli, "_retain_freed_heap", lambda: order.append("allocator"))
    monkeypatch.setattr(cli, "_build_parser", lambda: order.append("parser") or _build_parser())
    assert main(["--version"]) == 0
    assert order == ["allocator", "parser"]


# --------------------------------------------------------------------- goldens

def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float) and isinstance(got, float):
        assert np.isclose(got, want, rtol=1e-9, atol=1e-12), f"{where}: {got} != {want}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _compare_with_golden(golden_dir, fresh_dir):
    files = sorted(p.name for p in golden_dir.iterdir())
    assert files, f"no goldens committed under {golden_dir}"
    assert sorted(p.name for p in fresh_dir.iterdir()) == files, "the run wrote another set of files"
    for name in files:
        fresh = fresh_dir / name
        assert fresh.exists(), f"run did not produce {name}"
        if name.endswith(".csv"):
            want_header, want_cols = read_csv(str(golden_dir / name))
            got_header, got_cols = read_csv(str(fresh))
            assert got_header == want_header, name
            for col in want_header:
                _assert_close(got_cols[col], want_cols[col], f"{name}:{col}")
        else:
            _assert_close(read_sidecar(str(fresh)), read_sidecar(str(golden_dir / name)), name)


@pytest.mark.parametrize("experiment", sorted(GOLDEN_RUNS))
def test_golden(experiment, tmp_path):
    out = tmp_path / "out"
    assert main(GOLDEN_RUNS[experiment] + ["--out", str(out)]) == 0
    _compare_with_golden(GOLDEN_ROOT / experiment, out)


def test_effective_check_golden_content():
    golden = GOLDEN_ROOT / "effective-check"
    header, columns = read_csv(str(golden / "effective_check.csv"))
    assert header == ["h", "T_slow_full", "J_eff", "alpha", "T_slow_effective", "rel_error"]
    assert columns["h"] == [100.0]
    side = read_sidecar(str(golden / "effective_check.json"))
    assert side["config"]["eff_h_values"] == "100"
    assert side["rows"][0]["relative_error"] < 0.05
