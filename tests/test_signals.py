"""Signal extraction on synthetic series with known answers."""

import math
import warnings

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, example, given, settings, strategies as st

from spinladder.errors import InsufficientDataError, InvalidArgumentError
from spinladder.evolution import TimeGrid
from spinladder.lattice import LadderParams
from spinladder.signals import (
    ENVELOPE_PROMINENCE,
    TimeSeries,
    _prominent_maxima,
    _refine_parabolic,
    dominant_frequency,
    effective_coupling_from_period,
    envelope_period,
    extract_alpha,
    find_peaks,
    loglog_fit,
)


def series(fn, t_end, n):
    grid = TimeGrid(0.0, t_end, n)
    return TimeSeries(grid, fn(grid.times))


# ------------------------------------------------------------------ TimeSeries

def test_time_series_properties():
    ts = series(np.sin, 10.0, 101)
    assert ts.dt == pytest.approx(0.1)
    assert ts.duration == pytest.approx(10.0)


def test_time_series_validation():
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(InvalidArgumentError, match="2 grid points"):
        TimeSeries(grid, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgumentError, match="2 grid points"):
        TimeSeries(grid, [[1.0, 2.0]])
    with pytest.raises(InvalidArgumentError, match="needs a TimeGrid, got ndarray"):
        TimeSeries(grid.times, [1.0, 2.0])


@given(st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=0.0, max_value=1e12),
       st.integers(min_value=2, max_value=5000))
@example(0.0, 10.0, 4001)
@example(0.0, 40.0, 8001)
@example(0.3, 0.3000000000000001, 3)
@example(0.0, 5e-324, 3)
def test_grid_step_and_span_match_the_sampled_times(t_start, t_end, n_points):
    """dt and duration from the grid equal those of its times, bitwise: linspace hits both ends.

    A span too short for its points, whose step underflows to 0, is refused.
    """
    assume(t_end > t_start)
    if not (t_end - t_start) / (n_points - 1) > 0:
        with pytest.raises(InvalidArgumentError, match="underflows to 0"):
            TimeGrid(t_start, t_end, n_points)
        return
    ts = TimeSeries(TimeGrid(t_start, t_end, n_points), np.zeros(n_points))
    t = ts.times
    assert ts.dt == (t[-1] - t[0]) / (n_points - 1)
    assert ts.duration == t[-1] - t[0]


# ------------------------------------------------------------------ find_peaks

def test_find_peaks_single_sine_max():
    ts = series(np.sin, 2.0 * math.pi, 1000)
    peaks = find_peaks(ts, 0.1)
    assert len(peaks) == 1
    t_peak, v_peak = peaks[0]
    assert t_peak == pytest.approx(math.pi / 2.0, abs=ts.dt)
    assert v_peak == pytest.approx(1.0, abs=1e-4)


def test_find_peaks_counts_oscillations():
    ts = series(lambda t: np.sin(3.0 * t), 40.0, 4000)
    peaks = find_peaks(ts, 0.1)
    # 40 / (2 pi / 3) = 19.1 full periods
    assert len(peaks) == 19


def test_find_peaks_empty_on_monotone():
    ts = series(lambda t: t, 1.0, 50)
    assert find_peaks(ts, 0.1) == []


def _scalar_vertex(xs, ys, k):
    """The parabolic vertex at one index k, written out."""
    if k <= 0 or k >= len(ys) - 1:
        return xs[k], ys[k]
    y0, y1, y2 = ys[k - 1], ys[k], ys[k + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return xs[k], ys[k]
    shift = min(max(0.5 * (y0 - y2) / denom, -1.0), 1.0)
    return xs[k] + shift * (xs[k] - xs[k - 1]), y1 - 0.25 * (y0 - y2) * shift


def test_refine_parabolic_matches_the_scalar_vertex():
    """One call refines every index, bitwise as the formula does one at a time, without a warning.

    k = 0 and k = 7 are the ends, k = 1 is collinear (denominator 0), k = 2
    an ordinary vertex and k = 3 one whose shift is clipped to a step.
    """
    xs = np.linspace(0.0, 1.4, 8)
    ys = np.array([0.0, 1.0, 2.0, 1.1, 0.0, 3.0, 1.0, 5.0])
    idx = np.arange(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y = _refine_parabolic(xs, ys, idx)
        empty = _refine_parabolic(xs, ys, idx[:0])
    expected = np.array([_scalar_vertex(xs, ys, k) for k in idx])
    assert np.array_equal(x, expected[:, 0]) and np.array_equal(y, expected[:, 1])
    assert (x[[0, 1, 7]] == xs[[0, 1, 7]]).all() and x[3] == xs[2]
    assert 0.0 < x[2] - xs[2] < xs[1] - xs[0]
    assert empty[0].shape == empty[1].shape == (0,)


def test_find_peaks_needs_three_samples():
    with pytest.raises(InsufficientDataError):
        find_peaks(TimeSeries(TimeGrid(0.0, 1.0, 2), [0.0, 1.0]), 0.1)


#: Runs of small integers: plateaus everywhere, at either edge too.
_PLATEAUS = st.lists(st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4)),
                     max_size=15).map(lambda runs: np.repeat([float(v) for v, _ in runs], [k for _, k in runs]))

_SIGNALS = st.one_of(
    st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40).map(np.array),  # no overflow in x[i] - x[j]
    st.lists(st.floats(min_value=-3.0, max_value=3.0), max_size=40).map(np.array),
    _PLATEAUS,
    _PLATEAUS.map(np.sort),
    _PLATEAUS.map(lambda x: np.sort(x)[::-1]),
)


@settings(max_examples=300)
@given(values=_SIGNALS, prominence=st.floats(min_value=0.0, max_value=3.0))
@example(values=np.full(7, 2.0), prominence=0.0)
@example(values=np.arange(9.0), prominence=0.0)
@example(values=np.array([3.0, 3.0, 1.0, 2.0, 2.0, 2.0, 0.0, 2.0, 2.0]), prominence=0.0)
@example(values=np.array([0.0, 2.0, 1.0, 2.0, 0.0]), prominence=0.0)  # equal peaks: bases run past each other
def test_prominent_maxima_matches_scipy(values, prominence):
    # each peak's own prominence, and the next float above it, puts that peak on the keep/drop edge
    _, props = scipy.signal.find_peaks(values, prominence=0.0)
    edges = props["prominences"]
    for p in [prominence, 0.0, *edges, *np.nextafter(edges, np.inf)]:
        expected, _ = scipy.signal.find_peaks(values, prominence=p)
        np.testing.assert_array_equal(_prominent_maxima(values, p), expected, err_msg=f"prominence {p}")


# ---------------------------------------------------------- dominant_frequency

def test_dominant_frequency_pure_cosine():
    ts = series(lambda t: np.cos(3.0 * t), 40.0, 8000)
    assert dominant_frequency(ts) == pytest.approx(3.0, rel=1e-3)


def test_dominant_frequency_scale_offset_invariant():
    grid = TimeGrid(0.0, 40.0, 8000)
    t = grid.times
    base = dominant_frequency(TimeSeries(grid, np.cos(3.0 * t)))
    moved = dominant_frequency(TimeSeries(grid, 5.0 * np.cos(3.0 * t) + 2.0))
    assert moved == pytest.approx(base, abs=1e-9)


def test_dominant_frequency_constant_rejected():
    ts = series(lambda t: np.ones_like(t), 10.0, 500)
    with pytest.raises(InsufficientDataError):
        dominant_frequency(ts)


def test_dominant_frequency_needs_enough_periods():
    # ~4.8 periods of omega = 3 in [0, 10]: below the 10-period floor
    ts = series(lambda t: np.cos(3.0 * t), 10.0, 2000)
    with pytest.raises(InsufficientDataError):
        dominant_frequency(ts)


# ------------------------------------------------------------- envelope_period

def test_envelope_period_synthetic_beat():
    # carrier sin^2(3t) under envelope sin^2(0.01 t): first envelope maximum
    # at t* = 50 pi, so the extracted period is 100 pi
    ts = series(lambda t: np.sin(0.01 * t) ** 2 * np.sin(3.0 * t) ** 2, 400.0, 8000)
    assert envelope_period(ts) == pytest.approx(100.0 * math.pi, rel=0.02)


def test_envelope_period_flat_envelope_rejected():
    ts = series(lambda t: np.sin(3.0 * t), 40.0, 4000)
    with pytest.raises(InsufficientDataError):
        envelope_period(ts)


def test_envelope_period_too_few_carrier_peaks():
    ts = series(lambda t: np.sin(3.0 * t), 6.0, 600)
    with pytest.raises(InsufficientDataError):
        envelope_period(ts)


def test_envelope_prominence_default():
    assert ENVELOPE_PROMINENCE == 0.05


# ------------------------------------------------------------------ loglog_fit

def test_loglog_fit_linear_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = loglog_fit(x, 5.0 * x)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.alpha is None


def test_loglog_fit_quadratic_law():
    x = np.array([1.0, 3.0, 9.0, 27.0])
    fit = loglog_fit(x, x ** 2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


def test_loglog_fit_scale_invariant_slope(rng):
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = x ** 1.3 * np.exp(rng.normal(scale=0.05, size=4))
    a = loglog_fit(x, y)
    b = loglog_fit(x, 10.0 * y)
    assert b.slope == pytest.approx(a.slope, abs=1e-12)
    assert b.r_squared == pytest.approx(a.r_squared, abs=1e-12)


def test_loglog_fit_validation():
    with pytest.raises(InvalidArgumentError):
        loglog_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        loglog_fit([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgumentError):
        loglog_fit([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
    with pytest.raises(InvalidArgumentError):
        loglog_fit([1.0, 2.0, 3.0], [1.0, 2.0])


# --------------------------------------------------- period-coupling mapping

def test_effective_coupling_reference_anisotropy():
    # at g = 1, d = 1/2 the dressing weight is 1/sqrt(2) and J_eff = pi / T
    params = LadderParams()
    assert effective_coupling_from_period(100.0, params) == pytest.approx(
        math.pi / 100.0, rel=1e-12)


def test_effective_coupling_general_anisotropy():
    params = LadderParams(g=0.0, d=0.5)
    # weight = 1 when the bond is purely Ising-dressed
    expected = math.pi / (100.0 * math.sqrt(2.0))
    assert effective_coupling_from_period(100.0, params) == pytest.approx(expected, rel=1e-12)


def test_effective_coupling_rejects_d_zero():
    with pytest.raises(InvalidArgumentError):
        effective_coupling_from_period(100.0, LadderParams(d=0.0))
    with pytest.raises(InvalidArgumentError):
        effective_coupling_from_period(-1.0, LadderParams())


def test_extract_alpha_planted_round_trip():
    # plant J_eff = 0.02 at h = 100, J = 1: T = pi / J_eff and alpha = 2
    params = LadderParams(h=100.0)
    t_slow = math.pi / 0.02
    assert extract_alpha(t_slow, params) == pytest.approx(2.0, abs=1e-9)


def test_extract_alpha_validation():
    with pytest.raises(InvalidArgumentError):
        extract_alpha(100.0, LadderParams(h=0.0, field_mask=frozenset()))
    with pytest.raises(InvalidArgumentError):
        extract_alpha(100.0, LadderParams(j_perp=1.0, j_parallel=0.9))
