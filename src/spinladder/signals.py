"""Timescale extraction from concurrence and fidelity series.

Two scales coexist in the terminal-pair signals: a fast carrier set by the
dressed rung gap and, two orders of magnitude slower at strong field, a
transfer envelope. The routines here pull out carrier frequency, envelope
period, power-law fits, and the effective-coupling prefactor. Peaks are
found by a NumPy prominence peak finder that returns the indices
scipy.signal.find_peaks would; SciPy is not needed at run time. A series
lives on the TimeGrid it was sampled on: uniform steps from t_start >= 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError
from .evolution import TimeGrid

#: Minimum number of carrier oscillations for a frequency estimate.
MIN_PERIODS = 10

#: Carrier-peak prominence of the envelope extractor, fixed.
ENVELOPE_PROMINENCE = 0.05


@dataclass(frozen=True)
class TimeSeries:
    """Real signal, one value per point of the TimeGrid (uniform, t_start >= 0) it lives on."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, TimeGrid):
            raise InvalidArgumentError(f"a time series needs a TimeGrid, got {type(self.grid).__name__}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise InvalidArgumentError(f"values of shape {values.shape} for {self.grid.n_points} grid points")
        object.__setattr__(self, "values", values)

    @property
    def times(self):
        return self.grid.times

    @property
    def dt(self):
        return self.grid.dt

    @property
    def duration(self):
        return self.grid.t_end - self.grid.t_start


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    alpha: float = None


def _refine_parabolic(xs, ys, idx):
    """Vertices (x, y) of the parabolas through points k-1, k, k+1, one per k in idx.

    ys holds at least three samples. A k at either end of ys, or whose three
    points are collinear, keeps its sample; the vertex moves at most one
    step from it.
    """
    k = np.asarray(idx, dtype=np.intp)
    j = np.clip(k, 1, len(ys) - 2)  # an end k reads its neighbour's points, then keeps its sample
    y0, y1, y2 = ys[j - 1], ys[j], ys[j + 1]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # collinear: k keeps its sample
        shift = np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0)
    bent = (k == j) & (denom != 0.0)
    x = np.where(bent, xs[j] + shift * (xs[j] - xs[j - 1]), xs[k])
    y = np.where(bent, y1 - 0.25 * (y0 - y2) * shift, ys[k])
    return x, y


def _prominent_maxima(values, prominence):
    """Indices of the local maxima of values whose prominence is at least prominence.

    The definitions are those of scipy.signal.find_peaks(values,
    prominence=prominence) without a window length, and the indices agree
    with it exactly. A maximum needs a strict rise before it and a strict
    fall after it; a plateau reports its midpoint, rounded down. Its base on
    each side is the smallest sample between it and the first strictly
    higher sample on that side, or the array edge, and its prominence is its
    height above the higher of the two bases.
    """
    x = np.asarray(values, dtype=float)
    slope = np.diff(x)
    steps = np.flatnonzero(slope)
    rising = slope[steps] > 0
    top = rising[:-1] & ~rising[1:]
    peaks = (steps[:-1][top] + 1 + steps[1:][top]) // 2
    if peaks.size == 0:
        return peaks
    left = _base_minima(x, peaks)
    right = _base_minima(x[::-1], len(x) - 1 - peaks[::-1])[::-1]
    return peaks[x[peaks] - np.maximum(left, right) >= prominence]


def _base_minima(x, peaks):
    """Left base of each peak: min of x from past the nearest strictly higher peak on its left.

    The first strictly higher sample left of a peak lies on the flank of the
    nearest strictly higher peak, above every sample between the two, so the
    minimum from that peak (or from the array start) equals the minimum from
    that sample. A stack of peaks with strictly decreasing heights carries
    each one's minimum back to its own higher neighbour; per-peak segment
    minima feed it, for O(len(x) + len(peaks)) work.
    """
    segments = np.minimum.reduceat(x[:peaks[-1] + 1], np.concatenate(([0], peaks[:-1] + 1)))
    minima = np.empty(len(peaks))
    stack = []  # (height, minimum since the entry below), heights strictly decreasing
    for k, (height, low) in enumerate(zip(x[peaks].tolist(), segments.tolist())):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        minima[k] = low
        stack.append((height, low))
    return minima


def find_peaks(series, prominence):
    """Local maxima with at least the given prominence, parabolically refined.

    Returns a list of (time, value) pairs. An empty list is a valid result.
    """
    if series.grid.n_points < 3:
        raise InsufficientDataError("need at least 3 samples to locate peaks")
    x, y = _refine_parabolic(series.times, series.values, _prominent_maxima(series.values, prominence))
    return list(zip(x.tolist(), y.tolist()))


def dominant_frequency(series):
    """Angular frequency of the strongest non-DC spectral component.

    The mean-subtracted series is Hann-windowed, zero-padded eightfold, and
    the discrete power peak is refined by a parabola on log power. The raw
    spectral peak is reported as the carrier frequency: for the terminal
    concurrence this was checked against the dressed-gap prediction at the
    reference anisotropy before freezing (the rectified small-signal regime
    at weak Ising anisotropy instead doubles the peak; see the acceptance
    notes).
    """
    values = series.values - series.values.mean()
    n = len(values)
    padded = 8 * n
    power = np.abs(np.fft.rfft(values * np.hanning(n), n=padded)) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(padded, d=series.dt)
    if len(power) < 3 or power[1:].max() == 0.0:
        raise InsufficientDataError("series has no oscillating component")
    k = int(np.argmax(power[1:])) + 1
    (omega,), _ = _refine_parabolic(freqs, np.log(power + np.finfo(float).tiny), [k])
    if series.duration * omega < MIN_PERIODS * 2.0 * math.pi:
        raise InsufficientDataError(
            f"series spans fewer than {MIN_PERIODS} periods of the detected component"
        )
    return float(omega)


def envelope_period(series):
    """Slow period T = 2 t*, with t* the first maximum of the carrier-peak envelope.

    The envelope is the sequence of carrier-peak values from find_peaks with
    prominence ENVELOPE_PROMINENCE.
    Two cleanup steps are applied before locating its first maximum, both
    needed in practice:

    * consecutive peak values are pairwise averaged, because the carrier
      peaks of the terminal concurrence alternate between two interleaved
      families and the raw sequence zigzags at half the carrier period;
    * the averaged sequence is smoothed with a short moving average, and the
      first maximum is taken from peaks of the smoothed envelope with
      prominence of at least 20% of its range, then parabolically refined.

    A series whose envelope is flat (relative range below 1e-6), or that
    contains no envelope maximum, raises InsufficientDataError rather than
    returning a spurious period.
    """
    peaks = find_peaks(series, ENVELOPE_PROMINENCE)
    if len(peaks) < 8:
        raise InsufficientDataError(f"only {len(peaks)} carrier peaks; envelope is undefined")
    pt, pv = np.array(peaks).T

    # average disjoint consecutive pairs: kills the period-2 alternation
    half_n = len(pv) // 2
    env_t = 0.5 * (pt[0:2 * half_n:2] + pt[1:2 * half_n:2])
    env_v = 0.5 * (pv[0:2 * half_n:2] + pv[1:2 * half_n:2])

    window = max(3, len(env_v) // 12)
    window = min(window | 1, 31)  # odd, capped
    kernel = np.ones(window) / window
    smooth_v = np.convolve(env_v, kernel, mode="valid")
    half = window // 2
    smooth_t = env_t[half:len(env_t) - half]
    if len(smooth_v) < 3:
        raise InsufficientDataError("envelope too short after smoothing")

    vrange = smooth_v.max() - smooth_v.min()
    if vrange < 1e-6 * max(1.0, np.abs(smooth_v).max()):
        raise InsufficientDataError("envelope is flat; no slow modulation present")

    idx = _prominent_maxima(smooth_v, 0.2 * vrange)
    if len(idx) == 0:
        raise InsufficientDataError("no envelope maximum inside the sampled window")
    (t_star,), _ = _refine_parabolic(smooth_t, smooth_v, idx[:1])
    return 2.0 * float(t_star)


def loglog_fit(xs, ys):
    """Ordinary least squares of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidArgumentError("xs and ys must be equal-length vectors")
    if len(xs) < 3:
        raise InvalidArgumentError(f"need at least 3 points for a fit, got {len(xs)}")
    if (xs <= 0).any() or (ys <= 0).any():
        raise InvalidArgumentError("log-log fit requires strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ((ly - ly.mean()) ** 2).sum()
    r_squared = 1.0 if total == 0.0 else 1.0 - float((resid ** 2).sum()) / float(total)
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def effective_coupling_from_period(t_slow, params):
    """Rail coupling J_eff that produces a slow envelope of period t_slow.

    Closed-form route, derived from the two-rung effective model with the
    mediator reduced to its static dressing. Each terminal rung is a two
    level system {|00>, |11>} whose dressed eigenstates mix with angle
    set by g and d; the rail exchange -J_eff (sx sx + sx sx) acts inside
    the doubly dressed manifold with matrix element

        kappa = 2 d J_eff / sqrt(g^2 + 4 d^2),

    the dressing weight of the sz-like component. The initial product of a
    Bell pair and a ground rung is degenerate with the doubly excited rail
    configuration, and beating inside that manifold makes the terminal
    concurrence envelope follow sin^2(Omega t) with Omega = sqrt(2) kappa.
    First envelope maximum at t* = pi / (2 Omega), so

        t_slow = 2 t* = pi / Omega   and   J_eff = (pi / t_slow) * sqrt(g^2 + 4 d^2) / (2 sqrt(2) d).

    At the reference anisotropies (g = 1, d = 1/2) this is J_eff = pi / t_slow.
    Requires d > 0: the rail coupling has no dressed component at d = 0 and
    no slow transfer exists there.
    """
    if t_slow <= 0:
        raise InvalidArgumentError(f"t_slow must be positive, got {t_slow}")
    if params.d <= 0:
        raise InvalidArgumentError("the period-coupling mapping needs d > 0")
    weight = 2.0 * params.d / math.sqrt(params.g ** 2 + 4.0 * params.d ** 2)
    omega_slow = math.pi / t_slow
    return omega_slow / (math.sqrt(2.0) * weight)


def extract_alpha(t_slow, params):
    """Effective-coupling prefactor alpha = J_eff * h / J^2 from a measured period.

    J_eff comes from the closed-form period mapping above, and J is the
    common coupling scale (equal rung and leg couplings are required, since
    the carrier gap is set by the rung bond while the rail coupling is
    second order in the leg bond).
    """
    problem = _alpha_refusal(params)
    if problem is not None:
        raise InvalidArgumentError(problem)
    j_eff = effective_coupling_from_period(t_slow, params)
    return float(j_eff * params.h / params.j_parallel ** 2)


def _alpha_refusal(params):
    """Why extract_alpha refuses params whatever the period, or None; a driver can ask before it evolves."""
    if params.h == 0:
        return "alpha is undefined at h = 0"
    if abs(params.j_perp - params.j_parallel) > 1e-9 * max(abs(params.j_perp), 1.0):
        return (f"alpha extraction assumes j_perp == j_parallel, got j_perp = {params.j_perp!r} and "
                f"j_parallel = {params.j_parallel!r}")
    if params.j_parallel == 0:
        return "alpha is undefined at J = 0"
    if params.d <= 0:
        return "the period-coupling mapping needs d > 0"
    return None
