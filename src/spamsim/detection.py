"""Photon-count model for population detection of the fluorescing manifold.

A detection window integrates camera counts for ``total_duration`` seconds.
Counts are Poisson around a mean that interpolates linearly between the dark
and bright rates with the fraction of the window the ion spent fluorescing,
plus Gaussian read noise, rounded to an integer.  The camera offset is assumed
to be subtracted upstream, so the configured means are net counts and sampled
values may come out negative.  A state is called bright when its counts
strictly exceed the threshold; ties count as dark.

The count model is stated once: :func:`mean_counts` gives the Poisson mean,
:func:`draw_counts` the counts around it and :func:`count_pmf` their law;
:func:`sample_counts` and the engine's detect op call the first two.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class ThresholdSeparationError(ValueError):
    """Histograms too entangled to place a threshold between them."""


def _check_count(name: str, value: int, minimum: int) -> None:
    """Refuse ``value`` unless it is an ``int`` (not a bool) of at least ``minimum``.

    A float would fail later with an error that names no argument, and a numpy
    integer would make the run's summary unserializable.
    """
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


# The rules for a real argument refuse NaN, a bool, which a saved model would
# write as a JSON boolean the schema refuses, and anything that is not a
# ``numbers.Real``: a str or None would fail the comparison without a name,
# and a Decimal would pass it and fail later in float arithmetic.
def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_probability(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a probability: a real in [0, 1]."""
    if not (_is_real(value) and 0 <= value <= 1):
        raise ValueError(f"{name} must be a probability, got {value!r}")


def _check_finite(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a finite real."""
    if not (_is_real(value) and -math.inf < value < math.inf):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a finite real >= 0."""
    if not (_is_real(value) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _check_positive(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a finite real > 0."""
    if not (_is_real(value) and 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class DetectionModel:
    """Count statistics and timing of one population detection window.

    ``threshold`` must be an ``int`` >= 0: not a bool, a float or a numpy integer.
    """

    mean_bright: float
    mean_dark: float
    read_noise_sigma: float
    total_duration: float
    threshold: int

    def __post_init__(self) -> None:
        _check_nonnegative("mean_bright", self.mean_bright)
        _check_nonnegative("mean_dark", self.mean_dark)
        _check_nonnegative("read_noise_sigma", self.read_noise_sigma)
        _check_positive("total_duration", self.total_duration)
        _check_count("threshold", self.threshold, 0)


@dataclass(frozen=True)
class CountHistogram:
    """Integer count histogram, one bin per count value.

    Every bin is an ``int``, negative ones included, and every frequency an
    ``int`` >= 0: neither may be a bool, a float or a numpy integer.
    """

    bin_lows: tuple[int, ...]
    frequencies: tuple[int, ...]
    label: str = "unlabeled"

    def __post_init__(self) -> None:
        if len(self.bin_lows) != len(self.frequencies):
            raise ValueError("bin_lows and frequencies must have equal length")
        for low in self.bin_lows:
            if not isinstance(low, int) or isinstance(low, bool):
                raise ValueError(f"bin_lows must be integers, got {low!r}")
        for frequency in self.frequencies:
            _check_count("frequencies", frequency, 0)
        if sum(self.frequencies) <= 0:
            raise ValueError("histogram must contain at least one sample")
        if list(self.bin_lows) != sorted(set(self.bin_lows)):
            raise ValueError("bin_lows must be strictly increasing")

    @property
    def total(self) -> int:
        return int(sum(self.frequencies))

    def moments(self) -> tuple[float, float]:
        """Weighted mean and population standard deviation of the counts."""
        values = np.asarray(self.bin_lows, dtype=float)
        weights = np.asarray(self.frequencies, dtype=float)
        mean = float(np.average(values, weights=weights))
        var = float(np.average((values - mean) ** 2, weights=weights))
        return mean, math.sqrt(var)

    @classmethod
    def from_samples(cls, counts: Iterable[int], label: str = "unlabeled") -> "CountHistogram":
        """Histogram of integer samples: a float or bool sample is refused, not
        truncated, as a bin of either type is.  An array is checked by its dtype,
        any other iterable element by element."""
        if isinstance(counts, np.ndarray):
            odd = counts.flat[:1].tolist() if counts.dtype.kind not in "iu" else []
        else:
            counts = list(counts)
            odd = [c for c in counts if type(c) is bool or not isinstance(c, (int, np.integer))]
        if odd:
            raise ValueError(f"samples must be integers, got {odd[0]!r}")
        values, freqs = np.unique(counts, return_counts=True)
        return cls(tuple(int(v) for v in values), tuple(int(f) for f in freqs), label)


def write_histogram_csv(hist: CountHistogram, path: str) -> None:
    """Two-column CSV: bin_low, frequency.

    The rows are those of :class:`csv.writer` (``\\r\\n`` line ends, integers
    need no quoting), joined into one string and written at once.
    """
    rows = "".join(f"{low},{freq}\r\n" for low, freq in zip(hist.bin_lows, hist.frequencies))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("bin_low,frequency\r\n" + rows)


def read_histogram_csv(path: str, label: str = "unlabeled") -> CountHistogram:
    bins: list[int] = []
    freqs: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for number, row in enumerate(csv.reader(handle), 1):
            if not row or row[0].strip() == "bin_low":
                continue
            try:
                low, freq = float(row[0]), float(row[1])
                if not (low.is_integer() and freq.is_integer()):  # also fails inf and nan
                    raise ValueError
            except (IndexError, ValueError):
                raise ValueError(f"{path}: row {number} is not an integral "
                                 f"(bin_low, frequency) pair: {row!r}") from None
            bins.append(int(low))
            freqs.append(int(freq))
    if not bins:
        raise ValueError(f"no histogram rows in {path}")
    order = np.argsort(bins)
    return CountHistogram(
        tuple(bins[i] for i in order), tuple(freqs[i] for i in order), label
    )


# =========================================================================
# Sampling and classification
# =========================================================================

def mean_counts(fluorescing_fraction: float | np.ndarray, model: DetectionModel) -> np.ndarray:
    """Poisson means, as float64 values, of windows with the given bright fractions.

    The mean interpolates linearly between the dark and bright rates, so a
    fraction of exactly 1 or 0 gives exactly ``mean_bright`` or ``mean_dark``.
    """
    fraction = np.asarray(fluorescing_fraction, dtype=float)
    # Two reductions, no temporaries: NaN propagates to fail both tests, and
    # ``initial`` lets an empty array pass.
    if not (fraction.min(initial=0.0) >= 0.0 and fraction.max(initial=1.0) <= 1.0):
        raise ValueError(f"fluorescing fraction must be in [0, 1], got {fluorescing_fraction}")
    return fraction * model.mean_bright + (1.0 - fraction) * model.mean_dark


def draw_counts(mean: float | np.ndarray, shape: tuple[int, ...], model: DetectionModel,
                rng: np.random.Generator) -> np.ndarray:
    """Draw int64 counts of shape ``shape`` around the Poisson mean ``mean``:
    one value for every window, or an array of that shape.

    One Poisson draw per window and then, with read noise, one normal draw per
    window; the sum is rounded to the nearest integer.  numpy draws the same
    values for a scalar mean as for an array of it.  With read noise a call
    holds two arrays, the Poisson int64 one it returns and one float64 one,
    and no third.
    """
    counts = rng.poisson(mean, shape)
    if model.read_noise_sigma > 0:
        # The Poisson counts go into the noise array, which is rounded in
        # place and cast back into the Poisson array: every sum is integral.
        noisy = rng.normal(0.0, model.read_noise_sigma, shape)
        noisy += counts
        np.copyto(counts, np.rint(noisy, out=noisy), casting="unsafe")
    return counts


def sample_counts(
    fluorescing_fraction: float | np.ndarray, model: DetectionModel, rng: np.random.Generator
) -> int | np.ndarray:
    """Draw integer count values for windows with the given bright fractions.

    :func:`mean_counts` followed by :func:`draw_counts`.  A scalar fraction
    gives one ``int``; an array gives int64 counts of the same shape.
    """
    mean = mean_counts(fluorescing_fraction, model)
    counts = draw_counts(mean, mean.shape, model, rng)
    return int(counts) if counts.ndim == 0 else counts


def classify(counts: float | np.ndarray, threshold: float) -> bool | np.ndarray:
    """True means bright.  Strict comparison: a tie with the threshold is dark."""
    return counts > threshold


# =========================================================================
# Threshold calibration
# =========================================================================

@dataclass(frozen=True)
class CalibrationResult:
    threshold: int
    crossing: float
    dark_fit: tuple[float, float]
    bright_fit: tuple[float, float]
    method: str


def equal_density_crossing(
    mu_low: float, sigma_low: float, mu_high: float, sigma_high: float
) -> float:
    """Where two Gaussian densities cross, restricted to between the means.

    With d = mu_high - mu_low and r = ln(sigma_high / sigma_low), the crossing
    solves sigma_high^2 (x - mu_low)^2 - sigma_low^2 (x - mu_high)^2
    = 2 sigma_low^2 sigma_high^2 r.  Its root between the means is taken with
    the numerator rationalized,

        x = mu_low + sigma_low (d^2 + 2 sigma_high^2 r)
            / (sigma_high sqrt(d^2 + 2 (sigma_high^2 - sigma_low^2) r) + sigma_low d),

    so both terms under the square root are >= 0, nothing cancels, and equal
    widths give the midpoint.  A zero dark width gives the dark mean, the
    limit of the root.
    """
    _check_finite("mu_low", mu_low)
    _check_nonnegative("sigma_low", sigma_low)
    _check_finite("mu_high", mu_high)
    _check_nonnegative("sigma_high", sigma_high)
    if mu_low > mu_high:
        mu_low, mu_high = mu_high, mu_low
        sigma_low, sigma_high = sigma_high, sigma_low
    if sigma_high <= 0:
        if sigma_low <= 0:
            return 0.5 * (mu_low + mu_high)
        raise ThresholdSeparationError(f"the bright fit at mean {mu_high:.2f} has zero "
                                       "width, so the densities do not cross between the means")
    if sigma_low <= 0:
        return mu_low
    d = mu_high - mu_low
    if d == 0:
        raise ThresholdSeparationError(f"both fits have mean {mu_low:.2f}, so no threshold "
                                       "separates them")
    r = math.log(sigma_high / sigma_low)
    root = math.sqrt(d * d + 2.0 * (sigma_high**2 - sigma_low**2) * r)
    x = mu_low + sigma_low * (d * d + 2.0 * sigma_high**2 * r) / (
        sigma_high * root + sigma_low * d)
    if not mu_low <= x <= mu_high:
        raise ThresholdSeparationError("densities do not cross between the means")
    return x


def _gauss_newton(model, params: np.ndarray, scale) -> np.ndarray:
    """Least squares of ``model(p) = (residuals, jacobian)`` by Gauss-Newton from ``params``.

    A step that raises the squared sum beyond rounding is halved.  The fit has
    converged when each step is under 1e-10 of ``scale(p)``; it is nan after 100
    steps or at a Jacobian that is not finite or has lost rank.
    """
    with np.errstate(all="ignore"):  # an overflow is inf or nan, not an error
        for _ in range(100):
            residuals, jacobian = model(params)
            if not np.isfinite(jacobian).all() or np.linalg.matrix_rank(jacobian) < params.size:
                break
            step = np.linalg.lstsq(jacobian, -residuals, rcond=None)[0]
            if (np.abs(step) <= 1e-10 * np.abs(scale(params))).all():
                return params
            while np.sum(model(params + step)[0] ** 2) > np.sum(residuals**2) * (1 + 1e-12):
                step /= 2
            params = params + step
    return np.full_like(params, np.nan)


def _fit_gaussian(hist: CountHistogram, method: str) -> tuple[float, float]:
    mean, std = hist.moments()
    if method == "moments":
        return mean, std
    if method != "least-squares":
        raise ValueError(f"unknown calibration method {method!r}")
    if len(hist.bin_lows) < 3:
        raise ValueError(f"least-squares calibration needs 3 or more bins; histogram "
                         f"{hist.label} has {len(hist.bin_lows)}")
    values = np.asarray(hist.bin_lows, dtype=float)
    freqs = np.asarray(hist.frequencies, dtype=float)

    def gaussian(params):  # amplitude * exp(-z^2 / 2) - freqs, and its Jacobian
        amplitude, mu, sigma = params
        z = (values - mu) / sigma
        shape = np.exp(-0.5 * z * z)
        slope = amplitude * shape * z / sigma
        return amplitude * shape - freqs, np.column_stack([shape, slope, slope * z])

    # From the moments; mu's steps are measured against the width.
    fit = _gauss_newton(gaussian, np.array([freqs.max(), mean, max(std, 0.5)]),
                        lambda params: params[[0, 2, 2]])
    if not np.isfinite(fit).all():
        raise ThresholdSeparationError(
            f"the least-squares fit of histogram {hist.label} does not converge")
    return float(fit[1]), abs(float(fit[2]))


def calibrate_threshold(
    hist_a: CountHistogram, hist_b: CountHistogram, method: str = "moments"
) -> CalibrationResult:
    """Fit one Gaussian per histogram and put the threshold at their crossing.

    The threshold is the largest integer at or below the crossing, since
    counts strictly above it read bright; a one-bin dark histogram, whose fit
    has zero width, puts it at that bin.  The histogram with the lower fitted
    mean is treated as dark, so the result does not depend on argument order.
    Raises :class:`ThresholdSeparationError` when the fitted means are closer
    than one combined standard deviation, the bright fit has zero width or a
    least-squares fit does not converge, and ``ValueError`` when
    ``least-squares`` gets a histogram of under 3 bins.
    """
    fit_a = _fit_gaussian(hist_a, method)
    fit_b = _fit_gaussian(hist_b, method)
    (dark, bright) = sorted((fit_a, fit_b), key=lambda fit: fit[0])
    separation = bright[0] - dark[0]
    if separation <= 0 or separation < dark[1] + bright[1]:
        raise ThresholdSeparationError(
            "histograms are not separable: fitted means "
            f"{dark[0]:.2f} and {bright[0]:.2f} are closer than one combined sigma"
        )
    crossing = equal_density_crossing(dark[0], dark[1], bright[0], bright[1])
    return CalibrationResult(
        threshold=math.floor(crossing),
        crossing=crossing,
        dark_fit=dark,
        bright_fit=bright,
        method=method,
    )


# =========================================================================
# Exact misclassification rates of the count model
# =========================================================================

def count_pmf(mean: float, model: DetectionModel) -> tuple[int, np.ndarray]:
    """The law of a window's counts at Poisson mean ``mean``, as ``(lowest, pmf)``.

    ``pmf[i]`` is the probability of ``lowest + i`` counts.  As round(k + g) =
    k + round(g) for an integer k, the law is the Poisson pmf convolved with
    that of the rounded read noise g, so ``lowest`` depends on g alone.
    """
    _check_nonnegative("mean", mean)
    size = int(mean + 14.0 * math.sqrt(mean + 1.0)) + 11 if mean > 0 else 1
    # Each term relative to the mode's, by p(k + 1) = p(k) mean / (k + 1)
    # outward from it, then scaled to sum to 1 (what lies past the last term
    # is below 1e-40).  exp(k log mean - mean - lgamma(k + 1)) would lose
    # about 1e-16 mean log(mean) to the cancellation of its terms.
    mode = int(mean)
    below = np.cumprod(np.arange(mode, 0, -1) / mean)[::-1] if mode else np.empty(0)
    weights = np.concatenate([below, [1.0], np.cumprod(mean / np.arange(mode + 1, size))])
    poisson = weights / math.fsum(weights)
    sigma = model.read_noise_sigma
    # tails[j] = P(g > j + 1/2), each from its small side (0 without noise).
    tails = np.array([0.5 * math.erfc((j + 0.5) / (sigma * math.sqrt(2.0))) if sigma else 0.0
                      for j in range(math.ceil(14.0 * sigma) + 1)])
    wing = tails[:-1] - tails[1:]  # P(round(g) = j) = P(round(g) = -j) for j >= 1
    return -wing.size, np.convolve(poisson, np.concatenate([wing[::-1], [1 - 2 * tails[0]], wing]))


def optical_error_rates(model: DetectionModel) -> tuple[float, float]:
    """Exact per-window misread probabilities ``(bright_error, dark_error)``.

    ``bright_error`` is the probability that a fully fluorescing state reads
    dark, ``dark_error`` that a fully dark state reads bright: each is a sum
    of :func:`count_pmf` over the wrong side of the threshold.
    """
    lowest, bright = count_pmf(model.mean_bright, model)
    split = max(model.threshold + 1 - lowest, 0)  # the index of the first count above it
    return float(bright[:split].sum()), float(count_pmf(model.mean_dark, model)[1][split:].sum())
