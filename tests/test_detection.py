"""Detection statistics, threshold calibration, optical error rates.

The frozen numbers below were derived independently of the implementation:

* ``equal_density_crossing(20, 15, 320, 60)``: equating two Gaussian log
  densities gives the quadratic
  ``(1/s1^2 - 1/s2^2) x^2 - 2 (m1/s1^2 - m2/s2^2) x + (m1^2/s1^2 - m2^2/s2^2)
  - 2 ln(s2/s1) = 0`` whose root between the means is ``x = 84.05609...``.
* Optical misread rates for the default counting model (dark mean 100, bright
  mean 232.6364, read noise sigma 6, threshold 161) come from summing the
  Poisson pmf against the Gaussian noise tail, recomputed here from scipy.

scipy is a test dependency only: it is the oracle for the count pmf, the
misread rates and the least-squares Gaussian fit, none of which use it.
"""

import csv
import dataclasses
import decimal
import math
import re

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.optimize import curve_fit

import spamsim as sp
from spamsim import engine
from spamsim.channels import decay_probability
from spamsim.detection import count_pmf, draw_counts, mean_counts, sample_counts
from spamsim.sequence import Prepare

CROSSING_20_15_320_60 = 84.05606042004078
BRIGHT_MISREAD = 3.199961e-06
DARK_MISREAD = 2.586474e-07


def quadratic_crossing(m1, s1, m2, s2):
    # Independent oracle: solve the equal-density condition directly.
    a = 1.0 / s1**2 - 1.0 / s2**2
    b = -2.0 * (m1 / s1**2 - m2 / s2**2)
    c = m1**2 / s1**2 - m2**2 / s2**2 - 2.0 * math.log(s2 / s1)
    roots = np.roots([a, b, c])
    roots = roots[(roots > min(m1, m2)) & (roots < max(m1, m2))]
    assert len(roots) == 1
    return float(roots[0])


def misread_probability(lam, sigma, threshold, below):
    # P(rounded Poisson+Gaussian counts land on the wrong side of threshold),
    # summed over that side directly: round(k + g) <= t iff g < t + 0.5 - k.
    if sigma == 0:
        return float((stats.poisson.cdf if below else stats.poisson.sf)(threshold, lam))
    ks = np.arange(0, int(lam + 20.0 * math.sqrt(lam) + 20))
    pmf = stats.poisson.pmf(ks, lam)
    tail = (stats.norm.cdf if below else stats.norm.sf)((threshold + 0.5 - ks) / sigma)
    return float(np.sum(pmf * tail))


def test_equal_density_crossing_frozen():
    value = sp.equal_density_crossing(20.0, 15.0, 320.0, 60.0)
    assert value == pytest.approx(CROSSING_20_15_320_60, abs=1e-6)
    assert value == pytest.approx(quadratic_crossing(20.0, 15.0, 320.0, 60.0), abs=1e-9)
    # Either argument order names the same two densities.
    assert sp.equal_density_crossing(320.0, 60.0, 20.0, 15.0) == value
    # A narrow density whose peak sits under a wide one crosses it outside the means.
    with pytest.raises(sp.ThresholdSeparationError, match="do not cross between the means"):
        sp.equal_density_crossing(0.0, 10.0, 1.0, 1.0)


def test_equal_sigma_crossing_is_weighted_midpoint():
    # Equal widths reduce the condition to |x-m1| = |x-m2|.
    assert sp.equal_density_crossing(10.0, 5.0, 30.0, 5.0) == pytest.approx(20.0)
    # So do two zero widths.
    assert sp.equal_density_crossing(10.0, 0.0, 30.0, 0.0) == 20.0


def test_zero_width_dark_fit_crosses_at_its_mean():
    # The limit of the root as the dark width goes to 0, in either argument order.
    for mu in (-3.0, 0.0, 3.0, 6.0, 95.25):
        assert sp.equal_density_crossing(mu, 0.0, 229.8, 15.9) == mu
        assert sp.equal_density_crossing(229.8, 15.9, mu, 0.0) == mu


def test_identical_fits_have_no_crossing():
    # Equal means leave nothing to separate, whatever the widths.
    for sigma_a, sigma_b in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]:
        with pytest.raises(sp.ThresholdSeparationError, match="both fits have mean 5.00"):
            sp.equal_density_crossing(5.0, sigma_a, 5.0, sigma_b)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 1.0, 2.0, 1.0), "mu_low"), ((0.0, math.inf, 2.0, 1.0), "sigma_low"),
    ((0.0, 1.0, math.inf, 1.0), "mu_high"), ((0.0, 1.0, 2.0, math.nan), "sigma_high"),
])
def test_a_non_finite_fit_is_refused_by_name_not_as_inseparable(args, name):
    # The CLI exits 4 on a ThresholdSeparationError and 2 on any other ValueError.
    with pytest.raises(ValueError, match=f"{name} must be") as info:
        sp.equal_density_crossing(*args)
    assert not isinstance(info.value, sp.ThresholdSeparationError)


def decimal_crossing(m1, s1, m2, s2):
    # Independent oracle: the equal-density quadratic in u = x - m1,
    # (s2^2 - s1^2) u^2 + 2 s1^2 d u - s1^2 (d^2 + 2 s2^2 ln(s2/s1)) = 0 with
    # d = m2 - m1, solved by the textbook formula in 60-digit arithmetic, where
    # its cancellation costs at most 13 of the 60 digits.
    with decimal.localcontext() as context:
        context.prec = 60
        m1, s1, m2, s2 = (decimal.Decimal(value) for value in (m1, s1, m2, s2))
        d = m2 - m1
        a = s2 * s2 - s1 * s1
        b = 2 * s1 * s1 * d
        c = -s1 * s1 * (d * d + 2 * s2 * s2 * (s2 / s1).ln())
        u = -c / b if a == 0 else (-b + (b * b - 4 * a * c).sqrt()) / (2 * a)
        return m1 + u


def test_equal_density_crossing_matches_a_60_digit_root():
    rng = np.random.default_rng(25)
    n = 12_000
    mu_low = rng.uniform(0.0, 300.0, n)
    mu_high = mu_low + rng.uniform(0.5, 300.0, n)
    sigma_low = rng.uniform(0.1, 80.0, n)
    # A quarter of the pairs have widths 1e-13, 1e-9 or 1e-6 apart, where the
    # quadratic's leading coefficient nearly vanishes.
    near = sigma_low * (1.0 + rng.choice([-1e-6, -1e-9, -1e-13, 1e-13, 1e-9, 1e-6], n))
    sigma_high = np.where(rng.random(n) < 0.25, near, rng.uniform(0.1, 80.0, n))
    checked = 0
    for args in zip(mu_low, sigma_low, mu_high, sigma_high):
        args = tuple(float(value) for value in args)
        exact = decimal_crossing(*args)
        if not args[0] <= exact <= args[2]:
            with pytest.raises(sp.ThresholdSeparationError, match="do not cross"):
                sp.equal_density_crossing(*args)
            continue
        value = sp.equal_density_crossing(*args)
        assert abs(decimal.Decimal(value) - exact) <= decimal.Decimal(1e-11) * exact, args
        checked += 1
    assert checked >= 10_000


def test_optical_error_rates_frozen(model):
    bright_err, dark_err = sp.optical_error_rates(model.detection)
    assert bright_err == pytest.approx(BRIGHT_MISREAD, rel=1e-5)
    assert dark_err == pytest.approx(DARK_MISREAD, rel=1e-5)


def assert_misread_rates_match_independent_sum(det):
    # abs=0: pytest's default abs of 1e-12 would pass any dark rate near 2.6e-7.
    bright_err, dark_err = sp.optical_error_rates(det)
    assert bright_err == pytest.approx(
        misread_probability(det.mean_bright, det.read_noise_sigma, det.threshold, below=True),
        rel=1e-9, abs=0,
    )
    assert dark_err == pytest.approx(
        misread_probability(det.mean_dark, det.read_noise_sigma, det.threshold, below=False),
        rel=1e-9, abs=0,
    )


def test_optical_error_rates_match_independent_sum(model):
    assert_misread_rates_match_independent_sum(model.detection)


def test_optical_error_rates_without_read_noise_are_poisson_tails(model):
    det = dataclasses.replace(model.detection, read_noise_sigma=0.0)
    assert_misread_rates_match_independent_sum(det)
    # Without noise the law is the Poisson pmf itself, from count 0.
    lowest, pmf = count_pmf(det.mean_bright, det)
    assert lowest == 0
    np.testing.assert_allclose(pmf, stats.poisson.pmf(np.arange(pmf.size), det.mean_bright),
                               rtol=1e-11, atol=0)


@pytest.mark.parametrize("sigma", [None, 0.0, 0.3])
@pytest.mark.parametrize("mean", [0.0, 0.01, 3.0, 100.0, 232.6364, 5000.0, 20000.0])
def test_count_pmf_sums_to_one(model, mean, sigma):
    det = model.detection if sigma is None else dataclasses.replace(
        model.detection, read_noise_sigma=sigma)
    lowest, pmf = count_pmf(mean, det)
    assert (pmf >= 0).all()
    assert math.fsum(pmf) == pytest.approx(1.0, rel=0, abs=1e-13)
    # The rounded noise is symmetric, so the mean is the Poisson mean.
    assert math.fsum((lowest + np.arange(pmf.size)) * pmf) == pytest.approx(mean, abs=1e-9)


@pytest.mark.parametrize("mean", [5000.0, 20000.5])
def test_count_pmf_at_large_means_matches_stirling(model, mean):
    # At the mode k, Stirling's series gives log p(k) = k log1p(d / k) - d
    # - log(2 pi k) / 2 - 1/(12 k) + 1/(360 k^3) - ... with d = mean - k in
    # [0, 1): no term near mean log(mean), so it is an oracle to about 1e-15.
    det = dataclasses.replace(model.detection, read_noise_sigma=0.0)
    lowest, pmf = count_pmf(mean, det)
    k = int(mean)
    log_mode = (k * math.log1p((mean - k) / k) - (mean - k) - 0.5 * math.log(2 * math.pi * k)
                - 1 / (12 * k) + 1 / (360 * k**3))
    assert pmf[k - lowest] == pytest.approx(math.exp(log_mode), rel=1e-14, abs=0)


@pytest.mark.parametrize("fraction", [0.0, 1.0], ids=["dark", "bright"])
def test_draw_counts_follow_count_pmf(model, fraction):
    # A chi-square test of 10^5 draws against the exact law, at a fixed seed,
    # with adjacent counts pooled until each bin expects at least 5.
    det = model.detection
    mean = mean_counts(np.full(100_000, fraction), det)
    counts = draw_counts(mean, mean.shape, det, np.random.default_rng(2024))
    lowest, pmf = count_pmf(mean[0], det)
    observed = np.bincount(counts - lowest, minlength=pmf.size)
    assert observed.size == pmf.size
    expected = pmf * counts.size
    edges, total = [], 0.0
    for index, value in enumerate(expected):
        total += value
        if total >= 5:
            edges.append(index + 1)
            total = 0.0
    edges[-1] = pmf.size  # the last bin takes the short tail
    observed_bins = np.add.reduceat(observed, [0] + edges[:-1])
    expected_bins = np.add.reduceat(expected, [0] + edges[:-1])
    assert observed_bins.sum() == counts.size
    statistic = float(np.sum((observed_bins - expected_bins) ** 2 / expected_bins))
    assert stats.chi2.sf(statistic, len(edges) - 1) >= 1e-3


def decayed_read_pmf(det, lifetime):
    """The law of the counts, before read noise, of a window whose shot starts
    dark and decays inside it: ``pmf[k]`` for k = 0, 1, ...

    The engine draws the decay instant t as an exponential of ``lifetime``
    truncated to the window T and reads Poisson(lam) with
    lam = d + (b - d)(T - t)/T, so lam has density e^(-c lam)/Z on [d, b] with
    c = -T / (lifetime (b - d)) and Z = e^(-cd) (-expm1(-c (b - d))) / c.
    Integrating the Poisson pmf against it,

        P(k) = (1 + c)^-(k + 1) [F(k; (1 + c) d) - F(k; (1 + c) b)] / Z

    with F the Poisson CDF, each difference taken from its small tail.  It
    holds for c > -1, a lifetime above T / (b - d).
    """
    b, d, window = det.mean_bright, det.mean_dark, det.total_duration
    c = -window / (lifetime * (b - d))
    assert c > -1
    ks = np.arange(int(b + 14.0 * math.sqrt(b + 1.0)) + 11)
    low, high = (1 + c) * d, (1 + c) * b
    between = np.where(ks < high, stats.poisson.cdf(ks, low) - stats.poisson.cdf(ks, high),
                       stats.poisson.sf(ks, high) - stats.poisson.sf(ks, low))
    z = math.exp(-c * d) * -math.expm1(-c * (b - d)) / c
    return (1 + c) ** -(ks + 1.0) * between / z


@pytest.mark.parametrize("lifetime", [2e-4, 5e-3, 27.2])
def test_decayed_read_law_matches_quadrature(model, lifetime):
    det = model.detection
    b, d, window = det.mean_bright, det.mean_dark, det.total_duration
    pmf = decayed_read_pmf(det, lifetime)
    assert (pmf >= 0).all()
    assert math.fsum(pmf) == pytest.approx(1.0, rel=0, abs=1e-12)
    # The instant's density, integrated directly over the mean it gives.
    rate = window / (lifetime * (b - d))
    for k in (120, 160, 200):
        integral, _ = integrate.quad(
            lambda lam: math.exp(rate * (lam - b)) * stats.poisson.pmf(k, lam), d, b,
            epsabs=0, epsrel=1e-13, limit=200)
        expected = integral * rate / -math.expm1(-rate * (b - d))
        assert pmf[k] == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("sigma", [0.0, 6.0])
@pytest.mark.parametrize("lifetime, seed", [(5e-3, 1), (2e-4, 7)])
def test_reads_that_decay_inside_the_window_follow_the_exact_law(model, lifetime, seed, sigma):
    # One 100000-shot M one chunk, run op by op with perfect channels: the R2
    # counts of the shots dark before R2 follow (1 - p) pmf(d) + p law, with
    # p the window's decay probability and the law convolved with the rounded
    # read noise.  At 0.2 ms nine in ten of them decay inside the window, so
    # a partial mean taken from the wrong side of the instant shows there.
    det = dataclasses.replace(model.detection, read_noise_sigma=sigma)
    decaying = dataclasses.replace(model.with_perfect_channels(), detection=det,
                                   decay=sp.DecayChannel(lifetime))
    compiled = engine._compile(sp.build_sequence("M", Prepare.ONE), decaying)
    in_b = np.array([label.in_manifold(sp.Manifold.B) for label in compiled.labels])
    chunk = engine._ChunkState.start(100_000, np.random.default_rng(seed), 1)
    for op in compiled.ops:
        dark = in_b.take(chunk.state)
        counts = engine._apply_op(chunk, compiled, op)
        if op.detect == sp.DetectLabel.R2:
            break
    counts = counts[dark]
    assert counts.size > 9000

    p = decay_probability(det.total_duration, decaying.decay)
    lowest, undecayed = count_pmf(det.mean_dark, det)
    _, noise = count_pmf(0.0, det)  # the rounded read noise alone, from ``lowest``
    decayed = np.convolve(decayed_read_pmf(det, lifetime), noise)
    law = p * decayed
    law[:undecayed.size] += (1 - p) * undecayed
    observed = np.bincount(counts - lowest, minlength=law.size)
    assert observed.size == law.size
    # Adjacent counts pooled until each bin expects at least 5.
    expected = law * counts.size
    edges, total = [], 0.0
    for index, value in enumerate(expected):
        total += value
        if total >= 5:
            edges.append(index + 1)
            total = 0.0
    edges[-1] = law.size  # the last bin takes the short tail
    observed_bins = np.add.reduceat(observed, [0] + edges[:-1])
    expected_bins = np.add.reduceat(expected, [0] + edges[:-1])
    assert stats.chisquare(observed_bins, expected_bins).pvalue > 1e-4


def test_histogram_basics():
    hist = sp.CountHistogram.from_samples([3, 3, 4, 7, 7, 7], label="demo")
    assert hist.total == 6
    assert hist.bin_lows == (3, 4, 7)
    assert hist.frequencies == (2, 1, 3)
    mean, sigma = hist.moments()
    samples = np.array([3, 3, 4, 7, 7, 7], dtype=float)
    assert mean == pytest.approx(samples.mean())
    assert sigma == pytest.approx(samples.std())
    # A float or bool sample is refused, not truncated into a bin, also among
    # integers; no sample at all is an error of its own.
    for samples, message in [([1.5, 2.7, 2.2], "samples must be integers, got 1.5"),
                             ([True, False], "samples must be integers, got True"),
                             ([1, True, 2], "samples must be integers, got True"),
                             ([3, 4.0], "samples must be integers, got 4.0"),
                             (np.array([1.5, 2.0]), "samples must be integers, got 1.5"),
                             ([], "histogram must contain at least one sample")]:
        with pytest.raises(ValueError, match=message):
            sp.CountHistogram.from_samples(samples)


def test_histogram_csv_round_trip(tmp_path):
    hist = sp.CountHistogram.from_samples([1, 1, 2, 9], label="roundtrip")
    path = tmp_path / "hist.csv"
    sp.write_histogram_csv(hist, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "bin_low,frequency"
    again = sp.read_histogram_csv(str(path), label="roundtrip")
    assert again == hist
    # Integral floats read as the integers they name.
    path.write_text("bin_low,frequency\n9.0,1\n1,2.0\n2e0,1\n")
    assert sp.read_histogram_csv(str(path), label="roundtrip") == hist
    path.write_text("bin_low,frequency\n\n")
    with pytest.raises(ValueError, match="no histogram rows in"):
        sp.read_histogram_csv(str(path))


@pytest.mark.parametrize("bin_lows, frequencies, message", [
    ((1, 2), (3,), "bin_lows and frequencies must have equal length"),
    ((1, 2), (3, -1), "frequencies must be an integer >= 0, got -1"),
    ((1, 2), (0, 0), "histogram must contain at least one sample"),
    ((2, 2), (3, 1), "bin_lows must be strictly increasing"),
    ((1.5, 2.5), (2, 3), "bin_lows must be integers, got 1.5"),
    ((1, 2.0), (2, 3), "bin_lows must be integers, got 2.0"),
    ((np.int64(1),), (2,), "bin_lows must be integers, got np.int64"),
    ((False, 1), (2, 3), "bin_lows must be integers, got False"),
    ((1, 2), (2, 3.0), r"frequencies must be an integer >= 0, got 3\.0"),
    ((1,), (np.int64(2),), "frequencies must be an integer >= 0, got np.int64"),
    ((1, 2), (True, 3), "frequencies must be an integer >= 0, got True"),
])
def test_histogram_rejects_malformed_bins(bin_lows, frequencies, message):
    with pytest.raises(ValueError, match=message):
        sp.CountHistogram(bin_lows, frequencies)


def test_histogram_csv_matches_csv_writer(tmp_path):
    hist = sp.CountHistogram.from_samples([-7, -7, -1, 0, 3, 3, 3, 250], label="writer")
    path = tmp_path / "hist.csv"
    sp.write_histogram_csv(hist, str(path))
    # The row-by-row csv.writer loop the one-write form replaced.
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_low", "frequency"])
        for low, freq in zip(hist.bin_lows, hist.frequencies):
            writer.writerow([low, freq])
    assert path.read_bytes() == reference.read_bytes()


def test_calibrate_threshold_on_synthetic_gaussians():
    rng = np.random.default_rng(11)
    dark = sp.CountHistogram.from_samples(
        np.rint(rng.normal(20.0, 15.0, 200_000)).astype(int), label="dark"
    )
    bright = sp.CountHistogram.from_samples(
        np.rint(rng.normal(320.0, 60.0, 200_000)).astype(int), label="bright"
    )
    result = sp.calibrate_threshold(dark, bright, method="moments")
    assert result.crossing == pytest.approx(CROSSING_20_15_320_60, abs=1.0)
    assert result.threshold == math.floor(result.crossing)
    assert result.method == "moments"
    # Argument order must not matter.
    swapped = sp.calibrate_threshold(bright, dark, method="moments")
    assert swapped.threshold == result.threshold
    with pytest.raises(ValueError, match="unknown calibration method 'x'"):
        sp.calibrate_threshold(dark, bright, method="x")


def test_calibrate_threshold_least_squares_close_to_moments():
    rng = np.random.default_rng(5)
    dark = sp.CountHistogram.from_samples(
        np.rint(rng.normal(50.0, 8.0, 100_000)).astype(int), label="dark"
    )
    bright = sp.CountHistogram.from_samples(
        np.rint(rng.normal(230.0, 16.0, 100_000)).astype(int), label="bright"
    )
    by_moments = sp.calibrate_threshold(dark, bright, method="moments")
    by_fit = sp.calibrate_threshold(dark, bright, method="least-squares")
    assert abs(by_fit.crossing - by_moments.crossing) < 2.0


def curve_fit_gaussian(hist):
    # Independent oracle: scipy's curve_fit on the same objective, from the same start.
    mean, std = hist.moments()
    values = np.asarray(hist.bin_lows, dtype=float)
    freqs = np.asarray(hist.frequencies, dtype=float)

    def gaussian(x, amplitude, mu, sigma):
        return amplitude * np.exp(-0.5 * ((x - mu) / sigma) ** 2)

    params, _ = curve_fit(gaussian, values, freqs, p0=(freqs.max(), mean, max(std, 0.5)),
                          maxfev=20000)
    return params[1], abs(params[2])


def rounded_normals(seed, n, *shapes):
    # Drawn as the calibration tests and criterion 8 draw their histograms.
    rng = np.random.default_rng(seed)
    return [np.rint(rng.normal(mu, sigma, n)).astype(int) for mu, sigma in shapes]


def default_model_counts(model, seed, n=4000):
    # n dark, then n bright counts of the default model, as the command tests use.
    rng = np.random.default_rng(seed)
    return [sample_counts(np.full(n, fraction), model.detection, rng) for fraction in (0.0, 1.0)]


@pytest.mark.parametrize("samples", [
    pytest.param(lambda model: rounded_normals(5, 100_000, (50.0, 8.0), (230.0, 16.0)),
                 id="normals-100000"),
    pytest.param(lambda model: rounded_normals(11, 200_000, (20.0, 15.0), (320.0, 60.0)),
                 id="normals-200000"),
    pytest.param(lambda model: rounded_normals(5, 5000, (60.0, 12.0), (140.0, 16.0)),
                 id="mixture-5000"),
    pytest.param(lambda model: default_model_counts(model, 12), id="count-model-4000"),
])
def test_least_squares_fits_match_curve_fit(model, samples):
    dark, bright = (sp.CountHistogram.from_samples(counts, label=label)
                    for counts, label in zip(samples(model), ("dark", "bright")))
    result = sp.calibrate_threshold(dark, bright, method="least-squares")
    for fit, hist in ((result.dark_fit, dark), (result.bright_fit, bright)):
        assert fit == pytest.approx(curve_fit_gaussian(hist), rel=1e-6, abs=0)


def test_threshold_is_the_largest_integer_at_or_below_the_crossing():
    # Counts strictly above the threshold read bright, so the threshold is
    # floor(crossing).  Here the crossing is 110.77 and count 111 is more
    # likely under the bright fit; a threshold at the nearest integer, 111,
    # would read it dark.
    dark, bright = (sp.CountHistogram.from_samples(counts) for counts in
                    rounded_normals(5, 5000, (50.0, 8.0), (230.0, 16.0)))
    result = sp.calibrate_threshold(dark, bright)
    assert result.crossing == pytest.approx(110.77, abs=0.01)
    assert result.threshold == 110

    def density(fit, x):
        return stats.norm.pdf(x, *fit)

    assert density(result.dark_fit, 110) > density(result.bright_fit, 110)
    assert density(result.dark_fit, 111) < density(result.bright_fit, 111)


def test_one_bin_dark_histogram_puts_the_threshold_at_its_bin():
    # A zero-width dark fit crosses the bright one at the dark mean, for every bin.
    [counts] = rounded_normals(9, 20_000, (229.8, 15.9))
    bright = sp.CountHistogram.from_samples(counts, label="bright")
    for low in range(1, 9):
        dark = sp.CountHistogram((low,), (50,), label="dark")
        result = sp.calibrate_threshold(dark, bright)
        assert (result.crossing, result.threshold) == (low, low)


def test_calibrate_threshold_rejects_overlapping_histograms():
    rng = np.random.default_rng(0)
    counts = np.rint(rng.normal(100.0, 10.0, 5_000)).astype(int)
    hist = sp.CountHistogram.from_samples(counts, label="same")
    with pytest.raises(sp.ThresholdSeparationError):
        sp.calibrate_threshold(hist, hist)


def test_sample_counts_statistics(model):
    det = model.detection
    rng = np.random.default_rng(123)
    bright = np.array([sample_counts(1.0, det, rng) for _ in range(20_000)])
    dark = np.array([sample_counts(0.0, det, rng) for _ in range(20_000)])
    half = np.array([sample_counts(0.5, det, rng) for _ in range(20_000)])
    assert bright.dtype.kind == "i"
    # Poisson variance plus read noise variance.
    assert bright.mean() == pytest.approx(det.mean_bright, rel=2e-2)
    assert bright.std() ** 2 == pytest.approx(det.mean_bright + det.read_noise_sigma**2, rel=8e-2)
    assert dark.mean() == pytest.approx(det.mean_dark, rel=2e-2)
    assert half.mean() == pytest.approx(0.5 * (det.mean_bright + det.mean_dark), rel=2e-2)
    # Both misread rates are < 1e-5, so 2e4 samples should essentially never misread.
    assert np.mean(bright <= det.threshold) < 1e-3
    assert np.mean(dark > det.threshold) < 1e-3
    with pytest.raises(ValueError):
        sample_counts(1.5, det, rng)
    # The array form draws one count per window, in the fractions' shape.
    fractions = np.repeat([[1.0], [0.0], [0.5]], 20_000, axis=1)
    counts = sample_counts(fractions, det, rng)
    assert counts.dtype == np.int64
    assert counts.shape == fractions.shape
    assert counts[0].mean() == pytest.approx(det.mean_bright, rel=2e-2)
    assert counts[1].mean() == pytest.approx(det.mean_dark, rel=2e-2)
    assert counts[2].mean() == pytest.approx(0.5 * (det.mean_bright + det.mean_dark), rel=2e-2)
    for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError):
            sample_counts(np.array(bad), det, rng)


@pytest.mark.parametrize("sigma", [None, 0.0])
@pytest.mark.parametrize("fraction", [
    0.0, 1.0, 0.5, 0.0137,
    np.array([0.0, 1.0, 0.5, 0.25, 1.0, 0.0, 0.999]),
    np.linspace(0.0, 1.0, 12).reshape(3, 4),
])
def test_sample_counts_is_mean_then_draw(model, fraction, sigma):
    det = model.detection if sigma is None else dataclasses.replace(
        model.detection, read_noise_sigma=sigma)
    whole_rng, split_rng = np.random.default_rng(91), np.random.default_rng(91)
    whole = sample_counts(fraction, det, whole_rng)
    split = draw_counts(mean_counts(fraction, det), np.shape(fraction), det, split_rng)
    assert split.dtype == np.int64 and split.shape == np.shape(fraction)
    if np.ndim(fraction) == 0:
        assert type(whole) is int and whole == int(split)
    else:
        np.testing.assert_array_equal(whole, split)
    # Both routes used up the same draws.
    assert whole_rng.random() == split_rng.random()


def _per_window_counts(mean, det, rng):
    """``draw_counts`` with every mean on numpy's per-window (array) path."""
    counts = rng.poisson(mean, mean.shape)
    if det.read_noise_sigma > 0:
        counts = np.rint(counts + rng.normal(0.0, det.read_noise_sigma, mean.shape))
    return counts.astype(np.int64)


@pytest.mark.parametrize("sigma", [None, 0.0])
@pytest.mark.parametrize("fraction", [
    np.ones(1000), np.zeros(1000),  # one mean in every window
    np.array([0.0, 1.0, 0.5, 0.25]), np.linspace(0.0, 1.0, 12).reshape(3, 4),
    np.ones(1), np.zeros(0),
])
def test_draw_counts_matches_the_per_window_path(model, fraction, sigma):
    det = model.detection if sigma is None else dataclasses.replace(
        model.detection, read_noise_sigma=sigma)
    mean = mean_counts(fraction, det)
    got_rng, want_rng = np.random.default_rng(92), np.random.default_rng(92)
    got = draw_counts(mean, mean.shape, det, got_rng)
    want = _per_window_counts(mean, det, want_rng)
    assert got.dtype == np.int64 and got.shape == mean.shape
    np.testing.assert_array_equal(got, want)
    assert got_rng.random() == want_rng.random()


def test_compiled_mean_counts_are_the_window_means(model):
    det = model.detection
    for encoding in ("O", "M", "G"):
        compiled = engine._compile(sp.build_sequence(encoding, Prepare.ZERO), model)
        table = compiled.mean_counts
        assert table.dtype == np.float64
        assert table.tolist() == [det.mean_bright if fluoresces else det.mean_dark
                                  for fluoresces in compiled.fluor]


def test_classify_uses_strict_greater_than(model):
    det = model.detection
    assert not sp.detection.classify(det.threshold, det.threshold)
    assert sp.detection.classify(det.threshold + 1, det.threshold)


@pytest.mark.parametrize("threshold", [160.5, math.nan, True, -1])
def test_threshold_must_be_an_integer_of_at_least_zero(model, threshold):
    # Unchecked, 160.5 fails inside optical_error_rates with a message that
    # names no argument, and nan reads every window dark without an error.
    message = re.escape(f"threshold must be an integer >= 0, got {threshold!r}")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(model.detection, threshold=threshold)


@pytest.mark.parametrize("sigma", [None, 0.0])
def test_draw_counts_takes_a_scalar_mean_as_the_array_of_it(model, sigma):
    # The detect op passes a chunk's one mean as a scalar: numpy's scalar and
    # array Poisson paths must draw the same values and use up the same draws.
    det = model.detection if sigma is None else dataclasses.replace(
        model.detection, read_noise_sigma=sigma)
    scalar_rng, array_rng = np.random.default_rng(93), np.random.default_rng(93)
    for mean in (det.mean_dark, det.mean_bright, 3.0, 0.0):
        scalar = draw_counts(mean, (5000,), det, scalar_rng)
        array = draw_counts(np.full(5000, mean), (5000,), det, array_rng)
        assert scalar.dtype == np.int64 and scalar.shape == (5000,)
        np.testing.assert_array_equal(scalar, array)
        assert scalar_rng.bit_generator.state == array_rng.bit_generator.state
