"""Threshold calibration check on counts drawn from the default model.

Samples dark and bright photon-count histograms, calibrates a threshold from
Gaussian fits of the two (the largest integer at or below their crossing),
and compares its misclassification against the best threshold found by brute
force on the same samples (the first integer between the sample means with
the least empirical risk) and against the configured default.  Each threshold
is scored twice: by its empirical risk on the samples and by its exact risk
on the count law (half the sum of ``optical_error_rates``).  The misread
rates are of order 1e-6, so at the default sample size the empirical risks
are mostly 0 and only the exact ones tell the thresholds apart; the script
also prints the integer between the model's two means with the least exact
risk.
"""

import argparse
import dataclasses
import math

import numpy as np

import spamsim as sp
from spamsim import detection


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--method", default="moments",
                        choices=["moments", "least-squares"])
    args = parser.parse_args(argv)

    model = sp.default_model()
    rng = np.random.default_rng(args.seed)
    dark = detection.sample_counts(np.zeros(args.samples), model.detection, rng)
    bright = detection.sample_counts(np.ones(args.samples), model.detection, rng)

    result = detection.calibrate_threshold(
        detection.CountHistogram.from_samples(dark, label="dark"),
        detection.CountHistogram.from_samples(bright, label="bright"),
        method=args.method,
    )

    def empirical_risk(threshold):
        return 0.5 * (
            np.mean(dark > threshold) + np.mean(bright <= threshold)
        )

    def exact_risk(threshold):
        rates = detection.optical_error_rates(
            dataclasses.replace(model.detection, threshold=threshold))
        return 0.5 * sum(rates)

    def risks(threshold):
        return (f"empirical risk {empirical_risk(threshold):.3e},"
                f" exact risk {exact_risk(threshold):.3e}")

    best = min(range(int(dark.mean()), int(bright.mean()) + 1), key=empirical_risk)
    exact_best = min(range(math.ceil(model.detection.mean_dark),
                           math.floor(model.detection.mean_bright) + 1), key=exact_risk)

    print(f"dark fit    mean {result.dark_fit[0]:.2f} sigma {result.dark_fit[1]:.2f}")
    print(f"bright fit  mean {result.bright_fit[0]:.2f} sigma {result.bright_fit[1]:.2f}")
    print(f"calibrated threshold {result.threshold}"
          f" (crossing {result.crossing:.2f}), {risks(result.threshold)}")
    print(f"brute-force threshold {best}, {risks(best)}")
    print(f"configured default {model.detection.threshold}, {risks(model.detection.threshold)}")
    print(f"exact optimum {exact_best}, exact risk {exact_risk(exact_best):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
