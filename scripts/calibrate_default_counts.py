"""Threshold calibration check on counts drawn from the default model.

Samples dark and bright photon-count histograms, calibrates a threshold from
Gaussian fits of the two (the largest integer at or below their crossing),
and compares its empirical misclassification against the best threshold
found by brute force on the same samples (the first integer between the
sample means with the least empirical risk) and against the configured
default.
"""

import argparse

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

    best = min(range(int(dark.mean()), int(bright.mean()) + 1), key=empirical_risk)

    print(f"dark fit    mean {result.dark_fit[0]:.2f} sigma {result.dark_fit[1]:.2f}")
    print(f"bright fit  mean {result.bright_fit[0]:.2f} sigma {result.bright_fit[1]:.2f}")
    print(f"calibrated threshold {result.threshold}"
          f" (crossing {result.crossing:.2f}),"
          f" empirical risk {empirical_risk(result.threshold):.3e}")
    print(f"brute-force threshold {best},"
          f" empirical risk {empirical_risk(best):.3e}")
    print(f"configured default {model.detection.threshold}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
