"""Rejection-fraction table: Monte Carlo against the analytic predictions.

Runs both prepared states for each encoding and prints the simulated
rejection fraction next to the first-order and exact closed-form values.
"""

import argparse
import math

import spamsim as sp
from spamsim.sequence import Prepare


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--threads", type=int, default=8)
    args = parser.parse_args(argv)

    model = sp.default_model()
    print(f"{'sequence':<12} {'monte carlo':>14} {'first order':>12} {'exact':>10}")
    for encoding in ("O", "M", "G"):
        config = sp.ExperimentConfig(
            model=model, encoding=encoding, shots=args.shots, seed=args.seed
        )
        run = sp.run_experiment(config, workers=args.threads, collect_histograms=False)
        for state, tally in run.states.items():
            sequence = sp.build_sequence(encoding, Prepare(state))
            first = sp.predict_rejection(sequence, model)
            exact = sp.predict_rejection_exact(sequence, model)
            se = math.sqrt(exact * (1.0 - exact) / args.shots)
            label = f"{encoding}|{state}>"
            print(
                f"{label:<12} {100 * tally.rejected_fraction:>9.3f}"
                f" ({100 * se:.3f}) {100 * first:>11.2f}% {100 * exact:>9.3f}%"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
